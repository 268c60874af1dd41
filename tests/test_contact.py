"""Jump kinematics, state classification, contact block assembly."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem import presets
from fracfem.config import build_mesh
from fracfem.contact import (
    GAP_NOISE,
    LAM_NOISE,
    OPEN,
    OPEN_TENSION,
    SIGN_EPS,
    SLIP_REL,
    ContactBlocks,
    FrictionParams,
    PairKinematics,
    PairState,
    StateKind,
    _state_rule,
    assemble_contact_blocks,
    classify_all,
    contact_residuals,
    mohr_coulomb_tau_c,
    pair_jumps,
    pair_kinematics,
)
from fracfem.elasticity import ConfigError
from fracfem.mesh import (
    arc_coordinates,
    build_contact_pairs,
    generate_rect_mesh,
    split_fractures,
)
from fracfem.solver import step_data

SQRT2 = math.sqrt(2.0)
FRIC30 = FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0))


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


def horizontal_mesh(nx=2):
    # unit square with a through-going horizontal fracture at mid height
    return built(
        generate_rect_mesh(1.0, 1.0, nx, 2, fractures=[(0.0, 0.5, 1.0, 0.5)])
    )


def kin(jump_n=0.0, jump_t=0.0, lam_n=0.0, lam_t=0.0, gap0=0.0):
    return PairKinematics(
        jump_n=jump_n, jump_t=jump_t, lam_n=lam_n, lam_t=lam_t, gap0=gap0,
    )


def codes_of(mesh, code):
    """Every pair of ``mesh`` in the state ``code``."""
    return np.full(mesh.n_pairs, code, dtype=np.int8)


def classify_one(k, fric, current=0, crossing=False):
    """State code of one pair with kinematics ``k`` and code ``current``,
    by the array rule on one-element arrays."""
    values = (k.jump_n, k.jump_t, k.lam_n, k.lam_t, k.gap0, crossing, current)
    return int(_state_rule(*(np.array([v]) for v in values), fric)[0])


class TestJumpDisplacement:
    def test_rigid_translation_zero_jump(self):
        mesh = horizontal_mesh()
        U = np.tile([0.123, -0.456], mesh.n_nodes)
        for jump in pair_jumps(mesh, U):
            np.testing.assert_allclose(jump, 0.0, atol=1e-15)

    @given(
        tx=st.floats(min_value=-1.0, max_value=1.0),
        ty=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=20)
    def test_any_translation_zero_jump(self, tx, ty):
        mesh = horizontal_mesh()
        U = np.tile([tx, ty], mesh.n_nodes)
        jump_n, jump_t = pair_jumps(mesh, U)
        assert np.all(np.abs(jump_n) < 1e-15)
        assert np.all(np.abs(jump_t) < 1e-15)

    def test_axis_aligned_frame(self):
        mesh = horizontal_mesh()
        pair = mesh.pairs[0]
        U = np.zeros(2 * mesh.n_nodes)
        U[2 * pair.node_plus + 1] = 1e-3
        k = pair_kinematics(pair, U, np.zeros(2 * mesh.n_pairs))
        assert k.jump_n == pytest.approx(1e-3)
        assert k.jump_t == pytest.approx(0.0, abs=1e-18)

    def test_45_degree_frame(self):
        mesh = built(
            generate_rect_mesh(2.0, 2.0, 20, 20, fractures=[(0.5, 0.5, 1.5, 1.5)])
        )
        pair = mesh.pairs[1]
        U = np.zeros(2 * mesh.n_nodes)
        U[2 * pair.node_plus] = 1e-3  # jump (1e-3, 0)
        k = pair_kinematics(pair, U, np.zeros(2 * mesh.n_pairs))
        assert k.jump_n == pytest.approx(-SQRT2 / 2 * 1e-3, rel=1e-12)
        assert k.jump_t == pytest.approx(SQRT2 / 2 * 1e-3, rel=1e-12)

    @given(
        theta=st.floats(min_value=-math.pi, max_value=math.pi),
        jx=st.floats(min_value=-1e-3, max_value=1e-3),
        jy=st.floats(min_value=-1e-3, max_value=1e-3),
    )
    def test_local_components_reconstruct_jump(self, theta, jx, jy):
        n = np.array([math.cos(theta), math.sin(theta)])
        m = np.array([n[1], -n[0]])
        jump = np.array([jx, jy])
        jn, jt = jump @ n, jump @ m
        np.testing.assert_allclose(jn * n + jt * m, jump, atol=1e-12)


class TestMohrCoulomb:
    def test_frictionless_cohesionless(self):
        assert mohr_coulomb_tau_c(0.0, FRIC30) == 0.0

    def test_reference_value(self):
        # 1e7 * tan(pi/6), evaluated by hand
        assert mohr_coulomb_tau_c(-10e6, FRIC30) == pytest.approx(
            5.7735027e6, rel=1e-7
        )

    def test_low_friction_coefficient(self):
        fric = FrictionParams(cohesion=0.0, friction_angle=math.radians(5.71))
        assert mohr_coulomb_tau_c(-10e6, fric) == pytest.approx(1.0e6, rel=2e-3)

    def test_invalid_params(self):
        with pytest.raises(Exception):
            FrictionParams(cohesion=-1.0, friction_angle=0.1)
        with pytest.raises(Exception):
            FrictionParams(cohesion=0.0, friction_angle=math.pi / 2)

    @pytest.mark.parametrize("cohesion", [math.inf, math.nan])
    def test_non_finite_cohesion_raises(self, cohesion):
        with pytest.raises(ConfigError, match=r"friction\.cohesion must be finite"):
            FrictionParams(cohesion=cohesion, friction_angle=0.1)


class TestClassifyState:
    def test_tension_opens(self):
        assert classify_one(kin(lam_n=1.0, lam_t=99e6), FRIC30) == OPEN

    def test_compressed_below_bound_sticks(self):
        assert classify_one(kin(lam_n=-10e6, lam_t=3e6), FRIC30) == 0

    def test_at_bound_slips_with_jump_sign(self):
        st_ = classify_one(kin(lam_n=-10e6, lam_t=6e6, jump_t=1e-6), FRIC30)
        assert st_ == +1

    def test_sign_falls_back_to_trial_traction(self):
        st_ = classify_one(kin(lam_n=-10e6, lam_t=-6e6, jump_t=0.0), FRIC30)
        assert st_ == -1

    def test_final_fallback_positive(self):
        # without friction, a compressed pair with no shear traction slips
        fric = FrictionParams(cohesion=0.0, friction_angle=0.0)
        assert classify_one(kin(lam_n=-10e6, lam_t=0.0), fric) == +1

    @pytest.mark.parametrize("current", [-1, 0, 1])
    @pytest.mark.parametrize("lam_n, lam_t", [
        (0.0, 0.0), (LAM_NOISE, -LAM_NOISE), (-LAM_NOISE, LAM_NOISE), (2.5e-7, -4.3e-7),
    ])
    def test_closed_pair_at_zero_traction_keeps_its_state(self, current, lam_n, lam_t):
        for fric in (FRIC30, FrictionParams(cohesion=2e5, friction_angle=0.3)):
            k = kin(lam_n=lam_n, lam_t=lam_t, jump_t=1e-6)
            assert classify_one(k, fric, current=current) == current

    def test_traction_beyond_the_noise_band_decides(self):
        above = np.nextafter(LAM_NOISE, 1.0)
        assert classify_one(kin(lam_n=above), FRIC30, current=0) == OPEN
        assert classify_one(kin(lam_n=-1e-4, lam_t=above), FRIC30, current=0) == +1

    def test_open_persists_with_positive_gap(self):
        assert classify_one(kin(jump_n=1e-6), FRIC30, current=OPEN) == OPEN

    def test_open_reengages_beyond_noise_band(self):
        assert classify_one(kin(jump_n=-1e-6), FRIC30, current=OPEN) != OPEN

    def test_open_survives_noise_level_penetration(self):
        assert classify_one(kin(jump_n=-1e-15), FRIC30, current=OPEN) == OPEN

    def test_crossing_pairs_never_slip(self):
        st_ = classify_one(kin(lam_n=-1e6, lam_t=99e6), FRIC30, crossing=True)
        assert st_ == 0

    def test_slip_state_validation(self):
        with pytest.raises(ValueError):
            PairState(StateKind.SLIP, 0)
        with pytest.raises(ValueError):
            PairState(StateKind.STICK, 1)


class TestAssembleBlocks:
    def test_all_open_decouples(self):
        mesh = horizontal_mesh()
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, OPEN), FRIC30)
        assert blocks.C.nnz == 0
        assert blocks.B_up.nnz == 0
        D = blocks.D.toarray()
        np.testing.assert_allclose(D, np.eye(2 * mesh.n_pairs))

    def test_stick_rows_are_lumped_mass_row_sums(self):
        # two segments of length 0.5 between three pairs; the closure weight
        # of each pair equals the row sum of the 1D linear mass matrix
        # [[L/3, L/6], [L/6, L/3]] accumulated over its adjacent segments
        mesh = horizontal_mesh(nx=2)
        assert mesh.n_pairs == 3
        L = 0.5
        mass = np.array([[L / 3, L / 6], [L / 6, L / 3]])
        expected_trib = {0.0: mass[0].sum(), 0.5: 2 * mass[0].sum(),
                         1.0: mass[0].sum()}
        for pair in mesh.pairs:
            assert pair.weight == pytest.approx(expected_trib[pair.arc_coord])
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        C = blocks.C.toarray()
        for pair in mesh.pairs:
            w = expected_trib[pair.arc_coord]
            row_n = C[2 * pair.id]
            assert row_n[2 * pair.node_plus + 1] == pytest.approx(w)  # +n_y
            assert row_n[2 * pair.node_minus + 1] == pytest.approx(-w)
            row_t = C[2 * pair.id + 1]
            assert row_t[2 * pair.node_plus] == pytest.approx(w)  # +m_x
            assert row_t[2 * pair.node_minus] == pytest.approx(-w)

    def test_stick_coupling_is_exact_transpose(self):
        mesh = horizontal_mesh(nx=4)
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        diff = (blocks.B_up - blocks.C.T).toarray()
        assert np.abs(diff).max() == 0.0

    def test_slip_column_structure(self):
        # tangential load direction of the normal-multiplier column equals
        # -sign*tan(phi) times the normal direction weight
        mesh = horizontal_mesh(nx=2)
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, +1), FRIC30)
        B = blocks.B_up.toarray()
        tan_phi = math.tan(math.radians(30.0))
        for pair in mesh.pairs:
            col = B[:, 2 * pair.id]
            w_n = col[2 * pair.node_plus + 1]   # normal (y) part
            w_t = col[2 * pair.node_plus]        # tangential (x) part
            assert w_t == pytest.approx(-tan_phi * w_n, rel=1e-12)
            assert np.all(B[:, 2 * pair.id + 1] == 0.0)  # no lam_t column

    def test_slip_tangential_row_is_coulomb_relation(self):
        mesh = horizontal_mesh(nx=2)
        fric = FrictionParams(cohesion=2e5, friction_angle=math.radians(30.0))
        sign = -1
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, sign), fric)
        D = blocks.D.toarray()
        for pair in mesh.pairs:
            r = 2 * pair.id + 1
            assert D[r, 2 * pair.id] == pytest.approx(sign * fric.tan_phi)
            assert D[r, r] == 1.0
            assert blocks.g[r] == pytest.approx(-sign * fric.cohesion)

    def test_slip_cohesion_load(self):
        mesh = horizontal_mesh(nx=2)
        fric = FrictionParams(cohesion=1e6, friction_angle=math.radians(30.0))
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, +1), fric)
        for pair in mesh.pairs:
            f_plus = blocks.f_slip[2 * pair.node_plus : 2 * pair.node_plus + 2]
            np.testing.assert_allclose(
                f_plus, fric.cohesion * pair.weight * pair.tangent,
                rtol=1e-12,
            )

    def test_gap_vector_uses_tributary_weights(self):
        mesh = built(
            generate_rect_mesh(1.0, 1.0, 2, 2,
                               fractures=[(0.0, 0.5, 1.0, 0.5, 1e-3)])
        )
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        for pair in mesh.pairs:
            assert blocks.g[2 * pair.id] == pytest.approx(1e-3 * pair.weight)
            assert blocks.g[2 * pair.id + 1] == 0.0

    def test_crossing_pair_rows(self):
        mesh = built(
            generate_rect_mesh(4.0, 4.0, 16, 16,
                               fractures=[(1, 2, 3, 2), (2, 1, 2, 3)])
        )
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        C = blocks.C.toarray()
        D = blocks.D.toarray()
        for pair in mesh.pairs:
            if not pair.is_crossing_pair:
                continue
            row_n = C[2 * pair.id]
            comp = pair.normal * pair.weight
            np.testing.assert_allclose(
                row_n[2 * pair.node_plus : 2 * pair.node_plus + 2], comp,
                atol=1e-15,
            )
            # tangential multiplier always pinned at a crossing
            assert np.all(C[2 * pair.id + 1] == 0.0)
            assert D[2 * pair.id + 1, 2 * pair.id + 1] == 1.0

    def test_fully_fixed_pairs_get_identity_rows(self):
        mesh = horizontal_mesh(nx=2)
        pair = mesh.pairs[0]
        fixed = np.array([
            2 * pair.node_plus, 2 * pair.node_plus + 1,
            2 * pair.node_minus, 2 * pair.node_minus + 1,
        ])
        blocks = assemble_contact_blocks(
            mesh, codes_of(mesh, 0), FRIC30, fixed_dofs=fixed
        )
        fully_fixed = np.flatnonzero(blocks.pinned.reshape(-1, 2).all(axis=1))
        assert fully_fixed.tolist() == [pair.id]
        C = blocks.C.toarray()
        D = blocks.D.toarray()
        assert np.all(C[2 * pair.id] == 0.0)
        assert D[2 * pair.id, 2 * pair.id] == 1.0

    @pytest.mark.parametrize("bad", [3, -2])
    def test_unknown_code_names_its_pair(self, bad):
        mesh = horizontal_mesh(nx=4)
        codes = codes_of(mesh, 0)
        codes[[2, 4]] = bad
        with pytest.raises(ValueError, match=f"pair 2 has state code {bad};"):
            assemble_contact_blocks(mesh, codes, FRIC30)

    def test_one_code_per_pair(self):
        mesh = horizontal_mesh(nx=4)
        with pytest.raises(ValueError, match="one state per contact pair"):
            assemble_contact_blocks(mesh, codes_of(mesh, 0)[1:], FRIC30)


class TestContactResiduals:
    def test_zero_state_zero_residuals(self):
        mesh = horizontal_mesh()
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        ru, rlam = contact_residuals(
            blocks, np.zeros(2 * mesh.n_nodes), np.zeros(2 * mesh.n_pairs)
        )
        assert np.all(ru == 0.0)
        assert np.all(rlam == 0.0)

    def test_scalar_zero_cohesion_load_adds_what_a_zero_vector_adds(self):
        # f_slip is the scalar 0.0 at zero cohesion: R^u has the bits it
        # has with a zero vector, signed zeros included
        mesh = horizontal_mesh()
        codes = np.array([0, 1, -1, OPEN] * mesh.n_pairs, np.int8)[: mesh.n_pairs]
        blocks = assemble_contact_blocks(mesh, codes, FRIC30)
        assert blocks.f_slip == 0.0 and np.ndim(blocks.f_slip) == 0
        rng = np.random.default_rng(3)
        U = rng.standard_normal(2 * mesh.n_nodes)
        for lam in (rng.standard_normal(2 * mesh.n_pairs), np.full(2 * mesh.n_pairs, -0.0)):
            ru, rlam = contact_residuals(blocks, U, lam)
            blocks.f_slip = np.zeros(2 * mesh.n_nodes)
            ref_ru, ref_rlam = contact_residuals(blocks, U, lam)
            blocks.f_slip = 0.0
            _assert_same_bits(ru, ref_ru)
            _assert_same_bits(rlam, ref_rlam)

    def test_rigid_translation_stick_residual_is_gap(self):
        mesh = built(
            generate_rect_mesh(1.0, 1.0, 2, 2,
                               fractures=[(0.0, 0.5, 1.0, 0.5, 1e-3)])
        )
        blocks = assemble_contact_blocks(mesh, codes_of(mesh, 0), FRIC30)
        U = np.tile([0.3, -0.7], mesh.n_nodes)
        _, rlam = contact_residuals(blocks, U, np.zeros(2 * mesh.n_pairs))
        np.testing.assert_allclose(rlam, blocks.g, atol=1e-16)
        assert np.linalg.norm(blocks.g) > 0.0

    def test_pair_kinematics_reads_multipliers(self):
        mesh = horizontal_mesh()
        lam = np.arange(2 * mesh.n_pairs, dtype=float)
        k = pair_kinematics(mesh.pairs[1], np.zeros(2 * mesh.n_nodes), lam)
        assert k.lam_n == 2.0
        assert k.lam_t == 3.0


# ---------------------------------------------------------------------------
# Reference: the per-pair loop assembly that the array assembly replaced,
# kept verbatim (names prefixed with _ref) to pin the new one bit for bit,
# but for the exact zeros its matrices drop as the array assembly does.
# ---------------------------------------------------------------------------

class _ref_Coo:
    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def add(self, r, c, v):
        self.rows.append(r)
        self.cols.append(c)
        self.vals.append(v)

    def matrix(self, shape):
        out = sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=shape
        ).tocsr()
        out.eliminate_zeros()
        return out


def _ref_add_pair_entries(coo, row, direction, coef, plus, minus, transpose=False):
    """Scatter coef * direction^T * (u_plus - u_minus) into a sparse row
    (or column when ``transpose``)."""
    for node, s in ((plus, 1.0), (minus, -1.0)):
        for comp in (0, 1):
            v = coef * s * direction[comp]
            if transpose:
                coo.add(2 * node + comp, row, v)
            else:
                coo.add(row, 2 * node + comp, v)


def _ref_fully_fixed_pairs(mesh, fixed_dofs):
    """Pairs whose four displacement dofs are all Dirichlet-prescribed.

    Such pairs carry no contact equations: their jump is part of the data,
    and their multiplier columns would vanish from the reduced system and
    make it singular.  Their multipliers are pinned to zero instead; the
    interface force there is absorbed by the support reactions.
    """
    if fixed_dofs is None or len(fixed_dofs) == 0:
        return frozenset()
    fixed = set(int(d) for d in fixed_dofs)
    out = set()
    for pair in mesh.pairs:
        dofs = (
            2 * pair.node_plus, 2 * pair.node_plus + 1,
            2 * pair.node_minus, 2 * pair.node_minus + 1,
        )
        if all(d in fixed for d in dofs):
            out.add(pair.id)
    return frozenset(out)


def _ref_tributary_weights(mesh):
    """Arc length owned by each regular pair: half of every adjacent
    segment (the row sum of the 1D linear-hat mass matrix)."""
    trib = np.zeros(mesh.n_pairs)
    for pair in mesh.pairs:
        if pair.is_crossing_pair:
            continue
        etas = arc_coordinates(mesh, pair.fracture)
        k = etas.index(pair.arc_coord)
        for a, b in ((k - 1, k), (k, k + 1)):
            if 0 <= a and b < len(etas):
                trib[pair.id] += 0.5 * (etas[b] - etas[a])
    return trib


def _ref_assemble_contact_blocks(mesh, codes, fric, fixed_dofs=None):
    if len(codes) != mesh.n_pairs:
        raise ValueError("one state per contact pair required")
    inactive = _ref_fully_fixed_pairs(mesh, fixed_dofs)
    n2 = 2 * mesh.n_nodes
    m2 = 2 * mesh.n_pairs
    C = _ref_Coo()
    B = _ref_Coo()
    Dmat = _ref_Coo()
    g = np.zeros(m2)
    f_slip = np.zeros(n2)
    tan_phi = fric.tan_phi
    trib = _ref_tributary_weights(mesh)

    for pair, code in zip(mesh.pairs, codes.tolist()):
        if pair.is_crossing_pair or pair.id in inactive:
            continue
        if code == OPEN:
            continue
        w = trib[pair.id]
        row_n = 2 * pair.id
        nodes = (pair.node_plus, pair.node_minus)
        _ref_add_pair_entries(C, row_n, pair.normal, w, *nodes)
        _ref_add_pair_entries(B, row_n, pair.normal, w, *nodes, transpose=True)
        g[row_n] += pair.gap0 * w
        if code == 0:
            _ref_add_pair_entries(C, row_n + 1, pair.tangent, w, *nodes)
            _ref_add_pair_entries(B, row_n + 1, pair.tangent, w, *nodes, transpose=True)
        else:  # slip: friction enters through the normal multiplier column
            _ref_add_pair_entries(
                B, row_n, -code * tan_phi * pair.tangent, w, *nodes,
                transpose=True,
            )
            if fric.cohesion != 0.0:
                coh = fric.cohesion * code * w
                f_slip[2 * pair.node_plus : 2 * pair.node_plus + 2] += (
                    coh * pair.tangent
                )
                f_slip[2 * pair.node_minus : 2 * pair.node_minus + 2] -= (
                    coh * pair.tangent
                )

    pinned = np.zeros(m2, dtype=bool)
    for pair, code in zip(mesh.pairs, codes.tolist()):
        row_n = 2 * pair.id
        row_t = row_n + 1
        if pair.id in inactive:
            Dmat.add(row_n, row_n, 1.0)
            Dmat.add(row_t, row_t, 1.0)
            pinned[row_n] = pinned[row_t] = True
        elif pair.is_crossing_pair:
            if code == OPEN:
                Dmat.add(row_n, row_n, 1.0)
                pinned[row_n] = True
            else:
                w = pair.weight
                _ref_add_pair_entries(C, row_n, pair.normal, w, pair.node_plus, pair.node_minus)
                _ref_add_pair_entries(
                    B, row_n, pair.normal, w, pair.node_plus, pair.node_minus,
                    transpose=True,
                )
                g[row_n] += w * pair.gap0
            Dmat.add(row_t, row_t, 1.0)  # no point friction at the crossing
            pinned[row_t] = True
        elif code == OPEN:
            Dmat.add(row_n, row_n, 1.0)
            Dmat.add(row_t, row_t, 1.0)
            pinned[row_n] = pinned[row_t] = True
        elif code in (-1, 1):
            Dmat.add(row_t, row_n, code * tan_phi)
            Dmat.add(row_t, row_t, 1.0)
            g[row_t] = -code * fric.cohesion

    return ContactBlocks(
        C=C.matrix((m2, n2)),
        B_up=B.matrix((n2, m2)),
        D=Dmat.matrix((m2, m2)),
        g=g,
        f_slip=f_slip,
        pinned=pinned,
    )


PRESET_NAMES = ["inclined-crack", "shear-throughgoing", "sneddon",
                "crossing-single", "crossing-multi"]


@functools.lru_cache(maxsize=None)
def _preset_mesh(name):
    """A preset's mesh and the Dirichlet dofs of its first load step."""
    config = presets.get(name)
    mesh = build_mesh(config)
    fixed = step_data(mesh, config.bcs, 0, config.solver.n_load_steps)[1]
    return mesh, fixed


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    kind = f"u{a.dtype.itemsize}"
    np.testing.assert_array_equal(a.view(kind), b.view(kind))


def _random_codes(rng, n):
    return np.array([0, 1, -1, OPEN], dtype=np.int8)[rng.integers(0, 4, size=n)]


class TestArrayAssemblyMatchesLoops:
    @pytest.mark.parametrize("cohesion", [0.0, 2e5])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_blocks_bit_identical(self, name, cohesion):
        mesh, fixed = _preset_mesh(name)
        fric = FrictionParams(cohesion=cohesion, friction_angle=math.radians(30.0))
        rng = np.random.default_rng(PRESET_NAMES.index(name))
        self.assert_matches_reference(mesh, fixed, fric, rng)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_blocks_bit_identical_partly_fixed_pairs(self, name):
        # every third pair fully fixed, every third only on its plus node
        mesh, fixed = _preset_mesh(name)
        fric = FrictionParams(cohesion=2e5, friction_angle=math.radians(30.0))
        extra = [
            d
            for p in mesh.pairs
            for d in (2 * p.node_plus, 2 * p.node_plus + 1,
                      2 * p.node_minus, 2 * p.node_minus + 1)[: 4 - 2 * (p.id % 3)]
        ]
        fixed = np.union1d(fixed, np.array(extra, dtype=np.int64))
        rng = np.random.default_rng(10 + PRESET_NAMES.index(name))
        self.assert_matches_reference(mesh, fixed, fric, rng)

    @staticmethod
    def assert_matches_reference(mesh, fixed, fric, rng):
        assignments = [codes_of(mesh, 0), codes_of(mesh, OPEN)]
        assignments += [_random_codes(rng, mesh.n_pairs) for _ in range(20)]
        for codes in assignments:
            got = assemble_contact_blocks(mesh, codes, fric, fixed_dofs=fixed)
            ref = _ref_assemble_contact_blocks(mesh, codes, fric, fixed_dofs=fixed)
            for field in ("C", "B_up", "D"):
                a, b = getattr(got, field), getattr(ref, field)
                assert a.format == b.format == "csr" and a.shape == b.shape
                for part in ("indptr", "indices", "data"):
                    _assert_same_bits(getattr(a, part), getattr(b, part))
            for field in ("g", "pinned"):
                _assert_same_bits(getattr(got, field), getattr(ref, field))
            # at zero cohesion f_slip is the scalar 0.0 that stands for the
            # reference's zero vector
            assert np.ndim(got.f_slip) == (fric.cohesion != 0.0)
            _assert_same_bits(np.broadcast_to(got.f_slip, ref.f_slip.shape), ref.f_slip)

    def test_fully_fixed_pairs_of_presets(self):
        mesh, fixed = _preset_mesh("shear-throughgoing")
        assert len(_ref_fully_fixed_pairs(mesh, fixed)) == 2

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_regular_weights_are_reference_tributaries(self, name):
        mesh, _ = _preset_mesh(name)
        trib = _ref_tributary_weights(mesh)
        regular = [p for p in mesh.pairs if not p.is_crossing_pair]
        _assert_same_bits(
            np.array([p.weight for p in regular]),
            trib[[p.id for p in regular]],
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_jumps_match_pair_kinematics(self, name):
        mesh, _ = _preset_mesh(name)
        rng = np.random.default_rng(7)
        U = rng.standard_normal(2 * mesh.n_nodes) * 1e-3
        lam = rng.standard_normal(2 * mesh.n_pairs) * 1e6
        jump_n, jump_t = pair_jumps(mesh, U)
        kins = [pair_kinematics(p, U, lam) for p in mesh.pairs]
        _assert_same_bits(jump_n, np.array([k.jump_n for k in kins]))
        _assert_same_bits(jump_t, np.array([k.jump_t for k in kins]))


# ---------------------------------------------------------------------------
# Reference: the per-pair state rule and loop that the array rule replaced,
# kept verbatim (names prefixed with _ref) to pin the new one state for state.
# ---------------------------------------------------------------------------

def _ref_all_pair_kinematics(mesh, U, lam):
    """:class:`PairKinematics` of every pair, jumps from :func:`pair_jumps`."""
    jn, jt = pair_jumps(mesh, U)
    return [
        PairKinematics(n, t, ln, lt, pair.gap0)
        for pair, n, t, ln, lt in zip(
            mesh.pairs, jn.tolist(), jt.tolist(),
            lam[0::2].tolist(), lam[1::2].tolist(),
        )
    ]


def _ref_classify_state(kin, fric, current=None, crossing=False):
    """Contact state code of one pair from its current iterate and code.

    Order of tests: a closed pair with both multipliers within LAM_NOISE of
    zero keeps its code; tension demanded -> open; an open pair with a
    positive trial gap stays open; otherwise slip if the tangential
    multiplier reaches the Mohr-Coulomb bound, else stick.  Crossing pairs
    only switch between open and (normal-)active.
    """
    if current is None:
        current = 0
    if (current != OPEN and abs(kin.lam_n) <= LAM_NOISE
            and abs(kin.lam_t) <= LAM_NOISE):
        return current
    if kin.lam_n > OPEN_TENSION:
        return OPEN
    if current == OPEN and kin.trial_gap > -GAP_NOISE:
        return OPEN
    if crossing:
        return 0
    tau_c = mohr_coulomb_tau_c(kin.lam_n, fric)
    if abs(kin.lam_t) >= tau_c * (1.0 - SLIP_REL):
        if abs(kin.jump_t) >= SIGN_EPS:
            sign = 1 if kin.jump_t > 0 else -1
        elif kin.lam_t != 0.0:
            sign = 1 if kin.lam_t > 0 else -1
        else:
            sign = 1
        return sign
    return 0


def _ref_classify_all(mesh, codes, U, lam, fric):
    return np.array([
        _ref_classify_state(kin, fric, current=code, crossing=pair.is_crossing_pair)
        for pair, code, kin in zip(
            mesh.pairs, codes.tolist(), _ref_all_pair_kinematics(mesh, U, lam)
        )
    ], dtype=np.int8)


def _straddling_iterate(mesh, fric, rng, u_scale):
    """Random ``U``, ``lam`` whose pairs straddle every branch of the rule.

    Tangential multipliers scatter around the Coulomb bound and a fifth sit
    exactly on its slip threshold; a tenth of the pairs carry no jump at all
    (so the sign falls back to ``lam_t``), and half of those also have
    ``lam_n = lam_t = 0``.  ``u_scale`` near GAP_NOISE and SIGN_EPS puts the
    trial gaps and tangential jumps on both sides of those bands.
    """
    n = mesh.n_pairs
    U = rng.standard_normal(2 * mesh.n_nodes) * u_scale
    lam_n = rng.uniform(-2e7, 2e6, n)
    lam_n[rng.random(n) < 0.05] = 0.0
    sign = rng.choice([-1.0, 1.0], n)
    threshold = mohr_coulomb_tau_c(lam_n, fric) * (1.0 - SLIP_REL)
    lam_t = sign * threshold * rng.uniform(0.9, 1.1, n)
    tie = rng.random(n) < 0.2
    lam_t[tie] = (sign * threshold)[tie]
    lam_t[rng.random(n) < 0.05] = 0.0
    still = rng.random(n) < 0.1
    U[mesh.pair_arrays.dofs[still]] = 0.0
    both = still & (rng.random(n) < 0.5)
    lam_n[both] = lam_t[both] = 0.0
    lam = np.column_stack([lam_n, lam_t]).ravel()
    return U, lam


class TestArrayClassifierMatchesRule:
    @pytest.mark.parametrize("cohesion", [0.0, 2e5])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_classify_all_equals_per_pair_rule(self, name, cohesion):
        mesh, _ = _preset_mesh(name)
        fric = FrictionParams(cohesion=cohesion, friction_angle=math.radians(30.0))
        rng = np.random.default_rng(20 + PRESET_NAMES.index(name))
        seen = set()
        for u_scale in (0.0, 1e-13, 1e-12, 3e-12, 1e-6) * 4:
            U, lam = _straddling_iterate(mesh, fric, rng, u_scale)
            codes = _random_codes(rng, mesh.n_pairs)
            got = classify_all(mesh, codes, U, lam, fric)
            _assert_same_bits(got, _ref_classify_all(mesh, codes, U, lam, fric))
            seen |= self.branches(mesh, codes, U, lam, fric)
        # under 30 degrees, lam_t = 0 reaches the slip bound only at lam_n = 0,
        # where a closed pair keeps its state; the +1 fallback of that case
        # is compared pair by pair (test_state_rule_equals_per_pair_rule)
        assert {"tie", "gap in band", "gap beyond band", "tiny jump lam_t<0",
                "tiny jump lam_t>0", "zero traction"} <= seen

    @staticmethod
    def branches(mesh, codes, U, lam, fric):
        """Which edge cases of the rule these inputs reach on regular pairs."""
        out = set()
        kins = _ref_all_pair_kinematics(mesh, U, lam)
        for pair, code, kin in zip(mesh.pairs, codes.tolist(), kins):
            if pair.is_crossing_pair:
                continue
            if code != OPEN and max(abs(kin.lam_n), abs(kin.lam_t)) <= LAM_NOISE:
                out.add("zero traction")
                continue
            if kin.lam_n > OPEN_TENSION:
                continue
            if code == OPEN:
                in_band = kin.trial_gap > -GAP_NOISE
                out.add("gap in band" if in_band else "gap beyond band")
                continue
            threshold = mohr_coulomb_tau_c(kin.lam_n, fric) * (1.0 - SLIP_REL)
            if abs(kin.lam_t) == threshold:
                out.add("tie")
            if abs(kin.lam_t) >= threshold and abs(kin.jump_t) < SIGN_EPS:
                rel = "<" if kin.lam_t < 0 else ">" if kin.lam_t > 0 else "="
                out.add(f"tiny jump lam_t{rel}0")
        return out

    @given(
        jump_n=st.floats(-3e-12, 3e-12),
        jump_t=st.floats(-3e-12, 3e-12),
        lam_n=st.floats(-1e7, 1e6),
        lam_t=st.floats(-1e7, 1e7),
        gap0=st.sampled_from([0.0, 1e-12, -1e-12, 1e-3]),
        current=st.sampled_from([None, 0, 1, -1, OPEN]),
        crossing=st.booleans(),
        cohesion=st.sampled_from([0.0, 2e5]),
        angle=st.sampled_from([0.0, math.radians(30.0)]),
    )
    @settings(max_examples=300)
    def test_state_rule_equals_per_pair_rule(
        self, jump_n, jump_t, lam_n, lam_t, gap0, current, crossing, cohesion, angle
    ):
        fric = FrictionParams(cohesion=cohesion, friction_angle=angle)
        k = kin(jump_n, jump_t, lam_n, lam_t, gap0)
        got = classify_one(k, fric, 0 if current is None else current, crossing)
        assert got == _ref_classify_state(k, fric, current, crossing)
