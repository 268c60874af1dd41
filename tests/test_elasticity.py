"""Plane-strain CST assembly, loads, Dirichlet handling."""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from fracfem import presets
from fracfem.config import build_mesh
from fracfem.elasticity import (
    BoundaryCondition,
    ConfigError,
    MaterialParams,
    _b_matrices,
    _resolve_edges,
    assemble_loads,
    assemble_stiffness,
    dirichlet_constraints,
    element_stresses,
    full_stiffness,
    plane_strain_D,
    symmetric_product,
)
from fracfem.mesh import build_contact_pairs, generate_rect_mesh, split_fractures


# Hand-assembled stiffness of the unit right triangle (0,0)-(1,0)-(0,1)
# for E = 1, nu = 0: D = diag(1, 1, 0.5), area = 1/2,
# B = [[-1,0,1,0,0,0],[0,-1,0,0,0,1],[-1,-1,0,1,1,0]], Ke = A * B^T D B.
CST_UNIT = np.array([
    [0.75, 0.25, -0.50, -0.25, -0.25, 0.00],
    [0.25, 0.75, 0.00, -0.25, -0.25, -0.50],
    [-0.50, 0.00, 0.50, 0.00, 0.00, 0.00],
    [-0.25, -0.25, 0.00, 0.25, 0.25, 0.00],
    [-0.25, -0.25, 0.00, 0.25, 0.25, 0.00],
    [0.00, -0.50, 0.00, 0.00, 0.00, 0.50],
])


def dense_stiffness(mesh, mat):
    """The full symmetric stiffness of ``mesh`` as a dense array."""
    return full_stiffness(assemble_stiffness(mesh, mat)).toarray()


def unit_triangle_mesh():
    from fracfem.mesh import Mesh

    return Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        fractures=[],
    )


class TestPlaneStrainD:
    def test_nu_zero_pattern(self):
        D = plane_strain_D(MaterialParams(E=2.0, nu=0.0))
        np.testing.assert_allclose(D, 2.0 * np.diag([1.0, 1.0, 0.5]))

    def test_reference_modulus(self):
        # 25e9 * 0.75 / (1.25 * 0.5) = 3.0e10, evaluated by hand
        D = plane_strain_D(MaterialParams(E=25e9, nu=0.25))
        assert D[0, 0] == pytest.approx(3.0e10, rel=1e-12)

    @given(
        E=st.floats(min_value=1e3, max_value=1e12),
        nu=st.floats(min_value=0.0, max_value=0.49),
    )
    def test_symmetric(self, E, nu):
        D = plane_strain_D(MaterialParams(E=E, nu=nu))
        np.testing.assert_allclose(D, D.T)

    def test_invalid_material(self):
        with pytest.raises(ConfigError):
            MaterialParams(E=-1.0, nu=0.3)
        with pytest.raises(ConfigError):
            MaterialParams(E=1.0, nu=0.5)

    @pytest.mark.parametrize("E", [math.inf, math.nan])
    def test_non_finite_modulus_raises(self, E):
        with pytest.raises(ConfigError, match=r"material\.E must be positive and finite"):
            MaterialParams(E=E, nu=0.3)


class TestElementStiffness:
    def test_unit_right_triangle_matches_hand_assembly(self):
        # one triangle: the global stiffness is the element matrix
        mesh = unit_triangle_mesh()
        Ke = dense_stiffness(mesh, MaterialParams(E=1.0, nu=0.0))
        np.testing.assert_allclose(Ke, CST_UNIT, atol=1e-14)

    def test_rigid_translation_in_null_space(self):
        mesh = unit_triangle_mesh()
        Ke = dense_stiffness(mesh, MaterialParams(E=7e9, nu=0.3))
        u = np.array([1.0, -2.0] * 3)
        np.testing.assert_allclose(Ke @ u, 0.0, atol=1e-4)

    def test_linearized_rotation_in_null_space(self):
        mesh = unit_triangle_mesh()
        Ke = dense_stiffness(mesh, MaterialParams(E=1.0, nu=0.25))
        u = np.concatenate([[-y, x] for x, y in mesh.nodes])
        np.testing.assert_allclose(Ke @ u, 0.0, atol=1e-14)

    def test_three_zero_eigenvalues(self):
        mesh = unit_triangle_mesh()
        Ke = dense_stiffness(mesh, MaterialParams(E=1.0, nu=0.2))
        vals = np.linalg.eigvalsh(Ke)
        assert (np.abs(vals) < 1e-12).sum() == 3


class TestAssemble:
    def test_two_element_square_null_space(self):
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        K = dense_stiffness(mesh, MaterialParams(E=1.0, nu=0.25))
        vals = np.linalg.eigvalsh(K)
        assert (np.abs(vals) < 1e-12).sum() == 3

    def test_uniform_strain_energy(self):
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = generate_rect_mesh(2.0, 1.5, 4, 3, pattern="crossed")
        K = assemble_stiffness(mesh, mat)
        eps = np.array([1e-4, -2e-4, 3e-4])
        # u = [exx*x + 0.5*gxy*y, eyy*y + 0.5*gxy*x]
        u = np.empty(2 * mesh.n_nodes)
        u[0::2] = eps[0] * mesh.nodes[:, 0] + 0.5 * eps[2] * mesh.nodes[:, 1]
        u[1::2] = eps[1] * mesh.nodes[:, 1] + 0.5 * eps[2] * mesh.nodes[:, 0]
        D = plane_strain_D(mat)
        area = 2.0 * 1.5
        expected = area * eps @ D @ eps
        assert u @ symmetric_product(K, u) == pytest.approx(expected, rel=1e-10)

    def test_through_going_split_adds_rigid_modes(self):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4,
                                  fractures=[(0.0, 0.5, 1.0, 0.5)])
        split = split_fractures(mesh)
        mat = MaterialParams(E=1.0, nu=0.25)
        K0 = dense_stiffness(mesh, mat)
        K1 = dense_stiffness(split, mat)
        zeros0 = (np.abs(np.linalg.eigvalsh(K0)) < 1e-10).sum()
        zeros1 = (np.abs(np.linalg.eigvalsh(K1)) < 1e-10).sum()
        assert zeros0 == 3
        assert zeros1 == 6  # two disconnected bodies

    def test_symmetry(self):
        # only the upper triangle is stored, with every diagonal entry, so
        # the stiffness it stands for equals its transpose exactly
        mesh = generate_rect_mesh(2.0, 2.0, 5, 5, pattern="crossed")
        K = assemble_stiffness(mesh, MaterialParams(E=25e9, nu=0.25))
        A = K.tocoo()
        assert np.all(A.row <= A.col)
        assert np.count_nonzero(K.diagonal()) == K.shape[0]
        full = full_stiffness(K)
        assert (full != full.T).nnz == 0

    def test_full_stiffness_mirrors_the_triangle(self):
        # each entry above the diagonal is mirrored below it with its bits,
        # in canonical CSR; a stored zero (at (0, 1)) is dropped
        rows, cols = np.triu_indices(6)
        values = np.random.default_rng(3).standard_normal(rows.size)
        K = sp.csr_matrix((values, (rows, cols)), shape=(6, 6))
        K.data[1] = 0.0
        full = full_stiffness(K)
        dense = K.toarray()
        assert full.format == "csr" and full.has_canonical_format
        np.testing.assert_array_equal(full.toarray(), dense + np.triu(dense, 1).T)
        assert full.nnz == 34 and np.all(full.data != 0.0)

    def test_full_stiffness_of_a_preset(self):
        K, _ = _preset_stiffness("crossing-multi")
        full = full_stiffness(K)
        assert (sp.triu(full) != K).nnz == 0 and (full != full.T).nnz == 0
        assert full.nnz == 2 * K.nnz - K.shape[0]

    @pytest.mark.parametrize("name", ["inclined-crack", "crossing-single"])
    def test_symmetric_product_equals_dense_product(self, name):
        cfg = presets.get(name)
        mesh = build_mesh(cfg)
        K = assemble_stiffness(mesh, cfg.material)
        u = np.random.default_rng(7).standard_normal(K.shape[0])
        A = full_stiffness(K).toarray()
        got = symmetric_product(K, u)
        scale = np.abs(A) @ np.abs(u)  # the sums' magnitudes, row by row
        assert np.all(np.abs(got - A @ u) <= 1e-14 * scale)


def _ref_stiffness(mesh, mat):
    """The einsum assembly the term loop replaced, verbatim but for its
    triplets with row > column, which are dropped before SciPy sums them: it
    keeps the exact zeros that cancelled element terms leave in the
    pattern."""
    D = plane_strain_D(mat)
    B, areas = _b_matrices(mesh)
    Ke = np.einsum("eki,kl,elj->eij", B, D, B) * areas[:, None, None]

    dofs = np.empty((mesh.n_elements, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    upper = rows <= cols
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix(
        (Ke.ravel()[upper], (rows[upper], cols[upper])), shape=(n, n)
    ).tocsr()
    K.sum_duplicates()
    return K


@functools.lru_cache(maxsize=None)
def _preset_stiffness(name):
    """(assembled K, reference K) of a preset's mesh."""
    cfg = presets.get(name)
    mesh = build_mesh(cfg)
    return assemble_stiffness(mesh, cfg.material), _ref_stiffness(mesh, cfg.material)


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
class TestPresetStiffness:
    def test_no_stored_zeros(self, name):
        K, _ = _preset_stiffness(name)
        assert np.count_nonzero(K.data) == K.nnz

    def test_equals_einsum_assembly_bit_for_bit(self, name):
        K, ref = _preset_stiffness(name)
        ref = ref.copy()
        ref.eliminate_zeros()
        for a, b in ((K.indptr, ref.indptr), (K.indices, ref.indices),
                     (K.data.view(np.uint64), ref.data.view(np.uint64))):
            np.testing.assert_array_equal(a, b)


def test_reference_assembly_stores_zeros_on_sneddon():
    """The zeros the assembly drops exist: cancelled shear terms of the
    structured lattice."""
    K, ref = _preset_stiffness("sneddon")
    assert ref.nnz - np.count_nonzero(ref.data) == ref.nnz - K.nnz > 0


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


class TestLoads:
    def test_uniform_edge_traction_lumps_half_half(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 1, 1))
        bc = BoundaryCondition(kind="neumann", side="top", traction=[0.0, -3.0])
        F = assemble_loads(mesh, [bc])
        top_nodes = [i for i, (x, y) in enumerate(mesh.nodes) if y == 1.0]
        for n in top_nodes:
            assert F[2 * n + 1] == pytest.approx(-3.0 * 1.0 / 2.0)
        assert F.sum() == pytest.approx(-3.0)

    def test_zero_traction_zero_vector(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        F = assemble_loads(mesh, [])
        assert np.all(F == 0.0)

    def test_fracture_pressure_total_force(self):
        # through-going 2 m fracture: every node is split, so the plus face
        # collects the full p*L = 2e7 N/m and the minus face its opposite
        mesh = built(
            generate_rect_mesh(2.0, 2.0, 8, 8, fractures=[(0.0, 1.0, 2.0, 1.0)])
        )
        bc = BoundaryCondition(kind="fracture_pressure", fracture=0,
                               pressure=10e6)
        F = assemble_loads(mesh, [bc])
        plus, minus = np.zeros(2), np.zeros(2)
        (faces,) = mesh.faces
        plus_ids = {n for pu, _, pv, _ in faces for n in (pu, pv)}
        minus_ids = {n for _, mu, _, mv in faces for n in (mu, mv)}
        assert not plus_ids & minus_ids
        for n in range(mesh.n_nodes):
            f = F[2 * n : 2 * n + 2]
            if n in minus_ids:
                minus += f
            elif n in plus_ids:
                plus += f
        assert np.linalg.norm(plus) == pytest.approx(2e7, rel=1e-12)
        assert np.linalg.norm(minus) == pytest.approx(2e7, rel=1e-12)
        np.testing.assert_allclose(plus, -minus, rtol=1e-12)
        assert F.sum() == pytest.approx(0.0, abs=1e-6)

    def test_embedded_pressure_is_self_equilibrated(self):
        mesh = built(
            generate_rect_mesh(2.0, 2.0, 8, 8, fractures=[(0.5, 1.0, 1.5, 1.0)])
        )
        bc = BoundaryCondition(kind="fracture_pressure", fracture=0,
                               pressure=10e6)
        F = assemble_loads(mesh, [bc])
        assert abs(F[0::2].sum()) < 1e-6
        assert abs(F[1::2].sum()) < 1e-6


    def test_empty_ramp_rejected(self):
        # a ramp without load factors leaves no level for any step
        with pytest.raises(ConfigError, match=r"^ramp: "):
            BoundaryCondition(kind="neumann", side="top", traction=[0.0, -1.0],
                              ramp=[])


class TestDirichlet:
    def test_constraints_collect_nodes_and_values(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", uy=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.5),
        ]
        idx, vals = dirichlet_constraints(mesh, bcs)
        assert 0 in idx  # node 0 ux
        assert 1 in idx  # node 0 uy (bottom)
        assert vals[list(idx).index(0)] == 0.5

    def test_conflicting_values_rejected(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        bcs = [
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.5),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=-0.5),
        ]
        with pytest.raises(ConfigError):
            dirichlet_constraints(mesh, bcs)

    def test_elimination_keeps_spd(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 3, 3))
        mat = MaterialParams(E=25e9, nu=0.25)
        K = assemble_stiffness(mesh, mat)
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0)
        ]
        fixed, _ = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        Kr = full_stiffness(K)[free][:, free]
        assert (Kr != Kr.T).nnz == 0
        lu = spla.splu(Kr.tocsc())  # factorization succeeds: SPD after fixing
        x = lu.solve(np.ones(free.size))
        assert np.all(np.isfinite(x))


class TestPatchAndEquilibrium:
    def test_uniaxial_patch_exact(self):
        # uniform traction on the right edge reproduces the homogeneous
        # plane-strain solution exactly at every element
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = built(generate_rect_mesh(2.0, 1.0, 4, 2, pattern="crossed"))
        t = 1e6
        bcs = [
            BoundaryCondition(kind="neumann", side="right", traction=[t, 0.0]),
            BoundaryCondition(kind="dirichlet", side="left", ux=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], uy=0.0),
        ]
        K = assemble_stiffness(mesh, mat)
        F = assemble_loads(mesh, bcs)
        fixed, vals = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        U = np.zeros(2 * mesh.n_nodes)
        U[fixed] = vals
        U[free] = spla.spsolve(full_stiffness(K)[free][:, free].tocsc(), F[free])
        stresses = element_stresses(mesh, mat, U)
        np.testing.assert_allclose(stresses[:, 0], t, rtol=1e-10)
        np.testing.assert_allclose(stresses[:, 1], 0.0, atol=t * 1e-10)
        np.testing.assert_allclose(stresses[:, 2], 0.0, atol=t * 1e-10)
        # exact displacement from D^{-1} sigma
        D = plane_strain_D(mat)
        eps = np.linalg.solve(D, [t, 0.0, 0.0])
        np.testing.assert_allclose(
            U[0::2], eps[0] * mesh.nodes[:, 0], rtol=1e-10, atol=1e-22
        )

    def test_global_force_balance(self):
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = built(generate_rect_mesh(1.0, 1.0, 6, 6))
        t = np.array([3e5, -2e6])
        bcs = [
            BoundaryCondition(kind="neumann", side="top", traction=list(t)),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        K = assemble_stiffness(mesh, mat)
        F = assemble_loads(mesh, bcs)
        fixed, vals = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        U = np.zeros(2 * mesh.n_nodes)
        U[free] = spla.spsolve(full_stiffness(K)[free][:, free].tocsc(), F[free])
        reactions = (symmetric_product(K, U) - F)[fixed]
        total_applied = np.array([F[0::2].sum(), F[1::2].sum()])
        total_react = np.array(
            [reactions[0::2].sum(), reactions[1::2].sum()]
        )
        np.testing.assert_allclose(
            total_react, -total_applied, rtol=1e-9
        )


# Reference load and Dirichlet assembly: the per-edge and per-node loops the
# array kernels replaced, kept verbatim so the kernels are checked against
# them bit for bit, errors included.
def _ref_assemble_loads(mesh, bcs, step=None, n_steps=1):
    F = np.zeros(2 * mesh.n_nodes)
    gauss = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))

    for bc in bcs:
        if bc.kind == "neumann":
            t = np.asarray(bc.traction, dtype=float) * bc.scale(step, n_steps)
            for a, b in _resolve_edges(mesh, bc):
                L = float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
                fa = fb = 0.0
                for xi in gauss:
                    w = 0.5 * L
                    fa += w * (1.0 - xi)
                    fb += w * xi
                F[2 * a : 2 * a + 2] += fa * t
                F[2 * b : 2 * b + 2] += fb * t
        elif bc.kind == "fracture_pressure":
            p = float(bc.pressure) * bc.scale(step, n_steps)
            if not 0 <= bc.fracture < len(mesh.faces):
                raise ConfigError(
                    f"fracture_pressure bc references unknown fracture "
                    f"{bc.fracture}"
                )
            for pu, mu, pv, mv in mesh.faces[bc.fracture]:
                xa = mesh.nodes[[pu, mu]].mean(axis=0)
                xb = mesh.nodes[[pv, mv]].mean(axis=0)
                d = xb - xa
                L = float(np.hypot(*d))
                n = np.array([-d[1], d[0]]) / L
                for node_p, node_m, w in (
                    (pu, mu, 0.5 * L),
                    (pv, mv, 0.5 * L),
                ):
                    F[2 * node_p : 2 * node_p + 2] += w * p * n
                    F[2 * node_m : 2 * node_m + 2] -= w * p * n
        elif bc.kind == "dirichlet":
            continue
        else:
            raise ConfigError(f"unknown bc kind {bc.kind!r}")

    return F


def _ref_dirichlet_constraints(mesh, bcs, step=None, n_steps=1):
    fixed = {}

    def set_dof(dof, val):
        if dof in fixed and abs(fixed[dof] - val) > 1e-12 * max(1.0, abs(val)):
            raise ConfigError(
                f"conflicting Dirichlet values for dof {dof}: "
                f"{fixed[dof]} vs {val}"
            )
        fixed[dof] = val

    for bc in bcs:
        if bc.kind != "dirichlet":
            continue
        s = bc.scale(step, n_steps)
        if bc.nodes is not None:
            node_ids = list(bc.nodes)
            bad = [n for n in node_ids if not 0 <= n < mesh.n_nodes]
            if bad:
                raise ConfigError(f"dirichlet bc references unknown nodes {bad}")
        else:
            node_ids = sorted({int(n) for e in _resolve_edges(mesh, bc) for n in e})
        for n in node_ids:
            if bc.ux is not None:
                set_dof(2 * n, bc.ux * s)
            if bc.uy is not None:
                set_dof(2 * n + 1, bc.uy * s)

    idx = np.array(sorted(fixed), dtype=np.int64)
    vals = np.array([fixed[i] for i in idx])
    return idx, vals


def _outcome(fn, *args, **kwargs):
    """(result, None), or (None, message) when ``fn`` raises ConfigError."""
    try:
        return fn(*args, **kwargs), None
    except ConfigError as exc:
        return None, str(exc)


def _bits(a):
    """dtype, shape and raw bytes: equal only for bit-identical arrays."""
    return a.dtype, a.shape, a.tobytes()


def assert_kernels_match_reference(mesh, bcs, step, n_steps):
    F, err = _outcome(assemble_loads, mesh, bcs, step=step, n_steps=n_steps)
    ref, ref_err = _outcome(_ref_assemble_loads, mesh, bcs, step=step, n_steps=n_steps)
    assert err == ref_err
    if err is None:
        assert _bits(F) == _bits(ref)
    got, err = _outcome(dirichlet_constraints, mesh, bcs, step=step, n_steps=n_steps)
    ref, ref_err = _outcome(
        _ref_dirichlet_constraints, mesh, bcs, step=step, n_steps=n_steps
    )
    assert err == ref_err
    if err is None:
        assert _bits(got[0]) == _bits(ref[0])
        assert _bits(got[1]) == _bits(ref[1].astype(float))


def _ramp8(explicit):
    """The 8-step inclined-crack ramp, with an explicit proportional ramp
    list or with the default one."""
    n = 8
    cfg = presets.inclined_crack(n_load_steps=n)
    if explicit:
        ramp = [(k + 1) / n for k in range(n)]
        cfg.bcs = [dataclasses.replace(bc, ramp=ramp) for bc in cfg.bcs]
    return cfg


# sha256 prefix of the 1 MPa fracture_pressure load of each crossed fracture,
# recorded when the loads read per-station chain records instead of the
# face copies of each segment
CROSSED_PRESSURE_LOADS = {
    ("crossing-single", 0): "58b841d4deffe96b",
    ("crossing-single", 1): "c12bb5e3c26a547e",
    ("crossing-multi", 0): "a9e76f75fb4b024d",
    ("crossing-multi", 1): "9fa172bff49136f2",
    ("crossing-multi", 2): "caec2a44c45886a2",
    ("crossing-multi", 3): "647a47c92630401d",
    ("crossing-multi", 4): "e382d85b1924e712",
    ("crossing-multi", 5): "67f68149c808bef8",
}


class TestArrayKernelsMatchReference:
    """Loads and Dirichlet data from array operations equal the loops they
    replaced bit for bit: same dofs, same value bits, same errors."""

    @pytest.mark.parametrize("name, fid", sorted(CROSSED_PRESSURE_LOADS))
    def test_pressure_on_crossed_fractures(self, name, fid):
        # at a crossing the copies on the arriving segment's faces differ
        # from those on the departing one's
        mesh = build_mesh(presets.get(name))
        assert any(p.is_crossing_pair for p in mesh.pairs if p.fracture == fid)
        bcs = [BoundaryCondition(kind="fracture_pressure", fracture=fid,
                                 pressure=1e6)]
        assert_kernels_match_reference(mesh, bcs, None, 1)
        digest = hashlib.sha256(assemble_loads(mesh, bcs).tobytes()).hexdigest()
        assert digest[:16] == CROSSED_PRESSURE_LOADS[name, fid]

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_presets(self, name):
        cfg = presets.get(name)
        mesh = build_mesh(cfg)
        n = cfg.solver.n_load_steps
        for step in [None, *range(n)]:
            assert_kernels_match_reference(mesh, cfg.bcs, step, n)

    @pytest.mark.parametrize("explicit", [True, False])
    def test_every_ramp_step(self, explicit):
        cfg = _ramp8(explicit)
        mesh = build_mesh(cfg)
        for step in range(cfg.solver.n_load_steps):
            assert_kernels_match_reference(mesh, cfg.bcs, step, 8)

    @given(data=st.data())
    def test_drawn_bc_sets(self, data):
        mesh = _small_fractured_mesh()
        nodes = mesh.nodes
        on_box = (nodes == nodes.min(axis=0)) | (nodes == nodes.max(axis=0))
        corners = np.flatnonzero(on_box.all(axis=1)).tolist()
        sides = st.sampled_from(["left", "right", "bottom", "top"])
        # equal values, values equal within roundoff (the last one wins),
        # and conflicting ones
        values = st.none() | st.sampled_from(
            [0.0, -0.0, 1e-3, 1e-3 * (1 + 1e-14), -2e-3]
        )
        ramps = st.none() | st.lists(
            st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=6
        )
        # corners, one id past the last node, and any node
        node_ids = st.sampled_from([*corners, mesh.n_nodes]) | st.integers(
            0, mesh.n_nodes - 1
        )
        bcs = []
        for _ in range(data.draw(st.integers(1, 5))):
            ramp = data.draw(ramps)
            if data.draw(st.booleans()):
                traction = data.draw(st.lists(
                    st.floats(-1e7, 1e7, allow_nan=False), min_size=2, max_size=2
                ))
                bcs.append(BoundaryCondition(
                    kind="neumann", side=data.draw(sides), traction=traction, ramp=ramp
                ))
                continue
            if data.draw(st.booleans()):
                target = {"side": data.draw(sides)}
            else:
                target = {"nodes": data.draw(st.lists(node_ids, max_size=4))}
            bcs.append(BoundaryCondition(
                kind="dirichlet", ux=data.draw(values), uy=data.draw(values),
                ramp=ramp, **target,
            ))
        n_steps = data.draw(st.integers(1, 4))
        step = data.draw(st.none() | st.integers(0, n_steps + 1))
        assert_kernels_match_reference(mesh, bcs, step, n_steps)

    @pytest.mark.parametrize("first, last", [(0.0, -0.0), (1e-3, 1e-3 * (1 + 1e-14))])
    def test_last_value_wins_on_shared_corner(self, first, last):
        # values equal within roundoff do not conflict; the last one is kept
        mesh = _small_fractured_mesh()
        bcs = [BoundaryCondition(kind="dirichlet", side="left", ux=first),
               BoundaryCondition(kind="dirichlet", side="bottom", ux=last)]
        assert_kernels_match_reference(mesh, bcs, None, 1)
        idx, vals = dirichlet_constraints(mesh, bcs)
        corner = list(idx).index(0)  # node 0 sits on both sides
        assert _bits(vals[corner:corner + 1]) == _bits(np.array([last]))

    def test_conflict_reported_in_bc_order(self):
        # the loop stops at the first conflict it meets, and a bc that cannot
        # be resolved raises only after the bcs before it
        mesh = _small_fractured_mesh()
        left = BoundaryCondition(kind="dirichlet", side="left", ux=0.0, uy=0.0)
        cases = [
            [left,
             BoundaryCondition(kind="dirichlet", nodes=[0], ux=1.0, uy=2.0),
             BoundaryCondition(kind="dirichlet", side="bottom", ux=3.0)],
            [left,
             BoundaryCondition(kind="dirichlet", nodes=[0], uy=1.0),
             BoundaryCondition(kind="dirichlet", nodes=[mesh.n_nodes], ux=0.0)],
            [left,
             BoundaryCondition(kind="dirichlet", nodes=[mesh.n_nodes], ux=0.0),
             BoundaryCondition(kind="dirichlet", nodes=[0], uy=1.0)],
            [BoundaryCondition(kind="dirichlet", side="north", ux=0.0)],
            # the first conflict met is not the one at the lowest dof
            [BoundaryCondition(kind="dirichlet", nodes=[5, 0], ux=1.0),
             BoundaryCondition(kind="dirichlet", nodes=[5, 0], ux=2.0)],
        ]
        for bcs in cases:
            _, err = _outcome(dirichlet_constraints, mesh, bcs)
            _, ref_err = _outcome(_ref_dirichlet_constraints, mesh, bcs)
            assert err is not None and err == ref_err


@functools.lru_cache(maxsize=None)
def _small_fractured_mesh():
    # cells of width 3/7: edge lengths whose Gauss weights round differently
    # when the two points are summed in another order
    h = 3.0 / 7.0
    return built(
        generate_rect_mesh(3.0, 2.0, 7, 4, fractures=[(3 * h, 1.0, 5 * h, 1.0)])
    )


class TestIntegerIds:
    """Node and fracture ids of programmatic bcs must be integers."""

    @pytest.mark.parametrize("nodes", [[1.5], ["3"], [True], [0, 2.0]])
    def test_dirichlet_rejects_non_integer_nodes(self, nodes):
        mesh = _small_fractured_mesh()
        bc = BoundaryCondition(kind="dirichlet", nodes=nodes, ux=0.25)
        with pytest.raises(ConfigError, match="non-integer nodes"):
            dirichlet_constraints(mesh, [bc])

    def test_numpy_integer_nodes_accepted(self):
        mesh = _small_fractured_mesh()
        bc = BoundaryCondition(kind="dirichlet", nodes=np.array([1, 0]), ux=0.25)
        idx, vals = dirichlet_constraints(mesh, [bc])
        assert idx.tolist() == [0, 2] and vals.tolist() == [0.25, 0.25]

    @pytest.mark.parametrize("fracture", ["0", 0.5, True, None])
    def test_loads_reject_non_integer_fracture(self, fracture):
        mesh = _small_fractured_mesh()
        bc = BoundaryCondition(kind="fracture_pressure", fracture=fracture,
                               pressure=1e6)
        with pytest.raises(ConfigError, match="integer fracture id"):
            assemble_loads(mesh, [bc])

    def test_numpy_integer_fracture_accepted(self):
        mesh = _small_fractured_mesh()
        loads = [
            assemble_loads(mesh, [BoundaryCondition(
                kind="fracture_pressure", fracture=f, pressure=1e6
            )])
            for f in (0, np.int64(0))
        ]
        assert _bits(loads[0]) == _bits(loads[1])
