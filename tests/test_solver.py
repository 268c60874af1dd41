"""Saddle system assembly, preconditioning, Newton/active-set loop."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys as pysys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem import presets, solver
from fracfem.contact import (
    OPEN,
    FrictionParams,
    PairKinematics,
    StateKind,
    flipped_dofs,
    mohr_coulomb_tau_c,
    pair_jumps,
)
from fracfem.elasticity import (
    BoundaryCondition,
    MaterialParams,
    assemble_stiffness,
    full_stiffness,
)
from fracfem.mesh import build_contact_pairs, generate_rect_mesh, split_fractures
from fracfem.solver import (
    LinearSolveError,
    SaddleSystem,
    SingularRowError,
    SolutionState,
    SolverConfig,
    SystemCache,
    build_preconditioner,
    build_system,
    newton_loop,
    run_load_steps,
    step_data,
)

from reactions import fresh_solve, reaction_forces, scaled_rhs

MAT = MaterialParams(E=25e9, nu=0.25)
FRIC30 = FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0))


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


def codes_of(mesh, code):
    """Every pair of ``mesh`` in the state ``code`` (0 sticks, +-1 slips,
    OPEN is open)."""
    return np.full(mesh.n_pairs, code, dtype=np.int8)


def stick_codes(mesh):
    """Most-constrained assignment: every pair sticks (the restart of a
    cold start)."""
    return codes_of(mesh, 0)


def small_inclined_setup(sigma=10e6, pressure=0.0):
    """Coarse version of the 45-degree crack benchmark."""
    cfg = presets.inclined_crack(sigma=sigma, pressure=pressure,
                                 k_hops=10, nx=16)
    from fracfem.config import build_mesh

    return build_mesh(cfg), cfg


def make_system(mesh, cfg, codes=None):
    """(system of ``codes``, all stick when None, as build_system returns
    it, and its physical residual at U = 0)."""
    U = np.zeros(2 * mesh.n_nodes)
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U[fixed] = vals
    K = assemble_stiffness(mesh, cfg.material)
    sys = build_system(mesh, cfg.material, cfg.friction,
                       stick_codes(mesh) if codes is None else codes, K, fixed, free)
    lam = np.zeros(2 * mesh.n_pairs)
    return sys, SystemCache(K).residual(sys.blocks, F, U, lam, free)


class TestBuildSystem:
    def test_all_open_reduces_to_elasticity(self):
        mesh, cfg = small_inclined_setup()
        sys, R = make_system(mesh, cfg, codes=codes_of(mesh, OPEN))
        pc = build_preconditioner(sys)
        dx = fresh_solve(sys, pc, R)
        d_lam = dx[sys.free.size :]
        np.testing.assert_allclose(d_lam, 0.0, atol=1e-12)
        # displacement part equals the plain elastic solve
        K = assemble_stiffness(mesh, cfg.material)
        K_red = full_stiffness(K)[sys.free][:, sys.free].tocsc()
        du = spla.spsolve(K_red, -R[: sys.free.size])
        np.testing.assert_allclose(dx[: sys.free.size], du, rtol=1e-8)

    def test_all_stick_jacobian_symmetric(self):
        mesh, cfg = small_inclined_setup()
        sys, _ = make_system(mesh, cfg)
        # exactly: J's displacement block is K's upper triangle mirrored
        assert (sys.J != sys.J.T).nnz == 0

    def test_saddle_block_pattern(self):
        # square upper-left block, rectangular coupling blocks, zero
        # lower-right block in the all-stick state
        mesh, cfg = small_inclined_setup()
        sys, _ = make_system(mesh, cfg)
        n, m = sys.free.size, 2 * mesh.n_pairs
        assert sys.J.shape == (n + m, n + m)
        lower_right = sys.J[n:, n:].toarray()
        np.testing.assert_allclose(lower_right, 0.0)
        assert sys.J[:n, n:].nnz > 0
        assert sys.J[n:, :n].nnz > 0

    def test_dimensions(self):
        mesh, cfg = small_inclined_setup()
        sys, _ = make_system(mesh, cfg)
        _, fixed, _, _ = step_data(mesh, cfg.bcs, None, 1)
        assert sys.free.size == 2 * mesh.n_nodes - len(fixed)
        assert sys.J.shape[0] == sys.free.size + 2 * mesh.n_pairs


class TestPreconditioner:
    def test_pythagorean_row(self):
        J = sp.csr_matrix(np.array([[3.0, 4.0], [0.0, 1.0]]))
        sys = SaddleSystem(J=J, free=np.arange(2), blocks=None)
        pc = build_preconditioner(sys)
        assert pc[0] == pytest.approx(5.0)

    def test_identity_maps_to_identity(self):
        J = sp.identity(4, format="csr")
        sys = SaddleSystem(J=J, free=np.arange(4), blocks=None)
        pc = build_preconditioner(sys)
        np.testing.assert_allclose(pc, 1.0)
        np.testing.assert_allclose(
            (sp.diags(1.0 / pc) @ J).toarray(), np.eye(4)
        )

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20)
    def test_scaled_rows_have_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((12, 12)) * np.logspace(-6, 9, 12)[:, None]
        J = sp.csr_matrix(A)
        sys = SaddleSystem(J=J, free=np.arange(12), blocks=None)
        pc = build_preconditioner(sys)
        Jbar = sp.diags(1.0 / pc) @ J
        norms = np.sqrt(np.asarray(Jbar.multiply(Jbar).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_error_names_dof(self):
        J = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        sys = SaddleSystem(J=J, free=np.array([4, 5]), blocks=None)
        with pytest.raises(SingularRowError) as err:
            build_preconditioner(sys)
        assert "dof 5" in str(err.value)

    @pytest.mark.parametrize("n_disp, message", [
        (2, "displacement dof 5 (node 2, y)"),
        (1, "multiplier dof of pair 0 (normal)"),
    ])
    @pytest.mark.parametrize("zero_row", [[0.0, 0.0], [1e-200, 0.0]])
    def test_stored_zero_row_error_names_dof(self, n_disp, message, zero_row):
        # a row that stores only zeros, or entries whose squares underflow,
        # is a zero row
        J = sp.csr_matrix((np.array([1.0, *zero_row]), np.array([0, 0, 1]),
                           np.array([0, 1, 3])), shape=(2, 2))
        assert J.nnz == 3
        sys = SaddleSystem(J=J, free=np.array([4, 5])[:n_disp], blocks=None)
        with pytest.raises(SingularRowError) as err:
            build_preconditioner(sys)
        assert str(err.value) == f"zero Jacobian row: {message}"

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_row_norms_equal_column_order_sums(self, seed):
        # rows of 1 to 40 entries over 40 orders of magnitude; like every J
        # a run builds, it stores no zero and no entry whose square
        # underflows. A hand-built CSR J and its CSC copy give the same bits
        rng = np.random.default_rng(seed)
        n = 30
        lengths = rng.integers(1, 41, n)
        indices = np.concatenate(
            [np.sort(rng.choice(n + 20, k, replace=False)) for k in lengths])
        data = rng.standard_normal(indices.size) * 10.0 ** rng.uniform(
            -20, 20, indices.size)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        data[indptr[:-1]] = rng.uniform(1.0, 2.0, n)  # no zero row
        J = sp.csr_matrix((data, indices, indptr), shape=(n, n + 20))
        assert J.nnz == indices.size
        ref = _ref_row_norms(J)
        for A in (J, J.tocsc()):
            sys = SaddleSystem(J=A, free=np.arange(n), blocks=None)
            assert solver._same_bits(build_preconditioner(sys), ref)

    def test_row_norms_hold_one_array_of_squares(self):
        # besides the squares of J's values and vectors of J's size, the
        # sum allocates nothing near nnz(J): no copy of J's row indices
        import tracemalloc

        *_, systems = _preset_systems("crossing-multi")
        sys = systems["mix"]
        ref = build_preconditioner(sys)  # first-call set-up untraced
        tracemalloc.start()
        try:
            got = build_preconditioner(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, nnz = sys.J.shape[0], sys.J.nnz
        assert peak <= 8 * nnz + 8 * 3 * n + 64 * 1024, (peak, nnz, n)
        assert solver._same_bits(got, ref)

    def test_scaling_beats_unscaled_conditioning(self):
        mesh, cfg = small_inclined_setup()
        sys, _ = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        Jbar = (sp.diags(1.0 / pc) @ sys.J).tocsr()
        assert _cond_estimate(Jbar) < _cond_estimate(sys.J)


def _cond_estimate(A, iters=40, seed=0):
    """Power iteration on A^T A for sigma_max, inverse iteration for
    sigma_min (an independent estimator, not scipy's condest)."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    smax = 1.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        smax = np.linalg.norm(w)
        v = w / smax
    lu = spla.splu(A.tocsc())
    luT = spla.splu(A.T.tocsc())
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    nrm = 1.0
    for _ in range(iters):
        w = luT.solve(lu.solve(v))
        nrm = np.linalg.norm(w)
        v = w / nrm
    return math.sqrt(smax) * math.sqrt(nrm)


class TestLinearSolve:
    def _sys(self, J):
        return SaddleSystem(J=sp.csr_matrix(J), free=np.arange(len(J)), blocks=None)

    def test_diagonal_two_by_two(self):
        sys = self._sys([[2.0, 0.0], [0.0, 4.0]])
        pc = build_preconditioner(sys)
        dx = fresh_solve(sys, pc, np.array([2.0, 4.0]))
        np.testing.assert_allclose(dx, [-1.0, -1.0], rtol=1e-14)

    def test_matches_unpreconditioned_elasticity(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 4, 4))
        bcs = [
            BoundaryCondition(kind="neumann", side="top", traction=[0, -1e6]),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        from fracfem.config import RunConfig

        cfg = RunConfig(name="t", material=MAT, friction=FRIC30, bcs=bcs,
                        solver=SolverConfig(), generator={"width": 1})
        sys, R = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        dx = fresh_solve(sys, pc, R)
        direct = spla.spsolve(sys.J.tocsc(), -R)
        np.testing.assert_allclose(dx, direct, rtol=1e-7, atol=1e-16)

    def test_scaled_and_unscaled_solutions_agree(self):
        mesh, cfg = small_inclined_setup()
        sys, R = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        # the multiplier rows of J are scaled by s, so are those of -R
        s = sys.mult_scale
        scaled = fresh_solve(sys, pc, R)
        unscaled = spla.spsolve(sys.J.tocsc(), -np.concatenate(
            [R[: sys.free.size], s * R[sys.free.size :]]))
        assert (
            np.linalg.norm(scaled - unscaled)
            <= 1e-8 * np.linalg.norm(unscaled)
        )

    def test_singular_system_reports(self):
        sys = self._sys([[1.0, 1.0], [1.0, 1.0]])
        pc = build_preconditioner(sys)
        with pytest.raises(LinearSolveError):
            fresh_solve(sys, pc, np.array([1.0, 2.0]))


class TestNewtonLoop:
    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_newton_tol_raises(self, tol):
        # an infinite tolerance would accept any iterate as converged
        with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
            SolverConfig(newton_tol=tol)

    def test_unfractured_linear_problem_single_iteration(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 4, 4))
        bcs = [
            BoundaryCondition(kind="neumann", side="top", traction=[0, -1e6]),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        res = newton_loop(mesh, MAT, FRIC30, bcs, SolverConfig())
        assert res.converged
        assert res.newton_iters == 1
        assert res.state_loops == 1

    def test_residual_above_tolerance_fails_after_one_solve(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        solves = []
        _counted(monkeypatch, SystemCache, "solve", solves)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          SolverConfig(newton_tol=1e-30))
        assert not res.converged and res.restarted
        # one solve from the open start, then one from the all-stick restart
        assert len(solves) == res.newton_iters == res.state_loops == 2
        assert res.residual_norm >= 1e-30
        assert res.message.startswith(f"residual {res.residual_norm:.3e}")
        assert "newton_tol=1e-30" in res.message
        assert "after the open start failed: residual " in res.message

    def test_residual_below_tolerance_before_any_solve_is_solved(self):
        # sigma and E both 1e-12 of the SI case: the load's residual starts
        # far below newton_tol, yet the first loop solves, so the step ends
        # where the SI case does, not at U = 0 with no solve
        from fracfem.config import build_mesh

        si = presets.inclined_crack(k_hops=10, nx=16)
        tiny = presets.inclined_crack(sigma=10e6 * 1e-12, E=25e9 * 1e-12,
                                      k_hops=10, nx=16)
        mesh = build_mesh(si)
        ref, got = (
            run_load_steps(mesh, c.material, c.friction, c.bcs, c.solver)[-1]
            for c in (si, tiny)
        )
        assert ref.converged and got.converged
        assert got.newton_iters == ref.newton_iters == 2
        np.testing.assert_array_equal(got.codes, ref.codes)
        assert np.all(np.abs(got.codes) == 1)  # every pair slips, as in SI
        u_max = np.abs(ref.U).max()
        assert u_max > 0.0
        np.testing.assert_allclose(got.U, ref.U, rtol=0, atol=1e-10 * u_max)
        np.testing.assert_allclose(got.lam * 1e12, ref.lam, rtol=0,
                                   atol=1e-10 * np.abs(ref.lam).max())

    @pytest.mark.parametrize("name", [*presets.PRESETS, "inclined-ramp"])
    def test_one_solve_per_state_loop(self, monkeypatch, name):
        from fracfem.config import build_mesh

        if name == "inclined-ramp":
            mesh, cfg = _ramp()
        else:
            cfg = presets.get(name)
            mesh = build_mesh(cfg)
        caches = []
        _counted(monkeypatch, SystemCache, "solve", caches, lambda self, sys: self)
        results = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                                 cfg.solver)
        assert len(results) == cfg.solver.n_load_steps
        assert all(r.converged for r in results)
        assert [r.newton_iters for r in results] == [r.state_loops for r in results]
        assert len(caches) == sum(r.state_loops for r in results)
        # one cache serves every solve of the run
        assert all(c is caches[0] for c in caches)

    def test_inclined_crack_all_pairs_slip_compressive(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        assert res.converged
        assert np.all(np.abs(res.codes) == 1)
        assert all(res.lam[2 * p.id] < 0 for p in mesh.pairs)

    def test_pressure_opens_all_pairs(self):
        mesh, cfg = small_inclined_setup(sigma=0.0, pressure=10e6)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        assert res.converged
        assert np.all(res.codes == OPEN)
        np.testing.assert_allclose(res.lam, 0.0, atol=1e-20)

    def test_deterministic_bitwise(self):
        mesh, cfg = small_inclined_setup()
        a = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        b = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.lam, b.lam)
        assert solver._same_bits(a.codes, b.codes)
        assert a.newton_iters == b.newton_iters

    def test_residual_below_threshold_at_convergence(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        assert res.residual_norm < 1e-4

    def test_nonconvergence_is_reported_not_masked(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          SolverConfig(max_state_loops=1))
        assert not res.converged
        assert "max_state_loops" in res.message

    def test_global_equilibrium_with_contact(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        from fracfem.elasticity import assemble_loads

        F = assemble_loads(mesh, cfg.bcs)
        fixed, reactions = reaction_forces(
            mesh, cfg.material, cfg.friction, cfg.bcs, res
        )
        applied = np.array([F[0::2].sum(), F[1::2].sum()])
        react = np.zeros(2)
        for dof, r in zip(fixed, reactions):
            react[dof % 2] += r
        np.testing.assert_allclose(react, -applied, rtol=1e-9, atol=1e-3)


class TestLoadSteps:
    def test_single_step_equals_newton_loop(self):
        mesh, cfg = small_inclined_setup()
        a = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                        step=0)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)
        assert len(res) == 1
        np.testing.assert_array_equal(a.U, res[0].U)

    def test_proportional_ramp_path_independence(self):
        mesh, cfg = small_inclined_setup()
        one = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             SolverConfig(n_load_steps=1))[-1]
        bcs4 = []
        import dataclasses

        for bc in cfg.bcs:
            bcs4.append(dataclasses.replace(bc, ramp=[0.25, 0.5, 0.75, 1.0]))
        four = run_load_steps(mesh, cfg.material, cfg.friction, bcs4,
                              SolverConfig(n_load_steps=4))
        assert len(four) == 4
        assert all(r.converged for r in four)
        ref = np.linalg.norm(one.U)
        assert np.linalg.norm(four[-1].U - one.U) <= 1e-8 * ref

    def test_default_ramp_is_proportional(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        assert all(bc.ramp is None for bc in cfg.bcs)
        assert [cfg.bcs[0].scale(k, 4) for k in range(4)] == [0.25, 0.5, 0.75, 1.0]
        one = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             SolverConfig(n_load_steps=1))[-1]
        loads = {}
        calls = []
        real = solver.assemble_loads

        def record(mesh_, bcs_, step=None, **kw):
            F = real(mesh_, bcs_, step=step, **kw)
            loads[step] = F
            calls.append(step)
            return F

        monkeypatch.setattr(solver, "assemble_loads", record)
        four = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                              SolverConfig(n_load_steps=4))
        assert all(r.converged for r in four)
        # built once per load step, not once per state loop
        assert calls == [0, 1, 2, 3]
        full = real(mesh, cfg.bcs)
        assert np.abs(full).max() > 0.0
        for k, factor in enumerate([0.25, 0.5, 0.75, 1.0]):
            np.testing.assert_allclose(loads[k], factor * full, rtol=1e-14,
                                       atol=1e-14 * np.abs(full).max())
        ref = np.linalg.norm(one.U)
        assert np.linalg.norm(four[-1].U - one.U) <= 1e-8 * ref

    def test_increasing_shear_series_monotone_slip(self):
        # embedded horizontal fracture under constant compression and
        # stepwise increasing shear: the peak slip never decreases
        mesh = built(
            generate_rect_mesh(2.0, 1.0, 8, 4,
                               fractures=[(0.25, 0.5, 1.75, 0.5)])
        )
        taus = [5e6, 6e6, 7e6, 8e6]
        bcs = [
            BoundaryCondition(kind="neumann", side="top",
                              traction=[8e6, -10e6],
                              ramp=[t / 8e6 for t in taus]),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        # keep the compression constant across steps
        bcs[0] = BoundaryCondition(kind="neumann", side="top",
                                   traction=[1.0, 0.0],
                                   ramp=list(taus))
        bcs.append(BoundaryCondition(kind="neumann", side="top",
                                     traction=[0.0, -10e6],
                                     ramp=[1.0, 1.0, 1.0, 1.0]))
        results = run_load_steps(mesh, MAT, FRIC30, bcs,
                                 SolverConfig(n_load_steps=4))
        assert all(r.converged for r in results)
        peaks = []
        for r in results:
            slips = [
                abs(
                    (r.U[2 * p.node_plus : 2 * p.node_plus + 2]
                     - r.U[2 * p.node_minus : 2 * p.node_minus + 2])
                    @ p.tangent
                )
                for p in mesh.pairs
            ]
            peaks.append(max(slips))
        assert all(b >= a - 1e-15 for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] > peaks[0]

    def test_failed_step_carries_index(self):
        mesh, cfg = small_inclined_setup()
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             SolverConfig(n_load_steps=2, max_state_loops=1))
        assert not res[0].converged
        assert res[0].message.startswith("step 0")
        assert len(res) == 1


def _floating_block():
    """shear-throughgoing's mesh with only its bottom fixed and 10 MPa of
    compression on its top: the block above the fault is held by the fault
    alone, and under 60 degrees of friction it sticks."""
    from fracfem.config import build_mesh

    cfg = dataclasses.replace(
        presets.get("shear-throughgoing"),
        friction=FrictionParams(cohesion=0.0, friction_angle=math.radians(60.0)),
        bcs=[
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
            BoundaryCondition(kind="neumann", side="top", traction=[0.0, -10e6]),
        ],
    )
    return build_mesh(cfg), cfg


def _fault_square(n, nu, angle_deg, pull):
    """An n x n unit square with a through-going fault at mid-height, its
    bottom fixed and both sides loaded by a normal traction ``pull`` (Pa;
    negative presses): the load on the upper block balances itself."""
    from fracfem.config import build_mesh, config_from_dict

    cfg = config_from_dict({
        "mesh": {"generator": {"width": 1.0, "height": 1.0, "nx": n, "ny": n},
                 "fractures": [{"x0": 0.0, "y0": 0.5, "x1": 1.0, "y1": 0.5}]},
        "material": {"E": 25.0e9, "nu": nu},
        "friction": {"cohesion": 0.0, "friction_angle_deg": angle_deg},
        "bcs": [
            {"kind": "neumann", "side": "left", "traction": [-pull, 0.0]},
            {"kind": "neumann", "side": "right", "traction": [pull, 0.0]},
            {"kind": "dirichlet", "side": "bottom", "ux": 0.0, "uy": 0.0},
        ],
    })
    return build_mesh(cfg), cfg


def _balanced_block():
    """A 6x6 fault square pressed by 10 MPa: with every pair open its system
    is singular but consistent.  From all stick the block is held by a
    slipping and a sticking end pair, and the last system is well
    conditioned."""
    return _fault_square(6, 0.45, 60.0, -10e6)


def _attempts(monkeypatch):
    """The results of every attempt a step makes, in order."""
    attempts = []
    real = solver._active_set

    def recorded(*args, **kwargs):
        attempts.append(real(*args, **kwargs))
        return attempts[-1]

    monkeypatch.setattr(solver, "_active_set", recorded)
    return attempts


class TestColdStart:
    """A cold step starts with every pair open, and runs once more from all
    stick, as an explicit all-stick start does, when that attempt fails."""

    @staticmethod
    def assert_same_bits(a, b):
        assert solver._same_bits(a.U, b.U) and solver._same_bits(a.lam, b.lam)
        assert solver._same_bits(a.codes, b.codes)

    def test_floating_block_restarts_from_stick(self, monkeypatch):
        # all open, the upper block floats: SuperLU does not raise, and the
        # rank check refuses the open attempt's first solver
        mesh, cfg = _floating_block()
        ref = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                          warm=stick_start(mesh), step=0)
        assert ref.converged and ref.state_loops == 1
        assert np.all(ref.codes == 0)
        calls = TestFactorReuse.count_splu(monkeypatch)
        attempts = _attempts(monkeypatch)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        first = attempts[0]
        assert not first.converged and first.state_loops == 1
        assert first.message.startswith("nearly singular system")
        assert len(attempts) == 2 and len(calls) <= 2
        assert res.converged and res.restarted and res.message == ""
        assert (res.state_loops, res.newton_iters) == (2, 1)
        self.assert_same_bits(res, ref)

    def test_balanced_floating_block_restarts_from_stick(self, monkeypatch):
        # the open system is singular but consistent: the solve meets the
        # backward-error contract and leaves a residual below newton_tol, with
        # an arbitrary rigid motion of the upper block in it
        mesh, cfg = _balanced_block()
        ref = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                          warm=stick_start(mesh), step=0)
        assert ref.converged
        cache, system, residual = cached_systems(mesh, cfg)
        cache.solve(residual(system(ref.codes)))
        cache.check_rank()  # the restart ends on a well-posed system
        attempts = _attempts(monkeypatch)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        first = attempts[0]
        assert not first.converged and first.state_loops == 1
        assert first.message.startswith("nearly singular system")
        assert res.converged and res.restarted
        assert res.state_loops == 1 + ref.state_loops
        self.assert_same_bits(res, ref)

    def test_rank_check_sees_what_the_contract_does_not(self):
        mesh, cfg = _balanced_block()
        cache, system, residual = cached_systems(mesh, cfg)
        cache.solve(residual(system(stick_codes(mesh))))
        cache.check_rank()
        sys = system(codes_of(mesh, OPEN))
        R = residual(sys)
        dx = fresh_solve(sys, build_preconditioner(sys), R)
        assert np.all(np.isfinite(dx))  # the 1e-10 contract holds
        with pytest.raises(LinearSolveError, match="nearly singular"):
            cache.solve(R)

    def test_rank_probe_growth_keeps_its_bits(self, monkeypatch):
        # the probe drawn once and kept with its max, and the in-place abs,
        # give the growth of a fresh draw and fresh copies bit for bit, for
        # crossing-multi's fresh and bordered solvers alike
        from fracfem.config import build_mesh

        cfg = presets.get("crossing-multi")
        mesh = build_mesh(cfg)
        seen = []
        real = SystemCache.check_rank

        def check_rank(self):
            growth = real(self)
            b = np.random.default_rng(0).standard_normal(self.Jbar.shape[0])
            ref = float(np.abs(self.lu.solve(b)).max() / np.abs(b).max())
            seen.append((growth.hex(), ref.hex(), is_bordered(self), self.probe[0]))
            return growth

        monkeypatch.setattr(SystemCache, "check_rank", check_rank)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged
        assert [kind for *_, kind, _ in seen] == [False, False, True, True]
        assert all(got == ref for got, ref, *_ in seen)
        assert all(probe is seen[0][3] for *_, probe in seen)

    @pytest.mark.parametrize("n, nu", [(4, 0.0), (16, 0.25)])
    def test_pulled_square_fails_as_nearly_singular(self, monkeypatch, n, nu):
        # pulled apart under 30 degrees of friction, the upper block ends
        # held by one slipping pair alone, which fixes no tangential motion:
        # both attempts stop at a nearly singular system, never a success
        mesh, cfg = _fault_square(n, nu, 30.0, 10e6)
        attempts = _attempts(monkeypatch)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert len(attempts) == 2 and not res.converged and res.restarted
        last, _, first = res.message.partition(
            " (restarted from all stick after the open start failed: "
        )
        assert last.startswith("nearly singular system")
        assert first == f"{attempts[0].message})"
        assert first.startswith("nearly singular system")

    def test_failed_solve_reports_its_own_residual(self, monkeypatch):
        # the square of the CI's failing smoke run: the step reports the
        # residual of the system whose solve failed, not the loop's before
        mesh, cfg = _fault_square(4, 0.0, 30.0, 10e6)
        norms = []
        real = SystemCache.residual

        def residual(self, *args):
            R = real(self, *args)
            norms.append(solver._norm(R))
            return R

        monkeypatch.setattr(SystemCache, "residual", residual)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert not res.converged and res.message.startswith("nearly singular")
        assert res.residual_norm == norms[-1] > cfg.solver.newton_tol
        assert res.residual_norm == pytest.approx(6.346e5, rel=1e-3)

    def test_slip_reversal_ends_the_open_start(self, monkeypatch):
        # MINIMAL's pair closes from open into slip, as tau_c(0) = 0 without
        # cohesion, and then reverses; from all stick it sticks in 1 loop
        from test_cli import MINIMAL

        from fracfem.config import build_mesh, config_from_dict

        cfg = config_from_dict(MINIMAL)
        mesh = build_mesh(cfg)
        ref = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                          warm=stick_start(mesh), step=0)
        attempts = _attempts(monkeypatch)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        first = attempts[0]
        assert len(attempts) == 2 and first.state_loops == 2 and not first.cycled
        assert first.message == "a slipping pair reverses under the open start"
        assert res.converged and res.restarted and not res.cycled
        assert res.state_loops == 2 + ref.state_loops == 3
        self.assert_same_bits(res, ref)

    def test_revisit_ends_the_open_start(self, monkeypatch):
        # the open attempt never enters the tabu walk
        mesh, cfg = small_inclined_setup()
        monkeypatch.setattr(solver, "classify_all", lambda mesh, codes, *a: np.where(
            codes == OPEN, 0, OPEN
        ).astype(np.int8))
        attempts, walked = _attempts(monkeypatch), []
        _counted(monkeypatch, solver, "_cautious_update", walked,
                 lambda *a: len(attempts))
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        first = attempts[0]
        assert walked and 0 not in walked  # only the restart walks
        assert first.cycled and first.state_loops == 2
        assert first.message == "the open start revisits a state assignment"
        assert res.restarted and not res.converged

    def test_warm_start_is_not_restarted(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        attempts = _attempts(monkeypatch)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          SolverConfig(max_state_loops=1), warm=stick_start(mesh))
        assert len(attempts) == 1 and not res.converged and not res.restarted
        assert res.message == "max_state_loops=1 exceeded"

    @pytest.mark.parametrize("bad", [3, -2, 258])
    def test_warm_start_rejects_unknown_codes(self, bad):
        # checked before the cast to int8, where 258 would wrap to 2 (open)
        mesh, cfg = small_inclined_setup()
        warm = stick_start(mesh)
        warm.codes = warm.codes.astype(np.int64)
        warm.codes[[3, 5]] = bad
        with pytest.raises(ValueError, match=f"pair 3 has state code {bad};"):
            newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                        warm=warm)

    def test_mesh_without_pairs_is_not_restarted(self, monkeypatch):
        # with no pair, the all-stick start is the open start
        mesh = built(generate_rect_mesh(1.0, 1.0, 4, 4))
        bcs = [
            BoundaryCondition(kind="neumann", side="top", traction=[0, -1e6]),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        attempts = _attempts(monkeypatch)
        res = newton_loop(mesh, MAT, FRIC30, bcs, SolverConfig(newton_tol=1e-30))
        assert len(attempts) == 1 and not res.converged and not res.restarted

    def test_failed_restart_reports_both_attempts(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          SolverConfig(max_state_loops=1))
        assert not res.converged and res.restarted and res.state_loops == 2
        assert res.message == (
            "max_state_loops=1 exceeded (restarted from all stick after the "
            "open start failed: max_state_loops=1 exceeded)"
        )

    @pytest.mark.parametrize("name", [
        "balanced-block", "crossing-multi", "crossing-single", "shear-throughgoing",
    ])
    def test_all_stick_walk_ignores_the_last_bits_of_K(self, name):
        # a closed pair at zero traction keeps its state, so K's values
        # moved by an ulp (the full scatter-add's two triangles differed by
        # up to 1e-16 relative) move no state of a walk from all stick, even
        # on a fault that carries no load and whose multipliers are roundoff
        from fracfem.config import build_mesh

        if name == "balanced-block":
            mesh, cfg = _balanced_block()
        else:
            cfg = presets.get(name)
            mesh = build_mesh(cfg)
        K = assemble_stiffness(mesh, cfg.material)
        moved = K.copy()
        moved.data *= 1.0 + np.random.default_rng(1).integers(-2, 3, K.nnz) * 2.0**-52
        assert np.count_nonzero(moved.data != K.data) > K.nnz // 2
        runs = [
            newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                        warm=stick_start(mesh), step=0, systems=SystemCache(k))
            for k in (K, moved)
        ]
        assert all(r.converged for r in runs)
        assert runs[0].state_loops == runs[1].state_loops
        np.testing.assert_array_equal(runs[0].codes, runs[1].codes)

    @pytest.mark.parametrize("name", [*sorted(presets.PRESETS), "inclined-ramp"])
    def test_final_states_kept(self, name):
        # the open start ends where the all-stick start ended, but on
        # shear-throughgoing, whose fault carries no normal load: from all
        # stick, every pair ends closed (the end pairs stick, the others
        # slip) at |lam| <= 1e-6 Pa (against E = 5e9 Pa), and from open, open
        if name == "inclined-ramp":
            mesh, cfg = _ramp()
            cold = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                                  cfg.solver)
            assert [r.state_loops for r in cold] == [2] + [1] * 7
            cold = cold[-1]
        else:
            cfg = presets.get(name)
            mesh, _, cold, _ = _solved(name)
        old = stick_run(mesh, cfg)[-1]
        assert cold.converged and old.converged and not cold.restarted
        moved = np.flatnonzero(cold.codes != old.codes).tolist()
        if name == "shear-throughgoing":
            assert moved == list(range(mesh.n_pairs))
            assert np.all(cold.codes == OPEN)
            assert old.codes.tolist() == [0] + [1] * 19 + [0]
            assert np.abs(old.lam).max() <= 1e-6 and not cold.lam.any()
        else:
            assert moved == []
        ref = "inclined-crack" if name == "inclined-ramp" else name
        errors = [presets.reference_error(ref, cfg, mesh, r) for r in (cold, old)]
        if errors[0] is not None:
            assert abs(errors[0] - errors[1]) <= 1e-9


def cached_systems(mesh, cfg):
    """(run cache, system builder from state codes, residual of a system)
    at U = 0 on ``mesh``, the systems and residuals formed through the
    cache as a run forms them."""
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U = np.zeros(2 * mesh.n_nodes)
    U[fixed] = vals
    lam = np.zeros(2 * mesh.n_pairs)
    cache = SystemCache(assemble_stiffness(mesh, cfg.material))

    def system(codes):
        return cache.system(mesh, cfg.material, cfg.friction, codes, fixed, free)

    def residual(sys):
        return cache.residual(sys.blocks, F, U, lam, free)

    return cache, system, residual


def with_J(cache, sys):
    """``sys``, built through ``cache``, with its ``J`` formed again from
    the cache's ``K`` and the system's blocks, as :func:`build_system`
    forms it (the same bits): a system the cache has made a solver for no
    longer holds its ``J``, which became the cache's ``Jbar``."""
    G = solver._contact_entries(sys.blocks, sys.free, sys.mult_scale)
    J = solver._saddle_matrix(cache.K, sys.free, G)
    return dataclasses.replace(sys, J=J)


def is_bordered(cache):
    """True when the cache's current solver borders its base."""
    return isinstance(cache.lu, solver._Bordered)


class _ColumnCounting:
    """A SuperLU factorization that records the column count of each
    right-hand side it solves (1 for a vector)."""

    def __init__(self, lu, columns):
        self.lu, self.columns = lu, columns

    def solve(self, y):
        self.columns.append(1 if y.ndim == 1 else y.shape[1])
        return self.lu.solve(y)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def set_up_solves(monkeypatch):
    """A list that gets, for each bordered set-up, the column counts of the
    right-hand sides that the base's factorization solves in it."""
    set_ups = []
    real = solver._Base.bordered_solver

    def counted(self, G, pc, R):
        lu, columns = self.lu, []
        self.lu = _ColumnCounting(lu, columns)
        try:
            return real(self, G, pc, R)
        finally:
            self.lu = lu
            set_ups.append(columns)

    monkeypatch.setattr(solver._Base, "bordered_solver", counted)
    return set_ups


class TestFactorReuse:
    """The factorization is reused exactly while the system repeats."""

    @staticmethod
    def count_splu(monkeypatch):
        calls = []
        real = spla.splu

        def counting(*args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        return calls

    @staticmethod
    def ramped_run():
        mesh, cfg = small_inclined_setup()
        return run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                              SolverConfig(n_load_steps=4))

    def test_one_factorization_per_distinct_jacobian(self, monkeypatch):
        calls = self.count_splu(monkeypatch)
        keys = []
        def key(self, R):
            J = with_J(self, self.sys).J
            return b"|".join(
                a.tobytes() for a in (J.indptr, J.indices, J.data, self.preconditioner())
            )

        _counted(monkeypatch, SystemCache, "solve", keys, key)
        results = self.ramped_run()
        assert all(r.converged for r in results)
        distinct = sum(1 for k, key in enumerate(keys)
                       if k == 0 or key != keys[k - 1])
        assert len(keys) == sum(r.newton_iters for r in results)
        assert len(calls) == distinct < len(keys)
        assert set(calls) == {"MMD_AT_PLUS_A"}

    def test_reuse_is_bit_identical_to_refactoring(self, monkeypatch):
        cached = self.ramped_run()
        calls = self.count_splu(monkeypatch)
        real = SystemCache.solve

        def refactor(self, R):
            self.lu = None  # serve every solve as if its system were new
            return real(self, R)

        monkeypatch.setattr(SystemCache, "solve", refactor)
        fresh = self.ramped_run()
        assert len(calls) == sum(r.newton_iters for r in fresh)
        for a, b in zip(cached, fresh):
            np.testing.assert_array_equal(a.U, b.U)
            np.testing.assert_array_equal(a.lam, b.lam)

    def test_new_assignment_drops_the_solver(self, monkeypatch):
        # the solver, the row norms and the row-scaled copies serve only the
        # assignment they were made for: a new one finds none of them
        mesh, cfg = small_inclined_setup()
        cache, system, residual = cached_systems(mesh, cfg)
        calls = self.count_splu(monkeypatch)
        stick = stick_codes(mesh)
        first = cache.solve(residual(system(stick)))
        lu = cache.lu
        again = cache.solve(residual(system(stick.copy())))
        assert cache.lu is lu and len(calls) == 1
        np.testing.assert_array_equal(again, first)
        sys = system(codes_of(mesh, SLIP))
        assert all(x is None for x in (cache.lu, cache.Jbar, cache.pc))
        cache.solve(residual(sys))
        assert len(calls) == 2 and cache.lu is not lu

    def test_repeated_system_served_by_identity(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        cache, system, residual = cached_systems(mesh, cfg)
        calls = self.count_splu(monkeypatch)
        first = cache.solve(residual(system(stick_codes(mesh))))
        sys = system(stick_codes(mesh))
        assert sys is cache.sys  # the cache's own system, not a copy
        R = residual(sys)

        def no_compare(*args):
            raise AssertionError("a repeated solve compares no arrays")

        monkeypatch.setattr(solver, "_same_bits", no_compare)
        again = cache.solve(R)
        assert len(calls) == 1
        assert solver._same_bits is no_compare
        np.testing.assert_array_equal(again.view(np.uint64), first.view(np.uint64))

    def test_fresh_factorization_equals_reference_bits(self, monkeypatch):
        # the cache's fresh factorization, that of another run's cache and
        # fresh_solve's all solve to the same bits
        mesh, cfg = small_inclined_setup()
        calls = self.count_splu(monkeypatch)
        solves = []
        for _ in range(2):
            cache, system, residual = cached_systems(mesh, cfg)
            solves.append(cache.solve(residual(system(stick_codes(mesh)))))
            assert not is_bordered(cache)
        ref, R = make_system(mesh, cfg)  # the same system, with its J
        solves.append(fresh_solve(ref, build_preconditioner(ref), R))
        assert len(calls) == 3
        for dx in solves[1:]:
            np.testing.assert_array_equal(dx.view(np.uint64), solves[0].view(np.uint64))

    def test_abs_jacobian_shares_index_arrays(self):
        # |Jbar| v is formed on Jbar's own arrays: besides the product,
        # nothing near the size of its values is allocated, and the product
        # has the bits of the product with a copy of |Jbar|
        import tracemalloc

        mesh, cfg = _workload("crossing-multi")
        cache, system, residual = cached_systems(mesh, cfg)
        cache.solve(residual(system(codes_of(mesh, OPEN))))
        Jbar = cache.Jbar
        assert Jbar.format == "csc"
        v = np.abs(np.random.default_rng(0).standard_normal(Jbar.shape[1]))
        signs = solver._signs(Jbar)
        solver._abs_product(Jbar, v, signs)  # first-call set-up untraced
        tracemalloc.start()
        try:
            got = solver._abs_product(Jbar, v, signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + Jbar.data.nbytes / 8
        absJ = _ref_abs(Jbar)
        assert _same_csr(absJ, abs(Jbar))
        assert solver._same_bits(got, absJ @ v)


def _ref_abs(Jbar):
    """``|Jbar|`` as a matrix of its own, sharing ``Jbar``'s index arrays:
    the copy the backward error was formed with before ``_abs_product``."""
    data = np.abs(Jbar.data)
    return sp.csc_matrix((data, Jbar.indices, Jbar.indptr), shape=Jbar.shape)


def _scaled(J, pc):
    """``diag(1/pc) J`` in CSC, a row-scaled copy of a ``J`` the test formed."""
    return (sp.diags(1.0 / pc) @ J).tocsc()


def _backward_error(Jbar, dx, rhs):
    """The contract's backward error of ``dx`` on the row-scaled system."""
    denom = np.linalg.norm(rhs) + np.linalg.norm(_ref_abs(Jbar) @ np.abs(dx))
    return np.linalg.norm(Jbar @ dx - rhs) / denom


def _operator_error(op, Jbar, seed=0):
    """The largest error of the products ``op @ v`` and ``op.abs_product(|v|)``
    of a :class:`solver._ScaledSaddle` against those of the row-scaled
    matrix ``Jbar``, relative to each row's ``|Jbar||v|``."""
    v = np.random.default_rng(seed).standard_normal(Jbar.shape[1])
    scale = _ref_abs(Jbar) @ np.abs(v)
    return max(
        np.max(np.abs(op @ v - Jbar @ v) / scale),
        np.max(np.abs(op.abs_product(np.abs(v)) - scale) / scale),
    )


SLIP = 1


class TestBorderedUpdate:
    """Few flipped pairs are solved by bordering the cached factorization."""

    @staticmethod
    def flipped(codes, changes):
        out = codes.copy()
        for i, code in changes.items():
            out[i] = code
        return out

    def setup_base(self, monkeypatch, friction=None):
        """(mesh, splu calls, cache holding the all-stick base, system
        builder from state codes, residual of a system) on the coarse
        inclined crack."""
        mesh, cfg = small_inclined_setup()
        if friction is not None:
            cfg = dataclasses.replace(cfg, friction=friction)
        calls = TestFactorReuse.count_splu(monkeypatch)
        cache, system, residual = cached_systems(mesh, cfg)
        cache.solve(residual(system(stick_codes(mesh))))
        assert len(calls) == 1 and not is_bordered(cache)
        return mesh, calls, cache, system, residual

    @pytest.mark.parametrize("name, loops, count", [
        ("crossing-multi", 4, 2), ("sneddon", 1, 1), ("shear-throughgoing", 1, 1),
    ])
    def test_factorizations_per_run(self, name, loops, count):
        *_, res, zeros = _solved(name)
        assert (res.state_loops, len(zeros)) == (loops, count)
        assert not res.restarted

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_factored_matrices_hold_no_stored_zeros(self, name):
        *_, zeros = _solved(name)
        assert zeros and not any(zeros)

    def test_bordered_solve_matches_fresh_factorization(self, monkeypatch):
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        set_ups = set_up_solves(monkeypatch)
        stick = stick_codes(mesh)
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP}))
        R = residual(sys)
        rhs = R.copy()
        dx = cache.solve(rhs)
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        # four unit columns and one J_NR column, each solved on its own
        assert set_ups == [[1] * 5]
        # open pair 2 changes both its rows; slip pair 4 its tangential row
        # and its normal column (friction), the one column with J_NR entries
        nd = sys.free.size
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([4, 5, 8, 9]))
        np.testing.assert_array_equal(cache.lu.nz, [2])
        assert sys.J is None  # a bordered system's J is never formed
        ref = with_J(cache, sys)
        assert solver._same_bits(pc, build_preconditioner(ref))
        # the residual became the right-hand side in place, with the bits
        # of the one formed on a copy
        assert solver._same_bits(rhs, scaled_rhs(ref, R, pc))
        fresh = fresh_solve(ref, pc, R)
        assert len(calls) == 2
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(_scaled(ref.J, pc), dx, rhs) <= 1e-10

        # one more pair opens: of the six J^-1 columns of the new border,
        # the base carries four from the last set-up, so its factor solves
        # the two new ones, then the one nonzero J_NR column, one at a time
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP, 6: OPEN}))
        R = residual(sys)
        dx = cache.solve(R.copy())
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 2
        assert set_ups[1:] == [[1, 1, 1]]
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([4, 5, 8, 9, 12, 13]))
        assert sorted(cache.base.carried) == cache.lu.R.tolist()
        ref = with_J(cache, sys)
        assert solver._same_bits(pc, build_preconditioner(ref))
        fresh = fresh_solve(ref, pc, R)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(_scaled(ref.J, pc), dx, scaled_rhs(ref, R, pc)) <= 1e-10

    def test_frictionless_flip_borders_a_superset(self, monkeypatch):
        # with tan(phi) = 0 a stick -> slip flip leaves the normal column as
        # it was, so J - J0 touches only the tangential row; the flipped
        # pair's two dofs are bordered, and elimination on a superset of the
        # changed rows and columns is exact as well
        frictionless = FrictionParams(cohesion=1.0e6, friction_angle=0.0)
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch, frictionless)
        base = with_J(cache, system(stick_codes(mesh)))  # the base's system
        sys = system(self.flipped(stick_codes(mesh), {4: SLIP}))
        R = residual(sys)
        dx = cache.solve(R.copy())
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        nd = sys.free.size
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([8, 9]))
        sys = with_J(cache, sys)
        diff = (sys.J - base.J).tocoo()
        changed = np.union1d(diff.row[diff.row >= nd], diff.col[diff.col >= nd])
        np.testing.assert_array_equal(changed, [nd + 9])
        fresh = fresh_solve(sys, pc, R)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(_scaled(sys.J, pc), dx, scaled_rhs(sys, R, pc)) <= 1e-10

    def test_changed_displacement_block_fails_the_contract(self, monkeypatch):
        # the bordered update takes the base's displacement block as the
        # system's; when it differs after all (here K changed in place after
        # the base is factored), the bordered solve misses the backward-error
        # contract on the true J and is repeated on a fresh factorization
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        self.perturb_stiffness(cache, slice(None), lambda k: 1.5 * k)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        ref, R = with_J(cache, sys), residual(sys)  # the J of the changed K
        bordered = []
        _counted(monkeypatch, solver._Bordered, "solve", bordered)
        dx = cache.solve(R.copy())
        assert bordered and len(calls) == 2 and not is_bordered(cache)
        np.testing.assert_array_equal(dx, fresh_solve(ref, cache.preconditioner(), R))

    @staticmethod
    def perturb_stiffness(cache, at, change):
        """Change the values ``at`` of the cache's ``K`` in place, and its
        one diagonal with them."""
        cache.K.data[at] = change(cache.K.data[at])
        cache.diagonal = cache.K.diagonal()

    def test_bordered_solver_failing_the_rank_probe_refactors(self, monkeypatch):
        # a bordered solver that the probe refuses is replaced by a fresh
        # factorization, whose probe alone can fail the solve
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        real = SystemCache.check_rank

        def probe(self):
            if is_bordered(self):
                raise LinearSolveError("nearly singular system")
            real(self)

        monkeypatch.setattr(SystemCache, "check_rank", probe)
        ref, R = with_J(cache, sys), residual(sys)
        dx = cache.solve(R.copy())
        assert len(calls) == 2 and not is_bordered(cache)
        np.testing.assert_array_equal(dx, fresh_solve(ref, cache.preconditioner(), R))

    def test_one_ulp_in_displacement_block_stays_bordered(self, monkeypatch):
        # a change the contract tolerates is served by the bordered solve
        # and its refinement on the true J, without a fresh factorization
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        # one ulp in K_ff: the diagonal entry of the first free dof
        first = cache.K.indptr[cache.sys.free[0]]
        self.perturb_stiffness(cache, first, lambda k: np.nextafter(k, np.inf))
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        ref, R = with_J(cache, sys), residual(sys)  # of the changed K
        dx = cache.solve(R.copy())
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        fresh = fresh_solve(ref, pc, R)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(_scaled(ref.J, pc), dx, scaled_rhs(ref, R, pc)) <= 1e-10

    def test_update_over_budget_refactors(self, monkeypatch):
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        budget = cache.base.lu.nnz / 4
        sys = system(codes_of(mesh, SLIP))
        # every tangential row and normal column changes: the base is
        # released as soon as the system is built, before its solve
        assert sys.J.shape[0] * 2 * mesh.n_pairs > budget
        assert cache.base is None and cache.border_dofs is None
        ref = dataclasses.replace(sys, J=sys.J.copy())  # the solve scales J in place
        R = residual(sys)
        dx = cache.solve(R.copy())
        assert len(calls) == 2 and not is_bordered(cache)
        assert np.array_equal(cache.base.codes, sys.codes)
        np.testing.assert_array_equal(dx, fresh_solve(ref, cache.preconditioner(), R))

    def test_over_budget_miss_forms_no_difference(self, monkeypatch):
        # from all stick, sneddon's second loop opens all 19 pairs, 38
        # multiplier dofs, against a budget of about 20 dense columns:
        # rejected before any base solve
        from fracfem.config import build_mesh

        cfg = presets.get("sneddon")
        mesh = build_mesh(cfg)
        calls = TestFactorReuse.count_splu(monkeypatch)
        subs, borders, solves, flips = [], [], [], []
        _counted(monkeypatch, sp.csr_matrix, "__sub__", subs)
        _counted(monkeypatch, sp.csc_matrix, "__sub__", subs)
        _counted(monkeypatch, solver._Base, "border", borders)
        _counted(monkeypatch, solver._Base, "solve", solves)

        def recorded(*args):
            flips.append(flipped_dofs(*args))
            return flips[-1]

        monkeypatch.setattr(solver, "flipped_dofs", recorded)
        res = stick_run(mesh, cfg)
        assert res[-1].converged
        assert len(calls) == 2 and not subs
        assert len(borders) == 1 and not solves
        assert [f.size for f in flips] == [2 * mesh.n_pairs]

    @pytest.mark.parametrize("name, bordered, base_kept", [
        ("inclined-crack", [], [False]),
        ("sneddon", [], [False]),
        ("crossing-multi", [6, 14], [False, True, True]),
    ], ids=["inclined-crack", "sneddon", "crossing-multi"])
    def test_one_factorization_alive_while_the_next_system_is_built(
        self, monkeypatch, name, bordered, base_kept
    ):
        # when a state loop's system is built (its J formed, or the operator
        # that stands for it), no row-scaled copy, no solver and no earlier
        # system are alive, and the base only when it borders the new
        # system: from all stick, inclined-crack's (42 flipped dofs) and
        # sneddon's (38) second loops are over budget, crossing-multi's
        # second loop too, and its base then borders loops 3 and 4 on 6 and
        # 14 dofs
        import weakref

        from fracfem.config import build_mesh

        cfg = presets.get(name)
        mesh = build_mesh(cfg)
        calls = TestFactorReuse.count_splu(monkeypatch)
        caches, alive, systems, sizes = [], [], [], []
        _counted(monkeypatch, SystemCache, "__init__", caches,
                 lambda self, K: self)
        _counted(monkeypatch, solver._Bordered, "__init__", sizes,
                 lambda self, base, pc, R, *a: R.size)
        real_saddle_matrix = solver._saddle_matrix
        real_operator = solver._ScaledSaddle.__init__

        def record():
            c = caches[-1]
            alive.append((
                c.base is not None, c.lu is not None,
                c.Jbar is not None,
                any(ref() is not None for ref in systems),
            ))

        def saddle_matrix(*args):
            record()
            J = real_saddle_matrix(*args)
            systems.append(weakref.ref(J))
            return J

        def operator(self, *args):
            record()
            real_operator(self, *args)
            systems.append(weakref.ref(self))

        monkeypatch.setattr(solver, "_saddle_matrix", saddle_matrix)
        monkeypatch.setattr(solver._ScaledSaddle, "__init__", operator)
        res = stick_run(mesh, cfg)
        assert res[-1].converged and len(calls) == 2 and sizes == bordered
        assert len(alive) == res[-1].state_loops == len(base_kept) + 1
        assert alive == [(kept, False, False, False) for kept in [False, *base_kept]]

    def test_free_block_not_kept_while_factoring(self, monkeypatch):
        # K's free block lives on only inside J: at each factorization of a
        # crossing-multi run, no matrix of its shape hangs off the cache
        from fracfem.config import build_mesh

        cfg = presets.get("crossing-multi")
        mesh = build_mesh(cfg)
        n_free = step_data(mesh, cfg.bcs, None, 1)[3].size
        caches, held = [], []
        _counted(monkeypatch, SystemCache, "__init__", caches,
                 lambda self, K: self)
        _counted(monkeypatch, solver, "_splu", held, lambda Jbar: [
            name for name, value in vars(caches[-1]).items()
            if sp.issparse(value) and value.shape == (n_free, n_free)
        ])
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)
        assert res[-1].converged and held == [[], []]

    @pytest.mark.parametrize("name, borders", [
        ("crossing-multi", 3), ("crossing-single", 2), ("shear-throughgoing", 1),
    ])
    def test_border_decided_once_per_new_assignment(self, monkeypatch, name, borders):
        # every state loop after the first has a new assignment and a live
        # base, and the base is asked once whether it borders that system
        # (runs from all stick, which take more loops than from open)
        from fracfem.config import build_mesh

        cfg = presets.get(name)
        mesh = build_mesh(cfg)
        asked, flips = [], []
        _counted(monkeypatch, solver._Base, "border", asked)
        _counted(monkeypatch, solver, "flipped_dofs", flips)
        res = stick_run(mesh, cfg)
        assert res[-1].converged
        assert len(asked) == borders == res[-1].state_loops - 1
        assert len(flips) == borders

    def test_earlier_jacobian_dies_with_its_assignment(self, monkeypatch):
        # crossing-multi's loop 2 factors afresh and stays the base that
        # borders loops 3 and 4, but its J is gone once loop 3's system (the
        # operator that stands for its J) exists
        import weakref

        from fracfem.config import build_mesh

        cfg = presets.get("crossing-multi")
        mesh = build_mesh(cfg)
        refs, loop2_alive = [], []
        real, real_operator = solver.build_system, solver._ScaledSaddle.__init__

        def record(matrix):
            if len(refs) == 2:
                loop2_alive.append(refs[1]() is not None)
            refs.append(weakref.ref(matrix))

        def build(*args, **kwargs):
            sys = real(*args, **kwargs)
            record(sys.J)
            return sys

        def operator(self, *args):
            real_operator(self, *args)
            record(self)

        monkeypatch.setattr(solver, "build_system", build)
        monkeypatch.setattr(solver._ScaledSaddle, "__init__", operator)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged and len(refs) == res[-1].state_loops == 4
        assert loop2_alive == [False]

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_flipped_dofs_are_the_rows_and_columns_of_the_difference(
        self, name, seed
    ):
        # two state assignments the classifier can reach (crossing pairs
        # stick or open, slips of either sign, fully fixed pairs always
        # flipped): the flipped pairs' dofs are exactly the multiplier rows
        # and columns in which J - J0 keeps an entry
        mesh, cfg, K, (F, fixed, free, U), _ = _preset_systems(name)
        fully_fixed = np.isin(mesh.pair_arrays.dofs, fixed).all(axis=1)
        assert fully_fixed.sum() == (2 if name == "shear-throughgoing" else 0)
        sys0, sys1 = _drawn_flip_systems(name, seed)
        got = sys1.free.size + flipped_dofs(
            sys0.codes, sys1.codes, sys0.blocks.pinned, sys1.blocks.pinned
        )
        nd = sys1.free.size
        diff = (sys1.J - sys0.J).tocoo()
        assert not np.any((diff.row < nd) & (diff.col < nd))
        ref = np.union1d(diff.row[diff.row >= nd], diff.col[diff.col >= nd])
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_operator_matches_the_formed_J(self, name, seed):
        # on the drawn flip sets above, the operator that stands for the
        # second system's J sums its row norms from the first system's and
        # gets those of the J that the test forms, bit for bit, and its
        # products agree with diag(1/pc) J to 1e-14 of |Jbar||v|
        mesh, cfg, K, (F, fixed, free, U), _ = _preset_systems(name)
        sys0, sys1 = _drawn_flip_systems(name, seed)
        op = solver._ScaledSaddle(K, K.diagonal(), sys1.blocks, free,
                                  sys1.mult_scale, mesh.pair_arrays.dofs)
        pc = op.row_norms(sys1, build_preconditioner(sys0))
        ref = _ref_saddle_J(mesh, cfg.material, sys1.blocks, K, free)
        assert solver._same_bits(pc, _ref_row_norms(ref))
        assert solver._same_bits(pc, build_preconditioner(sys1))
        before = K.data.copy()
        assert _operator_error(op, _scaled(ref, pc), seed) <= 1e-14
        assert solver._same_bits(K.data, before)  # |K| was not kept

    @pytest.mark.parametrize("case", ["crossing-multi", "inclined-flips"])
    def test_bordered_solver_keeps_the_bits_of_unit_columns(self, monkeypatch, case):
        # the right-hand sides formed already divided by the base's row
        # norms, the one-column solves written into the blocks, the unit
        # columns carried from the last set-up, the one slice of J[R], the
        # uncopied J_RR and the in-place A^-1 give the blocks and solutions
        # of the construction they replaced, with each column solved on its
        # own, bit for bit: crossing-multi's two borders (no J_NR column;
        # the second reuses the first's four unit columns) and the coarse
        # inclined crack's (one J_NR column each)
        seen, caches = [], []
        real = solver._Base.bordered_solver
        _counted(monkeypatch, SystemCache, "__init__", caches, lambda self, K: self)

        def compared(self, G, pc, R):
            J = with_J(caches[-1], caches[-1].sys).J  # the J the system stands for
            ref = _ref_bordered(self, J.tocsr(), pc, R)
            out = real(self, G, pc, R)
            r = np.random.default_rng(R.size).standard_normal(J.shape[0])
            seen.append((out.nz.size, all(
                solver._same_bits(a, b)
                for a, b in zip((out.Z, out.W, out.S, out.solve(r)), ref(r))
            )))
            return out

        monkeypatch.setattr(solver._Base, "bordered_solver", compared)
        if case == "crossing-multi":
            mesh, cfg = _workload(case)
            res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                                 cfg.solver)
            assert res[-1].converged and seen == [(0, True), (0, True)]
            return
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        stick = stick_codes(mesh)
        for flips in ({2: OPEN, 4: SLIP}, {2: OPEN, 4: SLIP, 6: OPEN}):
            cache.solve(residual(system(self.flipped(stick, flips))))
        assert seen == [(1, True), (1, True)] and len(calls) == 1

    @pytest.mark.parametrize("bad", [1.0, np.nan])
    def test_bordered_miss_falls_back_to_one_fresh_factorization(
        self, monkeypatch, bad
    ):
        # the fresh factorization's J is formed from the contact entries
        # of the bordered operator, which are built once for the system
        mesh, calls, cache, system, residual = self.setup_base(monkeypatch)
        monkeypatch.setattr(solver._Bordered, "solve",
                            lambda self, r: np.full_like(r, bad))
        entries = []
        _counted(monkeypatch, solver, "_contact_entries", entries)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        R = residual(sys)
        dx = cache.solve(R.copy())
        assert len(calls) == 2 and not is_bordered(cache) and len(entries) == 1
        ref = with_J(cache, sys)
        assert np.array_equal(cache.base.codes, sys.codes)
        np.testing.assert_array_equal(dx, fresh_solve(ref, cache.preconditioner(), R))


# ---------------------------------------------------------------------------
# Reference: the saddle Jacobian as it was built before K's free block was
# sliced once per run, kept verbatim to pin the sliced construction bit for bit
# (on the full stiffness that K's stored upper triangle mirrors).
# ---------------------------------------------------------------------------

def _drawn_flip_systems(name, seed):
    """Two systems, built with their J, of a preset at U = 0 under two state
    assignments the classifier can reach (crossing pairs stick or open,
    slips of either sign), drawn from ``seed``: a random share of the pairs
    of the first, and every fully fixed pair, flipped in the second."""
    mesh, cfg, K, (F, fixed, free, U), _ = _preset_systems(name)
    rng = np.random.default_rng(seed)
    fully_fixed = np.isin(mesh.pair_arrays.dofs, fixed).all(axis=1)
    reach = [(0, OPEN) if c else _STATE_CHOICES for c in mesh.pair_arrays.crossing]
    codes0 = np.array([opts[rng.integers(len(opts))] for opts in reach], np.int8)
    share = rng.random()
    codes1 = codes0.copy()
    for p in np.flatnonzero((rng.random(mesh.n_pairs) < share) | fully_fixed):
        others = [s for s in reach[p] if s != codes0[p]]
        codes1[p] = others[rng.integers(len(others))]

    def system(codes):
        return build_system(mesh, cfg.material, cfg.friction, codes, K, fixed, free)

    return system(codes0), system(codes1)


def _ref_saddle_J(mesh, mat, blocks, K, free):
    K = full_stiffness(K)
    n2 = 2 * mesh.n_nodes
    m2 = 2 * mesh.n_pairs
    s = mat.E
    if m2:
        J_full = sp.bmat(
            [[K, s * blocks.B_up], [s * blocks.C, (s * s) * blocks.D]],
            format="csr",
        )
    else:
        J_full = K.tocsr()
    keep = np.concatenate([free, n2 + np.arange(m2, dtype=np.int64)])
    return J_full[keep][:, keep].tocsr()


def _ref_bordered(base, J, pc, R):
    """A function of ``r`` that gives the blocks ``(Z, W, S)`` of a
    bordered solver of the CSR ``J`` on ``R`` and its solution of ``r``, as
    :meth:`solver._Base.bordered_solver` and :class:`solver._Bordered`
    formed them with unit columns divided by the base's row norms in
    :meth:`solver._Base.solve` (``base_solve``), kept verbatim (but for the
    closures) to pin the pre-scaled construction bit for bit; but
    ``base_solve`` solves a block's columns each on its own, as the base's
    one-column solves do, into a column-major block."""

    def base_solve(y):
        if y.ndim == 1:
            return base.lu.solve(y / base.pc)
        out = np.empty(y.shape, order="F")
        for k, c in enumerate(y.T):
            out[:, k] = base.lu.solve(c / base.pc)
        return out

    n = J.shape[0]
    in_R = np.zeros(n, dtype=bool)
    in_R[R] = True
    JR = J[:, R].tocoo()
    keep = ~in_R[JR.row]
    nz = np.unique(JR.col[keep])
    E_R = np.zeros((n, R.size))
    E_R[R, np.arange(R.size)] = 1.0
    Z = base_solve(E_R)
    J_NR = np.zeros((n, nz.size))
    J_NR[JR.row[keep], np.searchsorted(nz, JR.col[keep])] = JR.data[keep]
    rows = J[R].tocoo()
    out = ~in_R[rows.col]
    J_RN = sp.csr_matrix(
        (rows.data[out], (rows.row[out], rows.col[out])), shape=(R.size, n)
    )
    T = Z[R]

    def a_inv(y):
        out = y - Z @ np.linalg.solve(T, y[R])
        out[R] = 0.0
        return out

    W = a_inv(base_solve(J_NR))
    S = J[R][:, R].toarray().copy()
    S[:, nz] -= J_RN @ W

    def solve(r):
        b = r * pc
        v = b.copy()
        v[R] = 0.0
        u = a_inv(base_solve(v))
        x_R = np.linalg.solve(S, b[R] - J_RN @ u)
        x = u - W @ x_R[nz]
        x[R] = x_R
        return Z, W, S, x

    return solve


def _ref_bmat_J(K, blocks, free, s):
    """J as build_system formed it with ``sp.bmat`` before it was formed
    from the arrays, kept verbatim to pin :func:`solver._saddle_matrix`, but
    for the full stiffness formed from its upper triangle ``K``."""
    K_ff = full_stiffness(K)[free][:, free]
    if not blocks.C.shape[0]:
        return K_ff
    return sp.bmat(
        [
            [K_ff, s * blocks.B_up[free]],
            [s * blocks.C[:, free], (s * s) * blocks.D],
        ],
        format="csr",
    )


def _csr_rows(counts, n_cols, rng):
    """CSR matrix whose row ``i`` holds ``counts[i]`` distinct random
    columns with random values."""
    cols = [np.sort(rng.choice(n_cols, k, replace=False)) for k in counts]
    rows = np.repeat(np.arange(len(counts)), counts)
    return sp.csr_matrix(
        (rng.standard_normal(rows.size),
         (rows, np.concatenate([np.zeros(0, np.int64), *cols]))),
        shape=(len(counts), n_cols),
    )


def _synthetic_saddle(n, m2, rng):
    """The upper triangle ``K`` of a symmetric matrix with an empty row and
    column (dof 3) and a stored zero above the diagonal, which the full
    stiffness drops, and contact blocks whose rows hold 0, 1 and 2 entries
    in turn."""
    A = sp.random(n, n, density=0.3, rng=rng, format="coo")
    A = (A + A.T + sp.identity(n)).tocoo()
    keep = (A.row != 3) & (A.col != 3) & (A.row <= A.col)
    K = sp.csr_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=(n, n))
    K.data[K.indptr[5] + 1] = 0.0
    blocks = dataclasses.make_dataclass("Blocks", ["B_up", "C", "D"])(
        B_up=_csr_rows(np.arange(n) % 3 * (m2 > 0), m2, rng),
        C=_csr_rows(np.arange(m2) % 3, n, rng),
        D=_csr_rows((np.arange(m2) + 1) % 3, m2, rng),
    )
    return K, blocks


def _ref_row_norms(J):
    """Row 2-norms summed in column order: the square of each entry of
    ``J`` in CSC added to its row's sum one at a time, column by column."""
    J = J.tocsc()
    sums = np.zeros(J.shape[0])
    np.add.at(sums, J.indices, J.data * J.data)
    return np.sqrt(sums)


def _same_csr(a, b):
    """Same ``indptr``, ``indices`` and data bits."""
    return (
        a.shape == b.shape
        and solver._same_bits(a.indptr, b.indptr)
        and solver._same_bits(a.indices, b.indices)
        and solver._same_bits(a.data, b.data)
    )


def _state_mixes(n_pairs, rng):
    """All stick, all slip with both signs, and a random stick/slip/open
    mix that holds every state."""
    mix = _STATE_CHOICES[rng.integers(0, 4, n_pairs)]
    mix[: min(4, n_pairs)] = _STATE_CHOICES[: min(4, n_pairs)]
    return {
        "stick": np.zeros(n_pairs, np.int8),
        "slip": np.where(np.arange(n_pairs) % 2, 1, -1).astype(np.int8),
        "mix": mix,
    }


@functools.lru_cache(maxsize=1)  # the tests below run preset by preset
def _preset_systems(name):
    """{mix: SaddleSystem} of a preset at U = 0 under :func:`_state_mixes`,
    with the mesh, config, stiffness and step data they were built from."""
    from fracfem.config import build_mesh

    cfg = presets.get(name)
    mesh = build_mesh(cfg)
    K = assemble_stiffness(mesh, cfg.material)
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U = np.zeros(2 * mesh.n_nodes)
    U[fixed] = vals
    systems = {}
    for mix, codes in _state_mixes(mesh.n_pairs, np.random.default_rng(5)).items():
        systems[mix] = build_system(mesh, cfg.material, cfg.friction, codes, K,
                                    fixed, free)
    return mesh, cfg, K, (F, fixed, free, U), systems


class TestSlicedAssembly:
    """J from K's free block and the sliced contact blocks and the row
    scaling equal the constructions they replaced bit for bit (J in CSC,
    the reference converted); the row norms equal the column-order sums."""

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_J_equals_full_bmat_then_restriction(self, name, mix):
        mesh, cfg, K, (F, fixed, free, U), systems = _preset_systems(name)
        sys = systems[mix]
        ref = _ref_saddle_J(mesh, cfg.material, sys.blocks, K, free).tocsc()
        assert sys.J.format == "csc" and _same_csr(sys.J, ref)
        # through the run's cache
        cache = SystemCache(K)
        codes = _state_mixes(mesh.n_pairs, np.random.default_rng(5))[mix]
        got = cache.system(mesh, cfg.material, cfg.friction, codes, fixed, free)
        assert _same_csr(got.J, ref)
        np.testing.assert_array_equal(got.codes, sys.codes)

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_row_scaling_equals_diagonal_product(self, name, mix):
        # J scaled in place has the bits of diag(1/pc) times the CSR
        # reference, converted to CSC; fresh_solve scales a copy and
        # leaves J itself alone
        mesh, cfg, K, (F, fixed, free, U), systems = _preset_systems(name)
        sys = systems[mix]
        pc = build_preconditioner(sys)
        ref = _ref_saddle_J(mesh, cfg.material, sys.blocks, K, free)
        J = sys.J.copy()
        got = solver._scale_rows(J, pc)
        assert got is J and got.format == "csc"
        assert _same_csr(got, (sp.diags(1.0 / pc) @ ref).tocsc())
        assert np.count_nonzero(got.data) == got.nnz
        if mix == "stick":
            before = sys.J.copy()
            lam = np.zeros(2 * mesh.n_pairs)
            R = SystemCache(K).residual(sys.blocks, F, U, lam, free)
            fresh_solve(sys, pc, R)
            assert _same_csr(sys.J, before)

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_row_norms_equal_column_order_sums(self, name, mix):
        # the norms of the built CSC J, and of a CSR copy of it, equal the
        # column-order sums over the CSR reference's entries bit for bit
        mesh, cfg, K, (F, fixed, free, U), systems = _preset_systems(name)
        sys = systems[mix]
        ref = _ref_row_norms(_ref_saddle_J(mesh, cfg.material, sys.blocks, K, free))
        assert solver._same_bits(build_preconditioner(sys), ref)
        as_csr = dataclasses.replace(sys, J=sys.J.tocsr())
        assert solver._same_bits(build_preconditioner(as_csr), ref)
        if (name, mix) == ("sneddon", "mix"):
            assert np.count_nonzero(sys.J.data) == sys.J.nnz

    @pytest.mark.parametrize("tan_phi", ["preset", "zero"])
    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_blocks_and_J_store_no_zero(self, name, mix, tan_phi):
        # sneddon's axis-aligned frames hold components of ±0.0, and
        # tan(phi) = 0 zeroes every slip pair's friction entries: none of
        # them is stored, in the contact blocks or in J
        mesh, cfg, K, (F, fixed, free, U), systems = _preset_systems(name)
        sys = systems[mix]
        if tan_phi == "zero":
            fric = FrictionParams(cohesion=cfg.friction.cohesion, friction_angle=0.0)
            sys = build_system(mesh, cfg.material, fric, sys.codes, K, fixed, free)
            D = sys.blocks.D  # only its identity rows' diagonal is left
            assert D.nnz == np.count_nonzero(D.diagonal())
        for m in (sys.blocks.C, sys.blocks.B_up, sys.blocks.D, sys.J):
            assert np.count_nonzero(m.data) == m.nnz

    @pytest.mark.parametrize("m2", [0, 2, 6])
    @pytest.mark.parametrize("fixed", [
        [], [0, 1, 22, 23], [0, 23], list(range(1, 24, 3)), [3],
    ], ids=["none", "first-and-last-two", "first-and-last", "interleaved",
            "empty-row"])
    def test_saddle_matrix_equals_bmat_on_edge_cases(self, fixed, m2):
        # both passes against K[free][:, free] and sp.bmat: no fixed dof,
        # fixed first and last rows, interleaved fixed dofs, and contact
        # rows with 0, 1 and 2 entries (m2 = 0 is a mesh without pairs)
        n, s = 24, 2.5e10
        K, blocks = _synthetic_saddle(n, m2, np.random.default_rng(len(fixed)))
        free = np.setdiff1d(np.arange(n, dtype=np.int64), fixed)
        got = solver._saddle_matrix(K, free, solver._contact_entries(blocks, free, s))
        ref = _ref_bmat_J(K, blocks, free, s)
        assert _same_csr(got, ref.tocsc())
        assert got.format == "csc" and got.has_sorted_indices
        assert np.all(got.data != 0.0)
        if not m2:
            assert _same_csr(got, full_stiffness(K)[free][:, free].tocsc())

    def test_mesh_without_pairs_gives_free_block(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 4, 4))
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
            BoundaryCondition(kind="neumann", side="top", traction=(0.0, -1e6)),
        ]
        K = assemble_stiffness(mesh, MAT)
        _, fixed, _, free = step_data(mesh, bcs, None, 1)
        sys = build_system(mesh, MAT, FRIC30, np.zeros(0, np.int8), K, fixed, free)
        assert sys.J.shape[0] == free.size and fixed.size and free.size
        assert _same_csr(sys.J, full_stiffness(K)[free][:, free].tocsc())

    def test_free_dofs_equal_set_difference(self):
        # free is held in K's index dtype, half the bytes of an int64 array
        mesh, cfg = small_inclined_setup()
        _, fixed, _, free = step_data(mesh, cfg.bcs, None, 1)
        ref = np.setdiff1d(np.arange(2 * mesh.n_nodes, dtype=np.int64), fixed)
        assert free.dtype == assemble_stiffness(mesh, cfg.material).indices.dtype
        assert free.dtype == np.int32
        np.testing.assert_array_equal(free, ref)


def _ramp():
    """The 8-step proportional ramp of the inclined crack."""
    from fracfem.config import build_mesh

    n = 8
    cfg = presets.inclined_crack(n_load_steps=n)
    ramp = [(k + 1) / n for k in range(n)]
    cfg.bcs = [dataclasses.replace(bc, ramp=ramp) for bc in cfg.bcs]
    return build_mesh(cfg), cfg


def stick_start(mesh):
    """An explicit all-stick start at U = 0 and lam = 0, to pass as
    ``warm``: the start of a cold step's restart."""
    return SolutionState(U=np.zeros(2 * mesh.n_nodes),
                         lam=np.zeros(2 * mesh.n_pairs), codes=stick_codes(mesh))


def stick_run(mesh, cfg):
    """``cfg``'s load steps as :func:`run_load_steps` runs them when they
    converge, with the first step started from all stick."""
    systems = SystemCache(assemble_stiffness(mesh, cfg.material))
    results, warm = [], stick_start(mesh)
    for step in range(cfg.solver.n_load_steps):
        warm = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver,
                           warm=warm, step=step, systems=systems)
        results.append(warm)
    return results


def _counted(monkeypatch, owner, attr, calls, record=lambda *a, **kw: None):
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


class TestSystemReuse:
    """A load step or state loop that repeats the last state assignment and
    Dirichlet set reuses the last system instead of building it."""

    @staticmethod
    def run(mesh, cfg):
        return run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)

    @staticmethod
    def assert_same_runs(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.converged and y.converged
            assert solver._same_bits(x.U, y.U)
            assert solver._same_bits(x.lam, y.lam)
            assert solver._same_bits(x.codes, y.codes)
            assert (x.newton_iters, x.state_loops) == (y.newton_iters, y.state_loops)

    def test_blocks_and_row_norms_once_per_assignment(self, monkeypatch):
        mesh, cfg = _ramp()
        blocks, norms, loops = [], [], []
        _counted(monkeypatch, solver, "assemble_contact_blocks", blocks,
                 lambda mesh, codes, *a, **kw: codes.tobytes())
        _counted(monkeypatch, solver, "build_preconditioner", norms)
        _counted(monkeypatch, solver, "classify_all", loops,
                 lambda mesh, codes, *a: codes.tobytes())
        results = self.run(mesh, cfg)
        assert sum(r.state_loops for r in results) == len(loops) == 9
        # all open, then all slip for the rest of the ramp
        distinct = [s for k, s in enumerate(loops) if k == 0 or s != loops[k - 1]]
        assert len(distinct) == 2
        assert blocks == distinct
        assert len(norms) == 2

    def test_boundary_edge_table_once_per_mesh(self, monkeypatch):
        import fracfem.mesh

        mesh, cfg = _ramp()
        tables, queries = [], []
        _counted(monkeypatch, fracfem.mesh, "_edge_table", tables)
        _counted(monkeypatch, fracfem.elasticity, "select_boundary_edges", queries)
        self.run(mesh, cfg)
        assert len(queries) == 16  # 2 sides, every step
        assert len(tables) == 1
        assert not mesh.boundary_edges.flags.writeable

    def test_boundary_sides_once_per_mesh(self, monkeypatch):
        from functools import cached_property

        import fracfem.elasticity
        from fracfem.mesh import Mesh

        mesh, cfg = _ramp()
        builds, queries = [], []
        real = Mesh.boundary_sides.func

        def counting(self_):
            builds.append(self_)
            return real(self_)

        prop = cached_property(counting)
        prop.__set_name__(Mesh, "boundary_sides")
        monkeypatch.setattr(Mesh, "boundary_sides", prop)
        _counted(monkeypatch, fracfem.elasticity, "select_boundary_edges", queries)
        self.run(mesh, cfg)
        assert len(queries) == 16  # 2 sides, every step
        assert builds == [mesh]

    def test_equals_run_without_reuse(self, monkeypatch):
        mesh, cfg = _ramp()
        reused = self.run(mesh, cfg)
        blocks = []
        _counted(monkeypatch, solver, "assemble_contact_blocks", blocks)
        monkeypatch.setattr(SystemCache, "_repeats", lambda self, st, fx: False)
        built_ = self.run(mesh, cfg)
        assert len(blocks) == sum(r.state_loops for r in built_) == 9
        self.assert_same_runs(reused, built_)

    def test_changed_dirichlet_set_rebuilds(self, monkeypatch):
        # from step 4 on, the bottom-right corner is held horizontally too
        mesh, cfg = _ramp()
        corner = int(np.argmax(mesh.nodes[:, 0] - mesh.nodes[:, 1]))
        real = solver.dirichlet_constraints

        at = []  # the step whose data was formed last

        def more_fixed(mesh_, bcs, step=None, n_steps=1):
            at.append(step)
            fixed, vals = real(mesh_, bcs, step=step, n_steps=n_steps)
            if step >= 4:
                fixed, vals = np.append(fixed, 2 * corner), np.append(vals, 0.0)
                order = np.argsort(fixed)
                fixed, vals = fixed[order], vals[order]
            return fixed, vals

        monkeypatch.setattr(solver, "dirichlet_constraints", more_fixed)
        steps = []
        real_build = solver.build_system

        def build(*args, **kwargs):
            steps.append(at[-1])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(solver, "build_system", build)
        reused = self.run(mesh, cfg)
        assert steps == [0, 0, 4]
        monkeypatch.setattr(SystemCache, "_repeats", lambda self, st, fx: False)
        built_ = self.run(mesh, cfg)
        self.assert_same_runs(reused, built_)
        assert reused[3].U[2 * corner] != 0.0 == reused[4].U[2 * corner]

    def test_system_cache_keys_on_states_and_fixed(self):
        mesh, cfg = small_inclined_setup()
        _, fixed, _, free = step_data(mesh, cfg.bcs, None, 1)
        cache = SystemCache(assemble_stiffness(mesh, cfg.material))

        def system(codes, fixed_, free_):
            return cache.system(mesh, cfg.material, cfg.friction, codes, fixed_, free_)

        stick = stick_codes(mesh)
        first = system(stick, fixed, free)
        pc = cache.preconditioner()
        again = system(stick.copy(), fixed.copy(), free)
        assert again is first
        assert cache.preconditioner() is pc
        slip = system(codes_of(mesh, SLIP), fixed, free)
        assert slip.J is not first.J and cache.pc is None
        more = np.sort(np.append(fixed, free[0]))
        other = system(codes_of(mesh, SLIP), more, free[1:])
        assert other.J is not slip.J
        assert other.free.size == free.size - 1


def _workload(name):
    """(mesh, config) of a benchmark workload: a preset, or the 8-step ramp
    of the inclined crack."""
    from fracfem.config import build_mesh

    if name == "inclined-ramp":
        return _ramp()
    cfg = presets.get(name)
    return build_mesh(cfg), cfg


WORKLOAD_FACTORIZATIONS = [("sneddon", 1), ("crossing-multi", 2), ("inclined-ramp", 2)]


class TestFreshFactorMemory:
    """Each system's matrix exists once: the J that build_system forms is
    scaled into the Jbar that its solver serves, and a fresh factorization
    starts with the free heap handed back; neither changes a bit of the
    result."""

    @pytest.mark.parametrize("name, fresh", WORKLOAD_FACTORIZATIONS)
    def test_no_J_alive_during_a_fresh_factorization(self, monkeypatch, name, fresh):
        # only the matrix being factored is alive in splu: of the matrices
        # that the state loops formed, crossing-multi's bordered ones
        # included, only the factored system's own, scaled into Jbar in
        # place, outlives the start of a fresh factorization; the heap is
        # handed back before and after each
        import weakref

        mesh, cfg = _workload(name)
        formed, alive, released = [], [], []
        real_saddle_matrix = solver._saddle_matrix

        def saddle_matrix(*args):
            J = real_saddle_matrix(*args)
            formed.append(weakref.ref(J))
            return J

        monkeypatch.setattr(solver, "_saddle_matrix", saddle_matrix)
        _counted(monkeypatch, solver, "_splu", alive, lambda Jbar: [
            (k, ref() is Jbar) for k, ref in enumerate(formed) if ref() is not None
        ])
        _counted(monkeypatch, solver, "_release_heap", released)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged and formed
        assert alive == [[(k, True)] for k in range(fresh)]
        assert len(released) == 2 * fresh

    @pytest.mark.parametrize("name, fresh", WORKLOAD_FACTORIZATIONS)
    def test_what_is_alive_at_a_fresh_factorization(self, monkeypatch, name, fresh):
        # at each splu the state loop's only vector of the system's size is
        # the right-hand side, the residual it passed to the solve turned
        # into it in place; the cache holds no stiffness diagonal, the
        # zero-cohesion blocks hold no cohesion load vector, and the free
        # dofs are held in K's index dtype.  On sneddon what is left is
        # Jbar (8.5 MiB), K (5.2 MiB), the mesh (1.8 MiB), four n-vectors
        # of 0.44 MiB (U, F, pc and the right-hand side) and free at half
        # that; holding two residuals, the diagonal and the cohesion load
        # too reads 19.7 MiB.  No earlier loop's increment dx, nor any
        # residual but the right-hand side, is alive either, and every
        # refined solve is handed the very residual the loop passed
        import tracemalloc
        import weakref

        seen, solving, residuals, increments, in_place = [], [], [], [], []
        real_solve, real_residual = SystemCache.solve, SystemCache.residual

        def solve(cache, R):
            solving.append((cache, weakref.ref(R)))
            dx = real_solve(cache, R)
            increments.append(weakref.ref(dx))
            return dx

        def residual(cache, *args):
            R = real_residual(cache, *args)
            residuals.append(weakref.ref(R))
            return R

        monkeypatch.setattr(SystemCache, "solve", solve)
        monkeypatch.setattr(SystemCache, "residual", residual)

        def alive(Jbar):
            traced = tracemalloc.get_traced_memory()[0]
            cache, rhs = solving[-1]
            frame = pysys._getframe()
            while frame.f_code.co_name != "_active_set":
                frame = frame.f_back
            loop_vectors = [
                v for v in frame.f_locals.values()
                if isinstance(v, np.ndarray) and v.shape == (Jbar.shape[0],)
            ]
            del frame
            return (
                [v is rhs() for v in loop_vectors],
                [r() is rhs() for r in residuals if r() is not None],
                sum(r() is not None for r in increments),
                cache.diagonal is None,
                np.ndim(cache.sys.blocks.f_slip),
                cache.sys.free.dtype == cache.K.indices.dtype == np.int32,
                traced,
            )

        _counted(monkeypatch, solver, "_splu", seen, alive)
        _counted(monkeypatch, solver, "linear_solve", in_place,
                 lambda Jbar, lu, rhs: rhs is solving[-1][1]())
        tracemalloc.start()
        try:
            mesh, cfg = _workload(name)
            res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        finally:
            tracemalloc.stop()
        solves = sum(r.newton_iters for r in res)
        assert res[-1].converged and cfg.friction.cohesion == 0.0
        assert len(seen) == fresh and len(increments) == solves
        assert len(residuals) == 2 * solves and in_place == [True] * solves
        for in_loop, live, dx_alive, no_diagonal, f_slip_dims, free_as_K, _ in seen:
            assert in_loop == [True] and live == [True] and dx_alive == 0
            assert no_diagonal and f_slip_dims == 0 and free_as_K
        if name == "sneddon":
            assert seen[0][-1] <= 18.5 * 2**20

    def test_which_systems_keep_J(self):
        # no system keeps an unscaled J once its solver exists: a repeated
        # assignment is served by the cache's own system, which drops J at
        # its fresh factorization, and it is the cache's Jbar then; a
        # bordered system never holds one, and the cache's Jbar is the
        # operator built with it; build_system's own system keeps its J
        mesh, cfg = small_inclined_setup()
        cache, system, residual = cached_systems(mesh, cfg)
        first = system(stick_codes(mesh))
        again = system(stick_codes(mesh))  # a repeat, not yet solved
        assert again is first is cache.sys
        J = first.J
        built, _ = make_system(mesh, cfg)
        cache.solve(residual(again))
        assert first.J is None and cache.Jbar is J and built.J is not None
        sys = system(TestBorderedUpdate.flipped(stick_codes(mesh), {2: OPEN}))
        op = cache.Jbar
        assert sys.J is None and isinstance(op, solver._ScaledSaddle)
        cache.solve(residual(sys))
        assert is_bordered(cache) and sys.J is None and cache.Jbar is op
        assert system(sys.codes.copy()) is sys is cache.sys  # a solved repeat

    @pytest.mark.parametrize("name, kinds", [
        ("sneddon", [False]),
        ("crossing-multi", [False, False, True, True]),
        ("inclined-ramp", [False, False]),
    ])
    def test_each_solver_serves_the_matrix_build_system_formed(
        self, monkeypatch, name, kinds
    ):
        # on a run's path each system's matrix exists once at most: the
        # Jbar of every fresh solver is the J that build_system formed,
        # sharing its values, and has the bits of diag(1/pc) times the CSR
        # reference, converted to CSC; a bordered solver's Jbar is the
        # operator built with its system, which forms no J, and its row
        # norms have the bits of the reference's, its products agree with
        # diag(1/pc) times the reference to 1e-14 of |Jbar||v|
        mesh, cfg = _workload(name)
        built, seen = [], []
        real_build, real_rank = solver.build_system, SystemCache.check_rank

        def build(*args, **kwargs):
            sys = real_build(*args, **kwargs)
            built.append(sys.J.data)
            return sys

        def check_rank(self):
            ref = _ref_saddle_J(mesh, cfg.material, self.sys.blocks, self.K,
                                self.sys.free)
            Jbar = (sp.diags(1.0 / self.pc) @ ref).tocsc()
            if is_bordered(self):
                serves = isinstance(self.Jbar, solver._ScaledSaddle)
                same = (solver._same_bits(self.pc, _ref_row_norms(ref))
                        and _operator_error(self.Jbar, Jbar) <= 1e-14)
            else:
                serves = np.shares_memory(self.Jbar.data, built[-1])
                same = _same_csr(self.Jbar, Jbar)
            seen.append((is_bordered(self), serves, self.sys.J is None, same))
            return real_rank(self)

        monkeypatch.setattr(solver, "build_system", build)
        monkeypatch.setattr(SystemCache, "check_rank", check_rank)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged
        assert seen == [(kind, True, True, True) for kind in kinds]
        assert len(built) == kinds.count(False)

    def test_bordered_setup_holds_each_block_once(self, monkeypatch):
        # crossing-multi borders its base on 4, then 12 dofs.  Each unit
        # column and each J_NR column is solved on its own and written
        # straight into its block, so a set-up allocates the n x |R| block
        # Z and the n x nz block W once each, beside a few n-vectors (the
        # right-hand side, SuperLU's copy and solution, the A^-1 product);
        # the slack covers the index arrays and masks.  The columns the base
        # carries from its last set-up were allocated before it.  A block
        # of right-hand sides beside its solution breaks the bound.
        import tracemalloc

        mesh, cfg = _workload("crossing-multi")
        seen = []
        real = solver._Base.bordered_solver

        def traced(self, G, pc, R):
            tracemalloc.start()
            try:
                out = real(self, G, pc, R)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen.append((G.shape[0], R.size, out.nz.size, peak))
            return out

        monkeypatch.setattr(solver._Base, "bordered_solver", traced)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged
        assert [(n, r) for n, r, *_ in seen] == [(15_102, 4), (15_102, 12)]
        slack = 64 * 1024
        for n, r, nz, peak in seen:
            assert peak <= 8 * n * (r + nz) + 4 * 8 * n + slack, (r, nz, peak)

    def test_each_unit_column_solved_once_per_base(self, monkeypatch):
        # crossing-multi's base borders loop 3 on 4 dofs and loop 4 on 12
        # that include them: the base's factorization solves 4, then the 8
        # new unit columns, each as a one-column solve, and no J_NR column
        # (there is none)
        set_ups = set_up_solves(monkeypatch)
        mesh, cfg = _workload("crossing-multi")
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged
        assert set_ups == [[1] * 4, [1] * 8]

    def test_heap_release_without_malloc_trim_is_a_no_op(self, monkeypatch):
        class NoTrim:  # a C library without the symbol
            pass

        monkeypatch.setattr(solver.ctypes, "CDLL", lambda name: NoTrim())
        assert solver._c_function("malloc_trim") is None

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(solver.ctypes, "CDLL", no_library)
        assert solver._c_function("malloc_trim") is None
        monkeypatch.setattr(solver, "_MALLOC_TRIM", None)
        assert solver._release_heap() is None

    @pytest.mark.parametrize("name, fresh", WORKLOAD_FACTORIZATIONS)
    def test_heap_release_changes_no_bit(self, monkeypatch, name, fresh):
        mesh, cfg = _workload(name)
        calls = TestFactorReuse.count_splu(monkeypatch)

        def run():
            res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
            return res, [(r.state_loops, r.newton_iters, r.restarted) for r in res]

        ref, ref_counts = run()
        monkeypatch.setattr(solver, "_release_heap", lambda: None)
        got, got_counts = run()
        assert len(calls) == 2 * fresh and got_counts == ref_counts
        for a, b in zip(ref, got, strict=True):
            assert solver._same_bits(a.U, b.U) and solver._same_bits(a.lam, b.lam)
            assert solver._same_bits(a.codes, b.codes) and b.converged

    def test_abs_product_equals_the_abs_copy_and_restores_Jbar(self):
        mesh, cfg = small_inclined_setup()
        cache, system, residual = cached_systems(mesh, cfg)
        cache.solve(residual(system(codes_of(mesh, SLIP))))
        # the cache's Jbar, and one with a negative zero and infinities
        odd = sp.csc_matrix((np.array([-0.0, 2.0, -np.inf, np.inf, -3.0]),
                             [0, 1, 0, 1, 2], [0, 2, 5]), shape=(3, 2))
        rng = np.random.default_rng(0)
        for Jbar in (cache.Jbar, odd):
            before = Jbar.data.copy()
            v = np.abs(rng.standard_normal(Jbar.shape[1]))
            got = solver._abs_product(Jbar, v, solver._signs(Jbar))
            assert solver._same_bits(got, _ref_abs(Jbar) @ v)
            assert solver._same_bits(Jbar.data, before)
            with pytest.raises(ValueError):  # a product that raises
                solver._abs_product(Jbar, v[:-1], solver._signs(Jbar))
            assert solver._same_bits(Jbar.data, before)
        # the backward error of a refined solve leaves Jbar's values as
        # they were
        Jbar = cache.Jbar
        before = Jbar.data.copy()
        solver.linear_solve(Jbar, cache.lu, rng.standard_normal(Jbar.shape[0]))
        assert solver._same_bits(Jbar.data, before)


def test_benchmark_tracer_runs(tmp_path):
    """The benchmark worker wraps solver functions by name; a traced run of
    one workload must still pass its own checks."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [pysys.executable, str(root / "perfbench" / "worker.py"),
         "--workload", "inclined-ramp", "--trace", "1",
         "--out", str(tmp_path / "out")],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    # every solve refines through solver.linear_solve, the span refine_s reads
    assert result["layers"]["solver.refine_s"] > 0


# ---------------------------------------------------------------------------
# Reference: the per-pair flip ranking that the array ranking replaced, kept
# verbatim (names prefixed with _ref) to pin the new one bit for bit.
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


def _ref_ranked_flips(mesh, codes, proposed, U, lam, fric):
    """Proposed state changes ranked by a dimensionless violation score."""
    flips = [
        (pair.id, st, new, kin)
        for pair, st, new, kin in zip(
            mesh.pairs, codes.tolist(), proposed.tolist(),
            _ref_all_pair_kinematics(mesh, U, lam),
        )
        if new != st
    ]
    lam_ref = 1.0
    gap_ref = 1e-12
    for _, _, _, kin in flips:
        lam_ref = max(lam_ref, abs(kin.lam_n), abs(kin.lam_t))
        gap_ref = max(gap_ref, abs(kin.trial_gap))

    scored = []
    for pid, st, new, kin in flips:
        if new == OPEN:
            score = kin.lam_n / lam_ref
        elif st == OPEN:
            score = -kin.trial_gap / gap_ref
        else:
            tau = mohr_coulomb_tau_c(kin.lam_n, fric)
            score = abs(abs(kin.lam_t) - tau) / lam_ref
        scored.append((score, pid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


@functools.lru_cache(maxsize=None)
def _solved(name):
    """A preset's mesh, friction and final converged load step, and the
    stored zeros of every matrix its run hands to splu."""
    from fracfem.config import build_mesh

    cfg = presets.get(name)
    mesh = build_mesh(cfg)
    zeros = []
    real = spla.splu

    def counting(A, *args, **kwargs):
        zeros.append(A.nnz - np.count_nonzero(A.data))
        return real(A, *args, **kwargs)

    spla.splu = counting
    try:
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)[-1]
    finally:
        spla.splu = real
    assert res.converged
    return mesh, cfg.friction, res, zeros


_STATE_CHOICES = np.array([0, 1, -1, OPEN], dtype=np.int8)


def _random_flips(rng, codes, share):
    """``codes`` with a random ``share`` of pairs moved to another state."""
    out = codes.copy()
    for i in np.flatnonzero(rng.random(len(codes)) < share):
        out[i] = rng.choice([s for s in _STATE_CHOICES if s != codes[i]])
    return out


def _bits(scored):
    return [(float(score).hex(), pid) for score, pid in scored]


class TestTabuWalk:
    @pytest.mark.parametrize("name", ["crossing-multi", "inclined-crack"])
    def test_ranked_flips_match_reference(self, name):
        mesh, fric, res, _ = _solved(name)
        rng = np.random.default_rng(3)
        cases = []
        for share in (0.0, 0.05, 0.3, 1.0):
            for _ in range(10):
                codes = (res.codes if rng.random() < 0.5 else np.array(
                    [rng.choice(_STATE_CHOICES) for _ in mesh.pairs], np.int8
                ))
                cases.append((codes, _random_flips(rng, codes, share)))
        # ties: every open pair re-engages at the same zero trial gap
        cases.append((codes_of(mesh, OPEN), stick_codes(mesh)))
        for U in (res.U, np.zeros_like(res.U)):
            for codes, proposed in cases:
                got = solver._ranked_flips(mesh, codes, proposed, U, res.lam, fric)
                ref = _ref_ranked_flips(mesh, codes, proposed, U, res.lam, fric)
                assert _bits(got) == _bits(ref)
                assert len(got) == np.count_nonzero(codes != proposed)

    def test_cautious_update_takes_best_unvisited_single_flip(self):
        mesh, fric, res, _ = _solved("crossing-multi")
        rng = np.random.default_rng(4)
        codes = res.codes.copy()
        proposed = _random_flips(rng, codes, 0.2)
        ranked = solver._ranked_flips(mesh, codes, proposed, res.U, res.lam, fric)
        assert len(ranked) >= 3

        def flipped(pid):
            out = codes.copy()
            out[pid] = proposed[pid]
            return out.tobytes()

        seen = {codes.tobytes(), flipped(ranked[0][1]), flipped(ranked[1][1])}
        out = solver._cautious_update(
            mesh, codes, proposed, res.U, res.lam, fric, seen
        )
        diff = np.flatnonzero(codes != out).tolist()
        assert diff == [ranked[2][1]]
        assert out[diff[0]] == proposed[diff[0]]
        assert out.tobytes() not in seen
        assert np.array_equal(codes, res.codes)  # the walk copies, never edits

        seen |= {flipped(pid) for _, pid in ranked}
        assert solver._cautious_update(
            mesh, codes, proposed, res.U, res.lam, fric, seen
        ) is None


class TestStateLabels:
    """``SolutionState.states`` is a read-only view of the codes, with one
    labelled :class:`~fracfem.contact.PairState` per pair."""

    def test_labels_follow_the_codes(self):
        _, _, res, _ = _solved("crossing-multi")
        kinds = [s.kind for s in res.states]
        assert len(kinds) == res.codes.size == 132
        slip = np.array([k is StateKind.SLIP for k in kinds])
        is_open = np.array([k is StateKind.OPEN for k in kinds])
        stick = np.array([k is StateKind.STICK for k in kinds])
        np.testing.assert_array_equal(slip, np.abs(res.codes) == 1)
        np.testing.assert_array_equal(is_open, res.codes == OPEN)
        np.testing.assert_array_equal(stick, res.codes == 0)
        assert (slip.sum(), stick.sum(), is_open.sum()) == (116, 6, 10)
        signs = np.array([s.sign for s in res.states])
        np.testing.assert_array_equal(signs, np.where(slip, res.codes, 0))

    def test_states_cannot_be_assigned(self):
        _, _, res, _ = _solved("crossing-multi")
        with pytest.raises(AttributeError):
            res.states = ()


class TestBenchmarkWorkloads:
    """The benchmark's three workloads take the state loops, solves and
    factorizations, and end in the contact states, residual norms and
    final fields recorded here, so that no roundoff change to K or J moves
    them unseen."""

    # the final step's residual_norm, as the step table and summary.json
    # print it (the benchmark's hash covers only U and lam)
    RESIDUAL_NORMS = {
        "sneddon": "0x1.107cf4731c994p-21",
        "crossing-multi": "0x1.1902840a2eb1bp-18",
        "inclined-ramp": "0x1.b9cd96a13088bp-21",
    }
    # the digest of the final step's U and lam that perfbench/worker.py
    # prints as the run's hash, to 12 hex digits
    HASHES = {
        "sneddon": "a4f095ea54e0",
        "crossing-multi": "a0b27e2e8bbe",
        "inclined-ramp": "b03131103185",
    }

    @pytest.mark.parametrize("name, loops, fresh, bordered, counts", [
        ("sneddon", [1], 1, 0, (0, 0, 19)),
        ("crossing-multi", [4], 2, 2, (116, 6, 10)),
        ("inclined-ramp", [2] + [1] * 7, 2, 0, (21, 0, 0)),
    ])
    def test_loops_factorizations_and_final_states(
        self, monkeypatch, name, loops, fresh, bordered, counts
    ):
        # a bordered loop forms no J, so J is formed once per fresh
        # factorization; the stiffness diagonal is formed once per run and
        # again after each fresh factorization, during which it is dropped.
        # Each new system's contact entries are built once, by one
        # function, whether J is formed or bordered, and every solve is
        # refined by one function
        mesh, cfg = _workload(name)
        calls = TestFactorReuse.count_splu(monkeypatch)
        borders, builds, diagonals, entries, solves = [], [], [], [], []
        _counted(monkeypatch, solver._Bordered, "__init__", borders)
        _counted(monkeypatch, solver, "_saddle_matrix", builds)
        _counted(monkeypatch, sp.csr_matrix, "diagonal", diagonals)
        _counted(monkeypatch, solver, "_contact_entries", entries)
        _counted(monkeypatch, solver, "linear_solve", solves)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert all(r.converged and not r.restarted for r in res)
        assert [r.state_loops for r in res] == loops
        assert [r.newton_iters for r in res] == loops
        assert (len(calls), len(borders)) == (fresh, bordered)
        assert (len(builds), len(diagonals)) == (fresh, 1 + fresh)
        assert (len(entries), len(solves)) == (fresh + bordered, sum(loops))
        codes = res[-1].codes
        assert tuple(
            np.count_nonzero(hit) for hit in (np.abs(codes) == 1, codes == 0, codes == OPEN)
        ) == counts
        assert res[-1].residual_norm.hex() == self.RESIDUAL_NORMS[name]
        digest = hashlib.sha256(res[-1].U.tobytes() + res[-1].lam.tobytes())
        assert digest.hexdigest()[:12] == self.HASHES[name]
