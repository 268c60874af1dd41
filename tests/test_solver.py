"""Saddle system assembly, preconditioning, Newton/active-set loop."""

import dataclasses
import functools
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
    linear_solve,
    newton_loop,
    run_load_steps,
    step_data,
)

from reactions import reaction_forces

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
    U = np.zeros(2 * mesh.n_nodes)
    lam = np.zeros(2 * mesh.n_pairs)
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U[fixed] = vals
    st_ = SolutionState(U=U, lam=lam,
                        codes=stick_codes(mesh) if codes is None else codes)
    K = assemble_stiffness(mesh, cfg.material)
    return build_system(mesh, cfg.material, cfg.friction, st_, K, F, fixed,
                        free)


class TestBuildSystem:
    def test_all_open_reduces_to_elasticity(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg, codes=codes_of(mesh, OPEN))
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc)
        d_lam = dx[sys.n_disp :]
        np.testing.assert_allclose(d_lam, 0.0, atol=1e-12)
        # displacement part equals the plain elastic solve
        K = assemble_stiffness(mesh, cfg.material)
        K_red = full_stiffness(K)[sys.free][:, sys.free].tocsc()
        du = spla.spsolve(K_red, -sys.R[: sys.n_disp])
        np.testing.assert_allclose(dx[: sys.n_disp], du, rtol=1e-8)

    def test_all_stick_jacobian_symmetric(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        # exactly: J's displacement block is K's upper triangle mirrored
        assert (sys.J != sys.J.T).nnz == 0

    def test_saddle_block_pattern(self):
        # square upper-left block, rectangular coupling blocks, zero
        # lower-right block in the all-stick state
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        n, m = sys.n_disp, sys.n_lam
        assert sys.J.shape == (n + m, n + m)
        lower_right = sys.J[n:, n:].toarray()
        np.testing.assert_allclose(lower_right, 0.0)
        assert sys.J[:n, n:].nnz > 0
        assert sys.J[n:, :n].nnz > 0

    def test_dimensions(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        assert sys.n_lam == 2 * mesh.n_pairs
        _, fixed, _, _ = step_data(mesh, cfg.bcs, None, 1)
        assert sys.n_disp == 2 * mesh.n_nodes - len(fixed)


class TestPreconditioner:
    def test_pythagorean_row(self):
        J = sp.csr_matrix(np.array([[3.0, 4.0], [0.0, 1.0]]))
        sys = SaddleSystem(J=J, R=np.zeros(2), free=np.arange(2),
                           n_disp=2, n_lam=0, blocks=None)
        pc = build_preconditioner(sys)
        assert pc[0] == pytest.approx(5.0)

    def test_identity_maps_to_identity(self):
        J = sp.identity(4, format="csr")
        sys = SaddleSystem(J=J, R=np.zeros(4), free=np.arange(4),
                           n_disp=4, n_lam=0, blocks=None)
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
        sys = SaddleSystem(J=J, R=np.zeros(12), free=np.arange(12),
                           n_disp=12, n_lam=0, blocks=None)
        pc = build_preconditioner(sys)
        Jbar = sp.diags(1.0 / pc) @ J
        norms = np.sqrt(np.asarray(Jbar.multiply(Jbar).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_error_names_dof(self):
        J = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        sys = SaddleSystem(J=J, R=np.zeros(2), free=np.array([4, 5]),
                           n_disp=2, n_lam=0, blocks=None)
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
        # is a zero row as it was when J∘J was formed
        J = sp.csr_matrix((np.array([1.0, *zero_row]), np.array([0, 0, 1]),
                           np.array([0, 1, 3])), shape=(2, 2))
        assert J.nnz == 3
        sys = SaddleSystem(J=J, R=np.zeros(2), free=np.array([4, 5])[:n_disp],
                           n_disp=n_disp, n_lam=2 - n_disp, blocks=None)
        with pytest.raises(SingularRowError) as err:
            build_preconditioner(sys)
        assert str(err.value) == f"zero Jacobian row: {message}"

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_row_norms_equal_elementwise_product_sums(self, seed):
        # rows of 1 to 40 entries (pairwise summation works in blocks of 8)
        # over 40 orders of magnitude, summed to the same bits as
        # J.multiply(J).sum(axis=1); like every J a run builds, it stores no
        # zero and no entry whose square underflows
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
        sys = SaddleSystem(J=J, R=np.zeros(n), free=np.arange(n),
                           n_disp=n, n_lam=0, blocks=None)
        assert solver._same_bits(build_preconditioner(sys), _ref_row_norms(J))

    def test_scaling_beats_unscaled_conditioning(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
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
    def _sys(self, J, R):
        return SaddleSystem(J=sp.csr_matrix(J), R=np.asarray(R, dtype=float),
                            free=np.arange(len(R)), n_disp=len(R), n_lam=0,
                            blocks=None)

    def test_diagonal_two_by_two(self):
        sys = self._sys([[2.0, 0.0], [0.0, 4.0]], [2.0, 4.0])
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc)
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
        sys = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc)
        direct = spla.spsolve(sys.J.tocsc(), -sys.R)
        np.testing.assert_allclose(dx, direct, rtol=1e-7, atol=1e-16)

    def test_scaled_and_unscaled_solutions_agree(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        scaled = linear_solve(sys, pc)
        unscaled = spla.spsolve(sys.J.tocsc(), -sys.R)
        assert (
            np.linalg.norm(scaled - unscaled)
            <= 1e-8 * np.linalg.norm(unscaled)
        )

    def test_singular_system_reports(self):
        sys = self._sys([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        pc = build_preconditioner(sys)
        with pytest.raises(LinearSolveError):
            linear_solve(sys, pc)


class TestNewtonLoop:
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
        cache, system = cached_systems(mesh, cfg)
        cache.solve(system(ref.codes))
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
        cache, system = cached_systems(mesh, cfg)
        cache.solve(system(stick_codes(mesh)))
        cache.check_rank()
        sys = system(codes_of(mesh, OPEN))
        dx = linear_solve(sys, build_preconditioner(sys))
        assert np.all(np.isfinite(dx))  # the 1e-10 contract holds
        with pytest.raises(LinearSolveError, match="nearly singular"):
            cache.solve(sys)

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
        real = SystemCache.system

        def system(self, *args):
            sys = real(self, *args)
            norms.append(solver._norm(sys.R_phys))
            return sys

        monkeypatch.setattr(SystemCache, "system", system)
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
    """(run cache, system builder from state codes) at U = 0 on ``mesh``,
    the systems built through the cache as a run builds them."""
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U = np.zeros(2 * mesh.n_nodes)
    U[fixed] = vals
    cache = SystemCache(assemble_stiffness(mesh, cfg.material))

    def system(codes):
        st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), codes=codes)
        return cache.system(mesh, cfg.material, cfg.friction, st_, F, fixed, free)

    return cache, system


def with_J(cache, sys):
    """``sys``, built through ``cache``, with its ``J`` formed again from
    the cache's ``K`` and the system's blocks, as :func:`build_system`
    forms it (the same bits): a system the cache has factored afresh no
    longer holds its ``J``."""
    J = solver._saddle_matrix(cache.K, sys.blocks, sys.free, sys.mult_scale)
    return dataclasses.replace(sys, J=J)


def is_bordered(cache):
    """True when the cache's current solver borders its base."""
    return isinstance(cache.lu, solver._Bordered)


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
        def key(self, sys):
            J = with_J(self, sys).J
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

        def refactor(self, sys):
            self.lu = None  # serve every solve as if its system were new
            return real(self, sys)

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
        cache, system = cached_systems(mesh, cfg)
        calls = self.count_splu(monkeypatch)
        stick = stick_codes(mesh)
        first = cache.solve(system(stick))
        lu = cache.lu
        again = cache.solve(system(stick.copy()))
        assert cache.lu is lu and len(calls) == 1
        np.testing.assert_array_equal(again, first)
        sys = system(codes_of(mesh, SLIP))
        assert all(x is None for x in (cache.lu, cache.Jbar, cache.pc))
        cache.solve(sys)
        assert len(calls) == 2 and cache.lu is not lu

    def test_repeated_system_served_by_identity(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        cache, system = cached_systems(mesh, cfg)
        calls = self.count_splu(monkeypatch)
        first = cache.solve(system(stick_codes(mesh)))
        sys = system(stick_codes(mesh))

        def no_compare(*args):
            raise AssertionError("a repeated solve compares no arrays")

        monkeypatch.setattr(solver, "_same_bits", no_compare)
        again = cache.solve(sys)
        assert len(calls) == 1
        assert solver._same_bits is no_compare
        np.testing.assert_array_equal(again.view(np.uint64), first.view(np.uint64))

    def test_fresh_factorization_equals_reference_bits(self, monkeypatch):
        # the cache's fresh factorization, that of another run's cache and
        # linear_solve's all solve to the same bits
        mesh, cfg = small_inclined_setup()
        calls = self.count_splu(monkeypatch)
        solves = []
        for _ in range(2):
            cache, system = cached_systems(mesh, cfg)
            sys = system(stick_codes(mesh))
            solves.append(cache.solve(sys))
            assert not is_bordered(cache)
        ref = make_system(mesh, cfg)  # the same system, with its J
        solves.append(linear_solve(ref, build_preconditioner(ref)))
        assert len(calls) == 3
        for dx in solves[1:]:
            np.testing.assert_array_equal(dx.view(np.uint64), solves[0].view(np.uint64))

    def test_abs_jacobian_shares_index_arrays(self):
        # |Jbar| v is formed on Jbar's own arrays: besides the product,
        # nothing near the size of its values is allocated, and the product
        # has the bits of the product with a copy of |Jbar|
        import tracemalloc

        mesh, cfg = _workload("crossing-multi")
        cache, system = cached_systems(mesh, cfg)
        cache.solve(system([OPEN] * mesh.n_pairs))
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


def _backward_error(cache, dx, rhs):
    """The contract's backward error of ``dx`` on the row-scaled system."""
    denom = np.linalg.norm(rhs) + np.linalg.norm(_ref_abs(cache.Jbar) @ np.abs(dx))
    return np.linalg.norm(cache.Jbar @ dx - rhs) / denom


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
        builder from state codes) on the coarse inclined crack."""
        mesh, cfg = small_inclined_setup()
        if friction is not None:
            cfg = dataclasses.replace(cfg, friction=friction)
        calls = TestFactorReuse.count_splu(monkeypatch)
        cache, system = cached_systems(mesh, cfg)
        cache.solve(system(stick_codes(mesh)))
        assert len(calls) == 1 and not is_bordered(cache)
        return mesh, calls, cache, system

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
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        stick = stick_codes(mesh)
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP}))
        dx = cache.solve(sys)
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        # open pair 2 changes both its rows; slip pair 4 its tangential row
        # and its normal column (friction), the one column with J_NR entries
        nd = sys.n_disp
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([4, 5, 8, 9]))
        np.testing.assert_array_equal(cache.lu.nz, [2])
        fresh = linear_solve(sys, pc)
        assert len(calls) == 2
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

        # one more pair opens: the base solves for the six J^-1 columns of
        # the new border, then for the one nonzero J_NR column
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP, 6: OPEN}))
        blocks = []
        real = solver._Base.solve

        def solve(self, y):
            if y.ndim == 2:
                blocks.append(y.shape[1])
            return real(self, y)

        monkeypatch.setattr(solver._Base, "solve", solve)
        dx = cache.solve(sys)
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 2
        assert blocks == [6, 1]
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([4, 5, 8, 9, 12, 13]))
        fresh = linear_solve(sys, pc)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

    def test_frictionless_flip_borders_a_superset(self, monkeypatch):
        # with tan(phi) = 0 a stick -> slip flip leaves the normal column as
        # it was, so J - J0 touches only the tangential row; the flipped
        # pair's two dofs are bordered, and elimination on a superset of the
        # changed rows and columns is exact as well
        frictionless = FrictionParams(cohesion=1.0e6, friction_angle=0.0)
        mesh, calls, cache, system = self.setup_base(monkeypatch, frictionless)
        base = with_J(cache, system(stick_codes(mesh)))  # the base's system
        sys = system(self.flipped(stick_codes(mesh), {4: SLIP}))
        dx = cache.solve(sys)
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        nd = sys.n_disp
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([8, 9]))
        diff = (sys.J - base.J).tocoo()
        changed = np.union1d(diff.row[diff.row >= nd], diff.col[diff.col >= nd])
        np.testing.assert_array_equal(changed, [nd + 9])
        fresh = linear_solve(sys, pc)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

    def test_changed_displacement_block_fails_the_contract(self, monkeypatch):
        # the bordered update takes the base's displacement block as the
        # system's; when it differs after all (here changed in place before
        # the solve), the bordered solve misses the backward-error contract
        # on the true J and is repeated on a fresh factorization
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        J, nd = sys.J, sys.n_disp
        rows = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
        J.data[(rows < nd) & (J.indices < nd)] *= 1.5
        ref = dataclasses.replace(sys)  # keeps J past its fresh factorization
        bordered = []
        _counted(monkeypatch, solver._Bordered, "solve", bordered)
        dx = cache.solve(sys)
        assert bordered and len(calls) == 2 and not is_bordered(cache)
        np.testing.assert_array_equal(dx, linear_solve(ref, cache.preconditioner()))

    def test_bordered_solver_failing_the_rank_probe_refactors(self, monkeypatch):
        # a bordered solver that the probe refuses is replaced by a fresh
        # factorization, whose probe alone can fail the solve
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        real = SystemCache.check_rank

        def probe(self):
            if is_bordered(self):
                raise LinearSolveError("nearly singular system")
            real(self)

        monkeypatch.setattr(SystemCache, "check_rank", probe)
        ref = dataclasses.replace(sys)  # keeps J past its fresh factorization
        dx = cache.solve(sys)
        assert len(calls) == 2 and not is_bordered(cache)
        np.testing.assert_array_equal(dx, linear_solve(ref, cache.preconditioner()))

    def test_one_ulp_in_displacement_block_stays_bordered(self, monkeypatch):
        # a change the contract tolerates is served by the bordered solve
        # and its refinement on the true J, without a fresh factorization
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        sys.J.data[0] = np.nextafter(sys.J.data[0], np.inf)  # one ulp in K_ff
        dx = cache.solve(sys)
        pc = cache.preconditioner()
        assert is_bordered(cache) and len(calls) == 1
        fresh = linear_solve(sys, pc)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

    def test_update_over_budget_refactors(self, monkeypatch):
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        budget = cache.base.lu.nnz / 4
        sys = system(codes_of(mesh, SLIP))
        # every tangential row and normal column changes: the base is
        # released as soon as the system is built, before its solve
        assert sys.J.shape[0] * 2 * mesh.n_pairs > budget
        assert cache.base is None and cache.border_dofs is None
        ref = dataclasses.replace(sys)  # keeps J past its fresh factorization
        dx = cache.solve(sys)
        assert len(calls) == 2 and not is_bordered(cache)
        assert np.array_equal(cache.base.codes, sys.codes)
        np.testing.assert_array_equal(dx, linear_solve(ref, cache.preconditioner()))

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
        # when a state loop's J is formed, no row-scaled copy, no solver and
        # no earlier system are alive, and the base only when it borders the
        # new system: from all stick, inclined-crack's (42 flipped dofs) and
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

        def saddle_matrix(*args):
            c = caches[-1]
            alive.append((
                c.base is not None, c.lu is not None,
                c.Jbar is not None,
                any(ref() is not None for ref in systems),
            ))
            J = real_saddle_matrix(*args)
            systems.append(weakref.ref(J))
            return J

        monkeypatch.setattr(solver, "_saddle_matrix", saddle_matrix)
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
        # borders loops 3 and 4, but its J is gone once loop 3's system exists
        import weakref

        from fracfem.config import build_mesh

        cfg = presets.get("crossing-multi")
        mesh = build_mesh(cfg)
        refs, loop2_alive = [], []
        real = solver.build_system

        def build(*args, **kwargs):
            sys = real(*args, **kwargs)
            if len(refs) == 2:
                loop2_alive.append(refs[1]() is not None)
            refs.append(weakref.ref(sys.J))
            return sys

        monkeypatch.setattr(solver, "build_system", build)
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
        rng = np.random.default_rng(seed)
        fully_fixed = np.isin(mesh.pair_arrays.dofs, fixed).all(axis=1)
        assert fully_fixed.sum() == (2 if name == "shear-throughgoing" else 0)
        reach = [(0, OPEN) if c else _STATE_CHOICES for c in mesh.pair_arrays.crossing]
        codes0 = np.array([opts[rng.integers(len(opts))] for opts in reach], np.int8)
        share = rng.random()
        codes1 = codes0.copy()
        for p in np.flatnonzero((rng.random(mesh.n_pairs) < share) | fully_fixed):
            others = [s for s in reach[p] if s != codes0[p]]
            codes1[p] = others[rng.integers(len(others))]

        def system(codes):
            st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), codes=codes)
            return build_system(mesh, cfg.material, cfg.friction, st_, K, F,
                                fixed, free)

        sys0, sys1 = system(codes0), system(codes1)
        got = sys1.n_disp + flipped_dofs(
            sys0.codes, sys1.codes, sys0.blocks.pinned, sys1.blocks.pinned
        )
        nd = sys1.n_disp
        diff = (sys1.J - sys0.J).tocoo()
        assert not np.any((diff.row < nd) & (diff.col < nd))
        ref = np.union1d(diff.row[diff.row >= nd], diff.col[diff.col >= nd])
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("bad", [1.0, np.nan])
    def test_bordered_miss_falls_back_to_one_fresh_factorization(
        self, monkeypatch, bad
    ):
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        monkeypatch.setattr(solver._Bordered, "solve",
                            lambda self, r: np.full_like(r, bad))
        sys = system(self.flipped(stick_codes(mesh), {2: OPEN}))
        ref = dataclasses.replace(sys)  # keeps J past its fresh factorization
        dx = cache.solve(sys)
        assert len(calls) == 2 and not is_bordered(cache)
        assert np.array_equal(cache.base.codes, sys.codes)
        np.testing.assert_array_equal(dx, linear_solve(ref, cache.preconditioner()))


# ---------------------------------------------------------------------------
# Reference: the saddle Jacobian as it was built before K's free block was
# sliced once per run, kept verbatim to pin the sliced construction bit for bit
# (on the full stiffness that K's stored upper triangle mirrors).
# ---------------------------------------------------------------------------

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
    """Row 2-norms as :func:`build_preconditioner` formed them from J∘J."""
    sq = J.multiply(J)
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    return norms


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
        st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), codes=codes)
        systems[mix] = build_system(mesh, cfg.material, cfg.friction, st_, K, F,
                                    fixed, free)
    return mesh, cfg, K, (F, fixed, free, U), systems


class TestSlicedAssembly:
    """J from K's free block and the sliced contact blocks, and the row
    scaling, equal the constructions they replaced bit for bit."""

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_J_equals_full_bmat_then_restriction(self, name, mix):
        mesh, cfg, K, (F, fixed, free, U), systems = _preset_systems(name)
        sys = systems[mix]
        ref = _ref_saddle_J(mesh, cfg.material, sys.blocks, K, free)
        assert _same_csr(sys.J, ref)
        # through the run's cache
        cache = SystemCache(K)
        st_ = SolutionState(U=U, lam=np.zeros(sys.n_lam),
                            codes=_state_mixes(mesh.n_pairs,
                                               np.random.default_rng(5))[mix])
        got = cache.system(mesh, cfg.material, cfg.friction, st_, F, fixed, free)
        assert _same_csr(got.J, ref)
        np.testing.assert_array_equal(got.R, sys.R)

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_row_scaling_equals_diagonal_product(self, name, mix):
        *_, systems = _preset_systems(name)
        J = systems[mix].J
        pc = build_preconditioner(systems[mix])
        before = J.copy()
        got = solver._row_scaled(J, pc)
        ref = (sp.diags(1.0 / pc) @ J).tocsc()
        assert got.format == "csc" and _same_csr(got, ref)
        assert np.count_nonzero(got.data) == got.nnz
        assert _same_csr(J, before)  # J itself is left alone

    @pytest.mark.parametrize("mix", ["stick", "slip", "mix"])
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_row_norms_equal_elementwise_product_sums(self, name, mix):
        *_, systems = _preset_systems(name)
        sys = systems[mix]
        assert solver._same_bits(build_preconditioner(sys), _ref_row_norms(sys.J))
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
            st_ = SolutionState(U=U, lam=np.zeros(sys.n_lam), codes=sys.codes.copy())
            sys = build_system(mesh, cfg.material, fric, st_, K, F, fixed, free)
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
        got = solver._saddle_matrix(K, blocks, free, s)
        assert _same_csr(got, _ref_bmat_J(K, blocks, free, s))
        assert got.format == "csr" and got.has_sorted_indices
        assert np.all(got.data != 0.0)
        if not m2:
            assert _same_csr(got, full_stiffness(K)[free][:, free])

    def test_mesh_without_pairs_gives_free_block(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 4, 4))
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
            BoundaryCondition(kind="neumann", side="top", traction=(0.0, -1e6)),
        ]
        K = assemble_stiffness(mesh, MAT)
        F, fixed, vals, free = step_data(mesh, bcs, None, 1)
        U = np.zeros(2 * mesh.n_nodes)
        U[fixed] = vals
        st_ = SolutionState(U=U, lam=np.zeros(0), codes=np.zeros(0, np.int8))
        sys = build_system(mesh, MAT, FRIC30, st_, K, F, fixed, free)
        assert sys.n_lam == 0 and fixed.size and free.size
        assert _same_csr(sys.J, full_stiffness(K)[free][:, free])

    def test_free_dofs_equal_set_difference(self):
        mesh, cfg = small_inclined_setup()
        _, fixed, _, free = step_data(mesh, cfg.bcs, None, 1)
        ref = np.setdiff1d(np.arange(2 * mesh.n_nodes, dtype=np.int64), fixed)
        assert free.dtype == ref.dtype
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

        def more_fixed(mesh_, bcs, step=None, n_steps=1):
            fixed, vals = real(mesh_, bcs, step=step, n_steps=n_steps)
            if step >= 4:
                fixed, vals = np.append(fixed, 2 * corner), np.append(vals, 0.0)
                order = np.argsort(fixed)
                fixed, vals = fixed[order], vals[order]
            return fixed, vals

        monkeypatch.setattr(solver, "dirichlet_constraints", more_fixed)
        steps = []
        real_build = solver.build_system

        def build(mesh_, mat, fric, state, *args, **kwargs):
            steps.append(state.step)
            return real_build(mesh_, mat, fric, state, *args, **kwargs)

        monkeypatch.setattr(solver, "build_system", build)
        reused = self.run(mesh, cfg)
        assert steps == [0, 0, 4]
        monkeypatch.setattr(SystemCache, "_repeats", lambda self, st, fx: False)
        built_ = self.run(mesh, cfg)
        self.assert_same_runs(reused, built_)
        assert reused[3].U[2 * corner] != 0.0 == reused[4].U[2 * corner]

    def test_system_cache_keys_on_states_and_fixed(self):
        mesh, cfg = small_inclined_setup()
        F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
        U = np.zeros(2 * mesh.n_nodes)
        U[fixed] = vals
        cache = SystemCache(assemble_stiffness(mesh, cfg.material))

        def system(codes, fixed_, free_):
            st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), codes=codes)
            return cache.system(mesh, cfg.material, cfg.friction, st_, F, fixed_, free_)

        stick = stick_codes(mesh)
        first = system(stick, fixed, free)
        pc = cache.preconditioner()
        again = system(stick.copy(), fixed.copy(), free)
        assert again.J is first.J and again.blocks is first.blocks
        assert cache.preconditioner() is pc
        slip = system(codes_of(mesh, SLIP), fixed, free)
        assert slip.J is not first.J and cache.pc is None
        more = np.sort(np.append(fixed, free[0]))
        other = system(codes_of(mesh, SLIP), more, free[1:])
        assert other.J is not slip.J
        assert other.n_disp == free.size - 1


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
    """A fresh factorization starts with its system's J released and the
    free heap handed back; neither changes a bit of the result."""

    @pytest.mark.parametrize("name, fresh", WORKLOAD_FACTORIZATIONS)
    def test_no_J_alive_during_a_fresh_factorization(self, monkeypatch, name, fresh):
        # crossing-multi's bordered loops keep their J, but no J of any
        # state loop, the factored system's included, outlives the start
        # of a fresh factorization; the heap is handed back before and
        # after each
        import weakref

        mesh, cfg = _workload(name)
        formed, alive, released = [], [], []
        real_saddle_matrix = solver._saddle_matrix

        def saddle_matrix(*args):
            J = real_saddle_matrix(*args)
            formed.append(weakref.ref(J))
            return J

        monkeypatch.setattr(solver, "_saddle_matrix", saddle_matrix)
        _counted(monkeypatch, solver, "_splu", alive,
                 lambda Jbar: [k for k, ref in enumerate(formed) if ref() is not None])
        _counted(monkeypatch, solver, "_release_heap", released)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged and formed
        assert alive == [[]] * fresh and len(released) == 2 * fresh

    def test_which_systems_keep_J(self):
        # the cache's system and the repeat of it that a state loop solves
        # drop J at their fresh factorization; build_system's system and a
        # bordered one keep theirs
        mesh, cfg = small_inclined_setup()
        cache, system = cached_systems(mesh, cfg)
        first = system(stick_codes(mesh))
        again = system(stick_codes(mesh))  # a repeat, not yet solved
        assert again is not first and again.J is first.J
        built = make_system(mesh, cfg)
        cache.solve(again)
        assert first.J is None and again.J is None and cache.sys.J is None
        assert built.J is not None
        sys = system(TestBorderedUpdate.flipped(stick_codes(mesh), {2: OPEN}))
        cache.solve(sys)
        assert is_bordered(cache) and sys.J is not None

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
        cache, system = cached_systems(mesh, cfg)
        cache.solve(system(codes_of(mesh, SLIP)))
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
        solver._refined_solve(Jbar, cache.lu, rng.standard_normal(Jbar.shape[0]))
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
    factorizations, and end in the contact states, recorded here, so that
    no roundoff change to K or J moves them unseen."""

    @pytest.mark.parametrize("name, loops, fresh, bordered, counts", [
        ("sneddon", [1], 1, 0, (0, 0, 19)),
        ("crossing-multi", [4], 2, 2, (116, 6, 10)),
        ("inclined-ramp", [2] + [1] * 7, 2, 0, (21, 0, 0)),
    ])
    def test_loops_factorizations_and_final_states(
        self, monkeypatch, name, loops, fresh, bordered, counts
    ):
        mesh, cfg = _workload(name)
        calls = TestFactorReuse.count_splu(monkeypatch)
        borders = []
        _counted(monkeypatch, solver._Bordered, "__init__", borders)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert all(r.converged and not r.restarted for r in res)
        assert [r.state_loops for r in res] == loops
        assert [r.newton_iters for r in res] == loops
        assert (len(calls), len(borders)) == (fresh, bordered)
        codes = res[-1].codes
        assert tuple(
            np.count_nonzero(hit) for hit in (np.abs(codes) == 1, codes == 0, codes == OPEN)
        ) == counts
