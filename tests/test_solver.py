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
    FrictionParams,
    PairKinematics,
    PairState,
    StateKind,
    flipped_dofs,
    mohr_coulomb_tau_c,
    pair_jumps,
)
from fracfem.elasticity import (
    BoundaryCondition,
    MaterialParams,
    assemble_stiffness,
)
from fracfem.mesh import build_contact_pairs, generate_rect_mesh, split_fractures
from fracfem.solver import (
    FactorCache,
    LinearSolveError,
    SaddleSystem,
    SingularRowError,
    SolutionState,
    SolverConfig,
    SystemCache,
    build_preconditioner,
    build_system,
    initial_states,
    linear_solve,
    newton_loop,
    reaction_forces,
    run_load_steps,
    step_data,
)

MAT = MaterialParams(E=25e9, nu=0.25)
FRIC30 = FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0))


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


def small_inclined_setup(sigma=10e6, pressure=0.0):
    """Coarse version of the 45-degree crack benchmark."""
    cfg = presets.inclined_crack(sigma=sigma, pressure=pressure,
                                 k_hops=10, nx=16)
    from fracfem.config import build_mesh

    return build_mesh(cfg), cfg


def make_system(mesh, cfg, states=None):
    U = np.zeros(2 * mesh.n_nodes)
    lam = np.zeros(2 * mesh.n_pairs)
    F, fixed, vals, free = step_data(mesh, cfg.bcs, None, 1)
    U[fixed] = vals
    st_ = SolutionState(U=U, lam=lam,
                        states=states or initial_states(mesh))
    K = assemble_stiffness(mesh, cfg.material)
    return build_system(mesh, cfg.material, cfg.friction, st_, K, F, fixed,
                        free)


class TestBuildSystem:
    def test_all_open_reduces_to_elasticity(self):
        mesh, cfg = small_inclined_setup()
        states = [PairState.open_() for _ in mesh.pairs]
        sys = make_system(mesh, cfg, states=states)
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc)
        d_lam = dx[sys.n_disp :]
        np.testing.assert_allclose(d_lam, 0.0, atol=1e-12)
        # displacement part equals the plain elastic solve
        K = assemble_stiffness(mesh, cfg.material)
        K_red = K[sys.free][:, sys.free].tocsc()
        du = spla.spsolve(K_red, -sys.R[: sys.n_disp])
        np.testing.assert_allclose(dx[: sys.n_disp], du, rtol=1e-8)

    def test_all_stick_jacobian_symmetric(self):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        asym = np.abs((sys.J - sys.J.T).toarray()).max()
        assert asym <= 1e-9 * np.abs(sys.J.toarray()).max()

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

    def test_inclined_crack_all_pairs_slip_compressive(self):
        mesh, cfg = small_inclined_setup()
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        assert res.converged
        assert all(s.kind is StateKind.SLIP for s in res.states)
        assert all(res.lam[2 * p.id] < 0 for p in mesh.pairs)

    def test_pressure_opens_all_pairs(self):
        mesh, cfg = small_inclined_setup(sigma=0.0, pressure=10e6)
        res = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs,
                          cfg.solver)
        assert res.converged
        assert all(s.kind is StateKind.OPEN for s in res.states)
        np.testing.assert_allclose(res.lam, 0.0, atol=1e-20)

    def test_deterministic_bitwise(self):
        mesh, cfg = small_inclined_setup()
        a = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        b = newton_loop(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.lam, b.lam)
        assert a.states == b.states
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


class TestFactorCache:
    """The factorization is reused exactly while J and its scaling repeat."""

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
        real = solver.linear_solve

        def record(sys, pc, *args, **kwargs):
            keys.append(b"|".join(
                a.tobytes() for a in
                (sys.J.indptr, sys.J.indices, sys.J.data, pc)
            ))
            return real(sys, pc, *args, **kwargs)

        monkeypatch.setattr(solver, "linear_solve", record)
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
        monkeypatch.setattr(FactorCache, "_hit", lambda self, J, diag: False)
        fresh = self.ramped_run()
        assert len(calls) == sum(r.newton_iters for r in fresh)
        for a, b in zip(cached, fresh):
            np.testing.assert_array_equal(a.U, b.U)
            np.testing.assert_array_equal(a.lam, b.lam)

    def test_changed_row_scaling_is_not_served_from_cache(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        row_norm = build_preconditioner(sys)
        identity = np.ones(sys.n_disp + sys.n_lam)
        calls = self.count_splu(monkeypatch)
        cache = FactorCache()
        scaled = linear_solve(sys, row_norm, cache=cache)
        assert len(calls) == 1
        again = linear_solve(sys, row_norm, cache=cache)
        assert len(calls) == 1
        np.testing.assert_array_equal(again, scaled)
        plain = linear_solve(sys, identity, cache=cache)
        assert len(calls) == 2
        np.testing.assert_array_equal(cache.diag, identity)
        back = linear_solve(sys, row_norm, cache=cache)
        assert len(calls) == 3
        np.testing.assert_array_equal(back, scaled)
        np.testing.assert_array_equal(
            plain, linear_solve(sys, identity, cache=FactorCache())
        )

    def test_changed_jacobian_values_are_not_served_from_cache(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        calls = self.count_splu(monkeypatch)
        cache = FactorCache()
        linear_solve(sys, pc, cache=cache)
        J2 = sys.J.copy()
        J2.data[0] = np.nextafter(J2.data[0], np.inf)  # one ulp, same pattern
        sys2 = SaddleSystem(**{**sys.__dict__, "J": J2})
        linear_solve(sys2, pc, cache=cache)
        assert len(calls) == 2
        assert cache.J is J2

    def test_repeated_system_served_by_identity(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        calls = self.count_splu(monkeypatch)
        cache = FactorCache()
        first = linear_solve(sys, pc, cache=cache)

        def no_compare(*args):
            raise AssertionError("a cache hit compares no arrays")

        monkeypatch.setattr(solver, "_same_bits", no_compare)
        again = linear_solve(sys, pc, cache=cache)
        assert len(calls) == 1
        assert solver._same_bits is no_compare
        np.testing.assert_array_equal(again.view(np.uint64), first.view(np.uint64))

    def test_equal_copies_refactor_to_the_same_bits(self, monkeypatch):
        mesh, cfg = small_inclined_setup()
        sys = make_system(mesh, cfg)
        pc = build_preconditioner(sys)
        calls = self.count_splu(monkeypatch)
        cache = FactorCache()
        first = linear_solve(sys, pc, cache=cache)
        copied_J = SaddleSystem(**{**sys.__dict__, "J": sys.J.copy()})
        for system, scaling, n_calls in ((copied_J, pc, 2), (copied_J, pc.copy(), 3)):
            dx = linear_solve(system, scaling, cache=cache)
            assert len(calls) == n_calls and not cache.bordered
            assert cache.J is system.J and cache.diag is scaling
            np.testing.assert_array_equal(dx.view(np.uint64), first.view(np.uint64))


def _backward_error(cache, dx, rhs):
    """The contract's backward error of ``dx`` on the row-scaled system."""
    denom = np.linalg.norm(rhs) + np.linalg.norm(cache.absJ @ np.abs(dx))
    return np.linalg.norm(cache.Jbar @ dx - rhs) / denom


OPEN, SLIP = PairState.open_(), PairState.slip(1)


class TestBorderedUpdate:
    """Few flipped pairs are solved by bordering the cached factorization."""

    @staticmethod
    def flipped(states, changes):
        out = list(states)
        for i, state in changes.items():
            out[i] = state
        return out

    def setup_base(self, monkeypatch, friction=None):
        """(mesh, splu calls, cache holding the all-stick base, system
        builder from states) on the coarse inclined crack."""
        mesh, cfg = small_inclined_setup()
        if friction is not None:
            cfg = dataclasses.replace(cfg, friction=friction)
        calls = TestFactorCache.count_splu(monkeypatch)
        cache = FactorCache()
        base = make_system(mesh, cfg)
        linear_solve(base, build_preconditioner(base), cache=cache)
        assert len(calls) == 1 and not cache.bordered
        return mesh, calls, cache, lambda states: make_system(mesh, cfg, states)

    @pytest.mark.parametrize("name, count", [("crossing-multi", 2), ("sneddon", 2)])
    def test_factorizations_per_run(self, name, count):
        *_, zeros = _solved(name)
        assert len(zeros) == count

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_factored_matrices_hold_no_stored_zeros(self, name):
        *_, zeros = _solved(name)
        assert zeros and not any(zeros)

    def test_bordered_solve_matches_fresh_factorization(self, monkeypatch):
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        stick = initial_states(mesh)
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP}))
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc, cache=cache)
        assert cache.bordered and len(calls) == 1
        # open pair 2 changes both its rows; slip pair 4 its tangential row
        # and its normal column (friction), the one column with J_NR entries
        nd = sys.n_disp
        np.testing.assert_array_equal(cache.lu.R, nd + np.array([4, 5, 8, 9]))
        np.testing.assert_array_equal(cache.lu.nz, [2])
        fresh = linear_solve(sys, pc)
        assert len(calls) == 2
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

        # one more pair opens: the base keeps its columns and solves for
        # two more, then for the one nonzero J_NR column
        cols = cache.base.cols.copy()
        sys = system(self.flipped(stick, {2: OPEN, 4: SLIP, 6: OPEN}))
        pc = build_preconditioner(sys)
        blocks = []
        real = solver._Base.solve

        def solve(self, y):
            if y.ndim == 2:
                blocks.append(y.shape[1])
            return real(self, y)

        monkeypatch.setattr(solver._Base, "solve", solve)
        dx = linear_solve(sys, pc, cache=cache)
        assert cache.bordered and len(calls) == 2
        assert blocks == [2, 1]
        np.testing.assert_array_equal(cache.base.dofs, nd + np.array([4, 5, 8, 9, 12, 13]))
        np.testing.assert_array_equal(cache.base.cols[:, :4], cols)
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
        base = cache.base.sys
        sys = system(self.flipped(initial_states(mesh), {4: SLIP}))
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc, cache=cache)
        assert cache.bordered and len(calls) == 1
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
        # system's; when it differs after all, the bordered solve misses the
        # backward-error contract on the true J and is repeated on a fresh
        # factorization
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system(self.flipped(initial_states(mesh), {2: OPEN}))
        J, nd = sys.J.copy(), sys.n_disp
        rows = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
        J.data[(rows < nd) & (J.indices < nd)] *= 1.5
        sys = SaddleSystem(**{**sys.__dict__, "J": J})
        pc = build_preconditioner(sys)
        bordered = []
        _counted(monkeypatch, solver._Bordered, "solve", bordered)
        dx = linear_solve(sys, pc, cache=cache)
        assert bordered and len(calls) == 2 and not cache.bordered
        np.testing.assert_array_equal(dx, linear_solve(sys, pc))

    def test_one_ulp_in_displacement_block_stays_bordered(self, monkeypatch):
        # a change the contract tolerates is served by the bordered solve
        # and its refinement on the true J, without a fresh factorization
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system(self.flipped(initial_states(mesh), {2: OPEN}))
        J = sys.J.copy()
        J.data[0] = np.nextafter(J.data[0], np.inf)  # one ulp in K_ff
        sys = SaddleSystem(**{**sys.__dict__, "J": J})
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc, cache=cache)
        assert cache.bordered and len(calls) == 1
        fresh = linear_solve(sys, pc)
        assert np.linalg.norm(dx - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert _backward_error(cache, dx, -sys.R / pc) <= 1e-10

    def test_update_over_budget_refactors(self, monkeypatch):
        mesh, calls, cache, system = self.setup_base(monkeypatch)
        sys = system([SLIP] * mesh.n_pairs)
        # every tangential row and normal column changes
        assert sys.J.shape[0] * 2 * mesh.n_pairs > cache.base.lu.nnz / 4
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc, cache=cache)
        assert len(calls) == 2 and not cache.bordered
        assert cache.base.sys is sys and cache.base.dofs.size == 0
        np.testing.assert_array_equal(dx, linear_solve(sys, pc))

    def test_over_budget_miss_forms_no_difference(self, monkeypatch):
        # sneddon's second loop opens all 19 pairs, 38 multiplier dofs,
        # against a budget of about 20 dense columns: rejected before any
        # base solve
        from fracfem.config import build_mesh

        cfg = presets.get("sneddon")
        mesh = build_mesh(cfg)
        calls = TestFactorCache.count_splu(monkeypatch)
        subs, borders, solves, flips = [], [], [], []
        _counted(monkeypatch, sp.csr_matrix, "__sub__", subs)
        _counted(monkeypatch, solver._Base, "border", borders)
        _counted(monkeypatch, solver._Base, "solve", solves)

        def recorded(*args):
            flips.append(flipped_dofs(*args))
            return flips[-1]

        monkeypatch.setattr(solver, "flipped_dofs", recorded)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs, cfg.solver)
        assert res[-1].converged
        assert len(calls) == 2 and not subs
        assert len(borders) == 1 and not solves
        assert [f.size for f in flips] == [2 * mesh.n_pairs]

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
        reach = [(PairState.stick(), OPEN) if c else _STATE_CHOICES
                 for c in mesh.pair_arrays.crossing]
        states0 = [opts[rng.integers(len(opts))] for opts in reach]
        share = rng.random()
        states1 = list(states0)
        for p in np.flatnonzero((rng.random(mesh.n_pairs) < share) | fully_fixed):
            others = [s for s in reach[p] if s != states0[p]]
            states1[p] = others[rng.integers(len(others))]

        def system(states):
            st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), states=states)
            return build_system(mesh, cfg.material, cfg.friction, st_, K, F,
                                fixed, free)

        sys0, sys1 = system(states0), system(states1)
        got = sys1.n_disp + flipped_dofs(
            sys0.states, sys1.states, sys0.blocks.pinned, sys1.blocks.pinned
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
        sys = system(self.flipped(initial_states(mesh), {2: OPEN}))
        pc = build_preconditioner(sys)
        dx = linear_solve(sys, pc, cache=cache)
        assert len(calls) == 2 and not cache.bordered
        assert cache.base.sys is sys
        np.testing.assert_array_equal(dx, linear_solve(sys, pc))


# ---------------------------------------------------------------------------
# Reference: the saddle Jacobian as it was built before K's free block was
# sliced once per run, kept verbatim to pin the sliced construction bit for bit.
# ---------------------------------------------------------------------------

def _ref_saddle_J(mesh, mat, blocks, K, free):
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
    mix = [_STATE_CHOICES[i] for i in rng.integers(0, 4, n_pairs)]
    for i, state in enumerate(_STATE_CHOICES[: min(4, n_pairs)]):
        mix[i] = state
    return {
        "stick": [PairState.stick()] * n_pairs,
        "slip": [PairState.slip(1 if i % 2 else -1) for i in range(n_pairs)],
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
    for mix, states in _state_mixes(mesh.n_pairs, np.random.default_rng(5)).items():
        st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), states=states)
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
        # through the run's cache, with K's free block sliced once
        cache = SystemCache(K)
        st_ = SolutionState(U=U, lam=np.zeros(sys.n_lam),
                            states=_state_mixes(mesh.n_pairs,
                                                np.random.default_rng(5))[mix])
        got = cache.system(mesh, cfg.material, cfg.friction, st_, F, fixed, free)
        assert _same_csr(got.J, ref)
        assert _same_csr(cache.K_ff, K[free][:, free])
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

    def test_stored_zeros_reach_the_scaling(self):
        # the eliminated zeros are real: sneddon's mixed J stores some
        *_, systems = _preset_systems("sneddon")
        J = systems["mix"].J
        assert np.count_nonzero(J.data) < J.nnz
        got = solver._row_scaled(J, build_preconditioner(systems["mix"]))
        assert got.nnz == np.count_nonzero(J.data)

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
            assert x.states == y.states
            assert (x.newton_iters, x.state_loops) == (y.newton_iters, y.state_loops)

    def test_blocks_and_row_norms_once_per_assignment(self, monkeypatch):
        mesh, cfg = _ramp()
        blocks, norms, loops = [], [], []
        _counted(monkeypatch, solver, "assemble_contact_blocks", blocks,
                 lambda mesh, states, *a, **kw: tuple(states))
        _counted(monkeypatch, solver, "build_preconditioner", norms)
        _counted(monkeypatch, solver, "classify_all", loops,
                 lambda mesh, states, *a: tuple(states))
        results = self.run(mesh, cfg)
        assert sum(r.state_loops for r in results) == len(loops) == 9
        # all stick, then all slip for the rest of the ramp
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

        def system(states, fixed_, free_):
            st_ = SolutionState(U=U, lam=np.zeros(2 * mesh.n_pairs), states=states)
            return cache.system(mesh, cfg.material, cfg.friction, st_, F, fixed_, free_)

        stick = initial_states(mesh)
        first = system(stick, fixed, free)
        pc = cache.preconditioner()
        again = system(list(stick), fixed.copy(), free)
        assert again.J is first.J and again.blocks is first.blocks
        assert cache.preconditioner() is pc
        slip = system([PairState.slip(1)] * mesh.n_pairs, fixed, free)
        assert slip.J is not first.J and cache.pc is None
        K_ff = cache.K_ff
        more = np.sort(np.append(fixed, free[0]))
        other = system([PairState.slip(1)] * mesh.n_pairs, more, free[1:])
        assert other.J is not slip.J and cache.K_ff is not K_ff
        assert other.n_disp == free.size - 1


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


def _ref_ranked_flips(mesh, states, proposed, U, lam, fric):
    """Proposed state changes ranked by a dimensionless violation score."""
    flips = [
        (pair.id, st, new, kin)
        for pair, st, new, kin in zip(
            mesh.pairs, states, proposed, _ref_all_pair_kinematics(mesh, U, lam)
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
        if new.kind is StateKind.OPEN:
            score = kin.lam_n / lam_ref
        elif st.kind is StateKind.OPEN:
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


_STATE_CHOICES = (PairState.stick(), PairState.slip(1), PairState.slip(-1),
                  PairState.open_())


def _random_flips(rng, states, share):
    """``states`` with a random ``share`` of pairs moved to another state."""
    out = list(states)
    for i in np.flatnonzero(rng.random(len(states)) < share):
        out[i] = rng.choice([s for s in _STATE_CHOICES if s != states[i]])
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
                states = (res.states if rng.random() < 0.5
                          else [rng.choice(_STATE_CHOICES) for _ in mesh.pairs])
                cases.append((states, _random_flips(rng, states, share)))
        # ties: every open pair re-engages at the same zero trial gap
        cases.append(([PairState.open_()] * mesh.n_pairs,
                      [PairState.stick()] * mesh.n_pairs))
        for U in (res.U, np.zeros_like(res.U)):
            for states, proposed in cases:
                got = solver._ranked_flips(mesh, states, proposed, U, res.lam, fric)
                ref = _ref_ranked_flips(mesh, states, proposed, U, res.lam, fric)
                assert _bits(got) == _bits(ref)
                assert len(got) == sum(a != b for a, b in zip(states, proposed))

    def test_cautious_update_takes_best_unvisited_single_flip(self):
        mesh, fric, res, _ = _solved("crossing-multi")
        rng = np.random.default_rng(4)
        states = list(res.states)
        proposed = _random_flips(rng, states, 0.2)
        ranked = solver._ranked_flips(mesh, states, proposed, res.U, res.lam, fric)
        assert len(ranked) >= 3

        def flipped(pid):
            out = list(states)
            out[pid] = proposed[pid]
            return tuple(out)

        seen = {tuple(states), flipped(ranked[0][1]), flipped(ranked[1][1])}
        out = solver._cautious_update(
            mesh, states, proposed, res.U, res.lam, fric, seen
        )
        diff = [i for i, (a, b) in enumerate(zip(states, out)) if a != b]
        assert diff == [ranked[2][1]]
        assert out[diff[0]] == proposed[diff[0]]
        assert tuple(out) not in seen

        seen |= {flipped(pid) for _, pid in ranked}
        assert solver._cautious_update(
            mesh, states, proposed, res.U, res.lam, fric, seen
        ) is None
