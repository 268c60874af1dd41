"""Closed-form reference solutions and error metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfem.contact import FrictionParams
from fracfem.elasticity import MaterialParams
from fracfem.mesh import build_contact_pairs, generate_rect_mesh, split_fractures
from fracfem.oracles import (
    InclinedCrackCase,
    constant_slip_reference,
    inclined_crack_slip,
    inclined_crack_traction,
    profile_error,
    sif_components,
    sif_ratio,
    sneddon_opening,
)
from fracfem.solver import SolutionState

MAT_25 = MaterialParams(E=25e9, nu=0.25)
FRIC_30 = FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0))


def case45(sigma=10e6):
    return InclinedCrackCase(
        alpha=math.pi / 4, sigma_inf=sigma, half_length=1.0,
        material=MAT_25, friction=FRIC_30,
    )


class TestInclinedCrackTraction:
    def test_alpha_to_zero_vanishes(self):
        case = InclinedCrackCase(
            alpha=1e-9, sigma_inf=10e6, half_length=1.0,
            material=MAT_25, friction=FRIC_30,
        )
        t_t, t_n = inclined_crack_traction(case)
        assert abs(t_t) < 1e-2
        assert abs(t_n) < 1e-2

    def test_45deg_values(self):
        # 1e7*(0.5 - 0.5*tan30) and -1e7*0.5, evaluated by hand
        t_t, t_n = inclined_crack_traction(case45())
        assert t_t == pytest.approx(2.1132487e6, rel=1e-6)
        assert t_n == pytest.approx(-5.0e6, rel=1e-12)

    @given(
        alpha=st.floats(min_value=0.01, max_value=1.5),
        phi=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_no_slip_drive_when_locked(self, alpha, phi):
        # t_T = sigma*sin(a)*cos(a)*(1 - tan(a)*tan(phi)): the drive is
        # non-positive exactly when tan(a)*tan(phi) >= 1
        case = InclinedCrackCase(
            alpha=alpha, sigma_inf=10e6, half_length=1.0,
            material=MAT_25,
            friction=FrictionParams(cohesion=0.0, friction_angle=phi),
        )
        t_t, _ = inclined_crack_traction(case)
        if math.tan(alpha) * math.tan(phi) >= 1.0 + 1e-12:
            assert t_t <= 1e-6
        elif math.tan(alpha) * math.tan(phi) <= 1.0 - 1e-12:
            assert t_t >= -1e-6


class TestInclinedCrackSlip:
    def test_endpoints_vanish(self):
        case = case45()
        assert inclined_crack_slip(0.0, case) == 0.0
        assert inclined_crack_slip(2.0, case) == 0.0

    def test_center_value(self):
        # 4 * 2.1132e6 * 0.9375 / 25e9 * 1 m, evaluated by hand
        assert inclined_crack_slip(1.0, case45()) == pytest.approx(
            3.16987e-4, rel=1e-4
        )

    @given(eta=st.floats(min_value=0.0, max_value=2.0))
    @example(eta=3.354927350559541e-16)
    def test_symmetric_about_center(self, eta):
        # 2.0 - eta is not the mirror of eta when eta is below one ulp of 2:
        # 2 - 3.35e-16 rounds to 2 - 4.44e-16, whose slip is 15% larger.
        # m = 2 - eta lies in [0, 2] and e = 2 - m is exact (Sterbenz), so
        # e + m == 2 exactly and the two points mirror each other.
        case = case45()
        m = 2.0 - eta
        e = 2.0 - m
        a = inclined_crack_slip(e, case)
        b = inclined_crack_slip(m, case)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    @given(eta=st.floats(min_value=0.0, max_value=2.0))
    def test_nonnegative_and_below_center(self, eta):
        case = case45()
        s = inclined_crack_slip(eta, case)
        assert s >= 0.0
        assert s <= inclined_crack_slip(1.0, case) + 1e-18

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            inclined_crack_slip(-0.1, case45())
        with pytest.raises(ValueError):
            inclined_crack_slip(2.1, case45())


class TestSneddonOpening:
    def test_tips_vanish(self):
        assert sneddon_opening(1.0, 10e6, 1.0, MAT_25) == 0.0
        assert sneddon_opening(-1.0, 10e6, 1.0, MAT_25) == 0.0

    def test_center_value(self):
        # 2*1*1e7*0.75/1e10 with G = 10 GPa, evaluated by hand
        assert sneddon_opening(0.0, 10e6, 1.0, MAT_25) == pytest.approx(
            1.5e-3, rel=1e-12
        )

    @given(p=st.floats(min_value=1e3, max_value=1e8))
    def test_linear_in_pressure(self, p):
        one = sneddon_opening(0.3, p, 1.0, MAT_25)
        two = sneddon_opening(0.3, 2.0 * p, 1.0, MAT_25)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    @given(eta=st.floats(min_value=-1.0, max_value=1.0))
    def test_even_in_eta(self, eta):
        a = sneddon_opening(eta, 10e6, 1.0, MAT_25)
        b = sneddon_opening(-eta, 10e6, 1.0, MAT_25)
        assert a == pytest.approx(b, abs=1e-18)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sneddon_opening(1.5, 10e6, 1.0, MAT_25)


def test_constant_slip_reference():
    assert constant_slip_reference() == 0.1414


class TestSifRatio:
    def _state_with_tip_jump(self, jump):
        mesh = build_contact_pairs(split_fractures(
            generate_rect_mesh(1.0, 1.0, 10, 10,
                               fractures=[(0.2, 0.5, 0.8, 0.5)])
        ))
        state = SolutionState(
            U=np.zeros(2 * mesh.n_nodes), lam=np.zeros(2 * mesh.n_pairs),
            codes=np.zeros(mesh.n_pairs, np.int8),
        )
        regular = [p for p in mesh.pairs
                   if p.fracture == 0 and not p.is_crossing_pair]
        for p in (regular[0], regular[-1]):
            state.U[2 * p.node_plus : 2 * p.node_plus + 2] = jump
        return mesh, state

    def test_pure_opening_gives_one(self):
        mesh, state = self._state_with_tip_jump(np.array([0.0, 1e-4]))
        assert sif_ratio(mesh, state, 0, "start", MAT_25) == 1.0
        assert sif_ratio(mesh, state, 0, "end", MAT_25) == 1.0

    def test_pure_sliding_gives_zero(self):
        mesh, state = self._state_with_tip_jump(np.array([1e-4, 0.0]))
        assert sif_ratio(mesh, state, 0, "start", MAT_25) == pytest.approx(0.0)

    @given(
        du_n=st.floats(min_value=0.0, max_value=1e-3),
        du_t=st.floats(min_value=-1e-3, max_value=1e-3),
    )
    @settings(max_examples=25)
    def test_ratio_in_unit_interval(self, du_n, du_t):
        mesh, state = self._state_with_tip_jump(np.array([du_t, du_n]))
        r = sif_ratio(mesh, state, 0, "start", MAT_25)
        assert 0.0 <= r <= 1.0

    def test_components_scale_with_jump(self):
        mesh, state = self._state_with_tip_jump(np.array([2e-4, 3e-4]))
        k1, k2 = sif_components(mesh, state, 0, "start", MAT_25)
        assert k1 > 0 and k2 > 0
        assert k1 / k2 == pytest.approx(3.0 / 2.0, rel=1e-12)


class TestProfileError:
    def test_exact_profile_gives_zero(self):
        eta = np.linspace(0.2, 1.8, 9)
        vals = [inclined_crack_slip(e, case45()) for e in eta]
        err = profile_error(
            eta, vals, lambda e: inclined_crack_slip(e, case45()), length=2.0
        )
        assert err.rel_l2 == pytest.approx(0.0, abs=1e-15)

    def test_uniform_scaling(self):
        eta = np.linspace(0.2, 1.8, 9)
        ana = np.array([inclined_crack_slip(e, case45()) for e in eta])
        err = profile_error(
            eta, 1.05 * ana, lambda e: inclined_crack_slip(e, case45()),
            length=2.0,
        )
        assert err.rel_l2 == pytest.approx(0.05, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_reorder_invariance(self, seed):
        rng = np.random.default_rng(seed)
        eta = np.linspace(0.0, 2.0, 15)
        vals = rng.standard_normal(15) * 1e-4
        perm = rng.permutation(15)
        a = profile_error(
            eta, vals, lambda e: inclined_crack_slip(e, case45()), length=2.0
        )
        b = profile_error(
            eta[perm], vals[perm],
            lambda e: inclined_crack_slip(e, case45()), length=2.0,
        )
        assert a.rel_l2 == pytest.approx(b.rel_l2, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            profile_error(
                [0.5, 1.0], [1.0, 1.0], lambda e: 1.0, length=2.0
            )

    def test_window_excludes_tips(self):
        eta = [0.0, 0.05, 1.0, 1.1, 1.2, 1.95, 2.0]
        vals = [99.0, 99.0, 1.0, 1.0, 1.0, 99.0, 99.0]
        err = profile_error(eta, vals, lambda e: 1.0, length=2.0)
        assert err.rel_l2 == pytest.approx(0.0, abs=1e-15)


class TestInclinedCrackCaseGuard:
    @pytest.mark.parametrize("kwargs, message", [
        ({"cohesion": 1e6}, "friction.cohesion"),
        ({"shear": 1e6}, "top shear"),
        ({"pressure": 1e6}, "fracture_pressure"),
    ], ids=["cohesion", "shear", "pressure"])
    def test_parameters_outside_the_closed_form_raise(self, kwargs, message):
        from fracfem import presets
        from fracfem.elasticity import ConfigError

        with pytest.raises(ConfigError, match=message):
            presets.inclined_crack_case(presets.inclined_crack(**kwargs))

    def test_defaults_and_ramp_keep_their_case(self):
        from fracfem import presets

        for cfg in (None, presets.inclined_crack(n_load_steps=8)):
            case = presets.inclined_crack_case(cfg)
            assert case.sigma_inf == 10e6 and case.alpha == math.pi / 4
