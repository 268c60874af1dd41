"""Closed-form reference solutions, profile error metrics, SIF estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import FrictionParams, pair_kinematics
from .elasticity import MaterialParams
from .mesh import arc_coordinates


@dataclass(frozen=True)
class InclinedCrackCase:
    """Embedded crack of half-length l inclined by alpha to the loading
    axis under remote uniaxial compression sigma_inf, with Coulomb friction
    on the faces."""

    alpha: float
    sigma_inf: float
    half_length: float
    material: MaterialParams
    friction: FrictionParams

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise ValueError(f"alpha must be in (0, pi/2), got {self.alpha}")
        if self.sigma_inf <= 0.0:
            raise ValueError("sigma_inf must be positive")
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")


def inclined_crack_traction(case):
    """(tangential, normal) resolved tractions of the inclined-crack case.

    The tangential value is the net slip-driving shear: resolved shear minus
    the Coulomb resistance of the resolved normal compression.  On a slipping
    face the contact traction is that resistance, ``c - t_n tan(phi)``, not
    ``t_t``.
    """
    s, a = case.sigma_inf, case.alpha
    t_t = s * math.sin(a) * math.cos(a) - s * math.sin(a) ** 2 * math.tan(
        case.friction.friction_angle
    )
    t_n = -s * math.sin(a) ** 2
    return t_t, t_n


def inclined_crack_slip(eta, case):
    """Elliptical slip profile over the crack coordinate eta in [0, 2l]."""
    l = case.half_length
    if not 0.0 <= eta <= 2.0 * l:
        raise ValueError(f"eta={eta} outside [0, {2 * l}]")
    t_t, _ = inclined_crack_traction(case)
    E, nu = case.material.E, case.material.nu
    return 4.0 * t_t * (1.0 - nu**2) / E * math.sqrt(l * l - (eta - l) ** 2)


def sneddon_opening(eta, p, half_length, mat):
    """Opening of a pressurized crack at distance eta from its center."""
    l = half_length
    if abs(eta) > l:
        raise ValueError(f"|eta|={abs(eta)} exceeds the half length {l}")
    return 2.0 * l * p * (1.0 - mat.nu) / mat.G * math.sqrt(1.0 - (eta / l) ** 2)


def constant_slip_reference():
    """Reference slip magnitude of the through-going shear benchmark."""
    return 0.1414


@dataclass(frozen=True)
class ProfileError:
    rel_l2: float
    window: tuple


def profile_error(eta, values, analytic, length, window=(0.1, 0.9)):
    """Relative L2 error of sampled values against ``analytic(eta)``.

    Restricted to the window given as fractions of ``length`` (the default
    drops 10% at each end, where collocated multipliers are known to
    oscillate near crack tips).  Needs at least 3 samples inside the window.
    """
    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid window {window}")
    eta = np.asarray(eta, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (eta >= lo * length) & (eta <= hi * length)
    if mask.sum() < 3:
        raise ValueError(
            f"only {int(mask.sum())} samples inside window {window}, need >= 3"
        )
    ana = np.array([analytic(e) for e in eta[mask]])
    denom = float(np.linalg.norm(ana))
    if denom == 0.0:
        raise ValueError("analytic profile vanishes on the window")
    err = float(np.linalg.norm(values[mask] - ana)) / denom
    return ProfileError(rel_l2=err, window=(lo, hi))


def sif_components(mesh, state, fracture_id, tip, mat):
    """(K_I, K_II) by displacement correlation at the pair nearest a tip.

    K_M = G / (kappa + 1) * sqrt(2 pi / r) * du_M with kappa = 3 - 4 nu
    (plane strain), du_N the opening jump (clamped at 0 under contact) and
    du_T the magnitude of the tangential jump, both at distance r from the
    tip along the fracture.
    """
    regular = [
        p for p in mesh.pairs if p.fracture == fracture_id and not p.is_crossing_pair
    ]
    if not regular:
        raise ValueError(f"fracture {fracture_id} has no regular pairs")
    if tip == "start":
        eta_tip = 0.0
        pair = regular[0]
    elif tip == "end":
        eta_tip = arc_coordinates(mesh, fracture_id)[-1]
        pair = regular[-1]
    else:
        raise ValueError(f"tip must be 'start' or 'end', got {tip!r}")
    r = abs(pair.arc_coord - eta_tip)
    if r <= 0.0:
        raise ValueError("tip pair coincides with the tip node")
    kin = pair_kinematics(pair, state.U, state.lam)
    du_n = max(kin.jump_n, 0.0)
    du_t = abs(kin.jump_t)
    kappa = 3.0 - 4.0 * mat.nu
    coef = mat.G / (kappa + 1.0) * math.sqrt(2.0 * math.pi / r)
    return coef * du_n, coef * du_t


def sif_ratio(mesh, state, fracture_id, tip, mat):
    """Normalized mode-mix ratio (2/pi) * arctan(K_I / K_II) in [0, 1]."""
    k1, k2 = sif_components(mesh, state, fracture_id, tip, mat)
    if k2 == 0.0:
        return 1.0  # pure mode I limit
    return (2.0 / math.pi) * math.atan2(k1, k2)
