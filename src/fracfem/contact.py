"""Contact kinematics, Mohr-Coulomb state classification, block assembly.

Every contact pair always owns two multiplier dofs (normal, tangential) so
the system size is fixed across iterations.  The pair state decides what the
corresponding rows/columns contain:

  stick  - both local jump components are constrained; the constraint rows
           and the displacement-equation coupling are exact transposes.
  slip   - the normal constraint row stays (closed face, non-dilatant); the
           tangential multiplier row is replaced by the algebraic relation
           lam_t = sign * (c - lam_n * tan(phi)); the friction force enters
           the displacement equations through the normal multiplier column
           (direction n - sign*tan(phi)*m) plus the cohesion load.  These
           rows break the symmetry of the saddle system.
  open   - both multiplier rows are replaced by identity rows pinning the
           multipliers to zero; no coupling.

Crossing pairs at fracture intersections transmit only a normal point force:
the two diagonal pairings of the four duplicates would otherwise duplicate
each other's full stick constraints (same node pair constrained in two
rotated frames) and make the system singular.  Their tangential multiplier
is always pinned to zero and they classify as active (normal constraint) or
open only.

Every constraint row is collocated at its pair and weighted by the pair's
``weight``, set when the pairs are built: for a regular pair its tributary
arc length (half of each adjacent segment, i.e. the row-sum lumping of a
piecewise-linear multiplier interpolation along the fracture).
Tributaries truncate at unduplicated crack tips and at intersections, where
the crossing-pair point constraints take over.

The pair data (dofs, frames, weights, initial gaps, crossing mask) are
arrays built once per mesh (``Mesh.pair_arrays``).  The state assignment is
an array too, one ``int8`` code per pair: -1/+1 slips with that sign, 0
sticks and ``OPEN`` (2) is open.  Jumps, block assembly and the state
update are array passes over these arrays; ``pair_states`` gives the
labelled view of the codes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elasticity import ConfigError


@dataclass(frozen=True)
class FrictionParams:
    """Mohr-Coulomb constants: cohesion (Pa) and friction angle (radians)."""

    cohesion: float
    friction_angle: float

    def __post_init__(self):
        if self.cohesion < 0.0:
            raise ConfigError(
                f"friction.cohesion must be >= 0, got {self.cohesion}"
            )
        if not 0.0 <= self.friction_angle < 0.5 * math.pi:
            raise ConfigError(
                "friction.friction_angle must be in [0, pi/2), got "
                f"{self.friction_angle}"
            )

    @property
    def tan_phi(self):
        return math.tan(self.friction_angle)


class StateKind(enum.Enum):
    STICK = "stick"
    SLIP = "slip"
    OPEN = "open"


@dataclass(frozen=True)
class PairState:
    kind: StateKind
    sign: int = 0

    def __post_init__(self):
        if self.kind is StateKind.SLIP and self.sign not in (-1, 1):
            raise ValueError("slip state needs sign +-1")
        if self.kind is not StateKind.SLIP and self.sign != 0:
            raise ValueError("only slip states carry a sign")

    @property
    def label(self):
        return self.kind.value


# The state code of an open pair; -1/+1 slip with that sign and 0 sticks.
OPEN = 2
# _STATES[code + 1]: the labelled state of each code
_STATES = np.array([
    PairState(StateKind.SLIP, -1), PairState(StateKind.STICK),
    PairState(StateKind.SLIP, 1), PairState(StateKind.OPEN),
], dtype=object)


def pair_states(codes):
    """The :class:`PairState` of each state code, as a tuple."""
    return tuple(_STATES[np.asarray(codes) + 1])


def checked_codes(codes, n_pairs):
    """``codes`` as ``int8``; a ValueError names a wrong length or the first
    pair whose code is not -1, 0, 1 or ``OPEN``."""
    if len(codes) != n_pairs:
        raise ValueError("one state per contact pair required")
    bad = np.flatnonzero(~np.isin(codes, (-1, 0, 1, OPEN)))
    if bad.size:
        raise ValueError(
            f"pair {bad[0]} has state code {codes[bad[0]]}; the codes are "
            f"-1/+1 (slip), 0 (stick) and {OPEN} (open)"
        )
    return np.asarray(codes, dtype=np.int8)


# Hysteresis tolerances of the state rules in :func:`_state_rule`.
# Multiplier noise band (Pa).  On a fault that carries no load the
# multipliers are roundoff of about 1e-7 Pa, whose signs would otherwise
# pick the states.  A closed pair whose normal and tangential multipliers
# are both within LAM_NOISE of zero keeps its state: zero traction on a
# closed pair is the degenerate KKT corner of GAP_NOISE seen from the other
# side, which every state admits without cohesion.
LAM_NOISE = 1e-3
# Any lam_n above OPEN_TENSION opens: tension within the noise band does not.
OPEN_TENSION = LAM_NOISE
# Relative band below tau_c still classified as slip, which keeps converged
# slip pairs from chattering back to stick.
SLIP_REL = 1e-8
# Tangential jumps below SIGN_EPS fall back to the trial traction sign.
SIGN_EPS = 1e-12
# Re-engagement dead band (meters); a separated pair only re-enters contact
# once its trial gap drops below -GAP_NOISE.  Exactly at the degenerate KKT
# corner (zero traction, zero gap) the state is indeterminate and roundoff
# would otherwise flip it every loop.
GAP_NOISE = 1e-12


@dataclass
class PairKinematics:
    """Per-pair jump, multipliers and gap at one iterate."""

    jump_n: float
    jump_t: float
    lam_n: float
    lam_t: float
    gap0: float

    @property
    def trial_gap(self):
        return self.gap0 + self.jump_n


def pair_jumps(mesh, U):
    """(jump_n, jump_t) arrays of every pair: ``[u]·n`` and ``[u]·t`` with
    ``[u] = u_plus - u_minus``, each as ``dx*nx + dy*ny``."""
    a = mesh.pair_arrays
    dx = U[a.dofs[:, 0]] - U[a.dofs[:, 2]]
    dy = U[a.dofs[:, 1]] - U[a.dofs[:, 3]]
    return (
        dx * a.normal[:, 0] + dy * a.normal[:, 1],
        dx * a.tangent[:, 0] + dy * a.tangent[:, 1],
    )


def pair_kinematics(pair, U, lam):
    """Kinematics of one pair, with the arithmetic of :func:`pair_jumps`."""
    p, m = 2 * pair.node_plus, 2 * pair.node_minus
    dx, dy = U[p] - U[m], U[p + 1] - U[m + 1]
    (nx, ny), (tx, ty) = pair.normal, pair.tangent
    return PairKinematics(
        jump_n=float(dx * nx + dy * ny),
        jump_t=float(dx * tx + dy * ty),
        lam_n=float(lam[2 * pair.id]),
        lam_t=float(lam[2 * pair.id + 1]),
        gap0=pair.gap0,
    )


def mohr_coulomb_tau_c(lam_n, fric):
    """Critical shear traction c - lam_n * tan(phi) (compression negative)."""
    return fric.cohesion - lam_n * fric.tan_phi


def _state_rule(jump_n, jump_t, lam_n, lam_t, gap0, crossing, codes, fric):
    """Next state code of each pair from its current ``codes``.

    Order of tests: a closed pair at zero traction (both multipliers within
    LAM_NOISE) keeps its state; tension demanded -> open; an open pair with a
    positive trial gap stays open; otherwise slip if the tangential
    multiplier reaches the Mohr-Coulomb bound, else stick.  Crossing pairs
    only switch between open and (normal-)active.  A slip pair's sign
    follows the tangential jump, below SIGN_EPS the trial traction, and is
    +1 when both vanish.
    """
    was_open = codes == OPEN
    opens = (lam_n > OPEN_TENSION) | (was_open & (gap0 + jump_n > -GAP_NOISE))
    tau_c = mohr_coulomb_tau_c(lam_n, fric)
    slips = ~(opens | crossing) & (np.abs(lam_t) >= tau_c * (1.0 - SLIP_REL))
    cue = np.where(
        np.abs(jump_t) >= SIGN_EPS, jump_t, np.where(lam_t != 0.0, lam_t, 1.0)
    )
    new = np.where(opens, OPEN, np.where(cue > 0, 1, -1) * slips)
    corner = ~was_open & (np.abs(lam_n) <= LAM_NOISE) & (np.abs(lam_t) <= LAM_NOISE)
    return np.where(corner, codes, new).astype(np.int8)


def classify_all(mesh, codes, U, lam, fric):
    """Next state code of every pair from the iterate ``U``, ``lam`` and
    the current ``codes``."""
    a = mesh.pair_arrays
    jump_n, jump_t = pair_jumps(mesh, U)
    return _state_rule(
        jump_n, jump_t, lam[0::2], lam[1::2], a.gap0, a.crossing, codes, fric
    )


@dataclass
class ContactBlocks:
    """Assembled contact blocks.

    ``C`` (2*n_cp x 2*n_node): multiplier constraint rows against U.
    ``B_up`` (2*n_node x 2*n_cp): displacement-equation coupling columns.
    For stick rows B_up equals C transposed; slip rows differ (friction).
    ``D`` (2*n_cp x 2*n_cp): replacement rows in the multiplier block (open
    identity rows, slip tangential relations, crossing tangential pins).
    ``g``: constant part of the multiplier residual (integrated initial gaps
    and cohesion constants).  ``f_slip``: cohesion load on the displacement
    equations.
    """

    C: sp.csr_matrix
    B_up: sp.csr_matrix
    D: sp.csr_matrix
    g: np.ndarray
    f_slip: np.ndarray
    pinned: np.ndarray  # multiplier dofs held at exactly zero (identity rows)


def _coupling(rows, dofs, vec):
    """COO triplets of ``vec^T (u_plus - u_minus)`` in multiplier row
    ``rows[k]``, one row per pair, over the pair's four ``dofs``."""
    return (
        np.repeat(rows, 4),
        dofs.ravel(),
        np.concatenate([vec, -vec], axis=1).ravel(),
    )


def _csr(vals, rows, cols, shape):
    """CSR matrix of COO triplets that stores no zero: a frame component of
    ±0.0 (an axis-aligned pair) or ``tan(phi) = 0`` gives exact zeros."""
    out = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def assemble_contact_blocks(mesh, codes, fric, fixed_dofs=None):
    """Assemble all contact rows/columns for the state codes ``codes``.

    Every closed pair carries pointwise constraint rows weighted by its
    ``weight``: the tributary arc length for regular pairs (the row-sum
    lumping of the linear multiplier interpolation along each fracture), a
    quarter of the two adjacent segments for crossing pairs.  Lumping keeps
    the closure exact at every pair node; a consistent mass coupling would
    only enforce the gap in the weighted-average sense and trades visible
    interpenetration between neighbouring pairs wherever the jump field
    kinks (crack tips, crossings).

    Pairs whose four displacement dofs are all in ``fixed_dofs`` carry no
    contact equations: their jump is part of the data, and their multiplier
    columns would vanish from the reduced system and make it singular.
    Their multipliers are pinned to zero instead; the interface force there
    is absorbed by the support reactions; ``codes`` pass :func:`checked_codes`.
    """
    codes = checked_codes(codes, mesh.n_pairs)
    a = mesh.pair_arrays
    n2 = 2 * mesh.n_nodes
    m2 = 2 * mesh.n_pairs
    tan_phi = fric.tan_phi
    is_open = codes == OPEN
    sign = np.where(is_open, 0, codes)
    fixed = np.zeros(n2, dtype=bool)
    if fixed_dofs is not None:
        fixed[np.asarray(fixed_dofs, dtype=np.int64)] = True
    inactive = fixed[a.dofs].all(axis=1)

    closed_mask = ~inactive & ~is_open  # pairs with a normal constraint row
    regular = closed_mask & ~a.crossing  # closed pairs with a tangential law
    closed = np.flatnonzero(closed_mask)
    stick = np.flatnonzero(regular & (sign == 0))
    slip = np.flatnonzero(regular & (sign != 0))
    slip_t = 2 * slip + 1
    w = a.weight[:, None]

    rows, cols, vals = _coupling(
        np.concatenate([2 * closed, 2 * stick + 1]),
        a.dofs[np.concatenate([closed, stick])],
        np.concatenate([w[closed] * a.normal[closed], w[stick] * a.tangent[stick]]),
    )
    # slip: friction enters through the normal multiplier column
    f_rows, f_cols, f_vals = _coupling(
        2 * slip,
        a.dofs[slip],
        w[slip] * (((-sign[slip]) * tan_phi)[:, None] * a.tangent[slip]),
    )

    g = np.zeros(m2)
    g[2 * closed] += a.gap0[closed] * a.weight[closed]
    g[slip_t] = -sign[slip] * fric.cohesion
    f_slip = np.zeros(n2)
    if fric.cohesion != 0.0:
        coh = (fric.cohesion * sign[slip]) * a.weight[slip]
        _, dofs, loads = _coupling(slip, a.dofs[slip], coh[:, None] * a.tangent[slip])
        np.add.at(f_slip, dofs, loads)  # in pair order, as nodes may repeat

    # identity rows: open and fully fixed pairs, and the tangential
    # multiplier of every crossing pair (no point friction at a crossing)
    pinned = np.column_stack([~closed_mask, ~regular]).ravel()
    ident = np.flatnonzero(pinned)
    D_rows = np.concatenate([ident, slip_t, slip_t])
    D_cols = np.concatenate([ident, slip_t, slip_t - 1])
    D_vals = np.concatenate(
        [np.ones(ident.size + slip_t.size), sign[slip] * tan_phi]
    )

    return ContactBlocks(
        C=_csr(vals, rows, cols, (m2, n2)),
        B_up=_csr(np.concatenate([vals, f_vals]), np.concatenate([cols, f_cols]),
                  np.concatenate([rows, f_rows]), (n2, m2)),
        D=_csr(D_vals, D_rows, D_cols, (m2, m2)),
        g=g,
        f_slip=f_slip,
        pinned=pinned,
    )


def flipped_dofs(codes0, codes1, pinned0, pinned1):
    """Multiplier dofs whose rows and columns in the blocks above can differ
    between the state codes ``codes0`` and ``codes1`` on one Dirichlet set.

    A pair's state decides only its own two rows and columns, so these are
    ``2p, 2p+1`` of every pair ``p`` whose state differs, less the dofs
    pinned (identity row and column) under both assignments: the crossing
    pairs' tangential multiplier and both multipliers of a fully fixed pair.
    ``pinned0``/``pinned1`` are the :attr:`ContactBlocks.pinned` masks.
    """
    return np.flatnonzero(np.repeat(codes0 != codes1, 2) & ~(pinned0 & pinned1))


def contact_residuals(blocks, U, lam):
    """Contact contributions: (added to R^u, full R^lambda)."""
    ru = blocks.B_up @ lam + blocks.f_slip
    rlam = blocks.C @ U + blocks.D @ lam + blocks.g
    return ru, rlam
