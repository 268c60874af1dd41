"""Saddle-point assembly, row-norm preconditioning and the active-set loop.

For a fixed contact-state assignment the system is linear, so each Newton
phase converges in a single solve; the nonlinearity lives entirely in the
state updates.  The outer loop alternates converged solves with a global
reclassification of all pairs until the assignment is stable (monolithic
update of displacements and multipliers in one algebraic block).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import (
    PairState,
    StateKind,
    assemble_contact_blocks,
    classify_all,
    contact_residuals,
    flipped_dofs,
    mohr_coulomb_tau_c,
    pair_jumps,
)
from .elasticity import (
    assemble_loads,
    assemble_stiffness,
    dirichlet_constraints,
)


class SingularRowError(ValueError):
    """A Jacobian row is identically zero; carries a dof description."""


class LinearSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-4
    max_newton: int = 50
    max_state_loops: int = 20
    n_load_steps: int = 1

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        for name in ("max_newton", "max_state_loops", "n_load_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class SolutionState:
    """Solution and diagnostics of one load step."""

    U: np.ndarray
    lam: np.ndarray
    states: list
    step: int = 0
    converged: bool = False
    newton_iters: int = 0
    state_loops: int = 0
    residual_norm: float = np.inf
    cycled: bool = False
    message: str = ""


@dataclass
class SaddleSystem:
    """Reduced block-2x2 Jacobian and residual at one iterate.

    Displacement dofs come first (Dirichlet rows/columns eliminated; ``free``
    lists the kept ones), then the multiplier dofs.  The multiplier unknowns
    are carried nondimensionalized as lam/mult_scale with the multiplier
    equations scaled by mult_scale (a symmetric constant scaling by the
    elastic modulus): tractions in Pa against displacements in meters would
    otherwise leave the assembled Jacobian with a condition number around
    1e13 that no row equilibration can repair.  All public quantities stay
    physical; only this system and its increments live in the scaled
    variable.  ``blocks`` are the contact blocks ``J`` was built from, for
    the state assignment ``states``; the Newton loop re-forms ``R`` from them
    after each solve, and the caches compare ``states`` to tell which pairs'
    rows and columns differ between two systems.
    """

    J: sp.csr_matrix
    R: np.ndarray
    free: np.ndarray
    n_disp: int
    n_lam: int
    blocks: object
    mult_scale: float = 1.0
    # residual in physical units (forces / gap integrals); the convergence
    # norm lives here because the scaled multiplier rows of R have a
    # floating-point floor of eps * lambda * mult_scale
    R_phys: np.ndarray | None = None
    states: tuple = ()


def step_data(mesh, bcs, step, n_steps):
    """(F, fixed, fixed_vals, free) of load step ``step`` of ``n_steps``.

    The load vector, the Dirichlet dofs with their values and the free dofs
    stay the same for every state loop of a load step, so they are built
    once per step (see ``BoundaryCondition.scale`` for the load level).
    """
    fixed, fixed_vals = dirichlet_constraints(mesh, bcs, step=step, n_steps=n_steps)
    F = assemble_loads(mesh, bcs, step=step, n_steps=n_steps)
    is_free = np.ones(2 * mesh.n_nodes, dtype=bool)
    is_free[fixed] = False
    return F, fixed, fixed_vals, np.flatnonzero(is_free)


def _reduced_residual(K, blocks, F, U, lam, free, s):
    """(scaled, physical) residual on the free dofs and the multipliers."""
    ru_c, rlam = contact_residuals(blocks, U, lam)
    ru = (K @ U + ru_c - F)[free]
    return np.concatenate([ru, s * rlam]), np.concatenate([ru, rlam])


def build_system(mesh, mat, fric, state, K, F, fixed, free, K_ff=None):
    """Assemble the reduced saddle system for the current states/iterate.

    ``F``, ``fixed`` and ``free`` come from :func:`step_data`; ``K_ff`` is
    ``K[free][:, free]`` (sliced here when not given).  The caller must have
    written the prescribed Dirichlet values into ``state.U`` beforehand
    (then the fixed increments are identically zero and elimination is a
    plain row/column restriction).
    """
    blocks = assemble_contact_blocks(mesh, state.states, fric, fixed_dofs=fixed)

    s = mat.E  # multiplier nondimensionalization (see SaddleSystem docs)
    R, R_phys = _reduced_residual(K, blocks, F, state.U, state.lam, free, s)

    if K_ff is None:
        K_ff = K[free][:, free]
    if mesh.n_pairs:
        J = sp.bmat(
            [
                [K_ff, s * blocks.B_up[free]],
                [s * blocks.C[:, free], (s * s) * blocks.D],
            ],
            format="csr",
        )
    else:
        J = K_ff

    return SaddleSystem(
        J=J,
        R=R,
        free=free,
        n_disp=free.size,
        n_lam=2 * mesh.n_pairs,
        blocks=blocks,
        mult_scale=s,
        R_phys=R_phys,
        states=tuple(state.states),
    )


def _dof_description(sys, row):
    if row < sys.n_disp:
        dof = sys.free[row]
        return f"displacement dof {dof} (node {dof // 2}, {'xy'[dof % 2]})"
    k = row - sys.n_disp
    return f"multiplier dof of pair {k // 2} ({'normal' if k % 2 == 0 else 'tangential'})"


def build_preconditioner(sys):
    """Row 2-norms of the assembled Jacobian, the left scaling of the solve.

    Returns one vector over all rows (displacement rows, then multiplier
    rows); a zero row is an error.
    """
    sq = sys.J.multiply(sys.J)
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise SingularRowError(
            f"zero Jacobian row: {_dof_description(sys, int(zero[0]))}"
        )
    return norms


def _same_bits(a, b):
    """True when two arrays hold bit-identical contents."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    kind = f"u{a.dtype.itemsize}"
    return bool(np.array_equal(a.view(kind), b.view(kind)))


class SystemCache:
    """The parts of the saddle system that outlive one state loop.

    ``K``, its free block ``K[free][:, free]`` (sliced once per distinct
    ``free``), and the last system built with its row norms ``pc``.  A state
    loop whose state assignment and free dofs equal those the last system
    records reuses its contact blocks, ``J`` and ``pc`` and re-forms only
    the residual, so the load steps of a ramp that keep their states
    assemble nothing.  One cache serves one run: mesh, material and
    friction must not change under it.
    """

    def __init__(self, K):
        self.K = K
        self.K_ff = self.sys = self.pc = None

    def _repeats(self, states, free):
        """True when the last system was built for ``states`` and ``free``."""
        return (
            self.sys is not None
            and tuple(states) == self.sys.states
            and _same_bits(free, self.sys.free)
        )

    def system(self, mesh, mat, fric, state, F, fixed, free):
        """The :class:`SaddleSystem` of ``state``, as :func:`build_system`
        returns it."""
        if self._repeats(state.states, free):
            blocks, s = self.sys.blocks, self.sys.mult_scale
            R, R_phys = _reduced_residual(
                self.K, blocks, F, state.U, state.lam, free, s
            )
            return replace(self.sys, R=R, R_phys=R_phys)
        if self.sys is None or not _same_bits(free, self.sys.free):
            self.K_ff = self.K[free][:, free]
        self.sys = build_system(
            mesh, mat, fric, state, self.K, F, fixed, free, K_ff=self.K_ff
        )
        self.pc = None
        return self.sys

    def preconditioner(self):
        """:func:`build_preconditioner` of the last system, built once."""
        if self.pc is None:
            self.pc = build_preconditioner(self.sys)
        return self.pc


def _row_scaled(J, pc):
    """``diag(1/pc) J`` of a CSR ``J`` in CSC, without stored zeros (the
    contact blocks store some); row by row on a copy of ``J``."""
    Jbar = J.copy()
    Jbar.data *= np.repeat(1.0 / pc, np.diff(J.indptr))
    Jbar.eliminate_zeros()
    return Jbar.tocsc()


class _Base:
    """A fresh factorization ``lu`` of ``diag(1/pc) J`` of the system ``sys``
    and the columns of ``J^-1`` computed from it so far: ``cols[:, i] =
    J^-1 e_dofs[i]``."""

    def __init__(self, sys, pc, lu):
        self.sys, self.pc, self.lu = sys, pc, lu
        self.dofs = np.empty(0, dtype=np.int64)
        self.cols = np.empty((sys.J.shape[0], 0))

    def solve(self, y):
        """``J^-1 y`` for a vector or a block of columns."""
        return self.lu.solve(y / (self.pc if y.ndim == 1 else self.pc[:, None]))

    def border(self, sys, pc):
        """A :class:`_Bordered` solver of ``sys.J``, or None when ``sys`` has
        other free dofs than the base, no multiplier dof that a flip since
        the base changed, or more of them than fit the dense-column
        budget."""
        base = self.sys
        if base.states == sys.states or not _same_bits(sys.free, base.free):
            return None
        J, n = sys.J, sys.J.shape[0]
        R = sys.n_disp + flipped_dofs(
            base.states, sys.states, base.blocks.pinned, sys.blocks.pinned
        )
        new = np.setdiff1d(R, self.dofs)
        # dense columns (cached J^-1 columns plus the J_NR solves) may take
        # a quarter of the memory of the factor itself
        budget = self.lu.nnz / 4
        if R.size == 0 or n * (self.dofs.size + new.size) > budget:
            return None
        in_R = np.zeros(n, dtype=bool)
        in_R[R] = True
        JR = J[:, R].tocoo()  # J_NR: its entries in rows outside R
        keep = ~in_R[JR.row]
        nz = np.unique(JR.col[keep])  # positions in R of nonzero J_NR columns
        if n * (self.dofs.size + new.size + nz.size) > budget:
            return None

        if new.size:
            E = np.zeros((n, new.size))
            E[new, np.arange(new.size)] = 1.0
            self.cols = np.hstack([self.cols, self.solve(E)])
            self.dofs = np.concatenate([self.dofs, new])
        order = np.argsort(self.dofs)
        Z = self.cols[:, order[np.searchsorted(self.dofs, R, sorter=order)]]
        J_NR = np.zeros((n, nz.size))
        J_NR[JR.row[keep], np.searchsorted(nz, JR.col[keep])] = JR.data[keep]
        rows = J[R].tocoo()
        out = ~in_R[rows.col]
        J_RN = sp.csr_matrix(
            (rows.data[out], (rows.row[out], rows.col[out])), shape=(R.size, n)
        )
        try:
            return _Bordered(self, pc, R, Z, J_NR, nz, J_RN, J[R][:, R].toarray())
        except np.linalg.LinAlgError:
            return None


class _Bordered:
    """Solves ``diag(1/pc) J x = r`` for a ``J`` that equals the base's
    Jacobian ``J0`` outside the multiplier rows and columns ``R``.

    With ``N`` the other dofs, ``A = J_NN`` is a block of ``J0`` too, and
    ``A^-1 v = y_N - Z_N T^-1 y_R`` with ``y = J0^-1 [v; 0]``, ``Z = J0^-1
    E_R`` and ``T = Z_R``.  ``J x = b`` is then solved by block elimination
    on ``R`` through the Schur complement ``S = J_RR - J_RN A^-1 J_NR``:
    one base solve and a few dense products per call.  Vectors of length
    ``n`` stand for their ``N`` part with zeros at ``R``; ``J_NR`` holds only
    its nonzero columns, at positions ``nz`` of ``R``.
    """

    def __init__(self, base, pc, R, Z, J_NR, nz, J_RN, J_RR):
        self.base, self.pc, self.R, self.Z, self.J_RN = base, pc, R, Z, J_RN
        self.T = Z[R]
        self.nz = nz
        self.W = self._a_inv(base.solve(J_NR))  # A^-1 J_NR
        self.S = J_RR.copy()
        self.S[:, nz] -= J_RN @ self.W
        # np.linalg.solve raises LinAlgError on a singular T (just above) or
        # S (here), so that solve() cannot
        np.linalg.solve(self.S, np.zeros(R.size))

    def _a_inv(self, y):
        """``A^-1 v`` from ``y = J0^-1 v`` (``v`` zero at ``R``)."""
        out = y - self.Z @ np.linalg.solve(self.T, y[self.R])
        out[self.R] = 0.0
        return out

    def solve(self, r):
        b = r * self.pc
        v = b.copy()
        v[self.R] = 0.0
        u = self._a_inv(self.base.solve(v))
        x_R = np.linalg.solve(self.S, b[self.R] - self.J_RN @ u)
        x = u - self.W @ x_R[self.nz]
        x[self.R] = x_R
        return x


class FactorCache:
    """The last fresh LU factorization of a run (the base), reused while the
    Jacobian repeats and bordered when only a few pairs change state.

    A solve is served as is when its ``J`` and its row scaling ``pc`` are
    the same objects as the last ones: :class:`SystemCache` hands back the
    same ``J`` and ``pc`` while the contact-state assignment and the
    Dirichlet set repeat, across Newton iterations and load steps.  A copy
    of ``J``, however equal, is a miss.  On a miss with the base's free
    dofs, the two systems' state records give the set ``R``: the multiplier
    dofs of the pairs whose state flipped since the base, less those pinned
    under both states (see :func:`~fracfem.contact.flipped_dofs`).  Only
    their rows and columns differ, as the displacement block of one run
    and one ``free`` is the same ``K_ff``, so ``J`` is solved by bordering
    the base on ``R`` (see :class:`_Bordered`); a base whose displacement
    block differs after all fails the backward-error contract, which
    :func:`linear_solve` checks on the true ``J``.  The columns
    ``J0^-1 e_k`` the update needs are kept per dof while the base lives, so
    a later loop reuses the earlier loops' columns.  The update is taken
    only while its dense columns (cached, new and one per nonzero column of
    ``J_NR``) times the number of unknowns stay within a quarter of the base
    factor's nonzeros; otherwise the base is released and ``J`` is factored
    afresh, so at most one factorization is alive at a time.  ``J`` and
    ``pc`` are kept by reference: neither may be modified in place after it
    was handed to the cache, or the next solve is served by a stale
    factorization.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.J = self.diag = self.Jbar = self.absJ = self.lu = self.base = None

    @property
    def bordered(self):
        """True when the current solver borders the base."""
        return isinstance(self.lu, _Bordered)

    def _hit(self, J, diag):
        return self.lu is not None and J is self.J and diag is self.diag

    def factor(self, sys, pc):
        """Make ``lu.solve`` solve ``diag(1/pc) J x = r`` for ``J = sys.J``."""
        J = sys.J
        if self._hit(J, pc):
            return
        self.Jbar = self.absJ = None  # free the old ones before the new
        lu = None if self.base is None else self.base.border(sys, pc)
        if lu is None:
            self.clear()
        Jbar = _row_scaled(J, pc)
        if lu is None:
            try:
                # minimum degree on the pattern of A + A^T: the saddle pattern
                # is nearly symmetric, and this ordering needs a third of the
                # fill of SuperLU's default COLAMD
                lu = spla.splu(Jbar, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
            self.base = _Base(sys, pc, lu)
        absJ = Jbar.copy()
        absJ.data = np.abs(absJ.data)
        self.J, self.diag, self.Jbar, self.absJ, self.lu = J, pc, Jbar, absJ, lu


def _refined_solve(cache, rhs):
    """(dx, backward error) of ``Jbar dx = rhs`` with the cache's solver."""
    Jbar, absJ, lu = cache.Jbar, cache.absJ, cache.lu
    dx = lu.solve(rhs)
    # Accuracy control on the row-equilibrated system, where every row is
    # O(1): the backward error |Jbar dx - rhs| / (|rhs| + |Jbar||dx|).
    # Dividing the raw residual by |R| alone is not evaluable below the
    # cancellation floor once a state change makes the solution jump much
    # larger than the residual; iterative refinement with the same
    # factorization recovers the digits a single pass loses.
    rhs_norm = float(np.linalg.norm(rhs))

    def backward_error(v):
        denom = rhs_norm + float(np.linalg.norm(absJ @ np.abs(v)))
        return float(np.linalg.norm(Jbar @ v - rhs)) / denom

    rel = backward_error(dx)
    for _ in range(10):
        if not np.isfinite(rel) or rel <= 2e-16:
            break
        cand = dx - lu.solve(Jbar @ dx - rhs)
        cand_rel = backward_error(cand)
        if not cand_rel < rel:
            break
        dx, rel = cand, cand_rel
    return dx, rel


def linear_solve(sys, pc, cache=None):
    """Solve J dx = -R through the row-scaled system with SuperLU.

    SuperLU is the only linear solver.  It factors ``Jbar = diag(1/pc) J``
    under a minimum-degree ordering of ``Jbar + Jbar^T``, then refines
    iteratively until the backward error on the row-equilibrated system
    reaches 1e-10 (equivalent to the relative-residual contract whenever
    that quantity is evaluable in double precision); a larger error raises
    :class:`LinearSolveError`.  With a :class:`FactorCache` the
    factorization is reused while ``J`` and the row scaling ``pc`` are the
    same objects, and bordered while only a few pairs changed state since
    the last fresh factorization; without one every call factors afresh.  A
    bordered solve that misses the contract is repeated on a fresh
    factorization, so only a fresh factorization raises.
    """
    if float(np.linalg.norm(sys.R)) == 0.0:
        return np.zeros_like(sys.R)
    rhs = -sys.R / pc

    if cache is None:
        cache = FactorCache()
    cache.factor(sys, pc)
    dx, rel = _refined_solve(cache, rhs)
    if cache.bordered and not rel <= 1e-10:
        cache.clear()
        cache.factor(sys, pc)
        dx, rel = _refined_solve(cache, rhs)
    if not np.isfinite(rel) or rel > 1e-10:
        raise LinearSolveError(
            f"direct solve backward error {rel:.3e} exceeds 1e-10 "
            "(structurally singular system?)"
        )
    return dx


def initial_states(mesh):
    """Most-constrained start: everything stick."""
    return [PairState.stick() for _ in mesh.pairs]


def _ranked_flips(mesh, states, proposed, U, lam, fric):
    """Proposed state changes ranked by a dimensionless violation score.

    Returns ``(score, pair id)`` tuples, highest score first, ties by id.
    """
    ids = np.flatnonzero([new != st for st, new in zip(states, proposed)])
    jump_n, _ = pair_jumps(mesh, U)
    trial_gap = (mesh.pair_arrays.gap0 + jump_n)[ids]
    lam_n, lam_t = lam[0::2][ids], lam[1::2][ids]
    lam_ref = np.abs(np.concatenate([lam_n, lam_t])).max(initial=1.0)
    gap_ref = np.abs(trial_gap).max(initial=1e-12)

    to_open = np.array([proposed[i].kind is StateKind.OPEN for i in ids], dtype=bool)
    from_open = np.array([states[i].kind is StateKind.OPEN for i in ids], dtype=bool)
    tau = mohr_coulomb_tau_c(lam_n, fric)
    score = np.where(
        to_open,
        lam_n / lam_ref,
        np.where(from_open, -trial_gap / gap_ref, np.abs(np.abs(lam_t) - tau) / lam_ref),
    )
    order = np.lexsort((ids, -score))
    return list(zip(score[order].tolist(), ids[order].tolist()))


def _cautious_update(mesh, states, proposed, U, lam, fric, seen):
    """Anti-cycling fallback: apply one state change per loop.

    Simultaneous flips of marginal pairs can make the active-set map
    oscillate between assignments; changing one pair at a time, picked by
    violation score and skipping already-visited assignments (a tabu walk),
    restores progress the way Bland's rule does for the simplex method.
    Returns None when every single flip lands on a visited assignment.
    """
    for _, pid in _ranked_flips(mesh, states, proposed, U, lam, fric):
        out = list(states)
        out[pid] = proposed[pid]
        if tuple(out) not in seen:
            return out
    return None


def newton_loop(
    mesh, mat, fric, bcs, cfg, warm=None, step=None, systems=None, cache=None
):
    """Monolithic-updated active-set loop for one load step.

    Inner Newton iterations run until the residual 2-norm drops below the
    tolerance, then all pair states are reclassified against the converged
    iterate; any change re-enters Newton.  Failure modes (iteration caps,
    divergence, state cycling) return a non-converged SolutionState with
    diagnostics, never a silent success.  ``systems`` (a
    :class:`SystemCache`) and ``cache`` (a :class:`FactorCache`) carry the
    last system and factorization over from earlier calls of the same run
    (fresh ones are used when absent).
    """
    n2 = 2 * mesh.n_nodes
    m2 = 2 * mesh.n_pairs
    if warm is not None:
        U = warm.U.copy()
        lam = warm.lam.copy()
        states = list(warm.states)
    else:
        U = np.zeros(n2)
        lam = np.zeros(m2)
        states = initial_states(mesh)

    if systems is None:
        systems = SystemCache(assemble_stiffness(mesh, mat))
    if cache is None:
        cache = FactorCache()
    F, fixed, fixed_vals, free = step_data(mesh, bcs, step, cfg.n_load_steps)
    U[fixed] = fixed_vals

    result = SolutionState(U=U, lam=lam, states=states, step=step or 0)
    seen = set()
    cautious = False

    for loop in range(1, cfg.max_state_loops + 1):
        result.state_loops = loop
        sys = systems.system(mesh, mat, fric, result, F, fixed, free)
        rnorm0 = None
        phase_ok = False
        # After a state change the fresh constraint rows can sit below the
        # (force-scaled) tolerance without being enforced at all, so every
        # re-entered phase performs at least one solve.
        need_solve = loop > 1
        for _ in range(cfg.max_newton + 1):
            rnorm = float(np.linalg.norm(sys.R_phys))
            result.residual_norm = rnorm
            if rnorm0 is None:
                rnorm0 = rnorm
            if rnorm == 0.0 or (rnorm < cfg.newton_tol and not need_solve):
                phase_ok = True
                break
            need_solve = False
            if rnorm > 1e3 * max(rnorm0, cfg.newton_tol):
                result.message = (
                    f"residual diverged within Newton phase "
                    f"({rnorm0:.3e} -> {rnorm:.3e})"
                )
                return result
            try:
                dx = linear_solve(sys, systems.preconditioner(), cache=cache)
            except (SingularRowError, LinearSolveError) as exc:
                result.message = str(exc)
                return result
            U[free] += dx[: sys.n_disp]
            lam += sys.mult_scale * dx[sys.n_disp :]
            lam[sys.blocks.pinned] = 0.0  # identity rows solve to exactly 0
            result.newton_iters += 1
            sys.R, sys.R_phys = _reduced_residual(
                systems.K, sys.blocks, F, U, lam, free, sys.mult_scale
            )
        if not phase_ok:
            result.message = f"max_newton={cfg.max_newton} exceeded"
            return result

        proposal = classify_all(mesh, states, U, lam, fric)
        if proposal == states:
            result.converged = True
            return result
        seen.add(tuple(states))
        if not cautious:
            new_states = proposal
            if tuple(new_states) in seen:
                cautious = True  # revisit: fall back to one flip per loop
        if cautious:
            new_states = _cautious_update(
                mesh, states, proposal, U, lam, fric, seen
            )
            if new_states is None:
                result.cycled = True
                result.message = "active-set cycling detected"
                return result
        states = new_states
        result.states = states

    result.message = f"max_state_loops={cfg.max_state_loops} exceeded"
    return result


def run_load_steps(mesh, mat, fric, bcs, cfg):
    """Sequential proportional load steps, each warm-started from the last.

    One :class:`SystemCache` and one :class:`FactorCache` span all steps, so
    a step that keeps the previous step's state assignment reuses its
    system and its factorization.
    """
    systems = SystemCache(assemble_stiffness(mesh, mat))
    cache = FactorCache()
    results = []
    warm = None
    for step in range(cfg.n_load_steps):
        res = newton_loop(
            mesh, mat, fric, bcs, cfg, warm=warm, step=step, systems=systems,
            cache=cache,
        )
        res.step = step
        results.append(res)
        if not res.converged:
            res.message = f"step {step}: {res.message}"
            break
        warm = res
    return results


def reaction_forces(mesh, mat, fric, bcs, result, step=None, K=None, n_steps=1):
    """Residual at the Dirichlet dofs = negated support reactions."""
    if K is None:
        K = assemble_stiffness(mesh, mat)
    F, fixed, _, _ = step_data(mesh, bcs, step, n_steps)
    blocks = assemble_contact_blocks(mesh, result.states, fric, fixed_dofs=fixed)
    ru_c, _ = contact_residuals(blocks, result.U, result.lam)
    return fixed, (K @ result.U + ru_c - F)[fixed]


def wall_timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
