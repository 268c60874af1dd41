"""Saddle-point assembly, row-norm preconditioning and the active-set loop.

For a fixed contact-state assignment the system is linear, so each state
loop makes a single solve; the nonlinearity lives entirely in the state
updates.  The loop alternates that solve with a global reclassification of
all pairs until the assignment is stable (monolithic update of
displacements and multipliers in one algebraic block).
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import (
    OPEN,
    assemble_contact_blocks,
    checked_codes,
    classify_all,
    contact_residuals,
    flipped_dofs,
    mohr_coulomb_tau_c,
    pair_jumps,
    pair_states,
)
from .elasticity import (
    assemble_loads,
    assemble_stiffness,
    dirichlet_constraints,
    full_stiffness,
    symmetric_product,
)


# Columns SuperLU factors together as one panel (its default is 20).  On the
# saddle matrices of all three benchmark workloads, a sweep of 4 to 16 gave
# the shortest factorization and the smallest workspace at 4.
PANEL_SIZE = 4

# A solve of a fixed random right-hand side that grows it by more than this
# factor marks a nearly singular system (SystemCache.check_rank).  The rows
# of Jbar are O(1), so the growth bounds its condition number from below:
# it is at most about 3e3 on the presets' systems, and 3e14 or more when
# open or slipping pairs alone hold a block.
SINGULAR_GROWTH = 1e10


def _c_function(name):
    """The C library's function ``name``, or None where it has none."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None


# glibc's malloc_trim(pad): returns the free pages of every heap arena to
# the OS (see _release_heap)
_MALLOC_TRIM = _c_function("malloc_trim")


def _release_heap():
    """Hand the process's free heap pages back to the OS, where the C
    library can (a no-op without ``malloc_trim``).  On its own glibc gives
    back only the top of a heap, so the holes that freed arrays leave below
    it stay resident under whatever is allocated next."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(ctypes.c_size_t(0))


def _norm(x):
    """2-norm of the vector ``x`` without BLAS: a multithreaded BLAS can
    take milliseconds for a vector that a plain reduction sums in
    microseconds."""
    return float(np.sqrt(np.add.reduce(x * x)))


class SingularRowError(ValueError):
    """A Jacobian row is identically zero; carries a dof description."""


class LinearSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-4
    max_state_loops: int = 20
    n_load_steps: int = 1

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        for name in ("max_state_loops", "n_load_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class SolutionState:
    """Solution and diagnostics of one load step; ``codes`` holds one
    ``int8`` contact state code per pair (see :mod:`fracfem.contact`)."""

    U: np.ndarray
    lam: np.ndarray
    codes: np.ndarray
    step: int = 0
    converged: bool = False
    newton_iters: int = 0
    state_loops: int = 0
    residual_norm: float = np.inf
    cycled: bool = False
    message: str = ""
    # a cold start whose open attempt failed and that was run again from
    # all stick; the loop and solve counts then cover both attempts
    restarted: bool = False

    @property
    def states(self):
        """The :class:`~fracfem.contact.PairState` of each pair's code."""
        return pair_states(self.codes)


@dataclass
class SaddleSystem:
    """Reduced block-2x2 Jacobian and residual at the iterate it was built at.

    Displacement dofs come first (Dirichlet rows/columns eliminated; ``free``
    lists the kept ones), then the multiplier dofs.  The multiplier unknowns
    are carried nondimensionalized as lam/mult_scale with the multiplier
    equations scaled by mult_scale (a symmetric constant scaling by the
    elastic modulus): tractions in Pa against displacements in meters would
    otherwise leave the assembled Jacobian with a condition number around
    1e13 that no row equilibration can repair.  All public quantities stay
    physical; only this system and its increments live in the scaled
    variable.  ``blocks`` are the contact blocks ``J`` was built from, for
    the state codes ``codes`` (a copy of the iterate's own);
    :func:`newton_loop` forms the residual after its solve from them, and
    :class:`SystemCache` compares ``codes`` to tell which pairs' rows and
    columns differ between two systems.
    :func:`build_system` returns ``J``; a system built by a
    :class:`SystemCache` holds None there once its fresh factorization
    exists.
    """

    J: sp.csr_matrix | None
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
    codes: np.ndarray | None = None


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
    """(scaled, physical) residual on the free dofs and the multipliers;
    ``K`` is the stiffness's upper triangle (:func:`symmetric_product`)."""
    ru_c, rlam = contact_residuals(blocks, U, lam)
    ru = (symmetric_product(K, U) + ru_c - F)[free]
    return np.concatenate([ru, s * rlam]), np.concatenate([ru, rlam])


def _free_columns(A, is_free, shift, free_rows=False):
    """(data, column indices, row counts) of the entries of CSR ``A`` in
    the free columns, and in the free rows only if ``free_rows``.  Each
    kept column drops by ``shift``, the count of fixed dofs at or below
    each dof, which for a free dof is the count below it."""
    keep = is_free[A.indices]
    counts = _row_sums(keep, A.indptr, dtype=A.indices.dtype)
    if free_rows:
        keep &= np.repeat(is_free, np.diff(A.indptr))
        counts = counts[is_free]
    indices = A.indices[keep]
    indices -= shift[indices]
    return A.data[keep], indices, counts


def _saddle_matrix(K, blocks, free, s):
    """``J = [[K_ff, s B_up[free]], [s C[:, free], s² D]]`` in CSR, with
    ``K_ff`` the free block of the symmetric stiffness whose upper triangle
    ``K`` holds, formed from the arrays of that stiffness and of the contact
    ``blocks``: bit for bit what ``sp.bmat`` of the four blocks gives, and
    ``K_ff`` itself on a mesh without pairs.  The full stiffness
    (:func:`full_stiffness`) lives only until pass 1 has read it.

    Pass 1 eliminates the Dirichlet dofs.  One keep-mask over K's entries
    marks the free rows and free columns, ``data`` and ``indices`` are
    gathered once, and the kept columns are renumbered by the count of
    fixed dofs below each.  Pass 2 inserts each free row's ``s B_up[free]``
    entries at that row's end, then appends the ``[s C[:, free], s² D]``
    rows, with one ``np.insert`` per array.  No sparse matrix but the full
    stiffness and ``J`` is formed: no ``K[free]``, no free block and no
    stacked block row.
    """
    K = full_stiffness(K)
    n_free = free.size
    is_free = np.zeros(K.shape[0], dtype=bool)
    is_free[free] = True
    shift = np.cumsum(~is_free, dtype=K.indices.dtype)
    data, indices, counts = _free_columns(K, is_free, shift, free_rows=True)
    del K

    B, C, D = blocks.B_up, blocks.C, blocks.D
    b_lengths = np.diff(B.indptr)
    b_keep = np.repeat(is_free, b_lengths)
    b_counts = b_lengths[free]
    c_data, c_indices, c_counts = _free_columns(C, is_free, shift)
    d_counts = np.diff(D.indptr)
    # the multiplier rows: each row of C's free columns, then D's row
    at = np.repeat(np.cumsum(c_counts), d_counts)
    lam_data = np.insert(c_data * s, at, D.data * (s * s))
    lam_indices = np.insert(c_indices, at, D.indices + n_free)

    at = np.concatenate([
        np.repeat(np.cumsum(counts), b_counts), np.full(lam_data.size, data.size)
    ])
    data = np.insert(data, at, np.concatenate([B.data[b_keep] * s, lam_data]))
    indices = np.insert(
        indices, at, np.concatenate([B.indices[b_keep] + n_free, lam_indices])
    )
    lengths = np.concatenate([counts + b_counts, c_counts + d_counts])
    indptr = np.zeros(lengths.size + 1, dtype=indices.dtype)
    np.cumsum(lengths, out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(lengths.size,) * 2)


def build_system(mesh, mat, fric, state, K, F, fixed, free, blocks=None):
    """Assemble the reduced saddle system for the current codes/iterate.

    ``K`` is the stiffness's upper triangle (:func:`assemble_stiffness`);
    ``F``, ``fixed`` and ``free`` come from :func:`step_data`; ``blocks``
    are the contact blocks of ``state.codes`` on ``fixed`` (built here when
    not given).  ``J`` is formed straight from the arrays of ``K`` and the
    blocks (:func:`_saddle_matrix`), so K's free block exists only inside
    it.  The caller must have written the prescribed Dirichlet values into
    ``state.U`` beforehand (then the fixed increments are identically zero
    and elimination is a plain row/column restriction).
    """
    if blocks is None:
        blocks = assemble_contact_blocks(mesh, state.codes, fric, fixed_dofs=fixed)

    s = mat.E  # multiplier nondimensionalization (see SaddleSystem docs)
    R, R_phys = _reduced_residual(K, blocks, F, state.U, state.lam, free, s)
    J = _saddle_matrix(K, blocks, free, s)

    return SaddleSystem(
        J=J,
        R=R,
        free=free,
        n_disp=free.size,
        n_lam=2 * mesh.n_pairs,
        blocks=blocks,
        mult_scale=s,
        R_phys=R_phys,
        codes=state.codes.copy(),
    )


def _dof_description(sys, row):
    if row < sys.n_disp:
        dof = sys.free[row]
        return f"displacement dof {dof} (node {dof // 2}, {'xy'[dof % 2]})"
    k = row - sys.n_disp
    return f"multiplier dof of pair {k // 2} ({'normal' if k % 2 == 0 else 'tangential'})"


def _row_sums(values, indptr, dtype=float):
    """Per-row sums of ``values`` laid out by ``indptr``, as SciPy sums CSR
    rows: ``np.add.reduceat`` over each non-empty row, 0 for an empty one."""
    out = np.zeros(indptr.size - 1, dtype=dtype)
    rows = np.flatnonzero(np.diff(indptr))
    out[rows] = np.add.reduceat(values, indptr[rows], dtype=dtype)
    return out


def build_preconditioner(sys):
    """Row 2-norms of the assembled Jacobian, the left scaling of the solve.

    Returns one vector over all rows (displacement rows, then multiplier
    rows); a zero row is an error.  The squares are summed exactly as
    ``J.multiply(J).sum(axis=1)`` sums them, without forming ``J∘J``: row
    by row over the nonzero products in column order (``J`` is canonical
    CSR and stores no zero, as :func:`build_system` builds it).
    """
    J = sys.J
    norms = np.sqrt(_row_sums(J.data * J.data, J.indptr))
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


def _row_scaled(J, pc):
    """``diag(1/pc) J`` of a CSR ``J`` in CSC: one CSC copy of ``J``,
    scaled in place."""
    Jbar = J.tocsc()
    Jbar.data *= (1.0 / pc)[Jbar.indices]
    return Jbar


def _signs(Jbar):
    """The sign of each stored value of ``Jbar``, +1 or -1 as ``int8``: one
    byte per entry, where a copy of the values takes eight."""
    signs = np.signbit(Jbar.data).view(np.int8)
    signs *= -2
    signs += 1
    return signs


def _abs_product(Jbar, v, signs):
    """``|Jbar| v`` with no copy of ``Jbar``'s values: they are multiplied
    in place by their ``signs`` (:func:`_signs`) for the product and back
    after it.  Multiplying by -1 is exact, so both the product and the
    restored values have the bits of the product with ``|Jbar|`` and of
    ``Jbar`` (for every value but a NaN, whose sign a product keeps)."""
    data = Jbar.data
    np.multiply(data, signs, out=data)
    try:
        return Jbar @ v
    finally:
        np.multiply(data, signs, out=data)


def _splu(Jbar):
    """A fresh SuperLU factorization of ``Jbar``."""
    try:
        # minimum degree on the pattern of A + A^T: the saddle pattern is
        # nearly symmetric, and this ordering needs a third of the fill of
        # SuperLU's default COLAMD
        return spla.splu(Jbar, permc_spec="MMD_AT_PLUS_A", panel_size=PANEL_SIZE)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc


def _refined_solve(Jbar, lu, rhs):
    """``dx`` of ``Jbar dx = rhs`` with the solver ``lu``, refined until its
    backward error meets the 1e-10 contract, else a LinearSolveError."""
    dx = lu.solve(rhs)
    # Accuracy control on the row-equilibrated system, where every row is
    # O(1): the backward error |Jbar dx - rhs| / (|rhs| + |Jbar||dx|).
    # Dividing the raw residual by |R| alone is not evaluable below the
    # cancellation floor once a state change makes the solution jump much
    # larger than the residual; iterative refinement with the same
    # factorization recovers the digits a single pass loses.
    rhs_norm = _norm(rhs)
    signs = _signs(Jbar)

    def backward_error(v):
        denom = rhs_norm + _norm(_abs_product(Jbar, np.abs(v), signs))
        return _norm(Jbar @ v - rhs) / denom

    rel = backward_error(dx)
    for _ in range(10):
        if not np.isfinite(rel) or rel <= 2e-16:
            break
        cand = dx - lu.solve(Jbar @ dx - rhs)
        cand_rel = backward_error(cand)
        if not cand_rel < rel:
            break
        dx, rel = cand, cand_rel
    if not rel <= 1e-10:
        raise LinearSolveError(
            f"direct solve backward error {rel:.3e} exceeds 1e-10 "
            "(structurally singular system?)"
        )
    return dx


def linear_solve(sys, pc):
    """Solve J dx = -R through the row-scaled system with a fresh SuperLU
    factorization.

    SuperLU is the only linear solver.  It factors ``Jbar = diag(1/pc) J``
    under a minimum-degree ordering of ``Jbar + Jbar^T``, then refines
    iteratively until the backward error on the row-equilibrated system
    reaches 1e-10 (equivalent to the relative-residual contract whenever
    that quantity is evaluable in double precision); a larger error raises
    :class:`LinearSolveError`.  A run solves through its
    :class:`SystemCache`, which keeps and borders factorizations.
    """
    if _norm(sys.R) == 0.0:
        return np.zeros_like(sys.R)
    rhs = -sys.R / pc
    Jbar = _row_scaled(sys.J, pc)
    lu = _splu(Jbar)
    return _refined_solve(Jbar, lu, rhs)


class _Base:
    """A fresh factorization ``lu`` of ``diag(1/pc) J``, with the records of
    its system that bordering reads: the state codes ``codes``, the contact
    blocks' ``pinned`` mask and the free dofs ``free``.  It holds no
    ``J``."""

    def __init__(self, sys, pc, lu):
        self.codes, self.pinned, self.free = sys.codes, sys.blocks.pinned, sys.free
        self.pc, self.lu = pc, lu

    def solve(self, y):
        """``J^-1 y`` for a vector or a block of columns."""
        return self.lu.solve(y / (self.pc if y.ndim == 1 else self.pc[:, None]))

    def _over_budget(self, R, extra=0):
        """True when the dense columns of a bordered solve on ``R`` (its
        ``J^-1`` columns and ``extra`` ``J_NR`` solves) would take more than
        a quarter of the memory of the factor itself."""
        return self.lu.shape[0] * (R.size + extra) > self.lu.nnz / 4

    def border(self, codes, pinned, free):
        """The dofs ``R`` to border the base on for a system of the state
        codes ``codes`` on the free dofs ``free`` (``pinned`` is its
        contact blocks' mask), or None when that system has other free dofs
        than the base, no multiplier dof that a flip since the base changed,
        or more of them than fit the dense-column budget.  It reads only
        these records, so it can decide before that system's ``J`` exists.
        """
        if np.array_equal(self.codes, codes) or not _same_bits(free, self.free):
            return None
        R = free.size + flipped_dofs(self.codes, codes, self.pinned, pinned)
        if R.size == 0 or self._over_budget(R):
            return None
        return R

    def bordered_solver(self, sys, pc, R):
        """A :class:`_Bordered` solver of ``sys.J`` on the dofs ``R`` that
        :meth:`border` gave, or None when the nonzero columns of ``J_NR``
        overrun the budget or the bordered blocks are singular."""
        J, n = sys.J, sys.J.shape[0]
        in_R = np.zeros(n, dtype=bool)
        in_R[R] = True
        JR = J[:, R].tocoo()  # J_NR: its entries in rows outside R
        keep = ~in_R[JR.row]
        nz = np.unique(JR.col[keep])  # positions in R of nonzero J_NR columns
        if self._over_budget(R, nz.size):
            return None

        E_R = np.zeros((n, R.size))
        E_R[R, np.arange(R.size)] = 1.0
        Z = self.solve(E_R)
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


class SystemCache:
    """The saddle systems and factorizations of one run.

    It owns ``K`` (the stiffness's upper triangle, as
    :func:`assemble_stiffness` returns it), the rank probe, the last system
    built with its row norms ``pc``, that system's ``Jbar``, the solver
    ``lu`` serving it, and the base, the last fresh factorization
    (:class:`_Base`).  A system that is factored afresh drops its ``J``
    first (:meth:`_factor`).  K's free block is not kept:
    :func:`build_system` forms ``J`` from K's arrays once per new
    assignment, and only ``J`` holds it.  Mesh, material and friction must
    not change under it, and :meth:`solve` solves only the system that
    :meth:`system` returned last.

    What serves a solve is decided once, in :meth:`system`.  A state loop
    whose state codes and free dofs repeat the last system's reuses its blocks,
    ``J``, ``pc`` and solver, and only its residual is formed again.  For a
    new assignment, as soon as its contact blocks exist and before its ``J``
    does, the last system, its copies and its solver are dropped, and the
    base gives the multiplier dofs ``R`` of the pairs that flipped since it
    (:meth:`_Base.border`).  Only their rows and columns differ, as one run
    and one ``free`` share one displacement block ``K[free][:, free]``, so
    ``J`` is solved by bordering the base on ``R`` (:class:`_Bordered`);
    when the base cannot border it, the base is dropped too and
    :meth:`solve` factors afresh.  At most one factorization is alive at a
    time.  Every new solver, fresh or bordered, has its rank probed once
    (:meth:`check_rank`).  A bordered solver that fails that probe or misses
    the backward-error contract (a base whose displacement block differs
    after all) is replaced by a fresh factorization, so only that one
    raises.
    """

    def __init__(self, K):
        self.K = K
        self.probe = None
        self.clear()

    def clear(self):
        """Drop every system, copy and factorization but ``K`` and the rank
        probe: the next system is served as by a new cache."""
        self.sys = self.pc = None
        self.Jbar = self.lu = self.base = self.border_dofs = None

    def _repeats(self, codes, free):
        """True when the last system was built for ``codes`` and ``free``."""
        return (
            self.sys is not None
            and np.array_equal(codes, self.sys.codes)
            and _same_bits(free, self.sys.free)
        )

    def system(self, mesh, mat, fric, state, F, fixed, free):
        """The :class:`SaddleSystem` of ``state``, as :func:`build_system`
        returns it."""
        if self._repeats(state.codes, free):
            blocks, s = self.sys.blocks, self.sys.mult_scale
            R, R_phys = _reduced_residual(
                self.K, blocks, F, state.U, state.lam, free, s
            )
            return replace(self.sys, R=R, R_phys=R_phys)
        blocks = assemble_contact_blocks(mesh, state.codes, fric, fixed_dofs=fixed)
        # free what the new system cannot use before its J and row norms
        self.sys = self.pc = self.Jbar = self.lu = None
        self.border_dofs = (
            None if self.base is None
            else self.base.border(state.codes, blocks.pinned, free)
        )
        if self.border_dofs is None:
            self.base = None
        self.sys = build_system(
            mesh, mat, fric, state, self.K, F, fixed, free, blocks=blocks
        )
        return self.sys

    def preconditioner(self):
        """:func:`build_preconditioner` of the last system, built once."""
        if self.pc is None:
            self.pc = build_preconditioner(self.sys)
        return self.pc

    def _factor(self, sys):
        """Make ``lu`` solve ``diag(1/pc) J x = r`` for the last system
        (``sys`` is it or a copy of it with another residual): the base
        bordered on ``border_dofs``, or else a fresh factorization that
        becomes the base; then probe its rank.

        Nothing reads ``J`` once ``Jbar`` exists and no bordering is
        planned, so before a fresh factorization both systems drop ``J``
        and the freed heap is handed back (:func:`_release_heap`): SuperLU's
        factor then lands neither on ``J`` nor on the holes that earlier
        arrays left in the heap.  The heap is handed back once more after
        the factorization, whose freed workspace would otherwise stay
        resident beside the factor while the rank probe and the refinement
        allocate on top of it.  ``Jbar`` is formed once per system, so a
        bordered solver's fallback to a fresh factorization reuses it."""
        R = self.border_dofs
        lu = None if R is None else self.base.bordered_solver(self.sys, self.pc, R)
        if lu is None:
            self.base = None
        if self.Jbar is None:
            self.Jbar = _row_scaled(self.sys.J, self.pc)
        if lu is None:
            self.sys.J = sys.J = None
            _release_heap()
            lu = _splu(self.Jbar)
            _release_heap()
            self.base = _Base(self.sys, self.pc, lu)
        self.lu = lu
        self.check_rank()

    def solve(self, sys):
        """``dx`` of ``J dx = -R`` for ``sys``, the system :meth:`system`
        returned last, as :func:`linear_solve` gives it (to its 1e-10
        backward-error contract) but from the solver decided for it, which
        raises a LinearSolveError on a nearly singular ``J`` too."""
        pc = self.preconditioner()
        if _norm(sys.R) == 0.0:
            return np.zeros_like(sys.R)
        rhs = -sys.R / pc
        try:
            if self.lu is None:
                self._factor(sys)
            return _refined_solve(self.Jbar, self.lu, rhs)
        except LinearSolveError:
            if not isinstance(self.lu, _Bordered):
                raise
        self.lu = self.base = self.border_dofs = None
        self._factor(sys)
        return _refined_solve(self.Jbar, self.lu, rhs)

    def check_rank(self):
        """The growth of a solve of a fixed random right-hand side by the
        live solver (None without one), or a LinearSolveError when it
        exceeds SINGULAR_GROWTH: the solver's ``J`` is nearly singular.  The
        backward-error contract of :meth:`solve` cannot see this, as a
        consistent singular system meets it with an arbitrary null-space
        part (a floating block's rigid motion).  The right-hand side is
        drawn once per system size and kept with its largest magnitude
        (``probe``)."""
        if self.lu is None:
            return None
        n = self.Jbar.shape[0]
        if self.probe is None or self.probe[0].size != n:
            b = np.random.default_rng(0).standard_normal(n)
            self.probe = b, float(np.abs(b).max())
        b, b_max = self.probe
        x = self.lu.solve(b)
        growth = float(np.abs(x, out=x).max() / b_max)
        if not growth <= SINGULAR_GROWTH:
            raise LinearSolveError(
                f"nearly singular system: a probe solve grew {growth:.1e}-fold "
                "(a block held by its fractures alone?)"
            )
        return growth


def _ranked_flips(mesh, codes, proposed, U, lam, fric):
    """Proposed state changes ranked by a dimensionless violation score.

    Returns ``(score, pair id)`` tuples, highest score first, ties by id.
    """
    ids = np.flatnonzero(codes != proposed)
    jump_n, _ = pair_jumps(mesh, U)
    trial_gap = (mesh.pair_arrays.gap0 + jump_n)[ids]
    lam_n, lam_t = lam[0::2][ids], lam[1::2][ids]
    lam_ref = np.abs(np.concatenate([lam_n, lam_t])).max(initial=1.0)
    gap_ref = np.abs(trial_gap).max(initial=1e-12)

    to_open = proposed[ids] == OPEN
    from_open = codes[ids] == OPEN
    tau = mohr_coulomb_tau_c(lam_n, fric)
    score = np.where(
        to_open,
        lam_n / lam_ref,
        np.where(from_open, -trial_gap / gap_ref, np.abs(np.abs(lam_t) - tau) / lam_ref),
    )
    order = np.lexsort((ids, -score))
    return list(zip(score[order].tolist(), ids[order].tolist()))


def _cautious_update(mesh, codes, proposed, U, lam, fric, seen):
    """Anti-cycling fallback: apply one state change per loop.

    Simultaneous flips of marginal pairs can make the active-set map
    oscillate between assignments; changing one pair at a time, picked by
    violation score and skipping already-visited assignments (a tabu walk),
    restores progress the way Bland's rule does for the simplex method.
    ``seen`` holds the ``bytes`` of the visited codes.  Returns None when
    every single flip lands on a visited assignment.
    """
    for _, pid in _ranked_flips(mesh, codes, proposed, U, lam, fric):
        out = codes.copy()
        out[pid] = proposed[pid]
        if out.tobytes() not in seen:
            return out
    return None


def newton_loop(mesh, mat, fric, bcs, cfg, warm=None, step=None, systems=None):
    """Monolithic-updated active-set loop for one load step.

    Each state loop solves the saddle system of the current state assignment
    once (it is linear), requires the residual 2-norm after that solve to be
    below ``newton_tol``, then reclassifies all pair states against the new
    iterate; any change starts another loop.  Failure modes (a residual left
    above the tolerance, a failed solve, the loop cap, state cycling) return
    a non-converged SolutionState with diagnostics, never a silent success.
    A nearly singular system is a failed solve in every attempt (a block
    that its fractures alone hold floats; see :meth:`SystemCache.check_rank`).

    A warm start keeps ``warm``'s iterate and state codes (a code outside
    -1, 0, 1 and ``OPEN`` is a ValueError).  A cold start begins
    with every pair open, so a fracture that opens, or a contact that one
    solve settles, costs a single factorization.  The open attempt gives up
    instead of walking: at a revisited assignment, or when a slipping pair
    reverses.  A slip pair never returns to stick, so a pair that closes
    from open at zero cohesion slips, and a reversal marks one that
    friction holds, which that attempt cannot reach.  When the
    open attempt fails for any reason on a mesh with pairs, the step is run
    once more from all stick on a cleared ``systems``, exactly as a run
    started there, and the result is marked ``restarted``.  If that attempt
    fails too, its message says that the open start failed first.
    ``systems`` (a :class:`SystemCache`) carries the last system and
    factorization over from earlier calls of the same run (a fresh one is
    used when absent).
    """
    if systems is None:
        systems = SystemCache(assemble_stiffness(mesh, mat))
    data = step_data(mesh, bcs, step, cfg.n_load_steps)
    if warm is not None:
        codes = np.array(checked_codes(warm.codes, mesh.n_pairs))
        return _active_set(mesh, mat, fric, cfg, systems, data, warm.U.copy(),
                           warm.lam.copy(), codes, step)
    n2, m2 = 2 * mesh.n_nodes, 2 * mesh.n_pairs
    first = _active_set(mesh, mat, fric, cfg, systems, data, np.zeros(n2),
                        np.zeros(m2), np.full(mesh.n_pairs, OPEN, np.int8), step,
                        open_start=True)
    if first.converged or not mesh.n_pairs:
        return first
    systems.clear()
    res = _active_set(mesh, mat, fric, cfg, systems, data, np.zeros(n2),
                      np.zeros(m2), np.zeros(mesh.n_pairs, np.int8), step)
    res.restarted = True
    res.state_loops += first.state_loops
    res.newton_iters += first.newton_iters
    if not res.converged:
        res.message = (
            f"{res.message} (restarted from all stick after the open start "
            f"failed: {first.message})"
        )
    return res


def _active_set(mesh, mat, fric, cfg, systems, data, U, lam, codes, step,
                open_start=False):
    """The state loops of one attempt at a load step from ``U``, ``lam`` and
    the ``int8`` state ``codes`` (owned by the attempt), with ``data`` from
    :func:`step_data`; ``open_start`` marks a cold step's open attempt,
    which never enters the tabu walk.  See
    :func:`newton_loop`."""
    F, fixed, fixed_vals, free = data
    U[fixed] = fixed_vals

    result = SolutionState(U=U, lam=lam, codes=codes, step=step or 0)
    seen = set()
    cautious = False

    for loop in range(1, cfg.max_state_loops + 1):
        result.state_loops = loop
        sys = systems.system(mesh, mat, fric, result, F, fixed, free)
        rnorm = _norm(sys.R_phys)
        # After a state change the fresh constraint rows can sit below the
        # (force-scaled) tolerance without being enforced at all, so every
        # loop after the first solves unless the residual is exactly zero.
        if not (rnorm == 0.0 or (loop == 1 and rnorm < cfg.newton_tol)):
            try:
                dx = systems.solve(sys)
            except (SingularRowError, LinearSolveError) as exc:
                result.residual_norm = rnorm  # of the system that failed
                result.message = str(exc)
                return result
            U[free] += dx[: sys.n_disp]
            lam += sys.mult_scale * dx[sys.n_disp :]
            lam[sys.blocks.pinned] = 0.0  # identity rows solve to exactly 0
            result.newton_iters += 1
            _, R_phys = _reduced_residual(
                systems.K, sys.blocks, F, U, lam, free, sys.mult_scale
            )
            rnorm = _norm(R_phys)
        del sys  # the next loop's system is assembled without this one alive
        result.residual_norm = rnorm
        if not rnorm < cfg.newton_tol:
            result.message = (
                f"residual {rnorm:.3e} not below newton_tol={cfg.newton_tol:g} "
                "after the state loop's solve"
            )
            return result

        proposal = classify_all(mesh, codes, U, lam, fric)
        if np.array_equal(proposal, codes):
            result.converged = True
            return result
        seen.add(codes.tobytes())
        if open_start and proposal.tobytes() in seen:
            result.cycled = True
            result.message = "the open start revisits a state assignment"
            return result
        if open_start and np.any(codes * proposal == -1):
            result.message = "a slipping pair reverses under the open start"
            return result
        if not cautious:
            new_codes = proposal
            if new_codes.tobytes() in seen:
                cautious = True  # revisit: fall back to one flip per loop
        if cautious:
            new_codes = _cautious_update(mesh, codes, proposal, U, lam, fric, seen)
            if new_codes is None:
                result.cycled = True
                result.message = "active-set cycling detected"
                return result
        codes = result.codes = new_codes

    result.message = f"max_state_loops={cfg.max_state_loops} exceeded"
    return result


def run_load_steps(mesh, mat, fric, bcs, cfg):
    """Sequential proportional load steps, each warm-started from the last.

    One :class:`SystemCache` spans all steps, so a step that keeps the
    previous step's state assignment reuses its system and its
    factorization.
    """
    systems = SystemCache(assemble_stiffness(mesh, mat))
    results = []
    warm = None
    for step in range(cfg.n_load_steps):
        res = newton_loop(
            mesh, mat, fric, bcs, cfg, warm=warm, step=step, systems=systems
        )
        res.step = step
        results.append(res)
        if not res.converged:
            res.message = f"step {step}: {res.message}"
            break
        warm = res
    return results


def wall_timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
