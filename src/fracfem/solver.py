"""Saddle-point assembly, row-norm preconditioning and the active-set loop.

For a fixed contact-state assignment the system is linear, so each state
loop makes a single solve; the nonlinearity lives entirely in the state
updates.  The loop alternates that solve with a global reclassification of
all pairs until the assignment is stable (monolithic update of
displacements and multipliers in one algebraic block).
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

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
    index_dtype,
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
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(
                f"newton_tol must be positive and finite, got {self.newton_tol}"
            )
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
    """Reduced block-2x2 Jacobian of one contact-state assignment.

    Displacement dofs come first (Dirichlet rows/columns eliminated; ``free``
    lists the kept ones), then the multiplier dofs.  The multiplier unknowns
    are carried nondimensionalized as lam/mult_scale with the multiplier
    equations scaled by mult_scale (a symmetric constant scaling by the
    elastic modulus): tractions in Pa against displacements in meters would
    otherwise leave the assembled Jacobian with a condition number around
    1e13 that no row equilibration can repair.  All public quantities stay
    physical, the residual included (:meth:`SystemCache.residual`); only
    this system, the right-hand side and the increments live in the scaled
    variable.  ``blocks`` are the contact blocks ``J`` is built from, for
    the state codes ``codes`` (a copy of the iterate's own);
    :func:`newton_loop` forms each residual from them, and
    :class:`SystemCache` compares ``codes`` to tell which pairs' rows and
    columns differ between two systems.  A system holds no residual: the
    matrix belongs to the assignment, the residual to the iterate.
    :func:`build_system` returns ``J`` in CSC, the form SuperLU factors.  A
    :class:`SystemCache` turns that very matrix into ``Jbar = diag(1/pc) J``
    (``pc`` its row norms, :func:`build_preconditioner`) when it makes the
    system's solver, so a system it built holds None there from then on; a
    system it borders holds None from the start, as its ``J`` is never
    formed (:class:`_ScaledSaddle`).  A system assembled by hand may give a
    CSR ``J``.
    """

    J: sp.csc_matrix | sp.csr_matrix | None
    free: np.ndarray
    blocks: object
    mult_scale: float = 1.0
    codes: np.ndarray | None = None


def step_data(mesh, bcs, step, n_steps):
    """(F, fixed, fixed_vals, free) of load step ``step`` of ``n_steps``.

    The load vector, the Dirichlet dofs with their values and the free dofs
    stay the same for every state loop of a load step, so they are built
    once per step (see ``BoundaryCondition.scale`` for the load level).
    ``free`` is sorted, in the index dtype of the stiffness
    (:func:`index_dtype`).
    """
    fixed, fixed_vals = dirichlet_constraints(mesh, bcs, step=step, n_steps=n_steps)
    F = assemble_loads(mesh, bcs, step=step, n_steps=n_steps)
    n = 2 * mesh.n_nodes
    is_free = np.ones(n, dtype=bool)
    is_free[fixed] = False
    return F, fixed, fixed_vals, np.arange(n, dtype=index_dtype(n))[is_free]


def _contact_entries(blocks, free, s):
    """``G = [[0, s B_up[free]], [s C[:, free], s² D]]`` in CSR: every entry
    of the saddle matrix ``J`` outside its displacement block, with the
    multipliers scaled by ``s`` (see :class:`SaddleSystem`)."""
    return sp.bmat([
        [None, s * blocks.B_up[free]], [s * blocks.C[:, free], (s * s) * blocks.D]
    ], format="csr")


def _indptr(lengths, dtype):
    """The ``indptr`` of rows of the given ``lengths``."""
    indptr = np.zeros(lengths.size + 1, dtype=dtype)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _saddle_matrix(K, free, G):
    """``J = [[K_ff, s B_up[free]], [s C[:, free], s² D]]`` in CSC, the form
    SuperLU factors, with ``K_ff`` the free block of the symmetric stiffness
    whose upper triangle ``K`` holds and ``G`` the contact entries
    (:func:`_contact_entries`) of the free dofs ``free``.  ``J`` holds bit
    for bit what ``sp.bmat`` of the four blocks gives, converted to CSC, and
    is ``K_ff`` itself on a mesh without pairs.  The full stiffness
    (:func:`full_stiffness`) lives only until pass 1 has read it.

    Pass 1 eliminates the Dirichlet dofs.  One keep-mask over K's entries
    marks the free rows and free columns, ``data`` and ``indices`` are
    gathered once, and the kept columns are renumbered by the count of
    fixed dofs below each.  ``K_ff`` is exactly symmetric, so its rows are
    its columns.  Pass 2 appends to each the same column of ``G``, which
    holds only multiplier rows there, with one ``np.insert`` per array; a
    multiplier column is ``G``'s alone.  Besides ``J``, only the full
    stiffness and ``G``'s CSC copy are formed as sparse matrices.
    """
    K = full_stiffness(K)
    is_free = np.zeros(K.shape[0], dtype=bool)
    is_free[free] = True
    keep = is_free[K.indices]
    keep &= np.repeat(is_free, np.diff(K.indptr))
    counts = np.diff(_indptr(keep, K.indices.dtype)[K.indptr])[is_free]
    indices = K.indices[keep]
    indices -= np.cumsum(~is_free, dtype=indices.dtype)[indices]
    data = K.data[keep]
    del K, keep

    G = G.tocsc()
    g_counts = np.diff(G.indptr)
    counts = np.concatenate([counts, np.zeros(g_counts.size - counts.size, counts.dtype)])
    at = np.repeat(np.cumsum(counts), g_counts)
    data = np.insert(data, at, G.data)
    indices = np.insert(indices, at, G.indices)
    return sp.csc_matrix(
        (data, indices, _indptr(counts + g_counts, indices.dtype)), shape=G.shape
    )


def build_system(mesh, mat, fric, codes, K, fixed, free, blocks=None):
    """Assemble the reduced saddle system of the state codes ``codes``.

    ``K`` is the stiffness's upper triangle (:func:`assemble_stiffness`);
    ``fixed`` and ``free`` come from :func:`step_data`; ``blocks`` are the
    contact blocks of ``codes`` on ``fixed`` (built here when not given).
    ``J`` is formed once, in CSC, straight from the arrays of ``K`` and the
    blocks' contact entries (:func:`_saddle_matrix`), so K's free block
    exists only inside it.  The system holds no residual
    (:meth:`SystemCache.residual` forms it).
    """
    if blocks is None:
        blocks = assemble_contact_blocks(mesh, codes, fric, fixed_dofs=fixed)
    s = mat.E  # multiplier nondimensionalization (see SaddleSystem docs)
    J = _saddle_matrix(K, free, _contact_entries(blocks, free, s))
    return SaddleSystem(J=J, free=free, blocks=blocks, mult_scale=s,
                        codes=codes.copy())


def _dof_description(sys, row):
    n_disp = sys.free.size
    if row < n_disp:
        dof = sys.free[row]
        return f"displacement dof {dof} (node {dof // 2}, {'xy'[dof % 2]})"
    k = row - n_disp
    return f"multiplier dof of pair {k // 2} ({'normal' if k % 2 == 0 else 'tangential'})"


def _checked_norms(sys, sums, rows=None):
    """The square roots of the row sums of squares ``sums`` of the rows
    ``rows`` (all rows when None) of ``sys``'s Jacobian; a zero row is a
    SingularRowError that names its dof."""
    norms = np.sqrt(sums)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        row = zero[0] if rows is None else rows[zero[0]]
        raise SingularRowError(f"zero Jacobian row: {_dof_description(sys, int(row))}")
    return norms


def build_preconditioner(sys):
    """Row 2-norms of the assembled Jacobian, the left scaling of the solve.

    Returns one vector over all rows (displacement rows, then multiplier
    rows); a zero row is an error.  The squares of each row are summed in
    column order, from the arrays of ``J`` in CSC (a CSR ``J`` assembled by
    hand is converted first), as the product of the CSC matrix of the
    squares, on J's own index arrays, with a vector of ones: no ``J∘J`` and
    no copy of the indices is formed.  A row that stores only zeros, or
    values whose squares underflow, is a zero row.
    """
    J = sys.J.tocsc()
    squares = sp.csc_matrix((J.data * J.data, J.indices, J.indptr), shape=J.shape)
    return _checked_norms(sys, squares @ np.ones(J.shape[1]))


def _same_bits(a, b):
    """True when two arrays hold bit-identical contents."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    kind = f"u{a.dtype.itemsize}"
    return bool(np.array_equal(a.view(kind), b.view(kind)))


def _scale_rows(J, pc):
    """``J``, a CSC matrix, turned into ``Jbar = diag(1/pc) J`` in place."""
    J.data *= (1.0 / pc)[J.indices]
    return J


def _signs(A):
    """The sign of each stored value of ``A``, +1 or -1 as ``int8``: one
    byte per entry, where a copy of the values takes eight."""
    signs = np.signbit(A.data).view(np.int8)
    signs *= -2
    signs += 1
    return signs


@contextmanager
def _abs_values(A, signs):
    """``A`` with its stored values made nonnegative in place by their
    ``signs`` (:func:`_signs`) inside the block and restored after it.
    Multiplying by -1 is exact, so the values inside have the bits of
    ``|A|``'s and those restored ``A``'s (for every value but a NaN, whose
    sign a product keeps)."""
    np.multiply(A.data, signs, out=A.data)
    try:
        yield A
    finally:
        np.multiply(A.data, signs, out=A.data)


def _abs_product(Jbar, v, signs):
    """``|Jbar| v`` with no copy of ``Jbar``'s values (:func:`_abs_values`):
    the bits of the product with a copy of ``|Jbar|``."""
    with _abs_values(Jbar, signs):
        return Jbar @ v


def _splu(Jbar):
    """A fresh SuperLU factorization of ``Jbar``."""
    try:
        # minimum degree on the pattern of A + A^T: the saddle pattern is
        # nearly symmetric, and this ordering needs a third of the fill of
        # SuperLU's default COLAMD
        return spla.splu(Jbar, permc_spec="MMD_AT_PLUS_A", panel_size=PANEL_SIZE)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc


def linear_solve(Jbar, lu, rhs):
    """``dx`` of ``Jbar dx = rhs`` with the solver ``lu``, refined until its
    backward error reaches 1e-10, else a LinearSolveError.  ``Jbar =
    diag(1/pc) J`` is a CSC matrix or a :class:`_ScaledSaddle`, and ``lu``
    its fresh factorization (:func:`_splu`) or a :class:`_Bordered` solver:
    every solve of a run is refined here (:meth:`SystemCache.solve`)."""
    dx = lu.solve(rhs)
    # Accuracy control on the row-equilibrated system, where every row is
    # O(1): the backward error |Jbar dx - rhs| / (|rhs| + |Jbar||dx|).
    # Dividing the raw residual by |R| alone is not evaluable below the
    # cancellation floor once a state change makes the solution jump much
    # larger than the residual; iterative refinement with the same
    # factorization recovers the digits a single pass loses.
    rhs_norm = _norm(rhs)
    if isinstance(Jbar, _ScaledSaddle):
        abs_product = Jbar.abs_product
    else:
        abs_product = partial(_abs_product, Jbar, signs=_signs(Jbar))

    def backward_error(v):
        denom = rhs_norm + _norm(abs_product(np.abs(v)))
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


class _Base:
    """A fresh factorization ``lu`` of ``diag(1/pc) J``, with the records of
    its system that bordering reads: the state codes ``codes``, the contact
    blocks' ``pinned`` mask and the free dofs ``free``.  It holds no
    ``J``, but it carries the unit columns ``J^-1 e_r`` of its last bordered
    set-up (``carried``, by dof), which the next set-up reuses."""

    def __init__(self, sys, pc, lu):
        self.codes, self.pinned, self.free = sys.codes, sys.blocks.pinned, sys.free
        self.pc, self.lu = pc, lu
        self.carried = {}

    def solve(self, y):
        """``J^-1 y`` for a vector ``y``."""
        return self.lu.solve(y / self.pc)

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

    def unit_columns(self, R):
        """``Z = J^-1 E_R`` as a column-major block.  Column ``k`` is a
        one-column solve of the unit vector at ``R[k]``, formed already
        divided by its row norm as :meth:`solve` would divide it and
        written straight into the block, or the column that the last
        set-up solved for that dof.  The block's columns are carried from
        then on, in place of the last set-up's."""
        Z = np.empty((self.lu.shape[0], R.size), order="F")
        e = np.zeros(Z.shape[0])
        for z, r in zip(Z.T, R.tolist()):
            if r in self.carried:
                z[:] = self.carried[r]
            else:
                e[r] = 1.0 / self.pc[r]
                z[:] = self.lu.solve(e)
                e[r] = 0.0
        self.carried = dict(zip(R.tolist(), Z.T))
        return Z

    def columns(self, B):
        """``J^-1 B`` as a column-major block, for a CSC matrix ``B``
        already divided by the row norms: one one-column solve per column,
        written straight into the block."""
        out = np.empty(B.shape, order="F")
        y = np.zeros(B.shape[0])
        for k, col in enumerate(out.T):
            rows = B.indices[B.indptr[k]:B.indptr[k + 1]]
            y[rows] = B.data[B.indptr[k]:B.indptr[k + 1]]
            col[:] = self.lu.solve(y)
            y[rows] = 0.0
        return out

    def bordered_solver(self, G, pc, R):
        """A :class:`_Bordered` solver, on the dofs ``R`` that :meth:`border`
        gave, of the system whose (unscaled) ``J`` has the rows and columns
        ``R`` of ``G`` (:attr:`_ScaledSaddle.G`, as ``R`` are multiplier
        dofs), or None when the nonzero columns of ``J_NR`` overrun the
        budget or the bordered blocks are singular.

        ``Z = J0^-1 E_R`` (:meth:`unit_columns`) and ``J0^-1 J_NR``
        (:meth:`columns`) are solved one column at a time, each right-hand
        side formed already divided by the base's row norms, and no block of
        right-hand sides is formed: a set-up holds each dense block once,
        beside the columns the base carries."""
        n = G.shape[0]
        in_R = np.zeros(n, dtype=bool)
        in_R[R] = True
        JR = G[:, R].tocoo()  # J_NR: its entries in rows outside R
        keep = ~in_R[JR.row]
        at = JR.row[keep]
        J_NR = sp.csc_matrix(
            (JR.data[keep] / self.pc[at], (at, JR.col[keep])), shape=(n, R.size)
        )
        nz = np.flatnonzero(np.diff(J_NR.indptr))  # positions in R of nonzero J_NR columns
        if self._over_budget(R, nz.size):
            return None
        J_R = G[R]
        rows = J_R.tocoo()
        out = ~in_R[rows.col]
        J_RN = sp.csr_matrix(
            (rows.data[out], (rows.row[out], rows.col[out])), shape=(R.size, n)
        )
        try:
            return _Bordered(self, pc, R, J_NR[:, nz], nz, J_RN, J_R[:, R].toarray())
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
    its nonzero columns, at positions ``nz`` of ``R``, divided by the base's
    row norms.  ``W = A^-1 J_NR`` is formed column by column in the block
    of the base's solves, and ``S`` in place of ``J_RR``.
    """

    def __init__(self, base, pc, R, J_NR, nz, J_RN, J_RR):
        self.base, self.pc, self.R, self.nz, self.J_RN = base, pc, R, nz, J_RN
        self.Z = base.unit_columns(R)
        self.T = self.Z[R]
        self.W = base.columns(J_NR)
        for w in self.W.T:
            self._a_inv(w)
        self.S = J_RR
        self.S[:, nz] -= J_RN @ self.W
        # np.linalg.solve raises LinAlgError on a singular T or S, so that
        # solve() cannot
        for M in (self.T, self.S):
            np.linalg.solve(M, np.zeros(R.size))

    def _a_inv(self, y):
        """``A^-1 v`` from ``y = J0^-1 v`` (``v`` zero at ``R``), in place
        of the vector ``y``."""
        y -= self.Z @ np.linalg.solve(self.T, y[self.R])
        y[self.R] = 0.0
        return y

    def solve(self, r):
        b = r * self.pc
        v = b.copy()
        v[self.R] = 0.0
        u = self._a_inv(self.base.solve(v))
        x_R = np.linalg.solve(self.S, b[self.R] - self.J_RN @ u)
        x = u - self.W @ x_R[self.nz]
        x[self.R] = x_R
        return x


def _stiffness_rows(K, dofs, is_free, free):
    """COO ``(row, column, value)`` of the rows ``dofs`` (sorted) of the
    symmetric stiffness whose upper triangle ``K`` holds, on the free
    columns, numbered as ``J`` numbers them; row ``k`` is ``dofs[k]``'s.
    A row's entries left of its diagonal are its column in ``K``, the rest
    its row."""
    lower = K[:, dofs].tocoo()
    left = lower.row < dofs[lower.col]
    upper = K[dofs].tocoo()
    rows = np.concatenate([lower.col[left], upper.row])
    cols = np.concatenate([lower.row[left], upper.col])
    vals = np.concatenate([lower.data[left], upper.data])
    keep = is_free[cols]
    return rows[keep], np.searchsorted(free, cols[keep]), vals[keep]


class _ScaledSaddle:
    """``Jbar = diag(1/pc) J`` of a saddle system as an operator, with no
    ``J``: its displacement block ``K_ff`` is read from the stiffness's
    upper triangle ``K`` with its ``diagonal`` (:func:`symmetric_product`
    on the displacement part padded to all dofs), and every other entry
    from ``G`` (:func:`_contact_entries`, the very entries
    :func:`_saddle_matrix` puts in ``J``), so ``J``'s multiplier rows and
    columns are ``G``'s.  ``pc`` is set by :meth:`row_norms`.
    ``rows`` are the rows whose entries can differ between two systems on
    ``free``: the free pair dofs' and the multipliers'; every other row is a
    row of ``K_ff`` alone.
    """

    def __init__(self, K, diagonal, blocks, free, s, pair_dofs):
        self.K, self.diagonal, self.free = K, diagonal, free
        self.G = _contact_entries(blocks, free, s)
        self.shape = self.G.shape
        self.signs = _signs(K)
        self.is_free = np.zeros(K.shape[0], dtype=bool)
        self.is_free[free] = True
        dofs = np.unique(pair_dofs)
        self.dofs = dofs[self.is_free[dofs]]
        self.rows = np.concatenate([
            np.searchsorted(free, self.dofs), np.arange(free.size, self.shape[0])
        ])
        self.pc = None

    def row_norms(self, sys, pc):
        """The row norms of ``J`` from ``pc``, those of a system on the same
        free dofs, with ``rows`` summed again; kept as ``pc``.  Each row's
        squares are summed in column order, K's then G's, as
        :func:`build_preconditioner` sums them on the ``J`` that
        :func:`_saddle_matrix` forms, so the norms have its bits.  A zero
        row is a SingularRowError."""
        n = self.shape[0]
        k_rows, k_cols, k_vals = _stiffness_rows(self.K, self.dofs, self.is_free, self.free)
        g = self.G[self.rows].tocoo()
        vals = np.concatenate([k_vals, g.data])
        at = np.concatenate([k_rows, g.row]), np.concatenate([k_cols, g.col])
        squares = sp.csr_matrix((vals * vals, at), shape=(self.rows.size, n))
        norms = _checked_norms(sys, squares @ np.ones(n), self.rows)
        self.pc = pc.copy()
        self.pc[self.rows] = norms
        return self.pc

    def _stiffness_product(self, v, diagonal):
        """``K_ff`` times the displacement part of ``v``."""
        u = np.zeros(self.K.shape[0])
        u[self.free] = v[: self.free.size]
        return symmetric_product(self.K, u, diagonal)[self.free]

    def __matmul__(self, v):
        out = self.G @ v
        out[: self.free.size] += self._stiffness_product(v, self.diagonal)
        out /= self.pc
        return out

    def abs_product(self, v):
        """``|Jbar| v``, with K's values made nonnegative in place for the
        product (:func:`_abs_values`), not copied."""
        out = abs(self.G) @ v
        with _abs_values(self.K, self.signs):
            out[: self.free.size] += self._stiffness_product(v, np.abs(self.diagonal))
        out /= self.pc
        return out


class SystemCache:
    """The saddle systems and factorizations of one run.

    It owns ``K`` (the stiffness's upper triangle, as
    :func:`assemble_stiffness` returns it) with its ``diagonal``, formed
    once and again after each fresh factorization, the rank probe, the last
    system built with its row norms ``pc``, that system's ``Jbar``, the
    solver ``lu`` serving it, and the base, the last fresh factorization
    (:class:`_Base`).  Each system's matrix exists once at most: the CSC
    ``J`` that :func:`build_system` forms becomes its ``Jbar`` in place
    when its solver is made, and the system drops ``J`` then
    (:meth:`_fresh_factor`).  No system holds a residual: the state loop
    forms each one through :meth:`residual`, and :meth:`solve` turns it into
    the right-hand side in place.
    K's free block is not kept: :func:`build_system` forms ``J`` from K's
    arrays once per fresh factorization, and only ``J`` holds it.  Mesh,
    material and friction must not change under it, and :meth:`solve`
    solves only the system that :meth:`system` returned last.

    What serves a solve is decided once, in :meth:`system`.  A state loop
    whose state codes and free dofs repeat the last system's is served that
    very system, with its blocks, ``Jbar``, ``pc`` and solver.  For a
    new assignment, as soon as its contact blocks exist, the last system,
    its ``Jbar`` and its solver are dropped, and the base gives the
    multiplier dofs ``R`` of the pairs that flipped since it
    (:meth:`_Base.border`).  Only their rows and columns differ, as one run
    and one ``free`` share one displacement block ``K[free][:, free]``, so
    ``J`` is solved by bordering the base on ``R`` (:class:`_Bordered`), and
    never formed: the system's ``Jbar`` is a :class:`_ScaledSaddle`, whose
    row norms are the base's but on the rows that contact touches.  When
    the base cannot border it, the base is dropped too, :func:`build_system`
    forms ``J`` and :meth:`solve` factors afresh.  At most one
    factorization is alive at a time.  Every new solver, fresh or bordered,
    has its rank probed once (:meth:`check_rank`).  A bordered solver that
    fails that probe or misses the backward-error contract (a base whose
    displacement block differs after all) is replaced by a fresh
    factorization, of the ``J`` formed then, so only that one raises.
    """

    def __init__(self, K):
        self.K = K
        self.diagonal = K.diagonal()
        self.probe = None
        self.clear()

    def clear(self):
        """Drop every system, matrix and factorization but ``K`` with its
        diagonal and the rank probe: the next system is served as by a new
        cache."""
        self.sys = self.pc = None
        self.Jbar = self.lu = self.base = self.border_dofs = None

    def residual(self, blocks, F, U, lam, free):
        """The residual ``[ru, rlam]`` at ``U`` and ``lam`` in physical
        units (forces on the free dofs, then gap integrals on the
        multipliers) for the contact blocks ``blocks``, on ``K`` and its
        one ``diagonal``: the only place a residual is formed.  Its norm is
        the convergence test's, as the scaled multiplier rows have a
        floating-point floor of eps * lambda * mult_scale, and :meth:`solve`
        turns it into the right-hand side in place.  ``U`` must hold the
        prescribed Dirichlet values, so that the fixed increments are
        identically zero and elimination is a plain row/column
        restriction."""
        ru_c, rlam = contact_residuals(blocks, U, lam)
        ru = (symmetric_product(self.K, U, self.diagonal) + ru_c - F)[free]
        return np.concatenate([ru, rlam])

    def _repeats(self, codes, free):
        """True when the last system was built for ``codes`` and ``free``."""
        return (
            self.sys is not None
            and np.array_equal(codes, self.sys.codes)
            and _same_bits(free, self.sys.free)
        )

    def system(self, mesh, mat, fric, codes, fixed, free):
        """The :class:`SaddleSystem` of the state codes ``codes``, as
        :func:`build_system` returns it, but with no ``J`` when the base
        borders it; the cache's own system when the last one was built for
        ``codes`` and ``free``."""
        if self._repeats(codes, free):
            return self.sys
        blocks = assemble_contact_blocks(mesh, codes, fric, fixed_dofs=fixed)
        # free what the new system cannot use before it is built
        self.sys = self.pc = self.Jbar = self.lu = None
        self.border_dofs = (
            None if self.base is None else self.base.border(codes, blocks.pinned, free)
        )
        if self.border_dofs is None:
            self.base = None
            self.sys = build_system(mesh, mat, fric, codes, self.K, fixed, free,
                                    blocks=blocks)
            return self.sys
        s = mat.E
        self.sys = SaddleSystem(J=None, free=free, blocks=blocks, mult_scale=s,
                                codes=codes.copy())
        self.Jbar = _ScaledSaddle(
            self.K, self.diagonal, blocks, free, s, mesh.pair_arrays.dofs
        )
        return self.sys

    def preconditioner(self):
        """The row norms of the last system, built once: from the base's
        for a bordered system (:meth:`_ScaledSaddle.row_norms`), else
        :func:`build_preconditioner`."""
        if self.pc is None:
            if isinstance(self.Jbar, _ScaledSaddle):
                self.pc = self.Jbar.row_norms(self.sys, self.base.pc)
            else:
                self.pc = build_preconditioner(self.sys)
        return self.pc

    def _factor(self):
        """Make ``lu`` solve ``diag(1/pc) J x = r`` for the last system: the
        base bordered on ``border_dofs``, or else a fresh factorization that
        becomes the base (:meth:`_fresh_factor`); then probe its rank."""
        R = self.border_dofs
        lu = None if R is None else self.base.bordered_solver(self.Jbar.G, self.pc, R)
        self.lu = self._fresh_factor() if lu is None else lu
        self.check_rank()

    def _fresh_factor(self):
        """A fresh factorization of ``Jbar``, which becomes the base.

        The base is dropped first.  A system without ``J`` (a bordered
        one, or one whose ``J`` an earlier factorization consumed) has it
        formed only now; a bordered system's from the contact entries of
        its :class:`_ScaledSaddle`, which it replaces.  ``J`` is scaled
        into ``Jbar`` in place, and the system drops it: no system keeps an
        unscaled ``J`` once its solver exists.  Before the factorization
        the freed heap is handed back (:func:`_release_heap`), so SuperLU's
        factor does not land on the holes that earlier arrays left in the
        heap.  The heap is handed back once more after it, as its freed
        workspace would otherwise stay resident beside the factor while the
        rank probe and the refinement allocate on top of it.  The stiffness
        diagonal is not alive during the factorization either: it is formed
        again once the factorization is done or has failed."""
        self.lu = self.base = None
        J = self.sys.J
        if J is None:
            # a bordered system's contact entries are its operator's
            G = self.Jbar.G if isinstance(self.Jbar, _ScaledSaddle) else None
            self.Jbar = None
            if G is None:
                G = _contact_entries(self.sys.blocks, self.sys.free, self.sys.mult_scale)
            J = _saddle_matrix(self.K, self.sys.free, G)
            del G
        self.sys.J = None
        self.Jbar = _scale_rows(J, self.pc)
        self.diagonal = None
        try:
            _release_heap()
            lu = _splu(self.Jbar)
            _release_heap()
        finally:
            self.diagonal = self.K.diagonal()
        self.base = _Base(self.sys, self.pc, lu)
        return lu

    def solve(self, R):
        """The increment ``dx`` (multipliers scaled, see
        :class:`SaddleSystem`) of ``J dx = -[ru, s rlam]`` for the system
        :meth:`system` returned last and its nonzero physical residual
        ``R = [ru, rlam]`` (:meth:`residual`; ``s`` the system's
        mult_scale), from the solver decided for it, refined by
        :func:`linear_solve` to its 1e-10 backward-error contract; a nearly
        singular ``J`` raises a LinearSolveError too.  ``R`` becomes the
        right-hand side ``-[ru, s rlam]/pc`` in place, so no second vector
        of its size is formed."""
        pc = self.preconditioner()
        rhs = R
        rhs[self.sys.free.size :] *= self.sys.mult_scale
        np.negative(rhs, out=rhs)
        rhs /= pc
        try:
            if self.lu is None:
                self._factor()
            return linear_solve(self.Jbar, self.lu, rhs)
        except LinearSolveError:
            if not isinstance(self.lu, _Bordered):
                raise
        self.lu = self.base = self.border_dofs = None
        self._factor()
        return linear_solve(self.Jbar, self.lu, rhs)

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
    once (it is linear) unless its residual is exactly zero, requires the
    residual 2-norm after that solve to be below ``newton_tol``, then
    reclassifies all pair states against the new iterate; any change starts
    another loop.  Failure modes (a residual left
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
        sys = systems.system(mesh, mat, fric, codes, fixed, free)
        R = systems.residual(sys.blocks, F, U, lam, free)
        rnorm = _norm(R)
        # A residual below the (force-scaled) tolerance can still belong to
        # an unsolved iterate (a load too small for that scale, or fresh
        # constraint rows after a state change), so every loop solves,
        # the first included, unless the residual is exactly zero.
        if rnorm != 0.0:
            try:
                dx = systems.solve(R)  # R becomes the right-hand side
            except (SingularRowError, LinearSolveError) as exc:
                result.residual_norm = rnorm  # of the system that failed
                result.message = str(exc)
                return result
            del R
            U[free] += dx[: free.size]
            lam += sys.mult_scale * dx[free.size :]
            del dx
            lam[sys.blocks.pinned] = 0.0  # identity rows solve to exactly 0
            result.newton_iters += 1
            rnorm = _norm(systems.residual(sys.blocks, F, U, lam, free))
        # the next loop's system is assembled without this one, its
        # increment or its residuals alive
        del sys
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
