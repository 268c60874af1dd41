"""Plane-strain linear elasticity on 3-node triangles.

Constant-strain triangles with single-point quadrature (exact for linear
shape functions).  Dirichlet conditions are handled by row/column
elimination on the assembled saddle system, never by penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import ConfigError, select_boundary_edges


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic elastic constants (SI units)."""

    E: float
    nu: float

    def __post_init__(self):
        if self.E <= 0.0:
            raise ConfigError(f"material.E must be positive, got {self.E}")
        if not 0.0 <= self.nu < 0.5:
            raise ConfigError(f"material.nu must be in [0, 0.5), got {self.nu}")

    @property
    def G(self):
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass
class BoundaryCondition:
    """One boundary condition.

    kind:
      - "dirichlet": prescribe displacement components (ux/uy, None = free)
        on the nodes of the targeted boundary edges or on explicit node ids.
      - "neumann": constant traction vector integrated over the targeted
        boundary edges.
      - "fracture_pressure": pressure applied as +-p*n on the plus/minus
        faces of one fracture.

    ``ramp`` holds per-load-step scale factors; when absent the run ramps
    proportionally, step k of n at (k+1)/n.
    """

    kind: str
    side: str | None = None
    nodes: list | None = None
    fracture: int | None = None
    ux: float | None = None
    uy: float | None = None
    traction: list | None = None
    pressure: float | None = None
    ramp: list | None = None

    def __post_init__(self):
        if self.ramp is not None and len(self.ramp) == 0:
            raise ConfigError("ramp: needs at least one load factor")

    def scale(self, step, n_steps=1):
        """Load factor of step ``step`` (0-based) of ``n_steps``; steps past
        the end hold the last factor, and ``step=None`` means full load."""
        if step is None:
            return 1.0
        if self.ramp is None:
            return min(step + 1, n_steps) / n_steps
        if step >= len(self.ramp):
            return self.ramp[-1]
        return self.ramp[step]


def plane_strain_D(mat):
    """3x3 plane-strain elastic matrix for engineering shear strain."""
    E, nu = mat.E, mat.nu
    f = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return f * np.array(
        [
            [1.0 - nu, nu, 0.0],
            [nu, 1.0 - nu, 0.0],
            [0.0, 0.0, 0.5 * (1.0 - 2.0 * nu)],
        ]
    )


def _gradients(mesh):
    """Shape-function gradients ``b = dN/dx``, ``c = dN/dy`` of all elements,
    (3, m) with the element index last, and the element areas."""
    x = mesh.nodes[mesh.elements]  # (m, 3, 2)
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    areas = 0.5 * (
        (x1[:, 0] - x0[:, 0]) * (x2[:, 1] - x0[:, 1])
        - (x2[:, 0] - x0[:, 0]) * (x1[:, 1] - x0[:, 1])
    )
    if np.any(areas <= 0.0):
        bad = int(np.argmax(areas <= 0.0))
        raise ValueError(f"element {bad} is degenerate (area {areas[bad]})")
    b = np.stack([x1[:, 1] - x2[:, 1], x2[:, 1] - x0[:, 1], x0[:, 1] - x1[:, 1]])
    c = np.stack([x2[:, 0] - x1[:, 0], x0[:, 0] - x2[:, 0], x1[:, 0] - x0[:, 0]])
    two_a = 2.0 * areas
    return b / two_a, c / two_a, areas


def _b_matrices(mesh):
    """Strain-displacement matrices (m, 3, 6) and areas for all elements."""
    b, c, areas = _gradients(mesh)
    B = np.zeros((mesh.n_elements, 3, 6))
    B[:, 0, 0::2] = b.T
    B[:, 1, 1::2] = c.T
    B[:, 2, 0::2] = c.T
    B[:, 2, 1::2] = b.T
    return B, areas


# local (row, column) of the 21 entries of an element's 6x6 upper triangle,
# row by row, and the flat index in the 6x6 block of each and of its mirror
_P, _Q = np.triu_indices(6)
_UPPER, _MIRROR = 6 * _P + _Q, 6 * _Q + _P


def assemble_stiffness(mesh, mat):
    """Upper triangle (with the diagonal) of the global sparse stiffness,
    2 dofs per node, deterministic scatter-add.

    K is symmetric, so only its entries with row <= column are stored (see
    :func:`symmetric_product`): of each element's 36 entries, the 21 whose
    global row is at most their global column, in the element's row-major
    order.  On and above the diagonal, K is what the full scatter-add
    stores, and below it K is its transpose, exactly.
    """
    D = plane_strain_D(mat)
    b, c, areas = _gradients(mesh)
    m, n = mesh.n_elements, 2 * mesh.n_nodes
    # B^T D B as four 3x3 blocks (x/y rows, x/y columns): each entry is the
    # sum of the two nonzero terms of einsum("eki,kl,elj->eij", B, D, B),
    # with its operand order and in its order (k outer, l inner).  The
    # blocks are formed with the element index last (long inner loops) and
    # written through a transposed view of the element-major ``Ke``.
    bi, ci = b[:, None, :], c[:, None, :]
    bj, cj = b[None, :, :], c[None, :, :]
    Ke = np.empty((m, 3, 2, 3, 2))  # (element, node, x/y, node, x/y)
    blocks = Ke.transpose(2, 4, 1, 3, 0)  # (x/y, x/y, node, node, element)
    blocks[0, 0] = ((bi * D[0, 0]) * bj + (ci * D[2, 2]) * cj) * areas
    blocks[0, 1] = ((bi * D[0, 1]) * cj + (ci * D[2, 2]) * bj) * areas
    blocks[1, 0] = ((ci * D[1, 0]) * bj + (bi * D[2, 2]) * cj) * areas
    blocks[1, 1] = ((ci * D[1, 1]) * cj + (bi * D[2, 2]) * bj) * areas

    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    dofs = np.empty((m, 3, 2), dtype=index)
    dofs[:, :, 0] = 2 * mesh.elements
    dofs[:, :, 1] = 2 * mesh.elements + 1
    dofs = dofs.reshape(m, 6)
    # each slot (p, q) of the local upper triangle keeps Ke[p, q], or
    # Ke[q, p] where p's global dof is the larger: per global row, the
    # element's entries then come in local column order, as in the full Ke
    dp, dq = dofs.take(_P, axis=1), dofs.take(_Q, axis=1)
    at = np.where(dp > dq, _MIRROR, _UPPER)
    at += np.arange(0, 36 * m, 36)[:, None]
    vals = Ke.reshape(-1).take(at).ravel()
    del Ke, blocks, at
    rows, cols = np.minimum(dp, dq).ravel(), np.maximum(dp, dq).ravel()
    del dp, dq
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    K.eliminate_zeros()  # exact zeros (e.g. cancelled shear terms) add fill
    return K


def full_stiffness(K):
    """CSR of the symmetric stiffness of which ``K`` stores the upper
    triangle (:func:`assemble_stiffness`): each entry above the diagonal is
    mirrored below it with the same bits.  The two triangles share no
    entry, so the sum adds nothing to any value; like SciPy's every sum, it
    drops stored zeros, of which :func:`assemble_stiffness` keeps none."""
    return K + sp.triu(K, 1).T


def symmetric_product(K, u, diagonal=None):
    """``K u`` for the symmetric stiffness of which ``K`` stores the upper
    triangle (:func:`assemble_stiffness`); ``diagonal`` is
    ``K.diagonal()``, formed here when not given."""
    if diagonal is None:
        diagonal = K.diagonal()
    return K @ u + K.T @ u - diagonal * u


def element_stresses(mesh, mat, U):
    """(m, 3) per-element stresses (sxx, syy, sxy) from nodal displacements."""
    D = plane_strain_D(mat)
    B, _ = _b_matrices(mesh)
    ue = np.empty((mesh.n_elements, 6))
    ue[:, 0::2] = U[2 * mesh.elements]
    ue[:, 1::2] = U[2 * mesh.elements + 1]
    strains = np.einsum("eij,ej->ei", B, ue)
    return strains @ D.T


def is_integer_id(value):
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _resolve_edges(mesh, bc):
    if bc.side is None:
        raise ConfigError(f"bc of kind {bc.kind!r} needs a 'side' edge selector")
    try:
        edges = select_boundary_edges(mesh, bc.side)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(edges) == 0:
        raise ConfigError(f"no external boundary edges on side {bc.side!r}")
    return edges


# 2-point Gauss abscissae on [0, 1]
_GAUSS = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))


def _edge_loads(F, mesh, edges, t):
    """Add the consistent loads of the constant traction ``t`` on ``edges``
    to ``F``: per edge and Gauss point, ``w = L/2`` times the linear shape
    functions, summed and scattered in edge order."""
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    w = 0.5 * np.hypot(d[:, 0], d[:, 1])
    g1, g2 = _GAUSS
    fa = w * (1.0 - g1) + w * (1.0 - g2)
    fb = w * g1 + w * g2
    dofs = (2 * edges)[:, [0, 0, 1, 1]] + [0, 1, 0, 1]
    vals = np.column_stack([fa * t[0], fa * t[1], fb * t[0], fb * t[1]])
    np.add.at(F, dofs.ravel(), vals.ravel())


def assemble_loads(mesh, bcs, step=None, n_steps=1):
    """Consistent nodal load vector for all Neumann-type conditions.

    Edge tractions use 2-point Gauss along each boundary segment (exact here
    since the traction is constant and shape functions linear).  Fracture
    pressure is applied as +-p*n on the copies of each segment's two faces
    (``Mesh.faces``); at unsplit crack tips the two contributions land on
    the same node and cancel.
    """
    F = np.zeros(2 * mesh.n_nodes)

    for bc in bcs:
        if bc.kind == "neumann":
            t = np.asarray(bc.traction, dtype=float) * bc.scale(step, n_steps)
            _edge_loads(F, mesh, _resolve_edges(mesh, bc), t)
        elif bc.kind == "fracture_pressure":
            if not is_integer_id(bc.fracture):
                raise ConfigError(
                    f"fracture_pressure bc needs an integer fracture id, "
                    f"got {bc.fracture!r}"
                )
            p = float(bc.pressure) * bc.scale(step, n_steps)
            if not 0 <= bc.fracture < len(mesh.faces):
                raise ConfigError(
                    f"fracture_pressure bc references unknown fracture "
                    f"{bc.fracture}"
                )
            for pu, mu, pv, mv in mesh.faces[bc.fracture]:
                xa = mesh.nodes[[pu, mu]].mean(axis=0)
                xb = mesh.nodes[[pv, mv]].mean(axis=0)
                d = xb - xa
                L = float(np.hypot(*d))
                n = np.array([-d[1], d[0]]) / L
                for node_p, node_m in ((pu, mu), (pv, mv)):
                    F[2 * node_p : 2 * node_p + 2] += 0.5 * L * p * n
                    F[2 * node_m : 2 * node_m + 2] -= 0.5 * L * p * n
        elif bc.kind == "dirichlet":
            continue
        else:
            raise ConfigError(f"unknown bc kind {bc.kind!r}")

    return F


def _dirichlet_nodes(mesh, bc):
    """Node ids (int64) a Dirichlet condition prescribes, in its order."""
    if bc.nodes is None:
        return np.unique(_resolve_edges(mesh, bc))
    node_ids = list(bc.nodes)
    bad = [n for n in node_ids if not is_integer_id(n)]
    if bad:
        raise ConfigError(f"dirichlet bc references non-integer nodes {bad}")
    bad = [n for n in node_ids if not 0 <= n < mesh.n_nodes]
    if bad:
        raise ConfigError(f"dirichlet bc references unknown nodes {bad}")
    return np.array(node_ids, dtype=np.int64)


def _merge_prescriptions(dofs, vals):
    """Sorted unique dofs and the last value given to each, from
    prescriptions in the order they were made.  Two consecutive values for
    one dof that differ beyond roundoff raise; the first such pair in that
    order is reported."""
    order = np.argsort(dofs, kind="stable")
    dofs, vals = dofs[order], vals[order]
    prev, cur = vals[:-1], vals[1:]
    bad = (dofs[1:] == dofs[:-1]) & (
        np.abs(prev - cur) > 1e-12 * np.maximum(1.0, np.abs(cur))
    )
    if bad.any():
        k = np.flatnonzero(bad)
        k = k[np.argmin(order[k + 1])]
        raise ConfigError(
            f"conflicting Dirichlet values for dof {int(dofs[k])}: "
            f"{float(prev[k])} vs {float(cur[k])}"
        )
    last = np.ones(dofs.size, dtype=bool)
    last[:-1] = dofs[1:] != dofs[:-1]
    return dofs[last], vals[last]


def dirichlet_constraints(mesh, bcs, step=None, n_steps=1):
    """(dof indices, prescribed values) for all Dirichlet conditions.

    Conflicting prescriptions on the same dof raise; repeated identical ones
    (e.g. a corner shared by two sides) are fine.  Errors are reported in bc
    order: a bc whose nodes cannot be resolved raises only after the
    conditions before it have been checked against each other.
    """
    dofs, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for bc in bcs:
        if bc.kind != "dirichlet":
            continue
        s = bc.scale(step, n_steps)
        try:
            nodes = _dirichlet_nodes(mesh, bc)
        except ConfigError:
            # a conflict among the bcs before this one is reported first
            _merge_prescriptions(np.concatenate(dofs), np.concatenate(vals))
            raise
        # per node, its prescribed components (x, then y) in node order
        comps = [(k, v * s) for k, v in enumerate((bc.ux, bc.uy)) if v is not None]
        offsets = np.array([k for k, _ in comps], dtype=np.int64)
        values = np.array([v for _, v in comps], dtype=float)
        dofs.append((2 * nodes[:, None] + offsets).ravel())
        vals.append(np.tile(values, nodes.size))
    return _merge_prescriptions(np.concatenate(dofs), np.concatenate(vals))
