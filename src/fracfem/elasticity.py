"""Plane-strain linear elasticity on 3-node triangles.

Constant-strain triangles with single-point quadrature (exact for linear
shape functions).  Dirichlet conditions are handled by row/column
elimination on the assembled saddle system, never by penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import select_boundary_edges


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path."""


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


def _b_matrices(mesh):
    """Strain-displacement matrices (m, 3, 6) and areas for all elements."""
    x = mesh.nodes[mesh.elements]  # (m, 3, 2)
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    areas = 0.5 * (
        (x1[:, 0] - x0[:, 0]) * (x2[:, 1] - x0[:, 1])
        - (x2[:, 0] - x0[:, 0]) * (x1[:, 1] - x0[:, 1])
    )
    if np.any(areas <= 0.0):
        bad = int(np.argmax(areas <= 0.0))
        raise ValueError(f"element {bad} is degenerate (area {areas[bad]})")
    b = np.stack(
        [x1[:, 1] - x2[:, 1], x2[:, 1] - x0[:, 1], x0[:, 1] - x1[:, 1]], axis=1
    )
    c = np.stack(
        [x2[:, 0] - x1[:, 0], x0[:, 0] - x2[:, 0], x1[:, 0] - x0[:, 0]], axis=1
    )
    m = mesh.n_elements
    B = np.zeros((m, 3, 6))
    B[:, 0, 0::2] = b
    B[:, 1, 1::2] = c
    B[:, 2, 0::2] = c
    B[:, 2, 1::2] = b
    B /= (2.0 * areas)[:, None, None]
    return B, areas


def assemble_stiffness(mesh, mat):
    """Global sparse stiffness, 2 dofs per node, deterministic scatter-add."""
    D = plane_strain_D(mat)
    B, areas = _b_matrices(mesh)
    # B^T D B summed over the nonzero entries of D, in the order (k outer,
    # l inner) and with the operand order of einsum("eki,kl,elj->eij")
    Ke = np.zeros((mesh.n_elements, 6, 6))
    for k, l in zip(*np.nonzero(D)):
        Ke += (B[:, k, :, None] * D[k, l]) * B[:, l, None, :]
    Ke *= areas[:, None, None]

    dofs = np.empty((mesh.n_elements, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    K.eliminate_zeros()  # exact zeros (e.g. cancelled shear terms) add fill
    return K


def element_stresses(mesh, mat, U):
    """(m, 3) per-element stresses (sxx, syy, sxy) from nodal displacements."""
    D = plane_strain_D(mat)
    B, _ = _b_matrices(mesh)
    ue = np.empty((mesh.n_elements, 6))
    ue[:, 0::2] = U[2 * mesh.elements]
    ue[:, 1::2] = U[2 * mesh.elements + 1]
    strains = np.einsum("eij,ej->ei", B, ue)
    return strains @ D.T


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


def assemble_loads(mesh, bcs, step=None, n_steps=1):
    """Consistent nodal load vector for all Neumann-type conditions.

    Edge tractions use 2-point Gauss along each boundary segment (exact here
    since the traction is constant and shape functions linear).  Fracture
    pressure is applied as +-p*n on the chain face nodes; at unsplit crack
    tips the two contributions land on the same node and cancel.
    """
    F = np.zeros(2 * mesh.n_nodes)
    gauss = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))

    for bc in bcs:
        if bc.kind == "neumann":
            t = np.asarray(bc.traction, dtype=float) * bc.scale(step, n_steps)
            for a, b in _resolve_edges(mesh, bc):
                L = float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
                fa = fb = 0.0
                for xi in gauss:
                    w = 0.5 * L
                    fa += w * (1.0 - xi)
                    fb += w * xi
                F[2 * a : 2 * a + 2] += fa * t
                F[2 * b : 2 * b + 2] += fb * t
        elif bc.kind == "fracture_pressure":
            p = float(bc.pressure) * bc.scale(step, n_steps)
            if not 0 <= bc.fracture < len(mesh.chains):
                raise ConfigError(
                    f"fracture_pressure bc references unknown fracture "
                    f"{bc.fracture}"
                )
            chain = mesh.chains[bc.fracture]
            for ca, cb in zip(chain[:-1], chain[1:]):
                xa = mesh.nodes[[ca.rp, ca.rm]].mean(axis=0)
                xb = mesh.nodes[[cb.lp, cb.lm]].mean(axis=0)
                d = xb - xa
                L = float(np.hypot(*d))
                n = np.array([-d[1], d[0]]) / L
                for node_p, node_m, w in (
                    (ca.rp, ca.rm, 0.5 * L),
                    (cb.lp, cb.lm, 0.5 * L),
                ):
                    F[2 * node_p : 2 * node_p + 2] += w * p * n
                    F[2 * node_m : 2 * node_m + 2] -= w * p * n
        elif bc.kind == "dirichlet":
            continue
        else:
            raise ConfigError(f"unknown bc kind {bc.kind!r}")

    return F


def dirichlet_constraints(mesh, bcs, step=None, n_steps=1):
    """(dof indices, prescribed values) for all Dirichlet conditions.

    Conflicting prescriptions on the same dof raise; repeated identical ones
    (e.g. a corner shared by two sides) are fine.
    """
    fixed = {}

    def set_dof(dof, val):
        if dof in fixed and abs(fixed[dof] - val) > 1e-12 * max(1.0, abs(val)):
            raise ConfigError(
                f"conflicting Dirichlet values for dof {dof}: "
                f"{fixed[dof]} vs {val}"
            )
        fixed[dof] = val

    for bc in bcs:
        if bc.kind != "dirichlet":
            continue
        s = bc.scale(step, n_steps)
        if bc.nodes is not None:
            node_ids = list(bc.nodes)
            bad = [n for n in node_ids if not 0 <= n < mesh.n_nodes]
            if bad:
                raise ConfigError(f"dirichlet bc references unknown nodes {bad}")
        else:
            node_ids = sorted({int(n) for e in _resolve_edges(mesh, bc) for n in e})
        for n in node_ids:
            if bc.ux is not None:
                set_dof(2 * n, bc.ux * s)
            if bc.uy is not None:
                set_dof(2 * n + 1, bc.uy * s)

    idx = np.array(sorted(fixed), dtype=np.int64)
    vals = np.array([fixed[i] for i in idx])
    return idx, vals

