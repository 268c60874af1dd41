"""Helpers shared by the solver and acceptance tests: the support reactions
of a solved step (criterion 8's force balance reads them) and the reference
solve of a saddle system through a fresh factorization."""

import numpy as np

from fracfem import solver
from fracfem.contact import assemble_contact_blocks, contact_residuals
from fracfem.elasticity import assemble_stiffness, symmetric_product
from fracfem.solver import step_data


def fresh_solve(sys, pc, R):
    """``dx`` of ``J dx = -R`` for the :class:`~fracfem.solver.SaddleSystem`
    ``sys`` and the physical residual ``R`` (``[ru, rlam]``, as
    :meth:`~fracfem.solver.SystemCache.residual` forms it) through a fresh
    SuperLU factorization of ``diag(1/pc) J``, refined as every solve of a
    run is (:func:`fracfem.solver.linear_solve`).  The right-hand side
    ``-[ru, s rlam]/pc`` is formed on a copy of ``R``, and the scaled matrix
    is a CSC copy, so ``R`` and ``sys.J`` are left as they were."""
    Jbar = solver._scale_rows(sys.J.tocsc(copy=True), pc)
    return solver.linear_solve(Jbar, solver._splu(Jbar), scaled_rhs(sys, R, pc))


def scaled_rhs(sys, R, pc):
    """The right-hand side ``-[ru, s rlam]/pc`` of the physical residual
    ``R = [ru, rlam]`` for ``sys`` (``s`` its mult_scale), on a copy."""
    n = sys.free.size
    return -np.concatenate([R[:n], sys.mult_scale * R[n:]]) / pc


def reaction_forces(mesh, mat, fric, bcs, result, step=None, K=None, n_steps=1):
    """Residual at the Dirichlet dofs = negated support reactions."""
    if K is None:
        K = assemble_stiffness(mesh, mat)
    F, fixed, _, _ = step_data(mesh, bcs, step, n_steps)
    blocks = assemble_contact_blocks(mesh, result.codes, fric, fixed_dofs=fixed)
    ru_c, _ = contact_residuals(blocks, result.U, result.lam)
    return fixed, (symmetric_product(K, result.U) + ru_c - F)[fixed]
