"""Support reactions of a solved step, shared by the solver and acceptance
tests (criterion 8's force balance reads them)."""

from fracfem.contact import assemble_contact_blocks, contact_residuals
from fracfem.elasticity import assemble_stiffness, symmetric_product
from fracfem.solver import step_data


def reaction_forces(mesh, mat, fric, bcs, result, step=None, K=None, n_steps=1):
    """Residual at the Dirichlet dofs = negated support reactions."""
    if K is None:
        K = assemble_stiffness(mesh, mat)
    F, fixed, _, _ = step_data(mesh, bcs, step, n_steps)
    blocks = assemble_contact_blocks(mesh, result.codes, fric, fixed_dofs=fixed)
    ru_c, _ = contact_residuals(blocks, result.U, result.lam)
    return fixed, (symmetric_product(K, result.U) + ru_c - F)[fixed]
