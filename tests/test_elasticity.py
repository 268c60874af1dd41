"""Plane-strain CST assembly, loads, Dirichlet handling."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from fracfem import presets
from fracfem.config import build_mesh
from fracfem.elasticity import (
    BoundaryCondition,
    ConfigError,
    MaterialParams,
    _b_matrices,
    assemble_loads,
    assemble_stiffness,
    dirichlet_constraints,
    element_stresses,
    plane_strain_D,
)
from fracfem.mesh import build_contact_pairs, generate_rect_mesh, split_fractures

# Hand-assembled stiffness of the unit right triangle (0,0)-(1,0)-(0,1)
# for E = 1, nu = 0: D = diag(1, 1, 0.5), area = 1/2,
# B = [[-1,0,1,0,0,0],[0,-1,0,0,0,1],[-1,-1,0,1,1,0]], Ke = A * B^T D B.
CST_UNIT = np.array([
    [0.75, 0.25, -0.50, -0.25, -0.25, 0.00],
    [0.25, 0.75, 0.00, -0.25, -0.25, -0.50],
    [-0.50, 0.00, 0.50, 0.00, 0.00, 0.00],
    [-0.25, -0.25, 0.00, 0.25, 0.25, 0.00],
    [-0.25, -0.25, 0.00, 0.25, 0.25, 0.00],
    [0.00, -0.50, 0.00, 0.00, 0.00, 0.50],
])


def unit_triangle_mesh():
    from fracfem.mesh import Mesh

    return Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        fractures=[],
    )


class TestPlaneStrainD:
    def test_nu_zero_pattern(self):
        D = plane_strain_D(MaterialParams(E=2.0, nu=0.0))
        np.testing.assert_allclose(D, 2.0 * np.diag([1.0, 1.0, 0.5]))

    def test_reference_modulus(self):
        # 25e9 * 0.75 / (1.25 * 0.5) = 3.0e10, evaluated by hand
        D = plane_strain_D(MaterialParams(E=25e9, nu=0.25))
        assert D[0, 0] == pytest.approx(3.0e10, rel=1e-12)

    @given(
        E=st.floats(min_value=1e3, max_value=1e12),
        nu=st.floats(min_value=0.0, max_value=0.49),
    )
    def test_symmetric(self, E, nu):
        D = plane_strain_D(MaterialParams(E=E, nu=nu))
        np.testing.assert_allclose(D, D.T)

    def test_invalid_material(self):
        with pytest.raises(ConfigError):
            MaterialParams(E=-1.0, nu=0.3)
        with pytest.raises(ConfigError):
            MaterialParams(E=1.0, nu=0.5)


class TestElementStiffness:
    def test_unit_right_triangle_matches_hand_assembly(self):
        # one triangle: the global stiffness is the element matrix
        mesh = unit_triangle_mesh()
        Ke = assemble_stiffness(mesh, MaterialParams(E=1.0, nu=0.0)).toarray()
        np.testing.assert_allclose(Ke, CST_UNIT, atol=1e-14)

    def test_rigid_translation_in_null_space(self):
        mesh = unit_triangle_mesh()
        Ke = assemble_stiffness(mesh, MaterialParams(E=7e9, nu=0.3)).toarray()
        u = np.array([1.0, -2.0] * 3)
        np.testing.assert_allclose(Ke @ u, 0.0, atol=1e-4)

    def test_linearized_rotation_in_null_space(self):
        mesh = unit_triangle_mesh()
        Ke = assemble_stiffness(mesh, MaterialParams(E=1.0, nu=0.25)).toarray()
        u = np.concatenate([[-y, x] for x, y in mesh.nodes])
        np.testing.assert_allclose(Ke @ u, 0.0, atol=1e-14)

    def test_three_zero_eigenvalues(self):
        mesh = unit_triangle_mesh()
        Ke = assemble_stiffness(mesh, MaterialParams(E=1.0, nu=0.2)).toarray()
        vals = np.linalg.eigvalsh(Ke)
        assert (np.abs(vals) < 1e-12).sum() == 3


class TestAssemble:
    def test_two_element_square_null_space(self):
        mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
        K = assemble_stiffness(mesh, MaterialParams(E=1.0, nu=0.25)).toarray()
        vals = np.linalg.eigvalsh(K)
        assert (np.abs(vals) < 1e-12).sum() == 3

    def test_uniform_strain_energy(self):
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = generate_rect_mesh(2.0, 1.5, 4, 3, pattern="crossed")
        K = assemble_stiffness(mesh, mat)
        eps = np.array([1e-4, -2e-4, 3e-4])
        # u = [exx*x + 0.5*gxy*y, eyy*y + 0.5*gxy*x]
        u = np.empty(2 * mesh.n_nodes)
        u[0::2] = eps[0] * mesh.nodes[:, 0] + 0.5 * eps[2] * mesh.nodes[:, 1]
        u[1::2] = eps[1] * mesh.nodes[:, 1] + 0.5 * eps[2] * mesh.nodes[:, 0]
        D = plane_strain_D(mat)
        area = 2.0 * 1.5
        expected = area * eps @ D @ eps
        assert u @ (K @ u) == pytest.approx(expected, rel=1e-10)

    def test_through_going_split_adds_rigid_modes(self):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4,
                                  fractures=[(0.0, 0.5, 1.0, 0.5)])
        split = split_fractures(mesh)
        mat = MaterialParams(E=1.0, nu=0.25)
        K0 = assemble_stiffness(mesh, mat).toarray()
        K1 = assemble_stiffness(split, mat).toarray()
        zeros0 = (np.abs(np.linalg.eigvalsh(K0)) < 1e-10).sum()
        zeros1 = (np.abs(np.linalg.eigvalsh(K1)) < 1e-10).sum()
        assert zeros0 == 3
        assert zeros1 == 6  # two disconnected bodies

    def test_symmetry(self):
        mesh = generate_rect_mesh(2.0, 2.0, 5, 5, pattern="crossed")
        K = assemble_stiffness(mesh, MaterialParams(E=25e9, nu=0.25))
        asym = np.abs((K - K.T).toarray()).max()
        assert asym <= 1e-9 * np.abs(K.toarray()).max()


def _ref_stiffness(mesh, mat):
    """The einsum assembly the term loop replaced, verbatim: it keeps the
    exact zeros that cancelled element terms leave in the pattern."""
    D = plane_strain_D(mat)
    B, areas = _b_matrices(mesh)
    Ke = np.einsum("eki,kl,elj->eij", B, D, B) * areas[:, None, None]

    dofs = np.empty((mesh.n_elements, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elements
    dofs[:, 1::2] = 2 * mesh.elements + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    return K


@functools.lru_cache(maxsize=None)
def _preset_stiffness(name):
    """(assembled K, reference K) of a preset's mesh."""
    cfg = presets.get(name)
    mesh = build_mesh(cfg)
    return assemble_stiffness(mesh, cfg.material), _ref_stiffness(mesh, cfg.material)


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
class TestPresetStiffness:
    def test_no_stored_zeros(self, name):
        K, _ = _preset_stiffness(name)
        assert np.count_nonzero(K.data) == K.nnz

    def test_equals_einsum_assembly_bit_for_bit(self, name):
        K, ref = _preset_stiffness(name)
        ref = ref.copy()
        ref.eliminate_zeros()
        for a, b in ((K.indptr, ref.indptr), (K.indices, ref.indices),
                     (K.data.view(np.uint64), ref.data.view(np.uint64))):
            np.testing.assert_array_equal(a, b)


def test_reference_assembly_stores_zeros_on_sneddon():
    """The zeros the assembly drops exist: cancelled shear terms of the
    structured lattice."""
    K, ref = _preset_stiffness("sneddon")
    assert ref.nnz - np.count_nonzero(ref.data) == ref.nnz - K.nnz > 0


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


class TestLoads:
    def test_uniform_edge_traction_lumps_half_half(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 1, 1))
        bc = BoundaryCondition(kind="neumann", side="top", traction=[0.0, -3.0])
        F = assemble_loads(mesh, [bc])
        top_nodes = [i for i, (x, y) in enumerate(mesh.nodes) if y == 1.0]
        for n in top_nodes:
            assert F[2 * n + 1] == pytest.approx(-3.0 * 1.0 / 2.0)
        assert F.sum() == pytest.approx(-3.0)

    def test_zero_traction_zero_vector(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        F = assemble_loads(mesh, [])
        assert np.all(F == 0.0)

    def test_fracture_pressure_total_force(self):
        # through-going 2 m fracture: every node is split, so the plus face
        # collects the full p*L = 2e7 N/m and the minus face its opposite
        mesh = built(
            generate_rect_mesh(2.0, 2.0, 8, 8, fractures=[(0.0, 1.0, 2.0, 1.0)])
        )
        bc = BoundaryCondition(kind="fracture_pressure", fracture=0,
                               pressure=10e6)
        F = assemble_loads(mesh, [bc])
        plus, minus = np.zeros(2), np.zeros(2)
        minus_ids = set(mesh.minus_map.values())
        plus_ids = set(mesh.plus_map.values())
        for n in range(mesh.n_nodes):
            f = F[2 * n : 2 * n + 2]
            if n in minus_ids:
                minus += f
            elif n in plus_ids:
                plus += f
        assert np.linalg.norm(plus) == pytest.approx(2e7, rel=1e-12)
        assert np.linalg.norm(minus) == pytest.approx(2e7, rel=1e-12)
        np.testing.assert_allclose(plus, -minus, rtol=1e-12)
        assert F.sum() == pytest.approx(0.0, abs=1e-6)

    def test_embedded_pressure_is_self_equilibrated(self):
        mesh = built(
            generate_rect_mesh(2.0, 2.0, 8, 8, fractures=[(0.5, 1.0, 1.5, 1.0)])
        )
        bc = BoundaryCondition(kind="fracture_pressure", fracture=0,
                               pressure=10e6)
        F = assemble_loads(mesh, [bc])
        assert abs(F[0::2].sum()) < 1e-6
        assert abs(F[1::2].sum()) < 1e-6


class TestDirichlet:
    def test_constraints_collect_nodes_and_values(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", uy=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.5),
        ]
        idx, vals = dirichlet_constraints(mesh, bcs)
        assert 0 in idx  # node 0 ux
        assert 1 in idx  # node 0 uy (bottom)
        assert vals[list(idx).index(0)] == 0.5

    def test_conflicting_values_rejected(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        bcs = [
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.5),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=-0.5),
        ]
        with pytest.raises(ConfigError):
            dirichlet_constraints(mesh, bcs)

    def test_elimination_keeps_spd(self):
        mesh = built(generate_rect_mesh(1.0, 1.0, 3, 3))
        mat = MaterialParams(E=25e9, nu=0.25)
        K = assemble_stiffness(mesh, mat)
        bcs = [
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0)
        ]
        fixed, _ = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        Kr = K[free][:, free]
        asym = np.abs((Kr - Kr.T).toarray()).max()
        assert asym <= 1e-9 * np.abs(Kr.toarray()).max()
        lu = spla.splu(Kr.tocsc())  # factorization succeeds: SPD after fixing
        x = lu.solve(np.ones(free.size))
        assert np.all(np.isfinite(x))


class TestPatchAndEquilibrium:
    def test_uniaxial_patch_exact(self):
        # uniform traction on the right edge reproduces the homogeneous
        # plane-strain solution exactly at every element
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = built(generate_rect_mesh(2.0, 1.0, 4, 2, pattern="crossed"))
        t = 1e6
        bcs = [
            BoundaryCondition(kind="neumann", side="right", traction=[t, 0.0]),
            BoundaryCondition(kind="dirichlet", side="left", ux=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], uy=0.0),
        ]
        K = assemble_stiffness(mesh, mat)
        F = assemble_loads(mesh, bcs)
        fixed, vals = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        U = np.zeros(2 * mesh.n_nodes)
        U[fixed] = vals
        U[free] = spla.spsolve(K[free][:, free].tocsc(), F[free])
        stresses = element_stresses(mesh, mat, U)
        np.testing.assert_allclose(stresses[:, 0], t, rtol=1e-10)
        np.testing.assert_allclose(stresses[:, 1], 0.0, atol=t * 1e-10)
        np.testing.assert_allclose(stresses[:, 2], 0.0, atol=t * 1e-10)
        # exact displacement from D^{-1} sigma
        D = plane_strain_D(mat)
        eps = np.linalg.solve(D, [t, 0.0, 0.0])
        np.testing.assert_allclose(
            U[0::2], eps[0] * mesh.nodes[:, 0], rtol=1e-10, atol=1e-22
        )

    def test_global_force_balance(self):
        mat = MaterialParams(E=25e9, nu=0.25)
        mesh = built(generate_rect_mesh(1.0, 1.0, 6, 6))
        t = np.array([3e5, -2e6])
        bcs = [
            BoundaryCondition(kind="neumann", side="top", traction=list(t)),
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
        ]
        K = assemble_stiffness(mesh, mat)
        F = assemble_loads(mesh, bcs)
        fixed, vals = dirichlet_constraints(mesh, bcs)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        U = np.zeros(2 * mesh.n_nodes)
        U[free] = spla.spsolve(K[free][:, free].tocsc(), F[free])
        reactions = (K @ U - F)[fixed]
        total_applied = np.array([F[0::2].sum(), F[1::2].sum()])
        total_react = np.array(
            [reactions[0::2].sum(), reactions[1::2].sum()]
        )
        np.testing.assert_allclose(
            total_react, -total_applied, rtol=1e-9
        )
