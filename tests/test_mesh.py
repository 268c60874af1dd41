"""Mesh generation, file round-trips, node splitting, contact pairs."""

import copy
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem.mesh import (
    BOUNDARY_SIDES,
    PATTERNS,
    ConfigError,
    FracturePath,
    FractureSpec,
    Mesh,
    MeshFormatError,
    NonConformingPathError,
    arc_coordinates,
    build_contact_pairs,
    external_boundary_edges,
    generate_rect_mesh,
    load_mesh,
    save_mesh,
    select_boundary_edges,
    split_fractures,
)

SQRT2 = math.sqrt(2.0)


def built(mesh):
    return build_contact_pairs(split_fractures(mesh))


def stations(faces):
    """(lp, lm, rp, rm) at each node of one fracture's path: its copies on
    the faces of the segment arriving there, then of the one departing (an
    endpoint repeats its one segment's).  A crossing is where they differ."""
    arriving = [faces[0][:2], *(seg[2:] for seg in faces)]
    departing = [*(seg[:2] for seg in faces), faces[-1][2:]]
    return [(*a, *d) for a, d in zip(arriving, departing)]


def crossing_stations(faces):
    return [s for s in stations(faces) if s[:2] != s[2:]]


def bow_tie_mesh():
    """A fracture 0-1 ending at node 1, where element (1, 2, 3) meets the
    other two elements at that node only."""
    nodes = np.array([
        [-1.0, 0.0], [0.0, 0.0], [1.0, -1.0], [1.0, 1.0],
        [-1.0, 1.0], [-1.0, -1.0],
    ])
    elements = np.array([[1, 2, 3], [0, 1, 4], [0, 5, 1]])
    return Mesh(nodes=nodes, elements=elements,
                fractures=[FracturePath(id=0, nodes=[0, 1])])


# sha256 of TestGenerator.test_lattice_paths_pinned's walk, recorded while
# the generator walked its paths in float coordinates: square cells, cells
# twice as high as wide and cells twice as wide as high
LATTICE_PATH_DIGESTS = {
    (4.0, 4.0, 4, 4, "diagonal"):
        "4a41cce5cfacc7b10551e7c7387bcf2deacdd16b1ee059896262b05d3bc7d709",
    (4.0, 4.0, 4, 4, "crossed"):
        "c8efe1a7d975072b4fa303be277f8a52de2ebf8f166ae64bde7f60418b0e1ae2",
    (3.0, 4.0, 3, 2, "diagonal"):
        "c1844fd3a95f0345140406db42fdf89cf2f59359a9197aa3d6a49aa4d5073ddc",
    (3.0, 4.0, 3, 2, "crossed"):
        "ec2c72f889d0cc1ee7db04017a9d3d27e11d7548459b568fb02f8e44e56560e6",
    (2.0, 1.0, 2, 2, "diagonal"):
        "410f472fc2631754fbeff38e91b742940902515d416537ab728ec051328e66a3",
    (2.0, 1.0, 2, 2, "crossed"):
        "fdec505cf72df026a0899fccd4967049c7d7af6122fd1459d619c2e7a0850b67",
}


class TestGenerator:
    def test_unit_square_diagonal(self):
        m = generate_rect_mesh(1.0, 1.0, 1, 1)
        assert m.n_nodes == 4
        assert m.n_elements == 2
        assert m.signed_areas().sum() == pytest.approx(1.0, rel=1e-14)

    def test_unit_square_crossed(self):
        m = generate_rect_mesh(1.0, 1.0, 1, 1, pattern="crossed")
        assert m.n_nodes == 5
        assert m.n_elements == 4
        assert m.signed_areas().sum() == pytest.approx(1.0, rel=1e-14)

    def test_diagonal_fracture_node_count(self):
        # 45-degree fracture of length sqrt(2) on a 2x2/20x20 grid follows
        # 10 full cell diagonals -> 11 path nodes
        m = generate_rect_mesh(
            2.0, 2.0, 20, 20, fractures=[(0.5, 0.5, 1.5, 1.5)]
        )
        assert len(m.fractures[0].nodes) == 11

    def test_orthogonal_fractures_share_one_node(self):
        m = generate_rect_mesh(
            4.0, 4.0, 40, 40, fractures=[(1, 2, 3, 2), (2, 1, 2, 3)]
        )
        shared = set(m.fractures[0].nodes) & set(m.fractures[1].nodes)
        assert len(shared) == 1

    @given(
        nx=st.integers(min_value=1, max_value=6),
        ny=st.integers(min_value=1, max_value=6),
        pattern=st.sampled_from(["diagonal", "crossed"]),
    )
    @settings(max_examples=25)
    def test_areas_tile_the_rectangle(self, nx, ny, pattern):
        m = generate_rect_mesh(3.0, 2.0, nx, ny, pattern=pattern)
        assert m.signed_areas().sum() == pytest.approx(6.0, rel=1e-12)
        assert np.all(m.signed_areas() > 0)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 1.0, 0, 2), "nx must be a positive integer, got 0"),
        ((1.0, 1.0, -2, 2), "nx must be a positive integer, got -2"),
        ((1.0, 1.0, 2, 0), "ny must be a positive integer, got 0"),
        ((1.0, 1.0, 2.5, 2), "nx must be a positive integer, got 2.5"),
        ((1.0, 1.0, True, 2), "nx must be a positive integer, got True"),
        ((0.0, 1.0, 2, 2), "width must be positive and finite, got 0.0"),
        ((-1.0, 1.0, 2, 2), "width must be positive and finite, got -1.0"),
        ((1.0, 0, 2, 2), "height must be positive and finite, got 0"),
        ((math.inf, 1.0, 2, 2), "width must be positive and finite, got inf"),
        ((1.0, math.nan, 2, 2), "height must be positive and finite, got nan"),
    ])
    def test_sizes_checked(self, args, message):
        # called from Python, not through a config, the generator names the
        # bad argument and its value, where it raised a ZeroDivisionError,
        # a NumPy reduction error or a misleading element-area error
        match = f"^generate_rect_mesh: {re.escape(message)}$"
        with pytest.raises(ConfigError, match=match):
            generate_rect_mesh(*args)

    def test_sizes_of_numpy_types_accepted(self):
        ref = generate_rect_mesh(2.0, 1.0, 4, 2)
        m = generate_rect_mesh(np.float64(2.0), np.int64(1), np.int64(4), np.int32(2))
        np.testing.assert_array_equal(m.nodes, ref.nodes)
        np.testing.assert_array_equal(m.elements, ref.elements)

    def test_antidiagonal_needs_crossed_pattern(self):
        with pytest.raises(NonConformingPathError,
                           match="fracture 0: this lattice has no anti-diagonal edges"):
            generate_rect_mesh(2.0, 2.0, 10, 10, fractures=[(0.4, 1.6, 1.6, 0.4)])
        m = generate_rect_mesh(
            2.0, 2.0, 10, 10, fractures=[(0.4, 1.6, 1.6, 0.4)], pattern="crossed"
        )
        assert len(m.fractures[0].nodes) == 13  # 12 half-diagonal hops

    @pytest.mark.parametrize("fracture, pattern, message", [
        ((0.13, 0.5, 0.75, 0.5), "diagonal",
         r"^fracture 0 start \(0.13, 0.5\) does not coincide with a grid node$"),
        # a cell center exists on the crossed lattice only
        ((0.25, 0.5, 0.125, 0.125), "diagonal",
         r"^fracture 0 end \(0.125, 0.125\) does not coincide"),
        # half a cell off in x only: neither a corner nor a center
        ((0.125, 0.25, 0.75, 0.75), "crossed",
         r"^fracture 0 start \(0.125, 0.25\) does not coincide"),
        ((0.25, 0.5, 1.25, 0.5), "diagonal", r"^fracture 0 end \(1.25, 0.5\)"),
        ((0.5, 0.5, 0.5, 0.5), "diagonal", r"^fracture 0 has zero length$"),
        ((0.125, 0.375, 0.625, 0.375), "crossed",
         r"^fracture 0: axis-aligned fractures must follow grid lines$"),
        ((0.0, 0.25, 1.0, 0.75), "diagonal",
         r"^fracture 0: direction is neither axis-aligned nor 45 degrees$"),
        ((0.0, 0.0, 1.0, 0.0), "diagonal",
         r"^fracture 0 lies along the external boundary$"),
        ((1.0, 0.25, 1.0, 0.75), "crossed",
         r"^fracture 0 lies along the external boundary$"),
    ], ids=["off-grid", "center-on-diagonal", "half-cell-x", "outside", "zero-length",
            "between-grid-lines", "not-45", "bottom-side", "right-side"])
    def test_non_conforming_fracture_rejected(self, fracture, pattern, message):
        with pytest.raises(NonConformingPathError, match=message):
            generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[fracture], pattern=pattern)

    def test_45_degrees_needs_square_cells(self):
        # cells 0.5 x 1: (0.5, 1) -> (1.5, 2) is 45 degrees in space but two
        # cells wide per cell high; equal cell counts are not 45 degrees
        square = r"^fracture 0: 45-degree fractures need square cells$"
        for pattern in PATTERNS:
            with pytest.raises(NonConformingPathError, match=square):
                generate_rect_mesh(2.0, 4.0, 4, 4, fractures=[(0.5, 1.0, 1.5, 2.0)],
                                   pattern=pattern)
            with pytest.raises(NonConformingPathError, match="neither axis-aligned"):
                generate_rect_mesh(2.0, 4.0, 4, 4, fractures=[(0.5, 1.0, 1.5, 3.0)],
                                   pattern=pattern)

    def test_rejection_names_the_fracture(self):
        with pytest.raises(NonConformingPathError, match=r"^fracture 1 has zero length$"):
            generate_rect_mesh(1.0, 1.0, 4, 4,
                               fractures=[(0.25, 0.5, 0.75, 0.5), (0.5, 0.25, 0.5, 0.25)])

    @pytest.mark.parametrize("width, height, nx, ny, pattern", sorted(LATTICE_PATH_DIGESTS))
    def test_lattice_paths_pinned(self, width, height, nx, ny, pattern):
        """Every ordered pair of half-cell lattice points as one fracture:
        the path's node ids, or the message that rejects it."""
        points = [(i * width / (2 * nx), j * height / (2 * ny))
                  for j in range(2 * ny + 1) for i in range(2 * nx + 1)]
        h = hashlib.sha256()
        for a in points:
            for b in points:
                try:
                    m = generate_rect_mesh(width, height, nx, ny,
                                           fractures=[(*a, *b)], pattern=pattern)
                except NonConformingPathError as exc:
                    h.update(str(exc).encode())
                else:  # repr tells Python ints from NumPy ones
                    h.update(repr(m.fractures[0].nodes).encode())
        assert h.hexdigest() == LATTICE_PATH_DIGESTS[width, height, nx, ny, pattern]


class TestMeshFile:
    def test_smallest_valid_mesh(self, tmp_path):
        path = tmp_path / "square.msh"
        path.write_text(
            "# unit square\n"
            "NODES 4\n"
            "0 0.0 0.0\n1 1.0 0.0\n2 1.0 1.0\n3 0.0 1.0\n"
            "ELEMENTS 2\n"
            "0 0 1 2\n1 0 2 3\n"
            "FRACTURES 0\n"
            "END\n"
        )
        m = load_mesh(path)
        assert m.n_nodes == 4
        assert m.n_elements == 2
        assert len(m.fractures) == 0

    def test_non_conforming_fracture_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(
            "NODES 4\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
            "ELEMENTS 2\n0 0 1 2\n1 0 2 3\n"
            "FRACTURES 1\n0 2 1 3\n"  # 1-3 is not an edge
            "END\n"
        )
        with pytest.raises(NonConformingPathError):
            load_mesh(path)

    def test_duplicate_node_id(self, tmp_path):
        path = tmp_path / "dup.msh"
        path.write_text(
            "NODES 4\n0 0 0\n0 1 0\n2 1 1\n3 0 1\n"
            "ELEMENTS 2\n0 0 1 2\n1 0 2 3\nFRACTURES 0\nEND\n"
        )
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 3

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("NODES 2\n0 0.0 zzz\n1 1 0\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "fracture_lines, message, line",
        [("FRACTURES 1\n3 2 0 2\n", "fracture id 3 out of range", 10),
         ("FRACTURES 2\n0 2 0 2\n0 2 0 2\n", "duplicate fracture id 0", 11)],
    )
    def test_bad_fracture_id(self, tmp_path, fracture_lines, message, line):
        # ids index the per-fracture faces, so they must be 0..k-1, once each
        path = tmp_path / "bad.msh"
        path.write_text(
            "NODES 4\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
            "ELEMENTS 2\n0 0 1 2\n1 0 2 3\n" + fracture_lines + "END\n"
        )
        with pytest.raises(MeshFormatError, match=message) as err:
            load_mesh(path)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, section, line",
        [("NODES -1\nELEMENTS 0\nFRACTURES 0\nEND\n", "NODES", 1),
         ("NODES 0\nELEMENTS 0\nFRACTURES 0\nEND\n", "NODES", 1),
         ("NODES 3\n0 0 0\n1 1 0\n2 0 1\nELEMENTS -2\nFRACTURES 0\nEND\n",
          "ELEMENTS", 5),
         ("NODES 3\n0 0 0\n1 1 0\n2 0 1\nELEMENTS 1\n0 0 1 2\n"
          "FRACTURES -1\nEND\n", "FRACTURES", 7)],
    )
    def test_bad_section_count(self, tmp_path, text, section, line):
        # a mesh has at least one node; elements and fractures may be none
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=f"{section} count") as err:
            load_mesh(path)
        assert err.value.line == line

    def test_fractures_stored_in_id_order(self, tmp_path):
        mesh = generate_rect_mesh(
            4.0, 4.0, 8, 8, fractures=[(1.0, 1.0, 1.0, 3.0), (2.0, 2.0, 3.0, 2.0)]
        )
        path = tmp_path / "two.msh"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("FRACTURES"))
        lines[at + 1], lines[at + 2] = lines[at + 2], lines[at + 1]
        path.write_text("".join(lines))
        back = load_mesh(path)
        assert [f.id for f in back.fractures] == [0, 1]
        assert [f.nodes for f in back.fractures] == [f.nodes for f in mesh.fractures]

    def test_cw_element_rejected(self, tmp_path):
        path = tmp_path / "cw.msh"
        path.write_text(
            "NODES 3\n0 0 0\n1 1 0\n2 0 1\n"
            "ELEMENTS 1\n0 0 2 1\nFRACTURES 0\nEND\n"
        )
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_roundtrip_structured_mesh(self, tmp_path):
        m = generate_rect_mesh(
            2.0, 2.0, 20, 20, fractures=[(0.0 + 0.1, 1.0, 1.9, 1.0)]
        )
        path = tmp_path / "rt.msh"
        save_mesh(m, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(m.nodes, back.nodes)
        np.testing.assert_array_equal(m.elements, back.elements)
        assert [f.nodes for f in m.fractures] == [f.nodes for f in back.fractures]
        assert [f.is_through_going for f in m.fractures] == [
            f.is_through_going for f in back.fractures
        ]


class TestSplit:
    def test_no_fractures_is_identity(self):
        m = generate_rect_mesh(1.0, 1.0, 3, 3)
        s = split_fractures(m)
        assert s.n_nodes == m.n_nodes
        np.testing.assert_array_equal(s.elements, m.elements)

    def test_embedded_fracture_adds_interior_count(self):
        # 10x10 grid, horizontal fracture with 2 tips and k interior nodes
        m = generate_rect_mesh(
            1.0, 1.0, 10, 10, fractures=[(0.2, 0.5, 0.8, 0.5)]
        )
        k = len(m.fractures[0].nodes) - 2
        s = split_fractures(m)
        assert s.n_nodes == m.n_nodes + k

    def test_through_going_splits_endpoints_too(self):
        m = generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[(0.0, 0.5, 1.0, 0.5)])
        assert m.fractures[0].is_through_going
        s = split_fractures(m)
        assert s.n_nodes == m.n_nodes + len(m.fractures[0].nodes)

    def test_crossing_node_has_four_duplicates(self):
        m = generate_rect_mesh(
            4.0, 4.0, 40, 40, fractures=[(1, 2, 3, 2), (2, 1, 2, 3)]
        )
        s = split_fractures(m)
        # 18 interior non-crossing nodes per path -> 1 copy each, crossing -> 3
        assert s.n_nodes == m.n_nodes + 36 + 3
        (node,) = set(s.fractures[0].nodes) & set(s.fractures[1].nodes)
        # the copies at the crossing station: one per quadrant
        for faces in s.faces:
            ((lp, lm, rp, rm),) = crossing_stations(faces)
            assert node in {lp, rp}
            assert len({lp, lm, rp, rm}) == 4

    def test_areas_preserved_by_split(self):
        m = generate_rect_mesh(
            4.0, 4.0, 40, 40, fractures=[(1, 2, 3, 2), (2, 1, 2, 3)]
        )
        s = split_fractures(m)
        assert s.signed_areas().sum() == pytest.approx(16.0, rel=1e-12)
        assert np.all(s.signed_areas() > 0)

    def test_sides_reference_consistent_duplicates(self):
        m = generate_rect_mesh(1.0, 1.0, 6, 6, fractures=[(0.0, 0.5, 1.0, 0.5)])
        s = split_fractures(m)
        cents = s.nodes[s.elements].mean(axis=1)
        (faces,) = s.faces
        plus_ids = {n for pu, _, pv, _ in faces for n in (pu, pv)}
        minus_ids = {n for _, mu, _, mv in faces for n in (mu, mv)}
        assert not plus_ids & minus_ids
        for e, tri in enumerate(s.elements):
            for n in tri:
                if n in minus_ids:
                    assert cents[e][1] < 0.5  # minus side below the fracture
                elif n in plus_ids:
                    assert cents[e][1] > 0.5  # plus side above

    def test_double_split_rejected(self):
        m = generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[(0.0, 0.5, 1.0, 0.5)])
        s = split_fractures(m)
        with pytest.raises(ValueError):
            split_fractures(s)

    def test_t_junction_rejected(self):
        m = generate_rect_mesh(
            4.0, 4.0, 8, 8, fractures=[(1, 2, 3, 2), (2, 2, 2, 3.5)]
        )
        with pytest.raises(NonConformingPathError,
                           match="node 40 .*T-junctions are unsupported"):
            split_fractures(m)

    def test_node_on_three_fractures_rejected(self):
        m = generate_rect_mesh(
            4.0, 4.0, 4, 4, pattern="crossed",
            fractures=[(1, 2, 3, 2), (2, 1, 2, 3), (1, 1, 3, 3)],
        )
        with pytest.raises(NonConformingPathError,
                           match="node 12 is shared by more than two fractures"):
            split_fractures(m)

    def test_crossing_on_the_boundary_rejected(self):
        # a fan of six elements around node 0 on the bottom boundary; both
        # fractures pass through node 0, which leaves five groups
        angles = np.radians([0, 30, 60, 90, 120, 150, 180])
        rim = np.column_stack([np.cos(angles), np.sin(angles)])
        nodes = np.vstack([[0.0, 0.0], rim])
        elements = np.array([[0, i, i + 1] for i in range(1, 7)])
        mesh = Mesh(nodes=nodes, elements=elements, fractures=[
            FracturePath(id=0, nodes=[2, 0, 5]), FracturePath(id=1, nodes=[3, 0, 6]),
        ])
        with pytest.raises(NonConformingPathError,
                           match="crossing at node 0 .*crossings on the boundary"):
            split_fractures(mesh)

    def test_touching_fractures_rejected(self):
        # both paths turn at node 12 without crossing: four groups, but two
        # of them lie on the minus side of both fractures
        m = generate_rect_mesh(4.0, 4.0, 4, 4)
        mesh = Mesh(nodes=m.nodes, elements=m.elements, fractures=[
            FracturePath(id=0, nodes=[11, 12, 13]),
            FracturePath(id=1, nodes=[17, 12, 18]),
        ])
        with pytest.raises(NonConformingPathError, match="crossing at node 12"):
            split_fractures(mesh)

    def test_segment_on_the_boundary_rejected(self):
        m = generate_rect_mesh(1.0, 1.0, 4, 4)
        mesh = Mesh(nodes=m.nodes, elements=m.elements,
                    fractures=[FracturePath(id=0, nodes=[6, 1, 2])])
        with pytest.raises(NonConformingPathError,
                           match="segment 1-2 lies on the boundary"):
            split_fractures(mesh)

    def test_bow_tie_node_named(self):
        # element (1, 2, 3) touches the other two at node 1 only, so the
        # elements around node 1 fall into three groups
        with pytest.raises(NonConformingPathError, match="node 1: .* 3 groups"):
            split_fractures(bow_tie_mesh())


def split_digest(mesh):
    """sha256 of a built mesh's split: nodes, elements, every pair array
    and each segment's face copies (pu, mu, pv, mv)."""
    h = hashlib.sha256()
    for a in (mesh.nodes, mesh.elements, *mesh.pair_arrays):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    faces = [[tuple(int(c) for c in seg) for seg in segs] for segs in mesh.faces]
    h.update(repr(faces).encode())
    return h.hexdigest()


# generate_rect_mesh arguments of the pinned crossing meshes
PINNED_MESHES = {
    "axis-40": (4.0, 4.0, 40, 40, [(1, 2, 3, 2), (2, 1, 2, 3)], "diagonal"),
    "two-crossings": (8.0, 4.0, 16, 8, [(1, 2, 7, 2), (2, 1, 2, 3), (5, 1, 5, 3)],
                      "diagonal"),
    "through-crossed": (4.0, 4.0, 8, 8, [(0, 2, 4, 2), (2, 1, 2, 3)], "diagonal"),
    "axis-reversed": (4.0, 4.0, 8, 8, [(3, 2, 1, 2), (2, 3, 2, 1)], "diagonal"),
    "diag-45": (4.0, 4.0, 8, 8, [(1, 1, 3, 3), (1, 3, 3, 1)], "crossed"),
    "diag-45-reversed": (4.0, 4.0, 8, 8, [(3, 3, 1, 1), (3, 1, 1, 3)], "crossed"),
    "axis-crossed-lattice": (4.0, 4.0, 8, 8, [(1, 2, 3, 2), (2, 1, 2, 3)], "crossed"),
    "axis-and-45": (4.0, 4.0, 8, 8, [(1, 2, 3, 2), (1, 1, 3, 3)], "crossed"),
}

# split_digest of each preset and pinned mesh, recorded while the mesh
# still derived chains, plus/minus maps and intersection records from its
# faces; on that tree the digests of nodes, elements, pair arrays and chains
# recorded with the centroid angle classifier held as well
SPLIT_DIGESTS = {
    "crossing-multi": "cb2d6254411ae3c55cbba74dae0e1edcfdc169a47c2a72832573f7e6772ece7b",
    "crossing-single": "d8e945da7d5eabecff709d8ec8e3d681ba13fce46ff5315d79dfb5c4e2b65004",
    "inclined-crack": "e8ce1da2d5299a0f9ef904af1d33616b164b24dcd231f1a5ef5e3003fff32997",
    "shear-throughgoing": "b17220ae48f179743aee81180c53f0427b80479f5a37eb95e68479fca60ff57e",
    "sneddon": "c27c1337ecaa495e272f415a36a21ee987f407f67b866bb16424683118ff4e33",
    "axis-40": "94d1b28bce67f40d6f62411320b023a4845f7f63609d039f297f00822992c046",
    "two-crossings": "cd4148c858abaafa9f78bd816b1fff1cd9a74f5625b5c3506ed7fecb35e8bb75",
    "through-crossed": "55006885a7ea1ec2c05454f53839da941ae4384a222b8c90d5f3bcc6ff58a3d6",
    "axis-reversed": "38413d22d5d59f90af1ae2d69b24e1891ed7ebd42aee02808bf1b0d279768940",
    "diag-45": "f28648a7dd0079d3cba37dd4231d79f0e1e759c35ada008680c378e13ee466fe",
    "diag-45-reversed": "66e81f9ddbc088ce76546d47936739cfe0aa46b94dac6c80d524cf35eb85d223",
    "axis-crossed-lattice": "cea0bc61d6e92d0002b4654c5f79cd38b2ed75c2ba9f73fc8921576b8e84939a",
    "axis-and-45": "c776287b468cb6a2a5d32e35534ff6f4de5bdea6c9ce31ce7c3c1d67f3e7494d",
}


class TestSplitPin:
    @pytest.mark.parametrize("name", sorted(SPLIT_DIGESTS))
    def test_split_is_bit_for_bit(self, name):
        from fracfem import presets
        from fracfem.config import build_mesh

        if name in presets.PRESETS:
            mesh = build_mesh(presets.get(name))
        else:
            w, h, nx, ny, fractures, pattern = PINNED_MESHES[name]
            mesh = built(generate_rect_mesh(w, h, nx, ny, fractures=fractures,
                                            pattern=pattern))
            assert all(crossing_stations(faces) for faces in mesh.faces)
        assert split_digest(mesh) == SPLIT_DIGESTS[name]


class TestContactPairs:
    def test_horizontal_fracture_frame(self):
        m = built(generate_rect_mesh(1.0, 1.0, 6, 6, fractures=[(0.0, 0.5, 1.0, 0.5)]))
        for pair in m.pairs:
            np.testing.assert_allclose(pair.normal, [0.0, 1.0], atol=1e-15)
            np.testing.assert_allclose(pair.tangent, [1.0, 0.0], atol=1e-15)

    def test_45_degree_frame(self):
        m = built(
            generate_rect_mesh(2.0, 2.0, 20, 20, fractures=[(0.5, 0.5, 1.5, 1.5)])
        )
        for pair in m.pairs:
            np.testing.assert_allclose(
                pair.normal, [-SQRT2 / 2, SQRT2 / 2], atol=1e-14
            )

    def test_fracture_with_two_intersections(self):
        # one horizontal fracture crossed by two verticals: two crossing
        # stations on its chain, four crossing pairs per intersection
        m = generate_rect_mesh(
            8.0, 4.0, 16, 8,
            fractures=[(1, 2, 7, 2), (2, 1, 2, 3), (5, 1, 5, 3)],
        )
        s = split_fractures(m)
        nodes = [set(f.nodes) for f in s.fractures]
        shared = sorted(nodes[0] & (nodes[1] | nodes[2]))
        assert len(shared) == 2
        # F1: 11 interior nodes, 2 of them crossings -> 9 plain splits;
        # F2/F3: 3 interior each, 1 crossing -> 2 plain splits; each
        # crossing adds 3 copies
        assert s.n_nodes == m.n_nodes + 9 + 2 + 2 + 2 * 3
        built_mesh = build_contact_pairs(s)
        crossing = [p for p in built_mesh.pairs if p.is_crossing_pair]
        assert len(crossing) == 8
        assert len(built_mesh.pairs) == 13 + 8
        f1 = stations(built_mesh.faces[0])
        # unduplicated tips at both ends
        assert len(set(f1[0])) == 1 and len(set(f1[-1])) == 1
        for node, c in zip(shared, crossing_stations(built_mesh.faces[0]), strict=True):
            copies = set(c)
            assert node in copies and len(copies) == 4
            at_node = [
                p for p in built_mesh.pairs
                if p.is_crossing_pair and {p.node_plus, p.node_minus} <= copies
            ]
            assert len(at_node) == 4

    def test_building_pairs_twice_leaves_split_mesh_unchanged(self):
        from fracfem import presets
        from fracfem.config import build_mesh

        cfg = presets.get("crossing-multi")
        g = cfg.generator
        split = split_fractures(
            generate_rect_mesh(
                g["width"], g["height"], g["nx"], g["ny"],
                fractures=[FractureSpec(**f) for f in cfg.fractures],
                pattern=g["pattern"],
            )
        )
        records = copy.deepcopy(split.faces)
        assert sum(len(crossing_stations(faces)) for faces in records) == 2 * 3
        first = build_contact_pairs(split)
        second = build_contact_pairs(split)
        assert split.faces == records
        assert first.faces == records
        assert first.pairs == second.pairs
        assert first.pairs == build_mesh(cfg).pairs

    def test_pair_equality_compares_every_field(self):
        m = built(generate_rect_mesh(4.0, 4.0, 8, 8,
                                     fractures=[(1, 2, 3, 2)]))
        pair = m.pairs[1]
        same = dataclasses.replace(pair, normal=pair.normal.copy(),
                                   tangent=pair.tangent.copy())
        assert pair == same and not pair != same
        assert m.pairs == [dataclasses.replace(p) for p in m.pairs]
        assert pair != m.pairs[2]
        assert pair != dataclasses.replace(pair, normal=-pair.normal)
        assert pair != dataclasses.replace(pair, tangent=pair.tangent[::-1])
        assert pair != dataclasses.replace(pair, weight=2.0 * pair.weight)
        assert pair != dataclasses.replace(pair, is_crossing_pair=True)
        assert pair != (pair.id, pair.node_plus, pair.node_minus)
        assert m.pairs != m.pairs[:-1]

    def test_crossing_registers_four_flagged_pairs(self):
        m = built(
            generate_rect_mesh(4.0, 4.0, 40, 40,
                               fractures=[(1, 2, 3, 2), (2, 1, 2, 3)])
        )
        crossing = [p for p in m.pairs if p.is_crossing_pair]
        assert len(crossing) == 4
        assert {p.fracture for p in crossing} == {0, 1}
        for p in crossing:
            assert p.weight > 0.0

    def test_pair_nodes_coincide_geometrically(self):
        m = built(
            generate_rect_mesh(4.0, 4.0, 40, 40,
                               fractures=[(1, 2, 3, 2), (2, 1, 2, 3)])
        )
        for pair in m.pairs:
            np.testing.assert_array_equal(
                m.nodes[pair.node_plus], m.nodes[pair.node_minus]
            )

    def test_frames_orthonormal(self):
        m = built(
            generate_rect_mesh(4.0, 4.0, 40, 40,
                               fractures=[(1, 2, 3, 2), (2, 1, 2, 3)])
        )
        for pair in m.pairs:
            assert abs(np.linalg.norm(pair.normal) - 1.0) < 1e-12
            assert abs(np.linalg.norm(pair.tangent) - 1.0) < 1e-12
            assert abs(pair.normal @ pair.tangent) < 1e-12

    def test_arc_coordinates_increase(self):
        m = built(
            generate_rect_mesh(2.0, 2.0, 20, 20, fractures=[(0.5, 0.5, 1.5, 1.5)])
        )
        etas = arc_coordinates(m, 0)
        assert etas[0] == 0.0 and all(b > a for a, b in zip(etas, etas[1:]))
        assert all(type(e) is float for e in etas)
        # a pair sits at its station's arc coordinate
        assert [p.arc_coord for p in m.pairs] == etas[1:-1]


class TestBoundaryQueries:
    def test_external_edges_exclude_fracture_faces(self):
        m = built(generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[(0.0, 0.5, 1.0, 0.5)]))
        edges = external_boundary_edges(m)
        assert len(edges) == 16  # 4 per side
        for a, b in edges:
            xa, xb = m.nodes[a], m.nodes[b]
            on_box = [
                abs(v) < 1e-12 or abs(v - 1.0) < 1e-12
                for v in (xa[0], xa[1], xb[0], xb[1])
            ]
            assert (on_box[0] and on_box[2]) or (on_box[1] and on_box[3])

    def test_side_selector(self):
        m = built(generate_rect_mesh(1.0, 2.0, 4, 4, fractures=[]))
        top = select_boundary_edges(m, "top")
        assert len(top) == 4
        assert np.allclose(m.nodes[top.ravel()][:, 1], 2.0)

    @pytest.mark.parametrize(
        "name", ["inclined-crack", "sneddon", "crossing-multi"]
    )
    def test_cached_sides_equal_uncached_filter(self, name):
        from fracfem import presets
        from fracfem.config import build_mesh

        mesh = build_mesh(presets.get(name))
        edges = external_boundary_edges(mesh)
        assert "boundary_sides" not in mesh.__dict__
        first = {side: select_boundary_edges(mesh, side) for side in BOUNDARY_SIDES}
        for side in BOUNDARY_SIDES:
            got = select_boundary_edges(mesh, side)
            assert got is first[side] is mesh.boundary_sides[side]  # built once
            np.testing.assert_array_equal(got, _ref_select(mesh, edges, side))
            assert got.dtype == np.int64
            assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0
        with pytest.raises(TypeError):
            mesh.boundary_sides["top"] = edges

    def test_unknown_side_rejected(self):
        m = built(generate_rect_mesh(1.0, 1.0, 2, 2))
        with pytest.raises(ValueError, match="unknown boundary side 'north'"):
            select_boundary_edges(m, "north")
        assert "boundary_sides" not in m.__dict__


# Reference boundary queries: the per-element dict loops the edge table
# replaced, kept verbatim so the vectorized versions are checked against
# them edge for edge, order included.
def _ref_edge_key(a, b):
    return (a, b) if a < b else (b, a)


def _ref_edge_counts(elements):
    counts = {}
    for tri in elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[_ref_edge_key(a, b)] = counts.get(_ref_edge_key(a, b), 0) + 1
    return counts


def _ref_boundary_nodes(elements):
    out = set()
    for (a, b), c in _ref_edge_counts(elements).items():
        if c == 1:
            out.add(a)
            out.add(b)
    return out


def _ref_external_boundary_edges(mesh):
    counts = _ref_edge_counts(mesh.elements)
    faces = set()
    for segs in mesh.faces:
        for pu, mu, pv, mv in segs:
            faces.add(_ref_edge_key(pu, pv))
            faces.add(_ref_edge_key(mu, mv))
    edges = [e for e, c in counts.items() if c == 1 and e not in faces]
    edges.sort()
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _ref_select(mesh, edges, side, tol=1e-9):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    t = tol * max(hi[0] - lo[0], hi[1] - lo[1])
    axis, value = {
        "left": (0, lo[0]),
        "right": (0, hi[0]),
        "bottom": (1, lo[1]),
        "top": (1, hi[1]),
    }[side]
    keep = []
    for a, b in edges:
        if abs(mesh.nodes[a, axis] - value) <= t and abs(
            mesh.nodes[b, axis] - value
        ) <= t:
            keep.append((a, b))
    return np.array(keep, dtype=np.int64).reshape(-1, 2)


def _file_mesh(tmp_path):
    mesh = generate_rect_mesh(
        4.0, 4.0, 8, 8, fractures=[(1.0, 2.0, 3.0, 2.0), (2.0, 1.0, 2.0, 3.0)]
    )
    path = tmp_path / "cross.msh"
    save_mesh(mesh, path)
    return built(load_mesh(path))


class TestEdgeTable:
    def assert_matches_reference(self, mesh):
        from fracfem.mesh import _boundary_nodes, _edge_table

        table = _edge_table(mesh.elements)
        assert _boundary_nodes(table) == _ref_boundary_nodes(mesh.elements)
        ref = _ref_external_boundary_edges(mesh)
        got = external_boundary_edges(mesh)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref)
        for side in ("left", "right", "bottom", "top"):
            sel = select_boundary_edges(mesh, side)
            assert sel.dtype == np.int64 and sel.shape[1] == 2
            np.testing.assert_array_equal(sel, _ref_select(mesh, ref, side))

    @pytest.mark.parametrize(
        "name",
        ["inclined-crack", "shear-throughgoing", "sneddon",
         "crossing-single", "crossing-multi"],
    )
    def test_preset_meshes(self, name):
        from fracfem import presets
        from fracfem.config import build_mesh

        self.assert_matches_reference(build_mesh(presets.get(name)))

    def test_file_mesh(self, tmp_path):
        self.assert_matches_reference(_file_mesh(tmp_path))

    def test_query_before_split_and_after_pairs(self):
        raw = generate_rect_mesh(
            2.0, 2.0, 8, 8, fractures=[(0.0, 1.0, 2.0, 1.0)]
        )
        self.assert_matches_reference(raw)
        before = external_boundary_edges(raw)
        assert len(before) == 32  # unsplit: the fracture is interior
        split = split_fractures(raw)
        self.assert_matches_reference(split)
        m = build_contact_pairs(split)
        self.assert_matches_reference(m)
        after = external_boundary_edges(m)
        np.testing.assert_array_equal(external_boundary_edges(split), after)
        # splitting the through-going path renumbers one end of the edges
        # beside its endpoints; the fracture faces are not external
        assert len(after) == 32
        assert after.max() >= raw.n_nodes
        np.testing.assert_array_equal(external_boundary_edges(raw), before)

    @staticmethod
    def count_tables(monkeypatch):
        import fracfem.mesh

        calls = []
        real = fracfem.mesh._edge_table

        def counting(elements):
            calls.append(len(elements))
            return real(elements)

        monkeypatch.setattr(fracfem.mesh, "_edge_table", counting)
        return calls

    @pytest.mark.parametrize("name", ["inclined-crack", "crossing-multi"])
    def test_one_table_per_mesh_stage(self, monkeypatch, name):
        from fracfem import presets
        from fracfem.config import build_mesh

        calls = self.count_tables(monkeypatch)
        mesh = build_mesh(presets.get(name))
        # generation checks the mesh, and splitting reuses its table
        assert len(calls) == 1
        for side in ("left", "right", "bottom", "top", "top"):
            select_boundary_edges(mesh, side)
        assert len(calls) == 2  # the boundary edges, once per built mesh
        assert mesh.boundary_edges is mesh.boundary_edges
        assert not mesh.boundary_edges.flags.writeable
        np.testing.assert_array_equal(mesh.boundary_edges,
                                      external_boundary_edges(mesh))

    def test_one_table_per_file_mesh_stage(self, monkeypatch, tmp_path):
        mesh = generate_rect_mesh(
            4.0, 4.0, 8, 8, fractures=[(0.0, 2.0, 4.0, 2.0), (2.0, 1.0, 2.0, 3.0)]
        )
        path = tmp_path / "line.msh"
        save_mesh(mesh, path)
        calls = self.count_tables(monkeypatch)
        loaded = load_mesh(path)
        assert len(calls) == 1
        assert [f.is_through_going for f in loaded.fractures] == [True, False]
        split_fractures(loaded)
        split_fractures(loaded)
        assert len(calls) == 1

    def test_checked_mesh_is_read_only(self):
        # the cached table stands for checked nodes and elements: an edit
        # in place after the check raises instead of skipping it
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2, fractures=[(0.0, 0.5, 1.0, 0.5)])
        table = mesh.edge_table
        assert mesh.edge_table is table
        for arr in (mesh.nodes, mesh.elements):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mesh.elements[0] = mesh.elements[0, ::-1]
        with pytest.raises(ValueError, match="read-only"):
            mesh.nodes[4] = (0.5, 2.0)
        # the split copy is writeable and gets a table of its own
        split = split_fractures(mesh)
        assert split.elements.flags.writeable
        assert "edge_table" not in vars(split)

    def test_split_reads_only_the_elements_around_its_paths(self):
        from fracfem import presets
        from fracfem.mesh import FractureSpec, _elements_around

        cfg = presets.get("crossing-multi")
        mesh = generate_rect_mesh(
            fractures=[FractureSpec(**f) for f in cfg.fractures], **cfg.generator
        )
        nodes = {n for f in mesh.fractures for n in f.nodes}
        around, tris = _elements_around(mesh, nodes)
        for n in nodes:
            assert around[n] == np.flatnonzero((mesh.elements == n).any(axis=1)).tolist()
        assert sorted(tris) == sorted(set().union(*around.values()))
        assert len(tris) == 544 < mesh.n_elements
        for e, tri in tris.items():
            assert tri == mesh.elements[e].tolist()
        assert split_fractures(mesh).faces

    def test_fracture_checks_run_on_every_split(self):
        # the table is cached, the fracture checks are not: fractures edited
        # after the first split are checked again on the next
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2, fractures=[(0.0, 0.5, 1.0, 0.5)])
        split_fractures(mesh)
        mesh.fractures[0].nodes = [0, 8]
        with pytest.raises(NonConformingPathError, match="0-8"):
            split_fractures(mesh)

    def test_bad_hand_built_mesh_rejected_by_split(self):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        clockwise = Mesh(nodes=m.nodes, elements=m.elements[:, ::-1].copy(),
                         fractures=[FracturePath(id=0, nodes=[0, 4])])
        with pytest.raises(MeshFormatError, match="non-positive area"):
            split_fractures(clockwise)
        short = Mesh(nodes=m.nodes, elements=m.elements,
                     fractures=[FracturePath(id=0, nodes=[4])])
        with pytest.raises(NonConformingPathError, match="fewer than 2"):
            split_fractures(short)

    def test_non_conforming_segment_rejected_by_table(self):
        m = generate_rect_mesh(1.0, 1.0, 2, 2)
        bad = Mesh(nodes=m.nodes, elements=m.elements,
                   fractures=[FracturePath(id=0, nodes=[0, 8])])
        with pytest.raises(NonConformingPathError, match="0-8"):
            split_fractures(bad)
        beyond = Mesh(nodes=m.nodes, elements=m.elements,
                      fractures=[FracturePath(id=0, nodes=[2, 13])])
        # key 2*9 + 13 would alias the real edge 3-4 without the range check
        with pytest.raises(NonConformingPathError, match="2-13"):
            split_fractures(beyond)

    def test_non_edge_past_the_last_key_rejected(self):
        # square split along 0-1: nodes 2 and 3 are the two highest ids and
        # not joined, so the key of 2-3 sorts after every edge key
        nodes = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        elements = np.array([[0, 2, 1], [0, 1, 3]])
        for path, name in (([2, 3], "2-3"), ([3, 2], "3-2")):
            bad = Mesh(nodes=nodes, elements=elements,
                       fractures=[FracturePath(id=0, nodes=path)])
            with pytest.raises(NonConformingPathError, match=name):
                split_fractures(bad)

    def test_fracture_on_mesh_without_elements_rejected(self, tmp_path):
        path = tmp_path / "empty.msh"
        path.write_text(
            "NODES 3\n0 0 0\n1 1 0\n2 1 1\nELEMENTS 0\n"
            "FRACTURES 1\n0 2 0 1\nEND\n"
        )
        with pytest.raises(NonConformingPathError, match="0-1"):
            load_mesh(path)


# Reference structured generator: the per-cell loops that array operations
# replaced, kept verbatim so the new version is checked against them entry
# for entry, order included.
def _ref_rect_nodes_elements(width, height, nx, ny, pattern="diagonal"):
    hx = width / nx
    hy = height / ny

    n_corner = (nx + 1) * (ny + 1)

    def corner(i, j):
        return j * (nx + 1) + i

    def center(i, j):
        return n_corner + j * nx + i

    nodes = np.empty(
        (n_corner + (nx * ny if pattern == "crossed" else 0), 2)
    )
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes[corner(i, j)] = (i * hx, j * hy)
    if pattern == "crossed":
        for j in range(ny):
            for i in range(nx):
                nodes[center(i, j)] = ((i + 0.5) * hx, (j + 0.5) * hy)

    tris = []
    for j in range(ny):
        for i in range(nx):
            n00 = corner(i, j)
            n10 = corner(i + 1, j)
            n01 = corner(i, j + 1)
            n11 = corner(i + 1, j + 1)
            if pattern == "diagonal":
                tris.append((n00, n10, n11))
                tris.append((n00, n11, n01))
            else:
                c = center(i, j)
                tris.append((n00, n10, c))
                tris.append((n10, n11, c))
                tris.append((n11, n01, c))
                tris.append((n01, n00, c))
    elements = np.array(tris, dtype=np.int64)
    return nodes, elements


class TestArrayGeneratorMatchesLoops:
    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    @pytest.mark.parametrize(
        "width, height, nx, ny",
        [(1.0, 1.0, 1, 1), (3.0, 2.0, 3, 5), (7.3, 1.1, 7, 2),
         (12.0, 12.0, 120, 120), (10.0, 10.0, 50, 50)],
    )
    def test_nodes_and_elements_equal(self, width, height, nx, ny, pattern):
        nodes, elements = _ref_rect_nodes_elements(width, height, nx, ny, pattern)
        m = generate_rect_mesh(width, height, nx, ny, pattern=pattern)
        assert np.array_equal(m.nodes, nodes)
        assert np.array_equal(m.elements, elements)
        assert m.nodes.dtype == nodes.dtype
        assert m.elements.dtype == elements.dtype
