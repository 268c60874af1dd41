"""Mesh generation, file round-trips, node splitting, contact pairs."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem.mesh import (
    BOUNDARY_SIDES,
    AmbiguousSideError,
    FracturePath,
    FractureSpec,
    Mesh,
    MeshFormatError,
    NonConformingPathError,
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

    def test_antidiagonal_needs_crossed_pattern(self):
        with pytest.raises(NonConformingPathError):
            generate_rect_mesh(2.0, 2.0, 10, 10, fractures=[(0.4, 1.6, 1.6, 0.4)])
        m = generate_rect_mesh(
            2.0, 2.0, 10, 10, fractures=[(0.4, 1.6, 1.6, 0.4)], pattern="crossed"
        )
        assert len(m.fractures[0].nodes) == 13  # 12 half-diagonal hops

    def test_off_grid_endpoint_rejected(self):
        with pytest.raises(NonConformingPathError):
            generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[(0.13, 0.5, 0.75, 0.5)])

    def test_non_45_direction_rejected(self):
        with pytest.raises(NonConformingPathError):
            generate_rect_mesh(2.0, 2.0, 4, 4, fractures=[(0.0, 0.5, 2.0, 1.5)])

    def test_boundary_fracture_rejected(self):
        with pytest.raises(NonConformingPathError):
            generate_rect_mesh(1.0, 1.0, 4, 4, fractures=[(0.0, 0.0, 1.0, 0.0)])


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
        # ids index the per-fracture chains, so they must be 0..k-1, once each
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
        assert len(s.intersections) == 1
        rec = s.intersections[0]
        assert len(set(rec.quadrants.values())) == 4

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
        cents = s.centroids()
        minus_ids = set(s.minus_map.values())
        plus_ids = set(s.plus_map.values())
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
        with pytest.raises(NonConformingPathError):
            split_fractures(m)

    def test_ambiguous_centroid_raises(self):
        # element (p, s, t) has its centroid exactly on the fracture line
        nodes = np.array([
            [-1.0, 0.0], [0.0, 0.0], [1.0, -1.0], [1.0, 1.0],
            [-1.0, 1.0], [-1.0, -1.0],
        ])
        elements = np.array([
            [1, 2, 3],   # centroid (2/3, 0) on the line y = 0
            [0, 1, 4],
            [0, 5, 1],
        ])
        mesh = Mesh(
            nodes=nodes, elements=elements,
            fractures=[FracturePath(id=0, nodes=[0, 1])],
        )
        with pytest.raises(AmbiguousSideError):
            split_fractures(mesh)


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
        assert len(s.intersections) == 2
        # F1: 11 interior nodes, 2 of them crossings -> 9 plain splits;
        # F2/F3: 3 interior each, 1 crossing -> 2 plain splits; each
        # crossing adds 3 copies
        assert s.n_nodes == m.n_nodes + 9 + 2 + 2 + 2 * 3
        built_mesh = build_contact_pairs(s)
        crossing = [p for p in built_mesh.pairs if p.is_crossing_pair]
        assert len(crossing) == 8
        assert len(built_mesh.pairs) == 13 + 8
        kinds = [c.kind for c in built_mesh.chains[0]]
        assert kinds.count("crossing") == 2
        assert kinds[0] == "tip" and kinds[-1] == "tip"
        for rec in built_mesh.intersections:
            copies = set(rec.quadrants.values())
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
        records = copy.deepcopy(split.intersections)
        assert len(records) == 3
        first = build_contact_pairs(split)
        second = build_contact_pairs(split)
        assert split.intersections == records
        assert first.intersections == records
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

    def test_chain_etas_increase(self):
        m = built(
            generate_rect_mesh(2.0, 2.0, 20, 20, fractures=[(0.5, 0.5, 1.5, 1.5)])
        )
        for chain in m.chains:
            etas = [c.eta for c in chain]
            assert all(b > a for a, b in zip(etas, etas[1:]))


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
    from fracfem.mesh import fracture_face_edges

    counts = _ref_edge_counts(mesh.elements)
    faces = fracture_face_edges(mesh) if mesh.chains else set()
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
        with pytest.raises(ValueError, match="build_contact_pairs"):
            external_boundary_edges(split)
        m = build_contact_pairs(split)
        self.assert_matches_reference(m)
        after = external_boundary_edges(m)
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
        # generation, then splitting (which renumbers element nodes)
        assert len(calls) == 2
        for side in ("left", "right", "bottom", "top", "top"):
            select_boundary_edges(mesh, side)
        assert len(calls) == 3  # the boundary edges, once per built mesh
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
        assert len(calls) == 2

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


# Reference structured generator and node-element incidence: the per-cell
# loops that array operations replaced, kept verbatim so the new versions are
# checked against them entry for entry, order included.
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


def _ref_node_elements(mesh):
    incid = [[] for _ in range(mesh.n_nodes)]
    for e, tri in enumerate(mesh.elements):
        for n in tri:
            incid[n].append(e)
    return incid


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

    def test_csr_incidence_equals_lists_on_crossing_multi(self):
        from fracfem import presets
        from fracfem.config import build_mesh
        from fracfem.mesh import _node_elements

        mesh = build_mesh(presets.crossing_multi())
        assert mesh.intersections
        ptr, elem = _node_elements(mesh.elements, mesh.n_nodes)
        got = [elem[ptr[n] : ptr[n + 1]].tolist() for n in range(mesh.n_nodes)]
        assert got == _ref_node_elements(mesh)
