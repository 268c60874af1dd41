"""Conforming triangular meshes with embedded fracture paths.

A fracture is an ordered polyline of mesh nodes that follows existing element
edges.  Splitting duplicates the nodes along each path so the two faces can
displace independently; contact pairs then couple the duplicated nodes back
together through the contact solver.

Side convention: walking a path in node order, the tangent points forward and
the unit normal is the tangent rotated +90 degrees, i.e. it points to the
LEFT of the walking direction.  The left side is the "plus" face, so the
normal points from the minus face toward the plus face.  The tangent stored
on a pair is the normal rotated -90 degrees, which recovers the walking
direction on straight paths.

At a two-fracture intersection the shared node is duplicated four times, one
copy per quadrant of elements.  The two diagonal pairings of those four
copies, instantiated once per fracture with that fracture's frame, are the
"crossing pairs" that prevent interpenetration at the intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
BOUNDARY_SIDES = ("left", "right", "bottom", "top")
# boundary-side tolerance, relative to the larger span of the bounding box
SIDE_TOL = 1e-9


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonConformingPathError(ValueError):
    """A fracture segment does not coincide with a mesh edge."""


class AmbiguousSideError(ValueError):
    """An element centroid sits on the fracture line within tolerance."""


@dataclass
class FracturePath:
    """Ordered node polyline of one fracture (pre-split node ids)."""

    id: int
    nodes: list
    is_through_going: bool = False
    gap0: float = 0.0


@dataclass
class ContactPair:
    """Matched plus/minus duplicate nodes with their local frame.

    ``normal`` points from the minus face to the plus face and is fixed for
    the whole simulation.  ``weight`` scales the pair's constraint rows: a
    regular pair's tributary arc length (half of each adjacent chain
    segment), a quarter of the two adjacent segments for a crossing pair's
    point constraint.
    """

    id: int
    node_plus: int
    node_minus: int
    fracture: int
    arc_coord: float
    normal: np.ndarray
    tangent: np.ndarray
    is_crossing_pair: bool = False
    gap0: float = 0.0
    weight: float = 0.0

    def __eq__(self, other):
        # field by field: the generated __eq__ compares the frame arrays as
        # a tuple, which raises on their elementwise truth value
        if not isinstance(other, ContactPair):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass
class ChainNode:
    """One station along a fracture, used for per-segment bookkeeping
    (tributary lengths, face loads, face-edge identification).

    ``lp``/``lm`` are the plus/minus node ids seen by the segment arriving
    from lower arc coordinate, ``rp``/``rm`` by the departing segment.  At
    crack tips all four collapse to the unduplicated node (zero jump); at
    intersections the two sides differ because the opposite fracture cuts
    the face.  ``pair`` is the regular contact pair collocated here, or None
    for tips and intersections.
    """

    eta: float
    pair: int | None
    lp: int
    lm: int
    rp: int
    rm: int
    kind: str  # "pair" | "tip" | "crossing"


@dataclass
class Intersection:
    """Bookkeeping for one two-fracture crossing."""

    node: int
    fractures: tuple
    quadrants: dict


class PairArrays(NamedTuple):
    """Pair data as arrays, one row per pair in id order."""

    dofs: np.ndarray  # (n_cp, 4): x, y dofs of the plus node, then the minus node
    normal: np.ndarray  # (n_cp, 2)
    tangent: np.ndarray  # (n_cp, 2)
    weight: np.ndarray
    gap0: np.ndarray
    crossing: np.ndarray  # bool


@dataclass
class Mesh:
    """Triangular mesh with fracture bookkeeping.

    ``nodes`` is (n, 2) float64, ``elements`` (m, 3) int with CCW
    connectivity.  After :func:`split_fractures` the duplicated-node maps are
    filled; after :func:`build_contact_pairs` the pairs and per-fracture
    chains exist.  A fully built mesh is treated as immutable.
    """

    nodes: np.ndarray
    elements: np.ndarray
    fractures: list
    pairs: list = field(default_factory=list)
    plus_map: dict = field(default_factory=dict)
    minus_map: dict = field(default_factory=dict)
    intersections: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    split_done: bool = False

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def n_pairs(self):
        return len(self.pairs)

    @cached_property
    def pair_arrays(self):
        """:class:`PairArrays` of ``pairs``, built once: a built mesh is
        immutable, and :func:`build_contact_pairs` returns a new ``Mesh``."""
        pairs = self.pairs
        nodes = np.array([(p.node_plus, p.node_minus) for p in pairs], dtype=np.int64)
        dofs = (2 * nodes.reshape(-1, 2))[:, [0, 0, 1, 1]] + [0, 1, 0, 1]
        return PairArrays(
            dofs=dofs,
            normal=np.array([p.normal for p in pairs], dtype=float).reshape(-1, 2),
            tangent=np.array([p.tangent for p in pairs], dtype=float).reshape(-1, 2),
            weight=np.array([p.weight for p in pairs], dtype=float),
            gap0=np.array([p.gap0 for p in pairs], dtype=float),
            crossing=np.array([p.is_crossing_pair for p in pairs], dtype=bool),
        )

    @cached_property
    def boundary_edges(self):
        """Read-only :func:`external_boundary_edges` of this mesh, built once
        like ``pair_arrays``; :func:`select_boundary_edges` filters it."""
        edges = external_boundary_edges(self)
        edges.flags.writeable = False
        return edges

    @cached_property
    def boundary_sides(self):
        """Read-only mapping of each side of the bounding box (left, right,
        bottom, top) to its ``boundary_edges``, built once per mesh;
        :func:`select_boundary_edges` reads it."""
        edges = self.boundary_edges
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        t = SIDE_TOL * max(hi[0] - lo[0], hi[1] - lo[1])
        sides = {}
        for side, axis, value in (
            ("left", 0, lo[0]),
            ("right", 0, hi[0]),
            ("bottom", 1, lo[1]),
            ("top", 1, hi[1]),
        ):
            on_side = np.abs(self.nodes[edges, axis] - value) <= t
            sides[side] = edges[on_side.all(axis=1)]
            sides[side].flags.writeable = False
        return MappingProxyType(sides)

    def signed_areas(self):
        x = self.nodes[self.elements]
        return 0.5 * (
            (x[:, 1, 0] - x[:, 0, 0]) * (x[:, 2, 1] - x[:, 0, 1])
            - (x[:, 2, 0] - x[:, 0, 0]) * (x[:, 1, 1] - x[:, 0, 1])
        )

    def centroids(self):
        return self.nodes[self.elements].mean(axis=1)


def rot90(v):
    """Rotate a 2-vector by +90 degrees (left normal of a direction)."""
    return np.array([-v[1], v[0]])


def rot_minus90(v):
    return np.array([v[1], -v[0]])


def _unit(v):
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise ValueError("zero-length direction")
    return np.asarray(v, dtype=float) / n


def _edge_key(a, b):
    return (a, b) if a < b else (b, a)


def _edge_table(elements):
    """Undirected element edges as (keys, counts, base).

    Edge (lo, hi) with lo < hi is the int64 key ``lo * base + hi``; keys are
    sorted and unique, so their order is the lexicographic order of the
    node pairs, and ``counts`` gives the number of adjacent elements.
    """
    tri = np.asarray(elements, dtype=np.int64).reshape(-1, 3)
    base = int(tri.max()) + 1 if tri.size else 1
    a = tri.ravel()
    b = tri[:, [1, 2, 0]].ravel()
    keys, counts = np.unique(
        np.minimum(a, b) * base + np.maximum(a, b), return_counts=True
    )
    return keys, counts, base


def _edge_keys(edges, base):
    """Keys of an (n, 2) node-pair array in the encoding of _edge_table."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e.min(axis=1) * base + e.max(axis=1)


def _validate(mesh, table, area_tol_rel=1e-12):
    """Check element orientation and that every fracture segment is an edge
    of ``table``, the :func:`_edge_table` of ``mesh.elements``."""
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    scale = max(float(np.hypot(*span)), 1.0)
    areas = mesh.signed_areas()
    bad = np.where(areas <= area_tol_rel * scale * scale)[0]
    if bad.size:
        raise MeshFormatError(
            f"element {bad[0]} has non-positive area (nodes must be CCW)"
        )
    keys, _, base = table
    for frac in mesh.fractures:
        if len(frac.nodes) < 2:
            raise NonConformingPathError(f"fracture {frac.id} has fewer than 2 nodes")
        seg = np.column_stack([frac.nodes[:-1], frac.nodes[1:]]).astype(np.int64)
        seg_keys = _edge_keys(seg, base)
        # sorted search in the unique keys; no edge sorts past the last key
        pos = np.searchsorted(keys, seg_keys)
        edge = pos < keys.size
        edge[edge] = keys[pos[edge]] == seg_keys[edge]
        known = ((seg >= 0) & (seg < base)).all(axis=1)
        bad = np.flatnonzero(~(known & edge))
        if bad.size:
            a, b = seg[bad[0]]
            raise NonConformingPathError(
                f"fracture {frac.id}: segment {a}-{b} is not a mesh edge"
            )


def _boundary_nodes(table):
    """Nodes on single-adjacency edges of an :func:`_edge_table`."""
    keys, counts, base = table
    single = keys[counts == 1]
    return set(np.union1d(single // base, single % base).tolist())


def _check_and_mark(mesh):
    """Validate a freshly read or generated mesh and mark its through-going
    fractures, from one edge table."""
    table = _edge_table(mesh.elements)
    _validate(mesh, table)
    boundary = _boundary_nodes(table)
    for frac in mesh.fractures:
        frac.is_through_going = (
            frac.nodes[0] in boundary and frac.nodes[-1] in boundary
        )


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_mesh(path):
    """Read the line-oriented text mesh format.

    Sections NODES/ELEMENTS/FRACTURES followed by END; ``#`` starts a
    comment.  Fractures are registered but not split.  The ``k`` fracture
    ids must be 0..k-1, each once; fractures are stored in id order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()

    tokens = []  # (line_no, fields)
    for i, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((i, body.split()))

    pos = 0

    def next_line(expect=None):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError("unexpected end of file", len(raw))
        ln, fields = tokens[pos]
        pos += 1
        if expect is not None and fields[0].upper() != expect:
            raise MeshFormatError(f"expected {expect}, got {fields[0]!r}", ln)
        return ln, fields

    def section_count(name, least):
        ln, fields = next_line(name)
        try:
            count = int(fields[1])
        except (IndexError, ValueError):
            raise MeshFormatError(f"{name} needs a count", ln) from None
        if count < least:
            raise MeshFormatError(
                f"{name} count must be at least {least}, got {count}", ln
            )
        return count

    n_nodes = section_count("NODES", 1)

    nodes = np.empty((n_nodes, 2))
    seen = set()
    for _ in range(n_nodes):
        ln, f = next_line()
        try:
            nid, x, y = int(f[0]), float(f[1]), float(f[2])
        except (IndexError, ValueError):
            raise MeshFormatError("node line must be 'id x y'", ln) from None
        if nid in seen:
            raise MeshFormatError(f"duplicate node id {nid}", ln)
        if not 0 <= nid < n_nodes:
            raise MeshFormatError(f"node id {nid} out of range", ln)
        seen.add(nid)
        nodes[nid] = (x, y)

    n_elem = section_count("ELEMENTS", 0)

    elements = np.empty((n_elem, 3), dtype=np.int64)
    seen = set()
    for _ in range(n_elem):
        ln, f = next_line()
        try:
            eid = int(f[0])
            conn = [int(f[1]), int(f[2]), int(f[3])]
        except (IndexError, ValueError):
            raise MeshFormatError("element line must be 'id n0 n1 n2'", ln) from None
        if eid in seen:
            raise MeshFormatError(f"duplicate element id {eid}", ln)
        if not 0 <= eid < n_elem:
            raise MeshFormatError(f"element id {eid} out of range", ln)
        if any(not 0 <= n < n_nodes for n in conn):
            raise MeshFormatError(f"element {eid} references unknown node", ln)
        seen.add(eid)
        elements[eid] = conn

    n_frac = section_count("FRACTURES", 0)

    fractures = [None] * n_frac  # ids index the per-fracture chains
    for _ in range(n_frac):
        ln, f = next_line()
        try:
            fid = int(f[0])
            length = int(f[1])
            path = [int(t) for t in f[2 : 2 + length]]
        except (IndexError, ValueError):
            raise MeshFormatError("fracture line must be 'id len node...'", ln) from None
        if not 0 <= fid < n_frac:
            raise MeshFormatError(f"fracture id {fid} out of range", ln)
        if fractures[fid] is not None:
            raise MeshFormatError(f"duplicate fracture id {fid}", ln)
        if len(path) != length:
            raise MeshFormatError(f"fracture {fid}: expected {length} nodes", ln)
        if any(not 0 <= n < n_nodes for n in path):
            raise MeshFormatError(f"fracture {fid} references unknown node", ln)
        fractures[fid] = FracturePath(id=fid, nodes=path)

    next_line("END")

    mesh = Mesh(nodes=nodes, elements=elements, fractures=fractures)
    _check_and_mark(mesh)
    return mesh


def save_mesh(mesh, path):
    """Write the text format.  Only unsplit meshes can be saved."""
    if mesh.split_done:
        raise ValueError("cannot save a split mesh; save before split_fractures")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NODES {mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
        fh.write(f"ELEMENTS {mesh.n_elements}\n")
        for i, tri in enumerate(mesh.elements):
            fh.write(f"{i} {tri[0]} {tri[1]} {tri[2]}\n")
        fh.write(f"FRACTURES {len(mesh.fractures)}\n")
        for frac in mesh.fractures:
            ids = " ".join(str(n) for n in frac.nodes)
            fh.write(f"{frac.id} {len(frac.nodes)} {ids}\n")
        fh.write("END\n")


# ---------------------------------------------------------------------------
# structured generator
# ---------------------------------------------------------------------------

@dataclass
class FractureSpec:
    """Straight fracture segment for the structured generator."""

    x0: float
    y0: float
    x1: float
    y1: float
    gap0: float = 0.0


def generate_rect_mesh(width, height, nx, ny, fractures=(), pattern="diagonal"):
    """Structured triangulation of a rectangle with optional fractures.

    ``pattern="diagonal"`` splits every cell into 2 triangles along the
    bottom-left/top-right diagonal; ``pattern="crossed"`` adds a cell-center
    node and 4 triangles per cell (needed when fractures of both +-45 degree
    orientations must conform).  Fracture segments must run along grid lines
    or along the 45-degree lattice directions and their endpoints must land
    on grid nodes.
    """
    if pattern not in ("diagonal", "crossed"):
        raise ValueError(f"unknown pattern {pattern!r}")
    hx = width / nx
    hy = height / ny

    n_corner = (nx + 1) * (ny + 1)

    def corner(i, j):
        return j * (nx + 1) + i

    def center(i, j):
        return n_corner + j * nx + i

    xs, ys = np.meshgrid(np.arange(nx + 1) * hx, np.arange(ny + 1) * hy)
    nodes = [np.column_stack([xs.ravel(), ys.ravel()])]
    ids = np.arange(n_corner).reshape(ny + 1, nx + 1)
    n00, n10 = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    n01, n11 = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    if pattern == "diagonal":
        cell_tris = [(n00, n10, n11), (n00, n11, n01)]
    else:
        xc, yc = np.meshgrid((np.arange(nx) + 0.5) * hx, (np.arange(ny) + 0.5) * hy)
        nodes.append(np.column_stack([xc.ravel(), yc.ravel()]))
        c = n_corner + np.arange(nx * ny)
        cell_tris = [(n00, n10, c), (n10, n11, c), (n11, n01, c), (n01, n00, c)]
    nodes = np.vstack(nodes)
    # (cell, triangle, vertex) in row-major cell order
    elements = np.stack([np.column_stack(t) for t in cell_tris], axis=1).reshape(-1, 3)

    snap_tol = 1e-8 * min(hx, hy)

    def snap(x, y, what):
        i = round(x / hx)
        j = round(y / hy)
        if 0 <= i <= nx and 0 <= j <= ny:
            if abs(i * hx - x) <= snap_tol and abs(j * hy - y) <= snap_tol:
                return ("corner", i, j)
        if pattern == "crossed":
            ic = round(x / hx - 0.5)
            jc = round(y / hy - 0.5)
            if 0 <= ic < nx and 0 <= jc < ny:
                if (
                    abs((ic + 0.5) * hx - x) <= snap_tol
                    and abs((jc + 0.5) * hy - y) <= snap_tol
                ):
                    return ("center", ic, jc)
        raise NonConformingPathError(
            f"{what} ({x}, {y}) does not coincide with a grid node"
        )

    paths = []
    for k, spec in enumerate(fractures):
        if not isinstance(spec, FractureSpec):
            spec = FractureSpec(*spec)
        a = snap(spec.x0, spec.y0, f"fracture {k} start")
        b = snap(spec.x1, spec.y1, f"fracture {k} end")
        path = _lattice_path(a, b, nx, ny, hx, hy, pattern, corner, center, k)
        paths.append(FracturePath(id=k, nodes=path, gap0=spec.gap0))

    mesh = Mesh(nodes=nodes, elements=elements, fractures=paths)
    _check_and_mark(mesh)
    return mesh


def _lattice_path(a, b, nx, ny, hx, hy, pattern, corner, center, fid):
    """Walk the lattice from snapped endpoint a to b, returning node ids."""
    ax = (a[1] + (0.5 if a[0] == "center" else 0.0)) * hx
    ay = (a[2] + (0.5 if a[0] == "center" else 0.0)) * hy
    bx = (b[1] + (0.5 if b[0] == "center" else 0.0)) * hx
    by = (b[2] + (0.5 if b[0] == "center" else 0.0)) * hy
    dx, dy = bx - ax, by - ay

    horizontal = abs(dy) < 1e-12 * hy
    vertical = abs(dx) < 1e-12 * hx
    diagonal = abs(abs(dx) - abs(dy)) < 1e-12 * max(hx, hy)

    if horizontal and vertical:
        raise NonConformingPathError(f"fracture {fid} has zero length")

    if horizontal or vertical:
        if a[0] != "corner" or b[0] != "corner":
            raise NonConformingPathError(
                f"fracture {fid}: axis-aligned fractures must follow grid lines"
            )
        i0, j0, i1, j1 = a[1], a[2], b[1], b[2]
        if (i0 == 0 and i1 == 0) or (i0 == nx and i1 == nx) or (
            j0 == 0 and j1 == 0
        ) or (j0 == ny and j1 == ny):
            raise NonConformingPathError(
                f"fracture {fid} lies along the external boundary"
            )
        if horizontal:
            step = 1 if i1 > i0 else -1
            return [corner(i, j0) for i in range(i0, i1 + step, step)]
        step = 1 if j1 > j0 else -1
        return [corner(i0, j) for j in range(j0, j1 + step, step)]

    if not diagonal:
        raise NonConformingPathError(
            f"fracture {fid}: direction is neither axis-aligned nor 45 degrees"
        )
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise NonConformingPathError(
            f"fracture {fid}: 45-degree fractures need square cells"
        )

    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1

    if pattern == "diagonal":
        # Only the bottom-left/top-right diagonal exists as edges.
        if sx != sy:
            raise NonConformingPathError(
                f"fracture {fid}: this lattice has no {'anti-' if sx != sy else ''}"
                "diagonal edges; use pattern='crossed'"
            )
        if a[0] != "corner" or b[0] != "corner":
            raise NonConformingPathError(
                f"fracture {fid}: diagonal-pattern fractures start on corners"
            )
        n_hops = abs(round(dx / hx))
        return [corner(a[1] + sx * k, a[2] + sy * k) for k in range(n_hops + 1)]

    # crossed pattern: hop alternates corner <-> center along the diagonal
    n_hops = abs(round(2.0 * dx / hx))
    path = []
    kind, i, j = a
    for _ in range(n_hops + 1):
        if kind == "corner":
            path.append(corner(i, j))
            # move half a cell to the next center
            ic = i if sx > 0 else i - 1
            jc = j if sy > 0 else j - 1
            if not (0 <= ic < nx and 0 <= jc < ny):
                ic = jc = None
            kind, i, j = "center", ic, jc
        else:
            if i is None:
                raise NonConformingPathError(
                    f"fracture {fid} leaves the domain"
                )
            path.append(center(i, j))
            kind, i, j = "corner", i + (1 if sx > 0 else 0), j + (1 if sy > 0 else 0)
    return path


# ---------------------------------------------------------------------------
# node splitting
# ---------------------------------------------------------------------------

def _node_elements(elements, n_nodes):
    """Node-to-element incidence in CSR form, as (ptr, elem).

    The elements around node ``n`` are ``elem[ptr[n]:ptr[n + 1]]``, in
    ascending order (a stable sort of the connectivity keeps element order).
    """
    flat = np.asarray(elements).ravel()
    ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_nodes), out=ptr[1:])
    return ptr, np.argsort(flat, kind="stable") // 3


def _sector_side(p, dir_next, dir_prev, h_local):
    """Return a classifier point -> +1 (left of travel) / -1 (right).

    The elements fanning around a path node are separated by the two rays
    toward the next and previous path nodes; everything swept CCW from the
    next-ray to the prev-ray lies on the left (plus) side.
    """
    th_next = math.atan2(dir_next[1], dir_next[0])
    th_prev = math.atan2(dir_prev[1], dir_prev[0])
    width = (th_prev - th_next) % TWO_PI
    rays = (_unit(dir_next), _unit(dir_prev))

    def side_of(point):
        v = point - p
        for d in rays:
            if v @ d > 0.0 and abs(d[0] * v[1] - d[1] * v[0]) < 1e-12 * h_local:
                raise AmbiguousSideError(
                    f"centroid {tuple(point)} lies on the fracture line at node "
                    f"{tuple(p)}"
                )
        ang = (math.atan2(v[1], v[0]) - th_next) % TWO_PI
        return 1 if ang < width else -1

    return side_of


def _path_rays(mesh, path, k):
    """Directions from path[k] toward the next/previous path nodes.

    Endpoints get the straight extension of their single segment so the
    classifier degenerates to a half-plane test.
    """
    p = mesh.nodes[path[k]]
    if k + 1 < len(path):
        d_next = mesh.nodes[path[k + 1]] - p
    else:
        d_next = p - mesh.nodes[path[k - 1]]
    if k > 0:
        d_prev = mesh.nodes[path[k - 1]] - p
    else:
        d_prev = -d_next
    return d_next, d_prev


def split_fractures(mesh):
    """Duplicate nodes along every registered fracture path.

    Interior path nodes become plus/minus copies (the plus side keeps the
    original id); nodes shared by two crossing paths become four copies, one
    per element quadrant.  Crack tips interior to the domain are left intact
    so the jump vanishes there.  Returns a new Mesh.
    """
    if mesh.split_done:
        raise ValueError("fractures already split")
    table = _edge_table(mesh.elements)
    _validate(mesh, table)

    usage = {}
    for frac in mesh.fractures:
        for k, nid in enumerate(frac.nodes):
            usage.setdefault(nid, []).append((frac.id, k))
        seen = set(frac.nodes)
        if len(seen) != len(frac.nodes):
            raise NonConformingPathError(
                f"fracture {frac.id} visits a node twice"
            )

    frac_by_id = {f.id: f for f in mesh.fractures}
    boundary = _boundary_nodes(table)

    crossing_nodes = {}
    for nid, uses in usage.items():
        if len(uses) == 1:
            continue
        if len(uses) > 2:
            raise NonConformingPathError(
                f"node {nid} is shared by more than two fractures (unsupported)"
            )
        for fid, k in uses:
            if k == 0 or k == len(frac_by_id[fid].nodes) - 1:
                raise NonConformingPathError(
                    f"node {nid} is a fracture endpoint on another fracture "
                    "(T-junctions are unsupported)"
                )
        crossing_nodes[nid] = sorted(uses)

    ptr, elem = _node_elements(mesh.elements, mesh.n_nodes)
    new_nodes = [mesh.nodes]
    elements = mesh.elements.copy()
    next_id = mesh.n_nodes
    plus_map = {}
    minus_map = {}
    intersections = []

    def alloc(xy):
        nonlocal next_id
        new_nodes.append(np.asarray(xy, dtype=float).reshape(1, 2))
        nid = next_id
        next_id += 1
        return nid

    centroids = mesh.centroids()

    for frac in mesh.fractures:
        path = frac.nodes
        last = len(path) - 1
        for k, nid in enumerate(path):
            if nid in crossing_nodes:
                continue  # handled below, once per crossing
            interior = 0 < k < last
            if not interior and nid not in boundary:
                continue  # crack tip: keep a single node
            d_next, d_prev = _path_rays(mesh, path, k)
            h_local = max(np.hypot(*d_next), np.hypot(*d_prev))
            side_of = _sector_side(mesh.nodes[nid], d_next, d_prev, h_local)
            minus_id = alloc(mesh.nodes[nid])
            for e in elem[ptr[nid] : ptr[nid + 1]]:
                if side_of(centroids[e]) < 0:
                    elements[e][elements[e] == nid] = minus_id
            plus_map[nid] = nid
            minus_map[nid] = minus_id

    for nid, uses in crossing_nodes.items():
        (f1, k1), (f2, k2) = uses
        classifiers = []
        for fid, k in uses:
            path = frac_by_id[fid].nodes
            d_next, d_prev = _path_rays(mesh, path, k)
            h_local = max(np.hypot(*d_next), np.hypot(*d_prev))
            classifiers.append(
                _sector_side(mesh.nodes[nid], d_next, d_prev, h_local)
            )
        quadrants = {}
        elems_by_quadrant = {}
        for e in elem[ptr[nid] : ptr[nid + 1]]:
            key = (classifiers[0](centroids[e]), classifiers[1](centroids[e]))
            elems_by_quadrant.setdefault(key, []).append(e)
        if len(elems_by_quadrant) != 4:
            raise NonConformingPathError(
                f"crossing at node {nid} does not separate elements into four "
                "quadrants (crossings on the boundary are unsupported)"
            )
        quadrants[(1, 1)] = nid
        for key in ((1, -1), (-1, 1), (-1, -1)):
            quadrants[key] = alloc(mesh.nodes[nid])
        for key, elems in elems_by_quadrant.items():
            if key == (1, 1):
                continue
            for e in elems:
                elements[e][elements[e] == nid] = quadrants[key]
        intersections.append(
            Intersection(node=nid, fractures=(f1, f2), quadrants=quadrants)
        )

    out = Mesh(
        nodes=np.vstack(new_nodes),
        elements=elements,
        fractures=[replace(f) for f in mesh.fractures],
        plus_map=plus_map,
        minus_map=minus_map,
        intersections=intersections,
        split_done=True,
    )
    return out


# ---------------------------------------------------------------------------
# contact pairs and integration chains
# ---------------------------------------------------------------------------

def _path_normal(mesh, path, k):
    """Unit normal at a path node: averaged adjacent segment normals."""
    normals = []
    if k > 0:
        normals.append(rot90(_unit(mesh.nodes[path[k]] - mesh.nodes[path[k - 1]])))
    if k + 1 < len(path):
        normals.append(rot90(_unit(mesh.nodes[path[k + 1]] - mesh.nodes[path[k]])))
    n = _unit(np.sum(normals, axis=0))
    return n


def build_contact_pairs(mesh):
    """Create contact pairs and per-fracture integration chains.

    One pair per duplicated regular node; at every crossing, the two diagonal
    pairings of the four duplicates are instantiated for each fracture with
    that fracture's own frame (four crossing pairs total).  Returns a new
    Mesh with ``pairs`` and ``chains`` populated.
    """
    if not mesh.split_done:
        raise ValueError("split_fractures must run before build_contact_pairs")
    if mesh.pairs:
        raise ValueError("contact pairs already built")

    inter_by_node = {rec.node: rec for rec in mesh.intersections}
    pairs = []
    chains = []

    for frac in mesh.fractures:
        path = frac.nodes
        last = len(path) - 1
        xy = mesh.nodes[path]
        seg_len = np.hypot(*(xy[1:] - xy[:-1]).T)
        etas = np.concatenate([[0.0], np.cumsum(seg_len)])
        # tributary arc length: half of the segment before, then after
        half = 0.5 * np.diff(etas)
        trib = np.concatenate([[0.0], half]) + np.concatenate([half, [0.0]])
        chain = []
        for k, nid in enumerate(path):
            eta = float(etas[k])
            if nid in inter_by_node:
                rec = inter_by_node[nid]
                chain.append(
                    _crossing_chain_node(mesh, frac, rec, path, k, eta, seg_len, pairs)
                )
            elif nid in mesh.minus_map:
                normal = _path_normal(mesh, path, k)
                pid = len(pairs)
                pairs.append(
                    ContactPair(
                        id=pid,
                        node_plus=mesh.plus_map[nid],
                        node_minus=mesh.minus_map[nid],
                        fracture=frac.id,
                        arc_coord=eta,
                        normal=normal,
                        tangent=rot_minus90(normal),
                        gap0=frac.gap0,
                        weight=float(trib[k]),
                    )
                )
                p, m = mesh.plus_map[nid], mesh.minus_map[nid]
                chain.append(ChainNode(eta, pid, p, m, p, m, "pair"))
            else:
                chain.append(ChainNode(eta, None, nid, nid, nid, nid, "tip"))
        chains.append(chain)

    return replace(mesh, pairs=pairs, chains=chains)


def _crossing_chain_node(mesh, frac, rec, path, k, eta, seg_len, pairs):
    """Chain entry plus the two crossing pairs owned by ``frac`` at ``rec``."""
    this_first = rec.fractures[0] == frac.id

    def quad(s_this, s_other):
        key = (s_this, s_other) if this_first else (s_other, s_this)
        return rec.quadrants[key]

    # which side of the OTHER fracture each sub-segment lies on
    other_fid, other_k = next(
        u for u in _record_uses(rec, mesh) if u[0] != frac.id
    )
    other_path = next(f.nodes for f in mesh.fractures if f.id == other_fid)
    d_next, d_prev = _path_rays(mesh, other_path, other_k)
    h_local = max(np.hypot(*d_next), np.hypot(*d_prev))
    side_other = _sector_side(mesh.nodes[rec.node], d_next, d_prev, h_local)

    p = mesh.nodes[rec.node]
    s_left = side_other(p + 0.5 * (mesh.nodes[path[k - 1]] - p))
    s_right = side_other(p + 0.5 * (mesh.nodes[path[k + 1]] - p))

    node = ChainNode(
        eta,
        None,
        quad(1, s_left),
        quad(-1, s_left),
        quad(1, s_right),
        quad(-1, s_right),
        "crossing",
    )

    normal = _path_normal(mesh, path, k)
    tangent = rot_minus90(normal)
    weight = 0.25 * (seg_len[k - 1] + seg_len[k])
    for plus_key, minus_key in (((1, 1), (-1, -1)), ((1, -1), (-1, 1))):
        pid = len(pairs)
        pairs.append(
            ContactPair(
                id=pid,
                node_plus=quad(*plus_key),
                node_minus=quad(*minus_key),
                fracture=frac.id,
                arc_coord=eta,
                normal=normal,
                tangent=tangent,
                is_crossing_pair=True,
                gap0=frac.gap0,
                weight=weight,
            )
        )
    return node


def _record_uses(rec, mesh):
    """(fracture id, path index) of the crossing node in both fractures."""
    out = []
    for f in mesh.fractures:
        if f.id in rec.fractures and rec.node in f.nodes:
            out.append((f.id, f.nodes.index(rec.node)))
    return out


# ---------------------------------------------------------------------------
# boundary queries
# ---------------------------------------------------------------------------

def fracture_face_edges(mesh):
    """Set of sorted node-id tuples lying on fracture faces."""
    faces = set()
    for chain in mesh.chains:
        for a, b in zip(chain[:-1], chain[1:]):
            faces.add(_edge_key(a.rp, b.lp))
            faces.add(_edge_key(a.rm, b.lm))
    return faces


def external_boundary_edges(mesh):
    """(n_e, 2) array of node pairs on the external boundary.

    Single-adjacency edges that are not fracture faces.  Requires a mesh with
    built pairs when fractures are present (the chains identify the faces).
    """
    if mesh.split_done and mesh.fractures and not mesh.chains:
        raise ValueError("build_contact_pairs must run before boundary queries")
    keys, counts, base = _edge_table(mesh.elements)
    single = keys[counts == 1]
    if mesh.chains:
        faces = _edge_keys(list(fracture_face_edges(mesh)), base)
        single = single[~np.isin(single, faces)]
    return np.column_stack([single // base, single % base])


def select_boundary_edges(mesh, side):
    """Boundary edges on one side of the bounding box (left/right/bottom/top):
    those whose nodes lie within ``SIDE_TOL`` times the box's larger span of
    that side.  The result is read-only."""
    if side not in BOUNDARY_SIDES:
        raise ValueError(
            f"unknown boundary side {side!r}; expected one of {sorted(BOUNDARY_SIDES)}"
        )
    return mesh.boundary_sides[side]
