"""Conforming triangular meshes with embedded fracture paths.

A fracture is an ordered polyline of mesh nodes that follows existing element
edges.  Splitting duplicates the nodes along each path so the two faces can
displace independently; contact pairs then couple the duplicated nodes back
together through the contact solver.

Split rule: cut the fracture edges.  The elements around a fracture node then
fall into groups connected across the node's other edges, and each group gets
one copy of the node.  That is one copy at a crack tip, two at an interior or
boundary node and four at a two-fracture crossing; any other count is a
:class:`NonConformingPathError` naming the node.  The rule reads connectivity
only: no angle, centroid or tolerance.

Face convention: the plus face of a segment ``u -> v`` is the element holding
the directed edge ``u -> v`` in its CCW order, the minus face the one holding
``v -> u``.  So the plus face lies to the LEFT of the walking direction.  The
unit normal is the tangent rotated +90 degrees and points from the minus face
toward the plus face; the tangent stored on a pair is the normal rotated -90
degrees, which recovers the walking direction on straight paths.

At a crossing the four copies sit one per quadrant, and the group on the plus
side of both fractures keeps the node's id.  The two diagonal pairings of the
copies, instantiated once per fracture with that fracture's frame, are the
"crossing pairs" that prevent interpenetration at the intersection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

BOUNDARY_SIDES = ("left", "right", "bottom", "top")
PATTERNS = ("diagonal", "crossed")  # generate_rect_mesh triangulations
# boundary-side tolerance, relative to the larger span of the bounding box
SIDE_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path
    (or the argument, for a function called with an invalid one)."""


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonConformingPathError(ValueError):
    """A fracture segment does not coincide with a mesh edge."""


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
    regular pair's tributary arc length (half of each adjacent path
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
    connectivity.  After :func:`split_fractures`, ``faces`` holds one list
    per fracture with, for each segment ``u -> v``, the copies (plus at
    ``u``, minus at ``u``, plus at ``v``, minus at ``v``); it is the one
    record of which copy sits on which face, and the loads, the boundary
    queries and the pairs all read it.  :func:`build_contact_pairs` adds
    the pairs.  A fully built mesh is treated as immutable; an unsplit one
    is read-only from its ``edge_table`` on.
    """

    nodes: np.ndarray
    elements: np.ndarray
    fractures: list
    pairs: list = field(default_factory=list)
    faces: list = field(default_factory=list)
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
    def edge_table(self):
        """:func:`_edge_table` of ``elements``, built once after the element
        check (:func:`_check_elements`), which it raises on.  ``nodes`` and
        ``elements`` are read-only from then on, so an in-place edit cannot
        slip past the check."""
        _check_elements(self)
        table = _edge_table(self.elements)
        self.nodes.flags.writeable = False
        self.elements.flags.writeable = False
        return table

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


def _check_elements(mesh, area_tol_rel=1e-12):
    """Check that every element is CCW with a positive area."""
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    scale = max(float(np.hypot(*span)), 1.0)
    areas = mesh.signed_areas()
    bad = np.where(areas <= area_tol_rel * scale * scale)[0]
    if bad.size:
        raise MeshFormatError(
            f"element {bad[0]} has non-positive area (nodes must be CCW)"
        )


def _check_fractures(mesh):
    """Check that every fracture segment is an edge of ``mesh.edge_table``
    (which checks the elements first); returns that table."""
    table = mesh.edge_table
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
    return table


def _boundary_nodes(table):
    """Nodes on single-adjacency edges of an :func:`_edge_table`."""
    keys, counts, base = table
    single = keys[counts == 1]
    return set(np.union1d(single // base, single % base).tolist())


def _check_and_mark(mesh):
    """Validate a freshly read or generated mesh and mark its through-going
    fractures, from its one ``edge_table``."""
    boundary = _boundary_nodes(_check_fractures(mesh))
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not UTF-8 text ({exc})") from None

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

    fractures = [None] * n_frac  # ids index the per-fracture faces
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
    orientations must conform).

    Fractures follow the lattice.  Its point ``(I, J)``, in half-cell units,
    sits at ``(I*hx/2, J*hy/2)``: a corner where both indices are even, a
    cell center (``crossed`` only) where both are odd.  Each endpoint must
    land on one.  An axis-aligned fracture runs corner to corner along a grid
    line off the external boundary; a 45-degree one needs square cells, and
    ``diagonal`` has +45 degree edges only.

    ``width`` and ``height`` must be positive finite numbers and ``nx`` and
    ``ny`` positive integers, else a :class:`ConfigError` names the argument.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    for name, value, count in (
        ("width", width, False), ("height", height, False),
        ("nx", nx, True), ("ny", ny, True),
    ):
        kind = numbers.Integral if count else numbers.Real
        if isinstance(value, bool) or not (
            isinstance(value, kind) and math.isfinite(value) and value > 0
        ):
            what = "a positive integer" if count else "positive and finite"
            raise ConfigError(f"generate_rect_mesh: {name} must be {what}, got {value!r}")
    hx = width / nx
    hy = height / ny

    n_corner = (nx + 1) * (ny + 1)
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
        """The lattice index ``(I, J)`` of the point (x, y)."""
        i, j = round(2 * x / hx), round(2 * y / hy)
        if (
            0 <= i <= 2 * nx and 0 <= j <= 2 * ny
            and i % 2 == j % 2 and (i % 2 == 0 or pattern == "crossed")
            and abs(i * hx / 2 - x) <= snap_tol and abs(j * hy / 2 - y) <= snap_tol
        ):
            return i, j
        raise NonConformingPathError(
            f"{what} ({x}, {y}) does not coincide with a grid node"
        )

    paths = []
    for k, spec in enumerate(fractures):
        if not isinstance(spec, FractureSpec):
            spec = FractureSpec(*spec)
        a = snap(spec.x0, spec.y0, f"fracture {k} start")
        b = snap(spec.x1, spec.y1, f"fracture {k} end")
        path = _lattice_path(a, b, nx, ny, hx, hy, pattern, k)
        paths.append(FracturePath(id=k, nodes=path, gap0=spec.gap0))

    mesh = Mesh(nodes=nodes, elements=elements, fractures=paths)
    _check_and_mark(mesh)
    return mesh


def _lattice_path(a, b, nx, ny, hx, hy, pattern, fid):
    """Node ids of the straight walk from lattice index ``a`` to ``b``.

    A step is 2 along an axis or a ``diagonal`` cell diagonal, and 1 (half
    a cell diagonal, corner to center) in ``crossed``.
    """
    di, dj = b[0] - a[0], b[1] - a[1]
    if di == dj == 0:
        raise NonConformingPathError(f"fracture {fid} has zero length")
    if di == 0 or dj == 0:
        if a[0] % 2 or b[0] % 2:
            raise NonConformingPathError(
                f"fracture {fid}: axis-aligned fractures must follow grid lines"
            )
        if (di == 0 and a[0] in (0, 2 * nx)) or (dj == 0 and a[1] in (0, 2 * ny)):
            raise NonConformingPathError(
                f"fracture {fid} lies along the external boundary"
            )
        stride = 2
    else:
        # physical lengths, so non-square cells fail on "square cells" below
        if abs(abs(di) * hx - abs(dj) * hy) >= 2e-12 * max(hx, hy):
            raise NonConformingPathError(
                f"fracture {fid}: direction is neither axis-aligned nor 45 degrees"
            )
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise NonConformingPathError(
                f"fracture {fid}: 45-degree fractures need square cells"
            )
        if pattern == "diagonal" and (di > 0) != (dj > 0):
            raise NonConformingPathError(
                f"fracture {fid}: this lattice has no anti-diagonal edges; "
                "use pattern='crossed'"
            )
        stride = 2 if pattern == "diagonal" else 1
    n = max(abs(di), abs(dj)) // stride
    k = np.arange(n + 1)
    i, j = a[0] + k * (di // n), a[1] + k * (dj // n)
    odd = i % 2  # a cell center: its ids follow the (nx+1)*(ny+1) corners
    return (odd * (nx + 1) * (ny + 1) + j // 2 * (nx + 1 - odd) + i // 2).tolist()


# ---------------------------------------------------------------------------
# node splitting
# ---------------------------------------------------------------------------

def _elements_around(mesh, nodes):
    """({node: ids of the elements around it, ascending}, {element: its
    node ids}) for the ``nodes`` given; no other element is read past one
    lookup of its node ids."""
    marked = np.zeros(mesh.n_nodes, dtype=bool)
    marked[list(nodes)] = True
    ids = np.flatnonzero(marked[mesh.elements].any(axis=1))
    tris = dict(zip(ids.tolist(), mesh.elements[ids].tolist()))
    around = {}
    for e, tri in tris.items():
        for n in tri:
            if marked[n]:
                around.setdefault(n, []).append(e)
    return around, tris


def _groups(nid, elems, tris, owner, cut):
    """The elements ``elems`` around node ``nid`` as sets connected across
    its edges not in ``cut``; ``owner`` maps each directed edge to the
    element holding it in CCW order."""
    root = {e: e for e in elems}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for e in elems:
        tri = tris[e]
        w = tri[tri.index(nid) - 1]  # e holds w -> nid; its neighbour, nid -> w
        if _edge_key(nid, w) not in cut and (nid, w) in owner:
            root[find(e)] = find(owner[nid, w])
    groups = {}
    for e in elems:
        groups.setdefault(find(e), set()).add(e)
    return list(groups.values())


def split_fractures(mesh):
    """Duplicate nodes along every registered fracture path.

    Cutting the fracture edges leaves the elements around each path node in
    groups connected across its other edges, and each group gets one copy
    of the node: one at a crack tip (so the jump vanishes there), two at an
    interior or boundary node, four at a crossing.  The group on the plus
    side of every fracture through the node keeps the original id; the
    others take new ids in the order of their sides, (1, -1), (-1, 1),
    (-1, -1).  Returns a new Mesh.
    """
    if mesh.split_done:
        raise ValueError("fractures already split")
    table = _check_fractures(mesh)

    usage = {}
    for frac in mesh.fractures:
        for k, nid in enumerate(frac.nodes):
            usage.setdefault(nid, []).append((frac.id, k))
        if len(set(frac.nodes)) != len(frac.nodes):
            raise NonConformingPathError(f"fracture {frac.id} visits a node twice")

    paths = {f.id: f.nodes for f in mesh.fractures}
    for nid, uses in usage.items():
        if len(uses) > 2:
            raise NonConformingPathError(
                f"node {nid} is shared by more than two fractures (unsupported)"
            )
        for fid, k in uses if len(uses) == 2 else ():
            if k == 0 or k == len(paths[fid]) - 1:
                raise NonConformingPathError(
                    f"node {nid} is a fracture endpoint on another fracture "
                    "(T-junctions are unsupported)"
                )

    around, tris = _elements_around(mesh, usage)
    owner = {(t[i - 1], t[i]): e for e, t in tris.items() for i in range(3)}
    segments = {f.id: list(zip(f.nodes, f.nodes[1:])) for f in mesh.fractures}
    for fid, segs in segments.items():
        for u, v in segs:
            if (u, v) not in owner or (v, u) not in owner:
                raise NonConformingPathError(
                    f"fracture {fid}: segment {u}-{v} lies on the boundary"
                )
    cut = {_edge_key(u, v) for segs in segments.values() for u, v in segs}
    boundary = _boundary_nodes(table)

    copy_of = {}  # (node, element) -> the node's copy in that element
    sources = []  # the node each new copy duplicates, in id order
    single = [n for f in mesh.fractures for n in f.nodes if len(usage[n]) == 1]
    crossings = [n for n, uses in usage.items() if len(uses) == 2]
    for nid in single + crossings:  # copies take ids in this order
        uses = sorted(usage[nid])
        groups = _groups(nid, around[nid], tris, owner, cut)
        # a group's side of each fracture through the node is +1 where it
        # holds the plus face of that fracture's segment in or out
        plus = [{owner[s] for s in segments[f][max(k - 1, 0) : k + 1]} for f, k in uses]
        sides = {tuple(1 if g & p else -1 for p in plus): g for g in groups}
        if len(uses) == 2:
            expected = 4
        else:
            fid, k = uses[0]
            interior = 0 < k < len(paths[fid]) - 1
            expected = 2 if interior or nid in boundary else 1
        if not len(sides) == len(groups) == expected:
            if len(uses) == 2:
                raise NonConformingPathError(
                    f"crossing at node {nid} does not separate elements into four "
                    "quadrants (crossings on the boundary are unsupported)"
                )
            raise NonConformingPathError(
                f"node {nid}: the fracture edges split its elements into "
                f"{len(groups)} groups, expected {expected}"
            )
        first = mesh.n_nodes + len(sources)
        sources += [nid] * (expected - 1)
        copies = [nid, *range(first, first + expected - 1)]
        for c, key in zip(copies, sorted(sides, reverse=True)):
            for e in sides[key]:
                copy_of[nid, e] = c

    elements = mesh.elements.copy()
    for (n, e), c in copy_of.items():
        if c != n:
            elements[e, tris[e].index(n)] = c
    faces = []
    for frac in mesh.fractures:
        faces.append([])
        for u, v in segments[frac.id]:
            p, m = owner[u, v], owner[v, u]
            faces[-1].append(
                (copy_of[u, p], copy_of[u, m], copy_of[v, p], copy_of[v, m])
            )

    return Mesh(
        nodes=np.vstack([mesh.nodes, mesh.nodes[sources]]),
        elements=elements,
        fractures=[replace(f) for f in mesh.fractures],
        faces=faces,
        split_done=True,
    )


# ---------------------------------------------------------------------------
# contact pairs
# ---------------------------------------------------------------------------

def arc_coordinates(mesh, fid):
    """Arc coordinate of each node on fracture ``fid``'s path, as Python
    floats: 0 at the first node, then the running sum of segment lengths."""
    xy = mesh.nodes[mesh.fractures[fid].nodes]
    return [0.0, *np.cumsum(np.hypot(*np.diff(xy, axis=0).T)).tolist()]


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
    """Create the contact pairs from the face copies of each path node.

    A node is read at its station on each fracture's path: ``lp``/``lm``
    are its copies on the plus/minus face of the segment arriving there,
    ``rp``/``rm`` those of the departing segment (an endpoint's missing
    segment repeats the other).  Where the two differ the other fracture
    cuts the faces, so the station is a crossing: the two diagonal pairings
    of its four copies, (``lp``, ``rm``) and (``rp``, ``lm``), are
    instantiated for each fracture with that fracture's own frame (four
    crossing pairs total), the one whose plus copy kept the node's id
    first.  Elsewhere a node with two copies gets one regular pair and a
    crack tip (one copy) none.  Returns a new Mesh with ``pairs`` populated.
    """
    if not mesh.split_done:
        raise ValueError("split_fractures must run before build_contact_pairs")
    if mesh.pairs:
        raise ValueError("contact pairs already built")

    pairs = []
    for frac, faces in zip(mesh.fractures, mesh.faces):
        path = frac.nodes
        last = len(path) - 1
        seg_len = np.hypot(*np.diff(mesh.nodes[path], axis=0).T)
        etas = arc_coordinates(mesh, frac.id)
        # tributary arc length: half of the segment before, then after
        half = 0.5 * np.diff(etas)
        trib = np.concatenate([[0.0], half]) + np.concatenate([half, [0.0]])
        for k, nid in enumerate(path):
            lp, lm = faces[k - 1][2:] if k else faces[k][:2]
            rp, rm = faces[k][:2] if k < last else (lp, lm)
            crossing = (lp, lm) != (rp, rm)
            if crossing:
                weight = 0.25 * (seg_len[k - 1] + seg_len[k])
                couples = [(lp, rm), (rp, lm)] if lp == nid else [(rp, lm), (lp, rm)]
            elif lp != lm:
                weight, couples = float(trib[k]), [(lp, lm)]
            else:
                continue
            normal = _path_normal(mesh, path, k)
            for node_plus, node_minus in couples:
                pairs.append(
                    ContactPair(
                        id=len(pairs),
                        node_plus=node_plus,
                        node_minus=node_minus,
                        fracture=frac.id,
                        arc_coord=etas[k],
                        normal=normal,
                        tangent=rot_minus90(normal),
                        is_crossing_pair=crossing,
                        gap0=frac.gap0,
                        weight=weight,
                    )
                )

    return replace(mesh, pairs=pairs)


# ---------------------------------------------------------------------------
# boundary queries
# ---------------------------------------------------------------------------

def external_boundary_edges(mesh):
    """(n_e, 2) array of node pairs on the external boundary: the
    single-adjacency edges that are not fracture faces.  A split mesh
    answers as soon as :func:`split_fractures` has recorded its faces."""
    keys, counts, base = _edge_table(mesh.elements)
    single = keys[counts == 1]
    if mesh.faces:
        # each segment's plus face joins (pu, pv), its minus face (mu, mv)
        copies = np.array([seg for segs in mesh.faces for seg in segs], dtype=np.int64)
        faces = _edge_keys(copies[:, [0, 2, 1, 3]], base)
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
