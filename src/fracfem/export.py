"""Result export: per-fracture profile CSVs and legacy binary VTK fields."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import LABELS, pair_jumps
from .elasticity import element_stresses
from .mesh import arc_coordinates

VTK_HEADER = "# vtk DataFile Version 3.0"
_VTK_TRIANGLE = 5  # VTK cell type id of a linear triangle

# Two crossing pairs of one fracture share the same arc coordinate; the CSV
# keeps eta strictly increasing by nudging them apart by this fraction of the
# fracture length.
_CROSSING_ETA_NUDGE = 1e-9


@dataclass(frozen=True)
class FractureProfileRecord:
    fracture: int
    eta: float
    jump_n: float
    jump_t: float
    lam_n: float
    lam_t: float
    state: str


def fracture_profiles(mesh, state):
    """Per-fracture profile records sorted by arc coordinate."""
    out = {f.id: [] for f in mesh.fractures}
    crossing_seen = {}
    lengths = {f.id: arc_coordinates(mesh, f.id)[-1] for f in mesh.fractures}
    jumps = pair_jumps(mesh, state.U)
    columns = [c.tolist() for c in (*jumps, state.lam[0::2], state.lam[1::2])]
    for pair, code, *values in zip(mesh.pairs, state.codes.tolist(), *columns):
        eta = pair.arc_coord
        if pair.is_crossing_pair:
            k = crossing_seen.get((pair.fracture, pair.arc_coord), 0)
            crossing_seen[(pair.fracture, pair.arc_coord)] = k + 1
            nudge = _CROSSING_ETA_NUDGE * max(lengths[pair.fracture], 1.0)
            eta += -nudge if k == 0 else nudge
        out[pair.fracture].append(
            FractureProfileRecord(pair.fracture, eta, *values, LABELS[code + 1])
        )
    for records in out.values():
        records.sort(key=lambda r: r.eta)
    return out


def export_profiles(state, mesh, base_path):
    """One CSV per fracture next to ``base_path``; returns written paths."""
    base = Path(base_path)
    stem = base.stem if base.suffix else base.name
    parent = base.parent
    parent.mkdir(parents=True, exist_ok=True)
    profiles = fracture_profiles(mesh, state)
    written = []
    for fid in sorted(profiles):
        path = parent / f"{stem}_f{fid}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta", "uN_jump", "uT_jump", "lambdaN", "lambdaT", "state"])
            for r in profiles[fid]:
                writer.writerow(
                    [repr(r.eta), repr(r.jump_n), repr(r.jump_t),
                     repr(r.lam_n), repr(r.lam_t), r.state]
                )
        written.append(path)
    return written


def export_field(state, mesh, mat, path):
    """Legacy-VTK binary unstructured grid with displacements and stresses.

    Sections POINTS, CELLS, CELL_TYPES, POINT_DATA displacement and
    CELL_DATA stress, each an ASCII header line followed by one big-endian
    payload (``float64`` values, ``int32`` ids) and a newline.  Duplicated
    fracture nodes are written as distinct points, so the jumps are visible
    in any standard viewer.
    """
    n, m = mesh.n_nodes, mesh.n_elements
    if max(n, 4 * m) > np.iinfo(np.int32).max:
        raise ValueError(
            f"mesh with {n} nodes and {m} elements does not fit the int32 "
            "ids of legacy VTK"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sxx, syy, sxy = element_stresses(mesh, mat, state.U).T
    szz = mat.nu * (sxx + syy)  # plane strain
    zn, zm = np.zeros(n), np.zeros(m)
    sections = [
        (f"POINTS {n} double", np.column_stack([mesh.nodes, zn]), ">f8"),
        (f"CELLS {m} {4 * m}", np.column_stack([np.full(m, 3), mesh.elements]), ">i4"),
        (f"CELL_TYPES {m}", np.full(m, _VTK_TRIANGLE), ">i4"),
        (f"POINT_DATA {n}\nVECTORS displacement double",
         np.column_stack([state.U.reshape(n, 2), zn]), ">f8"),
        (f"CELL_DATA {m}\nTENSORS stress double",
         np.column_stack([sxx, sxy, zm, sxy, syy, zm, zm, zm, szz]), ">f8"),
    ]
    with open(path, "wb") as fh:
        fh.write(
            f"{VTK_HEADER}\nfracfem displacement and stress field\nBINARY\n"
            "DATASET UNSTRUCTURED_GRID\n".encode("ascii")
        )
        for header, values, dtype in sections:
            fh.write(f"{header}\n".encode("ascii"))
            fh.write(values.astype(dtype).tobytes())
            fh.write(b"\n")
    return path


def write_summary(path, summary):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def max_penetration(mesh, state):
    """Most negative trial gap over all pairs (0 if nothing penetrates)."""
    jump_n, _ = pair_jumps(mesh, state.U)
    return min([0.0, *(mesh.pair_arrays.gap0 + jump_n).tolist()])
