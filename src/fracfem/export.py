"""Result export: per-fracture profile CSVs and legacy ASCII VTK fields."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .contact import all_pair_kinematics
from .elasticity import element_stresses

VTK_HEADER = "# vtk DataFile Version 3.0"

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
    lengths = {f.id: mesh.chains[f.id][-1].eta for f in mesh.fractures}
    kins = all_pair_kinematics(mesh, state.U, state.lam)
    for pair, st, kin in zip(mesh.pairs, state.states, kins):
        eta = pair.arc_coord
        if pair.is_crossing_pair:
            k = crossing_seen.get((pair.fracture, pair.arc_coord), 0)
            crossing_seen[(pair.fracture, pair.arc_coord)] = k + 1
            nudge = _CROSSING_ETA_NUDGE * max(lengths[pair.fracture], 1.0)
            eta += -nudge if k == 0 else nudge
        out[pair.fracture].append(
            FractureProfileRecord(
                fracture=pair.fracture,
                eta=eta,
                jump_n=kin.jump_n,
                jump_t=kin.jump_t,
                lam_n=kin.lam_n,
                lam_t=kin.lam_t,
                state=st.label,
            )
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
    """Legacy-VTK ASCII unstructured grid with displacements and stresses.

    Duplicated fracture nodes are written as distinct points, so the jumps
    are visible in any standard viewer.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    U = state.U
    stresses = element_stresses(mesh, mat, U)
    szz = mat.nu * (stresses[:, 0] + stresses[:, 1])  # plane strain

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VTK_HEADER}\n")
        fh.write("fracfem displacement and stress field\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        fh.write(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n")
        for tri in mesh.elements:
            fh.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        for _ in range(mesh.n_elements):
            fh.write("5\n")
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("VECTORS displacement double\n")
        for i in range(mesh.n_nodes):
            fh.write(f"{float(U[2 * i])!r} {float(U[2 * i + 1])!r} 0.0\n")
        fh.write(f"CELL_DATA {mesh.n_elements}\n")
        fh.write("TENSORS stress double\n")
        for e in range(mesh.n_elements):
            sxx, syy, sxy = (float(v) for v in stresses[e])
            fh.write(f"{sxx!r} {sxy!r} 0.0\n")
            fh.write(f"{sxy!r} {syy!r} 0.0\n")
            fh.write(f"0.0 0.0 {float(szz[e])!r}\n\n")
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
    kins = all_pair_kinematics(mesh, state.U, state.lam)
    return min([0.0, *(kin.trial_gap for kin in kins)])
