"""Command-line entry points: run a config, run a built-in benchmark,
inspect a mesh file."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import presets
from .config import build_mesh, parse_config
from .contact import OPEN
from .elasticity import ConfigError
from .export import export_field, export_profiles, max_penetration, write_summary
from .mesh import MeshFormatError, NonConformingPathError, arc_coordinates, load_mesh
from .solver import run_load_steps, wall_timed


def _print_step_table(results):
    print(f"{'step':>4} {'newton':>7} {'loops':>6} {'residual':>12} "
          f"{'stick':>6} {'slip':>6} {'open':>6}")
    for res in results:
        # pairs per state code: -1 and +1 slip, 0 sticks, OPEN is open
        slip_minus, stick, slip_plus, n_open = np.bincount(
            res.codes + 1, minlength=OPEN + 2
        ).tolist()
        flag = "  restarted from all stick" if res.restarted else ""
        flag += "" if res.converged else "  NOT CONVERGED"
        print(
            f"{res.step:>4} {res.newton_iters:>7} {res.state_loops:>6} "
            f"{res.residual_norm:>12.3e} {stick:>6} {slip_minus + slip_plus:>6} "
            f"{n_open:>6}{flag}"
        )


def run(config, outdir, preset_name=None):
    """Execute one configuration end to end; returns (exit status, summary)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    mesh = build_mesh(config)
    results, elapsed = wall_timed(
        run_load_steps, mesh, config.material, config.friction, config.bcs,
        config.solver,
    )
    _print_step_table(results)
    final = results[-1]
    ok = all(r.converged for r in results) and len(results) == config.solver.n_load_steps

    rel_l2 = None
    if preset_name is not None and final.converged:
        rel_l2 = presets.reference_error(preset_name, config, mesh, final)

    summary = {
        "preset": preset_name or config.name,
        "rel_L2": rel_l2,
        "max_penetration": max_penetration(mesh, final),
        "newton_iters": int(sum(r.newton_iters for r in results)),
        "wall_time_s": elapsed,
    }

    if "profiles" in config.outputs and mesh.fractures:
        export_profiles(final, mesh, outdir / "profiles.csv")
    if "field" in config.outputs:
        export_field(final, mesh, config.material, outdir / "field.vtk")
    if "summary" in config.outputs:
        write_summary(outdir / "summary.json", summary)

    if not ok:
        diag = {
            "failed_step": final.step,
            "message": final.message,
            "residual_norm": final.residual_norm,
            "newton_iters": final.newton_iters,
            "state_loops": final.state_loops,
            "cycled": final.cycled,
            "restarted": final.restarted,
        }
        with open(outdir / "diagnostics.json", "w", encoding="utf-8") as fh:
            json.dump(diag, fh, indent=2)
        print(f"run failed: {final.message}", file=sys.stderr)
        return 1, summary
    return 0, summary


def cmd_run(args):
    config = parse_config(args.config)
    status, _ = run(config, args.out)
    return status


def cmd_bench(args):
    config = presets.get(args.preset)
    outdir = args.out or f"bench-{args.preset}"
    status, summary = run(config, outdir, preset_name=args.preset)
    if args.report:
        write_summary(args.report, summary)
    rel = summary["rel_L2"]
    rel_txt = "n/a" if rel is None else f"{rel:.4%}"
    print(f"{args.preset}: rel_L2={rel_txt} "
          f"max_penetration={summary['max_penetration']:.3e} m "
          f"wall_time={summary['wall_time_s']:.2f} s")
    return status


def cmd_mesh_info(args):
    mesh = load_mesh(args.meshfile)
    areas = mesh.signed_areas()
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    print(f"nodes:     {mesh.n_nodes}")
    print(f"elements:  {mesh.n_elements}")
    print(f"fractures: {len(mesh.fractures)}")
    print(f"bbox:      [{lo[0]}, {hi[0]}] x [{lo[1]}, {hi[1]}]")
    print(f"area:      {areas.sum()}")
    for frac in mesh.fractures:
        length = arc_coordinates(mesh, frac.id)[-1]
        kind = "through-going" if frac.is_through_going else "embedded"
        print(f"  fracture {frac.id}: {len(frac.nodes)} nodes, "
              f"length {length:.6g} m, {kind}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fracfem",
        description="2D frictional contact on fractured media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a YAML configuration")
    p.add_argument("config")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a built-in benchmark preset")
    p.add_argument("preset", choices=sorted(presets.PRESETS))
    p.add_argument("--report", default=None, help="write the summary JSON here")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("mesh-info", help="inspect a mesh file")
    p.add_argument("meshfile")
    p.set_defaults(func=cmd_mesh_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshFormatError, NonConformingPathError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
