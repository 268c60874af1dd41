"""One timed run of one workload, in a fresh process.

Measures set-up (``import fracfem.cli`` plus one ``build_mesh``), then one
``fracfem.cli.run`` call end to end, then checks the result against the
acceptance tolerances.  With ``--trace 1`` the run goes through the span
tracer and also reports per-layer self times and counts.  The last line of
standard output is one JSON object; ``run.py`` starts these workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_RAMP_STEPS = 8


def make_config(workload):
    """(config, preset name for the closed-form reference) of a workload."""
    from dataclasses import replace

    from fracfem import presets

    if workload == "inclined-ramp":
        # Explicit ramp lists: without them BoundaryCondition.scale returns
        # 1.0 and every step would run at full load (README promises
        # proportional ramping when ``ramp`` is absent).
        config = presets.inclined_crack(n_load_steps=N_RAMP_STEPS)
        ramp = [(k + 1) / N_RAMP_STEPS for k in range(N_RAMP_STEPS)]
        config.bcs = [replace(bc, ramp=ramp) for bc in config.bcs]
        return config, "inclined-crack"
    return presets.get(workload), workload


def capture(owner, attr, box):
    """Keep the last result of ``owner.attr`` so the checks can see it."""
    real = getattr(owner, attr)

    def captured(*args, **kwargs):
        box[attr] = real(*args, **kwargs)
        return box[attr]

    setattr(owner, attr, captured)


def install_tracer(tracer):
    import scipy.sparse.linalg

    import fracfem.cli
    import fracfem.config
    import fracfem.elasticity
    import fracfem.presets
    import fracfem.solver

    def fill(lu):
        return int(lu.L.nnz + lu.U.nnz), int(lu.shape[0])

    cli, cfg, el, sol = fracfem.cli, fracfem.config, fracfem.elasticity, fracfem.solver
    for owner, attr, name in (
        (cli, "build_mesh", "config.build_mesh"),
        (cfg, "generate_rect_mesh", "mesh.generate"),
        (cfg, "split_fractures", "mesh.split"),
        (cfg, "build_contact_pairs", "mesh.pairs"),
        (el, "select_boundary_edges", "mesh.boundary"),
        (cli, "run_load_steps", "solver.run_load_steps"),
        (sol, "assemble_stiffness", "elasticity.stiffness"),
        (sol, "newton_loop", "solver.newton_loop"),
        (sol, "build_system", "solver.build_system"),
        (sol, "assemble_loads", "elasticity.loads"),
        (sol, "dirichlet_constraints", "elasticity.dirichlet"),
        (sol, "assemble_contact_blocks", "contact.blocks"),
        (sol, "build_preconditioner", "solver.precond"),
        (sol, "linear_solve", "solver.linear_solve"),
        (sol, "classify_all", "contact.classify"),
        (fracfem.presets, "reference_error", "presets.reference_error"),
        (cli, "max_penetration", "export.penetration"),
        (cli, "export_profiles", "export.profiles"),
        (cli, "write_summary", "export.summary"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(cli, "export_field", "export.field", note=lambda p: os.path.getsize(p))
    tracer.wrap(scipy.sparse.linalg, "splu", "solver.factor", note=fill)


# Layers whose self time the traced run attributes; their sum over the
# traced e2e time is reported as ``trace.coverage``.
SELF_TIMES = {
    "mesh.generate_s": "mesh.generate",
    "mesh.split_s": "mesh.split",
    "mesh.pairs_s": "mesh.pairs",
    "mesh.boundary_s": "mesh.boundary",
    "elasticity.stiffness_s": "elasticity.stiffness",
    "elasticity.loads_s": "elasticity.loads",
    "elasticity.dirichlet_s": "elasticity.dirichlet",
    "contact.blocks_s": "contact.blocks",
    "contact.classify_s": "contact.classify",
    "solver.build_system_self_s": "solver.build_system",
    "solver.precond_s": "solver.precond",
    "solver.factor_s": "solver.factor",
    "solver.refine_s": "solver.linear_solve",
    "export.field_s": "export.field",
    "export.profiles_s": "export.profiles",
    "presets.reference_error_s": "presets.reference_error",
}
CALLS = {
    "mesh.boundary_queries": "mesh.boundary",
    "elasticity.loads_calls": "elasticity.loads",
    "elasticity.dirichlet_calls": "elasticity.dirichlet",
    "contact.blocks_calls": "contact.blocks",
    "contact.classify_calls": "contact.classify",
    "solver.factorizations": "solver.factor",
}


def layer_metrics(tracer, e2e_s):
    layers = tracer.layers()
    out = {k: layers.get(v, (0.0, 0))[0] for k, v in SELF_TIMES.items()}
    out["trace.coverage"] = sum(out.values()) / e2e_s
    out.update({k: layers.get(v, (0.0, 0))[1] for k, v in CALLS.items()})
    factors = tracer.notes.get("solver.factor", [(0, 0)])
    out["solver.factor_nnz"] = max(nnz for nnz, _ in factors)
    out["solver.unknowns"] = max(n for _, n in factors)
    out["export.field_bytes"] = sum(tracer.notes.get("export.field", [0]))
    return out


def check(workload, config, status, summary, mesh, results):
    """Failures of one run against the acceptance tolerances."""
    from fracfem import presets
    from fracfem.contact import StateKind, mohr_coulomb_tau_c, pair_kinematics
    from fracfem.solver import run_load_steps

    if status != 0 or len(results) != config.solver.n_load_steps or not all(
        r.converged for r in results
    ):
        return [f"not every load step converged: {results[-1].message}"]
    fails = []
    final = results[-1]
    kins = [pair_kinematics(p, final.U, final.lam) for p in mesh.pairs]
    gap = min((k.trial_gap for k in kins), default=0.0)
    if not gap >= -1e-8:
        fails.append(f"min trial gap {gap:.3e} m < -1e-8 m")
    for kin, st in zip(kins, final.states):
        if st.kind is StateKind.SLIP:
            tau = mohr_coulomb_tau_c(kin.lam_n, config.friction)
            if not abs(abs(kin.lam_t) - tau) <= 1e-6 * max(tau, 1.0):
                fails.append(f"slip pair off the Coulomb bound: {kin.lam_t} vs {tau}")
                break
    rel = summary["rel_L2"]
    if workload in ("sneddon", "inclined-ramp") and not (rel is not None and rel <= 0.05):
        fails.append(f"rel_l2 {rel} > 0.05")
    if workload == "inclined-ramp" and not fails:
        one = presets.inclined_crack()
        single = run_load_steps(mesh, one.material, one.friction, one.bcs, one.solver)
        rel1 = presets.reference_error("inclined-crack", one, mesh, single[-1])
        if not abs(rel - rel1) <= 1e-9:
            fails.append(f"ramped rel_l2 {rel!r} != single-step {rel1!r}")
    return fails


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="output directory of the run")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import fracfem.cli

    import_s = time.perf_counter() - t0
    config, preset = make_config(args.workload)
    fracfem.cli.build_mesh(config)
    setup_s = time.perf_counter() - t0

    src = ROOT / "src"
    if not Path(fracfem.__file__).resolve().is_relative_to(src):
        sys.exit(f"fracfem imported from {fracfem.__file__}, not from {src}")

    import numpy as np
    import scipy

    box = {}
    capture(fracfem.cli, "build_mesh", box)
    capture(fracfem.cli, "run_load_steps", box)
    tracer, run = None, fracfem.cli.run
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        install_tracer(tracer)
        run = partial(tracer.call, "cli.run", fracfem.cli.run)
    t = time.perf_counter()
    status, summary = run(config, args.out, preset)
    e2e_s = time.perf_counter() - t
    if tracer is not None:
        tracer.unwrap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mesh, results = box["build_mesh"], box["run_load_steps"]
    final = results[-1]
    digest = hashlib.sha256(
        np.ascontiguousarray(final.U).tobytes() + np.ascontiguousarray(final.lam).tobytes()
    ).hexdigest()
    n_solves = sum(r.newton_iters for r in results)
    counts = {
        "solver.newton_solves": n_solves,
        "solver.state_loops": sum(r.state_loops for r in results),
        "solver.load_steps": len(results),
        "solver.solves_per_step": n_solves / len(results),
    }
    out = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "failures": check(args.workload, config, status, summary, mesh, results),
        "import_s": import_s,
        "setup_s": setup_s,
        "e2e_s": e2e_s,
        "solve_s": summary["wall_time_s"],
        "peak_rss_mb": peak_rss_mb,
        "rel_l2": summary["rel_L2"],
        "hash": digest,
        "counts": counts,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, e2e_s)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
