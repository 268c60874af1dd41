#!/usr/bin/env python3
"""Mesh-refinement study of the inclined-crack slip benchmark.

Sweeps the number of lattice hops along the crack (i.e. the pair spacing)
at a roughly constant domain-to-crack ratio and reports the windowed
relative L2 error of the slip profile against the closed-form solution.
"""

import argparse
import sys

from fracfem import presets
from fracfem.config import build_mesh
from fracfem.solver import run_load_steps, wall_timed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hops", type=int, nargs="*", default=[10, 14, 18, 22, 26])
    args = ap.parse_args(argv)

    print(f"{'hops':>5} {'h[m]':>8} {'tris':>7} {'rel_L2':>8} {'wall[s]':>8}")
    for k in args.hops:
        nx = 2 * round(0.85 * k)  # keep the domain near 4.8 crack half-lengths
        config = presets.inclined_crack(k_hops=k, nx=nx)
        mesh = build_mesh(config)
        results, elapsed = wall_timed(
            run_load_steps, mesh, config.material, config.friction,
            config.bcs, config.solver,
        )
        state = results[-1]
        if not state.converged:
            print(f"hops {k}: did not converge ({state.message})",
                  file=sys.stderr)
            return 1
        err = presets.reference_error("inclined-crack", config, mesh, state)
        h = 2.0 * 2.0**0.5 / k
        print(f"{k:>5} {h:>8.4f} {mesh.n_elements:>7} "
              f"{err:>8.4f} {elapsed:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
