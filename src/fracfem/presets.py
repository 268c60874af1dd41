"""Built-in benchmark scenarios, runnable as ``fracfem bench <name>``.

Geometry choices that the underlying references leave open (domain size,
mesh density, exact fracture extents on the structured lattice) are frozen
here so every benchmark is reproducible from a single name.
"""

from __future__ import annotations

import math

from .config import RunConfig
from .contact import FrictionParams
from .elasticity import BoundaryCondition, ConfigError, MaterialParams
from .export import fracture_profiles
from .mesh import arc_coordinates
from .oracles import (
    InclinedCrackCase,
    constant_slip_reference,
    inclined_crack_slip,
    profile_error,
    sneddon_opening,
)
from .solver import SolverConfig


def inclined_crack(
    sigma=10e6,
    pressure=0.0,
    shear=0.0,
    k_hops=22,
    nx=38,
    half_length=1.0,
    E=25e9,
    nu=0.25,
    friction_angle=math.radians(30.0),
    cohesion=0.0,
    n_load_steps=1,
):
    """Embedded 45-degree crack under remote uniaxial compression.

    The crack conforms to the crossed lattice with ``k_hops`` corner/center
    hops over its full length (k_hops must be even).  Other inclinations
    need a mesh file, the structured lattice only carries axis-aligned and
    45-degree paths.
    """
    if k_hops % 2:
        raise ConfigError("k_hops must be even")
    if nx % 2:
        raise ConfigError("nx must be even so the crack centers on a node")
    h = 2.0 * math.sqrt(2.0) * half_length / k_hops
    c = nx // 2
    off = k_hops / 4.0
    x0 = (c - off) * h
    x1 = (c + off) * h
    size = nx * h

    bcs = [
        BoundaryCondition(kind="neumann", side="top", traction=[shear, -sigma]),
        BoundaryCondition(kind="dirichlet", side="bottom", uy=0.0),
        BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.0),
    ]
    if pressure:
        bcs.append(
            BoundaryCondition(kind="fracture_pressure", fracture=0, pressure=pressure)
        )
    return RunConfig(
        name="inclined-crack",
        generator={"width": size, "height": size, "nx": nx, "ny": nx,
                   "pattern": "crossed"},
        fractures=[{"x0": x0, "y0": x0, "x1": x1, "y1": x1, "gap0": 0.0}],
        material=MaterialParams(E=E, nu=nu),
        friction=FrictionParams(cohesion=cohesion, friction_angle=friction_angle),
        bcs=bcs,
        solver=SolverConfig(n_load_steps=n_load_steps),
    )


def inclined_crack_case(config=None):
    """Analytic case object matching :func:`inclined_crack` defaults.

    The closed form knows the remote compression and the friction angle
    only, so a config with cohesion, a top shear or a fracture pressure
    raises a ConfigError rather than get a reference that ignores them.
    """
    cfg = config or inclined_crack()
    for name, value in (
        ("friction.cohesion", cfg.friction.cohesion),
        ("the top shear traction", cfg.bcs[0].traction[0]),
        ("a fracture_pressure condition",
         any(b.kind == "fracture_pressure" for b in cfg.bcs)),
    ):
        if value:
            raise ConfigError(
                f"inclined-crack reference: {name} is not in the closed form, "
                "which covers remote compression and friction angle only"
            )
    sigma = -cfg.bcs[0].traction[1]
    return InclinedCrackCase(
        alpha=math.pi / 4,
        sigma_inf=sigma,
        half_length=1.0,
        material=cfg.material,
        friction=cfg.friction,
    )


def shear_throughgoing(nx=20, size=10.0, slip=0.1):
    """Through-going diagonal fault; the upper block is translated rigidly
    parallel to the fault so the slip is spatially constant by construction
    (slip magnitude = |(slip, slip)| = slip * sqrt(2) = 0.14142 m for the
    default 0.1 m)."""
    return RunConfig(
        name="shear-throughgoing",
        generator={"width": size, "height": size, "nx": nx, "ny": nx,
                   "pattern": "diagonal"},
        fractures=[{"x0": 0.0, "y0": 0.0, "x1": size, "y1": size, "gap0": 0.0}],
        material=MaterialParams(E=5e9, nu=0.3),
        friction=FrictionParams(cohesion=0.0, friction_angle=math.atan(0.1)),
        bcs=[
            BoundaryCondition(kind="dirichlet", side="bottom", ux=0.0, uy=0.0),
            BoundaryCondition(kind="dirichlet", side="right", ux=0.0, uy=0.0),
            BoundaryCondition(kind="dirichlet", side="top", ux=slip, uy=slip),
            BoundaryCondition(kind="dirichlet", side="left", ux=slip, uy=slip),
        ],
        solver=SolverConfig(),
    )


def sneddon(nx=120, size=12.0, pressure=10e6, half_length=1.0):
    """Pressurized horizontal crack in a large, traction-free domain.

    The outer boundary is far enough (6 crack half-lengths) that the
    infinite-medium opening profile applies; three corner dofs anchor the
    rigid-body modes of the self-equilibrated load.
    """
    cy = size / 2.0
    bl = 0  # bottom-left corner node id
    br = nx  # bottom-right corner node id
    return RunConfig(
        name="sneddon",
        generator={"width": size, "height": size, "nx": nx, "ny": nx,
                   "pattern": "crossed"},
        fractures=[{
            "x0": size / 2.0 - half_length, "y0": cy,
            "x1": size / 2.0 + half_length, "y1": cy, "gap0": 0.0,
        }],
        material=MaterialParams(E=25e9, nu=0.25),
        friction=FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0)),
        bcs=[
            BoundaryCondition(kind="fracture_pressure", fracture=0,
                              pressure=pressure),
            BoundaryCondition(kind="dirichlet", nodes=[bl], ux=0.0, uy=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[br], uy=0.0),
        ],
        solver=SolverConfig(),
    )


def crossing_single(sigma=15e6, nx=50, size=10.0):
    """Two 45-degree fractures crossing at the domain center under vertical
    compression; both orientations slip and the crossing pairs keep the
    intersection penetration-free."""
    return RunConfig(
        name="crossing-single",
        generator={"width": size, "height": size, "nx": nx, "ny": nx,
                   "pattern": "crossed"},
        fractures=[
            {"x0": 3.9, "y0": 3.9, "x1": 6.1, "y1": 6.1, "gap0": 0.0},
            {"x0": 4.3, "y0": 5.7, "x1": 5.7, "y1": 4.3, "gap0": 0.0},
        ],
        material=MaterialParams(E=50e9, nu=0.25),
        friction=FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0)),
        bcs=[
            BoundaryCondition(kind="neumann", side="top", traction=[0.0, -sigma]),
            BoundaryCondition(kind="dirichlet", side="bottom", uy=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.0),
        ],
        solver=SolverConfig(),
    )


def crossing_multi(sigma=12e6, nx=60, size=12.0):
    """Six fractures forming three well-separated crossings under vertical
    compression; stability regression scenario.

    Densely interleaved networks (crossings within a couple of pair
    spacings of crack tips) exhibit genuine active-set cycling of this
    memory-free Coulomb model, so the preset keeps the clusters isolated.
    """
    fracs = [
        {"x0": 2.0, "y0": 6.0, "x1": 4.0, "y1": 8.0},
        {"x0": 2.0, "y0": 8.0, "x1": 4.0, "y1": 6.0},
        {"x0": 7.0, "y0": 2.0, "x1": 9.6, "y1": 4.6},
        {"x0": 7.0, "y0": 4.4, "x1": 9.6, "y1": 1.8},
        {"x0": 7.5, "y0": 7.5, "x1": 9.5, "y1": 9.5},
        {"x0": 7.5, "y0": 9.5, "x1": 9.5, "y1": 7.5},
    ]
    for f in fracs:
        f["gap0"] = 0.0
    return RunConfig(
        name="crossing-multi",
        generator={"width": size, "height": size, "nx": nx, "ny": nx,
                   "pattern": "crossed"},
        fractures=fracs,
        material=MaterialParams(E=50e9, nu=0.25),
        friction=FrictionParams(cohesion=0.0, friction_angle=math.radians(30.0)),
        bcs=[
            BoundaryCondition(kind="neumann", side="top", traction=[0.0, -sigma]),
            BoundaryCondition(kind="dirichlet", side="bottom", uy=0.0),
            BoundaryCondition(kind="dirichlet", nodes=[0], ux=0.0),
        ],
        solver=SolverConfig(max_state_loops=40),
    )


PRESETS = {
    "inclined-crack": inclined_crack,
    "shear-throughgoing": shear_throughgoing,
    "sneddon": sneddon,
    "crossing-single": crossing_single,
    "crossing-multi": crossing_multi,
}


def get(name):
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]()


def reference_error(name, config, mesh, state, window=(0.1, 0.9)):
    """Relative L2 error of the run against its closed-form reference, or
    None for scenarios without one."""
    profiles = fracture_profiles(mesh, state)
    if name == "inclined-crack":
        case = inclined_crack_case(config)
        recs = profiles[0]
        eta = [r.eta for r in recs]
        vals = [abs(r.jump_t) for r in recs]
        return profile_error(
            eta, vals, lambda e: inclined_crack_slip(e, case),
            length=2.0 * case.half_length, window=window,
        ).rel_l2
    if name == "sneddon":
        recs = profiles[0]
        eta = [r.eta for r in recs]
        vals = [r.jump_n for r in recs]
        l = 0.5 * arc_coordinates(mesh, 0)[-1]
        p = next(b.pressure for b in config.bcs if b.kind == "fracture_pressure")
        return profile_error(
            eta, vals, lambda e: sneddon_opening(e - l, p, l, config.material),
            length=2.0 * l, window=window,
        ).rel_l2
    if name == "shear-throughgoing":
        recs = profiles[0]
        eta = [r.eta for r in recs]
        vals = [abs(r.jump_t) for r in recs]
        ref = constant_slip_reference()
        return profile_error(
            eta, vals, lambda e: ref, length=arc_coordinates(mesh, 0)[-1],
            window=window,
        ).rel_l2
    return None
