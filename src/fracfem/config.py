"""Run configuration: dataclass, YAML parsing/serialization, mesh building.

The config file is YAML with the sections ``mesh`` (either ``file`` or
``generator`` + ``fractures``), ``material``, ``friction``, ``bcs``,
``solver`` and ``outputs``; see the README for the schema.  A file holding
just ``preset: <name>`` expands to the corresponding built-in benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .contact import FrictionParams
from .elasticity import BoundaryCondition, ConfigError, MaterialParams, is_integer_id
from .mesh import (
    FractureSpec,
    build_contact_pairs,
    generate_rect_mesh,
    load_mesh,
    split_fractures,
)
from .solver import SolverConfig

VALID_OUTPUTS = ("profiles", "field", "summary")


@dataclass
class RunConfig:
    name: str
    material: MaterialParams
    friction: FrictionParams
    bcs: list
    solver: SolverConfig
    mesh_file: str | None = None
    generator: dict | None = None
    fractures: list = field(default_factory=list)
    outputs: list = field(default_factory=lambda: list(VALID_OUTPUTS))

    def __post_init__(self):
        if (self.mesh_file is None) == (self.generator is None):
            raise ConfigError("mesh: exactly one of 'file' or 'generator' required")
        if self.mesh_file is not None and self.fractures:
            raise ConfigError(
                "mesh.fractures: fracture geometry of a file mesh comes from "
                "the file itself"
            )
        if not any(bc.kind == "dirichlet" for bc in self.bcs):
            raise ConfigError("bcs: at least one Dirichlet condition required")
        bad = [o for o in self.outputs if o not in VALID_OUTPUTS]
        if bad:
            raise ConfigError(f"outputs: unknown entries {bad}")


def build_mesh(config):
    """Load or generate, then split and build contact pairs."""
    if config.mesh_file is not None:
        mesh = load_mesh(config.mesh_file)
    else:
        gen = config.generator
        specs = [
            FractureSpec(
                x0=f["x0"], y0=f["y0"], x1=f["x1"], y1=f["y1"],
                gap0=f.get("gap0", 0.0),
            )
            for f in config.fractures
        ]
        mesh = generate_rect_mesh(
            gen["width"], gen["height"], int(gen["nx"]), int(gen["ny"]),
            fractures=specs, pattern=gen.get("pattern", "diagonal"),
        )
    return build_contact_pairs(split_fractures(mesh))


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required")
    return mapping[key]


def _parse_material(raw):
    if not isinstance(raw, dict):
        raise ConfigError("material: must be a mapping")
    return MaterialParams(
        E=float(_require(raw, "E", "material")),
        nu=float(_require(raw, "nu", "material")),
    )


def _parse_friction(raw):
    if not isinstance(raw, dict):
        raise ConfigError("friction: must be a mapping")
    c = float(raw.get("cohesion", 0.0))
    if "friction_angle_deg" in raw and "friction_angle_rad" in raw:
        raise ConfigError("friction: give the angle in degrees or radians, not both")
    if "friction_angle_deg" in raw:
        phi = math.radians(float(raw["friction_angle_deg"]))
    elif "friction_angle_rad" in raw:
        phi = float(raw["friction_angle_rad"])
    else:
        raise ConfigError("friction.friction_angle_deg: required")
    return FrictionParams(cohesion=c, friction_angle=phi)


def _parse_bc(raw, idx):
    path = f"bcs[{idx}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be a mapping")
    kind = _require(raw, "kind", path)
    known = {
        "kind", "side", "nodes", "fracture", "ux", "uy", "traction",
        "pressure", "ramp",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    nodes, fracture = raw.get("nodes"), raw.get("fracture")
    if nodes is not None:
        try:
            nodes = list(nodes)
        except TypeError:
            raise ConfigError(f"{path}.nodes: must be a list of node ids") from None
        bad = [n for n in nodes if not is_integer_id(n)]
        if bad:
            raise ConfigError(f"{path}.nodes: node ids must be integers, got {bad}")
    if fracture is not None and not is_integer_id(fracture):
        raise ConfigError(
            f"{path}.fracture: fracture id must be an integer, got {fracture!r}"
        )
    bc = BoundaryCondition(
        kind=kind,
        side=raw.get("side"),
        nodes=nodes,
        fracture=fracture,
        ux=None if raw.get("ux") is None else float(raw["ux"]),
        uy=None if raw.get("uy") is None else float(raw["uy"]),
        traction=(
            None if raw.get("traction") is None
            else [float(v) for v in raw["traction"]]
        ),
        pressure=None if raw.get("pressure") is None else float(raw["pressure"]),
        ramp=None if raw.get("ramp") is None else [float(v) for v in raw["ramp"]],
    )
    if kind == "dirichlet":
        if bc.side is None and bc.nodes is None:
            raise ConfigError(f"{path}: dirichlet needs 'side' or 'nodes'")
        if bc.ux is None and bc.uy is None:
            raise ConfigError(f"{path}: dirichlet needs ux and/or uy")
    elif kind == "neumann":
        if bc.side is None or bc.traction is None:
            raise ConfigError(f"{path}: neumann needs 'side' and 'traction'")
        if len(bc.traction) != 2:
            raise ConfigError(f"{path}.traction: needs two components")
    elif kind == "fracture_pressure":
        if bc.fracture is None or bc.pressure is None:
            raise ConfigError(f"{path}: needs 'fracture' and 'pressure'")
    else:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    return bc


def _parse_solver(raw):
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ConfigError("solver: must be a mapping")
    unknown = set(raw) - {"newton_tol", "max_newton", "max_state_loops", "n_load_steps"}
    if unknown:
        raise ConfigError(f"solver: unknown keys {sorted(unknown)}")
    try:
        return SolverConfig(
            newton_tol=float(raw.get("newton_tol", 1e-4)),
            max_newton=int(raw.get("max_newton", 50)),
            max_state_loops=int(raw.get("max_state_loops", 20)),
            n_load_steps=int(raw.get("n_load_steps", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def config_from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "preset" in raw:
        from . import presets

        extra = set(raw) - {"preset"}
        if extra:
            raise ConfigError(
                f"a preset config cannot carry other keys: {sorted(extra)}"
            )
        return presets.get(raw["preset"])

    mesh_raw = _require(raw, "mesh", "config")
    if not isinstance(mesh_raw, dict):
        raise ConfigError("mesh: must be a mapping")
    mesh_file = mesh_raw.get("file")
    generator = mesh_raw.get("generator")
    if generator is not None:
        for key in ("width", "height", "nx", "ny"):
            _require(generator, key, "mesh.generator")
    fractures = mesh_raw.get("fractures", []) or []
    for i, f in enumerate(fractures):
        for key in ("x0", "y0", "x1", "y1"):
            _require(f, key, f"mesh.fractures[{i}]")

    bcs_raw = _require(raw, "bcs", "config")
    if not isinstance(bcs_raw, list) or not bcs_raw:
        raise ConfigError("bcs: must be a non-empty list")

    return RunConfig(
        name=str(raw.get("name", "run")),
        material=_parse_material(_require(raw, "material", "config")),
        friction=_parse_friction(_require(raw, "friction", "config")),
        bcs=[_parse_bc(b, i) for i, b in enumerate(bcs_raw)],
        solver=_parse_solver(raw.get("solver")),
        mesh_file=mesh_file,
        generator=dict(generator) if generator is not None else None,
        fractures=[dict(f) for f in fractures],
        outputs=list(raw.get("outputs", list(VALID_OUTPUTS))),
    )


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return config_from_dict(raw)


def serialize_config(config):
    """Dict representation that :func:`config_from_dict` parses back to an
    equal RunConfig."""
    mesh = {}
    if config.mesh_file is not None:
        mesh["file"] = config.mesh_file
    if config.generator is not None:
        mesh["generator"] = dict(config.generator)
    if config.fractures:
        mesh["fractures"] = [dict(f) for f in config.fractures]

    bcs = []
    for bc in config.bcs:
        entry = {"kind": bc.kind}
        for key in ("side", "nodes", "fracture", "ux", "uy", "traction",
                    "pressure", "ramp"):
            val = getattr(bc, key)
            if val is not None:
                entry[key] = val
        bcs.append(entry)

    return {
        "name": config.name,
        "mesh": mesh,
        "material": {"E": config.material.E, "nu": config.material.nu},
        "friction": {
            "cohesion": config.friction.cohesion,
            "friction_angle_rad": config.friction.friction_angle,
        },
        "bcs": bcs,
        "solver": {
            "newton_tol": config.solver.newton_tol,
            "max_newton": config.solver.max_newton,
            "max_state_loops": config.solver.max_state_loops,
            "n_load_steps": config.solver.n_load_steps,
        },
        "outputs": list(config.outputs),
    }


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(serialize_config(config), fh, sort_keys=False)
