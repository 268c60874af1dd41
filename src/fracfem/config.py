"""Run configuration: dataclass, YAML parsing/serialization, mesh building.

The config file is YAML with the sections ``mesh`` (either ``file`` or
``generator`` + ``fractures``), ``material``, ``friction``, ``bcs``,
``solver`` and ``outputs``; see the README for the schema.  A file holding
just ``preset: <name>`` expands to the corresponding built-in benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .contact import FrictionParams
from .elasticity import BoundaryCondition, ConfigError, MaterialParams, is_integer_id
from .mesh import (
    PATTERNS,
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
        specs = [FractureSpec(**f) for f in config.fractures]
        mesh = generate_rect_mesh(fractures=specs, **config.generator)
    return build_contact_pairs(split_fractures(mesh))


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required")
    return mapping[key]


def _number(value, path):
    """``value`` as a finite float, or a ConfigError naming ``path`` for a
    bool, a non-numeric value, NaN or an infinity."""
    if not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{path}: must be a finite number, got {value!r}")


def _string(value, path):
    """``value`` if it is a string, else a ConfigError naming ``path``."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


def _numbers(value, path):
    """``value`` as a list of floats, or a ConfigError naming ``path``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: must be a list of numbers, got {value!r}")
    return [_number(v, path) for v in value]


def _count(value, path):
    """``value`` as an int, or a ConfigError naming ``path`` for any
    non-integer (2.5, true, "3")."""
    if not is_integer_id(value):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(value)


def _fields(raw, path, convert, optional=(), other=()):
    """A copy of the mapping ``raw`` with each key of ``convert`` replaced by
    ``convert[key](value, "<path>.<key>")``.  Keys in ``optional`` may be
    missing, and one given as null is dropped; the other keys of ``convert``
    are required.  Keys in ``other`` pass as they are; any further key is an
    error."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be a mapping")
    unknown = set(raw) - set(convert) - set(other)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    out = {k: v for k, v in raw.items() if v is not None or k not in optional}
    for key, fn in convert.items():
        if key in out or key not in optional:
            out[key] = fn(_require(out, key, path), f"{path}.{key}")
    return out


def _parse_material(raw):
    raw = _fields(raw, "material", {"E": _number, "nu": _number})
    return MaterialParams(E=raw["E"], nu=raw["nu"])


def _parse_friction(raw):
    keys = ("cohesion", "friction_angle_deg", "friction_angle_rad")
    raw = _fields(raw, "friction", dict.fromkeys(keys, _number), optional=keys)
    if "friction_angle_deg" in raw and "friction_angle_rad" in raw:
        raise ConfigError("friction: give the angle in degrees or radians, not both")
    if "friction_angle_deg" in raw:
        phi = math.radians(raw["friction_angle_deg"])
    elif "friction_angle_rad" in raw:
        phi = raw["friction_angle_rad"]
    else:
        raise ConfigError("friction.friction_angle_deg: required")
    return FrictionParams(cohesion=raw.get("cohesion", 0.0), friction_angle=phi)


def _parse_bc(raw, idx):
    path = f"bcs[{idx}]"
    numbers = {"ux": _number, "uy": _number, "pressure": _number,
               "traction": _numbers, "ramp": _numbers}
    raw = _fields(raw, path, numbers, optional=tuple(numbers),
                  other=("kind", "side", "nodes", "fracture"))
    kind = _require(raw, "kind", path)
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
    try:
        bc = BoundaryCondition(**dict(raw, nodes=nodes))
    except ConfigError as exc:  # its message starts with the field name
        raise ConfigError(f"{path}.{exc}") from None
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
    keys = {"newton_tol": _number, "max_state_loops": _count, "n_load_steps": _count}
    raw = _fields(raw or {}, "solver", keys, optional=tuple(keys))
    try:
        return SolverConfig(**raw)
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
        return presets.get(_string(raw["preset"], "preset"))

    _fields(raw, "config", {}, other=(
        "name", "mesh", "material", "friction", "bcs", "solver", "outputs",
    ))
    mesh_raw = _fields(_require(raw, "mesh", "config"), "mesh",
                       {"file": _string}, optional=("file",),
                       other=("generator", "fractures"))
    mesh_file = mesh_raw.get("file")
    generator = mesh_raw.get("generator")
    if generator is not None:
        generator = _fields(generator, "mesh.generator", {
            "width": _number, "height": _number, "nx": _count, "ny": _count,
        }, other=("pattern",))
        for key in ("width", "height", "nx", "ny"):
            if generator[key] <= 0:
                raise ConfigError(
                    f"mesh.generator.{key}: must be positive, got {generator[key]!r}"
                )
        if generator.get("pattern", PATTERNS[0]) not in PATTERNS:
            raise ConfigError(f"mesh.generator.pattern: must be one of {PATTERNS}")
    coords = dict.fromkeys(("x0", "y0", "x1", "y1", "gap0"), _number)
    fractures = mesh_raw.get("fractures") or []
    if not isinstance(fractures, list):
        raise ConfigError(f"mesh.fractures: must be a list, got {fractures!r}")
    fractures = [
        _fields(f, f"mesh.fractures[{i}]", coords, optional=("gap0",))
        for i, f in enumerate(fractures)
    ]

    bcs_raw = _require(raw, "bcs", "config")
    if not isinstance(bcs_raw, list) or not bcs_raw:
        raise ConfigError("bcs: must be a non-empty list")
    outputs = raw.get("outputs", list(VALID_OUTPUTS))
    if not isinstance(outputs, list):
        raise ConfigError(f"outputs: must be a list, got {outputs!r}")

    return RunConfig(
        name=_string(raw.get("name", "run"), "name"),
        material=_parse_material(_require(raw, "material", "config")),
        friction=_parse_friction(_require(raw, "friction", "config")),
        bcs=[_parse_bc(b, i) for i, b in enumerate(bcs_raw)],
        solver=_parse_solver(raw.get("solver")),
        mesh_file=mesh_file,
        generator=generator,
        fractures=fractures,
        outputs=list(outputs),
    )


def parse_config(path):
    """The :class:`RunConfig` of the YAML file ``path``; a file that is
    not UTF-8 text or not valid YAML is a ConfigError naming it."""
    import yaml  # imported here, so runs without a config file skip it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from None
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
            "max_state_loops": config.solver.max_state_loops,
            "n_load_steps": config.solver.n_load_steps,
        },
        "outputs": list(config.outputs),
    }


def save_config(config, path):
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(serialize_config(config), fh, sort_keys=False)
