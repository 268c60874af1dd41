"""Config parsing, result export, CLI surface."""

import csv
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from fracfem import presets
from fracfem.cli import main, run
from fracfem.config import (
    build_mesh,
    config_from_dict,
    parse_config,
    save_config,
    serialize_config,
)
from fracfem.contact import StateKind
from fracfem.elasticity import ConfigError, MaterialParams, element_stresses
from fracfem.export import (
    VTK_HEADER,
    export_field,
    export_profiles,
    fracture_profiles,
    max_penetration,
)
from fracfem.mesh import generate_rect_mesh, save_mesh
from fracfem.solver import SolutionState, SolverConfig, run_load_steps

MINIMAL = {
    "mesh": {
        "generator": {"width": 1.0, "height": 1.0, "nx": 4, "ny": 4},
        "fractures": [{"x0": 0.25, "y0": 0.5, "x1": 0.75, "y1": 0.5}],
    },
    "material": {"E": 25.0e9, "nu": 0.25},
    "friction": {"cohesion": 0.0, "friction_angle_deg": 30.0},
    "bcs": [
        {"kind": "neumann", "side": "top", "traction": [0.0, -10.0e6]},
        {"kind": "dirichlet", "side": "bottom", "ux": 0.0, "uy": 0.0},
    ],
}


def read_vtk(path):
    """Read a legacy binary VTK unstructured grid.

    Returns the ASCII header lines and a dict of flat native-order arrays
    keyed by section (POINTS, CELLS, CELL_TYPES) or by data name.  Every
    payload must be followed by exactly one newline.
    """
    raw = path.read_bytes()
    pos, lines, data, n_data = 0, [], {}, None
    while pos < len(raw):
        end = raw.index(b"\n", pos)
        lines.append(raw[pos:end].decode("ascii"))
        pos = end + 1
        key, *args = lines[-1].split()
        if key in ("POINT_DATA", "CELL_DATA"):
            n_data = int(args[0])
        if key == "POINTS":
            name, dtype, size = key, ">f8", 3 * int(args[0])
        elif key == "CELLS":
            name, dtype, size = key, ">i4", int(args[1])
        elif key == "CELL_TYPES":
            name, dtype, size = key, ">i4", int(args[0])
        elif key in ("VECTORS", "TENSORS"):
            name, dtype = args[0], ">f8"
            size = (3 if key == "VECTORS" else 9) * n_data
        else:
            continue
        values = np.frombuffer(raw, dtype=dtype, count=size, offset=pos)
        data[name] = values.astype(values.dtype.newbyteorder("="))
        pos += values.nbytes
        assert raw[pos:pos + 1] == b"\n", f"no newline after {name}"
        pos += 1
    return lines, data


def write_yaml(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestParseConfig:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = parse_config(write_yaml(tmp_path, MINIMAL))
        assert cfg.solver.newton_tol == 1e-4
        assert cfg.solver.n_load_steps == 1
        assert cfg.material == MaterialParams(E=25e9, nu=0.25)
        assert cfg.friction.friction_angle == pytest.approx(math.radians(30.0))

    def test_invalid_poisson_names_field(self, tmp_path):
        bad = dict(MINIMAL, material={"E": 1e9, "nu": 0.5})
        with pytest.raises(ConfigError) as err:
            parse_config(write_yaml(tmp_path, bad))
        assert "material.nu" in str(err.value)

    def test_invalid_friction_angle(self, tmp_path):
        bad = dict(MINIMAL, friction={"cohesion": 0.0,
                                      "friction_angle_deg": 90.0})
        with pytest.raises(ConfigError) as err:
            parse_config(write_yaml(tmp_path, bad))
        assert "friction" in str(err.value)

    def test_unknown_solver_key_named(self, tmp_path):
        # a removed solver option must fail loudly, not run the default
        bad = dict(MINIMAL, solver={"linear_solver": "iterative"})
        with pytest.raises(ConfigError) as err:
            parse_config(write_yaml(tmp_path, bad))
        assert "linear_solver" in str(err.value)

    def test_preset_name_expands(self, tmp_path):
        cfg = parse_config(write_yaml(tmp_path, {"preset": "inclined-crack"}))
        assert cfg.material == MaterialParams(E=25e9, nu=0.25)
        assert cfg.friction.cohesion == 0.0
        assert cfg.friction.friction_angle == pytest.approx(math.radians(30.0))
        top = cfg.bcs[0]
        assert top.kind == "neumann"
        assert top.traction[1] == -10e6
        # crack of length 2 on the 45-degree lattice
        f = cfg.fractures[0]
        length = math.hypot(f["x1"] - f["x0"], f["y1"] - f["y0"])
        assert length == pytest.approx(2.0, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            config_from_dict({"preset": "nope"})

    def test_missing_mesh_source(self):
        bad = {k: v for k, v in MINIMAL.items() if k != "mesh"}
        bad["mesh"] = {}
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_requires_dirichlet(self):
        bad = dict(MINIMAL, bcs=[MINIMAL["bcs"][0]])
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert "Dirichlet" in str(err.value)

    def test_generator_requires_dimensions(self):
        bad = dict(MINIMAL, mesh={"generator": {"width": 1.0, "nx": 4}})
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert "mesh.generator" in str(err.value)

    def test_unknown_side_selector_reported(self, tmp_path):
        data = dict(MINIMAL)
        data["bcs"] = [
            {"kind": "neumann", "side": "north", "traction": [0.0, -1.0e6]},
            {"kind": "dirichlet", "side": "bottom", "ux": 0.0, "uy": 0.0},
        ]
        cfg = config_from_dict(data)
        mesh = build_mesh(cfg)
        from fracfem.elasticity import assemble_loads

        with pytest.raises(ConfigError) as err:
            assemble_loads(mesh, cfg.bcs)
        assert "north" in str(err.value)

    def test_unknown_node_id_reported(self):
        data = dict(MINIMAL)
        data["bcs"] = data["bcs"] + [
            {"kind": "dirichlet", "nodes": [99999], "ux": 0.0}
        ]
        cfg = config_from_dict(data)
        mesh = build_mesh(cfg)
        from fracfem.elasticity import dirichlet_constraints

        with pytest.raises(ConfigError) as err:
            dirichlet_constraints(mesh, cfg.bcs)
        assert "99999" in str(err.value)

    def test_unknown_fracture_id_reported(self):
        data = dict(MINIMAL)
        data["bcs"] = data["bcs"] + [
            {"kind": "fracture_pressure", "fracture": 7, "pressure": 1.0e6}
        ]
        cfg = config_from_dict(data)
        mesh = build_mesh(cfg)
        from fracfem.elasticity import assemble_loads

        with pytest.raises(ConfigError) as err:
            assemble_loads(mesh, cfg.bcs)
        assert "fracture 7" in str(err.value)

    @staticmethod
    def with_bc(key, value):
        """MINIMAL plus a third bc whose ``key`` is ``value``."""
        if key == "nodes":
            bc = {"kind": "dirichlet", "nodes": [0], "ux": 0.0}
        else:
            bc = {"kind": "fracture_pressure", "fracture": 0, "pressure": 1.0e6}
        bc[key] = value
        return dict(MINIMAL, bcs=MINIMAL["bcs"] + [bc])

    @pytest.mark.parametrize("key, value", [
        ("nodes", [0.5]), ("nodes", ["3"]), ("nodes", [True]), ("nodes", [0, 1.0]),
        ("nodes", 3), ("fracture", "0"), ("fracture", 0.5), ("fracture", True),
    ])
    def test_non_integer_bc_ids_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^bcs\[2\]\.{key}: "):
            config_from_dict(self.with_bc(key, value))

    def test_numpy_integer_bc_ids_accepted(self):
        cfg = config_from_dict(self.with_bc("nodes", [np.int64(1)]))
        assert cfg.bcs[2].nodes == [1]
        cfg = config_from_dict(self.with_bc("fracture", np.int32(0)))
        assert cfg.bcs[2].fracture == 0

    @pytest.mark.parametrize("key, value", [("nodes", [0.5]), ("fracture", "0")])
    def test_cli_non_integer_bc_id_exit_two(self, tmp_path, capsys, key, value):
        path = write_yaml(tmp_path, self.with_bc(key, value))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bcs[2].{key}: ")
        assert "Traceback" not in err

    def test_empty_ramp_rejected(self, tmp_path, capsys):
        bcs = [dict(MINIMAL["bcs"][0], ramp=[]), MINIMAL["bcs"][1]]
        bad = dict(MINIMAL, bcs=bcs)
        with pytest.raises(ConfigError, match=r"^bcs\[0\]\.ramp: "):
            config_from_dict(bad)
        path = write_yaml(tmp_path, bad)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bcs[0].ramp: ")
        assert "Traceback" not in err

    def test_file_mesh_with_generator_fractures_rejected(self, tmp_path):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
        mfile = tmp_path / "m.msh"
        save_mesh(mesh, mfile)
        bad = dict(MINIMAL, mesh={
            "file": str(mfile),
            "fractures": [{"x0": 0, "y0": 0.5, "x1": 1, "y1": 0.5}],
        })
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    @pytest.mark.parametrize("key", ["n_load_steps", "max_state_loops", "max_newton"])
    def test_solver_count_below_one_rejected(self, tmp_path, capsys, key):
        bad = dict(MINIMAL, solver={key: 0})
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert key in str(err.value)
        path = write_yaml(tmp_path, bad)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_every_solver_field_roundtrips(self):
        # a SolverConfig field that serialize_config drops, or that
        # config_from_dict cannot read, is one no config can set
        base = config_from_dict(MINIMAL)
        for f in dataclasses.fields(SolverConfig):
            assert f.default is not dataclasses.MISSING, f.name
            solver = dataclasses.replace(base.solver, **{f.name: f.default * 3})
            cfg = dataclasses.replace(base, solver=solver)
            assert config_from_dict(serialize_config(cfg)).solver == solver, f.name

    def test_roundtrip(self, tmp_path):
        cfg = config_from_dict(MINIMAL)
        back = config_from_dict(serialize_config(cfg))
        assert back == cfg
        path = tmp_path / "rt.yaml"
        save_config(cfg, path)
        assert parse_config(path) == cfg

    def test_mesh_file_source(self, tmp_path):
        mesh = generate_rect_mesh(1.0, 1.0, 4, 4,
                                  fractures=[(0.25, 0.5, 0.75, 0.5)])
        mfile = tmp_path / "m.msh"
        save_mesh(mesh, mfile)
        data = dict(MINIMAL, mesh={"file": str(mfile)})
        cfg = parse_config(write_yaml(tmp_path, data))
        built_mesh = build_mesh(cfg)
        assert built_mesh.n_pairs == 1


class TestExports:
    def _solved(self):
        cfg = config_from_dict(MINIMAL)
        mesh = build_mesh(cfg)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        return cfg, mesh, res

    def test_profile_csv_schema_and_order(self, tmp_path):
        cfg, mesh, res = self._solved()
        paths = export_profiles(res, mesh, tmp_path / "profiles.csv")
        assert len(paths) == 1
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eta", "uN_jump", "uT_jump", "lambdaN", "lambdaT",
                           "state"]
        etas = [float(r[0]) for r in rows[1:]]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert all(r[5] in ("stick", "slip", "open") for r in rows[1:])

    def test_zero_load_profile_all_zero(self, tmp_path):
        from fracfem.solver import initial_states

        cfg = config_from_dict(MINIMAL)
        mesh = build_mesh(cfg)
        zero = SolutionState(
            U=np.zeros(2 * mesh.n_nodes), lam=np.zeros(2 * mesh.n_pairs),
            states=initial_states(mesh),
        )
        paths = export_profiles(zero, mesh, tmp_path / "zero.csv")
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for r in rows:
            assert all(float(v) == 0.0 for v in r[1:5])

    def test_open_run_labels_open_and_zero_lambda(self, tmp_path):
        data = dict(MINIMAL)
        data["bcs"] = [
            {"kind": "fracture_pressure", "fracture": 0, "pressure": 1.0e6},
            {"kind": "dirichlet", "side": "bottom", "ux": 0.0, "uy": 0.0},
        ]
        cfg = config_from_dict(data)
        mesh = build_mesh(cfg)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        assert res.converged
        paths = export_profiles(res, mesh, tmp_path / "open.csv")
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(r[5] == "open" for r in rows)
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)

    def test_vtk_two_element_mesh(self, tmp_path):
        from fracfem.mesh import build_contact_pairs, split_fractures

        mesh = build_contact_pairs(
            split_fractures(generate_rect_mesh(1.0, 1.0, 1, 1))
        )
        state = SolutionState(U=np.zeros(8), lam=np.zeros(0), states=[])
        path = export_field(state, mesh, MaterialParams(E=1e9, nu=0.25),
                            tmp_path / "f.vtk")
        lines, data = read_vtk(path)
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert "POINTS 4 double" in lines
        assert "CELLS 2 8" in lines
        assert list(data["CELL_TYPES"]).count(5) >= 2  # triangle cell type

    def test_vtk_shows_jump_as_split_points(self, tmp_path):
        # a slipping pair of the coarse inclined crack: its jump is physical
        # (about 3e-4 m), not the roundoff left on a sticking pair
        cfg = presets.inclined_crack(k_hops=10, nx=16)
        mesh = build_mesh(cfg)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        pair = mesh.pairs[mesh.n_pairs // 2]
        assert res.converged and res.states[pair.id].kind is StateKind.SLIP
        path = export_field(res, mesh, cfg.material, tmp_path / "j.vtk")
        _, data = read_vtk(path)
        pts = data["POINTS"].reshape(mesh.n_nodes, 3)
        disp = data["displacement"].reshape(mesh.n_nodes, 3)
        np.testing.assert_allclose(pts[pair.node_plus], pts[pair.node_minus])
        jump_file = disp[pair.node_plus] - disp[pair.node_minus]
        jump_state = (
            res.U[2 * pair.node_plus : 2 * pair.node_plus + 2]
            - res.U[2 * pair.node_minus : 2 * pair.node_minus + 2]
        )
        np.testing.assert_allclose(jump_file[:2], jump_state, rtol=1e-12)
        assert np.linalg.norm(jump_state) > 1e-9

    def test_vtk_round_trip_is_bit_exact(self, tmp_path):
        cfg = presets.crossing_single()
        mesh = build_mesh(cfg)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        assert res.converged
        path = export_field(res, mesh, cfg.material, tmp_path / "field.vtk")
        lines, data = read_vtk(path)

        n, m = mesh.n_nodes, mesh.n_elements
        header = [
            VTK_HEADER, "fracfem displacement and stress field", "BINARY",
            "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double",
            f"CELLS {m} {4 * m}", f"CELL_TYPES {m}", f"POINT_DATA {n}",
            "VECTORS displacement double", f"CELL_DATA {m}",
            "TENSORS stress double",
        ]
        assert lines == header
        # header lines, one newline closing each of the 5 payloads, payloads
        payload = 8 * 3 * n + 4 * 4 * m + 4 * m + 8 * 3 * n + 8 * 9 * m
        assert path.stat().st_size == (
            sum(len(h) + 1 for h in header) + 5 + payload
        )

        def bits(a):
            return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)

        zn, zm = np.zeros(n), np.zeros(m)
        np.testing.assert_array_equal(
            bits(data["POINTS"]), bits(np.column_stack([mesh.nodes, zn]).ravel())
        )
        cells = data["CELLS"].reshape(m, 4)
        assert (cells[:, 0] == 3).all()
        np.testing.assert_array_equal(cells[:, 1:], mesh.elements)
        assert (data["CELL_TYPES"] == 5).all() and data["CELL_TYPES"].size == m
        np.testing.assert_array_equal(
            bits(data["displacement"]),
            bits(np.column_stack([res.U.reshape(n, 2), zn]).ravel()),
        )
        sxx, syy, sxy = element_stresses(mesh, cfg.material, res.U).T
        szz = cfg.material.nu * (sxx + syy)
        tensors = np.column_stack([sxx, sxy, zm, sxy, syy, zm, zm, zm, szz])
        np.testing.assert_array_equal(bits(data["stress"]), bits(tensors.ravel()))
        assert np.abs(szz).max() > 0.0

    def test_max_penetration_equals_per_pair_trial_gaps(self):
        from fracfem.contact import pair_kinematics

        cfg, mesh, res = self._solved()
        rng = np.random.default_rng(7)
        values = []
        for U in (res.U, *rng.standard_normal((6, res.U.size))):
            state = SolutionState(U=U, lam=res.lam, states=res.states)
            ref = min([0.0, *(pair_kinematics(p, U, res.lam).trial_gap
                              for p in mesh.pairs)])
            values.append(max_penetration(mesh, state))
            assert repr(values[-1]) == repr(ref)
        assert min(values) < 0.0
        bare = build_mesh(dataclasses.replace(cfg, fractures=[]))
        assert bare.n_pairs == 0
        empty = SolutionState(U=np.zeros(2 * bare.n_nodes), lam=np.zeros(0),
                              states=[])
        assert repr(max_penetration(bare, empty)) == "0.0"

    @pytest.mark.parametrize("n_nodes, n_elements", [(2**31, 1), (4, 2**29)])
    def test_vtk_rejects_ids_beyond_int32(self, tmp_path, n_nodes, n_elements):
        mesh = SimpleNamespace(n_nodes=n_nodes, n_elements=n_elements)
        with pytest.raises(ValueError, match="int32"):
            export_field(None, mesh, None, tmp_path / "big.vtk")
        assert not (tmp_path / "big.vtk").exists()


class TestRunAndCli:
    def test_run_writes_outputs_and_converges(self, tmp_path):
        cfg = config_from_dict(MINIMAL)
        status, summary = run(cfg, tmp_path / "out")
        assert status == 0
        assert (tmp_path / "out" / "profiles_f0.csv").exists()
        assert (tmp_path / "out" / "field.vtk").exists()
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(data) == {
            "preset", "rel_L2", "max_penetration", "newton_iters",
            "wall_time_s",
        }
        assert data["max_penetration"] >= -1e-8

    def test_run_failure_exit_and_diagnostics(self, tmp_path):
        data = dict(MINIMAL)
        # enough shear to trigger slip, so one state loop cannot suffice
        data["bcs"] = [
            {"kind": "neumann", "side": "top", "traction": [8.0e6, -10.0e6]},
            {"kind": "dirichlet", "side": "bottom", "ux": 0.0, "uy": 0.0},
        ]
        data["solver"] = {"max_state_loops": 1}
        cfg = config_from_dict(data)
        status, _ = run(cfg, tmp_path / "out")
        assert status == 1
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert "max_state_loops" in diag["message"]

    def test_cli_run_exit_zero(self, tmp_path, capsys):
        path = write_yaml(tmp_path, MINIMAL)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "newton" in out  # convergence table header

    def test_cli_bench_writes_report(self, tmp_path):
        report = tmp_path / "report.json"
        status = main([
            "bench", "shear-throughgoing",
            "--report", str(report), "--out", str(tmp_path / "b"),
        ])
        assert status == 0
        data = json.loads(report.read_text())
        assert data["preset"] == "shear-throughgoing"
        assert data["rel_L2"] is not None
        assert data["rel_L2"] < 0.02

    def test_cli_mesh_info(self, tmp_path, capsys):
        mesh = generate_rect_mesh(1.0, 1.0, 2, 2,
                                  fractures=[(0.0, 0.5, 1.0, 0.5)])
        mfile = tmp_path / "m.msh"
        save_mesh(mesh, mfile)
        assert main(["mesh-info", str(mfile)]) == 0
        out = capsys.readouterr().out
        assert "nodes:     9" in out
        assert "through-going" in out

    def test_cli_mesh_info_bad_count_exit_two(self, tmp_path, capsys):
        mfile = tmp_path / "m.msh"
        mfile.write_text("NODES -1\nELEMENTS 0\nFRACTURES 0\nEND\n")
        assert main(["mesh-info", str(mfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: NODES count")
        assert "Traceback" not in err

    def test_cli_bad_config_exit_two(self, tmp_path, capsys):
        bad = dict(MINIMAL, material={"E": 1e9, "nu": 0.7})
        path = write_yaml(tmp_path, bad)
        assert main(["run", str(path)]) == 2
        assert "material.nu" in capsys.readouterr().err


class TestCrossingProfileExport:
    def test_crossing_pairs_nudged_but_ordered(self, tmp_path):
        cfg = presets.crossing_single()
        mesh = build_mesh(cfg)
        res = run_load_steps(mesh, cfg.material, cfg.friction, cfg.bcs,
                             cfg.solver)[-1]
        assert res.converged
        profiles = fracture_profiles(mesh, res)
        for fid, records in profiles.items():
            etas = [r.eta for r in records]
            assert all(b > a for a, b in zip(etas, etas[1:]))
            # two crossing records per fracture, a whisker apart
            n_regular = sum(
                1 for p in mesh.pairs
                if p.fracture == fid and not p.is_crossing_pair
            )
            assert len(records) == n_regular + 2
