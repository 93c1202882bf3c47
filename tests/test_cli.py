import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinreduce import ConfigurationError
from kinreduce.cli import main
from kinreduce.io import (
    SNAPSHOT_HEADER_BYTES,
    read_csv,
    read_snapshots,
    write_snapshots,
)


DEMO_AUDIT = Path(__file__).resolve().parents[1] / "configs" / "demo_audit.json"

# arbitrary JSON values, with integers beyond the float range among the leaves
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


def base_config(**overrides):
    doc = {
        "manifold": {"kind": "conservative_moment", "size": 2},
        "collision": {"kind": "bgk", "tau": 0.2},
        "velocity_grid": {"half_width": 8.5, "cells": 48},
        "spatial_mesh": {"cells": 16, "length": 1.0},
        "initial_condition": {
            "preset": "maxwellian",
            "rho": 1.0,
            "u": 0.0,
            "theta": 1.0,
        },
        "time": {"final": 0.02, "cfl": 0.45, "output_interval": 0.01},
        "norms": {"p": 2.0},
        "seeds": {"audit": 7},
    }
    for key, val in overrides.items():
        doc[key] = val
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigValidation:
    def test_negative_tau_names_field(self, tmp_path, capsys):
        doc = base_config(collision={"kind": "bgk", "tau": -0.5})
        cfg = write_config(tmp_path, doc)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "collision.tau" in capsys.readouterr().err

    def test_unknown_manifold_kind(self, tmp_path, capsys):
        doc = base_config(manifold={"kind": "grad13", "size": 2})
        cfg = write_config(tmp_path, doc)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "manifold" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["velocity_grid"]["halfwidth"] = 3.0
        cfg = write_config(tmp_path, doc)
        code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "velocity_grid.halfwidth" in capsys.readouterr().err

    def test_non_periodic_mesh_exits_two(self, tmp_path, capsys):
        from kinreduce.config import parse_config

        mesh = {"cells": 16, "length": 1.0, "periodic": True}
        assert parse_config(base_config(spatial_mesh=mesh)).mesh().cells == 16
        cfg = write_config(tmp_path, base_config(spatial_mesh={**mesh, "periodic": False}))
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "spatial_mesh.periodic" in capsys.readouterr().err

    @pytest.mark.parametrize("periodic", ["no", 5, [0]])
    def test_truthy_periodic_that_is_not_true_is_rejected(self, periodic):
        from kinreduce.config import parse_config

        doc = base_config(spatial_mesh={"cells": 16, "length": 1.0, "periodic": periodic})
        with pytest.raises(ConfigurationError, match=r"spatial_mesh\.periodic must be true"):
            parse_config(doc)

    def test_missing_file(self, tmp_path):
        code = main(
            ["reduce", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("collision", "tau", float("nan")),
            ("time", "final", float("inf")),
            ("spatial_mesh", "cells", float("inf")),
            ("seeds", "audit", float("nan")),
            # integers too large for a float
            ("collision", "tau", 10**400),
            ("spatial_mesh", "cells", 10**400),
            ("seeds", "audit", 10**400),
        ],
    )
    def test_non_finite_number_names_field(self, section, key, value):
        from kinreduce.config import parse_config

        doc = base_config()
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=rf"{section}\.{key} must be finite"):
            parse_config(doc)

    def test_non_finite_number_exits_two(self, tmp_path, capsys):
        # Python's json module writes NaN and reads it back
        doc = base_config(collision={"kind": "bgk", "tau": float("nan")})
        cfg = write_config(tmp_path, doc)
        assert "NaN" in cfg.read_text()
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "collision.tau" in capsys.readouterr().err

    def test_integer_over_the_digit_limit_exits_two(self, tmp_path, capsys):
        # the json module refuses an integer of more than 4300 digits
        cfg = write_config(tmp_path, base_config(collision={"kind": "bgk", "tau": 7}))
        cfg.write_text(cfg.read_text().replace('"tau": 7', '"tau": 1' + "0" * 5000))
        assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,value",
        [("manifold", 3), ("time", None), ("collision", 1.5), ("norms", 5),
         ("initial_condition", 7), ("initial_condition", "preset"), ("audit", [1]),
         ("seeds", "audit")],
    )
    def test_section_not_an_object_names_it(self, section, value):
        from kinreduce.config import parse_config

        with pytest.raises(ConfigurationError, match=rf"^{section} must be a JSON object$"):
            parse_config(base_config(**{section: value}))

    def test_section_not_an_object_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(manifold=3))
        assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "manifold must be a JSON object" in capsys.readouterr().err

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_any_json_in_one_place_is_a_config_or_a_configuration_error(self, data):
        # one section or one leaf of a valid scenario replaced by
        # arbitrary JSON: parse_config returns or raises ConfigurationError
        from kinreduce.config import parse_config

        doc = base_config(audit={"samples": 8, "max_degree": 4, "lambda_claim": 0.5})
        paths = [(sec,) for sec in doc] + [(sec, key) for sec in doc for key in doc[sec]]
        path = data.draw(st.sampled_from(paths))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_JSON)
        try:
            parse_config(doc)
        except ConfigurationError:
            pass

    def test_threads_flag_is_unknown(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as info:
            main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert info.value.code == 2


class TestReduce:
    def test_equilibrium_scenario_columns_constant(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "red"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "trajectory.csv")
        assert header[0] == "time" and header[-1] == "entropy"
        for col in range(1, data.shape[1]):
            series = data[:, col]
            assert np.abs(series - series[0]).max() <= 1e-11 * (1 + abs(series[0]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "reduce"
        for entry in manifest["outputs"].values():
            assert entry["config_sha256"] == manifest["config_sha256"]

    def test_data_outputs_byte_identical_across_runs(self, tmp_path):
        doc = base_config(
            initial_condition={
                "preset": "sine-density",
                "rho0": 1.0,
                "amplitude": 0.1,
                "u": 0.0,
                "theta": 1.0,
            }
        )
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["reduce", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["reduce", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "omega_snapshots.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRuntimeErrors:
    def test_unrealizable_scenario_maps_to_exit_three(self, tmp_path, capsys):
        # this mixture has no realizable degree-4 representation: every
        # preimage the cold starts find dips below zero by at least 0.11
        # of its maximum, so the initial projection is a genuine runtime
        # failure and not one decided by round-off
        doc = base_config(
            manifold={"kind": "conservative_moment", "size": 4},
            initial_condition={
                "preset": "two-maxwellian-mix",
                "rho1": 0.5, "u1": -2.0, "theta1": 0.2,
                "rho2": 0.5, "u2": 2.0, "theta2": 0.2,
            },
        )
        cfg = write_config(tmp_path, doc)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "cell 0:" in err

    def test_generic_path_failure_names_cell_and_time(self, tmp_path, capsys):
        # the Hermite tail of HermitePerturbation(4) dips below zero at
        # a far quadrature node before t = 0.1; the steps advance the
        # signed ansatz, and the record at the t = 0.1 output applies the
        # sign rule and names the lowest cell that dips
        doc = json.loads(
            (Path(__file__).parents[1] / "configs" / "demo_smooth_bgk.json").read_text()
        )
        doc["manifold"] = {"kind": "hermite_perturbation", "size": 4}
        doc["spatial_mesh"]["cells"] = 50
        doc["time"]["final"] = 0.1
        cfg = write_config(tmp_path, doc)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        found = re.search(r"runtime error \(cell (\d+), t = ([0-9.eE+-]+)\)", err)
        assert found, err
        assert 0 <= int(found.group(1)) < 50
        assert float(found.group(2)) == 0.1
        assert "ansatz evaluates to" in err

    def test_degenerate_chart_names_cell_and_time(self, tmp_path, capsys, degenerate_cell):
        # a chart direction that vanishes at one cell makes its Gram
        # singular; the CLI must name the cell instead of printing a
        # raw linear-algebra traceback
        doc = base_config(
            manifold={"kind": "hermite_perturbation", "size": 4},
            initial_condition={"preset": "sine-density", "rho0": 1.0,
                               "amplitude": 0.1, "u": 0.0, "theta": 1.0},
        )
        degenerate_cell(7, cells=16)
        cfg = write_config(tmp_path, doc)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime error (cell 7, t = 0)" in err
        assert "not SPD" in err

    def test_reference_failure_names_cell_and_time(self, tmp_path, capsys, monkeypatch):
        from kinreduce.config import ScenarioConfig

        initial_field = ScenarioConfig.initial_field

        def with_empty_cell(self):
            field = initial_field(self)
            field.values[1] = 0.0
            return field

        monkeypatch.setattr(ScenarioConfig, "initial_field", with_empty_cell)
        cfg = write_config(tmp_path, base_config())
        code = main(["reference", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "runtime error (cell 1, t = 0)" in capsys.readouterr().err

    def test_two_maxwellian_mix_preset_runs(self, tmp_path):
        doc = base_config(
            manifold={"kind": "conservative_moment", "size": 4},
            initial_condition={
                "preset": "two-maxwellian-mix",
                "rho1": 0.6, "u1": -0.5, "theta1": 0.8,
                "rho2": 0.6, "u2": 0.5, "theta2": 0.8,
            },
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mix"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "trajectory.csv")
        mass = data[:, 1]
        assert np.abs(mass - mass[0]).max() <= 1e-9 * mass[0]


class TestReference:
    def test_outputs_and_determinism(self, tmp_path):
        doc = base_config(
            initial_condition={
                "preset": "sine-density",
                "rho0": 1.0,
                "amplitude": 0.1,
                "u": 0.0,
                "theta": 1.0,
            }
        )
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reference", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["reference", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "snapshots.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_snapshot_byte_length_and_roundtrip(self, tmp_path):
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ref"
        assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / "snapshots.bin").read_bytes()
        cells, nodes = 16, 48 * 4  # composite rule: 4 points per cell
        ntimes = 3  # t = 0, 0.01, 0.02
        assert len(raw) == SNAPSHOT_HEADER_BYTES + 8 * cells * nodes * ntimes
        frames, half_width, dx = read_snapshots(out / "snapshots.bin")
        assert frames.shape == (ntimes, cells, nodes)
        assert half_width == 8.5 and dx == pytest.approx(1.0 / 16)
        # write -> read roundtrip is exact
        write_snapshots(tmp_path / "copy.bin", frames, half_width, dx)
        frames2, *_ = read_snapshots(tmp_path / "copy.bin")
        assert np.array_equal(frames, frames2)


# the CLI's set-up imports every module a command needs: a module first
# imported inside a command is paid by every run of that command
IMPORT_GRAPH = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import kinreduce.cli as cli
from kinreduce.config import load_config
assert "scipy" not in sys.modules, "kinreduce.cli imports scipy"
out = Path(sys.argv[2])
cfg = load_config(out / "config.json")
commands = {
    "reduce": lambda: cli.cmd_reduce(cfg, out / "reduce"),
    "reference": lambda: cli.cmd_reference(cfg, out / "reference"),
    "estimate": lambda: cli.cmd_estimate(out / "reduce", out / "reference", out / "estimate"),
    "audit": lambda: cli.cmd_audit(cfg, out / "audit"),
}
added = {}
for name, run in commands.items():
    (out / name).mkdir()
    before = set(sys.modules)
    assert run() == 0, name
    added[name] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


def test_commands_import_nothing_after_setup(tmp_path):
    doc = base_config(
        spatial_mesh={"cells": 4, "length": 1.0},
        initial_condition={"preset": "sine-density", "rho0": 1.0, "amplitude": 0.1,
                           "u": 0.0, "theta": 1.0},
        audit={"samples": 8, "max_degree": 4},
    )
    write_config(tmp_path, doc)
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, str(Path(__file__).parents[1] / "src"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    added = json.loads(run.stdout.splitlines()[-1])
    assert added == {name: [] for name in ("reduce", "reference", "estimate", "audit")}


class TestRunDirectory:
    def test_round_trip_matches_in_process_runs(self, tmp_path):
        from kinreduce.cli import _load_run
        from kinreduce.config import parse_config
        from kinreduce.reduced_solver import run_reduced
        from kinreduce.reference_solver import run_reference

        # 0.02 is not a multiple of 0.015, so the last interval is short
        doc = base_config(
            initial_condition={"preset": "sine-density", "rho0": 1.0,
                               "amplitude": 0.1, "u": 0.0, "theta": 1.0},
            time={"final": 0.02, "cfl": 0.45, "output_interval": 0.015},
        )
        cfg_path = write_config(tmp_path, doc)
        cfg = parse_config(doc)
        kw = dict(cfl=cfg.cfl, output_interval=cfg.output_interval)
        runs = {
            "reduce": (run_reduced(cfg.manifold(), cfg.model(), cfg.initial_field(),
                                   cfg.final_time, **kw), "omegas"),
            "reference": (run_reference(cfg.model(), cfg.initial_field(),
                                        cfg.final_time, **kw), "snapshots"),
        }
        for kind, (traj, frames_attr) in runs.items():
            out = tmp_path / kind
            assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 0
            manifest, loaded_cfg, frames = _load_run(out, kind)
            assert loaded_cfg == cfg
            assert [float(t) for t in manifest["times"]] == traj.times.tolist()
            assert np.array_equal(frames, getattr(traj, frames_attr))
            header, data = read_csv(out / "trajectory.csv")
            width = traj.moment_totals.shape[1]  # 5 for CM(2), 3 for the reference
            assert header == ["time", *(f"c{k}" for k in range(width)), "entropy"]
            assert data[:, 0].tolist() == traj.times.tolist()
            assert data[:, 1:-1].tolist() == traj.moment_totals.tolist()
            assert data[:, -1].tolist() == traj.entropy.tolist()


class TestAudit:
    def test_default_config_all_pass(self, tmp_path):
        doc = base_config()
        doc["audit"] = {"samples": 40, "max_degree": 6, "dimension": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "stability.json").read_text())
        assert rep["hyperbolicity"]["pass"]
        assert rep["speed"]["pass"]
        assert all(entry["pass"] for entry in rep["gusc"].values())
        assert rep["yong"]["block_pass"] and rep["yong"]["symmetry_pass"]
        assert rep["yong"]["dissipativity_pass"]

    def test_failed_claim_is_reported_not_fatal(self, tmp_path):
        doc = base_config(
            collision={"kind": "shakhov", "tau": 1.0, "prandtl": 0.7}
        )
        doc["audit"] = {"samples": 10, "lambda_claim": 0.71}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "stability.json").read_text())
        assert not rep["gusc"]["shakhov"]["pass"]
        assert rep["gusc"]["shakhov"]["worst_quotient"] == pytest.approx(-0.7, abs=1e-8)


    @pytest.mark.parametrize("kind, size", [("conservative_moment", 0), ("entropy_closure", 3)])
    def test_equilibrium_manifolds_write_strict_json(self, tmp_path, kind, size):
        # the equilibrium tangent is the whole space: no dissipativity
        # constant, written as null, never as the bare token Infinity
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(DEMO_AUDIT.read_text(encoding="utf-8"))
        doc["manifold"] = {"kind": kind, "size": size}
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        rep = json.loads((out / "stability.json").read_text(), parse_constant=refuse)
        assert rep["yong"]["dissipativity_constant"] is None
        assert all(rep["yong"][key] for key in
                   ("block_pass", "symmetry_pass", "dissipativity_pass", "gwsc_pass"))

    def test_unsamplable_manifold_exits_two(self, tmp_path, capsys):
        # no degree-1 polynomial factor stays positive on [-100, 100]
        doc = json.loads(DEMO_AUDIT.read_text(encoding="utf-8"))
        doc["manifold"]["size"] = 1
        doc["velocity_grid"]["half_width"] = 100.0
        cfg = write_config(tmp_path, doc)
        code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "aud")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: failed to sample a valid conservative_moment(N=1) point")
        assert "half width 100.0" in err and "u_range=(-1.0, 1.0)" in err

    @pytest.mark.parametrize("size", [1, 2])
    def test_entropy_closure_without_a_maxwellian_exits_two(self, tmp_path, capsys, size):
        doc = json.loads(DEMO_AUDIT.read_text(encoding="utf-8"))
        doc["manifold"] = {"kind": "entropy_closure", "size": size}
        cfg = write_config(tmp_path, doc)
        code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "aud")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot sample entropy_closure(n={size}) points")
        assert "size >= 3" in err

    @pytest.mark.parametrize("kind, size", [("conservative_moment", 2),
                                            ("hermite_perturbation", 4)])
    def test_each_stack_is_drawn_and_assembled_once(self, tmp_path, monkeypatch, kind, size):
        # 200 samples are two stacks, 128 and 72 rows, that both audits
        # share; the Yong check's chart jet is the one-row call
        from kinreduce import ConservativeMoment, HermitePerturbation

        cls = {"conservative_moment": ConservativeMoment,
               "hermite_perturbation": HermitePerturbation}[kind]
        rows = {"sample_batch": [], "jet_batch": []}

        def counted(name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                rows[name].append(len(out[0] if name == "jet_batch" else out))
                return out

            monkeypatch.setattr(cls, name, wrapper)

        counted("sample_batch")
        counted("jet_batch")
        doc = base_config(manifold={"kind": kind, "size": size})
        doc["audit"] = {"samples": 200}
        cfg = write_config(tmp_path, doc)
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "aud")]) == 0
        assert rows["sample_batch"] == [128, 72]
        if kind == "hermite_perturbation":
            assert rows["jet_batch"] == [128, 72, 1]

    def test_demo_audit_builds_no_ansatz_point(self, tmp_path, monkeypatch):
        from kinreduce.ansatz import AnsatzPoint

        def refuse(self):
            raise AssertionError("the audit built an AnsatzPoint")

        monkeypatch.setattr(AnsatzPoint, "__post_init__", refuse)
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(DEMO_AUDIT), "--out", str(out)]) == 0
        assert (out / "stability.json").is_file()


class TestEstimate:
    def test_self_comparison_gives_zero_actual(self, tmp_path):
        doc = base_config(
            initial_condition={
                "preset": "sine-density",
                "rho0": 1.0,
                "amplitude": 0.1,
                "u": 0.0,
                "theta": 1.0,
            }
        )
        cfg = write_config(tmp_path, doc)
        red = tmp_path / "red"
        assert main(["reduce", "--config", str(cfg), "--out", str(red)]) == 0

        # fabricate a reference whose snapshots ARE the evaluated reduced
        # fields, so the measured error must vanish
        from kinreduce.config import parse_config

        scenario = parse_config(doc)
        manifold, grid = scenario.manifold(), scenario.grid()
        omegas, hw, dx = read_snapshots(red / "omega_snapshots.bin")
        snaps = np.stack(
            [
                manifold.values_batch(om, grid.nodes)
                for om in omegas
            ]
        )
        ref = tmp_path / "ref"
        ref.mkdir()
        write_snapshots(ref / "snapshots.bin", snaps, hw, dx)
        red_manifest = json.loads((red / "manifest.json").read_text())
        ref_manifest = dict(red_manifest)
        ref_manifest["kind"] = "reference"
        (ref / "manifest.json").write_text(json.dumps(ref_manifest))
        (ref / "trajectory.csv").write_text("time\n0\n")

        out = tmp_path / "est"
        assert main(
            ["estimate", "--reduce-dir", str(red), "--reference-dir", str(ref),
             "--out", str(out)]
        ) == 0
        header, data = read_csv(out / "error.csv")
        actual = data[:, header.index("actual")]
        assert np.abs(actual).max() <= 1e-12
        summary = json.loads((out / "error_summary.json").read_text())
        assert summary["dominated"]

    def _runs(self, tmp_path, manifold):
        doc = base_config(
            manifold=manifold,
            initial_condition={"preset": "sine-density", "rho0": 1.0,
                               "amplitude": 0.1, "u": 0.0, "theta": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        red, ref = tmp_path / "red", tmp_path / "ref"
        assert main(["reduce", "--config", str(cfg), "--out", str(red)]) == 0
        assert main(["reference", "--config", str(cfg), "--out", str(ref)]) == 0
        return red, ref

    def _estimate(self, red, ref, out):
        return main(["estimate", "--reduce-dir", str(red), "--reference-dir", str(ref),
                     "--out", str(out)])

    @pytest.mark.parametrize("manifold", [
        {"kind": "conservative_moment", "size": 2},
        {"kind": "hermite_perturbation", "size": 4},
    ], ids=["cm2", "hermite4"])
    def test_outputs_are_the_library_error_report(self, tmp_path, manifold):
        from kinreduce.config import parse_config
        from kinreduce.error_estimator import build_error_report
        from kinreduce.reduced_solver import run_reduced
        from kinreduce.reference_solver import run_reference

        red, ref = self._runs(tmp_path, manifold)
        assert self._estimate(red, ref, tmp_path / "est") == 0
        cfg = parse_config(json.loads((red / "manifest.json").read_text())["config"])
        kw = dict(cfl=cfg.cfl, output_interval=cfg.output_interval)
        rep = build_error_report(
            run_reduced(cfg.manifold(), cfg.model(), cfg.initial_field(), cfg.final_time, **kw),
            run_reference(cfg.model(), cfg.initial_field(), cfg.final_time, **kw),
            cfg.model(), cfg.p, seed=cfg.audit_seed,
        )
        summary = json.loads((tmp_path / "est" / "error_summary.json").read_text())
        header, data = read_csv(tmp_path / "est" / "error.csv")
        assert summary["lipschitz"] == rep.lipschitz
        assert summary["bound_final"] == rep.bound[-1]
        assert summary["dominated"] is (not rep.violated)
        for name, want in (("residual_norm", rep.residual_norms), ("bound", rep.bound),
                           ("actual", rep.actual), ("ratio", rep.ratio)):
            assert data[:, header.index(name)].tolist() == want.tolist(), name

    @pytest.mark.parametrize("run,corrupt", [
        ("red", lambda frames, hw, dx: (frames[:-1], hw, dx)),
        ("ref", lambda frames, hw, dx: (frames[:, :8], hw, dx)),
        ("red", lambda frames, hw, dx: (frames[..., :-1], hw, dx)),
        ("ref", lambda frames, hw, dx: (frames, hw + 1.0, dx)),
        ("red", lambda frames, hw, dx: (frames, hw, 2.0 * dx)),
    ], ids=["reduce-missing-frame", "reference-8-of-16-cells", "reduce-short-rows",
            "reference-half-width", "reduce-dx"])
    def test_snapshots_disagreeing_with_manifest_exit_two(self, tmp_path, capsys, run, corrupt):
        red, ref = self._runs(tmp_path, {"kind": "conservative_moment", "size": 2})
        path = {"red": red / "omega_snapshots.bin", "ref": ref / "snapshots.bin"}[run]
        write_snapshots(path, *corrupt(*read_snapshots(path)))
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 2
        assert f"error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [(-1, -1, 0), (-2, -3, 4)], ids=str)
    def test_snapshot_header_with_negative_sizes_exits_two(self, tmp_path, capsys, sizes):
        red, ref = self._runs(tmp_path, {"kind": "conservative_moment", "size": 2})
        path = red / "omega_snapshots.bin"
        rows, cols, n_frames = sizes
        # the payload the header's sizes ask for: 8 rows cols n_frames bytes
        path.write_bytes(struct.pack("<qqqdd", rows, cols, n_frames, 8.5, 0.0625)
                         + bytes(8 * rows * cols * n_frames))
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 2
        err = capsys.readouterr().err
        assert f"error: snapshot file {path} has a header with negative sizes" in err

    def test_error_csv_byte_identical_across_runs(self, tmp_path):
        red, ref = self._runs(tmp_path, {"kind": "hermite_perturbation", "size": 4})
        assert self._estimate(red, ref, tmp_path / "e1") == 0
        assert self._estimate(red, ref, tmp_path / "e2") == 0
        assert (tmp_path / "e1" / "error.csv").read_bytes() == \
            (tmp_path / "e2" / "error.csv").read_bytes()

    def test_nonpositive_density_names_cell_and_time(self, tmp_path, capsys):
        red, ref = self._runs(tmp_path, {"kind": "conservative_moment", "size": 2})
        omegas, hw, dx = read_snapshots(red / "omega_snapshots.bin")
        omegas[1, 5, :3] *= -1.0  # f < 0 in cell 5 at t = 0.01
        write_snapshots(red / "omega_snapshots.bin", omegas, hw, dx)
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 3
        err = capsys.readouterr().err
        assert "runtime error (cell 5, t = 0.01)" in err
        assert "unrealizable moments" in err

    def test_singular_gram_names_cell_and_time(self, tmp_path, capsys, degenerate_cell):
        red, ref = self._runs(tmp_path, {"kind": "hermite_perturbation", "size": 4})
        degenerate_cell(7, cells=16, call=2)  # the residual at t = 0.02
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 3
        err = capsys.readouterr().err
        assert "runtime error (cell 7, t = 0.02)" in err
        assert "not SPD" in err

    def _pair(self, tmp_path, ref_overrides):
        """A reduce run of a sine-density BGK scenario and a reference run
        of the same scenario with ``ref_overrides``."""
        doc = base_config(initial_condition={"preset": "sine-density", "rho0": 1.0,
                                             "amplitude": 0.1, "u": 0.0, "theta": 1.0})
        red, ref = tmp_path / "red", tmp_path / "ref"
        cfg = write_config(tmp_path, doc)
        assert main(["reduce", "--config", str(cfg), "--out", str(red)]) == 0
        doc.update(ref_overrides)
        cfg = write_config(tmp_path, doc, name="ref.json")
        assert main(["reference", "--config", str(cfg), "--out", str(ref)]) == 0
        return red, ref

    @pytest.mark.parametrize("overrides,section", [
        ({"collision": {"kind": "bgk", "tau": 5.0},
          "initial_condition": {"preset": "sine-density", "rho0": 1.0,
                                "amplitude": 0.15, "u": 0.0, "theta": 1.0}}, "collision"),
        ({"collision": {"kind": "shakhov", "tau": 0.2, "prandtl": 2.0 / 3.0}}, "collision"),
        ({"initial_condition": {"preset": "sine-density", "rho0": 1.0,
                                "amplitude": 0.15, "u": 0.0, "theta": 1.0}},
         "initial_condition"),
    ], ids=["tau-and-amplitude", "collision-kind", "amplitude"])
    def test_reference_of_another_scenario_exits_two(self, tmp_path, capsys,
                                                      overrides, section):
        red, ref = self._pair(tmp_path, overrides)
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 2
        err = capsys.readouterr().err
        assert f"different scenarios: {section}" in err
        assert not (tmp_path / "est" / "error_summary.json").exists()

    def test_finer_reference_cfl_is_accepted(self, tmp_path):
        red, ref = self._pair(tmp_path, {"time": {"final": 0.02, "cfl": 0.2,
                                                  "output_interval": 0.01}})
        assert self._estimate(red, ref, tmp_path / "est") == 0

    @pytest.mark.parametrize("text,why", [
        ('{"kind": "reduce",', "is not valid JSON"),
        ("[1, 2]", "does not hold a JSON object"),
    ], ids=["truncated", "list"])
    def test_manifest_that_is_no_json_object_exits_two(self, tmp_path, capsys, text, why):
        for name in ("red", "ref"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(text)
        capsys.readouterr()
        assert self._estimate(tmp_path / "red", tmp_path / "ref", tmp_path / "est") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'red' / 'manifest.json'} {why}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value,why", [
        ("mesh", [1], "field 'mesh' is not an object"),
        ("velocity_grid", "x", "field 'velocity_grid' is not an object"),
        ("times", 5, "field 'times' is not a list"),
        ("times", ["a", "b"], "field 'times' holds 'a', not a number"),
        ("mesh", None, "has no field 'mesh'"),
        ("velocity_grid", {"half_width": 9.0, "nodes": 0}, "field 'velocity_grid.nodes' is not"),
    ], ids=["mesh-list", "velocity-grid-string", "times-number", "times-strings",
            "mesh-missing", "no-nodes"])
    def test_malformed_manifest_field_exits_two(self, tmp_path, capsys, field, value, why):
        red, ref = self._runs(tmp_path, {"kind": "conservative_moment", "size": 2})
        path = red / "manifest.json"
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self._estimate(red, ref, tmp_path / "est") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} {why}")
        assert "Traceback" not in err

    def test_missing_inputs_exit_two(self, tmp_path):
        code = main(
            ["estimate", "--reduce-dir", str(tmp_path / "a"),
             "--reference-dir", str(tmp_path / "b"), "--out", str(tmp_path / "c")]
        )
        assert code == 2

    def test_mismatched_grids_exit_two(self, tmp_path):
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        red = tmp_path / "red"
        assert main(["reduce", "--config", str(cfg), "--out", str(red)]) == 0
        doc2 = base_config(spatial_mesh={"cells": 8, "length": 1.0})
        cfg2 = write_config(tmp_path, doc2, name="config2.json")
        ref = tmp_path / "ref"
        assert main(["reference", "--config", str(cfg2), "--out", str(ref)]) == 0
        code = main(
            ["estimate", "--reduce-dir", str(red), "--reference-dir", str(ref),
             "--out", str(tmp_path / "est")]
        )
        assert code == 2
