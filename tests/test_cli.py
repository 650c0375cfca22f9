import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import otikin
import otikin.solver
from otikin.cli import build_parser, canonical_json, main
from otikin.measures import measure_from_csv, measure_to_json

DATA = Path(__file__).resolve().parents[1] / "src" / "otikin" / "data"
TIE_MU = str(DATA / "two_plan_tie_mu.json")
TIE_NU = str(DATA / "two_plan_tie_nu.json")
U5_MU = str(DATA / "uniform5_mu.json")
U5_NU = str(DATA / "uniform5_nu.json")

# Canonical result JSON of the packaged pairs, without the "iterations" key
# (the time optimisation may change its iteration count, never the result).
W = "0.20000000000000001"
U5_FIXED = (
    '{"cost_sq":18.045818273071827,"regime":"fixed_T","T":1,"plan":'
    f"[[0,1,{W}],[1,3,{W}],[2,0,{W}],[3,4,{W}],[4,2,{W}]]}}"
)
U5_OPT = (
    '{"cost_sq":8.4426036846255386,"regime":"finite_T","T":3.633332790845607,"plan":'
    f"[[0,1,{W}],[1,3,{W}],[2,0,{W}],[3,2,{W}],[4,4,{W}]]}}"
)
TIE_T2 = '{"cost_sq":30,"regime":"finite_T","T":2,"plan":[[0,1,0.5],[1,0,0.5]]}'
PINNED = {
    ("uniform5", "--T"): U5_FIXED,
    ("uniform5", "--optimize-T"): U5_OPT,
    ("uniform5", "--tilde"): U5_OPT,
    ("uniform5", "oracle"): U5_OPT[:-1]
    + ',"n_optimal_vertices":1,"optimal_times":[3.633332790845607]}',
    ("two_plan_tie", "--T"): '{"cost_sq":30,"regime":"fixed_T","T":1,"plan":[[0,0,0.5],[1,1,0.5]]}',
    ("two_plan_tie", "--optimize-T"): TIE_T2,
    ("two_plan_tie", "--tilde"): TIE_T2,
    ("two_plan_tie", "oracle"): '{"cost_sq":30,"regime":"finite_T","T":1,"plan":[[0,0,0.5],[1,1,0.5]],'
    '"n_optimal_vertices":2,"optimal_times":[1,2]}',
}
# SHA-256 of every probe CSV (three scenarios, both suites, default --time
# and --h), and of every file written by interpolate and simulate runs.
PROBE_PIN = "9bffcf28066363d36ddaa56b770e3c234a712580d3f310e6600d3c95eae927fe"
FRAMES_PIN = "24a1dc8cb47e14ba26e2eb13f3152b79754a2f6c2ec4a1b6fcab28fe89876c32"


def _digest_files(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestParsing:
    def test_discrepancy_command(self):
        args = build_parser().parse_args(
            ["discrepancy", "--mu", "a.json", "--nu", "b.json", "--optimize-T",
             "--out", "r.json"]
        )
        assert args.command == "discrepancy"
        assert args.optimize_T

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["discrepancy", "--mu", "a.json"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["discrepancy", "--frobnicate"])
        assert exc.value.code == 2

    def test_negative_numbers_are_values(self, capsys):
        args = build_parser().parse_args(
            ["simulate", "--mu", "a.json", "--force", "free", "--t0", "-1e-1",
             "--t1", "-2.5E-2", "--dt", "0.005", "--out", "dir/"]
        )
        assert (args.t0, args.t1) == (-0.1, -0.025)
        args = build_parser().parse_args(
            ["probe", "--suite", "t-ratio", "--time", "-.5e+1", "--out", "p.csv"]
        )
        assert args.time == -5.0
        # a ladder that starts with a negative offset reaches its converter
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["probe", "--suite", "t-ratio", "--h", "-1e-1,0.2", "--out", "p.csv"]
            )
        assert "expected a comma-separated list" in capsys.readouterr().err

    def test_simulate_command(self):
        args = build_parser().parse_args(
            ["simulate", "--mu", "a.json", "--force", "harmonic",
             "--t0", "0", "--t1", "6.28", "--dt", "0.001", "--out", "dir/"]
        )
        assert args.command == "simulate"
        assert args.force == "harmonic"


class TestExitCodes:
    @pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
    def test_missing_file_exits_2(self, tmp_path, name):
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--mu", str(tmp_path / name), "--nu", TIE_NU,
                  "--optimize-T", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 1, "points": [{"x": [0.0], "v": [0.0], "w": -1.0}]}',
            '{"dim": 1e999, "points": [{"x": [0.0], "v": [0.0], "w": 1.0}]}',
            '{"dim": 0, "points": [{"x": [], "v": [], "w": 1.0}]}',
            '{"dim": 2.7, "points": [{"x": [0.0, 1.0], "v": [0.0, 1.0], "w": 1.0}]}',
            '{"dim": true, "points": [{"x": [0.0], "v": [0.0], "w": 1.0}]}',
            '{"dim": 1, "points": [{"x": [[0]], "v": [0.0], "w": 1.0}]}',
            '{"dim": 1, "points": [{"x": [0], "v": [0], "w": true}]}',
            '{"dim": 1, "points": [{"x": [0], "v": [0], "w": "1"}]}',
            '{"dim": 1, "points": [{"x": ["0.5"], "v": [0], "w": 1}]}',
            '{"dim": 1, "points": [{"x": [0], "v": [true], "w": 1}]}',
        ],
        ids=["negative-weight", "overflowing-dim", "zero-dim", "float-dim", "bool-dim",
             "nested-x", "bool-w", "str-w", "str-x", "bool-v"],
    )
    def test_malformed_measure_exits_3(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--mu", str(bad), "--nu", TIE_NU,
                  "--optimize-T", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "point, message",
        [
            ('{"v": [0], "w": 1}', 'point 0 has no "x"'),
            ("7", 'point 0 must be an object with "x", "v" and "w"'),
        ],
        ids=["no-x", "number-point"],
    )
    def test_malformed_point_names_the_atom(self, tmp_path, capsys, point, message):
        bad = tmp_path / "m.json"
        bad.write_text('{"dim": 1, "points": [%s]}' % point)
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--mu", str(bad), "--nu", str(bad), "--T", "1",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3
        assert capsys.readouterr().err == f"error: malformed measure file {bad}: {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["discrepancy", "--T", "1"], ["oracle"]],
                             ids=["discrepancy", "oracle"])
    def test_nan_weight_exits_3(self, tmp_path, fmt, argv):
        # Python's json reads the NaN literal; the target is a valid measure
        files = {
            "csv": ("x1,v1,w\n0,0,nan\n1,0,1\n", "x1,v1,w\n0,1,0.5\n1,0,0.5\n"),
            "json": ('{"dim": 1, "points": [{"x": [0], "v": [0], "w": NaN},'
                     ' {"x": [1], "v": [0], "w": 1}]}',
                     '{"dim": 1, "points": [{"x": [0], "v": [1], "w": 0.5},'
                     ' {"x": [1], "v": [0], "w": 0.5}]}'),
        }
        (tmp_path / "mu").write_text(files[fmt][0])
        (tmp_path / "nu").write_text(files[fmt][1])
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt, "--mu", str(tmp_path / "mu"), "--nu",
                  str(tmp_path / "nu"), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3

    def test_csv_columns_out_of_order_exit_3(self, tmp_path, capsys):
        # a v column before the x column is not read as a position
        bad = tmp_path / "mu.csv"
        bad.write_text("v1,x1,w\n5,1,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--format", "csv", "--mu", str(bad), "--nu", str(bad),
                  "--T", "1", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3
        assert "unexpected measure CSV header ['v1', 'x1', 'w']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["discrepancy", "interpolate"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        # a directory as an output file, or a file as an output directory
        out = tmp_path / "taken"
        if command == "interpolate":
            out.write_text("")
        else:
            out.mkdir()
        argv = [command, "--mu", U5_MU, "--nu", U5_NU, "--T", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--steps", "2"] if command == "interpolate" else []))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_parser_exits_are_returned(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 2

    def test_oracle_too_large_exits_4(self, tmp_path):
        rng = np.random.default_rng(0)
        big = {
            "dim": 1,
            "points": [
                {"x": [float(rng.normal())], "v": [float(rng.normal())], "w": 1 / 12}
                for _ in range(12)
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        code = main(["oracle", "--mu", str(path), "--nu", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["discrepancy", "--mu", U5_MU, "--nu", U5_NU, "--T", "-1"],
            ["discrepancy", "--mu", U5_MU, "--nu", U5_NU, "--T", "nan"],
            ["discrepancy", "--mu", U5_MU, "--nu", U5_NU, "--T", "inf"],
            ["interpolate", "--mu", U5_MU, "--nu", U5_NU, "--T", "-1", "--steps", "2"],
            ["interpolate", "--mu", U5_MU, "--nu", U5_NU, "--T", "inf", "--steps", "2"],
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "0", "--t1", "0.5", "--dt", "-0.1"],
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "0", "--t1", "nan", "--dt", "0.1"],
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "inf", "--t1", "0.5", "--dt", "0.1"],
            # dt does not fit the window, so this fails at integration unless
            # the stride is checked first.
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "0", "--t1", "0.5", "--dt", "0.7", "--stride", "0"],
            ["simulate", "--mu", U5_MU, "--force", "damped:nan",
             "--t0", "0", "--t1", "0.5", "--dt", "0.1"],
            ["simulate", "--mu", U5_MU, "--force", "@{array_file}",
             "--t0", "0", "--t1", "0.5", "--dt", "0.1"],
            ["probe", "--suite", "metric-derivative", "--time", "nan"],
            ["probe", "--suite", "t-ratio", "--h", "nan"],
            ["probe", "--suite", "metric-derivative", "--h", ","],
            ["probe", "--suite", "metric-derivative", "--h", "0.1,-1"],
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "1", "--t1", "0", "--dt", "0.1"],
            # the oracle sizes itself: it takes no --cap
            ["oracle", "--mu", U5_MU, "--nu", U5_NU, "--cap", "8"],
            ["simulate", "--mu", U5_MU, "--force", "@{dict_file}",
             "--t0", "0", "--t1", "0.5", "--dt", "0.1"],
            # three force coefficients for the two-dimensional measure
            ["simulate", "--mu", U5_MU, "--force", "@{wide_file}",
             "--t0", "0", "--t1", "0.5", "--dt", "0.1"],
            ["interpolate", "--mu", U5_MU, "--nu", U5_NU, "--T", "1", "--steps", "100000000000"],
            ["simulate", "--mu", U5_MU, "--force", "harmonic",
             "--t0", "0", "--t1", "1", "--dt", "1e-15"],
            # an unknown option where a number belongs
            ["simulate", "--mu", U5_MU, "--force", "free",
             "--t0", "-x", "--t1", "0.5", "--dt", "0.1"],
            # a probe time off the scenario's grid, or one whose time + h is
            ["probe", "--suite", "t-ratio", "--time", "0.3001"],
            ["probe", "--suite", "metric-derivative", "--time", "0.9"],
            # PCG64 takes no negative seed
            ["--seed", "-1", "probe", "--suite", "metric-derivative",
             "--scenario", "harmonic-ensemble"],
        ],
    )
    def test_usage_error_exits_2(self, tmp_path, argv):
        array_file = tmp_path / "array.json"
        array_file.write_text("[1, 2]")
        dict_file = tmp_path / "dict.json"
        dict_file.write_text('{"kind": "poly", "coeffs": {"a": 1}}')
        wide_file = tmp_path / "wide.json"
        wide_file.write_text('{"kind": "poly", "coeffs": [[1, 2, 3]]}')
        argv = [
            a.format(array_file=array_file, dict_file=dict_file, wide_file=wide_file)
            for a in argv
        ]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["discrepancy", "--nu", "{nu}", "--T", "1"],
            ["discrepancy", "--nu", "{nu}", "--optimize-T"],
            ["discrepancy", "--nu", "{nu}", "--tilde"],
            ["oracle", "--nu", "{nu}"],
            ["interpolate", "--nu", "{nu}", "--T", "1", "--steps", "2"],
            ["simulate", "--force", "harmonic", "--t0", "0", "--t1", "0.5", "--dt", "0.1"],
        ],
    )
    def test_overflowing_input_exits_4(self, tmp_path, capsys, argv):
        # squared gaps and forces of atoms at +-1e200 overflow a float
        def write(name, x):
            points = [{"x": [x], "v": [0.0], "w": 0.5}, {"x": [0.0], "v": [1.0], "w": 0.5}]
            path = tmp_path / name
            path.write_text(json.dumps({"dim": 1, "points": points}))
            return str(path)

        mu, nu = write("mu.json", 1e200), write("nu.json", -1e200)
        argv = [a.format(nu=nu) for a in argv] + ["--mu", mu]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["discrepancy", "--T", "1e300"],
            ["discrepancy", "--T", "1e-300"],
            ["interpolate", "--T", "1e120", "--steps", "2"],
            ["interpolate", "--T", "1e-300", "--steps", "2"],
            # the plan solves, then the connectors' T**3 underflows to 0
            ["interpolate", "--T", "1e-110", "--steps", "2"],
        ],
    )
    def test_extreme_horizon_exits_4(self, tmp_path, capsys, argv):
        # T**2 or T**3 overflows a float, or 1 / T**2 divides by an underflowed 0
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--mu", U5_MU, "--nu", U5_NU, "--out", str(out)]) == 4
        assert not out.exists()
        # every power of T that leaves the float range names the argument
        T = float(argv[2])
        assert capsys.readouterr().err == (
            f"error: solver failed: --T {T} is outside the float range of the horizon cost\n"
        )

    @pytest.mark.parametrize(
        "window, where",
        [
            (["--t0", "0", "--t1", "5", "--dt", "0.01"], "state after step at t=1.73"),
            (["--t0", "1e154", "--t1", "2e154", "--dt", "1e153"], "force at t=1e+154"),
        ],
        ids=["mid-window", "at-t0"],
    )
    def test_overflowing_force_exits_4(self, tmp_path, capsys, window, where):
        # F = 1e307 t^2 overflows the velocities at t = 1.73, and itself at t0 = 1e154
        force = tmp_path / "f.json"
        force.write_text('{"kind": "poly", "coeffs": [[0, 0], [0, 0], [1e307, 1e307]]}')
        out = tmp_path / "out"
        argv = ["simulate", "--mu", U5_MU, "--force", f"@{force}", *window, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"non-finite {where}" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["discrepancy", "--T", "1"],
            ["discrepancy", "--optimize-T"],
            ["discrepancy", "--tilde"],
            ["interpolate", "--T", "1", "--steps", "2"],
            ["probe", "--suite", "metric-derivative"],
        ],
    )
    def test_simplex_runtime_error_exits_4(self, tmp_path, capsys, monkeypatch, argv):
        def fail(cost, a, b, basis=None):
            raise RuntimeError("transportation simplex exceeded its pivot budget")

        monkeypatch.setattr(otikin.solver, "transportation_simplex", fail)
        points = [{"x": [0.0], "v": [1.0], "w": 0.3}, {"x": [1.0], "v": [0.0], "w": 0.7}]
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"dim": 1, "points": points}))
        if argv[0] != "probe":
            argv = argv + ["--mu", str(pair), "--nu", str(pair)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: solver failed: transportation simplex exceeded")


class TestDiscrepancy:
    def test_packaged_tie_instance(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["discrepancy", "--mu", TIE_MU, "--nu", TIE_NU,
                     "--optimize-T", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["cost_sq"] == pytest.approx(30.0, abs=1e-8)
        assert res["regime"] == "finite_T"
        total = sum(entry[2] for entry in res["plan"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_fixed_horizon_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["discrepancy", "--mu", TIE_MU, "--nu", TIE_NU,
                     "--T", "1.0", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["regime"] == "fixed_T"
        assert res["T"] == pytest.approx(1.0)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["discrepancy", "--mu", U5_MU, "--nu", U5_NU,
                  "--optimize-T", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("pair, mode", sorted(PINNED))
    def test_pinned_output(self, tmp_path, pair, mode):
        out = tmp_path / "r.json"
        files = ["--mu", str(DATA / f"{pair}_mu.json"), "--nu", str(DATA / f"{pair}_nu.json")]
        if mode == "oracle":
            argv = ["oracle"] + files
        else:
            argv = ["discrepancy"] + files + ([mode, "1"] if mode == "--T" else [mode])
        assert main(argv + ["--out", str(out)]) == 0
        got = re.sub(rb',"iterations":\d+', b"", out.read_bytes())
        assert got == PINNED[pair, mode].encode() + b"\n"

    @pytest.mark.parametrize(
        "mu, nu, expected",
        [
            # the same two sites on both sides: only the velocities move
            (
                [([0.0, 0.0], [1.0, 0.0], 0.5), ([1.0, 0.0], [0.0, 1.0], 0.5)],
                [([0.0, 0.0], [0.0, 1.0], 0.5), ([1.0, 0.0], [1.0, 1.0], 0.5)],
                '{"cost_sq":1.5,"regime":"equal_positions","T":null,'
                '"plan":[[0,0,0.5],[1,1,0.5]]}',
            ),
            # the gap points against the velocity sum: the cost falls as T grows
            (
                [([0.0], [-1.0], 1.0)],
                [([1.0], [-1.0], 1.0)],
                '{"cost_sq":12,"regime":"infinite_T","T":"inf","plan":[[0,0,1]]}',
            ),
        ],
        ids=["equal_positions", "infinite_T"],
    )
    def test_pinned_time_regimes(self, tmp_path, mu, nu, expected):
        files = []
        for name, atoms in (("mu", mu), ("nu", nu)):
            points = [{"x": x, "v": v, "w": w} for x, v, w in atoms]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": len(atoms[0][0]), "points": points}))
            files += [f"--{name}", str(path)]
        out = tmp_path / "r.json"
        assert main(["discrepancy", *files, "--optimize-T", "--out", str(out)]) == 0
        got = re.sub(rb',"iterations":\d+', b"", out.read_bytes())
        assert got == expected.encode() + b"\n"

    def test_tiny_atom_keeps_its_plan_cell(self, tmp_path):
        # a 1e-16 flow is above its cell's floor, MASS_ROUNDING_TOL * 1e-16, so the
        # result lists it with the other two cells
        files = []
        for name, atoms in (
            ("mu", [(0.0, 0.5), (1.0, 0.5 - 1e-16), (2.0, 1e-16)]),
            ("nu", [(0.5, 0.5), (1.5, 0.5)]),
        ):
            points = [{"x": [x], "v": [0.0], "w": w} for x, w in atoms]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": 1, "points": points}))
            files += [f"--{name}", str(path)]
        out = tmp_path / "r.json"
        assert main(["discrepancy", *files, "--T", "1", "--out", str(out)]) == 0
        plan = json.loads(out.read_text())["plan"]
        assert [(i, j) for i, j, _ in plan] == [(0, 0), (1, 1), (2, 1)]
        assert 0.0 < plan[2][2] < 1e-15

    def test_oracle_agrees_with_solver(self, tmp_path):
        s, o = tmp_path / "s.json", tmp_path / "o.json"
        main(["discrepancy", "--mu", U5_MU, "--nu", U5_NU, "--optimize-T",
              "--out", str(s)])
        main(["oracle", "--mu", U5_MU, "--nu", U5_NU, "--out", str(o)])
        rs = json.loads(s.read_text())
        ro = json.loads(o.read_text())
        assert abs(rs["cost_sq"] - ro["cost_sq"]) <= 1e-9

    def test_csv_format_roundtrip(self, tmp_path):
        from otikin.measures import load_measure, measure_to_csv

        mu = load_measure(TIE_MU, "json")
        csv_path = tmp_path / "mu.csv"
        csv_path.write_text(measure_to_csv(mu))
        out = tmp_path / "r.json"
        code = main(["discrepancy", "--mu", str(csv_path), "--nu", str(csv_path),
                     "--format", "csv", "--T", "1.0", "--out", str(out)])
        assert code == 0


class TestInterpolateSimulate:
    def test_interpolate_frames(self, tmp_path):
        out = tmp_path / "frames"
        code = main(["interpolate", "--mu", TIE_MU, "--nu", TIE_NU,
                     "--T", "1.0", "--steps", "4", "--out", str(out)])
        assert code == 0
        frames = sorted(out.glob("frame_*.csv"))
        assert len(frames) == 5
        first = measure_from_csv(frames[0].read_text())
        mu = json.loads(Path(TIE_MU).read_text())
        assert first.dim == mu["dim"]

    def test_simulate_manifest(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--mu", U5_MU, "--force", "harmonic",
                     "--t0", "0", "--t1", "0.5", "--dt", "0.01",
                     "--stride", "10", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["force"] == "harmonic"
        assert manifest["dt"] == pytest.approx(0.01)
        assert len(manifest["frames"]) == len(manifest["times"])
        for name in manifest["frames"]:
            assert (out / name).exists()

    def test_simulate_bad_dt_exits_4(self, tmp_path):
        code = main(["simulate", "--mu", U5_MU, "--force", "free",
                     "--t0", "0", "--t1", "0.5", "--dt", "0.7",
                     "--out", str(tmp_path / "sim")])
        assert code == 4

    def test_negative_t0_in_exponent_form(self, tmp_path):
        # "--t0 -1e-1" is the value -0.1, as in "--t0=-1e-1"
        argv = ["simulate", "--mu", U5_MU, "--force", "harmonic", "--t1", "0.5", "--dt", "0.05"]
        assert main(argv + ["--t0", "-1e-1", "--out", str(tmp_path / "spaced")]) == 0
        assert main(argv + ["--t0=-1e-1", "--out", str(tmp_path / "joined")]) == 0
        assert _digest_files(tmp_path / "spaced") == _digest_files(tmp_path / "joined")

    def test_frame_bytes_pinned(self, tmp_path):
        for pair in ("two_plan_tie", "uniform5"):
            assert main(["interpolate", "--mu", str(DATA / f"{pair}_mu.json"),
                         "--nu", str(DATA / f"{pair}_nu.json"), "--T", "1.3",
                         "--steps", "7", "--out", str(tmp_path / pair)]) == 0
        assert main(["simulate", "--mu", U5_MU, "--force", "harmonic",
                     "--t0", "0", "--t1", "1", "--dt", "0.01", "--stride", "7",
                     "--out", str(tmp_path / "simulate")]) == 0
        assert _digest_files(tmp_path) == FRAMES_PIN


class TestProbe:
    def test_metric_derivative_csv(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(["probe", "--suite", "metric-derivative",
                     "--scenario", "harmonic-single", "--time", "0.3",
                     "--h", "0.1,0.05", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,ratio_tilde,ratio_d,force_norm"
        assert len(lines) == 3

    def test_t_ratio_csv(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(["probe", "--suite", "t-ratio",
                     "--scenario", "harmonic-single", "--time", "0.3",
                     "--h", "0.1,0.05", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            h, kind, ratio = row.split(",")
            assert kind == "finite"
            assert abs(float(ratio) - 1.0) < 0.01

    def test_probe_bytes_pinned(self, tmp_path):
        for scenario in ("harmonic-single", "harmonic-ensemble", "opposite-pair"):
            for suite in ("metric-derivative", "t-ratio"):
                out = tmp_path / f"{scenario}_{suite}.csv"
                assert main(["probe", "--suite", suite, "--scenario", scenario,
                             "--out", str(out)]) == 0
        assert _digest_files(tmp_path) == PROBE_PIN

    def test_seed_draws_the_ensemble(self, tmp_path):
        # the harmonic ensemble is random: --seed changes its probe CSV
        def probe(*seed):
            out = tmp_path / "probe.csv"
            assert main([*seed, "probe", "--suite", "t-ratio", "--scenario",
                         "harmonic-ensemble", "--out", str(out)]) == 0
            return out.read_bytes()

        assert probe("--seed", "7") != probe()


class TestVerify:
    def test_paper_examples_suite_passes(self, capsys):
        code = main(["verify", "--suite", "paper-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        checks = out.splitlines()[:-1]
        assert checks and all(re.match(r"PASS \d+\.\d{3}s [\w-]+: ", line) for line in checks)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["discrepancy", "--optimize-T"],
        ["discrepancy", "--T", "1"],
        ["discrepancy", "--tilde"],
        ["interpolate", "--T", "1", "--steps", "2"],
    ],
    ids=["import", "optimize-T", "fixed-T", "tilde", "interpolate"],
)
def test_cli_leaves_scipy_unloaded(tmp_path, argv):
    # only uniform assignments above lp.ENUMERATE_MAX atoms need scipy, whose
    # import costs about half a second of a run on the packaged 5-atom pair
    if argv:
        argv = argv + ["--mu", U5_MU, "--nu", U5_NU, "--out", str(tmp_path / "out")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, otikin.cli\n"
        "if sys.argv[1:]:\n"
        "    assert otikin.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a deleted helper must not leave a stale entry in a module's __all__
    for info in pkgutil.iter_modules(otikin.__path__):
        module = importlib.import_module(f"otikin.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    # nor in the package root: each re-export is in its source module's __all__
    tree = ast.parse(Path(otikin.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"otikin.{node.module}")
            unlisted = [a.name for a in node.names if a.name not in module.__all__]
            assert not unlisted, (node.module, unlisted)


def test_no_unused_imports():
    # no linter is part of the suite; an import that a module never reads is
    # what a deleted helper leaves behind
    for path in sorted(Path(otikin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exempt = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exempt.update(ast.literal_eval(node.value))
        if path.name == "__init__.py":
            exempt |= imported  # the package root only re-exports
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used - exempt, (path.name, sorted(imported - used - exempt))


def test_no_unread_public_names():
    # a name in a module's __all__ that no module, test or benchmark file
    # reads is a dead helper; its own module's reads count, the assignment
    # that defines it and the package root's re-exports do not
    root = DATA.parent
    repo = root.parents[1]
    sources = [p for p in sorted(root.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((repo / "tests").glob("*.py")) + sorted((repo / "perfbench").glob("*.py"))
    reads, exported = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif path.parent == root and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported += [(path.name, name) for name in ast.literal_eval(node.value)]
    unread = [(module, name) for module, name in exported if name not in reads]
    assert not unread, unread


def test_canonical_json_fixed_formatting():
    doc = {"a": 1.0 / 3.0, "b": [1, None, "inf"], "c": True}
    text = canonical_json(doc)
    assert text == '{"a":0.33333333333333331,"b":[1,null,"inf"],"c":true}'
    assert canonical_json(measure_to_json(measure_from_csv("x1,v1,w\n0,0,1\n"))) == (
        '{"dim":1,"points":[{"x":[0],"v":[0],"w":1}]}'
    )
