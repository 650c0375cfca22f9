"""Fuzz of the command-line entry point, checked with hypothesis.

Each example draws one ``otikin.cli.main`` argv and the files it reads, runs
it in process and checks the exit-code contract: the code is 0, 2, 3 or 4,
nothing escapes as an exception or a traceback, output exists exactly when
the code is 0, and a malformed measure file with otherwise valid options
exits 3. Option values are drawn at and past their bounds (0, negative,
exponent form, nan, inf, huge); the valid ones keep every run short.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from otikin.cli import main

examples = settings(derandomize=True, deadline=None, database=None, max_examples=250)

# Each option's valid values, then values at or past its bounds.
VALID = {
    "T": ["1", "0.5", "2e0", "3"],
    "steps": ["1", "3"],
    "t0": ["0", "-0.5", "-1e-1"],
    "t1": ["1", "0.5", "1e0"],
    "dt": ["0.1", "0.25", "5e-2"],
    "stride": ["1", "3"],
    "force": ["harmonic", "free", "damped:0.5"],
    "time": ["0.3", "3e-1"],
    "h": ["0.2,0.1", "0.1", "2e-1"],
    "seed": ["0", "42", "123456789012345678901234567890"],
}
EDGE = {
    "T": ["0", "-1", "-1e-3", "nan", "inf", "-inf", "1e999", "1e300", "1e-300", "x"],
    "steps": ["0", "-1", "1e3", "10000", "99999999999999999999", "nan", "2.5"],
    "t0": ["nan", "inf", "-1e308", "1e308", "1e-300"],
    "t1": ["nan", "-inf", "1e308", "-1", "0"],
    "dt": ["0", "-0.1", "nan", "inf", "1e-300", "1e300", "0.3"],
    "stride": ["0", "-1", "1e2", "nan"],
    "force": ["bogus", "poly", "damped:x", "damped:inf", "@missing.json", "@force.json"],
    "time": ["0", "-1", "nan", "inf", "1e308", "0.31"],
    "h": ["0", "-0.1", "nan", "", "1e308", "0.2,-0.1", "inf"],
    "seed": ["-1", "nan", "1e3"],
}
COORDS = [0.0, 1.0, -0.5, 2.0, 1e-3]


@st.composite
def options(draw, *names):
    """(argv pairs, valid): in half the draws a set of the options takes edge
    values, the others valid ones."""
    edge = draw(st.sets(st.sampled_from(names))) if draw(st.booleans()) else set()
    argv = []
    for name in names:
        argv += [f"--{name}", draw(st.sampled_from((EDGE if name in edge else VALID)[name]))]
    return argv, not edge


@st.composite
def measure_doc(draw):
    dim = draw(st.integers(1, 2))
    atoms = draw(st.integers(1, 3))
    mass = draw(st.lists(st.integers(1, 3), min_size=atoms, max_size=atoms))
    coords = st.lists(st.sampled_from(COORDS), min_size=dim, max_size=dim)
    points = [{"x": draw(coords), "v": draw(coords), "w": q / sum(mass)} for q in mass]
    return {"dim": dim, "points": points}


def _malformed_texts(draw, doc):
    """Text of a malformed measure file of one drawn kind, from a valid ``doc``."""
    text = json.dumps(doc)
    point = doc["points"][0]
    kind = draw(st.sampled_from(
        ["truncated", "mistyped", "nested", "empty", "non-finite", "wrong-dim", "long-field"]
    ))
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "mistyped":
        key, value = draw(st.sampled_from([
            ("dim", "1"), ("dim", 1.5), ("dim", True), ("dim", None), ("dim", -1),
            ("points", {}), ("points", "abc"), ("points", [1]), ("w", "0.5"), ("w", None),
            ("w", [1.0]), ("x", "0"), ("x", {"a": 0}), ("x", [[0.0]] * doc["dim"]),
            ("v", [True] * doc["dim"]),
        ]))
        (doc if key in ("dim", "points") else point)[key] = value
        return json.dumps(doc)
    if kind == "nested":
        depth = draw(st.sampled_from([1, 50, 5000, 200000]))
        nest = "[" * depth + "]" * depth
        return draw(st.sampled_from([nest, "[" * depth, '{"dim": 1, "points": %s}' % nest]))
    if kind == "empty":
        return draw(st.sampled_from(["", "   ", "{}", "[]", "null", '{"dim": 1, "points": []}']))
    if kind == "non-finite":
        key = draw(st.sampled_from(["x", "v", "w"]))
        value = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]))
        point[key] = "@" if key == "w" else ["@"] * doc["dim"]
        return json.dumps(doc).replace('"@"', value)
    if kind == "wrong-dim":
        key = draw(st.sampled_from(["x", "v"]))
        point[key] = point[key] + [0.0] if draw(st.booleans()) else point[key][:-1]
        return json.dumps(doc)
    # A CSV field over the csv module's size limit, whatever the format.
    return "x1,v1,w\n" + "1" * 200000 + ",0,1\n"


@st.composite
def measure_file(draw, fmt):
    """(text, malformed): a valid measure in ``fmt`` or a malformed file."""
    doc = draw(measure_doc())
    if draw(st.booleans()):
        if fmt == "json":
            return json.dumps(doc), False
        rows = ["x1,v1,w" if doc["dim"] == 1 else "x1,x2,v1,v2,w"]
        rows += [",".join(map(repr, p["x"] + p["v"] + [p["w"]])) for p in doc["points"]]
        return "\n".join(rows) + "\n", False
    return _malformed_texts(draw, doc), True


@st.composite
def invocation(draw):
    """(argv, files, valid options, any measure file malformed)."""
    command = draw(st.sampled_from(
        ["discrepancy", "oracle", "interpolate", "simulate", "probe", "verify"]
    ))
    seed, seed_ok = draw(options("seed")) if draw(st.booleans()) else ([], True)
    fmt = draw(st.sampled_from(["json", "csv"]))
    files, malformed = {}, False
    names = {"discrepancy": ["mu", "nu"], "oracle": ["mu", "nu"], "interpolate": ["mu", "nu"],
             "simulate": ["mu"]}.get(command, [])
    for name in names:
        files[name], bad = draw(measure_file(fmt))
        malformed |= bad
    argv = [arg for name in names for arg in (f"--{name}", f"{{dir}}/{name}")]
    if names:
        argv += ["--format", fmt]
    if command == "discrepancy":
        mode = draw(st.sampled_from(["--T", "--optimize-T", "--tilde"]))
        opts, ok = draw(options("T")) if mode == "--T" else ([mode], True)
    elif command == "oracle":
        opts, ok = [], True
    elif command == "interpolate":
        opts, ok = draw(options("T", "steps"))
    elif command == "simulate":
        opts, ok = draw(options("force", "t0", "t1", "dt", "stride"))
        files["force.json"] = draw(st.sampled_from([
            '{"kind": "poly", "coeffs": [[0.5]]}', '{"kind": "poly", "coeffs": [[1e308], [1e308]]}',
            '{"kind": "poly", "coeffs": ["a"]}', '{"kind": "other"}', "[1]", "[" * 200000, "",
        ]))
    elif command == "probe":
        suite = draw(st.sampled_from(["metric-derivative", "t-ratio"]))
        scenario = draw(st.sampled_from(["harmonic-single", "harmonic-ensemble", "opposite-pair"]))
        opts, ok = draw(options("time", "h"))
        opts += ["--suite", suite, "--scenario", scenario]
    else:  # verify, with an invalid suite only: a valid one runs for seconds
        return seed + ["verify", "--suite", draw(st.sampled_from(["nope", "", "1e3"]))], {}, False, False
    argv = seed + [command] + argv + opts + ["--out", "{dir}/out"]
    return argv, files, ok and seed_ok, malformed


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@examples
@given(invocation())
def test_cli_exit_code_contract(case):
    argv, files, valid, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        argv = [a.replace("{dir}", tmp) for a in argv]
        # ``@force.json`` names the drawn force file; ``@missing.json`` none.
        argv = [f"@{tmp}/{a[1:]}" if a.startswith("@") else a for a in argv]
        code, err = _run(argv)
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        assert (Path(tmp) / "out").exists() == (code == 0), (code, err)
        if valid and malformed:
            assert code == 3, (code, err)
