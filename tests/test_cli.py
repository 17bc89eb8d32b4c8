"""End-to-end command-line runs against the shipped sample graphs."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import loopsoup
from loopsoup import cli, verify
from loopsoup.cli import _COMMANDS, _build_parser, _parse_args, main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_graphs"
TWO_POINT = str(SAMPLES / "two_point.json")
TRIANGLE = str(SAMPLES / "triangle.json")
PATH3 = str(SAMPLES / "path3.json")


def run(tmp_path, *argv, expect=0):
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    assert code == expect, err.getvalue()
    if expect in (0, 2) and out.exists():
        return json.loads(out.read_text())
    return err.getvalue()


@pytest.fixture()
def round_trip_net(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"counts": [[0, 1], [1, 0]]}))
    return str(path)


def test_kernel_command(tmp_path):
    payload = run(tmp_path, "kernel", "--graph", TWO_POINT)
    assert payload["command"] == "kernel"
    assert payload["result"]["det_i_minus_p"] == pytest.approx(0.75)
    assert payload["result"]["G"][0][0] == pytest.approx(2 / 3)
    assert "conventions" in payload and "config" in payload
    assert payload["config"]["graph"] == TWO_POINT


def test_reports_reproducible(tmp_path):
    a = run(tmp_path, "sample", "--graph", TRIANGLE, "--seed", "3")
    b = run(tmp_path, "sample", "--graph", TRIANGLE, "--seed", "3")
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_sample_wilson_alpha_guard(tmp_path):
    payload = run(tmp_path, "sample", "--graph", TWO_POINT, "--sampler", "wilson")
    assert payload["result"]["alpha"] == 1.0
    msg = run(
        tmp_path, "sample", "--graph", TWO_POINT, "--sampler", "wilson",
        "--alpha", "2.0", expect=1,
    )
    assert "alpha" in msg


def test_occupation_command(tmp_path):
    payload = run(
        tmp_path, "occupation", "--graph", TWO_POINT, "--replicas", "3000", "--seed", "2"
    )
    assert payload["pass"] is True
    lines = payload["reports"][0]["lines"]
    assert len(lines) == 2
    assert lines[0]["rhs"] == pytest.approx(2 / 3)


def test_jumps_command(tmp_path):
    payload = run(tmp_path, "jumps", "--graph", TRIANGLE, "--seed", "4")
    counts = payload["result"]["network"]["counts"]
    for x in range(3):
        assert sum(counts[x]) == sum(row[x] for row in counts)


def test_exact_network_command(tmp_path, round_trip_net):
    payload = run(
        tmp_path, "exact-network", "--graph", TWO_POINT, "--network", round_trip_net
    )
    assert payload["result"]["probability"] == pytest.approx(3 / 16)
    assert payload["result"]["probability_permutation_route"] == pytest.approx(3 / 16)
    half = run(
        tmp_path, "exact-network", "--graph", TWO_POINT, "--network", round_trip_net,
        "--alpha", "0.5",
    )
    assert half["result"]["probability"] == pytest.approx(0.75**0.5 * 0.5 * 0.25)


def test_best_and_mu_commands(tmp_path, round_trip_net):
    best = run(tmp_path, "best-count", "--graph", TWO_POINT, "--network", round_trip_net)
    assert best["result"]["tour_count"] == 2
    mu = run(tmp_path, "mu-network", "--graph", TWO_POINT, "--network", round_trip_net)
    assert mu["result"]["mu"] == pytest.approx(0.25)


@pytest.mark.parametrize("counts", [[["0", "1"], ["1", "0"]], [[0, None], [1, 0]], [[0, 1], [1]]],
                         ids=["strings", "null", "ragged"])
def test_malformed_network_file(tmp_path, counts):
    path = tmp_path / "bad_net.json"
    path.write_text(json.dumps({"counts": counts}))
    for command in ("best-count", "mu-network", "exact-network"):
        err = run(tmp_path, command, "--graph", TWO_POINT, "--network", str(path), expect=1)
        assert err.startswith("error: network counts") and "Traceback" not in err


@pytest.mark.parametrize("count", ["1e400", "-1e400", "NaN"])
def test_non_finite_network_file(tmp_path, count):
    path = tmp_path / "bad_net.json"
    path.write_text(f'{{"counts": [[0, {count}], [{count}, 0]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = run(tmp_path, "best-count", "--graph", TWO_POINT, "--network", str(path),
                  expect=1)
    assert err == "error: network counts must be finite\n"


@pytest.mark.parametrize("graph", [
    {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": 1}], "killing": [1, 2]},
    {"vertices": 2, "edges": []},
    {"vertices": None, "edges": []},
    {"vertices": ["a"], "edges": 3},
    {"vertices": ["a"], "edges": None},
    # read character by character this would be a valid graph on a and b
    {"vertices": "ab", "edges": [], "killing": {"a": 1.0, "b": 1.0}},
], ids=["killing-list", "vertices-number", "vertices-null", "edges-number", "edges-null",
        "vertices-string"])
def test_malformed_graph_file(tmp_path, graph):
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps(graph))
    err = run(tmp_path, "kernel", "--graph", str(path), expect=1)
    assert err.startswith(f"error: graph file {path}:") and "Traceback" not in err


def test_convolution_command(tmp_path):
    payload = run(tmp_path, "convolution-check", "--graph", TWO_POINT, "--delta", "1e-6")
    assert payload["pass"] is True


def test_homology_commands(tmp_path):
    payload = run(tmp_path, "homology-dist", "--graph", TRIANGLE, "--grid", "16")
    assert payload["result"]["captured_mass"] >= 0.999
    auto = run(tmp_path, "homology-dist", "--graph", TRIANGLE, "--grid", "0")
    assert auto["result"]["grid"] >= 16
    vol = run(tmp_path, "jacobian", "--graph", TRIANGLE)
    assert vol["result"]["volume"] == pytest.approx(3**-0.5)


def test_genfun_command(tmp_path):
    payload = run(
        tmp_path, "genfun", "--graph", TWO_POINT, "--edge", "a:b", "--z", "0.5,0"
    )
    assert payload["result"]["value"] == pytest.approx([0.8, 0.0])


def test_maxflow_command(tmp_path):
    net = tmp_path / "flow.json"
    net.write_text(json.dumps({"counts": [[0, 3], [3, 0]]}))
    payload = run(
        tmp_path, "maxflow", "--graph", TWO_POINT, "--network", str(net),
        "--sources", "a", "--sinks", "b",
    )
    assert payload["result"]["flow"] == 3


def test_moments_command(tmp_path):
    payload = run(
        tmp_path, "moments", "--graph", TWO_POINT, "--edges", "a:b",
        "--replicas", "20000", "--seed", "8",
    )
    assert payload["pass"] is True
    msg = run(tmp_path, "moments", "--graph", TWO_POINT, expect=1)
    assert "edges" in msg or "points" in msg


@pytest.mark.parametrize("argv, message", [
    (("moments", "--graph", TRIANGLE, "--points", "a,a"), "distinct"),
    (("moments", "--graph", TRIANGLE, "--edges", "a:b,a:b", "--replicas", "0"), "distinct"),
    (("det-identity", "--graph", TWO_POINT, "--chi-scale", "0.5"), "dominate"),
    (("det-identity", "--graph", TWO_POINT, "--chi-scale", "0.5", "--replicas", "0"),
     "dominate"),
    (("det-identity", "--graph", TWO_POINT, "--chi-scale", "nan"), "finite"),
    (("det-identity", "--graph", TWO_POINT, "--chi-scale", "inf"), "finite"),
    # one replica has no standard error, so no z-line command draws it
    *(pytest.param(argv, "needs at least 2 replicas", id=f"{argv[0]}-one-replica") for argv in (
        ("isomorphism", "--graph", TRIANGLE, "--replicas", "1"),
        ("ray-knight", "--graph", PATH3, "--x0", "a", "--replicas", "1"),
        ("moments", "--graph", TWO_POINT, "--edges", "a:b", "--points", "b", "--replicas", "1"),
        ("det-identity", "--graph", TWO_POINT, "--replicas", "1"),
        ("verify-all", "--replicas", "1"))),
    (("verify-all", "--grid", "7"), "grid"),
    (("verify-all", "--delta", "0.5"), "budget"),
])
def test_verifier_input_fails_before_drawing(tmp_path, monkeypatch, argv, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sampler was called on an input error path")

    for name in ("network_histogram", "verify_isomorphism", "ray_knight_check"):
        monkeypatch.setattr(cli, name, no_draw)
    monkeypatch.setattr(verify, "network_histogram", no_draw)  # run_all's draws
    assert message in run(tmp_path, *argv, expect=1)


def test_ray_knight_command(tmp_path):
    payload = run(
        tmp_path, "ray-knight", "--graph", PATH3, "--x0", "a",
        "--replicas", "20000", "--seed", "5",
    )
    assert payload["pass"] is True
    msg = run(
        tmp_path, "ray-knight", "--graph", PATH3, "--x0", "b",
        "--replicas", "10", expect=1,
    )
    assert "x0" in msg or "killing" in msg


def test_det_identity_command(tmp_path):
    payload = run(
        tmp_path, "det-identity", "--graph", TWO_POINT,
        "--replicas", "20000", "--seed", "9",
    )
    assert payload["pass"] is True
    assert payload["reports"][0]["lines"][0]["rhs"] == pytest.approx(5 / 3)


def test_verify_all_gate_scaling(tmp_path):
    loose = run(
        tmp_path, "verify-all", "--replicas", "400", "--seed", "12",
        "--gate-scale", "1000",
    )
    assert loose["pass"] is True
    assert len(loose["reports"]) == 13
    assert "workers" not in loose["config"]
    out = tmp_path / "tight.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([
            "verify-all", "--replicas", "400", "--seed", "12",
            "--gate-scale", "1e-6", "--out", str(out),
        ])
    assert code == 2
    tight = json.loads(out.read_text())
    assert tight["pass"] is False


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "occupation", "--graph", TWO_POINT, "--replicas", "2000",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) >= 3  # header plus one line per vertex


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_reports_are_strict_json():
    # too few replicas give a zero standard error and an infinite z: the JSON
    # report writes it as null, the line fails, and CSV still writes inf
    argv = ["verify-all", "--replicas", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 2
    payload = json.loads(out.getvalue(), parse_constant=_strict_constant)
    z_lines = [line for rep in payload["reports"] for line in rep["lines"]
               if line["stderr"] is not None]
    nulled = [line for line in z_lines if line["z"] is None]
    assert nulled and not any(line["pass"] for line in nulled)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "csv"]) == 2
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert sum(row["z"] == "inf" for row in rows) == len(nulled)


def test_occupation_needs_two_replicas(monkeypatch):
    # one replica has no sample standard deviation: rejected before drawing,
    # with no numpy warning
    def no_draw(*args, **kwargs):
        raise AssertionError("occupation_samples called on an input error path")

    monkeypatch.setattr(cli, "occupation_samples", no_draw)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(["occupation", "--graph", TWO_POINT, "--replicas", "1"]) == 1
    assert err.getvalue() == "error: a standard error needs at least 2 replicas, got 1\n"


def test_usage_errors(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["kernel"]) == 1  # missing --graph
    assert "--graph" in err.getvalue()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["no-such-command"]) == 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["kernel", "--graph", "/nonexistent/g.json"])
    assert code == 1
    assert "/nonexistent/g.json" in err.getvalue()
    for edge in (",", "a:b,b:c"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["genfun", "--graph", TRIANGLE, "--edge", edge])
        assert code == 1
        assert err.getvalue().startswith("error:") and "exactly one edge" in err.getvalue()
    for scale in ("-1", "nan", "inf"):  # rejected before the battery starts
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["verify-all", "--replicas", "1", "--gate-scale", scale])
        assert code == 1
        assert err.getvalue().startswith("error:") and "--gate-scale" in err.getvalue()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):  # blocks are drawn in one process
        assert main(["verify-all", "--workers", "1"]) == 1
    assert "unrecognized arguments: --workers" in err.getvalue()
    for alpha in ("inf", "1e300"):  # a typed intensity error, not numpy's message
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sample", "--graph", TRIANGLE, "--alpha", alpha])
        assert code == 1
        assert err.getvalue().startswith("error: intensity")


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


def test_dispatch_parses_like_the_whole_tree():
    # main parses through _parse_args, which builds one flat parser for the
    # command named; every outcome must be the whole tree's, usage errors,
    # help and --version included
    required = ["--graph", "g", "--network", "n", "--x0", "a", "--sources", "a",
                "--sinks", "b", "--edge", "a:b"]
    whole = _build_parser()
    for name in _COMMANDS:
        for rest in ([], ["-h"], ["--graph", "g"], required, ["--bad"], ["--version"],
                     required + ["--alpha", "2", "--seed", "7", "--format", "csv"],
                     ["--graph", "g", "--seed", "x"], required + ["stray"],
                     ["--gr", "g"], required + ["--out", "f", "--format", "csv"],
                     ["--graph", "g", "--version"], required + ["--=x"]):
            argv = [name, *rest]
            assert _parse_outcome(_parse_args, argv) == _parse_outcome(whole.parse_args, argv)
    for argv in ([], ["nope"], ["--version"], ["--graph", "g", "kernel"]):
        assert _parse_outcome(_parse_args, argv) == _parse_outcome(whole.parse_args, argv)
    for argv in (["--help"], ["--help", "kernel"]):  # top-level help is the whole tree's
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == whole.format_help()


def test_repeated_calls_in_one_process(tmp_path):
    first = run(tmp_path, "sample", "--graph", TRIANGLE)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["sample", "--graph", TRIANGLE, "--alpha", "x"]) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--version"]) == 0
    assert out.getvalue().startswith("loopsoup ")
    run(tmp_path, "sample", "--graph", TRIANGLE, "--seed", "5", "--alpha", "2")
    last = run(tmp_path, "sample", "--graph", TRIANGLE)
    assert last["config"]["seed"] == 0 and last["config"]["alpha"] == 1.0
    first.pop("timestamp")
    last.pop("timestamp")
    assert last == first


def test_stdout_default():
    # no --out: the JSON payload lands on stdout
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["kernel", "--graph", TWO_POINT])
    assert code == 0
    assert json.loads(buf.getvalue())["result"]["det_i_minus_p"] == pytest.approx(0.75)


def test_cli_import_leaves_process_pools_out():
    # a shell call of the CLI imports the package afresh, and the process-pool
    # modules would cost about half of that import; nothing in the package
    # needs them
    src = str(pathlib.Path(loopsoup.__file__).resolve().parent.parent)
    code = ("import sys, loopsoup.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
