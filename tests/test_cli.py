"""End-to-end command-line runs against the shipped sample graphs."""

import contextlib
import csv
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import traceback
import warnings

import pytest

import loopsoup
from loopsoup import LoopSoupError, cli, fields, soup, verify
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


@pytest.mark.parametrize("command", ["sample", "jumps"])
@pytest.mark.parametrize("sampler", ["direct", "wilson"])
@pytest.mark.parametrize("epsilon", ["5", "0", "nan"])
def test_tail_cut_is_checked_for_both_samplers(tmp_path, monkeypatch, command, sampler,
                                               epsilon):
    # cycle popping cuts no tail, but a tail cut out of range is refused
    # before drawing, as the direct sampler refuses it
    def no_draw(*args, **kwargs):
        raise AssertionError("a sampler was called on an input error path")

    monkeypatch.setattr(soup, "wilson_sample", no_draw)
    monkeypatch.setattr(soup, "direct_sample", no_draw)
    msg = run(tmp_path, command, "--graph", TRIANGLE, "--sampler", sampler,
              "--epsilon", epsilon, expect=1)
    assert "tail cut must be in (0, 1e-6]" in msg  # BadTailCut's message


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
        assert err.startswith(f"error: network file {path}: network counts")
        assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
def test_exact_commands_refuse_a_bad_intensity(tmp_path, round_trip_net, alpha):
    for argv in (("exact-network", "--graph", TWO_POINT, "--network", round_trip_net),
                 ("homology-dist", "--graph", TRIANGLE, "--grid", "16"),
                 ("homology-dist", "--graph", TRIANGLE, "--grid", "0"),
                 ("genfun", "--graph", TRIANGLE, "--edge", "a:b", "--z", "0.5,0")):
        err = run(tmp_path, *argv, "--alpha", alpha, expect=1)
        assert err.startswith("error: intensity must be positive and finite")


@pytest.mark.parametrize("count", ["1e400", "-1e400", "NaN"])
def test_non_finite_network_file(tmp_path, count):
    path = tmp_path / "bad_net.json"
    path.write_text(f'{{"counts": [[0, {count}], [{count}, 0]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = run(tmp_path, "best-count", "--graph", TWO_POINT, "--network", str(path),
                  expect=1)
    assert err == f"error: network file {path}: network counts must be finite\n"


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


@pytest.mark.parametrize("number", ["NaN", "-Infinity", '"1e999"', '"abc"', "null", "[1]"])
def test_graph_file_with_a_bad_number(tmp_path, number):
    path = tmp_path / "bad_graph.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": %s}], '
                    '"killing": {"a": 1}}' % number)
    err = run(tmp_path, "kernel", "--graph", str(path), expect=1)
    assert err.startswith(f"error: graph file {path}: edges[0].c: expected a")
    assert "Traceback" not in err


def test_network_file_with_invalid_json(tmp_path):
    path = tmp_path / "bad_net.json"
    path.write_text('{"counts": [[0, 1], [1, 0]]\n"extra": 1}')
    for command in ("best-count", "mu-network", "exact-network"):
        err = run(tmp_path, command, "--graph", TWO_POINT, "--network", str(path), expect=1)
        assert err == f"error: network file {path}: invalid JSON at line 2 column 1\n"


@pytest.mark.parametrize("kind", ["graph", "network"])
def test_file_with_an_overlong_integer(tmp_path, kind):
    # json refuses integer literals past 4300 digits with a bare ValueError
    path = tmp_path / f"{kind}.json"
    slot = ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": %s}], '
            '"killing": {"a": 1}}') if kind == "graph" else '{"counts": [[0, %s], [1, 0]]}'
    path.write_text(slot % ("1" * 5001))
    argv = ("kernel", "--graph", str(path)) if kind == "graph" else \
        ("best-count", "--graph", TWO_POINT, "--network", str(path))
    err = run(tmp_path, *argv, expect=1)
    assert err.startswith(f"error: {kind} file {path}: Exceeds the limit")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("edge", ["a:c", "a:a"])
def test_genfun_refuses_a_pair_that_is_not_an_edge(tmp_path, edge):
    msg = run(tmp_path, "genfun", "--graph", PATH3, "--edge", edge, "--z", "0.5,0", expect=1)
    assert msg == f"error: {edge} is not an edge of the graph\n"


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
    # the battery's grid and mass budget are constants, not options
    (("verify-all", "--grid", "64"), "unrecognized arguments: --grid"),
    (("verify-all", "--delta", "1e-3"), "unrecognized arguments: --delta"),
    # a pair of vertices that no edge joins has no crossing count to read
    pytest.param(("moments", "--graph", PATH3, "--edges", "a:c"), "a:c is not an edge",
                 id="moments-non-edge-a:c"),
    pytest.param(("moments", "--graph", PATH3, "--edges", "a:b,b:b"), "b:b is not an edge",
                 id="moments-non-edge-b:b"),
])
def test_verifier_input_fails_before_drawing(tmp_path, monkeypatch, argv, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sampler was called on an input error path")

    # each handler imports its library names on dispatch, so patch where they live
    monkeypatch.setattr(soup, "network_histogram", no_draw)
    for name in ("verify_isomorphism", "ray_knight_check"):
        monkeypatch.setattr(fields, name, no_draw)
    monkeypatch.setattr(verify, "network_histogram", no_draw)  # run_all's draws
    assert message in run(tmp_path, *argv, expect=1)


@pytest.mark.parametrize("argv", [
    ("occupation", "--graph", TRIANGLE),
    ("isomorphism", "--graph", TRIANGLE),
    ("ray-knight", "--graph", PATH3, "--x0", "a"),
    ("verify-all",),
], ids=lambda argv: argv[0])
def test_sample_too_large_to_hold_fails_before_drawing(tmp_path, monkeypatch, argv):
    # 2^40 replicas of a three-vertex field are 26 TB of float64: refused by
    # the entry cap, not left to numpy's allocator or to the block draws
    def no_draw(*args, **kwargs):
        raise AssertionError("a block was drawn for a sample too large to hold")

    for name in ("direct_block", "wilson_counts"):
        monkeypatch.setattr(soup, name, no_draw)
    monkeypatch.setattr(fields, "_excursion_block", no_draw)
    msg = run(tmp_path, *argv, "--replicas", str(2**40), expect=1)
    assert msg.startswith("error:") and "pass the cap" in msg


def test_homology_grid_cap(tmp_path):
    # explicit grids stop at 512, the largest the automatic search tries
    assert run(tmp_path, "homology-dist", "--graph", TRIANGLE, "--grid", "512")["result"]
    for grid in ("1024", str(2**40)):
        msg = run(tmp_path, "homology-dist", "--graph", TRIANGLE, "--grid", grid, expect=1)
        assert "power of two from 8 to 512" in msg
    # and at 2^24 points over all cycles: K5 has 6 cycles, 64^6 = 2^36 points
    names = "abcde"
    k5 = tmp_path / "k5.json"
    k5.write_text(json.dumps({
        "vertices": list(names), "killing": {"a": 1.0},
        "edges": [{"u": u, "v": v, "c": 1.0} for i, u in enumerate(names) for v in names[i + 1:]]}))
    msg = run(tmp_path, "homology-dist", "--graph", str(k5), "--grid", "64", expect=1)
    assert msg.startswith("error:") and "64^6 points, above the cap" in msg


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

    monkeypatch.setattr(soup, "occupation_samples", no_draw)
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
    for z in ("1,2,3", "abc", "1", ""):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["genfun", "--graph", TRIANGLE, "--edge", "a:b", "--z", z])
        assert code == 1
        assert err.getvalue() == f"error: --z needs re,im, got {z!r}\n"
    for out in (tmp_path / "missing" / "x.json", tmp_path):  # the report cannot be written
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["kernel", "--graph", TRIANGLE, "--out", str(out)])
        assert code == 1
        assert err.getvalue().startswith("error:") and str(out) in err.getvalue()
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
    """Namespace, exit code, stdout and stderr of one parse; values compare by
    repr, since nan != nan."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = repr(sorted(vars(parse(list(argv))).items())), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


_REQUIRED = ["--graph", "g", "--network", "n", "--x0", "a", "--sources", "a",
             "--sinks", "b", "--edge", "a:b"]


def test_dispatch_parses_like_the_whole_tree(monkeypatch):
    # main reads a plain argv from its command's options and builds the tree
    # for everything else; every outcome must be the whole tree's, usage
    # errors, help and --version included
    whole = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: whole)  # one tree, parsed again
    for name in _COMMANDS:
        for rest in ([], ["-h"], ["--graph", "g"], _REQUIRED, ["--bad"], ["--version"],
                     _REQUIRED + ["--alpha", "2", "--seed", "7", "--format", "csv"],
                     ["--graph", "g", "--seed", "x"], _REQUIRED + ["stray"],
                     ["--gr", "g"], _REQUIRED + ["--out", "f", "--format", "csv"],
                     ["--graph", "g", "--version"], _REQUIRED + ["--=x"],
                     _REQUIRED + ["--seed", "-5"], _REQUIRED + ["--z=-0.3,0.2"],
                     _REQUIRED + ["--graph=--"], _REQUIRED + ["--"], _REQUIRED + ["--", "x"],
                     ["--graph", ""], ["--graph="], _REQUIRED + ["--seed", ""],
                     _REQUIRED + ["--seed", "x", "--seed", "1"],
                     _REQUIRED + ["--seed", "1", "--seed", "2"],
                     _REQUIRED + ["--format", "xml"], _REQUIRED + ["--sampler=wilson"],
                     _REQUIRED + ["--sampler", "Wilson"], _REQUIRED + ["--alpha", "nan"],
                     _REQUIRED + ["--seed"], _REQUIRED + ["--graph", "-"]):
            argv = [name, *rest]
            assert _parse_outcome(_parse_args, argv) == _parse_outcome(whole.parse_args, argv)
    for argv in ([], ["nope"], ["--version"], ["--graph", "g", "kernel"]):
        assert _parse_outcome(_parse_args, argv) == _parse_outcome(whole.parse_args, argv)
    for argv in (["--help"], ["--help", "kernel"]):  # top-level help is the whole tree's
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == whole.format_help()


# argv pieces for the random sweep: values that convert, fail to convert, miss
# a choice or start with "-", and misspelt, abbreviated and foreign flags
_VALUES = ["g", "a:b", "1", "0", "-5", "2.5", "nan", "x", "", "--", "-", "-0.3,0.2",
           "json", "csv", "xml", "direct", "wilson", "kernel"]
_ODD_FLAGS = ["--bad", "--gr", "--se", "-h", "--help", "--version", "--", "--=x", "-",
              "--network", "--grid", "--z"]


def _random_argv(rng):
    if rng.random() < 0.03:
        return [rng.choice(_VALUES), *rng.choice(([], _REQUIRED))]
    name = rng.choice(list(_COMMANDS))
    options = cli._options(name)
    argv = [name]
    for flag, kwargs in options:  # usually every required option, well formed
        if kwargs.get("required") and rng.random() < 0.9:
            argv += [flag, "a:b"]
    for _ in range(rng.randrange(4)):
        flag, kwargs = rng.choice(options)
        if rng.random() < 0.1:
            flag = rng.choice(_ODD_FLAGS)
        value = rng.choice(_VALUES)
        if rng.random() < 0.5:  # a value of the option's own kind
            value = rng.choice(kwargs.get("choices", [str(rng.randrange(-3, 100))]))
        roll = rng.random()
        if roll < 0.3:
            argv.append(f"{flag}={value}")
        elif roll < 0.97:
            argv += [flag, value]
        else:
            argv.append(flag)
    return argv


def test_random_argvs_parse_like_the_whole_tree(monkeypatch):
    rng = random.Random(19)
    whole = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: whole)  # one tree, parsed again
    plain = 0
    for _ in range(3000):
        argv = _random_argv(rng)
        assert _parse_outcome(_parse_args, argv) == _parse_outcome(whole.parse_args, argv), argv
        plain += cli._read_plain(argv) is not None
    assert plain > 1000  # the table reads about half the argvs, the tree the rest


def test_plain_argvs_build_no_parser(tmp_path, monkeypatch):
    # the benchmark's argv shapes are read from the command table alone
    def no_tree():
        raise AssertionError("argparse tree built for a plain argv")

    net = tmp_path / "net.json"
    net.write_text(json.dumps({"counts": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}))
    monkeypatch.setattr(cli, "_build_parser", no_tree)
    for argv in (["sample", "--graph", TRIANGLE, "--sampler", "wilson", "--seed", "3"],
                 ["genfun", "--graph", TRIANGLE, "--edge", "a:b", "--z=-0.3,0.2",
                  "--alpha", "0.5"],
                 ["exact-network", "--graph", TRIANGLE, "--network", str(net),
                  "--alpha", "0.5"],
                 ["homology-dist", "--graph", TRIANGLE, "--grid", "64", "--alpha", "2"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    with pytest.raises(AssertionError, match="tree built"):  # usage errors are the tree's
        main(["sample", "--graph", TRIANGLE, "--sampler", "metropolis"])


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


# A shell call runs in a fresh process, which pays for every module it imports.
# Each row: the `loopsoup.cli.main` arguments (None: a bare `import loopsoup`,
# (): `import loopsoup.cli` alone), the submodules loaded exactly (None: not
# pinned) and submodules never loaded.
_CLI_BASE = {"cli", "errors", "reports", "rng"}
_EXACT_ONLY = {"soup", "fields", "homology", "verify"}
_SAMPLING_ONLY = {"eulerian", "homology", "fields", "verify"}
_NET = "NETWORK_FILE"  # stands for a network file written by the test
FRESH_IMPORTS = [
    (None, {"errors"}, set()),
    ((), _CLI_BASE, set()),
    (("--help",), _CLI_BASE, set()),
    (("--version",), _CLI_BASE, set()),
    (("kernel", "--graph", TRIANGLE), _CLI_BASE | {"graphs"}, set()),
    (("genfun", "--graph", TWO_POINT, "--edge", "a:b"), None, _EXACT_ONLY),
    (("best-count", "--graph", TWO_POINT, "--network", _NET), None, _EXACT_ONLY),
    (("mu-network", "--graph", TWO_POINT, "--network", _NET), None, _EXACT_ONLY),
    (("exact-network", "--graph", TWO_POINT, "--network", _NET), None, _EXACT_ONLY),
    (("sample", "--graph", TRIANGLE, "--seed", "3"), None, _SAMPLING_ONLY),
    (("jumps", "--graph", TRIANGLE, "--sampler", "wilson"), None, _SAMPLING_ONLY),
]

_FRESH_PROCESS = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import loopsoup
else:
    from loopsoup.cli import main
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_leaves_process_pools_out(tmp_path):
    # the process-pool modules would cost about half of a fresh import, and
    # nothing in the package needs them; each command loads only the library
    # modules it calls
    net = tmp_path / "two_point_net.json"
    net.write_text(json.dumps({"counts": [[0, 1], [1, 0]]}))
    src = str(pathlib.Path(loopsoup.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for argv, exact, never in FRESH_IMPORTS:
        argv = None if argv is None else [str(net) if a == _NET else a for a in argv]
        out = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, json.dumps(argv)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, (argv, out.stderr)
        modules = set(json.loads(out.stdout))
        loaded = {m.split(".", 1)[1] for m in modules if m.startswith("loopsoup.")}
        assert not {"multiprocessing", "concurrent.futures"} & modules, argv
        if exact is not None:
            assert loaded == exact, argv
        assert not loaded & never, argv


# the arguments each command needs besides the option under test; NET is the
# network file
_NEEDS = {
    "kernel": ("--graph", TRIANGLE),
    "sample": ("--graph", TRIANGLE),
    "occupation": ("--graph", TRIANGLE),
    "jumps": ("--graph", TRIANGLE),
    "exact-network": ("--graph", TRIANGLE, "--network", "NET"),
    "best-count": ("--graph", TRIANGLE, "--network", "NET"),
    "mu-network": ("--graph", TRIANGLE, "--network", "NET"),
    "convolution-check": ("--graph", TRIANGLE),
    "homology-dist": ("--graph", TRIANGLE),
    "jacobian": ("--graph", TRIANGLE),
    "isomorphism": ("--graph", TRIANGLE),
    "ray-knight": ("--graph", PATH3, "--x0", "a"),
    "moments": ("--graph", TRIANGLE, "--edges", "a:b"),
    "det-identity": ("--graph", TRIANGLE),
    "genfun": ("--graph", TRIANGLE, "--edge", "a:b"),
    "maxflow": ("--graph", TRIANGLE, "--network", "NET", "--sources", "a", "--sinks", "c"),
    "verify-all": (),
}
_EXTREMES = ("nan", "inf", "-1", "-100", "0", "1e300", str(2**40))


def _extreme_cases():
    """Every command once with its defaults, then every int or float option
    but --replicas (which sets the amount of work) at every extreme value."""
    for name, (_, _, _, options) in _COMMANDS.items():
        yield name, None
        for flag, kwargs in options:
            if kwargs.get("type") in (int, float) and flag != "--replicas":
                for value in _EXTREMES:
                    yield name, f"{flag}={value}"


def _exit_one_cause(exc, stderr: str) -> str | None:
    """None when an exit status of 1 has one of its three allowed sources: a
    usage error, a LoopSoupError, or a ValueError from cli's option checks."""
    if exc is None:
        return None if "usage:" in stderr else f"exit 1 without a cause: {stderr}"
    if isinstance(exc, LoopSoupError):
        return None
    if isinstance(exc, ValueError) and \
            traceback.extract_tb(exc.__traceback__)[-1].filename == cli.__file__:
        return None
    return f"{type(exc).__name__}: {exc}"


def test_extreme_numeric_options(tmp_path, monkeypatch):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"counts": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}))
    raised = []

    def recording(handler):
        def handle(args):
            try:
                return handler(args)
            except Exception as exc:
                raised.append(exc)
                raise
        return handle

    for name, entry in _COMMANDS.items():
        monkeypatch.setitem(_COMMANDS, name, (recording(entry[0]), *entry[1:]))
    failures = []
    for name, option in _extreme_cases():
        takes_replicas = any(flag == "--replicas" for flag, _ in _COMMANDS[name][3])
        argv = [name, *(str(net) if a == "NET" else a for a in _NEEDS[name]),
                *(["--replicas", "10"] if takes_replicas else []),
                *([option] if option else []), "--out", str(tmp_path / "out.json")]
        raised.clear()
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
        except Exception as exc:  # every escape from main is a failure here
            failures.append((name, option, f"raised {type(exc).__name__}: {exc}"))
            continue
        if code == 1:
            cause = _exit_one_cause(raised[-1] if raised else None, err.getvalue())
            if cause is not None:
                failures.append((name, option, cause))
        elif code not in (0, 2):
            failures.append((name, option, f"exit {code}"))
    assert failures == []
