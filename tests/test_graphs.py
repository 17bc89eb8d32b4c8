"""Graph construction, kernel derivation, and the twisted energy matrix."""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import BadGraph, NonTransient, TailTooHeavy, WeightedGraph, build_kernel
from loopsoup.cli import _load_network
from loopsoup.verify import complete4_graph, single_vertex_graph, two_point_graph

import oracles

_SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_graphs"


def test_two_point_kernel_oracles(two_point_kernel):
    k = two_point_kernel
    assert k.lam == pytest.approx([2.0, 2.0])
    assert np.allclose(k.P, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(k.G, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert k.det_i_minus_p == pytest.approx(0.75, abs=1e-12)
    assert k.mu_mass == pytest.approx(-np.log(0.75), abs=1e-12)


def test_triangle_kernel_oracles(triangle_kernel):
    k = triangle_kernel
    assert k.lam == pytest.approx([3.0, 3.0, 3.0])
    # spectrum of the jump matrix: 2/3 and a double -1/3
    assert np.sort(k.sym_eigs) == pytest.approx([-1 / 3, -1 / 3, 2 / 3])
    assert k.det_i_minus_p == pytest.approx(16 / 27, abs=1e-12)


def test_path3_kernel(path3_kernel):
    k = path3_kernel
    assert k.lam == pytest.approx([2.0, 2.0, 1.0])
    assert np.allclose(k.G, [[1, 1, 1], [1, 2, 2], [1, 2, 3]], atol=1e-10)


def test_p_divides_by_the_target_lam(path3_kernel):
    # P[x, y] = C[x, y] / lam[y], column-normalized; no battery line tells P
    # from its transpose, since the network laws read it on balanced
    # networks, so the convention is pinned here on a kernel whose lam is
    # not constant
    k = path3_kernel
    c = k.graph.conductance
    assert len(set(k.lam.tolist())) > 1
    assert np.array_equal(k.P, c / k.lam[None, :])
    # b -> c divides by lam[c] = 1, c -> b by lam[b] = 2
    assert (k.P[1, 2], k.P[2, 1]) == (1.0, 0.5)


def test_green_inverts_energy_matrix(triangle_kernel, path3_kernel):
    for k in (triangle_kernel, path3_kernel):
        assert np.allclose(k.G @ k.energy_matrix, np.eye(k.n), atol=1e-10)
        assert (k.G >= 0).all()


def test_det_matches_energy_determinant(triangle_kernel, path3_kernel):
    for k in (triangle_kernel, path3_kernel):
        direct = np.linalg.det(k.energy_matrix) / np.prod(k.lam)
        assert k.det_i_minus_p == pytest.approx(direct, abs=1e-12)


def test_transition_normalization(two_point_kernel, path3_kernel, triangle_kernel):
    # columns of P sum to at most one, strictly below one where killing sits;
    # rows of the jump matrix likewise; spectral radius below one
    for k in (two_point_kernel, path3_kernel, triangle_kernel):
        col = k.P.sum(axis=0)
        assert (col <= 1 + 1e-12).all()
        killed = k.graph.killing > 0
        assert (col[killed] < 1).all()
        row = k.q_matrix.sum(axis=1)
        assert (row <= 1 + 1e-12).all()
        assert np.max(np.abs(np.linalg.eigvals(k.P))) < 1


def test_build_rejects_bad_input(triangle):
    with pytest.raises(BadGraph, match="vertices"):
        WeightedGraph.build((), ())
    with pytest.raises(BadGraph, match="distinct"):
        WeightedGraph.build(("a", "a"), ())
    with pytest.raises(BadGraph, match="self-loop"):
        WeightedGraph.build(("a", "b"), (("a", "a", 1.0),), {"a": 1.0})
    with pytest.raises(BadGraph, match="duplicate"):
        WeightedGraph.build(("a", "b"), (("a", "b", 1.0), ("b", "a", 2.0)), {"a": 1.0})
    with pytest.raises(BadGraph, match="conductance"):
        WeightedGraph.build(("a", "b"), (("a", "b", -1.0),), {"a": 1.0})
    with pytest.raises(BadGraph, match="unknown vertex"):
        WeightedGraph.build(("a", "b"), (("a", "z", 1.0),), {"a": 1.0})
    with pytest.raises(BadGraph, match=re.escape("edges[0]: expected (u, v, c)")):
        WeightedGraph.build(("a", "b"), (("a", "b"),), {"a": 1.0})
    with pytest.raises(BadGraph, match=re.escape("edges[0].u: unknown vertex 'z'")):
        WeightedGraph.build(("a", "b"), (("z", "b", 1.0),), {"a": 1.0})
    with pytest.raises(BadGraph, match=re.escape("killing['z']: unknown vertex")):
        WeightedGraph.build(("a", "b"), (("a", "b", 1.0),), {"z": 1.0})
    with pytest.raises(BadGraph, match=re.escape("edges[0] must be an object with u, v, c")):
        WeightedGraph.from_json_dict({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}],
                                      "killing": {"a": 1.0}})
    with pytest.raises(BadGraph, match="vertex index 7 out of range"):
        triangle.index(7)
    with pytest.raises(BadGraph, match="killing"):
        WeightedGraph.build(("a", "b"), (("a", "b", 1.0),), {"a": -0.5})
    with pytest.raises(BadGraph, match="transient"):
        WeightedGraph.build(("a", "b"), (("a", "b", 1.0),))


def test_nontransient_component():
    # two components, killing only in one: the other has a singular form
    g = WeightedGraph.build(
        ("a", "b", "c", "d"),
        (("a", "b", 1.0), ("c", "d", 1.0)),
        {"a": 1.0},
    )
    with pytest.raises(NonTransient):
        build_kernel(g)


def test_is_connected(two_point, single_vertex):
    assert two_point.is_connected()
    assert single_vertex.is_connected()
    g = WeightedGraph.build(
        ("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0)), {"a": 1.0, "c": 1.0}
    )
    assert not g.is_connected()


def test_twisted_energy_is_real_and_bounded_below(triangle_kernel):
    # generating_function takes the real power of the determinant ratio
    # because the twisted energy matrix is Hermitian positive definite
    rng = np.random.default_rng(5)
    for _ in range(10):
        raw = rng.normal(size=(3, 3))
        m = triangle_kernel.twisted_matrix(np.exp(2j * np.pi * (raw - raw.T)))
        assert np.allclose(m, m.conj().T, atol=1e-14, rtol=0.0)
        assert np.linalg.eigvalsh(m).min() > 0


def test_kernel_arrays_are_read_only(triangle):
    # every field array and every cached array, so no caller can change
    # what later samples or determinants read
    k = build_kernel(triangle)
    arrays = [k.lam, k.P, k.G, k.energy_matrix, k.q_matrix, k.sym_eigs,
              *k._step_table, k.graph.conductance, k.graph.killing]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # nor can a field or a cached property be rebound, computed or not yet
    fresh = build_kernel(triangle)
    for kernel in (k, fresh):
        for name in ("graph", "lam", "P", "G", "energy_matrix", "det_i_minus_p",
                     "log_det_i_minus_p", "log_prod_lam", "q_matrix", "sym_eigs",
                     "_step_table"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(kernel, name, None)
    for name in ("vertices", "conductance", "killing"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(k.graph, name, None)
    assert "q_matrix" in vars(k) and "q_matrix" not in vars(fresh)
    # the Green function too is computed on first read, then frozen
    assert "G" in vars(k) and "G" not in vars(fresh)
    assert np.array_equal(fresh.G, k.G) and "G" in vars(fresh)
    assert not fresh.G.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.G = None


def test_json_round_trip(tmp_path, triangle):
    data = {
        "vertices": list(triangle.vertices),
        "edges": [{"u": triangle.vertices[i], "v": triangle.vertices[j],
                   "c": float(triangle.conductance[i, j])} for i, j in triangle.edge_pairs],
        "killing": {v: float(k) for v, k in zip(triangle.vertices, triangle.killing) if k > 0},
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    back = WeightedGraph.from_json_file(path)
    assert back.vertices == triangle.vertices
    assert back.conductance == pytest.approx(triangle.conductance)
    assert back.killing == pytest.approx(triangle.killing)


def test_json_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(BadGraph, match="line 1"):
        WeightedGraph.from_json_file(path)
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"vertices": ["a", "b"]}))
    with pytest.raises(BadGraph, match="edges"):
        WeightedGraph.from_json_file(path2)


# JSON text of a number field -> the refusal it earns
_BAD_NUMBERS = {
    "NaN": "expected a finite number", "Infinity": "expected a finite number",
    "-Infinity": "expected a finite number", '"1e999"': "expected a finite number",
    "1e999": "expected a finite number", "1" + "0" * 400: "expected a finite number",
    '"abc"': "expected a number", "null": "expected a number", "[1]": "expected a number",
    "true": "expected a number", "false": "expected a number",
}


def _bad_number_graph(field: str, number: str) -> str:
    """Graph JSON text on a and b with `number` as the edge's c or a's killing."""
    c, kill = (number, "1") if field == "c" else ("1", number)
    return ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": %s}], '
            '"killing": {"a": %s, "b": 1}}' % (c, kill))


@pytest.mark.parametrize("field, where", [("c", "edges[0].c"), ("killing", "killing['a']")])
@pytest.mark.parametrize("number", list(_BAD_NUMBERS),
                         ids=["nan", "inf", "-inf", "str-1e999", "1e999", "int-400-digits",
                              "str-abc", "null", "list", "true", "false"])
def test_graph_numbers_are_refused(tmp_path, field, where, number):
    path = tmp_path / "graph.json"
    path.write_text(_bad_number_graph(field, number))
    with pytest.raises(BadGraph) as info:
        WeightedGraph.from_json_file(path)
    assert str(info.value).startswith(f"graph file {path}: {where}: {_BAD_NUMBERS[number]}, got ")


def test_index_lookup(triangle):
    assert triangle.index("b") == 1
    assert triangle.index(2) == 2
    with pytest.raises(BadGraph, match="unknown vertex"):
        triangle.index("z")


def test_length_distribution_two_point(two_point_kernel):
    cum, total, n_max, discarded = two_point_kernel.length_distribution(1e-9)
    # only even lengths carry mass: Tr(Q^n)/n = 2 (1/2)^n / n
    assert total == pytest.approx(-np.log(0.75), rel=1e-8)
    assert discarded <= 1e-9
    with pytest.raises(ValueError):
        two_point_kernel.length_distribution(1e-3)


def _random_connected(rng, n: int) -> WeightedGraph:
    """Random tree on n vertices plus up to n chords, conductances uniform in
    [0.1, 10), killing in [0.05, 2) at one vertex and at each other with
    probability 0.2."""
    verts = [f"v{i}" for i in range(n)]
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n + 1))):
        i, j = sorted(rng.choice(n, 2, replace=False))
        edges.add((int(i), int(j)))
    killed = rng.random(n) < 0.2
    killed[int(rng.integers(0, n))] = True
    return WeightedGraph.build(
        verts, [(verts[i], verts[j], float(rng.uniform(0.1, 10.0))) for i, j in sorted(edges)],
        {v: float(rng.uniform(0.05, 2.0)) for v, k in zip(verts, killed) if k})


def _law_or_error(law, kernel, eps):
    try:
        return law(kernel, eps)
    except TailTooHeavy as exc:
        return str(exc)


def test_length_distribution_matches_scalar_loop():
    # the chunked law sums in the scalar loop's order, so it must agree with
    # it bit for bit, the cut and the 10^4-term cap included
    rng = np.random.default_rng(12)
    graphs = [complete4_graph(), single_vertex_graph(),
              *(WeightedGraph.from_json_file(p) for p in sorted(_SAMPLES.glob("*.json"))),
              *(_random_connected(rng, int(rng.integers(2, 21))) for _ in range(30))]
    outcomes = {"cut": 0, "raised": 0}
    for graph in graphs:
        kernel = build_kernel(graph)
        for eps in (1e-6, 1e-9, 1e-13):
            want = _law_or_error(oracles.length_distribution, kernel, eps)
            got = _law_or_error(type(kernel).length_distribution, kernel, eps)
            if isinstance(want, str):
                assert got == want
                outcomes["raised"] += 1
                continue
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert [type(v) for v in got[1:]] == [type(v) for v in want[1:]]
            outcomes["cut"] += 1
    assert outcomes["cut"] >= 90 and outcomes["raised"] > 0


def test_length_distribution_cap_is_decided_by_rounding():
    # two killings 2e-14 apart on the path a-b-c: the first reaches the cut
    # at term 9926, the second never does within 10^4 terms
    def kernel(k):
        return build_kernel(WeightedGraph.build(
            "abc", [("a", "b", 1.0), ("b", "c", 1.0)], {"a": k}))

    cum, total, n_max, discarded = kernel(0.010742402424948522).length_distribution(1e-13)
    assert n_max == 9926 and len(cum) == 9925 and discarded <= 1e-13
    with pytest.raises(TailTooHeavy):
        kernel(0.010742402424930332).length_distribution(1e-13)


def test_walk_step_distribution(path3_kernel):
    rng = np.random.default_rng(17)
    hits = {-1: 0, 1: 0}
    for _ in range(4000):
        hits[path3_kernel.walk_step(0, rng)] += 1
    # from the killed end: half the jumps die, half go inward
    assert hits[-1] / 4000 == pytest.approx(0.5, abs=0.03)


# files whose %s slot takes a malformed value, by kind; the bare slot is the
# whole file
_SLOTS = {
    "graph": ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": %s}], '
              '"killing": {"a": 1}}',
              '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "c": 1}], '
              '"killing": {"a": %s}}',
              "%s"),
    "network": ('{"counts": [[0, %s], [1, 0]]}', '{"counts": [[0, 1], [%s, 0]]}', "%s"),
}
_NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e999"])
_LONG_INT = st.tuples(st.sampled_from(["", "-"]), st.integers(5000, 6000)).map(
    lambda sd: sd[0] + "9" * sd[1])
_BOOLEAN = st.sampled_from(["true", "false"])
_NOT_OBJECT = st.sampled_from(["[]", "[[0, 1], [1, 0]]", "3", '"graph"', "null", "true",
                               "[" * 100_000 + "]" * 100_000])  # past the recursion limit


def _load(kind: str, path):
    if kind == "graph":
        return WeightedGraph.from_json_file(path)
    return _load_network(two_point_graph(), path)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_SLOTS)), st.data())
def test_malformed_json_names_the_file(tmp_path_factory, kind, data):
    slot = data.draw(st.sampled_from(_SLOTS[kind]))
    value = data.draw(st.one_of(_NON_FINITE, _LONG_INT, _BOOLEAN,
                                _NOT_OBJECT if slot == "%s" else st.nothing()))
    path = tmp_path_factory.mktemp(kind) / f"{kind}.json"
    path.write_text(slot % value)
    with pytest.raises(BadGraph) as info:
        _load(kind, path)
    assert str(info.value).startswith(f"{kind} file {path}: ")
