"""Pinned random-number streams of the Monte Carlo samplers, and the
battery statistics built from them.

Each sampler digest is the SHA-256 of a sampler's whole output at a fixed
seed (for the Ray-Knight excursions, the raw occupations and diagnostics of
several full blocks), so a change that moves one random number, or the
order in which numbers are drawn, fails here even when every statistical
check still passes.  The battery digests cover every StatLine of run_all
except the runtimes, so a change to a reduction over the samples (a sum
taken in another order, say) fails here too; the full-size one, at the
benchmark's replica count, also covers the chunk edges of a run of many
blocks.  The rest-of-battery digests leave out checks 5 and 6, and the
shape pins every report's name and every line's statistic and kind, so a
change to some checks shows that it left the others and the battery's
shape alone.  Check 5 reads the triangle's occupation fields off the draws
of check 4's histograms; the same fields drawn through occupation_samples
must give it the same lines, and every report that reads a sample must
name its streams.  A change that
moves the streams or the statistics on purpose
updates the digests and says why; run this file as a script to print the
current ones.
"""

import hashlib

import numpy as np
import pytest

from loopsoup import (
    BLOCK,
    WeightedGraph,
    build_kernel,
    direct_sample,
    network_histogram,
    occupation_samples,
    wilson_sample,
)
from loopsoup.fields import _excursion_block, _isomorphism_lines, _isomorphism_report
from loopsoup.rng import replica_map
from loopsoup.verify import (
    check_isomorphism,
    path3_graph,
    run_all,
    triangle_graph,
    two_point_graph,
)

SEED = 20260816
HIST_REPLICAS = BLOCK + 500  # one full block and one partial block
OCC_REPLICAS = 2 * BLOCK + 300  # two full blocks and one partial block

HISTOGRAMS = {
    ("triangle", "direct", 0.5):
        "adaa8a7c553678b8878ad97e54383a8ea2448e36680987bfd78b51aa02f430c9",
    ("triangle", "direct", 1.0):
        "e03d0a0d2ac123722486789884998ee9f4a83299dc24b57421095b735bfc8a28",
    ("triangle", "direct", 2.0):
        "830a3cd35475a234495b138dcf5f503d44456af9a2b125f8e2590ae56915b7ee",
    ("two_point", "wilson", 1.0):
        "c8cfad7d2c676d092cb0ca4d6dc34a139aa453472d241f76d823d2baea941946",
    ("triangle", "wilson", 1.0):
        "1499604c1dc4247eee28637ac406594bd48333853c0db9bd5598fe0038f603b7",
}
OCCUPATION = "64c9fb707e59d1c2b754ade1c90ee645efc7987399a2940a2613589fd53bece0"
DIRECT_SAMPLES = "5bac1aabf209c988acb83bec6ad3e8bf06857025398c5670073e55ec0814dec8"
WILSON_SAMPLES = "26a2508a5dfa664fc4182ac8340c2e1fd84a0347d8f754d388c0f52a956b9dbe"
EXCURSION_REPLICAS = 4 * BLOCK  # four full blocks
EXCURSIONS = {  # (graph, start vertex x0, stopping local time rho)
    ("path3", "a", 1.0):
        "5bde4a9687476674af6bf14ae308151c72227c4b796be34c88fedb09c618479f",
    ("three_neighbours", "b", 1.5):
        "e24a196e60dd48f87f6f82d6f5942ddf9170ca98ea03fc7aa1573ebfd22d7419",
}
BATTERY_REPLICAS = 20_000
BATTERY = "6948e1648b62bc184f132113e25101969dd07a2211df8bb3f7eb5ddf791a82fa"
# the benchmark's battery: 12 full blocks and a partial block of 1696; it is
# checked on the acceptance battery's own run (tests/test_acceptance.py)
FULL_BATTERY_REPLICAS = 100_000
FULL_BATTERY = "4cb98d15c284ceb50f3aa96dd556318fb61001ee74c566e6ad571cc8e5c88302"
# every line outside checks 5 and 6 (runtimes excluded), at both sizes: a
# change to checks 5 and 6 alone must leave these as they are
REST_OF_BATTERY = {
    BATTERY_REPLICAS: "f7ed5e537c888d86f7285f9459d99c6c5a70a6910a9e8aa98c6ce5146e3bd539",
    FULL_BATTERY_REPLICAS: "43a7140a352885e0f95b3088b8288bf889f5cdb160cb70d557f63241c67dfb89",
}
# the battery's shape: per report its name, and per line its statistic and
# whether it is a z-line; the count of z-lines is the family the
# benchmark's Bonferroni gate is taken over
SHAPE = "887503e6e1eea3ecd295638792d93c3d1749ab59e662f79ca4ce5ad8148a598d"


def three_neighbours_graph() -> WeightedGraph:
    """Killing only at b, whose three neighbours have unequal conductances."""
    return WeightedGraph.build(
        ("a", "b", "c", "d"),
        (("b", "a", 0.5), ("b", "c", 1.0), ("b", "d", 2.5), ("a", "c", 0.7)),
        {"b": 0.3},
    )


_GRAPHS = {"triangle": triangle_graph, "two_point": two_point_graph,
           "path3": path3_graph, "three_neighbours": three_neighbours_graph}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _kernel(name: str):
    return build_kernel(_GRAPHS[name]())


def histogram_digest(graph: str, sampler: str, alpha: float) -> str:
    """Digest of the (network as a tuple of row tuples, replica count) pairs
    and the diagnostics; the rows must come in lexicographic order."""
    hist = network_histogram(_kernel(graph), HIST_REPLICAS, SEED, sampler, alpha=alpha)
    pairs = [(tuple(map(tuple, key)), count)
             for key, count in zip(hist.rows.tolist(), hist.counts.tolist())]
    assert pairs == sorted(pairs)
    return _sha(repr((pairs, sorted(hist.diagnostics.items()))))


def occupation_digest() -> str:
    meta: dict = {}
    occ = occupation_samples(_kernel("triangle"), 1.0, OCC_REPLICAS, SEED, meta=meta)
    return hashlib.sha256(np.ascontiguousarray(occ, dtype="<f8").tobytes()
                          + repr(sorted(meta.items())).encode()).hexdigest()


def direct_samples_digest() -> str:
    kernel = _kernel("triangle")
    soups = [direct_sample(kernel, 1.5, seed=seed) for seed in range(10)]
    return _sha(repr([(soup.loops, soup.trivial_time.tolist()) for soup in soups]))


def wilson_samples_digest() -> str:
    kernel = _kernel("triangle")
    samples = [wilson_sample(kernel, seed) for seed in range(10)]
    return _sha(repr([(parents, soup.loops, soup.trivial_time.tolist())
                      for parents, soup in samples]))


def excursion_digest(graph: str, x0: str, rho: float) -> str:
    kernel = _kernel(graph)
    x0 = kernel.graph.index(x0)
    digest = hashlib.sha256()
    for occ, diagnostics in replica_map(
            lambda rng, size: _excursion_block(kernel, x0, rho, size, rng),
            EXCURSION_REPLICAS, SEED):
        digest.update(np.ascontiguousarray(occ, dtype="<f8").tobytes())
        digest.update(repr(sorted(diagnostics.items())).encode())
    return digest.hexdigest()


def _battery_lines(reports) -> list:
    return [(report.name, line.statistic, line.lhs, line.rhs, line.stderr, line.z,
             line.passed, line.note)
            for report in reports for line in report.lines
            if line.statistic != "runtime_seconds"]


def battery_digest(reports) -> str:
    return _sha(repr(_battery_lines(reports)))


def rest_of_battery_digest(reports) -> str:
    """Digest of every line but the runtimes outside checks 5 and 6."""
    return _sha(repr(_battery_lines(r for r in reports if r.meta["check"] not in (5, 6))))


def battery_shape(reports) -> list:
    return [(report.name, [(line.statistic, line.z is not None) for line in report.lines])
            for report in reports]


def full_battery_digest(reports) -> str:
    """Digest of run_all(FULL_BATTERY_REPLICAS, SEED)'s reports: every line
    but the runtimes, and the sampler diagnostics of checks 5 and 6."""
    diagnostics = [report.meta["sampler_diagnostics"] for report in reports[4:6]]
    return _sha(repr((_battery_lines(reports), diagnostics)))


@pytest.mark.parametrize("graph, sampler, alpha", list(HISTOGRAMS))
def test_histogram_streams(graph, sampler, alpha):
    assert histogram_digest(graph, sampler, alpha) == HISTOGRAMS[(graph, sampler, alpha)]


def test_occupation_stream():
    assert occupation_digest() == OCCUPATION


def test_direct_sample_streams():
    assert direct_samples_digest() == DIRECT_SAMPLES


def test_wilson_sample_streams():
    assert wilson_samples_digest() == WILSON_SAMPLES


@pytest.mark.parametrize("graph, x0, rho", list(EXCURSIONS))
def test_excursion_streams(graph, x0, rho):
    assert excursion_digest(graph, x0, rho) == EXCURSIONS[(graph, x0, rho)]


@pytest.fixture(scope="module")
def battery():
    return run_all(BATTERY_REPLICAS, SEED)


def test_battery_statistics(battery):
    assert battery_digest(battery) == BATTERY


@pytest.mark.parametrize("replicas", list(REST_OF_BATTERY))
def test_rest_of_battery_statistics(replicas, battery):
    reports = battery if replicas == BATTERY_REPLICAS else run_all(replicas, SEED)
    assert rest_of_battery_digest(reports) == REST_OF_BATTERY[replicas]


def test_check_5_reads_one_path(battery):
    # the triangle drawn through occupation_samples on the streams of check
    # 4's histograms, which run_all reads its fields off, gives check 5 the
    # same lines, streams and diagnostics
    def lines(report):
        return [(line.statistic, line.lhs, line.rhs, line.stderr, line.z)
                for line in report.lines]

    kernel = build_kernel(triangle_graph())
    field_lines, diagnostics = {}, {}
    for alpha, stream in ((0.5, SEED + 4), (1.0, SEED + 3)):
        diagnostics[alpha] = {}
        occ = occupation_samples(kernel, alpha, BATTERY_REPLICAS, stream,
                                 meta=diagnostics[alpha])
        field_lines[alpha] = _isomorphism_lines(kernel, alpha, occ.T)
    triangle = _isomorphism_report(BATTERY_REPLICAS, field_lines, diagnostics)
    alone = check_isomorphism(BATTERY_REPLICAS, SEED, triangle)
    assert lines(alone) == lines(battery[4])
    for key in ("streams", "sampler_diagnostics"):
        assert alone.meta[key] == battery[4].meta[key]


def test_reports_name_their_streams(battery):
    s = SEED
    streams = {report.meta["check"]: report.meta.get("streams") for report in battery}
    assert streams == {
        1: {"wilson": s}, 2: {"alpha=0.5": s + 1, "alpha=2.0": s + 2}, 3: None,
        4: {"alpha=0.5": s + 4, "alpha=1.0": s + 3, "alpha=2.0": s + 5, "modifiers": s + 30},
        5: {"triangle": {"alpha=0.5": s + 4, "alpha=1": s + 3},
            "single-vertex": {"alpha=0.5": s + 17, "alpha=1": s + 19}},
        6: {"left side": s + 25}, 7: {"wilson": s}, 8: {"wilson": s}, 9: None, 10: None,
        11: None, 12: {"direct": s + 3}, 13: {"wilson": s + 6, "direct": s + 3}}


def test_battery_shape(battery):
    shape = battery_shape(battery)
    lines = [line for _, report_lines in shape for line in report_lines]
    assert (len(shape), len(lines), sum(z for _, z in lines)) == (13, 110, 79)
    assert _sha(repr(shape)) == SHAPE


if __name__ == "__main__":
    for key in HISTOGRAMS:
        print(key, histogram_digest(*key))
    print("occupation", occupation_digest())
    print("direct_sample", direct_samples_digest())
    print("wilson_sample", wilson_samples_digest())
    for key in EXCURSIONS:
        print(key, excursion_digest(*key))
    reports = run_all(BATTERY_REPLICAS, SEED)
    print("battery", battery_digest(reports))
    print("rest of battery", BATTERY_REPLICAS, rest_of_battery_digest(reports))
    print("shape", _sha(repr(battery_shape(reports))))
    reports = run_all(FULL_BATTERY_REPLICAS, SEED)
    print("full battery", full_battery_digest(reports))
    print("rest of battery", FULL_BATTERY_REPLICAS, rest_of_battery_digest(reports))
