"""Acceptance battery: the thirteen headline checks at full replica count.

Each test asserts one report from loopsoup.verify.run_all and prints a single
pass/fail line with the binding numbers, so the terminal log reads as a
scoreboard.  The shared battery runs once per session (about a minute).
"""

import numpy as np
import pytest
from test_streams import FULL_BATTERY, FULL_BATTERY_REPLICAS, SEED, full_battery_digest

from loopsoup.verify import DEFAULT_REPLICAS, DEFAULT_SEED, run_all


@pytest.fixture(scope="module")
def battery():
    return run_all(replicas=DEFAULT_REPLICAS, seed=DEFAULT_SEED)


def _summary(report):
    bits = []
    worst_z = 0.0
    for line in report.lines:
        if line.z is not None:
            worst_z = max(worst_z, abs(line.z))
        elif line.lhs != line.rhs:
            bits.append(f"{line.statistic}={line.lhs:.3g}<={line.rhs:.3g}")
    if worst_z:
        bits.append(f"worst|z|={worst_z:.2f}<=3")
    return "  ".join(bits[:4])


def _check(battery, number, name):
    report = battery[number - 1]
    assert report.meta.get("check") == number
    assert report.name == name
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {verdict}  {_summary(report)}")
    if not report.passed:
        for line in [line for line in report.lines if not line.passed]:
            print(f"  failed: {line.statistic}: {line.lhs} vs {line.rhs} (z={line.z})")
    assert report.passed
    return report


def test_01_geometric_law(battery):
    report = _check(battery, 1, "geometric-law")
    tv = [l for l in report.lines if "tv" in l.statistic.lower()]
    assert tv and all(l.lhs < 0.02 for l in tv)


def test_02_negative_binomial(battery):
    report = _check(battery, 2, "negative-binomial")
    stats = " ".join(l.statistic for l in report.lines)
    assert "alpha=0.5" in stats and "alpha=2.0" in stats


def test_03_network_law_routes(battery):
    report = _check(battery, 3, "network-law-routes")
    assert report.meta["max_total"] >= 6


def test_04_generating_function(battery):
    report = _check(battery, 4, "generating-function")
    # five modifiers, three intensities, real and imaginary parts
    assert len(report.lines) >= 30


def test_05_field_isomorphism(battery):
    _check(battery, 5, "field-isomorphism")


def test_06_ray_knight(battery):
    _check(battery, 6, "ray-knight")


def test_07_moment_formula(battery):
    report = _check(battery, 7, "moment-formula")
    targets = sorted(l.rhs for l in report.lines if l.stderr)
    assert np.allclose(targets[:3], [1 / 3, 5 / 9, 4 / 3])


def test_08_det_identity(battery):
    report = _check(battery, 8, "det-identity")
    targets = {round(l.rhs, 6) for l in report.lines if l.stderr}
    assert {round(5 / 3, 6), round(75 / 9, 6)} <= targets


def test_09_tour_count(battery):
    report = _check(battery, 9, "tour-count")
    assert report.meta["cases"] >= 20


def test_10_mu_measure(battery):
    _check(battery, 10, "mu-measure")


def test_11_jacobian_volume(battery):
    report = _check(battery, 11, "jacobian-volume")
    assert report.meta["cases"] >= 20


def test_12_homology_law(battery):
    _check(battery, 12, "homology-law")


def test_13_sampler_agreement(battery):
    _check(battery, 13, "sampler-agreement")


def test_battery_complete(battery):
    assert len(battery) == 13
    assert all(r.passed for r in battery)
    print(f"\nACCEPTANCE: 13/13 pass at {DEFAULT_REPLICAS} replicas, seed {DEFAULT_SEED}")


def test_battery_digest_at_benchmark_size(battery):
    # the fixture's run is the benchmark's, so pinning it costs no second run
    assert (DEFAULT_REPLICAS, DEFAULT_SEED) == (FULL_BATTERY_REPLICAS, SEED)
    assert full_battery_digest(battery) == FULL_BATTERY
