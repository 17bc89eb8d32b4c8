"""The battery must fail when a known defect is planted.

Each test patches the direct block sampler or the exact network enumeration,
reruns the full battery at the acceptance size and seed, and asserts that
the checks reading the patched code catch the defect while the checks that
never touch it still pass.
"""

from loopsoup import eulerian, soup
from loopsoup.verify import DEFAULT_REPLICAS, DEFAULT_SEED, run_all

CATCHING = {2, 4, 5, 13}
UNTOUCHED = {1, 3, 6, 7, 8, 9, 10, 11}  # cycle popping, excursions or exact only
MONTE_CARLO = {1, 2, 4, 5, 6, 7, 8, 13}


def _failing_checks(monkeypatch, planted, module=soup, name="direct_block") -> set:
    monkeypatch.setattr(module, name, planted)
    reports = run_all(replicas=DEFAULT_REPLICAS, seed=DEFAULT_SEED)
    failing = {r.meta["check"] for r in reports if not r.passed}
    print(f"\nplanted {planted.__name__}: failing checks {sorted(failing)}")
    return failing


def test_dropped_length_two_loops_fail_the_battery(monkeypatch):
    original = soup.direct_block

    def drop_length_two(*args, **kwargs):
        block = original(*args, **kwargs)
        kept = tuple(g for g in block.groups if g.vertices.shape[1] != 2)
        return block._replace(groups=kept)

    failing = _failing_checks(monkeypatch, drop_length_two)
    assert CATCHING <= failing
    assert not failing & UNTOUCHED


def test_inflated_intensity_fails_the_battery(monkeypatch):
    original = soup.direct_block

    def inflate_alpha(kernel, alpha, *args, **kwargs):
        return original(kernel, 1.1 * alpha, *args, **kwargs)

    failing = _failing_checks(monkeypatch, inflate_alpha)
    assert CATCHING <= failing
    assert not failing & UNTOUCHED


def test_dropped_three_cycles_fail_the_exact_check(monkeypatch):
    original = eulerian._simple_cycles

    def drop_three_cycles(*args, **kwargs):
        cycles = original(*args, **kwargs)
        return cycles[cycles.sum(axis=1) != 3]

    failing = _failing_checks(monkeypatch, drop_three_cycles, eulerian, "_simple_cycles")
    assert 10 in failing
    assert not failing & MONTE_CARLO
