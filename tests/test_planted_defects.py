"""The battery must fail when a known defect is planted.

Each test patches one sampler (direct, its holding times, cycle popping or
excursions), the exact network enumeration (its cycles or its dedup), the
cycle covers of the network law, the determinant identity, the torus volume
or the kernel, reruns the full
battery at the acceptance size and seed, and asserts that the checks
reading the patched code catch the defect while the checks that never touch
it still pass.  A transposed P is caught by no check: that blind spot is
asserted too, so a change that closes it shows.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from loopsoup import eulerian, fields, homology, soup, verify
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


def test_slow_holding_times_fail_the_isomorphism_check(monkeypatch):
    original = soup.direct_block

    def hold_at_half_rate(*args, **kwargs):
        # each loop visit held at rate lam_x / 2, not lam_x
        block = original(*args, **kwargs)
        return block._replace(groups=tuple(g._replace(times=2.0 * g.times) if g.times is not None
                                           else g for g in block.groups))

    assert _failing_checks(monkeypatch, hold_at_half_rate) == {5}


def test_skewed_volume_route_fails_the_jacobian_line(monkeypatch):
    original = homology.intersection_matrix

    def scaled_by_1_01(basis):
        return 1.01 * original(basis)

    # the routes disagree: check 11 fails its line, the battery still runs
    assert _failing_checks(monkeypatch, scaled_by_1_01, homology,
                           "intersection_matrix") == {11}


def test_dropped_three_cycles_fail_the_exact_check(monkeypatch):
    original = eulerian._simple_cycles

    def drop_three_cycles(*args, **kwargs):
        cycles = original(*args, **kwargs)
        return cycles[cycles.sum(axis=1) != 3]

    failing = _failing_checks(monkeypatch, drop_three_cycles, eulerian, "_simple_cycles")
    assert {3, 10} <= failing  # the cover search and the enumeration both read the cycles
    assert not failing & MONTE_CARLO


def test_dropped_two_cycle_covers_fail_the_route_check(monkeypatch):
    original = eulerian._cycle_covers

    def drop_two_cycles(*args, **kwargs):
        covers, coef = original(*args, **kwargs)
        kept = covers.sum(axis=1) != 2
        return covers[kept], coef[kept]

    failing = _failing_checks(monkeypatch, drop_two_cycles, eulerian, "_cycle_covers")
    assert 3 in failing
    assert not failing & MONTE_CARLO


def test_colliding_row_codes_fail_the_mu_check(monkeypatch):
    def radix_top(rows):
        # network._row_codes with radix top in place of top + 1, so a column
        # at its maximum carries into the next and distinct rows collide
        code = np.zeros(len(rows), dtype=np.int64)
        bound = 1
        for col in rows.T:
            top = int(col.max(initial=0))
            if not top:
                continue
            if bound * top > 1 << 63:
                ranked, code = np.unique(code, return_inverse=True)
                bound = len(ranked)
            code *= top
            code += col
            bound *= top
        return code

    failing = _failing_checks(monkeypatch, radix_top, eulerian, "_row_codes")
    assert 10 in failing  # the layers lose networks, so the mu sums fall short
    assert not failing & MONTE_CARLO


class _DoubledFirstNeighbour:
    """The kernel's walk with each vertex's jump weight to its first neighbour
    doubled and the row (death included) renormalised: a uniform landing in
    the first neighbour's share 2 p1 / (1 + p1) is mapped into [0, p1), any
    other into [p1, 1)."""

    def __init__(self, kernel):
        self.n, self._kernel = kernel.n, kernel
        self._p1 = kernel._step_table[1][:, 0]

    def walk_steps(self, xs, u):
        p1 = self._p1[xs]
        u = np.where(u * (1 + p1) < 2 * p1, u * (1 + p1) / 2, u * (1 + p1) - p1)
        return self._kernel.walk_steps(xs, u)


def test_skewed_cycle_popping_walk_fails_the_battery(monkeypatch):
    original = soup.wilson_counts

    def doubled_first_neighbour(kernel, size, rng):
        return original(_DoubledFirstNeighbour(kernel), size, rng)

    failing = _failing_checks(monkeypatch, doubled_first_neighbour, soup, "wilson_counts")
    assert failing == {1, 7, 8, 13}  # the checks that read wilson histograms


def test_raised_excursion_level_fails_the_ray_knight_check(monkeypatch):
    original = fields._excursion_block

    def stop_at_1_1_rho(kernel, x0, rho, size, rng):
        return original(kernel, x0, 1.1 * rho, size, rng)

    failing = _failing_checks(monkeypatch, stop_at_1_1_rho, fields, "_excursion_block")
    assert failing == {6}


def test_unnormalized_det_diagonal_fails_the_det_check(monkeypatch):
    original = verify.verify_det_identity

    def diagonal_without_lam(kernel, chi, histogram):
        # the diagonal chi_x (1 + N_x), not divided by lam_x: the identity read
        # through a view of the kernel whose lam is one
        view = SimpleNamespace(n=kernel.n, lam=np.ones(kernel.n), graph=kernel.graph,
                               G=kernel.G)
        return original(view, chi, histogram)

    failing = _failing_checks(monkeypatch, diagonal_without_lam, verify, "verify_det_identity")
    assert failing == {8}


def _transposed_p(kernel):
    """The kernel with P^T = C[x, y] / lam[x], the walk's q_matrix, as P."""
    return dataclasses.replace(kernel, P=kernel.q_matrix)


def test_transposed_p_is_a_blind_spot(monkeypatch):
    # The battery reads P only through balanced networks, whose law holds
    # prod P[x, y]^k_xy; P^T changes it by prod lam_y^k_xy / prod lam_x^k_xy,
    # the lam product over edge heads over the one over edge tails, and those
    # are equal when every vertex has in-degree = out-degree.  No check
    # fails; only the `kernel` payload shows P.
    original = verify.build_kernel

    def transposed_p(graph):
        return _transposed_p(original(graph))

    assert _failing_checks(monkeypatch, transposed_p, verify, "build_kernel") == set()


def test_transposed_p_keeps_every_balanced_law():
    # the blind spot is not the reference chains' constant lam: on K4 killed at
    # one vertex lam is not constant, P is not symmetric, and the laws agree
    kernel = verify.build_kernel(verify.complete4_graph())
    transposed = _transposed_p(kernel)
    assert not np.allclose(kernel.P, transposed.P)
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(10):
        k = verify.random_eulerian_network(kernel.graph, rng)
        for law in (eulerian.exact_network_prob_alpha1, eulerian.mu_network_measure):
            assert law(transposed, k) == pytest.approx(law(kernel, k), rel=1e-12)
        assert eulerian.exact_network_prob_alpha(transposed, k, 0.5) == \
            pytest.approx(eulerian.exact_network_prob_alpha(kernel, k, 0.5), rel=1e-12)
