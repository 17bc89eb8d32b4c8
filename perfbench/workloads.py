"""The three workloads.  Each one has the same shape:

  setup(ls, seed, smoke, work_dir) -> state   inputs made from the seed, kernels built
  run_pass(state) -> (output, call intervals) the timed body, one unit of work;
                                              (start, end) clock readings per call
  summary(state, output) -> dict              small facts for the run record
  check(state, output) -> (attempted, failed, correct)   for one pass

`ls` is the freshly imported loopsoup package.  Library functions are always
looked up through it at call time, so a traced run sees every call.

battery  verify.run_all at 100 000 replicas: the Monte Carlo side.
exact    network enumeration, Poisson convolution, the homology Fourier grid
         and the permanents, with no sampling at all.
cli      a closed loop with one client making in-process `loopsoup` CLI calls,
         each paying for argument parsing, a file read and a fresh kernel.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260816
clock = time.perf_counter


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


# ---------------------------------------------------------------- battery

class Battery:
    """The thirteen-check acceptance battery, timed as one run_all call.

    The package gates each of its 79 z lines at |z| <= 3, calibrated at the
    pinned seed.  At any other seed a correct program fails some line with a
    chance of roughly one in five (79 x 0.27%), and moments 1-4 of one sample
    fail together: seed 544223040 fails three moment lines of one
    single-vertex comparison, while the same sampler over 700 000 other
    replicas has z 0.23 against its exact mean.  The benchmark therefore
    gates every z line at the Bonferroni point of the family (4.85 for 79
    lines), so a correct program fails a run with chance at most
    `family_alpha` when the z scores are normal.  Bound lines (TV, KS, exact
    identities, runtime) keep the package's own verdict.  The package's
    |z| <= 3 verdicts are kept in the run record.
    """

    replicas = 100_000
    smoke_replicas = 200
    family_alpha = 1e-4

    def setup(self, ls, seed, smoke, work_dir):
        return {"ls": ls, "seed": seed,
                "replicas": self.smoke_replicas if smoke else self.replicas}

    def run_pass(self, st):
        start = clock()
        reports = st["ls"].verify.run_all(replicas=st["replicas"], seed=st["seed"], workers=1)
        return reports, [(start, clock())]

    def summary(self, st, reports):
        # the JSON that `loopsoup verify-all` prints for the same reports
        payload = [report.to_dict() for report in reports]
        z_lines = [line for report in reports for line in report.lines if line.z is not None]
        return {"replicas": st["replicas"],
                "reports": {r["name"]: {"pass": r["pass"], "lines": len(r["lines"])}
                            for r in payload},
                "z_lines": len(z_lines),
                "z_gate": self.z_gate(len(z_lines)),
                "max_abs_z": max(abs(line.z) for line in z_lines),
                "package_failed": [f"{r['name']}: {line['statistic']}" for r in payload
                                   for line in r["lines"] if not line["pass"]]}

    def z_gate(self, count: int) -> float:
        return NormalDist().inv_cdf(1.0 - self.family_alpha / (2 * count))

    def check(self, st, reports):
        lines = [line for report in reports for line in report.lines]
        gate = self.z_gate(sum(line.z is not None for line in lines))
        failed = sum(not (abs(line.z) <= gate if line.z is not None else line.passed)
                     for line in lines)
        return len(lines), failed, failed == 0


# ---------------------------------------------------------------- exact

def balanced_counts(n: int, edges: list, total: int) -> list:
    """Every balanced count matrix with the given total over directed edges."""
    out = []
    for cuts in itertools.combinations(range(total + len(edges) - 1), len(edges) - 1):
        parts = np.diff((-1,) + cuts + (total + len(edges) - 1,)) - 1
        counts = np.zeros((n, n), dtype=np.int64)
        for (x, y), c in zip(edges, parts):
            counts[x, y] = c
        if (counts.sum(axis=0) == counts.sum(axis=1)).all():
            out.append(counts)
    return out


def ryser_permanent(a: np.ndarray) -> float:
    """Ryser's formula evaluated over all column subsets at once."""
    n = len(a)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    signs = (-1.0) ** (n - bits.sum(axis=1))
    return float(np.sum(signs * np.prod(bits @ a.T, axis=1)))


def complete_graph(ls, names, killing):
    edges = [(u, v, 1.0) for i, u in enumerate(names) for v in names[i + 1:]]
    return ls.graphs.WeightedGraph.build(names, edges, killing)


class Exact:
    """The exact machinery: no sampler, no replica stream."""

    full = {"enum_delta": 1e-3, "grid": 32, "route_total": 8, "alpha_n": 9, "perm_n": 16}
    smoke = {"enum_delta": 1e-2, "grid": 16, "route_total": 4, "alpha_n": 5, "perm_n": 8}

    def setup(self, ls, seed, smoke, work_dir):
        size = self.smoke if smoke else self.full
        rng = np.random.default_rng(seed)
        k4 = ("a", "b", "c", "d")
        tri = ("a", "b", "c")
        enum_graph = complete_graph(ls, tri, {v: 1.0 for v in tri}) if smoke else \
            complete_graph(ls, k4, {v: 3.0 for v in k4})
        hom_graph = complete_graph(ls, k4, {"a": 1.0})
        tri_graph = complete_graph(ls, tri, {v: 1.0 for v in tri})
        tri_edges = [(x, y) for x in range(3) for y in range(3) if x != y]
        alpha_a = rng.random((size["alpha_n"], size["alpha_n"]))
        return {
            "ls": ls,
            "size": size,
            "enum_kernel": ls.graphs.build_kernel(enum_graph),
            "hom_kernel": ls.graphs.build_kernel(hom_graph),
            "basis": ls.homology.cycle_basis(hom_graph),
            "tri_kernel": ls.graphs.build_kernel(tri_graph),
            "networks": [ls.network.Network(tri_graph, counts)
                         for counts in balanced_counts(3, tri_edges, size["route_total"])],
            "alpha_a": alpha_a,
            "alpha_b": alpha_a[:-1, :-1],
            "perm_c": rng.random((size["perm_n"], size["perm_n"])),
        }

    def run_pass(self, st):
        ls, size = st["ls"], st["size"]
        eul, exact = ls.eulerian, ls.exact
        delta = size["enum_delta"]
        start = clock()
        out = {
            "entries": eul.enumerate_eulerian(st["enum_kernel"], delta),
            "convolution": eul.verify_poisson_convolution(st["enum_kernel"], delta),
            "law": ls.homology.homology_distribution(st["hom_kernel"], st["basis"], 1.0,
                                                     size["grid"]),
            "routes": [(eul.exact_network_prob_alpha(st["tri_kernel"], net, 1.0),
                        eul.exact_network_prob_alpha1(st["tri_kernel"], net))
                       for net in st["networks"]],
            "alpha_plus": exact.alpha_permanent(st["alpha_a"], 1.0),
            "alpha_minus": exact.alpha_permanent(st["alpha_b"], -1.0),
            "permanent": exact.permanent(st["perm_c"]),
        }
        return out, [(start, clock())]

    def summary(self, st, out):
        return {"networks": len(out["entries"]),
                "layers": max(e.network.total for e in out["entries"]),
                "route_networks": len(out["routes"]),
                "grid": st["size"]["grid"], "cycles": st["basis"].n}

    def check(self, st, out):
        graph = st["enum_kernel"].graph
        lam = graph.conductance.sum(axis=1) + graph.killing
        q = graph.conductance / lam[:, None]
        results = []
        layer_mu: dict = {}
        for entry in out["entries"]:
            if entry.network.total:
                layer_mu[entry.network.total] = (
                    layer_mu.get(entry.network.total, 0.0) + entry.mu_mass)
        for m in range(1, max(layer_mu) + 1):
            trace_term = float(np.trace(np.linalg.matrix_power(q, m))) / m
            results.append(abs(layer_mu.get(m, 0.0) - trace_term) <= 1e-12)
        error = next(line for line in out["convolution"].lines
                     if line.statistic == "max_abs_reconstruction_error")
        results.append(error.lhs <= 1e-6)
        law = out["law"]
        results.append(law.captured_mass >= 0.999)
        results.append(law.symmetry_defect() <= 1e-8)
        results.extend(_close(a, b, 1e-9) for a, b in out["routes"])
        results.append(_close(out["alpha_plus"], st["ls"].exact.permanent(st["alpha_a"]), 1e-9))
        b = st["alpha_b"]
        det_route = (-1) ** len(b) * float(np.linalg.det(b))
        scale = ryser_permanent(b)  # sum of |terms| for a nonnegative matrix
        results.append(abs(out["alpha_minus"] - det_route) <= 1e-10 * scale)
        results.append(_close(out["permanent"], ryser_permanent(st["perm_c"]), 1e-6))
        failed = results.count(False)
        return len(results), failed, failed == 0


# ---------------------------------------------------------------- cli

SAMPLE_GRAPHS = ("two_point", "triangle", "path3")
COMMANDS = ("kernel", "sample", "exact-network", "best-count", "mu-network", "genfun",
            "jacobian", "homology-dist")




RAND_SHAPES = ((4, 4), (5, 3), (5, 5))  # (vertices, cycle length) of the written graphs


def unicyclic_graph(rng, n: int, length: int) -> dict:
    """Graph JSON: a cycle on v0..v(length-1), the other vertices hung on it as
    a random tree, random conductances and killing at one or two vertices."""
    names = [f"v{i}" for i in range(n)]
    pairs = [(i, (i + 1) % length) for i in range(length)]
    pairs += [(int(rng.integers(0, i)), i) for i in range(length, n)]
    killed = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
    return {
        "vertices": names,
        "edges": [{"u": names[i], "v": names[j], "c": round(float(rng.uniform(0.5, 2.0)), 4)}
                  for i, j in pairs],
        "killing": {names[int(i)]: round(float(rng.uniform(0.5, 2.0)), 4) for i in killed},
    }


def directed_cycles(cond: np.ndarray, long_cycle=None) -> list:
    """Count matrices of short closed walks: back-and-forth on every edge,
    every directed triangle, and a given longer cycle in both orientations."""
    n = len(cond)
    walks = [[i, j] for i in range(n) for j in range(i + 1, n) if cond[i, j] > 0]
    rings = [[i, j, k] for i, j, k in itertools.combinations(range(n), 3)
             if cond[i, j] > 0 and cond[j, k] > 0 and cond[k, i] > 0]
    if long_cycle and len(long_cycle) > 3:
        rings.append(list(long_cycle))
    walks += rings + [ring[::-1] for ring in rings]
    out = []
    for walk in walks:
        m = np.zeros((n, n), dtype=np.int64)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            m[a, b] += 1
        out.append(m)
    return out


def random_balanced_network(rng, cycles: list, total: int) -> np.ndarray:
    """Sum of random closed walks with connected support and the given total."""
    while True:
        counts = cycles[int(rng.integers(len(cycles)))].copy()
        while counts.sum() < total:
            touched = (counts.sum(axis=0) + counts.sum(axis=1)) > 0
            fits = [c for c in cycles if counts.sum() + c.sum() <= total
                    and (touched & (c.sum(axis=1) > 0)).any()]
            if not fits:
                break
            counts = counts + fits[int(rng.integers(len(fits)))]
        if counts.sum() == total:
            return counts


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class Cli:
    """One client in a closed loop: each call starts when the previous returns.

    Every call is `loopsoup.cli.main(argv)` with stdout captured, so it pays
    for argument parsing, reading the graph file, building a fresh kernel and
    serializing the report, as a shell user does.  A pass has every command
    equally often, each spread evenly over the graphs, alphas, samplers and
    networks; the seed draws the written graphs' weights, the sampler seeds,
    the modifiers and the order.  Sizes are fixed so that seeds change the
    inputs but not the amount of work: networks have 4 or 6 crossings, the
    written graphs have fixed shapes, and `homology-dist` reads only the
    sample graphs.
    """

    calls = 2048
    smoke_calls = 16
    alphas = (0.5, 1.0, 2.0)
    network_totals = (4, 6)

    def setup(self, ls, seed, smoke, work_dir):
        rng = np.random.default_rng(seed)
        paths = {name: str(ROOT / "sample_graphs" / f"{name}.json") for name in SAMPLE_GRAPHS}
        written = {"k4": {"vertices": list("abcd"),
                          "edges": [{"u": u, "v": v, "c": 1.0}
                                    for u, v in itertools.combinations("abcd", 2)],
                          "killing": {v: 3.0 for v in "abcd"}}}
        long_cycles = {}
        for i, (n, length) in enumerate(RAND_SHAPES):
            written[f"rand{i}"] = unicyclic_graph(rng, n, length)
            long_cycles[f"rand{i}"] = list(range(length))
        for name, data in written.items():
            paths[name] = str(work_dir / f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(data, fh)
        graphs = {name: ls.graphs.WeightedGraph.from_json_file(path)
                  for name, path in sorted(paths.items())}
        networks = {}
        for name, graph in graphs.items():
            cycles = directed_cycles(graph.conductance, long_cycles.get(name))
            networks[name] = []
            for total in self.network_totals:
                path = str(work_dir / f"{name}_net{total}.json")
                with open(path, "w") as fh:
                    json.dump({"counts": random_balanced_network(rng, cycles, total).tolist()},
                              fh)
                networks[name].append(path)
        per_command = (self.smoke_calls if smoke else self.calls) // len(COMMANDS)
        argvs = []
        for command in COMMANDS:
            # the sample graphs have at most one cycle, so the --grid 64 law has
            # 64 points, not 64^3; fixed inputs also keep this slowest call, which
            # sets call_p99_ms, the same from seed to seed
            names = list(SAMPLE_GRAPHS) if command == "homology-dist" else list(graphs)
            for i in range(per_command):
                name = names[i % len(names)]
                argvs.append(self._argv(rng, command, i // len(names), paths[name],
                                        graphs[name], networks[name]))
        plan = [argvs[i] for i in rng.permutation(len(argvs))]
        # A shell user's call runs in a fresh process, where the collector has
        # no old objects to rescan; freezing what set-up made keeps full
        # collections from landing on random calls of the loop.
        gc.collect()
        gc.freeze()
        return {"ls": ls, "plan": plan, "expected": {}}

    def _argv(self, rng, command, variant, path, graph, networks):
        argv = [command, "--graph", path]
        alpha = _fmt(self.alphas[variant % len(self.alphas)])
        if command == "sample":
            if variant % 4 == 3:
                argv += ["--sampler", "wilson"]
            else:
                argv += ["--alpha", alpha]
            argv += ["--seed", str(int(rng.integers(2**31)))]
        elif command in ("exact-network", "best-count", "mu-network"):
            argv += ["--network", networks[variant % len(networks)]]
            if command == "exact-network":
                argv += ["--alpha", alpha]
        elif command == "genfun":
            u, v = graph.edge_pairs[int(rng.integers(len(graph.edge_pairs)))]
            z = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
            argv += ["--edge", f"{graph.vertices[u]}:{graph.vertices[v]}",
                     f"--z={_fmt(z.real)},{_fmt(z.imag)}", "--alpha", alpha]
        elif command == "homology-dist":
            argv += ["--grid", "64", "--alpha", alpha]
        return argv

    def run_pass(self, st):
        times, replies = [], []
        for argv in st["plan"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                start = clock()
                code = st["ls"].cli.main(argv)
                times.append((start, clock()))
            replies.append((code, buf.getvalue()))
        return replies, times

    def summary(self, st, replies):
        return {"calls_per_pass": len(st["plan"]),
                "mix": {c: sum(argv[0] == c for argv in st["plan"]) for c in COMMANDS}}

    def check(self, st, replies):
        expected = st["expected"]
        failed = 0
        for argv, (code, text) in zip(st["plan"], replies):
            key = tuple(argv)
            if key not in expected:
                expected[key] = self._library_value(st["ls"], argv)
            try:
                ok = code == 0 and self._agrees(argv[0], json.loads(text)["result"],
                                                 expected[key])
            except (KeyError, TypeError, ValueError):  # malformed payload
                ok = False
            failed += not ok
        return len(replies), failed, failed == 0

    @staticmethod
    def _options(argv) -> dict:
        opts = {}
        for i, item in enumerate(argv[1:], start=1):
            if item.startswith("--"):
                key, _, value = item[2:].partition("=")
                opts[key] = value or (argv[i + 1] if i + 1 < len(argv) else "")
        return opts

    def _library_value(self, ls, argv):
        """The same computation made by calling the library directly."""
        opts = self._options(argv)
        graph = ls.graphs.WeightedGraph.from_json_file(opts["graph"])
        kernel = ls.graphs.build_kernel(graph)
        alpha = float(opts.get("alpha", 1.0))
        command = argv[0]
        if command == "kernel":
            return kernel
        if command == "sample":
            if opts.get("sampler") == "wilson":
                return ls.soup.wilson_sample(kernel, int(opts["seed"]))[1]
            return ls.soup.direct_sample(kernel, alpha, seed=int(opts["seed"]))
        if command in ("exact-network", "best-count", "mu-network"):
            with open(opts["network"]) as fh:
                net = ls.network.Network.from_json_dict(graph, json.load(fh))
            if command == "best-count":
                return ls.eulerian.best_tour_count(net)
            if command == "mu-network":
                return ls.eulerian.mu_network_measure(kernel, net)
            if alpha == 1.0:
                return ls.eulerian.exact_network_prob_alpha1(kernel, net)
            return ls.eulerian.exact_network_prob_alpha(kernel, net, alpha)
        if command == "genfun":
            u, v = opts["edge"].split(":")
            re, im = (float(p) for p in opts["z"].split(","))
            mod = ls.eulerian.ModifierMatrix.from_edge_value(
                graph.n, graph.index(u), graph.index(v), complex(re, im))
            return ls.eulerian.generating_function(kernel, mod, alpha)
        if command == "jacobian":
            return ls.homology.jacobian_volume(graph)
        if command == "homology-dist":
            basis = ls.homology.cycle_basis(graph)
            return ls.homology.homology_distribution(kernel, basis, alpha, int(opts["grid"]))
        raise ValueError(f"no library route for {command}")

    @staticmethod
    def _agrees(command: str, got: dict, want) -> bool:
        rel = 1e-12
        if command == "kernel":
            return (_close(got["det_i_minus_p"], want.det_i_minus_p, rel)
                    and _close(got["loop_mass"], want.mu_mass, rel)
                    and np.allclose(got["G"], want.G, rtol=rel, atol=0.0)
                    and np.allclose(got["P"], want.P, rtol=rel, atol=0.0))
        if command == "sample":
            return ([loop["vertices"] for loop in got["loops"]]
                    == [list(loop.vertices) for loop in want.loops]
                    and [loop["times"] for loop in got["loops"]]
                    == [list(loop.times) for loop in want.loops]
                    and got["trivial_time"] == list(want.trivial_time))
        if command == "exact-network":
            ok = _close(got["probability"], want, rel)
            if "probability_permutation_route" in got:
                ok = ok and _close(got["probability_permutation_route"], want, 1e-9)
            return ok
        if command == "best-count":
            return got["tour_count"] == want
        if command == "mu-network":
            return _close(got["mu"], want, rel)
        if command == "genfun":
            return _close(complex(*got["value"]), want, rel)
        if command == "jacobian":
            return (_close(got["volume"], want.value, rel)
                    and _close(got["via_intersection"], got["via_trees"], 1e-9))
        if command == "homology-dist":
            table = {tuple(row["class"]): row["p"] for row in got["distribution"]}
            return (got["captured_mass"] >= 0.999 and table.keys() == want.probs.keys()
                    and all(_close(table[k], p, rel) for k, p in want.probs.items()))
        return False


WORKLOADS = {"battery": Battery(), "exact": Exact(), "cli": Cli()}
