"""Span recording around loopsoup's public functions, from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in every
loopsoup module that binds it (modules import functions by name, e.g.
`from .soup import direct_sample`, so patching only the defining module would
miss those calls) and on the class for methods.  `Tracer.uninstall` puts the
originals back.

Every call is folded into an aggregate keyed by (span name, parent span name):
calls, total seconds and self seconds, where self time is the duration minus
the time covered by direct child spans.  Spans that run once per replica or
per grid point are only aggregated, so memory stays bounded at 100 000
replicas; the others are also kept one by one with start, end and parent id.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict

MODULES = ("graphs", "rng", "soup", "network", "verify", "fields", "eulerian",
           "exact", "homology", "reports", "cli")


def _graph_label(kernel) -> str:
    graph = kernel.graph
    return {(2, 1): "two_point", (3, 3): "triangle"}.get(
        (graph.n, len(graph.edge_pairs)), f"n{graph.n}")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# ---------------------------------------------------------------- result hooks
# Each hook reads a traced call's arguments and result and adds to the
# tracer's named totals.  They run only in traced runs.

def _hist_hook(tr, fn, args, kwargs, result, dur):
    a = _bound(fn, args, kwargs)
    key = f"verify.hist.{_graph_label(a['kernel'])}.{a['sampler']}.a{a['alpha']:g}"
    tr.add(key + ".replicas", a["replicas"])
    tr.add(key + ".seconds", dur)
    tr.add(key + ".distinct_keys", len(result))


def _replicas_hook(name):
    def hook(tr, fn, args, kwargs, result, dur):
        tr.add(name + ".replicas", _bound(fn, args, kwargs)["replicas"])
        tr.add(name + ".seconds", dur)
    return hook


def _soup_hook(tr, fn, args, kwargs, result, dur):
    soup = result[1] if isinstance(result, tuple) else result
    tr.add("soup.samples", 1)
    tr.add("soup.loops", len(soup.loops))
    longest = max((len(loop.vertices) for loop in soup.loops), default=0)
    tr.maximum("soup.max_loop_length", longest)
    if "discarded_mu_mass" in soup.meta:
        tr.add("soup.direct_samples", 1)
        tr.add("soup.discarded_mu_mass_sum", soup.meta["discarded_mu_mass"])


def _enumerate_hook(tr, fn, args, kwargs, result, dur):
    kernel = _bound(fn, args, kwargs)["kernel"]
    n_edges = 2 * len(kernel.graph.edge_pairs)
    top = max(entry.network.total for entry in result)
    tr.add("eulerian.enumerate_eulerian.networks", len(result))
    tr.add("eulerian.enumeration.nonzero_networks", len(result) - 1)
    tr.add("eulerian.enumeration.compositions",
           sum(math.comb(m + n_edges - 1, n_edges - 1) for m in range(1, top + 1)))


def _alpha_permanent_hook(tr, fn, args, kwargs, result, dur):
    tr.add("exact.alpha_permanent.permutations",
           math.factorial(len(_bound(fn, args, kwargs)["a"])))


def _homology_hook(tr, fn, args, kwargs, result, dur):
    a = _bound(fn, args, kwargs)
    tr.add("homology.grid_points", a["grid_m"] ** a["basis"].n)
    tr.add("homology.grid_seconds", dur)


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}"


CHECKS = ("check_geometric_law", "check_negative_binomial", "check_alpha_routes_agree",
          "check_generating_function", "check_isomorphism", "check_ray_knight",
          "check_moment_formula", "check_det_identity", "check_tour_count",
          "check_mu_measure", "check_jacobian_volume", "check_homology_distribution",
          "check_cross_sampler")

# (module, attribute, span name, hot, result hook).  The span name may be a
# function of the call's arguments.  Hot spans are aggregated only.
TARGETS = [
    ("graphs", "build_kernel", "graphs.build_kernel", False, None),
    ("graphs", "WeightedGraph.from_json_file", "graphs.from_json_file", False, None),
    ("graphs", "ChainKernel.length_distribution", "graphs.length_distribution", True, None),
    ("rng", "replica_rng", "rng.replica_rng", True, None),
    ("rng", "replica_map", "rng.replica_map", False, None),
    ("soup", "direct_sample", "soup.direct_sample", True, _soup_hook),
    ("soup", "wilson_sample", "soup.wilson_sample", True, _soup_hook),
    ("soup", "jump_matrix", "soup.jump_matrix", True, None),
    ("soup", "occupation", "soup.occupation", True, None),
    ("network", "Network.__post_init__", "network.Network.validate", True, None),
    ("network", "Network.key", "network.key", True, None),
    ("verify", "run_all", "verify.run_all", False, None),
    ("verify", "network_histogram", "verify.network_histogram", False, _hist_hook),
    *[("verify", name, f"verify.check{i:02d}", False, None)
      for i, name in enumerate(CHECKS, start=1)],
    ("fields", "occupation_samples", "fields.occupation_samples", False,
     _replicas_hook("fields.occupation_samples")),
    ("fields", "ray_knight_check", "fields.ray_knight_check", False,
     _replicas_hook("fields.ray_knight_check")),
    ("fields", "sample_excursion_field", "fields.sample_excursion_field", True, None),
    ("fields", "verify_isomorphism", "fields.verify_isomorphism", False, None),
    ("eulerian", "enumerate_eulerian", "eulerian.enumerate_eulerian", False,
     _enumerate_hook),
    ("eulerian", "verify_poisson_convolution", "eulerian.verify_poisson_convolution",
     False, None),
    ("eulerian", "mu_network_measure", "eulerian.mu_network_measure", True, None),
    ("eulerian", "exact_network_prob_alpha", "eulerian.exact_network_prob_alpha", True,
     None),
    ("eulerian", "generating_function", "eulerian.generating_function", True, None),
    ("exact", "alpha_permanent", "exact.alpha_permanent", False, _alpha_permanent_hook),
    ("exact", "permanent", "exact.permanent", False, None),
    ("exact", "arborescence_count", "exact.arborescence_count", True, None),
    ("homology", "homology_distribution", "homology.homology_distribution", False,
     _homology_hook),
    ("homology", "network_homology_class", "homology.network_homology_class", True, None),
    ("reports", "TestReport.to_dict", "reports.to_dict", False, None),
    ("cli", "main", _cli_name, False, None),
]

# Methods that are only counted, not timed: (module, attribute, counter name).
COUNTED = [
    ("graphs", "ChainKernel.walk_step", "graphs.walk_step.calls"),
    ("reports", "TestReport.add_z", "reports.lines"),
    ("reports", "TestReport.add_bound", "reports.lines"),
    ("reports", "TestReport.add_info", "reports.lines"),
]


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.spans = []  # (id, name, parent id, start, end) of non-hot spans
        self.totals = defaultdict(float)
        self._stack = []  # frames: [name, span id, child seconds]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- named totals, fed by hooks and counters
    def add(self, name: str, value) -> None:
        self.totals[name] += value

    def maximum(self, name: str, value) -> None:
        self.totals[name] = max(self.totals[name], value)

    # -- wrappers
    def _timed(self, fn, name, hot, hook):
        stack, agg, spans, clock = self._stack, self.agg, self.spans, time.perf_counter
        named = callable(name)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if named else name
            if hot:
                sid = -1
            else:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [label, sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                entry = agg[(label, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if not hot:
                    spans.append((sid, label, parent[1] if parent else None, start, end))
            if hook is not None:
                hook(tracer, fn, args, kwargs, result, dur)
            return result

        return wrapper

    def _counted(self, fn, counter):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching
    def _patch(self, ls, module, attr, make):
        mod = getattr(ls, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((owner, meth, raw))
            setattr(owner, meth, new)
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name in ("",) + MODULES:
            holder = getattr(ls, name) if name else ls
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapped)

    def install(self, ls) -> None:
        """Wrap every traced function of the freshly imported package `ls`."""
        for module, attr, name, hot, hook in TARGETS:
            self._patch(ls, module, attr, lambda fn: self._timed(fn, name, hot, hook))
        for module, attr, counter in COUNTED:
            self._patch(ls, module, attr, lambda fn: self._counted(fn, counter))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- read-out
    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds], summed over parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def wrapped_calls(self) -> int:
        return sum(calls for calls, _, _ in self.agg.values())

    def dump(self, path, record: dict) -> None:
        """Write the record, the aggregates and the kept spans as JSON."""
        data = {
            "record": record,
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total,
                 "self_s": self_s}
                for (name, parent), (calls, total, self_s) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "totals": dict(self.totals),
            "spans": [
                {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
                for sid, name, parent, start, end in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------- per-layer metrics

HISTS = ("two_point.wilson.a1", "two_point.direct.a0.5", "two_point.direct.a2",
         "triangle.direct.a1", "triangle.direct.a0.5", "triangle.direct.a2",
         "triangle.wilson.a1")
CLI_COMMANDS = ("kernel", "sample", "exact-network", "best-count", "mu-network",
                "genfun", "jacobian", "homology-dist")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, traced_wall_s: float, scale: float = 1.0) -> list:
    """(name, value, unit, better) for every per-layer metric, per timed pass.

    Seconds are multiplied by `scale`, and rates divided by it, to put them
    in the reference seconds of speed.py.

    Counts computed from returned values rather than timed (enumeration size,
    grid points, permutations, distinct histogram keys) repeat exactly for a
    seed; `COMPUTED` names them.
    """
    spans = tr.by_name()
    tot = tr.totals

    def calls(name):
        return spans[name][0] / passes

    def self_s(name):
        return spans[name][2] / passes * scale

    def rate(name):
        return _ratio(tot[name + ".replicas"], tot[name + ".seconds"] * scale)

    def per_pass(name):
        return tot[name] / passes

    out = [
        ("graphs.build_kernel.calls", calls("graphs.build_kernel"), "count", "lower"),
        ("graphs.build_kernel.self_s", self_s("graphs.build_kernel"), "s", "lower"),
        ("graphs.from_json_file.self_s", self_s("graphs.from_json_file"), "s", "lower"),
        ("graphs.length_distribution.self_s", self_s("graphs.length_distribution"),
         "s", "lower"),
        ("graphs.walk_step.calls", per_pass("graphs.walk_step.calls"), "count", "lower"),
        ("rng.replica_rng.calls", calls("rng.replica_rng"), "count", "lower"),
        ("rng.replica_rng.self_s", self_s("rng.replica_rng"), "s", "lower"),
        ("rng.replica_map.self_s", self_s("rng.replica_map"), "s", "lower"),
        ("soup.direct_sample.calls", calls("soup.direct_sample"), "count", "lower"),
        ("soup.direct_sample.self_s", self_s("soup.direct_sample"), "s", "lower"),
        ("soup.wilson_sample.calls", calls("soup.wilson_sample"), "count", "lower"),
        ("soup.wilson_sample.self_s", self_s("soup.wilson_sample"), "s", "lower"),
        ("soup.jump_matrix.self_s", self_s("soup.jump_matrix"), "s", "lower"),
        ("soup.occupation.self_s", self_s("soup.occupation"), "s", "lower"),
        ("soup.loops_per_replica", _ratio(tot["soup.loops"], tot["soup.samples"]),
         "loops", "lower"),
        ("soup.max_loop_length", tot["soup.max_loop_length"], "jumps", "lower"),
        ("soup.discarded_mu_mass",
         _ratio(tot["soup.discarded_mu_mass_sum"], tot["soup.direct_samples"]),
         "mu", "lower"),
        ("network.Network.constructions", calls("network.Network.validate"), "count",
         "lower"),
        ("network.Network.validate_s", self_s("network.Network.validate"), "s", "lower"),
        ("network.key.self_s", self_s("network.key"), "s", "lower"),
    ]
    for hist in HISTS:
        key = f"verify.hist.{hist}"
        out.append((key + ".replicas_per_s", rate(key), "1/s", "higher"))
        out.append((key + ".distinct_keys", per_pass(key + ".distinct_keys"), "count",
                    "lower"))
    for i in range(1, len(CHECKS) + 1):
        out.append((f"verify.check{i:02d}.self_s", self_s(f"verify.check{i:02d}"), "s",
                    "lower"))
    for name in ("fields.occupation_samples", "fields.ray_knight_check"):
        out.append((name + ".replicas_per_s", rate(name), "1/s", "higher"))
    out += [
        ("fields.sample_excursion_field.self_s", self_s("fields.sample_excursion_field"),
         "s", "lower"),
        ("fields.verify_isomorphism.self_s", self_s("fields.verify_isomorphism"), "s",
         "lower"),
        ("eulerian.enumerate_eulerian.self_s", self_s("eulerian.enumerate_eulerian"), "s",
         "lower"),
        ("eulerian.enumerate_eulerian.networks",
         per_pass("eulerian.enumerate_eulerian.networks"), "count", "higher"),
        ("eulerian.verify_poisson_convolution.self_s",
         self_s("eulerian.verify_poisson_convolution"), "s", "lower"),
        ("eulerian.mu_network_measure.calls", calls("eulerian.mu_network_measure"),
         "count", "lower"),
        ("eulerian.exact_network_prob_alpha.self_s",
         self_s("eulerian.exact_network_prob_alpha"), "s", "lower"),
        ("eulerian.generating_function.calls", calls("eulerian.generating_function"),
         "count", "lower"),
        ("eulerian.generating_function.self_s", self_s("eulerian.generating_function"),
         "s", "lower"),
        ("eulerian.enumeration.compositions",
         per_pass("eulerian.enumeration.compositions"), "count", "lower"),
        ("eulerian.enumeration.yield",
         _ratio(tot["eulerian.enumeration.nonzero_networks"],
                tot["eulerian.enumeration.compositions"]), "ratio", "higher"),
        ("exact.alpha_permanent.self_s", self_s("exact.alpha_permanent"), "s", "lower"),
        ("exact.alpha_permanent.permutations",
         per_pass("exact.alpha_permanent.permutations"), "count", "lower"),
        ("exact.permanent.self_s", self_s("exact.permanent"), "s", "lower"),
        ("exact.arborescence_count.calls", calls("exact.arborescence_count"), "count",
         "lower"),
        ("exact.arborescence_count.self_s", self_s("exact.arborescence_count"), "s",
         "lower"),
        ("homology.homology_distribution.self_s", self_s("homology.homology_distribution"),
         "s", "lower"),
        ("homology.grid_points", per_pass("homology.grid_points"), "count", "lower"),
        ("homology.grid_points_per_s",
         _ratio(tot["homology.grid_points"], tot["homology.grid_seconds"] * scale), "1/s",
         "higher"),
        ("homology.network_homology_class.calls", calls("homology.network_homology_class"),
         "count", "lower"),
        ("homology.network_homology_class.self_s",
         self_s("homology.network_homology_class"), "s", "lower"),
        ("reports.lines", per_pass("reports.lines"), "count", "lower"),
        ("reports.to_dict.self_s", self_s("reports.to_dict"), "s", "lower"),
    ]
    for command in CLI_COMMANDS:
        out.append((f"cli.{command}.self_s", self_s(f"cli.{command}"), "s", "lower"))
    out += [
        ("trace.wall_s", traced_wall_s, "s", "lower"),
        ("trace.wrapped_calls", tr.wrapped_calls() / passes, "count", "lower"),
    ]
    return out


COMPUTED = tuple(
    [f"verify.hist.{hist}.distinct_keys" for hist in HISTS]
    + ["eulerian.enumerate_eulerian.networks", "eulerian.enumeration.compositions",
       "eulerian.enumeration.yield", "exact.alpha_permanent.permutations",
       "homology.grid_points"]
)
