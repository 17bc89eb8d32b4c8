"""Command-line laboratory.

Every subcommand reads a graph file, runs one computation or verification,
and emits a JSON (or CSV) report that embeds the resolved configuration and
the convention flags.  Exit status: 0 on success, 2 when a statistical gate
fails, 1 on usage or input errors.

Only `errors`, `reports` and `rng` load with this module.  Handlers reach
the rest as `ls.<module>.<name>`, and the lazy package imports a module on
its first such access, so a shell call loads only what its command uses.
A plain argument list is read straight from the command table; the argparse
tree is built only for help, --version and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

import loopsoup as ls

from .errors import BadGraph, BadIntensity, BadReplicaCount, LoopSoupError, _check_tail_cut
from .reports import CONVENTIONS, DEFAULT_REPLICAS, DEFAULT_SEED, Z_GATE, TestReport
from .rng import TAIL_CUT, _check_count


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the report contract
    reserves 2 for statistical failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _options(name: str) -> list:
    """Command `name`'s options, each `(flag, add_argument keywords)`."""
    _, _, graph, options = _COMMANDS[name]
    return ([_GRAPH] if graph else []) + [_OUT, _FORMAT, *options]


def _build_parser() -> _Parser:
    """The whole argument tree: every command as a branch of `loopsoup`."""
    parser = _Parser(prog="loopsoup", description=__doc__)
    parser.add_argument("--version", action="version", version=f"loopsoup {ls.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        branch = sub.add_parser(name, help=help_text)
        for flag, kwargs in _options(name):
            branch.add_argument(flag, **kwargs)
    return parser


def _read_plain(argv: list) -> argparse.Namespace | None:
    """argv read straight from its command's `_options`, or None when the tree
    must decide: an unknown or abbreviated flag, help, a value that starts with
    "-" or is "--", a failed conversion or choice, a missing required option."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict(_options(argv[0]))
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if not eq:
            value = next(rest, "-")  # a flag with no value left reads as "-"
        if flag not in options or value == "--" or not eq and value.startswith("-"):
            return None
        kwargs = options[flag]
        try:  # every occurrence is converted, as argparse converts them
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, kwargs.get("default")))
    return args


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as the whole tree parses it; the tree is built only when
    `_read_plain` leaves the decision to it, so every usage error, help text
    and --version output is the tree's."""
    return _read_plain(argv) or _build_parser().parse_args(argv)


def _parse_vertex_list(raw: str) -> list:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _parse_edge_list(raw: str) -> list:
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ValueError(f"edge {item!r} must look like u:v")
        out.append((parts[0], parts[1]))
    return out


def _read_kernel(path: str):
    """The chain kernel of the graph file at `path`."""
    return ls.graphs.build_kernel(ls.graphs.WeightedGraph.from_json_file(path))


def _load_network(graph, path: str):
    """The network in the file at `path`; BadGraph naming the file."""
    data = ls.graphs._load_json(path, "network")
    try:
        return ls.network.Network.from_json_dict(graph, data)
    except BadGraph as exc:
        raise BadGraph(f"network file {path}: {exc}") from None


def _rescale_gates(report: TestReport, scale: float) -> None:
    """Loosen or tighten every gate by a factor; z-gates are nominally Z_GATE."""
    if scale == 1.0:
        return
    for line in report.lines:
        if line.z is not None:
            line.passed = abs(line.z) <= Z_GATE * scale
        elif line.stderr is None and line.lhs != line.rhs:
            line.rhs = line.rhs * scale
            line.passed = line.lhs <= line.rhs


def _soup_payload(soup) -> dict:
    return {
        "alpha": soup.alpha,
        "loops": [
            {"vertices": list(l.vertices), "times": list(l.times)} for l in soup.loops
        ],
        "trivial_time": list(soup.trivial_time),
        "meta": dict(soup.meta),
    }


# ---------------------------------------------------------------- subcommands

def _cmd_kernel(args) -> tuple:
    kernel = _read_kernel(args.graph)
    result = {
        "vertices": list(kernel.graph.vertices),
        "lambda": kernel.lam.tolist(),
        "P": kernel.P.tolist(),
        "G": kernel.G.tolist(),
        "det_i_minus_p": kernel.det_i_minus_p,
        "loop_mass": kernel.mu_mass,
    }
    return result, None


def _sample_soup(kernel, args):
    """One ensemble from the sampler, intensity, tail cut and seed given."""
    _check_tail_cut(args.epsilon)  # for both samplers, though only direct cuts a tail
    if args.sampler == "wilson":
        if args.alpha != 1.0:
            raise BadIntensity("the wilson sampler is defined at alpha = 1 only")
        return ls.soup.wilson_sample(kernel, args.seed)[1]
    return ls.soup.direct_sample(kernel, args.alpha, eps=args.epsilon, seed=args.seed)


def _cmd_sample(args) -> tuple:
    kernel = _read_kernel(args.graph)
    return _soup_payload(_sample_soup(kernel, args)), None


def _check_z_replicas(replicas) -> None:
    """At least 2 replicas, as a z-line's standard error needs; call before drawing."""
    if _check_count(replicas) < 2:
        raise BadReplicaCount(f"a standard error needs at least 2 replicas, got {replicas}")


def _cmd_occupation(args) -> tuple:
    _check_z_replicas(args.replicas)
    kernel = _read_kernel(args.graph)
    samples = ls.soup.occupation_samples(kernel, args.alpha, args.replicas, args.seed,
                                         eps=args.epsilon)
    report = TestReport(name="occupation-mean", conventions=dict(CONVENTIONS))
    report.meta.update({"alpha": args.alpha, "replicas": args.replicas})
    exact = args.alpha * np.diag(kernel.G)
    for x, name in enumerate(kernel.graph.vertices):
        mean = float(samples[:, x].mean())
        se = float(samples[:, x].std(ddof=1) / np.sqrt(args.replicas))
        report.add_z(f"mean occupation[{name}]", mean, float(exact[x]), se)
    return None, report


def _cmd_jumps(args) -> tuple:
    kernel = _read_kernel(args.graph)
    soup = _sample_soup(kernel, args)
    net = ls.soup.jump_matrix(soup)
    occ = ls.soup.occupation(soup)
    return {
        "network": net.to_json_dict(),
        "total_jumps": net.total,
        "occupation": occ.tolist(),
    }, None


def _cmd_exact_network(args) -> tuple:
    eulerian = ls.eulerian
    kernel = _read_kernel(args.graph)
    net = _load_network(kernel.graph, args.network)
    result = {"counts": net.counts.tolist(), "alpha": args.alpha}
    if args.alpha == 1.0:
        result["probability"] = eulerian.exact_network_prob_alpha1(kernel, net)
        # the alpha = 1 cross-check by the cycle-cover power recurrence; the
        # key keeps the name of the permutation sum it replaced
        if net.total <= eulerian.ALPHA_NETWORK_CAP:
            result["probability_permutation_route"] = eulerian.exact_network_prob_alpha(
                kernel, net, 1.0)
    else:
        result["probability"] = eulerian.exact_network_prob_alpha(kernel, net, args.alpha)
    return result, None


def _cmd_best_count(args) -> tuple:
    kernel = _read_kernel(args.graph)
    net = _load_network(kernel.graph, args.network)
    return {"counts": net.counts.tolist(),
            "tour_count": ls.eulerian.best_tour_count(net)}, None


def _cmd_mu_network(args) -> tuple:
    kernel = _read_kernel(args.graph)
    net = _load_network(kernel.graph, args.network)
    return {"counts": net.counts.tolist(),
            "mu": ls.eulerian.mu_network_measure(kernel, net)}, None


def _cmd_convolution_check(args) -> tuple:
    kernel = _read_kernel(args.graph)
    return None, ls.eulerian.verify_poisson_convolution(kernel, args.delta)


def _cmd_homology_dist(args) -> tuple:
    homology = ls.homology
    kernel = _read_kernel(args.graph)
    basis = homology.cycle_basis(kernel.graph)
    if args.grid == 0:
        law = homology.homology_distribution_auto(kernel, basis, args.alpha)
    else:
        law = homology.homology_distribution(kernel, basis, args.alpha, args.grid)
    table = sorted(law.probs.items())
    return {
        "cycles": [list(e) for e in basis.nontree_edges],
        "grid": law.grid_m,
        "captured_mass": law.captured_mass,
        "symmetry_defect": law.symmetry_defect(),
        "distribution": [{"class": list(k), "p": v} for k, v in table],
    }, None


def _cmd_jacobian(args) -> tuple:
    graph = ls.graphs.WeightedGraph.from_json_file(args.graph)
    vol = ls.homology.jacobian_volume(graph)
    return {
        "volume": vol.value,
        "via_intersection": vol.via_intersection,
        "via_trees": vol.via_trees,
        "tree_weight": vol.tree_weight,
        "degenerate": vol.degenerate,
    }, None


def _cmd_isomorphism(args) -> tuple:
    kernel = _read_kernel(args.graph)
    _check_z_replicas(args.replicas)
    return None, ls.fields.verify_isomorphism(kernel, args.replicas, args.seed)


def _cmd_ray_knight(args) -> tuple:
    kernel = _read_kernel(args.graph)
    _check_z_replicas(args.replicas)
    return None, ls.fields.ray_knight_check(kernel, args.x0, args.rho, args.replicas,
                                            args.seed)


def _cmd_moments(args) -> tuple:
    kernel = _read_kernel(args.graph)
    edges = _parse_edge_list(args.edges)
    points = _parse_vertex_list(args.points)
    if not edges and not points:
        raise ValueError("need at least one of --edges or --points")
    ls.fields._moment_indices(kernel, edges, points)  # bad input fails before the draw
    _check_z_replicas(args.replicas)
    histogram = ls.soup.network_histogram(kernel, args.replicas, args.seed)
    return None, ls.fields.verify_moment_formula(kernel, edges, points, histogram)


def _cmd_det_identity(args) -> tuple:
    kernel = _read_kernel(args.graph)
    chi = ls.fields._checked_chi(kernel, args.chi_scale * kernel.lam)  # before the draw
    _check_z_replicas(args.replicas)
    histogram = ls.soup.network_histogram(kernel, args.replicas, args.seed)
    return None, ls.fields.verify_det_identity(kernel, chi, histogram)


def _cmd_genfun(args) -> tuple:
    kernel = _read_kernel(args.graph)
    edges = _parse_edge_list(args.edge)
    if len(edges) != 1:
        raise ValueError(f"--edge needs exactly one edge u:v, got {args.edge!r}")
    (u, v), = edges
    try:
        re, im = (float(p) for p in args.z.split(","))
    except ValueError:
        raise ValueError(f"--z needs re,im, got {args.z!r}") from None
    mod = ls.eulerian.ModifierMatrix.from_edge_value(
        kernel.n, *kernel.graph.edge_index(u, v), complex(re, im))
    value = ls.eulerian.generating_function(kernel, mod, args.alpha)
    return {"edge": [u, v], "z": [re, im], "alpha": args.alpha,
            "value": [value.real, value.imag]}, None


def _cmd_maxflow(args) -> tuple:
    kernel = _read_kernel(args.graph)
    net = _load_network(kernel.graph, args.network)
    sources = _parse_vertex_list(args.sources)
    sinks = _parse_vertex_list(args.sinks)
    return {"sources": sources, "sinks": sinks,
            "flow": ls.eulerian.max_flow(net, sources, sinks)}, None


def _cmd_verify_all(args) -> tuple:
    if not (np.isfinite(args.gate_scale) and args.gate_scale > 0):
        raise ValueError(f"--gate-scale must be a finite number > 0, got {args.gate_scale}")
    _check_z_replicas(args.replicas)
    reports = ls.verify.run_all(replicas=args.replicas, seed=args.seed)
    for report in reports:
        _rescale_gates(report, args.gate_scale)
    return None, reports


_GRAPH = "--graph", dict(required=True, help="graph JSON file")
_OUT = "--out", dict(default=None, help="write the report here instead of stdout")
_FORMAT = "--format", dict(choices=("json", "csv"), default="json")
_ALPHA = "--alpha", dict(type=float, default=1.0)
_SEED = "--seed", dict(type=int, default=0)
_REPLICAS = "--replicas", dict(type=int, default=20_000)
_EPSILON = "--epsilon", dict(type=float, default=TAIL_CUT)
_SAMPLER = "--sampler", dict(choices=("direct", "wilson"), default="direct")
_NETWORK = "--network", dict(required=True)

# name -> (handler, help, reads --graph, options after --graph/--out/--format)
_COMMANDS = {
    "kernel": (_cmd_kernel,
               "duality weights, transition matrix, Green function, determinant", True, ()),
    "sample": (_cmd_sample, "draw one loop ensemble", True, (
        _ALPHA, _SEED, ("--epsilon", dict(type=float, default=TAIL_CUT, help="length tail cut")),
        _SAMPLER)),
    "occupation": (_cmd_occupation, "Monte Carlo occupation field against its exact mean",
                   True, (_ALPHA, ("--replicas", dict(type=int, default=10_000)), _SEED,
                          _EPSILON)),
    "jumps": (_cmd_jumps, "jump network of one sampled ensemble", True,
              (_ALPHA, _SEED, _EPSILON, _SAMPLER)),
    "exact-network": (_cmd_exact_network, "closed-form probability of one network", True, (
        ("--network", dict(required=True, help="network JSON file")), _ALPHA)),
    "best-count": (_cmd_best_count, "rooted tour count of a balanced network", True,
                   (_NETWORK,)),
    "mu-network": (_cmd_mu_network, "loop-measure weight of a balanced network", True,
                   (_NETWORK,)),
    "convolution-check": (_cmd_convolution_check,
                          "reconstruct the intensity-1 law from the loop measure", True,
                          (("--delta", dict(type=float, default=1e-3, help="mass budget")),)),
    "homology-dist": (_cmd_homology_dist, "law of the homology class", True, (
        _ALPHA,
        ("--grid", dict(type=int, default=64, help="grid points per cycle; 0 = automatic")))),
    "jacobian": (_cmd_jacobian, "torus volume by both routes", True, ()),
    "isomorphism": (_cmd_isomorphism, "occupation field vs squared Gaussian field", True,
                    (_REPLICAS, _SEED)),
    "ray-knight": (_cmd_ray_knight, "stopped local-time identity", True, (
        ("--x0", dict(required=True, help="vertex where the chain starts and stops")),
        ("--rho", dict(type=float, default=1.0)), _REPLICAS, _SEED)),
    "moments": (_cmd_moments, "edge/vertex count moments vs permanent closed form", True, (
        ("--edges", dict(default="", help="comma list of directed edges u:v")),
        ("--points", dict(default="", help="comma list of vertices")), _REPLICAS, _SEED)),
    "det-identity": (_cmd_det_identity, "random-generator determinant identity", True, (
        ("--chi-scale", dict(type=float, default=1.0, help="chi = scale * duality weights")),
        _REPLICAS, _SEED)),
    "genfun": (_cmd_genfun, "edge-count generating functional at one modifier entry", True, (
        ("--edge", dict(required=True, help="edge u:v carrying the modifier value")),
        ("--z", dict(default="0,0", help="modifier value re,im")), _ALPHA)),
    "maxflow": (_cmd_maxflow, "max integer flow between vertex sets in a network", True, (
        _NETWORK, ("--sources", dict(required=True, help="comma list of vertices")),
        ("--sinks", dict(required=True, help="comma list of vertices")))),
    "verify-all": (_cmd_verify_all, "full verification battery", False, (
        ("--replicas", dict(type=int, default=DEFAULT_REPLICAS)),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
        ("--gate-scale", dict(type=float, default=1.0,
                              help="multiply every gate; > 1 loosens, < 1 tightens")))),
}


# ---------------------------------------------------------------- emission

def _csv_text(payload: dict, reports: list | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if reports:  # the lines' own values, not to_dict's: CSV keeps inf and nan
        writer.writerow(["report", "statistic", "lhs", "rhs", "stderr", "z", "pass", "note"])
        for rep in reports:
            for line in rep.lines:
                writer.writerow([rep.name, line.statistic, line.lhs, line.rhs, line.stderr,
                                 line.z, line.passed, line.note])
    else:
        writer.writerow(["key", "value"])
        for key, value in sorted(payload.get("result", {}).items()):
            writer.writerow([key, json.dumps(value)])
    return buf.getvalue()


class _Unwritable(Exception):
    """A value that _json_text leaves to json.dumps."""


_DEPTH_CAP = 32  # deeper nesting, or a reference cycle, is left to json.dumps


def _float_text(value) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _write(value, parts: list, newline: str) -> None:
    """Append the text of `value` to `parts`, its lines indented after `newline`."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is float or kind is np.float64:
        parts.append(_float_text(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            parts.append("{}" if kind is dict else "[]")
            return
        if len(newline) > 2 * _DEPTH_CAP:  # two spaces a level
            raise _Unwritable
        inner = newline + "  "
        separator = "," + inner
        if kind is dict:
            if any(type(key) is not str for key in value):
                raise _Unwritable
            parts.append("{" + inner)
            for key in sorted(value):
                parts.append(_quote(key) + ": ")
                _write(value[key], parts, inner)
                parts.append(separator)
            parts[-1] = newline + "}"
        else:
            parts.append("[" + inner)
            for item in value:
                _write(item, parts, inner)
                parts.append(separator)
            parts[-1] = newline + "]"
    else:
        raise _Unwritable


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte.

    CPython's json takes its pure-Python encoder whenever indent is set,
    which spends about 1.7 times as long as this writer on a CLI report.
    This writer covers what a report holds: dicts with str keys, lists,
    tuples, str, int, float (numpy float64 included), bool and None.
    Anything else, or nesting past _DEPTH_CAP, sends the whole payload to
    json.dumps, which then writes it or raises its own error.
    """
    parts = []
    try:
        _write(payload, parts, "\n")
    except _Unwritable:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "".join(parts)


def _emit(payload: dict, reports: list | None, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        text = _csv_text(payload, reports)
    else:
        text = _json_text(payload) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {k: v for k, v in sorted(vars(args).items())}
    try:
        result, reports = _COMMANDS[args.command][0](args)
    except (LoopSoupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(reports, TestReport):
        reports = [reports]
    payload = {
        "command": args.command,
        "config": config,
        "conventions": dict(CONVENTIONS),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    passed = True
    if reports is not None:
        payload["reports"] = [r.to_dict() for r in reports]
        passed = all(r.passed for r in reports)
        payload["pass"] = passed
    if result is not None:
        payload["result"] = result
    try:
        _emit(payload, reports, args.format, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
