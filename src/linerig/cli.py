"""Command-line interface.

Subcommands: analyze, verify, gen, lines, sample, henneberg, es. Reports go to
standard output as JSON (default) or text tables. Exit codes: 0 success,
1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .connectivity import is_k_connected
from .elekes_sharir import (parse_pair_file, phi, recover_motion, rotation_at,
                            serialize_pair_file)
from .errors import LinerigError
from .graphs import Graph, generate, parse_graph, serialize_graph
from .henneberg import (apply_henneberg, apply_jj, extract_henneberg, extract_jj,
                        steps_from_json, steps_to_json)
from .lines3d import Line, LineConfig, classify_triple, common_plane, common_point, \
    intersection_graph, meet_residual, transversal
from .numeric import (global_rigidity_oracle, line_system_dimension, line_system_jacobian,
                      pair_system_dimension, pair_system_jacobian, rigidity_rank)
from .sampler import gauss_newton_project, sample_congruent_pair, sample_knn, \
    sample_laman_lines_info
from .sparsity import is_redundant, sparsity_rank
from .verify import SUITES


@dataclass
class AnalysisReport:
    """Full combinatorial plus numeric summary of one graph."""

    n: int
    m: int
    sparsity_rank: int
    rigidity_rank: int
    laman: bool
    rigid: bool
    redundant: bool
    three_connected: Optional[bool]
    hendrickson: Optional[bool]
    globally_rigid: Optional[bool]
    seed: int
    trials: int
    tol: float
    rigidity_rank_exact: Optional[int] = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def analyze_graph(G: Graph, seed: int = 0, trials: int = 5, tol: float = 1e-8,
                  exact: bool = False) -> AnalysisReport:
    rank = sparsity_rank(G).rank
    rrank = rigidity_rank(G, trials=trials, seed=seed)
    rigid = rrank == 2 * G.n - 3
    redundant = is_redundant(G)
    three = is_k_connected(G, 3) if G.n >= 4 else None
    # is_hendrickson's own definition, from the two checks already made
    hend = redundant and three if G.n >= 4 else None
    glob = None
    if G.n >= 4 and rigid:
        glob = global_rigidity_oracle(G, trials=trials, seed=seed, tol=tol)
    exact_rank = rigidity_rank(G, trials=trials, seed=seed, exact=True) if exact else None
    return AnalysisReport(
        n=G.n, m=G.m, sparsity_rank=rank, rigidity_rank=rrank,
        laman=G.m == 2 * G.n - 3 and rank == G.m, rigid=rigid, redundant=redundant,
        three_connected=three, hendrickson=hend, globally_rigid=glob,
        seed=seed, trials=trials, tol=tol, rigidity_rank_exact=exact_rank)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _load_graph(path: str) -> Graph:
    text = _read(path)
    fmt = "json" if text.lstrip().startswith("{") else "edge-list"
    return parse_graph(text, fmt)


def _cmd_analyze(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    report = analyze_graph(G, seed=args.seed, trials=args.trials, tol=args.tol,
                           exact=args.exact)
    _emit(report.to_dict(), args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES[args.suite]
    kwargs = {name: getattr(args, name) for name in inspect.signature(suite).parameters}
    rep = suite(**kwargs)
    if args.format == "json":
        _emit(rep.to_dict(), "json")
    else:
        print(f"{rep.name}: {rep.passed}/{rep.total} passed")
        for f in rep.failures:
            print(f"  FAIL {f}")
        for key, val in rep.info.items():
            print(f"  {key}: {val}")
    return 0 if rep.ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    G = generate(args.name, args.params, seed=args.seed)
    print(serialize_graph(G))
    return 0


def _cmd_lines(args: argparse.Namespace) -> int:
    if args.lines_cmd == "graph":
        cfg = LineConfig.from_json(_read(args.config))
        print(serialize_graph(intersection_graph(cfg, args.tol)))
        return 0
    if args.lines_cmd == "meet":
        l1 = Line(*args.coords[:4])
        l2 = Line(*args.coords[4:])
        _emit({"residual": float(meet_residual(l1, l2))}, args.format)
        return 0
    if args.lines_cmd == "common":
        cfg = LineConfig.from_json(_read(args.config))
        point = common_point(cfg, args.tol)
        plane = common_plane(cfg, args.tol)
        _emit({
            "common_point": list(point.point) if point and point.point else None,
            "parallel_family": bool(point.parallel) if point else False,
            "common_plane": [plane.lam, plane.mu, plane.nu] if plane else None,
        }, args.format)
        return 0
    if args.lines_cmd == "classify":
        cfg = LineConfig.from_json(_read(args.config))
        if cfg.n != 3:
            raise LinerigError("classify needs exactly 3 lines")
        tc = classify_triple(cfg[0], cfg[1], cfg[2], args.tol)
        _emit({
            "class": tc.tag,
            "family_dim": tc.family_dim,
            "point": list(tc.point) if tc.point else None,
            "plane": [tc.plane.lam, tc.plane.mu, tc.plane.nu] if tc.plane else None,
        }, args.format)
        return 0
    if args.lines_cmd == "transversal":
        cfg = LineConfig.from_json(_read(args.config))
        if cfg.n != 3:
            raise LinerigError("transversal needs exactly 3 lines")
        line = transversal(cfg[0], cfg[1], cfg[2], args.s, args.tol)
        _emit({"line": [float(v) for v in line.as_tuple()] if line else None}, args.format)
        return 0
    if args.lines_cmd == "dim":
        G = _load_graph(args.graph)
        cfg = LineConfig.from_json(_read(args.config))
        report = line_system_dimension(G, cfg, tol=args.tol)
        payload = report.to_dict()
        if args.dump_jacobian:
            payload["jacobian"] = line_system_jacobian(G, cfg).astype(float).tolist()
        _emit(payload, args.format)
        return 0
    raise LinerigError(f"unknown lines subcommand {args.lines_cmd}")


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.sample_cmd == "laman":
        G = _load_graph(args.graph)
        result = sample_laman_lines_info(G, seed=args.seed)
        print(result.config.to_json())
        return 0
    if args.sample_cmd == "knn":
        cfg = sample_knn(args.n, args.kind, seed=args.seed)
        print(cfg.to_json())
        return 0
    if args.sample_cmd == "pair":
        G = _load_graph(args.graph)
        p, pp = sample_congruent_pair(G, orientation=args.orientation, seed=args.seed)
        print(serialize_pair_file(np.asarray(p), np.asarray(pp)))
        return 0
    if args.sample_cmd == "project":
        G = _load_graph(args.graph)
        cfg = LineConfig.from_json(_read(args.config))
        out = gauss_newton_project(G, cfg, tol=args.tol)
        print(out.to_json())
        return 0
    raise LinerigError(f"unknown sample subcommand {args.sample_cmd}")


def _cmd_henneberg(args: argparse.Namespace) -> int:
    if args.h_cmd in ("extract", "jj-extract"):
        extract = extract_henneberg if args.h_cmd == "extract" else extract_jj
        steps, relabel = extract(_load_graph(args.graph))
        _emit({"steps": json.loads(steps_to_json(steps)), "relabel": relabel}, args.format)
    else:
        apply = apply_henneberg if args.h_cmd == "apply" else apply_jj
        print(serialize_graph(apply(steps_from_json(_read(args.steps)))))
    return 0


def _cmd_es(args: argparse.Namespace) -> int:
    if args.es_cmd == "map":
        p, pp = parse_pair_file(_read(args.pairs))
        print(phi(p, pp).to_json())
        return 0
    if args.es_cmd == "invert":
        cfg = LineConfig.from_json(_read(args.config))
        from .elekes_sharir import from_line
        pairs = [from_line(ln) for ln in cfg.lines]
        print(serialize_pair_file([pr.a for pr in pairs], [pr.b for pr in pairs]))
        return 0
    if args.es_cmd == "rotation":
        x, y, z = args.point
        rot = rotation_at((x, y, z))
        _emit({"center": [rot.center[0], rot.center[1]], "cot_half_angle": float(rot.t),
               "theta": rot.theta}, args.format)
        return 0
    if args.es_cmd == "recover":
        p, pp = parse_pair_file(_read(args.pairs))
        motion = recover_motion(p, pp, orientation=args.orientation, tol=args.tol)
        _emit({"matrix": [list(motion.matrix[0]), list(motion.matrix[1])],
               "translation": list(motion.translation),
               "orientation": motion.orientation}, args.format)
        return 0
    if args.es_cmd == "dim":
        G = _load_graph(args.graph)
        p, pp = parse_pair_file(_read(args.pairs))
        report = pair_system_dimension(G, p, pp, tol=args.tol)
        payload = report.to_dict()
        if args.dump_jacobian:
            payload["jacobian"] = pair_system_jacobian(G, p, pp).astype(float).tolist()
        _emit(payload, args.format)
        return 0
    raise LinerigError(f"unknown es subcommand {args.es_cmd}")


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


# The options that several subcommands share; each leaf names the ones it reads.
_COMMON = {
    "seed": dict(type=int, default=0),
    "tol": dict(type=float, default=1e-8),
    "trials": dict(type=int, default=5),
    "exact": dict(action="store_true", help="confirm ranks in exact arithmetic"),
    "format": dict(choices=("json", "text"), default="json"),
}

# group: (dest naming its chosen leaf, help)
_GROUPS = {
    "lines": ("lines_cmd", "line-configuration geometry"),
    "sample": ("sample_cmd", "randomized samplers"),
    "henneberg": ("h_cmd", "construction sequences"),
    "es": ("es_cmd", "point-pair / line transform"),
}

_ORIENTATION = _arg("--orientation", type=int, choices=(1, -1), default=1)
_DUMP = _arg("--dump-jacobian", action="store_true")

# One row per leaf subcommand: group (None at the top level), name, help, handler,
# its own arguments (a bare name is a plain positional), the common options it reads.
_COMMANDS = (
    (None, "analyze", "full combinatorial + numeric report for a graph file", _cmd_analyze,
     [_arg("graph", help="graph file (JSON or edge list), '-' for stdin")],
     "seed tol trials exact format"),
    (None, "verify", "run a named verification suite", _cmd_verify,
     [_arg("suite", choices=sorted(SUITES)), _arg("--n-max", type=int, default=10),
      _arg("--seeds", type=int, default=50), _arg("--count", type=int, default=20),
      _arg("--per-class", type=int, default=100)], "seed tol trials format"),
    (None, "gen", "emit a named catalog graph as JSON", _cmd_gen,
     ["name", _arg("params", type=int, nargs="*")], "seed"),
    ("lines", "graph", "intersection graph of a configuration", _cmd_lines, ["config"], "tol"),
    ("lines", "meet", "incidence residual of two lines (8 numbers)", _cmd_lines,
     [_arg("coords", type=float, nargs=8)], "format"),
    ("lines", "common", "common point / plane of a configuration", _cmd_lines, ["config"],
     "tol format"),
    ("lines", "classify", "classify a triple of lines", _cmd_lines, ["config"], "tol format"),
    ("lines", "transversal", "line through l3(s) meeting l1 and l2", _cmd_lines,
     ["config", _arg("s", type=float)], "tol format"),
    ("lines", "dim", "local dimension certificate of a graph's incidence system", _cmd_lines,
     ["graph", "config", _DUMP], "tol format"),
    ("sample", "laman", "certified line realization of a Laman graph", _cmd_sample, ["graph"],
     "seed"),
    ("sample", "knn", "complete-graph family configuration", _cmd_sample,
     [_arg("kind", choices=("concurrent", "parallel", "coplanar")), _arg("n", type=int)], "seed"),
    ("sample", "pair", "congruent embedding pair for a graph", _cmd_sample,
     ["graph", _ORIENTATION], "seed"),
    ("sample", "project", "Gauss-Newton projection onto a graph's incidence system", _cmd_sample,
     ["graph", "config"], "tol"),
    ("henneberg", "extract", None, _cmd_henneberg, ["graph"], "format"),
    ("henneberg", "apply", None, _cmd_henneberg, ["steps"], ""),
    ("henneberg", "jj-extract", None, _cmd_henneberg, ["graph"], "format"),
    ("henneberg", "jj-apply", None, _cmd_henneberg, ["steps"], ""),
    ("es", "map", "pair file -> line configuration", _cmd_es, ["pairs"], ""),
    ("es", "invert", "line configuration -> pair file", _cmd_es, ["config"], ""),
    ("es", "rotation", "rotation represented by a 3-space point", _cmd_es,
     [_arg("point", type=float, nargs=3)], "format"),
    ("es", "recover", "rigid motion taking p to p_prime", _cmd_es, ["pairs", _ORIENTATION],
     "tol format"),
    ("es", "dim", "local dimension certificate of the equal-lengths system", _cmd_es,
     ["graph", "pairs", _DUMP], "tol format"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linerig",
                                     description="Rigidity of graphs and line configurations in 3-space")
    parser.add_argument("--version", action="version", version=f"linerig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, help_, handler, arguments, common in _COMMANDS:
        if group is not None and group not in groups:
            dest, group_help = _GROUPS[group]
            groups[group] = sub.add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True)
        # a leaf given no help stays out of its group's listing
        p = groups.get(group, sub).add_parser(name, **({"help": help_} if help_ else {}))
        for spec in arguments:
            names, kwargs = ((spec,), {}) if isinstance(spec, str) else spec
            p.add_argument(*names, **kwargs)
        for option in common.split():
            p.add_argument(f"--{option}", **_COMMON[option])
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (LinerigError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
