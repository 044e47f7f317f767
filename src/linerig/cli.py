"""Command-line interface.

Subcommands: analyze, verify, gen, lines, sample, henneberg, es. Reports go to
standard output as JSON (default) or text tables. Exit codes: 0 success,
1 verification failure, 2 usage or parse error. main reads every input file as UTF-8
text (_read) into its _INPUTS reader, so a malformed one is an `error:` line and exit 2.
analyze reads the rigidity rank and the global-rigidity and redundancy verdicts off one
embedding's exact rank and one stress (numeric.rigidity), so it takes no --tol, --exact
or --trials. Hendrickson's theorem orders its two global-rigidity tests: a rigid graph
that is not redundant ranks no stress matrix, and one whose stress matrix proves it
globally rigid runs no 3-connectivity sweep.

The parser comes from one table, _COMMANDS, one row per leaf subcommand; a verify
suite's leaf reads its options off the suite's signature (_suite_options). main parses
a command line that names a leaf with that leaf's parser alone (parse_args), and builds
the tree of every leaf only for any other command line (no leaf named, help, --version,
an unknown command) or to report arguments the leaf does not take.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .connectivity import is_k_connected
from .elekes_sharir import (from_line, parse_pair_file, phi, recover_motion, rotation_at,
                            serialize_pair_file)
from .errors import LinerigError
from .graphs import Graph, generate, parse_graph, serialize_graph
from .henneberg import (apply_henneberg, apply_jj, extract_henneberg, extract_jj,
                        steps_from_json, steps_to_json)
from .lines3d import Line, LineConfig, classify_triple, common_plane, common_point, \
    intersection_graph, meet_residual, transversal_detail
from .numeric import (line_system_dimension, line_system_jacobian, pair_system_dimension,
                      pair_system_jacobian, rigidity)
from .sampler import gauss_newton_project, sample_congruent_pair, sample_knn, \
    sample_laman_lines_info
from .sparsity import sparsity_rank
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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def analyze_graph(G: Graph, seed: int = 0) -> AnalysisReport:
    rank = sparsity_rank(G).rank
    r = rigidity(G, seed)
    # A globally rigid graph on n >= 4 vertices is redundant and 3-connected
    # (Hendrickson, SIAM J. Comput. 21 (1992)): a rigid graph that is not redundant
    # ranks no stress matrix, and the stress matrix's True, a proof, settles the sweep
    glob = r.globally_rigid if r.redundant else (None if r.stress is None else False)
    three = glob or is_k_connected(G, 3) if G.n >= 4 else None
    return AnalysisReport(
        n=G.n, m=G.m, sparsity_rank=rank, rigidity_rank=r.rank,
        laman=G.m == 2 * G.n - 3 and rank == G.m, rigid=r.rank == 2 * G.n - 3,
        redundant=r.redundant, three_connected=three,
        hendrickson=r.redundant and three if G.n >= 4 else None, globally_rigid=glob,
        seed=seed)


def _read(path: str) -> str:
    """An input file's text ('-' is stdin); bytes not UTF-8 raise LinerigError."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise LinerigError(f"{path}: not UTF-8 text: {exc}") from None


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _load_graph(text: str) -> Graph:
    return parse_graph(text, "json" if text.lstrip().startswith("{") else "edge-list")


# Each input file's argument and its text's reader; main loads them for the handler.
_INPUTS = {"graph": _load_graph, "config": LineConfig.from_json, "pairs": parse_pair_file,
           "steps": steps_from_json}


def _cmd_analyze(args: argparse.Namespace) -> None:
    report = analyze_graph(args.graph, seed=args.seed)
    _emit(report.to_dict(), args.format)


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES[args.suite]
    rep = suite(**{name: getattr(args, name) for name in inspect.signature(suite).parameters})
    if args.format == "json":
        _emit(rep.to_dict(), "json")
    else:
        print(f"{rep.name}: {rep.passed}/{rep.total} passed")
        for f in rep.failures:
            print(f"  FAIL {f}")
        for key, val in rep.info.items():
            print(f"  {key}: {val}")
    return 0 if rep.ok else 1


def _cmd_gen(args: argparse.Namespace) -> None:
    print(serialize_graph(generate(args.name, args.params, seed=args.seed)))


def _cmd_lines_graph(args: argparse.Namespace) -> None:
    print(serialize_graph(intersection_graph(args.config, args.tol)))


def _cmd_lines_meet(args: argparse.Namespace) -> None:
    residual = float(meet_residual(Line(*args.coords[:4]), Line(*args.coords[4:])))
    if not math.isfinite(residual):
        raise LinerigError(f"incidence residual overflows to {residual}")
    _emit({"residual": residual}, args.format)


def _cmd_lines_common(args: argparse.Namespace) -> None:
    point = common_point(args.config, args.tol)
    plane = common_plane(args.config, args.tol)
    _emit({
        "common_point": list(point.point) if point and point.point else None,
        "parallel_family": bool(point.parallel) if point else False,
        "common_plane": [plane.lam, plane.mu, plane.nu] if plane else None,
    }, args.format)


def _cmd_lines_classify(args: argparse.Namespace) -> None:
    if args.config.n != 3:
        raise LinerigError("classify needs exactly 3 lines")
    tc = classify_triple(*args.config.lines, args.tol)
    _emit({
        "class": tc.tag,
        "family_dim": tc.family_dim,
        "point": list(tc.point) if tc.point else None,
        "plane": [tc.plane.lam, tc.plane.mu, tc.plane.nu] if tc.plane else None,
    }, args.format)


def _cmd_lines_transversal(args: argparse.Namespace) -> None:
    if args.config.n != 3:
        raise LinerigError("transversal needs exactly 3 lines")
    line, reason = transversal_detail(*args.config.lines, args.s, args.tol)
    _emit({"line": line and [float(v) for v in line.as_tuple()], "reason": reason}, args.format)


def _cmd_lines_dim(args: argparse.Namespace) -> None:
    payload = line_system_dimension(args.graph, args.config, tol=args.tol).to_dict()
    if args.dump_jacobian:
        payload["jacobian"] = line_system_jacobian(args.graph, args.config).astype(float).tolist()
    _emit(payload, args.format)


def _cmd_sample_laman(args: argparse.Namespace) -> None:
    print(sample_laman_lines_info(args.graph, seed=args.seed).config.to_json())


def _cmd_sample_knn(args: argparse.Namespace) -> None:
    print(sample_knn(args.n, args.kind, seed=args.seed).to_json())


def _cmd_sample_pair(args: argparse.Namespace) -> None:
    print(serialize_pair_file(*sample_congruent_pair(args.graph, orientation=args.orientation,
                                                     seed=args.seed)))


def _cmd_sample_project(args: argparse.Namespace) -> None:
    print(gauss_newton_project(args.graph, args.config, tol=args.tol).to_json())


# The henneberg handlers name their library function in the body, so it is looked
# up when the command runs and a wrapper put on this module's attribute sees the call.
def _emit_steps(steps, relabel: list[int], fmt: str) -> None:
    _emit({"steps": json.loads(steps_to_json(steps)), "relabel": relabel}, fmt)


def _cmd_extract(args: argparse.Namespace) -> None:
    _emit_steps(*extract_henneberg(args.graph), args.format)


def _cmd_jj_extract(args: argparse.Namespace) -> None:
    _emit_steps(*extract_jj(args.graph), args.format)


def _cmd_apply(args: argparse.Namespace) -> None:
    print(serialize_graph(apply_henneberg(args.steps)))


def _cmd_jj_apply(args: argparse.Namespace) -> None:
    print(serialize_graph(apply_jj(args.steps)))


def _cmd_es_map(args: argparse.Namespace) -> None:
    print(phi(*args.pairs).to_json())


def _cmd_es_invert(args: argparse.Namespace) -> None:
    print(serialize_pair_file(*zip(*map(from_line, args.config.lines))))


def _cmd_es_rotation(args: argparse.Namespace) -> None:
    rot = rotation_at(tuple(args.point))
    _emit({"center": [rot.center[0], rot.center[1]], "cot_half_angle": float(rot.t),
           "theta": rot.theta}, args.format)


def _cmd_es_recover(args: argparse.Namespace) -> None:
    motion = recover_motion(*args.pairs, orientation=args.orientation, tol=args.tol)
    _emit({"matrix": [list(motion.matrix[0]), list(motion.matrix[1])],
           "translation": list(motion.translation),
           "orientation": motion.orientation}, args.format)


def _cmd_es_dim(args: argparse.Namespace) -> None:
    payload = pair_system_dimension(args.graph, *args.pairs, tol=args.tol).to_dict()
    if args.dump_jacobian:
        payload["jacobian"] = pair_system_jacobian(args.graph, *args.pairs).astype(float).tolist()
    _emit(payload, args.format)


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


def _finite_float(text: str) -> float:
    """A float positional; nan and inf are usage errors, as they have no JSON form."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A --tol value: a finite float above zero."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive: {text!r}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an int of at least 0, as numpy's generators take no other."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer: {text!r}")
    return value


# The options that several subcommands share; each leaf names the ones it reads.
_COMMON = {
    "seed": dict(type=_seed, default=0),
    "tol": dict(type=_tolerance, default=1e-8),
    "format": dict(choices=("json", "text"), default="json"),
}

# group: (dest naming its chosen leaf, help)
_GROUPS = {
    "lines": ("lines_cmd", "line-configuration geometry"),
    "sample": ("sample_cmd", "randomized samplers"),
    "henneberg": ("h_cmd", "construction sequences"),
    "es": ("es_cmd", "point-pair / line transform"),
    "verify": ("suite", "run a named verification suite"),
}

_ORIENTATION = _arg("--orientation", type=int, choices=(1, -1), default=1)
_DUMP = _arg("--dump-jacobian", action="store_true")


def _suite_options(suite) -> list[tuple[tuple[str, ...], dict]]:
    """A verify leaf's options, one per parameter of its suite (n_max is --n-max) with
    the suite's default: an int, or _COMMON's checked type for seed and tol."""
    return [_arg(f"--{name.replace('_', '-')}",
                 **{**_COMMON.get(name, {"type": int}), "default": param.default})
            for name, param in inspect.signature(suite).parameters.items()]


# One row per leaf subcommand: group (None at the top level), name, help, handler,
# its own arguments (a bare name is a plain positional), the common options it reads.
_COMMANDS = (
    (None, "analyze", "full combinatorial + numeric report for a graph file", _cmd_analyze,
     [_arg("graph", help="graph file (JSON or edge list), '-' for stdin")],
     "seed format"),
    *(("verify", name, None, _cmd_verify, _suite_options(suite), "format")
      for name, suite in SUITES.items()),
    (None, "gen", "emit a named catalog graph as JSON", _cmd_gen,
     ["name", _arg("params", type=int, nargs="*")], "seed"),
    ("lines", "graph", "intersection graph of a configuration", _cmd_lines_graph, ["config"],
     "tol"),
    ("lines", "meet", "incidence residual of two lines (8 numbers)", _cmd_lines_meet,
     [_arg("coords", type=_finite_float, nargs=8)], "format"),
    ("lines", "common", "common point / plane of a configuration", _cmd_lines_common,
     ["config"], "tol format"),
    ("lines", "classify", "classify a triple of lines", _cmd_lines_classify, ["config"],
     "tol format"),
    ("lines", "transversal", "line through l3(s) meeting l1 and l2", _cmd_lines_transversal,
     ["config", _arg("s", type=_finite_float)], "tol format"),
    ("lines", "dim", "local dimension certificate of a graph's incidence system",
     _cmd_lines_dim, ["graph", "config", _DUMP], "tol format"),
    ("sample", "laman", "certified line realization of a Laman graph", _cmd_sample_laman,
     ["graph"], "seed"),
    ("sample", "knn", "complete-graph family configuration", _cmd_sample_knn,
     [_arg("kind", choices=("concurrent", "parallel", "coplanar")), _arg("n", type=int)], "seed"),
    ("sample", "pair", "congruent embedding pair for a graph", _cmd_sample_pair,
     ["graph", _ORIENTATION], "seed"),
    ("sample", "project", "Gauss-Newton projection onto a graph's incidence system",
     _cmd_sample_project, ["graph", "config"], "tol"),
    ("henneberg", "extract", None, _cmd_extract, ["graph"], "format"),
    ("henneberg", "apply", None, _cmd_apply, ["steps"], ""),
    ("henneberg", "jj-extract", None, _cmd_jj_extract, ["graph"], "format"),
    ("henneberg", "jj-apply", None, _cmd_jj_apply, ["steps"], ""),
    ("es", "map", "pair file -> line configuration", _cmd_es_map, ["pairs"], ""),
    ("es", "invert", "line configuration -> pair file", _cmd_es_invert, ["config"], ""),
    ("es", "rotation", "rotation represented by a 3-space point", _cmd_es_rotation,
     [_arg("point", type=_finite_float, nargs=3)], "format"),
    ("es", "recover", "rigid motion taking p to p_prime", _cmd_es_recover,
     ["pairs", _ORIENTATION], "tol format"),
    ("es", "dim", "local dimension certificate of the equal-lengths system", _cmd_es_dim,
     ["graph", "pairs", _DUMP], "tol format"),
)


def _add_leaf(p: argparse.ArgumentParser, handler, arguments, common: str) -> None:
    """A leaf's own arguments, the common options it reads and its handler, on p."""
    for spec in arguments:
        names, kwargs = ((spec,), {}) if isinstance(spec, str) else spec
        p.add_argument(*names, **kwargs)
    for option in common.split():
        p.add_argument(f"--{option}", **_COMMON[option])
    p.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every leaf."""
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
        _add_leaf(groups.get(group, sub).add_parser(name, **({"help": help_} if help_ else {})),
                  handler, arguments, common)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), byte for byte. A leaf that argv names (a top-level
    leaf, or a group and one of its leaves) parses the rest alone; the tree is built
    only when none is named or arguments are left, for the top-level usage line."""
    for group, name, _, handler, arguments, common in _COMMANDS:
        words = (group, name) if group else (name,)
        if tuple(argv[:len(words)]) == words:
            leaf = argparse.ArgumentParser(prog=" ".join(("linerig", *words)))
            _add_leaf(leaf, handler, arguments, common)
            leaf.set_defaults(command=words[0], **({_GROUPS[group][0]: name} if group else {}))
            args, rest = leaf.parse_known_args(argv[len(words):])
            if not rest:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for name, load in _INPUTS.items():
            if hasattr(args, name):
                setattr(args, name, load(_read(getattr(args, name))))
        return args.func(args) or 0  # handlers return None on success, verify's 1 on failure
    except (LinerigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
