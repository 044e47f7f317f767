"""Per-layer timing of linerig, taken from outside the library.

The tracer replaces a fixed list of linerig's public functions with timing
wrappers, wherever the function is looked up: its own module, every linerig
module that imported it with ``from .x import y``, the package namespace, and
module-level dicts such as ``verify.SUITES``. Each wrapped call is a span; its
self time is its duration minus the durations of wrapped calls beneath it.
Nothing in the library changes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in a traced run: the layer entry points
# that the per-layer metrics name, plus is_laman, which the extractors call
# for their candidate checks.
WRAPPED = (
    ("cli", "main"),
    ("graphs", "parse_graph"),
    ("sparsity", "sparsity_rank"),
    ("sparsity", "is_laman"),
    ("sparsity", "is_redundant"),
    ("sparsity", "is_hendrickson"),
    ("connectivity", "is_k_connected"),
    ("henneberg", "extract_henneberg"),
    ("henneberg", "extract_jj"),
    ("numeric", "float_rank"),
    ("numeric", "rigidity_rank"),
    ("numeric", "global_rigidity_oracle"),
    ("numeric", "rank_exact"),
    ("numeric", "line_system_dimension"),
    ("numeric", "pair_system_dimension"),
    ("sampler", "gauss_newton_project"),
    ("sampler", "sample_laman_lines_info"),
    ("sampler", "sample_laman_lines_exact"),
    ("lines3d", "common_point"),
    ("lines3d", "common_plane"),
    ("lines3d", "classify_triple"),
    ("lines3d", "transversal"),
    ("elekes_sharir", "phi"),
    ("elekes_sharir", "reflection_at"),
    ("verify", "four_lines"),
    ("verify", "lemma_3lines"),
    ("verify", "lemma_cong"),
)

GN = "sampler.gauss_newton_project"
EXTRACTORS = ("henneberg.extract_henneberg", "henneberg.extract_jj")
CANDIDATE_CHECKS = ("sparsity.is_laman", "sparsity.is_hendrickson")

# Per-layer metrics: (name, unit). Every one is reported per timed operation,
# except certified_per_attempt, a ratio.
PER_LAYER = [
    ("sampler.gauss_newton_project.calls", "calls/op"),
    ("sampler.gauss_newton_project.s", "s/op"),
    ("sampler.gauss_newton_project.failures", "calls/op"),
    ("sampler.gn_iterations", "calls/op"),
    ("sampler.attempts", "attempts/op"),
    ("sampler.certified_per_attempt", "ratio"),
    ("sampler.sample_laman_lines_exact.s", "s/op"),
    ("numeric.float_rank.calls", "calls/op"),
    ("numeric.float_rank.s", "s/op"),
    ("numeric.line_system_dimension.s", "s/op"),
    ("numeric.rigidity_rank.calls", "calls/op"),
    ("numeric.rigidity_rank.s", "s/op"),
    ("numeric.global_rigidity_oracle.s", "s/op"),
    ("numeric.rank_exact.calls", "calls/op"),
    ("numeric.rank_exact.s", "s/op"),
    ("numeric.pair_system_dimension.s", "s/op"),
    ("sparsity.sparsity_rank.calls", "calls/op"),
    ("sparsity.sparsity_rank.s", "s/op"),
    ("sparsity.is_redundant.s", "s/op"),
    ("sparsity.is_hendrickson.s", "s/op"),
    ("connectivity.is_k_connected.calls", "calls/op"),
    ("connectivity.is_k_connected.s", "s/op"),
    ("henneberg.extract_henneberg.s", "s/op"),
    ("henneberg.extract_jj.s", "s/op"),
    ("henneberg.candidate_checks", "calls/op"),
    ("lines3d.common_point.s", "s/op"),
    ("lines3d.common_plane.s", "s/op"),
    ("lines3d.classify_triple.calls", "calls/op"),
    ("lines3d.transversal.s", "s/op"),
    ("elekes_sharir.phi.s", "s/op"),
    ("elekes_sharir.reflection_at.calls", "calls/op"),
    ("verify.four_lines.s", "s/op"),
    ("verify.lemma_3lines.s", "s/op"),
    ("verify.lemma_cong.s", "s/op"),
    ("cli.self_s", "s/op"),
    ("graphs.parse_graph.s", "s/op"),
]


class Tracer:
    """Spans and counts for one traced run; install, run, uninstall, report."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self.gn_iterations = 0
        self.attempts = 0
        self.certified = 0
        self.candidate_checks = 0
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]
        self._patches: list[tuple[object, object, object]] = []  # (holder, key, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if name in CANDIDATE_CHECKS and stack and stack[-1][0] in EXTRACTORS:
                tracer.candidate_checks += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.failures[name] += 1
                if name == "sampler.sample_laman_lines_info":
                    tracer.attempts += len(getattr(exc, "log", ()))
                raise
            else:
                if name == "sampler.sample_laman_lines_info":
                    tracer.attempts += result.attempts
                    tracer.certified += 1
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counting_lstsq(self, fn):
        tracer = self

        def lstsq(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == GN:
                tracer.gn_iterations += 1
            return fn(*args, **kwargs)

        return lstsq

    def _patch(self, holder, key, value) -> None:
        original = holder[key] if isinstance(holder, dict) else getattr(holder, key)
        self._patches.append((holder, key, original))
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "linerig" or name.startswith("linerig."))]
        for mod_name, fn_name in WRAPPED:
            original = getattr(sys.modules[f"linerig.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)
        self._patch(np.linalg, "lstsq", self._counting_lstsq(np.linalg.lstsq))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- report --------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, dict]:
        per_op = 1.0 / ops
        values = {
            "sampler.gauss_newton_project.failures": self.failures[GN] * per_op,
            "sampler.gn_iterations": self.gn_iterations * per_op,
            "sampler.attempts": self.attempts * per_op,
            "sampler.certified_per_attempt":
                self.certified / self.attempts if self.attempts else 0.0,
            "henneberg.candidate_checks": self.candidate_checks * per_op,
            "cli.self_s": self.self_time["cli.main"] * per_op,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = self.calls[name[:-len(".calls")]] * per_op
            else:
                value = self.self_time[name[:-len(".s")]] * per_op
            out[name] = {"value": value, "unit": unit}
        return out

    def spans(self) -> dict[str, dict]:
        """Every wrapped function's calls, total and self seconds, and failures."""
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name], "failures": self.failures[name]}
                for name in sorted(self.calls)}
