"""Spans around calls into wcontrast's public functions, for the traced run.

The traced run replaces each function listed in ``TARGETS`` by a timing
wrapper in every ``wcontrast`` module that binds it: names imported with
``from .limitlaw import build_bridge_grid`` are looked up in the caller's
namespace, so ``harness``, ``inference`` and ``limitlaw`` itself each get the
wrapper. ``iter_bridge_paths`` is a generator; each block it yields is one
span. Spans are recorded only inside a timed call (an op) and are kept in
memory as (name, start, end, parent, op) until the run ends.

A layer's time (``.s``) sums its outermost spans; its self time
(``.self_s``) is span time minus the time of the spans directly inside it.
Counts marked ``computed.`` are derived from array sizes, not measured.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Gauss-Legendre nodes per point in distributions.bvn_cdf
BVN_NODES = 64

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, nested]
        self._stack = []     # indices of the open spans
        self.op = None
        self.n_ops = 0
        self.counts = Counter()
        self.overhead_s = 0.0

    def open(self, name: str) -> int:
        stack = self._stack
        nested = any(self.spans[i][0] == name for i in stack)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, nested])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, idx: int, start: float, end: float) -> None:
        span = self.spans[idx]
        span[1], span[2] = start, end
        self._stack.pop()

    def begin_op(self, kind: str) -> None:
        self.op = self.n_ops
        self.n_ops += 1
        self._op_span = self.open(f"op.{kind}")
        self._op_start = _perf()

    def end_op(self) -> None:
        self.close(self._op_span, self._op_start, _perf())
        self.op = None

    def write(self, path: Path, **meta) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
                for s in self.spans]
        path.write_text(json.dumps({**meta, "fields": ["name", "start", "end",
                                                       "parent", "op"],
                                    "spans": rows}))
        return path


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        t0 = _perf()
        idx = tracer.open(name)
        t1 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = _perf()
            tracer.close(idx, t1, t2)
        if after is not None:
            after(tracer, tracer.spans[idx], args, kwargs, result)
        tracer.overhead_s += (t1 - t0) + (_perf() - t2)
        return result
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if tracer.op is None:
            yield from gen
            return
        while True:
            t0 = _perf()
            idx = tracer.open(name)
            t1 = _perf()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t2 = _perf()
                tracer.close(idx, t1, t2)
            if after is not None:
                after(tracer, item)
            tracer.overhead_s += (t1 - t0) + (_perf() - t2)
            yield item
    return traced


# -- counts taken at the layer boundaries ---------------------------------

def _after_grid(tracer, span, args, kwargs, grid):
    two_m = 2 * grid.m
    c = tracer.counts
    c["computed.cholesky_flops"] += two_m ** 3 / 3.0
    c["computed.frobenius_flops"] += 2.0 * two_m ** 3
    # covariance, factor and the factor @ factor.T check, float64
    c["computed.grid_bytes"] += 3 * 8 * two_m ** 2


def _after_paths(tracer, item):
    bx = item[0]
    m, k = bx.shape
    tracer.counts["paths"] += k
    tracer.counts["computed.path_matmul_flops"] += 2.0 * (2 * m) ** 2 * k


def _after_copula(tracer, span, args, kwargs, result):
    coupling, u, v = args[:3]
    points = np.broadcast(np.asarray(u), np.asarray(v)).size
    tracer.counts["copula_evals"] += points
    if coupling.kind == "gaussian":
        tracer.counts["computed.bvn_cdf_evals"] += BVN_NODES * points


def _after_check(tracer, span, args, kwargs, report):
    if not span[5]:
        tracer.counts[f"verdict.{report.verdict}"] += 1


def _after_study(tracer, span, args, kwargs, result):
    tracer.counts["replications"] += result.config.replications


# (span name, module, attribute, generator?, count hook)
def _targets():
    from wcontrast import (assumptions, cli, distributions, estimator, harness,
                           inference, limitlaw, seeding, tails)
    checks = ("check_fg", "check_cfg_e", "check_cfg_d", "check_cfg_ed",
              "check_compact", "check_w2_hypotheses", "check_pareto_dominance")
    bounds = ("truncated_tail_bound_E", "truncated_tail_bound_W2",
              "truncated_tail_bound_one_sample", "truncated_tail_bound_ED")
    draws = ("draw_limit_E", "draw_limit_W2", "draw_limit_ED", "draw_limit_one_sample")
    return (
        [("cli", cli, "main", False, None),
         ("harness.ingest_csv", harness, "ingest_csv", False, None),
         ("harness.emit", harness, "emit_study", False, None),
         ("harness.emit", harness, "emit_limit_draws", False, None),
         ("harness.run_clt_study", harness, "run_clt_study", False, _after_study),
         ("inference.two_sample_test", inference, "two_sample_test", False, None),
         ("inference.gof_test", inference, "gof_test", False, None),
         ("inference.clt_alternative_distribution", inference,
          "clt_alternative_distribution", False, None),
         ("inference.wp_distance_to_dist", inference, "wp_distance_to_dist", False, None),
         ("limitlaw.build_bridge_grid", limitlaw, "build_bridge_grid", False, _after_grid),
         ("limitlaw.paths", limitlaw, "iter_bridge_paths", True, _after_paths),
         ("limitlaw.sigma2_D", limitlaw, "sigma2_D", False, None),
         ("limitlaw.bridge_cov_kernel", limitlaw, "bridge_cov_kernel", False, None),
         ("distributions.sample_pairs", distributions, "sample_pairs", False, None),
         ("distributions.copula", distributions.CouplingSpec, "copula", False,
          _after_copula),
         ("seeding.derive_rng", seeding, "derive_rng", False, None),
         ("estimator.w_cost_empirical", estimator, "w_cost_empirical", False, None),
         ("estimator.w_cost_population", estimator, "w_cost_population", False, None),
         ("tails.assess_tail", tails, "assess_tail", False, None)]
        + [("limitlaw.draw", limitlaw, a, False, None) for a in draws]
        + [("limitlaw.tail_bound", limitlaw, a, False, None) for a in bounds]
        + [("assumptions.check", assumptions, a, False, _after_check) for a in checks]
    )


def install(tracer: Tracer):
    """Wrap every target wherever a wcontrast module binds it; returns a
    callable that puts the original functions back."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "wcontrast" or name.startswith("wcontrast.")]
    undo = []
    for name, home, attr, generator, after in _targets():
        original = home.__dict__.get(attr)
        if original is None:
            continue
        wrapper = (_wrap_generator if generator else _wrap)(tracer, name, original, after)
        holders = [home] if isinstance(home, type) else modules
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
    return uninstall


# -- per-layer metrics ----------------------------------------------------

CALL_KINDS = ("test", "gof", "power", "simulate", "study")
INFERENCE_API = ("inference.two_sample_test", "inference.gof_test",
                 "inference.clt_alternative_distribution")


def layer_metrics(tracer: Tracer, records, passes: int, pass_s: float,
                  failed_frac: float) -> dict:
    """Per-pass layer totals, self times and counts of one traced run;
    ``pass_s`` is the traced run's pass latency."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _, _, nested) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        if not nested:
            total[name] += end - start
            calls[name] += 1
    c = tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {
        "limitlaw.build_bridge_grid.s": total["limitlaw.build_bridge_grid"],
        "limitlaw.build_bridge_grid.self_s": self_s["limitlaw.build_bridge_grid"],
        "limitlaw.build_bridge_grid.calls": calls["limitlaw.build_bridge_grid"],
        "limitlaw.paths.s": total["limitlaw.paths"],
        "limitlaw.paths.count": c["paths"],
        "limitlaw.paths_per_s": rate(c["paths"], total["limitlaw.paths"]),
        "limitlaw.draw.self_s": self_s["limitlaw.draw"],
        "limitlaw.tail_bound.s": total["limitlaw.tail_bound"],
        "limitlaw.sigma2_D.self_s": self_s["limitlaw.sigma2_D"],
        "limitlaw.bridge_cov_kernel.s": total["limitlaw.bridge_cov_kernel"],
        "distributions.copula.s": total["distributions.copula"],
        "distributions.copula.evals": c["copula_evals"],
        "distributions.sample_pairs.s": total["distributions.sample_pairs"],
        "distributions.sample_pairs.calls": calls["distributions.sample_pairs"],
        "seeding.derive_rng.s": total["seeding.derive_rng"],
        "seeding.derive_rng.calls": calls["seeding.derive_rng"],
        "estimator.w_cost_empirical.s": total["estimator.w_cost_empirical"],
        "estimator.w_cost_population.s": total["estimator.w_cost_population"],
        "inference.wp_distance_to_dist.s": total["inference.wp_distance_to_dist"],
        "inference.wp_distance_to_dist.calls": calls["inference.wp_distance_to_dist"],
        "inference.self_s": sum(self_s[n] for n in INFERENCE_API),
        "assumptions.check.s": total["assumptions.check"],
        "assumptions.check.calls": calls["assumptions.check"],
        "assumptions.verdict.pass": c["verdict.pass"],
        "assumptions.verdict.inconclusive": c["verdict.inconclusive"],
        "assumptions.verdict.fail": c["verdict.fail"],
        "tails.assess_tail.s": total["tails.assess_tail"],
        "tails.assess_tail.calls": calls["tails.assess_tail"],
        "harness.run_clt_study.self_s": self_s["harness.run_clt_study"],
        "harness.replications": c["replications"],
        "harness.replications_per_s": rate(c["replications"],
                                           total["harness.run_clt_study"]),
        "harness.ingest_csv_s": total["harness.ingest_csv"],
        "harness.emit_s": total["harness.emit"],
        "cli.self_s": self_s["cli"],
        "computed.cholesky_flops": c["computed.cholesky_flops"],
        "computed.frobenius_flops": c["computed.frobenius_flops"],
        "computed.path_matmul_flops": c["computed.path_matmul_flops"],
        "computed.grid_bytes": c["computed.grid_bytes"],
        "computed.bvn_cdf_evals": c["computed.bvn_cdf_evals"],
    }
    # per pass; rates are already per second
    values = {k: (v if k.endswith("per_s") else v / passes) for k, v in values.items()}
    for kind in CALL_KINDS:
        times = [dt for k, _, dt, _ in records if k == kind]
        values[f"call.{kind}_s"] = statistics.median(times) if times else 0.0
    values["trace.pass_s"] = pass_s
    values["trace.overhead_per_op_s"] = tracer.overhead_s / max(tracer.n_ops, 1)
    values["failed_ops_frac"] = failed_frac
    return {k: {"value": float(v), "unit": unit_of(k)} for k, v in values.items()}


def unit_of(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_flops", "flop"), ("_bytes", "B"),
                         ("_frac", "ratio"), (".s", "s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"
