"""Workloads, set-up, the timed loop and the output checks of the benchmark.

One process runs one workload as a single closed-loop client: each call
into ``wcontrast`` is issued only after the previous one has returned and
been checked. A pass is one call of every entry in the workload's list;
passes repeat until the next one would overrun ``--seconds`` (at least one
pass always runs). Every timed call gets a seed that no earlier call in the
process used, so ``inference``'s in-process limit cache never answers a
timed call, exactly as for CLI calls, which each start a new process.

The sizes are chosen so that a pass takes a few seconds and a run of
``--seconds 24`` makes several passes: the reported latency is a median
over passes, which a single slow phase of the host does not move.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import yaml

import wcontrast as wc
from wcontrast import cli, harness, inference, limitlaw

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

# two-sample Kolmogorov-Smirnov critical constant c(alpha) at alpha = 1e-3
KS_C_ALPHA = math.sqrt(-math.log(1e-3 / 2.0) / 2.0)
SETUP_REPEATS = 3
RUN_PY = Path(__file__).with_name("run.py")
CHILD_TIMEOUT_S = 120


class SeedSource:
    """Per-call seeds derived from the workload seed, never repeated."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._k = 0
        self._used = set()

    def next(self) -> int:
        while True:
            ss = np.random.SeedSequence([self.seed, self._k])
            self._k += 1
            value = int(ss.generate_state(1, np.uint32)[0])
            if value not in self._used:
                self._used.add(value)
                return value


# ---------------------------------------------------------------------------
# output checks (no check pins draw values or hashes)
# ---------------------------------------------------------------------------

def check_test_json(result: dict):
    """p-value in (0, 1]; critical values finite and increasing."""
    p = result["p_value"]
    if not 0.0 < p <= 1.0:
        return f"p-value {p!r} outside (0, 1]"
    crit = [v for _, v in sorted(result["critical_values"].items(),
                                 key=lambda kv: float(kv[0]))]
    if not crit or not all(math.isfinite(v) for v in crit):
        return f"non-finite critical values {crit}"
    if any(b <= a for a, b in zip(crit, crit[1:])):
        return f"critical values not increasing {crit}"
    return None


def ks_critical(r: int, n_sim: int) -> float:
    return KS_C_ALPHA * math.sqrt((r + n_sim) / (r * n_sim))


def oracle_grid(pair, m: int, delta: float):
    """Trapezoid weights and Var(Bq(u)) on the equispaced clipped grid, the
    two fields ``grid_mean_oracle_E`` reads. The variance comes pointwise
    from ``bridge_cov_kernel``, not from the grid factorization under test."""
    u = np.linspace(delta, 1.0 - delta, m)
    weights = np.full(m, u[1] - u[0])
    weights[0] = weights[-1] = (u[1] - u[0]) / 2.0
    var = np.array([limitlaw.bridge_cov_kernel(pair, np.array([x]))[0, 0] for x in u])
    return SimpleNamespace(weights=weights, var_bridge_diag=np.maximum(var, 0.0))


def run_cli(argv):
    """``wcontrast <argv>`` in-process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:      # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


def _cli_problem(res):
    rc, err = res
    return None if rc == 0 else f"exit code {rc}: {err[-300:]}"


def _pair_spec(x: dict, coupling: dict) -> dict:
    return {"x": x, "coupling": coupling}


# ---------------------------------------------------------------------------
# calls: prepare (untimed) -> run (timed) -> check (untimed)
# ---------------------------------------------------------------------------

class Test:
    """Two-sample test from a data CSV of null-drawn pairs to result JSON:
    ``harness.ingest_csv``, ``inference.two_sample_test`` on an explicit
    grid, JSON out (the ``wcontrast test`` CLI fixes the grid at m = 2047)."""

    kind = "test"

    def __init__(self, label, dist, coupling, cost, n, nsim, m):
        self.label, self.dist, self.coupling, self.cost, self.n, self.nsim, self.m = \
            label, dist, coupling, cost, n, nsim, m

    def prepare(self, d: Path, seeds: SeedSource) -> dict:
        pair = harness.resolve_pair(_pair_spec(self.dist, self.coupling))
        sample = wc.sample_pairs(pair, self.n, seeds.next())
        data = d / f"{self.label}.csv"
        np.savetxt(data, np.column_stack([sample.xs, sample.ys]), delimiter=",",
                   fmt="%.17g", header="x,y", comments="")
        return {"data": data, "pair": pair, "cost": harness.resolve_cost(self.cost),
                "seed": seeds.next(), "out": d / f"{self.label}.json"}

    def run(self, st):
        result = inference.two_sample_test(
            harness.ingest_csv(st["data"]), st["pair"], st["cost"], n_sim=self.nsim,
            seed=st["seed"], grid=(self.m, 1e-4))
        st["out"].write_text(json.dumps(result.to_dict(), indent=2))
        return result

    def check(self, st, res):
        return check_test_json(json.loads(st["out"].read_text()))


class Gof:
    """``gof_test`` against a fully specified null, cold limit simulation."""

    kind = "gof"

    def __init__(self, label, dist, p, n, nsim, grid):
        self.label, self.dist, self.p, self.n, self.nsim, self.grid = \
            label, dist, p, n, nsim, grid

    def prepare(self, d: Path, seeds: SeedSource) -> dict:
        null = wc.builtin_dist(**self.dist)
        rng = np.random.default_rng(seeds.next())
        return {"xs": np.asarray(null.quantile(rng.random(self.n)), dtype=float),
                "null": null, "seed": seeds.next()}

    def run(self, st):
        return inference.gof_test(st["xs"], st["null"], p=self.p, n_sim=self.nsim,
                                  seed=st["seed"], grid=self.grid)

    def check(self, st, res):
        return check_test_json(res.to_dict())


class Power:
    """sigma^2 of N(0,1) vs N(1,1), independent, power(2), through
    ``sigma2_D``; the closed form is 8. ``clt_alternative_distribution``
    makes the same call with its Monte Carlo cross-check fixed at m = 1023;
    ``mc_m`` sets that grid here. ``sigma2_D`` keeps its default seed, as it
    does when ``clt_alternative_distribution`` calls it."""

    kind = "power"
    exact = 8.0

    def __init__(self, label, mc_m, mc_n):
        self.label, self.mc_m, self.mc_n = label, mc_m, mc_n

    def prepare(self, d: Path, seeds: SeedSource) -> dict:
        return {"pair": wc.make_pair(wc.gaussian(), wc.gaussian(1.0), wc.independent()),
                "cost": wc.power_cost(2.0)}

    def run(self, st):
        return limitlaw.sigma2_D(st["pair"], st["cost"], mc_m=self.mc_m, mc_n=self.mc_n)

    def check(self, st, res):
        if not isinstance(res, float) or not abs(res - self.exact) <= 0.02 * self.exact:
            return f"sigma^2 {res!r} not within 2% of {self.exact}"
        return None


def _experiment(seed, theorem, n, reps, n_sim, m, cost, pair, **extra) -> dict:
    return {"seed": seed, "theorem": theorem, "n": n, "replications": reps,
            "n_sim": n_sim, "grid": {"m": m, "delta": 1e-4}, "cost": cost,
            "pair": pair, **extra}


class Simulate:
    """``wcontrast simulate-limit`` of the equal-marginals law, config to CSV."""

    kind = "simulate"

    def __init__(self, label, dist, coupling, cost, m, nsim):
        self.label, self.dist, self.coupling, self.cost, self.m, self.nsim = \
            label, dist, coupling, cost, m, nsim

    def prepare(self, d: Path, seeds: SeedSource) -> dict:
        cfg = _experiment(seeds.next(), "equal", 2000, 1, self.nsim, self.m, self.cost,
                          _pair_spec(self.dist, self.coupling))
        path = d / f"{self.label}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = d / self.label
        return {"argv": ["simulate-limit", "--config", str(path), "--out", str(out)],
                "out": out, "path": path}

    def run(self, st):
        return run_cli(st["argv"])

    def check(self, st, res):
        problem = _cli_problem(res)
        if problem:
            return problem
        values = np.loadtxt(st["out"] / "limit_draws.csv", skiprows=1, ndmin=1)
        if len(values) != self.nsim or not np.all(np.isfinite(values)):
            return f"expected {self.nsim} finite draws, got {len(values)}"
        config = wc.load_config(st["path"])
        oracle = limitlaw.grid_mean_oracle_E(
            config.pair, config.cost, oracle_grid(config.pair, self.m, 1e-4))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        if abs(mean - oracle) > 4.0 * se:
            return f"draw mean {mean:.5g} not within 4 se ({se:.3g}) of oracle {oracle:.5g}"
        return None


class Study:
    """``wcontrast study`` from config to ``study.json``."""

    kind = "study"

    def __init__(self, label, config):
        self.label, self.config = label, config

    def prepare(self, d: Path, seeds: SeedSource) -> dict:
        path = d / f"{self.label}.yaml"
        path.write_text(yaml.safe_dump({**self.config, "seed": seeds.next()}))
        out = d / self.label
        return {"argv": ["study", "--config", str(path), "--out", str(out)], "out": out}

    def run(self, st):
        return run_cli(st["argv"])

    def check(self, st, res):
        problem = _cli_problem(res)
        if problem:
            return problem
        summary = json.loads((st["out"] / "study.json").read_text())
        ks = summary["ks_distance"]
        crit = ks_critical(summary["statistics"]["count"], summary["limit_draws"]["count"])
        if not ks < crit:
            return f"KS distance {ks} not below the alpha=1e-3 critical value {crit:.4f}"
        return None


def _power(p):
    return {"family": "power", "p": p}


GAUSS = {"family": "gaussian"}
INDEP = {"kind": "independent"}
BUMP_PAIR = {"x": GAUSS, "warp": {"amplitude": 0.15, "lo": 0.2, "hi": 0.5},
             "coupling": {"kind": "comonotone"}}
BETA_PAIR = _pair_spec({"family": "beta", "a": 2, "b": 2}, INDEP)


def workload_calls(name: str, tiny: bool = False) -> list:
    """The calls of one pass. ``tiny`` shrinks every size; set-up warms up
    on the tiny calls, and the determinism check and the self-test run them."""
    n = 200 if tiny else 2000
    nsim = 200 if tiny else 5000
    m = 63 if tiny else 511
    copula = {"kind": "gaussian", "rho": 0.5}
    if name == "infer-structured":
        return [
            Test("test-gauss-p1.5", GAUSS, INDEP, _power(1.5), n, nsim, m),
            Test("test-weibull-p2", {"family": "weibull", "shape": 3.0}, INDEP,
                 _power(2), n, nsim, m),
            Gof("gof-gauss-p1.5", GAUSS, 1.5, n, nsim, (m, 1e-4)),
            # coarser cross-check grids bias the simulated sigma^2 past 2%
            Power("power-shift-indep", 127 if tiny else 255,
                  10000 if tiny else 40000),
        ]
    if name == "infer-copula":
        # m = 511: the default-grid (m = 2047) Gaussian-copula test peaks
        # near 6.3 GB RSS, too close to an 8 GB machine
        return [
            Simulate("simulate-copula", GAUSS, copula, _power(1.5), m, nsim),
            Test("test-copula-p1.5", GAUSS, copula, _power(1.5), n, nsim, m),
        ]
    if name == "mc-replicate":
        # Gaussian equal-regime and one-sample studies fail the KS check at
        # m = 255 (KS 0.18 and 0.22), hence Beta(2,2) in (b) and m = 1023 in (c)
        return [
            Study("study-mixed-bump", _experiment(
                0, "mixed", n, 20 if tiny else 150, nsim if tiny else 2000,
                63 if tiny else 255, _power(1), BUMP_PAIR)),
            Study("study-beta-p2.5", _experiment(
                0, "equal", n, 20 if tiny else 150, nsim if tiny else 2000,
                63 if tiny else 255, _power(2.5), BETA_PAIR)),
            Study("study-one-sample", _experiment(
                0, "one_sample", n, 5 if tiny else 20, nsim if tiny else 2000,
                255 if tiny else 1023, _power(1), _pair_spec(GAUSS, INDEP), p=1.0)),
        ]
    raise KeyError(name)


WORKLOADS = ("infer-structured", "infer-copula", "mc-replicate")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, d: Path, seeds: SeedSource, tiny: bool = False):
    """The first pass's input files and samples, then one pass of the tiny
    calls, so that lazy imports and first-call costs land in set-up and
    not in the first timed call. Returns (calls, prepared states)."""
    calls = workload_calls(workload, tiny)
    d.mkdir(parents=True)
    states = [c.prepare(d, seeds) for c in calls]
    warm = d / "warm-up"
    for call in workload_calls(workload, tiny=True):
        (warm / call.label).mkdir(parents=True)
        call.run(call.prepare(warm / call.label, seeds))
    return calls, states


def time_set_up(workload: str, seed: int, work: Path, repeats: int, tiny: bool):
    """Median over ``repeats`` fresh processes of the time from the start of
    ``import wcontrast`` to the end of ``set_up``, each timed inside its
    own process so interpreter start-up is left out."""
    times = []
    for i in range(repeats):
        cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--set-up-only", str(work / f"set-up-{i}")] + \
            (["--tiny"] if tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exit {proc.returncode}: {proc.stderr[-300:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def _timed_call(call, st, tracer):
    """Run one call; returns (seconds, output or None, error text or None)."""
    if tracer is not None:
        tracer.begin_op(call.kind)
    t0 = time.perf_counter()
    try:
        out, err = call.run(st), None
    except Exception as exc:      # a raising call is a failed op, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return dt, out, err


def timed_loop(calls, first_states, seconds, work: Path, seeds, tracer=None):
    """Closed-loop passes until the next one would overrun ``seconds``.
    Returns (records, number of passes); a record is
    (kind, label, seconds, problem or None)."""
    records, passes = [], 0
    states = first_states
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for call, st in zip(calls, states):
            dt, out, err = _timed_call(call, st, tracer)
            problem = err
            if problem is None:
                try:
                    problem = call.check(st, out)
                except Exception as exc:   # unreadable or malformed output
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            records.append((call.kind, call.label, dt, problem))
        passes += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            return records, passes
        d = work / f"pass{passes}"
        d.mkdir()
        states = [c.prepare(d, seeds) for c in calls]


def pass_latency(records) -> float:
    """Latency of one pass: the sum over the pass's calls of each call's
    median latency over the run's passes."""
    by_label = {}
    for _, label, dt, _ in records:
        by_label.setdefault(label, []).append(dt)
    return sum(statistics.median(times) for times in by_label.values())


# ---------------------------------------------------------------------------
# determinism: the same calls twice, each in a fresh process
# ---------------------------------------------------------------------------

def determinism_check(workload: str, seed: int, work: Path):
    """Two fresh processes run the workload's tiny calls with the same
    seeds; their outputs must match byte for byte apart from timing fields.
    Returns a list of (call label, problem or None)."""
    outs = [work / "det-a", work / "det-b"]
    cmd = [sys.executable, str(Path(__file__).with_name("determinism.py")),
           "--workload", workload, "--seed", str(seed)]
    procs = [subprocess.Popen(cmd + ["--out", str(o)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for o in outs]
    errors = []
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                errors.append(f"determinism child exit {proc.returncode}: {err[-300:]}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    from determinism import compare_outputs
    labels = [c.label for c in workload_calls(workload, tiny=True)]
    if errors:
        return [(k, errors[0]) for k in labels]
    return [(k, compare_outputs(outs[0] / k, outs[1] / k)) for k in labels]


# ---------------------------------------------------------------------------
# machine fingerprint
# ---------------------------------------------------------------------------

def fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    mem_kb = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem_kb = int(line.split()[1])
                break
    blas = {}
    with contextlib.suppress(Exception):   # show_config's layout varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "mem_gb": round(mem_kb / 2 ** 20, 1) if mem_kb else None,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        log=print) -> dict:
    """Set up, run the timed loop and the determinism check; return the
    result object (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    seeds = SeedSource(seed)
    work = WORK_ROOT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = None if trace else time_set_up(
            workload, seed, work, 1 if tiny else SETUP_REPEATS, tiny)
        calls, states = set_up(workload, work / "set-up", seeds, tiny)

        tracer = uninstall = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        try:
            records, passes = timed_loop(calls, states, seconds, work, seeds, tracer)
        finally:
            if uninstall is not None:
                uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        det = determinism_check(workload, seeds.next(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(label, p) for _, label, _, p in records if p] + \
        [(f"determinism:{kind}", p) for kind, p in det if p]
    attempted = len(records) + len(det)
    for label, problem in failures:
        print(f"FAILED {label}: {problem}", file=sys.stderr)

    by_kind = {}
    for kind, _, dt, _ in records:
        by_kind.setdefault(kind, []).append(dt)
    log(f"workload {workload} seed {seed}: {passes} pass(es), "
        f"{len(records)} timed calls, closed loop, 1 client")
    for kind, times in by_kind.items():
        log(f"  {kind}_s median {statistics.median(times):.4f} s (n={len(times)})")
    log(f"  failed_ops_frac {len(failures) / attempted:.4g} "
        f"({len(failures)}/{attempted}, determinism ops {len(det)})")
    log(f"  fingerprint {json.dumps(fingerprint(), sort_keys=True)}")

    if trace:
        metrics = tracing.layer_metrics(tracer, records, passes, pass_latency(records),
                                        failed_frac=len(failures) / attempted)
        path = tracer.write(WORK_ROOT / "traces" / f"{workload}-seed{seed}.json",
                            workload=workload, seed=seed)
        log(f"  spans written to {path}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_latency(records), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
