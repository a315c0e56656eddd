"""Experiment configuration, Monte Carlo study runner, ingestion, emission.

A study draws R paired samples, computes the scaled contrast statistic per
replication, simulates the corresponding limit law once, and reports the
two-sample Kolmogorov-Smirnov distance between the R statistics and the
simulated draws. ``limitlaw.select_regime`` derives the limit theorem from
the pair and the cost (a ``theorem`` label may be given and must match;
only ``one_sample`` must be named); its checker, rate, centering and draws
come from ``limitlaw.REGIMES``; a one-sample statistic is W_p^p to the X
marginal, p = ``cost.b``. Everything is deterministic given the
master seed: replication i uses a generator derived from (seed, "rep", i)
and the limit draws one stream derived from (seed, "draws"), so each
replication's statistic depends only on the seed and its index.

Replications are sampled in chunks of max(1, 2**16 // n). Each draws its
uniforms from its own stream (``distributions.pair_uniforms``, or the
one-sample U), each marginal's quantile runs once on the chunk's
concatenated uniforms, split between the calling thread and one worker
thread, and each statistic is reduced from its own slice. Quantiles are
pointwise, so the bytes depend on neither the chunk nor the split. A chunk
holds a few arrays of 2**16 doubles (0.5 MB each); the worker lives for
one ``run_clt_study`` call and is joined when it returns or raises.

A YAML config holds only keys that its resolvers read, and each family's
constructor parameters; an unknown or missing key is a ValidationError.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy
import yaml

from . import costs as costs_mod
from . import distributions as dist_mod
from .costs import CostSpec
from .distributions import (CouplingSpec, Partition, PairSpec, bump_warp,
                            pair_uniforms, warped_dist)
from .errors import ValidationError
from .estimator import PairedSample, w_cost_empirical, w_cost_population
from .inference import wp_distance_to_dist
from .limitlaw import DEFAULT_GRID, REGIMES, THEOREM_ONE_SAMPLE, LimitDraws, select_regime
from .seeding import derive_rng

__all__ = [
    "ExperimentConfig",
    "StudyResult",
    "run_clt_study",
    "ingest_csv",
    "emit_study",
    "emit_limit_draws",
    "load_config",
    "read_config",
    "read_yaml",
    "config_cost",
    "resolve_cost",
    "resolve_pair",
]

_RAISE_TAIL_FRAC = 0.05   # tail_policy "raise": largest tail bound / median |draw|
_CHUNK_POINTS = 2 ** 16   # sample points per chunk of replications


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved study description. The seed is mandatory; a theorem of
    None is derived from the pair and the cost."""

    pair: PairSpec
    cost: CostSpec
    theorem: Optional[str]
    n: int
    replications: int
    seed: int
    grid_m: int = DEFAULT_GRID[0]
    grid_delta: float = DEFAULT_GRID[1]
    n_sim: int = 5000
    tail_policy: str = "record"         # "record" | "raise"
    check_policy: str = "require"       # "require" | "override"
    out: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "theorem",
                           select_regime(self.pair, self.cost, self.theorem).label)
        if self.n < 1 or self.replications < 1 or self.n_sim < 1:
            raise ValidationError("n, replications and n_sim must be >= 1")
        if self.seed is None:
            raise ValidationError("a master seed is required (no wall-clock default)")
        if self.tail_policy not in ("record", "raise"):
            raise ValidationError("tail_policy must be 'record' or 'raise'")
        if self.check_policy not in ("require", "override"):
            raise ValidationError("check_policy must be 'require' or 'override'")

    def describe(self) -> dict:
        return {
            "pair": self.pair.fingerprint(),
            "cost": self.cost.name,
            "cost_params": self.cost.params,
            "theorem": self.theorem,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "grid": {"m": self.grid_m, "delta": self.grid_delta},
            "n_sim": self.n_sim,
            "tail_policy": self.tail_policy,
            "check_policy": self.check_policy,
        }

    def limit_draws(self) -> LimitDraws:
        """Draws of the theorem's limit law. Its checker runs once; a verdict
        other than pass raises unless check_policy is "override"."""
        regime = REGIMES[self.theorem]
        regime.gate(self.pair, self.cost, self.check_policy == "override")
        tail_frac = _RAISE_TAIL_FRAC if self.tail_policy == "raise" else None
        return regime.simulate(self.pair, self.cost, (self.grid_m, self.grid_delta),
                               self.n_sim, self.seed, tail_frac)


@dataclass(frozen=True)
class StudyResult:
    statistics: np.ndarray
    draws: LimitDraws
    ks_distance: float
    runtime_seconds: float
    config: ExperimentConfig
    centering: float
    environment: dict

    def summary(self) -> dict:
        stats = self.statistics
        return {
            "config": self.config.describe(),
            "ks_distance": self.ks_distance,
            "runtime_seconds": self.runtime_seconds,
            "centering": self.centering,
            "statistics": {
                "count": int(len(stats)),
                "mean": float(np.mean(stats)),
                "std": _sample_std(stats),
                "quantiles": {q: float(np.quantile(stats, q))
                              for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
            },
            "limit_draws": {
                "count": int(self.draws.n_sim),
                "mean": float(np.mean(self.draws.values)),
                "std": _sample_std(self.draws.values),
                "tail_bound": self.draws.tail_bound,
                "theorem": self.draws.theorem,
                "grid": self.draws.grid_meta,
            },
            "environment": self.environment,
        }


def _sample_std(values: np.ndarray) -> float:
    # one value has no spread to estimate: 0.0, not numpy's nan (invalid JSON)
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _environment_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class KSDistance(NamedTuple):
    statistic: float


# scipy's ks_2samp computes exact p-values, and so rounds the statistic to a
# multiple of 1/lcm(n1, n2), while neither sample is larger than this
_KS_EXACT_MAX_N = 10000


def ks_2samp(a, b) -> KSDistance:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| between the
    empirical c.d.f.s, equal to ``scipy.stats.ks_2samp(a, b).statistic``:
    both c.d.f.s are read at every pooled point by ``searchsorted``, and
    for samples of at most 10^4 points the distance is rounded to the
    nearest multiple of 1/lcm(n_a, n_b), as scipy's default method does.
    """
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    diffs = (np.searchsorted(a, pooled, side="right") / n1
             - np.searchsorted(b, pooled, side="right") / n2)
    below, above = float(np.clip(-diffs.min(), 0, 1)), float(diffs.max())
    d = below if below > above else above
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return KSDistance(np.float64(d))


def derive_seed_int(seed: int, index: int) -> int:
    # per-replication sampling seed; pair_uniforms derives its own stream from it
    return int(derive_rng(seed, "rep", index).integers(0, 2 ** 62))


def _uniforms(config: ExperimentConfig, index: int) -> tuple:
    """Replication ``index``'s uniforms: (U, V) of its paired sample, or the
    one-sample U."""
    if config.theorem == THEOREM_ONE_SAMPLE:
        return (derive_rng(config.seed, "rep", index).random(config.n),)
    return pair_uniforms(config.pair, config.n, derive_seed_int(config.seed, index))


def _quantiles(worker: ThreadPoolExecutor, dists: tuple, uniforms: list) -> list:
    """Each marginal's quantile at its uniforms: the first half of every
    array on the worker, the rest on this thread (the special functions
    release the GIL). Quantiles are pointwise, so the split leaves the
    values as they are."""
    half = len(uniforms[0]) // 2

    def evaluate(lo, hi):
        return [np.asarray(dist.quantile(u[lo:hi]), dtype=float)
                for dist, u in zip(dists, uniforms)]

    pending = worker.submit(evaluate, 0, half) if half else None
    rest = evaluate(half, None)
    if pending is None:
        return rest
    return [np.concatenate(parts) for parts in zip(pending.result(), rest)]


def _replication_statistics(config: ExperimentConfig, scale: float,
                            centering: float) -> np.ndarray:
    """``scale * (w - centering)`` for each replication, where w is the
    contrast of its paired sample, or the one-sample W_p^p distance, in
    chunks of about ``_CHUNK_POINTS`` sample points (see the module notes).
    """
    n, reps = config.n, config.replications
    per_chunk = max(1, _CHUNK_POINTS // n)
    one_sample = config.theorem == THEOREM_ONE_SAMPLE
    pair = config.pair
    dists = (pair.dist_x,) if one_sample else (pair.dist_x, pair.dist_y)
    out = np.empty(reps)
    with ThreadPoolExecutor(max_workers=1) as worker:
        for start in range(0, reps, per_chunk):
            chunk = range(start, min(start + per_chunk, reps))
            uniforms = [np.concatenate(us) for us in zip(*(_uniforms(config, i) for i in chunk))]
            values = _quantiles(worker, dists, uniforms)
            for j, i in enumerate(chunk):
                part = [v[j * n:(j + 1) * n] for v in values]
                if one_sample:
                    w = wp_distance_to_dist(part[0], pair.dist_x, config.cost.b)
                else:
                    w = w_cost_empirical(PairedSample(*part, provenance="simulated"),
                                         config.cost)
                out[i] = scale * (w - centering)
    return out


def run_clt_study(config: ExperimentConfig) -> StudyResult:
    """R scaled replications vs one simulated limit; deterministic given the
    master seed. The theorem's checker runs once, per ``check_policy``;
    truncation bounds are recorded (or enforced) per ``tail_policy``. The
    statistic is scaled by the theorem's rate and, for the sqrt(n)
    theorems, centred at W(F, G).
    """
    t_start = time.perf_counter()
    draws = config.limit_draws()

    regime = REGIMES[config.theorem]
    scale = regime.rate(config.n, config.cost)
    centering = 0.0
    if regime.centred:
        centering = w_cost_population(config.pair, config.cost).total
    statistics = _replication_statistics(config, scale, centering)

    if np.all(statistics == statistics[0]) and np.all(draws.values == draws.values[0]) \
            and statistics[0] == draws.values[0]:
        ks = 0.0   # both collections degenerate at the same atom
    else:
        ks = float(ks_2samp(statistics, draws.values).statistic)
    runtime = time.perf_counter() - t_start
    return StudyResult(
        statistics=statistics,
        draws=draws,
        ks_distance=ks,
        runtime_seconds=runtime,
        config=config,
        centering=centering,
        environment=_environment_fingerprint(),
    )


# ---------------------------------------------------------------------------
# ingestion and emission
# ---------------------------------------------------------------------------

def ingest_csv(path) -> PairedSample:
    """Two-column CSV (x,y per row, '.' decimal separator); a header row is
    auto-detected when its first row is non-numeric. Malformed rows and
    non-finite values (nan, inf) fail with their line number.
    """
    xs, ys = [], []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read the data: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                if lineno == 1 and not xs:
                    continue    # header
                raise ValidationError(
                    f"{path}: line {lineno}: could not parse {row!r} as two numbers"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValidationError(f"{path}: line {lineno}: non-finite value in {row!r}")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise ValidationError(f"{path}: no data rows")
    return PairedSample(np.asarray(xs), np.asarray(ys), provenance="ingested")


def emit_limit_draws(draws: LimitDraws, out_dir, stem: str = "limit_draws") -> dict:
    """One-column CSV of draw values plus a JSON metadata sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in draws.values:
            writer.writerow([f"{v:.17g}"])
    meta = {
        "theorem": draws.theorem,
        "grid": draws.grid_meta,
        "seed": draws.seed,
        "tail_bound": draws.tail_bound,
        "n_sim": draws.n_sim,
    }
    meta_path = out / f"{stem}.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    return {"csv": str(csv_path), "meta": str(meta_path)}


def emit_study(result: StudyResult, out_dir) -> dict:
    """Statistics CSV, limit-draw CSV, and a JSON summary embedding the
    resolved configuration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats_path = out / "statistics.csv"
    with open(stats_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "scaled_statistic"])
        for i, v in enumerate(result.statistics):
            writer.writerow([i, f"{v:.17g}"])
    paths = emit_limit_draws(result.draws, out)
    summary_path = out / "study.json"
    summary_path.write_text(json.dumps(result.summary(), indent=2, sort_keys=True),
                            encoding="utf-8")
    return {"statistics": str(stats_path), "summary": str(summary_path), **paths}


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

# the top-level keys of a config file
CONFIG_KEYS = ("seed", "n", "replications", "theorem", "n_sim", "grid", "cost", "pair",
               "p", "tail_policy", "check_policy", "out")


def _mapping(spec, where: str, required: tuple = (), optional: Optional[tuple] = None
             ) -> dict:
    """``spec`` if it is a mapping that holds every ``required`` key and,
    when ``optional`` is given, no key outside ``required`` and
    ``optional``; else ValidationError naming ``where`` and the key."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{where} must be a mapping; got {spec!r}")
    for key in required:
        if key not in spec:
            raise ValidationError(f"{where} requires the key {key!r}")
    if optional is not None:
        known = required + optional
        for key in spec:
            if key not in known:
                raise ValidationError(f"{where} has the unknown key {key!r}; "
                                      f"it reads {', '.join(known)}")
    return spec


def read_yaml(path) -> dict:
    """The mapping in a YAML file; a file that cannot be read or parsed, or
    whose document is not a mapping, raises ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ValidationError(f"{path}: cannot read YAML: {exc}") from None
    return _mapping(raw, f"{path}: config")


def read_config(path, required: tuple = ("cost", "pair")) -> dict:
    """A config file's mapping, its keys among ``CONFIG_KEYS`` (and those of
    ``grid`` among m, delta) and every ``required`` key present, else
    ValidationError."""
    raw = _mapping(read_yaml(path), f"{path}: config", required,
                   tuple(k for k in CONFIG_KEYS if k not in required))
    _mapping(raw.get("grid", {}), "grid config", optional=("m", "delta"))
    return raw


def config_cost(raw: dict) -> CostSpec:
    """The cost of a config mapping. A ``p`` beside it restates the
    exponent of the power cost |x|^p (the one-sample statistic is that
    cost's W_p^p contrast) and must equal it."""
    cost = resolve_cost(raw["cost"])
    if "p" in raw and (cost.params.get("family") != "power_p" or raw["p"] != cost.b):
        raise ValidationError(f"config key 'p' restates the exponent of a power cost |x|^p "
                              f"and must equal it; got p = {raw['p']!r} with {cost.name}")
    return cost


def resolve_cost(spec: dict) -> CostSpec:
    params = dict(_mapping(spec, "cost config", ("family",)))
    return costs_mod.builtin_cost(params.pop("family"), **params)


def _resolve_dist(spec: dict) -> dist_mod.DistSpec:
    params = dict(_mapping(spec, "distribution config", ("family",)))
    return dist_mod.builtin_dist(params.pop("family"), **params)


def _resolve_coupling(spec: Optional[dict]) -> CouplingSpec:
    if spec is None:
        return dist_mod.independent()
    kind = _mapping(spec, "coupling config").get("kind", "independent")
    if kind == "gaussian":
        return dist_mod.gaussian_coupling(_mapping(spec, "gaussian coupling", ("rho",),
                                                   ("kind",))["rho"])
    if kind in ("independent", "comonotone"):
        _mapping(spec, f"{kind} coupling", optional=("kind",))
        return CouplingSpec(kind)
    raise ValidationError(f"config coupling kind {kind!r} not supported "
                          "(custom copulas are library-API only)")


def _resolve_partition(spec) -> Optional[Partition]:
    if spec is None:
        return None
    spec = _mapping(spec, "partition config", ("breaks", "labels"), ())
    breaks = tuple(float(b) for b in spec["breaks"])
    labels = tuple(str(lab) for lab in spec["labels"])
    return Partition(breaks, labels)


def resolve_pair(spec: dict) -> PairSpec:
    """The pair of a config: marginal ``x``, and ``y`` or a bump ``warp``
    of x (or neither: an equal pair), with an optional ``partition`` and
    ``coupling``."""
    spec = _mapping(spec, "pair config", ("x",), ("y", "warp", "partition", "coupling"))
    if "y" in spec and "warp" in spec:
        raise ValidationError("pair config takes 'y' or 'warp', not both")
    dist_x = _resolve_dist(spec["x"])
    warp_spec = spec.get("warp")
    if warp_spec is not None:
        warp_spec = _mapping(warp_spec, "warp config", ("amplitude", "lo", "hi"), ())
        lo, hi = float(warp_spec["lo"]), float(warp_spec["hi"])
        warp, dwarp = bump_warp(float(warp_spec["amplitude"]), lo, hi)
        dist_y = warped_dist(dist_x, warp, dwarp, (lo, hi))
        partition = _resolve_partition(spec.get("partition")) or Partition(
            (0.0, lo, hi, 1.0), ("E", "D", "E"))
    elif "y" in spec:
        dist_y = _resolve_dist(spec["y"])
        partition = _resolve_partition(spec.get("partition"))
        if partition is None:
            same = spec["y"] == spec["x"]
            partition = Partition.all_E() if same else Partition.all_D()
    else:
        dist_y = dist_x
        partition = _resolve_partition(spec.get("partition")) or Partition.all_E()
    coupling = _resolve_coupling(spec.get("coupling"))
    return PairSpec(dist_x, dist_y, coupling, partition)


def _integer(key: str) -> Callable:
    """Cast of config key ``key`` to int: ints, integral floats and strings
    that read as either pass; bools, fractions and other strings raise."""
    def cast(value) -> int:
        for parse in (int, float) if isinstance(value, str) else ():
            try:
                value = parse(value)
                break
            except ValueError:
                pass
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValidationError(f"config key {key!r} must be an integer; got {value!r}")
    return cast


def load_config(path, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    """Read a YAML experiment file into a fully resolved configuration."""
    raw = read_config(path, ("n", "cost", "pair"))
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ValidationError("config requires an explicit seed")
    grid = raw.get("grid", {})
    # keys left out of the file keep ExperimentConfig's defaults
    given = {"grid_m": (grid.get("m"), _integer("grid.m")),
             "grid_delta": (grid.get("delta"), float),
             "n_sim": (raw.get("n_sim"), _integer("n_sim")),
             "tail_policy": (raw.get("tail_policy"), str),
             "check_policy": (raw.get("check_policy"), str)}
    return ExperimentConfig(
        pair=resolve_pair(raw["pair"]),
        cost=config_cost(raw),
        theorem=raw.get("theorem"),
        n=_integer("n")(raw["n"]),
        replications=_integer("replications")(raw.get("replications", 1)),
        seed=_integer("seed")(seed),
        out=out_override or raw.get("out"),
        **{key: cast(value) for key, (value, cast) in given.items() if value is not None},
    )
