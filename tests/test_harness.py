import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import wcontrast as wc
from wcontrast.errors import ValidationError
from wcontrast.harness import ExperimentConfig, ks_2samp, load_config, run_clt_study


def small_config(pair, cost, theorem, seed=314, **kw):
    defaults = dict(n=200, replications=60, seed=seed, grid_m=127,
                    grid_delta=1e-3, n_sim=300)
    defaults.update(kw)
    return ExperimentConfig(pair=pair, cost=cost, theorem=theorem, **defaults)


def test_study_deterministic_across_runs(gauss_equal_pair, tmp_path):
    config = small_config(gauss_equal_pair, wc.power_cost(1.5), "equal")
    r1 = run_clt_study(config)
    r2 = run_clt_study(config)
    assert np.array_equal(r1.statistics, r2.statistics)
    assert np.array_equal(r1.draws.values, r2.draws.values)

    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    wc.emit_study(r1, out1)
    wc.emit_study(r2, out2)
    assert (out1 / "statistics.csv").read_bytes() == (out2 / "statistics.csv").read_bytes()


def test_degenerate_comonotone_study():
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    config = small_config(pair, wc.power_cost(1.5), "equal")
    res = run_clt_study(config)
    assert np.all(res.statistics == 0.0)
    assert np.all(res.draws.values == 0.0)
    assert res.ks_distance == 0.0


def _ks_cases():
    rng = np.random.default_rng(8)
    yield rng.standard_normal(150), rng.standard_normal(2000)       # a study's sizes
    yield rng.standard_normal(300), 0.3 + rng.standard_normal(300)
    yield np.round(rng.standard_normal(500)), np.round(rng.standard_normal(70))  # ties
    yield rng.integers(0, 4, 41).astype(float), rng.integers(1, 5, 1000).astype(float)
    yield rng.standard_normal(12_000), rng.standard_normal(300)     # past scipy's exact sizes
    yield np.array([2.0]), np.array([-1.0, 3.0])
    yield np.zeros(60), np.zeros(300)                              # the degenerate study
    yield np.zeros(60), np.ones(300)
    yield np.zeros(12_000), np.zeros(5)


@pytest.mark.parametrize("a,b", list(_ks_cases()))
def test_ks_2samp_is_scipys_statistic(a, b):
    for x, y in ((a, b), (b, a)):
        got = ks_2samp(x, y).statistic
        want = stats.ks_2samp(x, y).statistic
        assert got == want and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_degenerate_study_ks_is_scipys():
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    res = run_clt_study(small_config(pair, wc.power_cost(1.5), "equal"))
    assert res.ks_distance == stats.ks_2samp(res.statistics, res.draws.values).statistic == 0.0


def test_study_summary_embeds_config(gauss_equal_pair, tmp_path):
    config = small_config(gauss_equal_pair, wc.power_cost(1.5), "equal")
    res = run_clt_study(config)
    paths = wc.emit_study(res, tmp_path)
    summary = json.loads(Path(paths["summary"]).read_text())
    assert summary["config"]["n"] == 200
    assert summary["config"]["seed"] == 314
    assert summary["config"]["grid"] == {"m": 127, "delta": 1e-3}
    assert 0.0 <= summary["ks_distance"] <= 1.0
    assert summary["environment"]["numpy"]
    stats_lines = Path(paths["statistics"]).read_text().strip().splitlines()
    assert len(stats_lines) == 1 + config.replications


def test_gaussian_alternative_study(gauss_shift_pair):
    config = small_config(gauss_shift_pair, wc.power_cost(2), "gaussian",
                          n=400, replications=80, n_sim=400)
    res = run_clt_study(config)
    assert res.centering == pytest.approx(1.0, abs=1e-6)
    assert res.config.theorem == "gaussian"
    assert len(res.statistics) == 80


def test_one_sample_study(gauss_equal_pair):
    config = small_config(gauss_equal_pair, wc.power_cost(1), "one_sample",
                          p=1.0, replications=50, n=300)
    res = run_clt_study(config)
    assert np.all(res.statistics >= 0)
    assert res.draws.theorem == "one_sample"


def test_config_validation(gauss_equal_pair):
    with pytest.raises(ValidationError):
        small_config(gauss_equal_pair, wc.power_cost(1.5), "nonsense")
    with pytest.raises(ValidationError):
        small_config(gauss_equal_pair, wc.power_cost(1.5), "equal", n=0)
    with pytest.raises(ValidationError):
        small_config(gauss_equal_pair, wc.power_cost(1.5), "equal",
                     tail_policy="maybe")


def test_ingest_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    s = wc.ingest_csv(path)
    assert s.n == 2
    assert np.array_equal(s.xs, [1.0, 3.0])
    assert np.array_equal(s.ys, [2.0, 4.0])
    assert s.provenance == "ingested"


def test_ingest_csv_header_autodetect(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1.0,2.0\n3.5,-1.25\n")
    s = wc.ingest_csv(path)
    assert s.n == 2
    assert s.xs[1] == 3.5


def test_ingest_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(ValidationError, match="line 2"):
        wc.ingest_csv(path)


def test_ingest_csv_non_numeric(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0\nfoo,4.0\n")
    with pytest.raises(ValidationError, match="line 2"):
        wc.ingest_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_ingest_csv_non_finite(tmp_path, token):
    path = tmp_path / "d.csv"
    path.write_text(f"x,y\n1.0,2.0\n{token},1.0\n")
    with pytest.raises(ValidationError, match="line 3: non-finite"):
        wc.ingest_csv(path)


def test_load_config_roundtrip(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "seed: 5\nn: 100\nreplications: 10\ntheorem: equal\nn_sim: 50\n"
        "grid: {m: 65, delta: 1.0e-3}\n"
        "cost: {family: power, p: 1.5}\n"
        "pair:\n  x: {family: gaussian}\n"
    )
    config = load_config(cfg)
    assert config.n == 100
    assert config.grid_m == 65
    assert config.pair.partition.is_all_E
    assert config.cost.b_minus == 1.5
    config2 = load_config(cfg, seed_override=42)
    assert config2.seed == 42


def test_load_config_warp_pair(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "seed: 5\nn: 100\ntheorem: mixed\n"
        "cost: {family: power, p: 1}\n"
        "pair:\n"
        "  x: {family: gaussian}\n"
        "  coupling: {kind: comonotone}\n"
        "  warp: {amplitude: 0.1, lo: 0.3, hi: 0.6}\n"
    )
    config = load_config(cfg)
    labels = config.pair.partition.labels
    assert labels == ("E", "D", "E")
    assert config.pair.coupling.kind == "comonotone"


def test_load_config_requires_seed(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("n: 10\ncost: {family: power, p: 1}\npair:\n  x: {family: gaussian}\n")
    with pytest.raises(ValidationError, match="seed"):
        load_config(cfg)
