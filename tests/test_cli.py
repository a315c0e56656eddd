import json

import numpy as np
import pytest

import wcontrast as wc
from tests.conftest import w1_cdf_distance
from wcontrast import cli
from wcontrast.cli import main
from wcontrast.errors import ValidationError
from wcontrast.harness import ingest_csv


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    xs = rng.normal(size=200)
    ys = rng.normal(size=200)
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(xs, ys)) + "\n")
    return path


@pytest.fixture()
def study_yaml(tmp_path):
    path = tmp_path / "study.yaml"
    path.write_text(
        "seed: 42\nn: 150\nreplications: 40\ntheorem: equal\nn_sim: 200\n"
        "grid: {m: 127, delta: 1.0e-3}\n"
        "cost: {family: power, p: 1.5}\n"
        "pair:\n  x: {family: gaussian}\n"
    )
    return path


@pytest.fixture()
def null_yaml(tmp_path):
    path = tmp_path / "null.yaml"
    path.write_text("pair:\n  x: {family: gaussian}\n")
    return path


def test_estimate_subcommand(data_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = main(["estimate", "--data", str(data_csv),
               "--cost", '{"family": "power", "p": 1}', "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 200
    assert payload["w_cost"] == pytest.approx(payload["w1_cdf_distance"], abs=1e-12)
    oracle = w1_cdf_distance(ingest_csv(str(data_csv)))
    assert payload["w1_cdf_distance"] == pytest.approx(oracle, abs=1e-12)


def test_test_subcommand(data_csv, null_yaml, tmp_path):
    out = tmp_path / "test.json"
    rc = main(["test", "--data", str(data_csv), "--null", str(null_yaml),
               "--cost", '{"family": "power", "p": 1.5}',
               "--nsim", "200", "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= {"statistic", "scaled_statistic", "p_value", "reject"}
    assert 0.0 < payload["p_value"] <= 1.0
    # the independent equal null reads one bridge: m normals per draw
    grid = payload["grid"]
    assert (grid["rng"], grid["factor"]) == ("stream-v5", "closed-form")
    assert grid["normals_per_draw"] == grid["m"] == 2047


def test_test_subcommand_passes_only_given_flags(data_csv, null_yaml, monkeypatch):
    # two_sample_test's signature is the one source of the level, n_sim
    # and seed defaults
    seen = {}

    def fake_test(sample, pair, cost, **kwargs):
        seen.update(kwargs)
        raise ValidationError("stop")

    monkeypatch.setattr(cli, "two_sample_test", fake_test)
    assert main(["test", "--data", str(data_csv), "--null", str(null_yaml),
                 "--cost", '{"family": "power", "p": 1.5}', "--seed", "3"]) == 2
    assert seen == {"override_checks": False, "seed": 3}


def test_check_subcommand(study_yaml, tmp_path, capsys):
    out = tmp_path / "check.json"
    rc = main(["check", "--config", str(study_yaml), "--out", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert {r["condition"] for r in reports} == {"FG", "CFG_E"}
    err = capsys.readouterr().err
    assert "CFG_E" in err and "PASS" in err


def test_check_subcommand_fail_exit_code(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "seed: 1\nn: 10\ncost: {family: power, p: 1.5}\n"
        "pair:\n  x: {family: pareto, index: 3.0}\n"
    )
    rc = main(["check", "--config", str(cfg)])
    assert rc == 4


def test_simulate_limit_subcommand(study_yaml, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    rc = main(["simulate-limit", "--config", str(study_yaml), "--out", str(out_dir)])
    assert rc == 0
    draws = (out_dir / "limit_draws.csv").read_text().strip().splitlines()
    assert draws[0] == "value"
    assert len(draws) == 1 + 200
    meta = json.loads((out_dir / "limit_draws.json").read_text())
    assert meta["theorem"] == "equal"
    assert meta["seed"] == 42
    assert meta["grid"]["normals_per_draw"] == meta["grid"]["m"] == 127


def test_study_subcommand_and_determinism(study_yaml, tmp_path, capsys):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["study", "--config", str(study_yaml), "--out", str(out1)]) == 0
    assert main(["study", "--config", str(study_yaml), "--out", str(out2)]) == 0
    assert (out1 / "statistics.csv").read_bytes() == (out2 / "statistics.csv").read_bytes()
    assert (out1 / "limit_draws.csv").read_bytes() == (out2 / "limit_draws.csv").read_bytes()


def test_validation_exit_code(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("n: 10\ncost: {family: power, p: 1}\npair:\n  x: {family: gaussian}\n")
    rc = main(["study", "--config", str(cfg)])
    assert rc == 2


def test_hypothesis_exit_code(tmp_path):
    # equal-marginals study whose null fails the compatibility checker
    cfg = tmp_path / "pareto.yaml"
    cfg.write_text(
        "seed: 2\nn: 50\nreplications: 5\ntheorem: equal\nn_sim: 50\n"
        "grid: {m: 65, delta: 1.0e-3}\ncheck_policy: require\n"
        "cost: {family: power, p: 1.5}\n"
        "pair:\n  x: {family: pareto, index: 3.0}\n"
    )
    rc = main(["study", "--config", str(cfg)])
    assert rc == 4


def test_numerical_exit_code(tmp_path):
    # enforcing the truncation contract on a slowly-integrable edge trips
    # the numerical-error path (exit 3)
    cfg = tmp_path / "trunc.yaml"
    cfg.write_text(
        "seed: 2\nn: 50\nreplications: 5\ntheorem: quadratic\nn_sim: 50\n"
        "grid: {m: 127, delta: 1.0e-3}\ntail_policy: raise\n"
        "cost: {family: power, p: 2}\n"
        "pair:\n  x: {family: weibull, shape: 3.0}\n"
    )
    rc = main(["study", "--config", str(cfg)])
    assert rc == 3


def test_ragged_csv_exit_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    rc = main(["estimate", "--data", str(path), "--cost", '{"family":"power","p":1}'])
    assert rc == 2


def test_non_finite_csv_exit_code(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,2.0\n3.0,4.0\nnan,1.0\n")
    rc = main(["estimate", "--data", str(path), "--cost", '{"family":"power","p":1}'])
    assert rc == 2


@pytest.mark.parametrize("n_sim", ["0", "-5"])
def test_nonpositive_nsim_exit_code(data_csv, null_yaml, n_sim, capsys):
    rc = main(["test", "--data", str(data_csv), "--null", str(null_yaml),
               "--cost", '{"family": "power", "p": 1.5}', "--nsim", n_sim])
    assert rc == 2
    assert "n_sim" in capsys.readouterr().err


def test_nonpositive_nsim_library_calls():
    g = wc.gaussian()
    small = dict(n_sim=0, grid=(31, 1e-3))
    with pytest.raises(ValidationError, match="n_sim"):
        wc.two_sample_test(wc.sample_pairs(wc.equal_pair(g), 40, seed=1), wc.equal_pair(g),
                           wc.power_cost(1.5), **small)
    with pytest.raises(ValidationError, match="n_sim"):
        wc.gof_test(g.sample(40, np.random.default_rng(2)), g, p=1.0, **small)
    grid = wc.build_bridge_grid(wc.equal_pair(g), m=31, delta=1e-3)
    with pytest.raises(ValidationError, match="n_sim"):
        wc.REGIMES["equal"].draw(wc.equal_pair(g), wc.power_cost(1.5), grid, -5, 1, None)


def test_negative_seed_exit_code(data_csv, null_yaml, study_yaml, tmp_path, capsys):
    rc = main(["test", "--data", str(data_csv), "--null", str(null_yaml),
               "--cost", '{"family": "power", "p": 1.5}', "--nsim", "20", "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    cfg = tmp_path / "neg.yaml"
    cfg.write_text(study_yaml.read_text().replace("seed: 42", "seed: -3"))
    assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "seed" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="seed"):
        wc.derive_rng(-1, "draws")


@pytest.mark.parametrize("old, new", [
    ("seed: 42", "seed: 3.7"), ("seed: 42", "seed: true"), ("seed: 42", "seed: abc"),
    ("n: 150", "n: 10.5"), ("n: 150", "n: abc"), ("n: 150", "n: false"),
    ("replications: 40", "replications: 2.5"), ("replications: 40", "replications: true"),
    ("replications: 40", "replications: many"),
    ("n_sim: 200", "n_sim: 200.5"), ("n_sim: 200", "n_sim: true"), ("n_sim: 200", "n_sim: lots"),
    ("m: 127", "m: 63.5"), ("m: 127", "m: true"), ("m: 127", "m: big"),
])
def test_non_integer_config_exit_code(study_yaml, tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(study_yaml.read_text().replace(old, new))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out)]) == 2
    key = old.split(":")[0]
    assert f"'{'grid.m' if key == 'm' else key}' must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, key", [
    ("delta: 1.0e-3", "delta: abc", "grid.delta"),
    ("x: {family: gaussian}", "x: {family: gaussian, loc: abc}", "gaussian.loc"),
    ("x: {family: gaussian}", "x: {family: gaussian, scale: [1, 2]}", "gaussian.scale"),
    ("x: {family: gaussian}", "x: {family: gaussian, scale: true}", "gaussian.scale"),
    ("p: 1.5", "p: abc", "power.p"),
    ("p: 1.5", "p: true", "power.p"),
    ("{family: power, p: 1.5}", "{family: asymmetric, a: 5, b: [1.5, 1.5]}", "asymmetric.a"),
    ("{family: power, p: 1.5}", "{family: asymmetric, a: [1, 1], b: [1.5]}", "asymmetric.b"),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  coupling: {kind: gaussian, rho: abc}",
     "coupling.rho"),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  coupling: {kind: gaussian, rho: false}",
     "coupling.rho"),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  partition: {breaks: 5, labels: [E]}",
     "partition.breaks"),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  partition: {breaks: [0, abc, 1], labels: [E, E]}",
     "partition.breaks"),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  partition: {breaks: [0, 1], labels: 5}",
     "partition.labels"),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  warp: {amplitude: abc, lo: 0.2, hi: 0.5}", "warp.amplitude"),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  warp: {amplitude: 0.1, lo: abc, hi: 0.5}", "warp.lo"),
])
def test_non_numeric_config_exit_code(study_yaml, tmp_path, capsys, old, new, key):
    # a value read as a number (or a list of them) that is none exits 2 and
    # names its key
    cfg = tmp_path / "bad.yaml"
    text = study_yaml.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config key '{key}' must be" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_strings_are_numbers(study_yaml, tmp_path):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(study_yaml.read_text().replace("delta: 1.0e-3", "delta: '1e-3'")
                   .replace("x: {family: gaussian}", "x: {family: gaussian, scale: '2'}"))
    config = wc.load_config(cfg)
    assert config.grid_delta == 1e-3
    assert config.pair.dist_x.name == "gaussian(0,2)"


def test_integral_config_values_are_integers(study_yaml, tmp_path):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(study_yaml.read_text().replace("seed: 42", "seed: 42.0")
                   .replace("n: 150", "n: '150'").replace("m: 127", "m: 1.27e2"))
    config = wc.load_config(cfg)
    assert (config.seed, config.n, config.grid_m) == (42, 150, 127)
    assert all(type(v) is int for v in (config.seed, config.n, config.grid_m))


@pytest.mark.parametrize("old, new, words", [
    # a family parameter its constructor does not take, or a required one left out
    ("x: {family: gaussian}", "x: {family: gaussian, sigma: 2}", ("gaussian", "sigma")),
    ("{family: power, p: 1.5}", "{family: power, p: 1.5, scale: 9}", ("power", "scale")),
    ("x: {family: gaussian}", "x: {family: pareto}", ("pareto", "index")),
    ("{family: power, p: 1.5}", "{family: pinball}", ("pinball", "alpha")),
    # a key that no resolver reads
    ("x: {family: gaussian}", "x: {family: gaussian}\n  Y: {family: gaussian}", ("'Y'",)),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  coupling: {kind: gaussian, rho: 0.5, tau: 3}", ("'tau'",)),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  coupling: {kind: comonotone, rho: 1}",
     ("'rho'",)),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  warp: {amplitude: 0.1, lo: 0.2, hi: 0.5, width: 1}",
     ("'width'",)),
    ("x: {family: gaussian}",
     "x: {family: gaussian}\n  partition: {breaks: [0, 1], labels: [E], kind: x}",
     ("'kind'",)),
    ("replications: 40", "replicatons: 9", ("'replicatons'",)),
    ("grid: {m: 127, delta: 1.0e-3}", "grid: {m: 31, delta: 1.0e-3, M: 9}", ("'M'",)),
    # a key that a resolver needs
    ("x: {family: gaussian}", "x: {family: gaussian}\n  coupling: {kind: gaussian}",
     ("'rho'",)),
    ("x: {family: gaussian}", "x: {family: gaussian}\n  warp: {amplitude: 0.1, lo: 0.2}",
     ("'hi'",)),
])
@pytest.mark.parametrize("command", ["study", "check"])
def test_unknown_or_missing_config_key_exit_code(study_yaml, tmp_path, capsys, old, new,
                                                  words, command):
    cfg = tmp_path / "bad.yaml"
    text = study_yaml.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    for word in words:
        assert word in err
    assert not out.exists()


def test_check_without_cost_exit_code(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("pair:\n  x: {family: gaussian}\n")
    assert main(["check", "--config", str(cfg)]) == 2
    assert "'cost'" in capsys.readouterr().err


def test_test_null_coupling_without_rho_exit_code(data_csv, tmp_path, capsys):
    null = tmp_path / "null.yaml"
    null.write_text("pair:\n  x: {family: gaussian}\n  coupling: {kind: gaussian}\n")
    assert main(["test", "--data", str(data_csv), "--null", str(null),
                 "--cost", '{"family": "power", "p": 1.5}', "--nsim", "20"]) == 2
    assert "'rho'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study", "check", "simulate-limit", "test"])
def test_empty_yaml_exit_code(data_csv, null_yaml, tmp_path, capsys, command):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    argv = ([command, "--config", str(empty)] if command != "test" else
            ["test", "--data", str(data_csv), "--null", str(empty),
             "--cost", '{"family": "power", "p": 1.5}', "--nsim", "20"])
    assert main(argv) == 2
    assert "must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("cost", ['{"family": "power", "p": }', '{"family": "power"'])
def test_malformed_inline_cost_exit_code(data_csv, capsys, cost):
    assert main(["estimate", "--data", str(data_csv), "--cost", cost]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_files_exit_code(data_csv, null_yaml, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["estimate", "--data", missing, "--cost", '{"family": "power", "p": 1}']) == 2
    assert main(["test", "--data", missing, "--null", str(null_yaml),
                 "--cost", '{"family": "power", "p": 1.5}']) == 2
    assert main(["test", "--data", str(data_csv), "--null", str(tmp_path / "none.yaml"),
                 "--cost", '{"family": "power", "p": 1.5}']) == 2
    assert main(["estimate", "--data", str(data_csv), "--cost", str(tmp_path / "c.yaml")]) == 2
    assert main(["study", "--config", str(tmp_path / "none.yaml")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error:") == 5
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [wc.ValidationError, wc.DomainError, wc.NumericalError,
                                   wc.TruncationError, wc.HypothesisError, wc.WContrastError])
def test_each_error_exits_with_its_code(error, monkeypatch, capsys, tmp_path):
    def fail(args):
        raise error("boom")
    monkeypatch.setattr(cli, "_cmd_check", fail)
    assert main(["check", "--config", str(tmp_path / "c.yaml")]) == error.exit_code
    assert capsys.readouterr().err == f"{error.prefix}: boom\n"
    codes = {wc.ValidationError: 2, wc.DomainError: 2, wc.NumericalError: 3,
             wc.TruncationError: 3, wc.HypothesisError: 4, wc.WContrastError: 2}
    assert error.exit_code == codes[error]
