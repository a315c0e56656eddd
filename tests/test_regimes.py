"""One table decides the limit theorem: ``limitlaw.select_regime``.

Every caller (``check``, the tests in ``inference``, the study runner) takes
its checker, rate and draws from it, and each public call runs its checker
exactly once.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import wcontrast as wc
from wcontrast import cli, harness, inference, limitlaw
from wcontrast.errors import ValidationError
from wcontrast.harness import ExperimentConfig, load_config, run_clt_study

CHECKERS = ("check_cfg_e", "check_cfg_d", "check_cfg_ed", "check_compact",
            "check_w2_hypotheses", "check_pareto_dominance")
SMALL = dict(n=60, replications=3, seed=5, grid_m=31, grid_delta=1e-3, n_sim=20)
BUMP = {"x": {"family": "gaussian"}, "coupling": {"kind": "comonotone"},
        "warp": {"amplitude": 0.15, "lo": 0.2, "hi": 0.5}}
SHIFT = {"x": {"family": "gaussian"}, "y": {"family": "gaussian", "loc": 1.0}}


def _power(p):
    return {"family": "power", "p": p}


@pytest.fixture()
def checker_log(monkeypatch):
    """Names of the checkers called through the modules that dispatch."""
    log = []
    for module in (cli, inference, harness, limitlaw):
        for name in CHECKERS:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                log.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return log


def _write(path: Path, spec: dict) -> Path:
    path.write_text(yaml.safe_dump(spec))
    return path


def test_unbounded_b_above_two_is_no_theorem(tmp_path):
    # N(0,1) with power(2.5): neither the equal nor the quadratic theorem
    cfg = _write(tmp_path / "c.yaml", {"cost": _power(2.5), "pair": {"x": {"family": "gaussian"}}})
    assert cli.main(["check", "--config", str(cfg)]) == 2
    data = tmp_path / "d.csv"
    xs = np.random.default_rng(0).normal(size=(50, 2))
    data.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in xs) + "\n")
    null = _write(tmp_path / "null.yaml", {"pair": {"x": {"family": "gaussian"}}})
    assert cli.main(["test", "--data", str(data), "--null", str(null),
                     "--cost", json.dumps(_power(2.5)), "--nsim", "20"]) == 2


@pytest.mark.parametrize("pair,cost,label,derived", [
    (wc.equal_pair(wc.weibull(3.0)), 2.5, "quadratic", None),
    (wc.equal_pair(wc.gaussian()), 1.5, "mixed", "equal"),
    (wc.equal_pair(wc.uniform()), 2.0, "quadratic", "equal"),
    (wc.make_pair(wc.gaussian(), wc.gaussian(1.0)), 2.0, "mixed", "gaussian"),
])
def test_mismatched_label_is_a_validation_error(pair, cost, label, derived):
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(pair=pair, cost=wc.power_cost(cost), theorem=label, **SMALL)
    if derived is not None:
        assert repr(derived) in str(err.value)


def test_theorem_label_is_derived(bump_pair_comonotone, gauss_shift_pair):
    for pair, cost, label in ((wc.equal_pair(wc.gaussian()), 1.5, "equal"),
                              (wc.equal_pair(wc.beta_dist(2, 2)), 2.5, "equal"),
                              (wc.equal_pair(wc.weibull(3.0)), 2.0, "quadratic"),
                              (gauss_shift_pair, 2.0, "gaussian"),
                              (gauss_shift_pair, 1.0, "gaussian"),
                              (bump_pair_comonotone, 1.5, "gaussian"),
                              (bump_pair_comonotone, 1.0, "mixed")):
        config = ExperimentConfig(pair=pair, cost=wc.power_cost(cost), theorem=None, **SMALL)
        assert config.theorem == label
    assert limitlaw.select_regime(gauss_shift_pair, None, "one_sample").label == "one_sample"


def test_shift_pair_yaml_without_theorem_runs_gaussian_study(tmp_path):
    spec = {"seed": 3, "n": 60, "replications": 4, "n_sim": 40,
            "grid": {"m": 63, "delta": 1.0e-3}, "cost": _power(2), "pair": SHIFT}
    cfg = _write(tmp_path / "shift.yaml", spec)
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "study.json").read_text())
    assert summary["config"]["theorem"] == "gaussian"
    assert summary["limit_draws"]["theorem"] == "gaussian"
    assert summary["centering"] == pytest.approx(1.0, abs=1e-6)


def test_load_config_keeps_dataclass_defaults(tmp_path):
    spec = {"seed": 3, "n": 10, "cost": _power(1.5), "pair": {"x": {"family": "gaussian"}}}
    config = load_config(_write(tmp_path / "c.yaml", spec))
    defaults = ExperimentConfig(pair=config.pair, cost=config.cost, theorem=None,
                                n=10, replications=1, seed=3)
    assert config.theorem == "equal"
    for key in ("grid_m", "grid_delta", "n_sim", "p", "tail_policy", "check_policy"):
        assert getattr(config, key) == getattr(defaults, key), key
    assert (config.grid_m, config.grid_delta) == limitlaw.DEFAULT_GRID


def test_gaussian_study_draws_carry_its_label(gauss_shift_pair):
    config = ExperimentConfig(pair=gauss_shift_pair, cost=wc.power_cost(2),
                              theorem="gaussian", **SMALL)
    assert run_clt_study(config).draws.theorem == config.theorem


@pytest.mark.parametrize("override", [False, True])
def test_each_public_call_runs_its_checker_once(checker_log, bump_pair_comonotone,
                                                override):
    small = dict(n_sim=20, grid=(31, 1e-3), tail_frac=None, override_checks=override)
    g = wc.gaussian()
    sample = wc.sample_pairs(wc.equal_pair(g), 40, seed=1)
    wc.two_sample_test(sample, wc.equal_pair(g), wc.power_cost(1.5), **small)
    assert checker_log == ["check_cfg_e"]
    checker_log.clear()
    wc.gof_test(g.sample(40, np.random.default_rng(2)), g, p=1.0, **small)
    assert checker_log == ["check_pareto_dominance"]
    checker_log.clear()
    draws = wc.clt_alternative_distribution(bump_pair_comonotone, wc.power_cost(1), **small)
    assert draws.theorem == "mixed"
    assert checker_log == ["check_cfg_ed"]


@pytest.mark.parametrize("pair,cost,expected", [
    ({"x": {"family": "gaussian"}}, 1.5, "check_cfg_e"),
    ({"x": {"family": "beta", "a": 2, "b": 2}}, 2.5, "check_compact"),
    ({"x": {"family": "uniform"}}, 2.0, "check_compact"),
    ({"x": {"family": "weibull", "shape": 3.0}}, 2.0, "check_w2_hypotheses"),
    (SHIFT, 2.0, "check_cfg_ed"),
    (BUMP, 1.0, "check_cfg_ed"),
])
def test_check_runs_the_checker_of_test_and_study(checker_log, tmp_path, pair, cost,
                                                  expected):
    cfg = _write(tmp_path / "c.yaml", {"cost": _power(cost), "pair": pair})
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert checker_log == [expected]
    checker_log.clear()

    resolved, power = harness.resolve_pair(pair), wc.power_cost(cost)
    if resolved.partition.is_all_E:
        sample = wc.sample_pairs(resolved, 40, seed=1)
        wc.two_sample_test(sample, resolved, power, n_sim=20, grid=(31, 1e-3))
        assert checker_log == [expected]
        checker_log.clear()
    config = ExperimentConfig(pair=resolved, cost=power, theorem=None,
                              check_policy="override", **SMALL)
    run_clt_study(config)
    assert checker_log == [expected]


DISPATCH_ONLY = set(CHECKERS)
SRC = Path(wc.__file__).resolve().parent


@pytest.mark.parametrize("module", ["cli.py", "inference.py", "harness.py"])
def test_no_dispatch_outside_the_regime_table(module):
    # draws and theorem checkers are reached through limitlaw.select_regime;
    # check_fg and sigma2_D stay allowed
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Call):
            func = node.func
            names.append(func.id if isinstance(func, ast.Name)
                         else getattr(func, "attr", ""))
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
        found += [n for n in names if n in DISPATCH_ONLY or n.startswith("draw_limit_")]
    assert not found, f"{module} dispatches directly: {found}"


def _names(path):
    """Module-qualified imports, attribute names (qualified by a plain name
    they are read from) and called names of a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            yield f"{base.id}.{node.attr}" if isinstance(base, ast.Name) else node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            yield node.func.id


def test_one_root_finder():
    # monotone inverses go through tails.bisect_floats: no module imports
    # scipy.optimize or reaches for brentq
    found = [f"{path.name}: {n}" for path in sorted(SRC.glob("*.py")) for n in _names(path)
             if n.startswith("scipy.optimize") or n.endswith("brentq")]
    assert not found, found


def test_one_quadrature_rule():
    # integrals over (0, 1) go through tails.quantile_rule: no module imports
    # scipy.integrate or calls quad, and only tails.py builds Gauss-Legendre nodes
    found = [f"{path.name}: {n}" for path in sorted(SRC.glob("*.py")) for n in _names(path)
             if n.startswith("scipy.integrate") or n.split(".")[-1] == "quad"
             or (n.endswith("roots_legendre") and path.name != "tails.py")]
    assert not found, found


def test_no_scipy_stats():
    # the built-in laws come from scipy.special: no module imports
    # scipy.stats or reads it off the scipy package
    found = [f"{path.name}: {n}" for path in sorted(SRC.glob("*.py")) for n in _names(path)
             if n == "scipy.stats" or n.startswith("scipy.stats.")]
    assert not found, found


_NO_STATS_SCRIPT = """
import sys
import numpy as np
import wcontrast as wc
from wcontrast.harness import ExperimentConfig, run_clt_study
assert "scipy.stats" not in sys.modules, "import"
g = wc.gaussian()
small = dict(n_sim=20, grid=(31, 1e-3))
run_clt_study(ExperimentConfig(pair=wc.equal_pair(wc.beta_dist(2, 2)), cost=wc.power_cost(2.5),
                               theorem=None, n=40, replications=3, seed=5, grid_m=31,
                               grid_delta=1e-3, n_sim=20))
wc.two_sample_test(wc.sample_pairs(wc.equal_pair(g), 40, seed=1), wc.equal_pair(g),
                   wc.power_cost(1.5), **small)
wc.gof_test(g.sample(40, np.random.default_rng(2)), g, p=1.0, **small)
assert "scipy.stats" not in sys.modules, "calls"
"""


def test_scipy_stats_is_never_imported():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    done = subprocess.run([sys.executable, "-c", _NO_STATS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
