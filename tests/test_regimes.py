"""One table decides the limit theorem: ``limitlaw.select_regime``.

Every caller (``check``, the tests in ``inference``, the study runner) takes
its checker, rate and draws from it, each public call runs its checker
exactly once, and every limit draw goes through ``Regime.draw``.
"""

import ast
import dataclasses
import inspect
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
    for key in ("grid_m", "grid_delta", "n_sim", "tail_policy", "check_policy"):
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
    # theorem checkers are reached through limitlaw.select_regime;
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
        found += [n for n in names if n in DISPATCH_ONLY]
    assert not found, f"{module} dispatches directly: {found}"


def _calls(tree, scope=()):
    """(enclosing class and function names, called name) of every call."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            yield ".".join(scope), (func.id if isinstance(func, ast.Name)
                                    else getattr(func, "attr", ""))
        yield from _calls(child, scope)


def _identifiers(tree):
    """Every name a source file defines, reads, imports or lists as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_one_draw_routine():
    # every limit draw reduces its path blocks in Regime.draw, the one caller
    # of limitlaw._collect, and no per-theorem draw_limit_* function remains
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    sites = [f"{name}: {scope}" for name, tree in trees.items()
             for scope, called in _calls(tree) if called == "_collect"]
    assert sites == ["limitlaw.py: Regime.draw"], sites
    found = [f"{name}: {n}" for name, tree in trees.items() for n in _identifiers(tree)
             if "draw_limit_" in n]
    assert not found, found


def test_collect_draws_only_through_iter_bridge_paths():
    # limitlaw._collect takes every path block from iter_bridge_paths, looked
    # up by its module-level name, so a wrapper set on that name sees every
    # draw; it reduces the blocks and draws nothing itself
    tree = ast.parse((SRC / "limitlaw.py").read_text(encoding="utf-8"))
    collect = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_collect")
    funcs = [node.func for node in ast.walk(collect) if isinstance(node, ast.Call)]
    assert [f.id for f in funcs if isinstance(f, ast.Name)
            and f.id == "iter_bridge_paths"] == ["iter_bridge_paths"]
    called = {f.id if isinstance(f, ast.Name) else f.attr for f in funcs}
    assert called == {"empty", "iter_bridge_paths", "functional"}, called


def test_each_regime_names_the_process_it_reads():
    # the one-sample limit reads B^X/h_X; every two-sample limit reads Bq
    reads = {label: regime.reads for label, regime in wc.REGIMES.items()}
    assert reads == {"equal": limitlaw.READS_BQ, "quadratic": limitlaw.READS_BQ,
                     "gaussian": limitlaw.READS_BQ, "mixed": limitlaw.READS_BQ,
                     "one_sample": limitlaw.READS_X}


def test_every_regime_callable_takes_the_same_parameters():
    # one signature a callable across the table; the one-sample exponent
    # comes from its power cost, so nothing takes p
    def params(fn):
        return tuple(inspect.signature(fn).parameters)
    got = {name: {params(getattr(r, name)) for r in wc.REGIMES.values()}
           for name in ("check", "rate", "functional", "edge_terms")}
    assert got == {"check": {("pair", "cost")}, "rate": {("n", "cost")},
                   "functional": {("pair", "cost", "grid")},
                   "edge_terms": {("pair", "cost", "side")}}
    assert params(limitlaw.Regime.gate) == ("self", "pair", "cost", "override", "what")
    assert params(limitlaw.Regime.draw) == ("self", "pair", "cost", "grid", "n_sim", "seed",
                                            "tail_frac")
    assert params(limitlaw.Regime.simulate) == ("self", "pair", "cost", "grid_shape",
                                                "n_sim", "seed", "tail_frac")
    assert "p" not in {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("cost", [None, wc.asymmetric_power_cost((1.0, 2.0), (1.5, 1.5)),
                                  wc.pinball_cost(0.3), wc.power_cost(2.0)],
                         ids=["none", "asymmetric", "pinball", "power(2)"])
def test_one_sample_requires_a_power_cost_below_two(cost):
    # the statistic is the W_p^p contrast of |x|^p, 1 <= p < 2: the checker
    # rejects any other cost, with or without override, where a missing p
    # once drew |x|^0 and an asymmetric cost was ignored
    pair = wc.equal_pair(wc.gaussian())
    for override in (False, True):
        with pytest.raises(ValidationError, match="power cost"):
            wc.REGIMES["one_sample"].gate(pair, cost, override)


def test_a_missing_cost_is_a_validation_error():
    # every agreement limit reads its cost, so quadratic, which ignored it,
    # now rejects None at the gate and at the draw, as one_sample does
    pair = wc.equal_pair(wc.weibull(3.0))
    grid = wc.build_bridge_grid(pair, m=15, delta=1e-3)
    for label in ("quadratic", "one_sample"):
        with pytest.raises(ValidationError, match="needs a cost"):
            wc.REGIMES[label].gate(pair, None)
        with pytest.raises(ValidationError, match="needs a cost"):
            wc.REGIMES[label].draw(pair, None, grid, 10, 1, None)


def test_two_limit_forms_behind_the_five_labels():
    # agreement (equal, quadratic, one_sample) and disagreement (gaussian,
    # mixed): one functional, rate and centering per form
    cost = wc.power_cost(1.5)
    form = {label: (r.functional, r.rate(400, cost), r.centred)
            for label, r in wc.REGIMES.items()}
    agreement = (limitlaw._functional_E, wc.rate_vn(cost, 400), False)
    disagreement = (limitlaw._functional_ED, 20.0, True)
    assert form == {"equal": agreement, "quadratic": agreement, "one_sample": agreement,
                    "gaussian": disagreement, "mixed": disagreement}


def _one_sample_spec(**extra) -> dict:
    return {"seed": 3, "n": 60, "replications": 3, "n_sim": 20, "theorem": "one_sample",
            "grid": {"m": 31, "delta": 1e-3}, "pair": {"x": {"family": "gaussian"}},
            **extra}


@pytest.mark.parametrize("extra", [
    {"cost": _power(2), "p": 1.5},
    {"cost": _power(1.5), "p": 1.0},
    {"cost": _power(1.5), "p": True},
    {"cost": _power(1.5), "p": "1.5"},
    {"cost": {"family": "asymmetric", "a": [1, 2], "b": [1.5, 1.5]}, "p": 1.5},
    {"cost": {"family": "asymmetric", "a": [1, 2], "b": [1.5, 1.5]}},
    {"cost": {"family": "pinball", "alpha": 0.3}},
    {"cost": _power(2)},
], ids=["p 1.5 with power 2", "p 1 with power 1.5", "p true", "p string",
        "p with asymmetric", "asymmetric", "pinball", "power 2"])
@pytest.mark.parametrize("command", ["study", "check"])
def test_one_sample_config_without_its_power_cost_exits_2(tmp_path, capsys, extra, command):
    cfg = _write(tmp_path / "c.yaml", _one_sample_spec(**extra))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "power cost" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", [None, 1, 1.0])
def test_one_sample_config_reads_p_from_its_cost(tmp_path, p):
    # a p equal to the power cost's exponent still loads, as the bench's
    # one-sample study writes it; study.json records the cost alone
    extra = {} if p is None else {"p": p}
    cfg = _write(tmp_path / "c.yaml", _one_sample_spec(cost=_power(1), **extra))
    config = load_config(cfg)
    assert config.cost.b == 1.0
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "study.json").read_text())
    assert summary["config"]["cost"] == "power(1)"
    assert "p" not in summary["config"]


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
