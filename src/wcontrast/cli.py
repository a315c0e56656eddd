"""Command-line interface.

Subcommands: estimate, test, check, simulate-limit, study. ``check``
runs the FG checker on each marginal and the checker of the limit theorem
that the pair and the cost select.
Exit codes: 0 success, 2 validation error, 3 numerical error,
4 hypothesis-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assumptions import check_fg
from .costs import power_cost
from .errors import ValidationError, WContrastError
from .estimator import w_cost_empirical
from .harness import (config_cost, emit_limit_draws, emit_study, ingest_csv, load_config,
                      read_config, read_yaml, resolve_cost, resolve_pair, run_clt_study)
from .inference import two_sample_test
from .limitlaw import select_regime


def _parse_cost_arg(arg: str):
    """--cost accepts inline JSON ('{"family":"power","p":2}') or a YAML path."""
    arg = arg.strip()
    if arg.startswith("{"):
        try:
            spec = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--cost is not valid JSON: {exc}") from None
        return resolve_cost(spec)
    return resolve_cost(read_yaml(arg))


def _emit_json(data, out):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_estimate(args) -> int:
    sample = ingest_csv(args.data)
    cost = _parse_cost_arg(args.cost)
    result = {
        "n": sample.n,
        "cost": cost.name,
        "w_cost": w_cost_empirical(sample, cost),
        "w1_cdf_distance": w_cost_empirical(sample, power_cost(1)),
    }
    _emit_json(result, args.out)
    return 0


def _cmd_test(args) -> int:
    sample = ingest_csv(args.data)
    null_spec = read_yaml(args.null)
    null_pair = resolve_pair(null_spec["pair"] if "pair" in null_spec else null_spec)
    cost = _parse_cost_arg(args.cost)
    # flags left out are absent from args: two_sample_test's defaults apply
    given = {k: v for k, v in vars(args).items() if k in ("level", "n_sim", "seed")}
    result = two_sample_test(sample, null_pair, cost,
                             override_checks=args.override_checks, **given)
    _emit_json(result.to_dict(), args.out)
    return 0


def _margin_table(report, indent: int = 0) -> str:
    pad = "  " * indent
    lines = [f"{pad}{report.condition}: {report.verdict.upper()}"]
    for note in report.notes:
        lines.append(f"{pad}  note: {note}")
    if report.margin_profile:
        lines.append(f"{pad}  {'probe':>12} {'lhs':>14} {'rhs':>14} {'margin':>14}")
        for probe, lhs, rhs, margin in report.margin_profile[:12]:
            lines.append(f"{pad}  {probe:>12.5g} {lhs:>14.5g} {rhs:>14.5g} {margin:>14.5g}")
        if len(report.margin_profile) > 12:
            lines.append(f"{pad}  ... ({len(report.margin_profile)} probes)")
    for sub in report.subreports:
        lines.append(_margin_table(sub, indent + 1))
    return "\n".join(lines)


def _cmd_check(args) -> int:
    spec = read_config(args.config)
    pair = resolve_pair(spec["pair"])
    cost = config_cost(spec)
    regime = select_regime(pair, cost, spec.get("theorem"))
    reports = [check_fg(pair.dist_x)]
    if pair.dist_y is not pair.dist_x:
        reports.append(check_fg(pair.dist_y))
    reports.append(regime.check(pair, cost))
    _emit_json([r.to_dict() for r in reports],
               args.out if args.out else None)
    for r in reports:
        print(_margin_table(r), file=sys.stderr)
    failed = any(r.verdict == "fail" for r in reports)
    return 4 if failed else 0


def _cmd_simulate_limit(args) -> int:
    config = load_config(args.config, seed_override=args.seed,
                         out_override=args.out)
    draws = config.limit_draws()
    out_dir = config.out or "."
    paths = emit_limit_draws(draws, out_dir)
    print(json.dumps(paths))
    return 0


def _cmd_study(args) -> int:
    config = load_config(args.config, seed_override=args.seed,
                         out_override=args.out)
    result = run_clt_study(config)
    out_dir = config.out or "."
    paths = emit_study(result, out_dir)
    print(json.dumps({"ks_distance": result.ks_distance,
                      "runtime_seconds": result.runtime_seconds, **paths}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcontrast",
        description="Generalized Wasserstein-cost contrasts: estimation, "
                    "assumption checking, limit simulation, and tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="order-statistic contrast from a CSV")
    p_est.add_argument("--data", required=True, help="two-column CSV of paired data")
    p_est.add_argument("--cost", required=True,
                       help="inline JSON cost spec or YAML file path")
    p_est.add_argument("--out", default=None, help="write JSON here (default stdout)")
    p_est.set_defaults(fn=_cmd_estimate)

    p_test = sub.add_parser("test", help="two-sample equality test from paired data")
    p_test.add_argument("--data", required=True)
    p_test.add_argument("--null", required=True, help="YAML with the null pair spec")
    p_test.add_argument("--cost", required=True)
    p_test.add_argument("--level", type=float, default=argparse.SUPPRESS)
    p_test.add_argument("--nsim", dest="n_sim", type=int, default=argparse.SUPPRESS)
    p_test.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_test.add_argument("--override-checks", action="store_true")
    p_test.add_argument("--out", default=None)
    p_test.set_defaults(fn=_cmd_test)

    p_check = sub.add_parser("check", help="run the assumption checkers")
    p_check.add_argument("--config", required=True, help="YAML with pair and cost")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(fn=_cmd_check)

    p_sim = sub.add_parser("simulate-limit", help="simulate a limiting law")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(fn=_cmd_simulate_limit)

    p_study = sub.add_parser("study", help="Monte Carlo limit-theorem study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(fn=_cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WContrastError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
