"""Child process of the determinism check, and the comparison of two runs.

The parent starts this script twice with the same ``--seed``; each run is a
fresh process, so no in-process cache can answer the second one. Each run
prepares and makes the workload's tiny calls (``bench.workload_calls(...,
tiny=True)``: the code paths the workload times, at small sizes) and leaves
each call's inputs and outputs under ``--out/<call label>``.

Usage (from the repository root):
    python3 perfbench/determinism.py --workload infer-structured --seed 5 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TIMING_KEYS = {"runtime_seconds"}


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def compare_outputs(a: Path, b: Path):
    """None when both trees hold the same files with the same bytes (JSON:
    the same content apart from timing fields); else the first difference."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if not files_a:
        return f"no output under {a.name}"
    if files_a != files_b:
        return f"file sets differ: {files_a} vs {files_b}"
    for rel in files_a:
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.suffix == ".json":
            x, y = _strip_timing(json.loads(x)), _strip_timing(json.loads(y))
        if x != y:
            return f"{rel} differs between two runs with the same seed"
    return None


def _write_result(d: Path, result) -> None:
    """Library results go to ``result.json``; CLI calls and ``Test`` have
    already written their outputs under ``d``."""
    if isinstance(result, float):
        (d / "result.json").write_text(json.dumps(repr(result)))
    elif hasattr(result, "to_dict"):
        (d / "result.json").write_text(json.dumps(result.to_dict(), indent=2,
                                                  sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import bench

    seeds = bench.SeedSource(args.seed)
    for call in bench.workload_calls(args.workload, tiny=True):
        d = Path(args.out) / call.label
        d.mkdir(parents=True)
        result = call.run(call.prepare(d, seeds))
        if isinstance(result, tuple) and result[0] != 0:     # CLI exit code
            raise RuntimeError(f"{call.label}: exit code {result[0]}: {result[1]}")
        _write_result(d, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
