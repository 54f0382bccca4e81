"""Gate-field checker for the committed ``BENCH_*.json`` perf records.

The benchmark harness rewrites every ``BENCH_<name>.json`` wholesale, so
raw wall-clock noise used to churn the committed files on every PR.  The
fix is a split:

* benchmark runs write fresh JSON into ``benchmarks/out/`` (gitignored),
* the committed root files are the *gate record* -- they only change when
  a gate verdict or a gate-relevant field actually moves,
* this script evaluates the gates and decides when a refresh is due.

Usage::

    python benchmarks/compare.py check [FILES...]
        Evaluate every gate in the given BENCH files (default: the
        committed BENCH_*.json at the repository root).  Exit 1 if any
        gate fails.  Files without registered gates are timing-only and
        always pass.

    python benchmarks/compare.py check --fresh benchmarks/out
        Same, against a directory of freshly generated files (CI mode).

    python benchmarks/compare.py promote [--fresh benchmarks/out]
        Copy fresh files over the committed root records, but only those
        whose gate-relevant fields differ (new file, changed verdict, or
        changed threshold).  Pure timing drift never touches the diff.

Gates mirror the assertions inside ``benchmarks/test_bench_*.py``; a
threshold given as a string names a field of the same payload (so the
record stays self-describing), a literal is compared directly.
"""

from __future__ import annotations

import argparse
import json
import operator
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FRESH_DIR = Path(__file__).resolve().parent / "out"

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Gate:
    """One gate: ``payload[field] <op> threshold``.

    ``threshold`` may be a literal or the name of another payload field
    (e.g. ``"required_speedup"``).  ``when`` optionally names a boolean
    payload field that must be true for the gate to be enforced; when it
    is false the gate is recorded as skipped (e.g. the parallel fan-out
    gate on single-core machines).
    """

    field: str
    op: str
    threshold: Union[str, float, int, bool]
    when: Optional[str] = None

    def evaluate(self, payload: Dict[str, Any]) -> Tuple[str, str]:
        """Return ``(verdict, detail)`` with verdict PASS/FAIL/SKIP."""
        if self.when is not None and not payload.get(self.when, False):
            return "SKIP", f"{self.field} ({self.when} is false)"
        if self.field not in payload:
            return "FAIL", f"{self.field} missing from payload"
        value = payload[self.field]
        if isinstance(self.threshold, str):
            if self.threshold not in payload:
                return "FAIL", f"threshold field {self.threshold} missing"
            limit = payload[self.threshold]
        else:
            limit = self.threshold
        ok = _OPS[self.op](value, limit)
        return ("PASS" if ok else "FAIL"), f"{self.field}={value!r} {self.op} {limit!r}"

    def relevant_fields(self) -> List[str]:
        fields = [self.field]
        if isinstance(self.threshold, str):
            fields.append(self.threshold)
        if self.when is not None:
            fields.append(self.when)
        return fields


#: name (the ``name`` field / ``BENCH_<name>.json``) -> its gates.
GATES: Dict[str, List[Gate]] = {
    "cluster_replay": [
        Gate("speedup_vs_legacy", ">=", "required_speedup"),
        Gate("miss_heavy_functional_speedup", ">=", "required_miss_heavy_speedup"),
        Gate("miss_heavy_lru_speedup", ">=", "required_miss_heavy_speedup"),
    ],
    "degraded_replay": [
        Gate("replayed_requests_per_second", ">=", "required_replayed_rps")
    ],
    "kernel_backends": [
        Gate("fig11_relative_throughput", ">=", "required_relative_throughput"),
        Gate(
            "cluster_replay_relative_throughput",
            ">=",
            "required_relative_throughput",
        ),
    ],
    "online_resolve": [
        Gate("warm_speedup", ">=", "required_speedup"),
        Gate("parity_gap", "<=", "parity_rtol"),
    ],
    "trace_ingest": [Gate("rows_per_second", ">=", "required_rows_per_second")],
    "fig11_engine_speedup": [
        Gate("speedup", ">=", 20.0),
        Gate("latency_relative_gap", "<", 0.10),
    ],
    "parallel_sweep": [
        Gate("bit_equal", "==", True),
        Gate("cached_bit_equal", "==", True),
        Gate("cached_solver_calls", "==", "required_cached_solver_calls"),
        Gate("cache_hit_speedup", ">=", "required_speedup"),
        Gate(
            "parallel_speedup",
            ">=",
            "required_speedup",
            when="parallel_gate_enforced",
        ),
    ],
}


def bench_name(path: Path, payload: Dict[str, Any]) -> str:
    """The gate-table key: the payload's ``name``, else the file stem."""
    name = payload.get("name")
    if isinstance(name, str) and name:
        return name
    stem = path.stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def gate_fields(name: str) -> List[str]:
    """Every payload field that participates in ``name``'s gates."""
    fields: List[str] = []
    for gate in GATES.get(name, []):
        for field in gate.relevant_fields():
            if field not in fields:
                fields.append(field)
    return fields


def gate_snapshot(name: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The gate-relevant slice of a payload: field values and verdicts.

    Floating-point gate inputs (speedups, throughputs) drift run to run,
    so the snapshot reduces each gate to its verdict plus any exact-typed
    inputs (bools, ints, thresholds given as literals in the table stay
    out -- they live in this file).  Two snapshots are equal exactly when
    no gate outcome or discrete gate input changed.
    """
    snapshot: Dict[str, Any] = {}
    for gate in GATES.get(name, []):
        verdict, _ = gate.evaluate(payload)
        snapshot[f"verdict:{gate.field}"] = verdict
        for field in gate.relevant_fields():
            value = payload.get(field)
            if isinstance(value, (bool, int, str)) or value is None:
                snapshot[f"field:{field}"] = value
    return snapshot


def load(path: Path) -> Dict[str, Any]:
    with path.open() as handle:
        return json.load(handle)


def check(paths: Sequence[Path]) -> int:
    """Evaluate every gate; print a verdict table; return the exit code."""
    failures = 0
    for path in sorted(paths):
        payload = load(path)
        name = bench_name(path, payload)
        gates = GATES.get(name)
        if not gates:
            print(f"  ok    {path.name}: timing-only (no gates)")
            continue
        for gate in gates:
            verdict, detail = gate.evaluate(payload)
            marker = {"PASS": "  ok  ", "SKIP": " skip ", "FAIL": " FAIL "}[verdict]
            print(f"{marker}{path.name}: {detail}")
            if verdict == "FAIL":
                failures += 1
    if failures:
        print(f"\n{failures} gate(s) failed.")
        return 1
    print("\nAll gates passed.")
    return 0


def promote(fresh_dir: Path) -> int:
    """Copy fresh BENCH files to the repo root iff their gates moved."""
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"No BENCH_*.json under {fresh_dir}; run the benchmarks first.")
        return 1
    promoted = 0
    for fresh_path in fresh_files:
        fresh = load(fresh_path)
        name = bench_name(fresh_path, fresh)
        committed_path = REPO_ROOT / fresh_path.name
        if committed_path.exists():
            committed = load(committed_path)
            if gate_snapshot(name, fresh) == gate_snapshot(name, committed):
                print(f"  keep  {fresh_path.name}: gates unchanged (timing noise only)")
                continue
            reason = "gate fields changed"
        else:
            reason = "new benchmark"
        shutil.copyfile(fresh_path, committed_path)
        promoted += 1
        print(f" write  {fresh_path.name}: {reason}")
    print(f"\n{promoted} file(s) promoted to the repository root.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/compare.py", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check_cmd = sub.add_parser("check", help="evaluate BENCH gate fields")
    check_cmd.add_argument("files", nargs="*", type=Path)
    check_cmd.add_argument(
        "--fresh",
        type=Path,
        default=None,
        metavar="DIR",
        help="check the freshly generated files in DIR instead of the "
        "committed root records",
    )
    promote_cmd = sub.add_parser(
        "promote", help="refresh committed records whose gates moved"
    )
    promote_cmd.add_argument(
        "--fresh", type=Path, default=DEFAULT_FRESH_DIR, metavar="DIR"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "promote":
        return promote(args.fresh)
    if args.files:
        paths = list(args.files)
    elif args.fresh is not None:
        paths = sorted(args.fresh.glob("BENCH_*.json"))
        if not paths:
            print(f"No BENCH_*.json under {args.fresh}.")
            return 1
    else:
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    return check(paths)


if __name__ == "__main__":
    sys.exit(main())
