"""Alternating parent/change pairs of the end-to-end benchmark.

Runs ``python3 perfbench/run.py --trace 0`` in two checkouts in turn, N
times each, alternating which of the two runs first in a pair, and reads
only the JSON line each run prints last.  For every metric it prints the
parent's median with its quartiles, the change's median, the relative
change, the pairs the change won and a verdict by the claim rule: a metric
is ``better`` (or ``worse``) when the change wins (or loses) at least 9 of
every 10 pairs and the gap between the medians exceeds the interquartile
range of the parent's runs, and ``unresolved`` otherwise::

    python3 scripts/bench_pairs.py ../parent . --workload verify-caps50 --pairs 10

A run that is not correct, or that prints no result line, is listed and
counted; its metrics still enter the summary when it has them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Result = Dict[str, object]


def parse_result(stdout: str) -> Optional[Result]:
    """The object of the last non-blank line of a ``run.py`` output, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Optional[Result]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--trace", "0", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    return parse_result(proc.stdout) if proc.returncode == 0 else None


def _values(results: Sequence[Optional[Result]], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results if r and name in r["metrics"]]


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(won: int, lost: int, pairs: int, gap: float, iqr: float) -> str:
    """The claim rule on one metric: ``better`` when the change won at least
    9/10 of the pairs and the gap between the medians, signed so that
    positive is better, exceeds the parent's IQR; ``worse`` for the same
    rule with the sides exchanged; ``unresolved`` otherwise."""
    if pairs and abs(gap) > iqr:
        if gap > 0 and won >= 0.9 * pairs:
            return "better"
        if gap < 0 and lost >= 0.9 * pairs:
            return "worse"
    return "unresolved"


def summarize(pairs: Sequence[Tuple[Optional[Result], Optional[Result]]]) -> List[str]:
    """One line per metric, ``name: parent median [q1, q3] -> change median
    unit (won/pairs, +x.x%): verdict``, then one line per side naming its
    incorrect runs."""
    names: List[str] = []
    units: Dict[str, str] = {}
    for result in (r for pair in pairs for r in pair if r):
        for name, entry in result["metrics"].items():
            if name not in units:
                names.append(name)
                units[name] = entry["unit"]
    # Metrics where a larger value is better; every other one is better lower.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    higher = {m["name"] for m in benchmark["end_to_end"] if m["better"] == "higher"}
    lines = []
    for name in names:
        parent, change = (_values([pair[i] for pair in pairs], name) for i in (0, 1))
        if not parent or not change:
            lines.append(f"{name}: missing on one side")
            continue
        sign = -1 if name in higher else 1
        scored = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if p and c and name in p["metrics"] and name in c["metrics"]
        ]
        won = sum(sign * (c - p) < 0 for p, c in scored)
        lost = sum(sign * (c - p) > 0 for p, c in scored)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        delta = f"{(c_med - p_med) / p_med * 100:+.1f}%" if p_med else "n/a"
        lines.append(
            f"{name}: {p_med:.4g} [{q1:.4g}, {q3:.4g}] -> {c_med:.4g} {units[name]}"
            f" ({won}/{len(scored)}, {delta}): {verdict(won, lost, len(scored), sign * (p_med - c_med), q3 - q1)}"
        )
    for side, index in (("parent", 0), ("change", 1)):
        bad = [str(i + 1) for i, pair in enumerate(pairs) if not (pair[index] and pair[index].get("correct"))]
        lines.append(f"{side}: {len(pairs) - len(bad)}/{len(pairs)} runs correct"
                     + (f"; incorrect or missing in pair(s) {', '.join(bad)}" if bad else ""))
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair: List[Optional[Result]] = [None, None]
        for side in order:
            pair[side] = run_once((args.parent, args.change)[side], args.workload, args.seed, args.seconds)
        pairs.append(tuple(pair))
        for side, result in zip(("parent", "change"), pair):
            print(f"pair {i + 1} {side} {json.dumps(result)}", file=sys.stderr, flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs:"
          " parent median [quartiles] -> change median (pairs won, change): verdict")
    for line in summarize(pairs):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
