#!/usr/bin/env python3
"""Batch experiment: generate a seed range, run the full check suite on
every scene, and print a per-check summary table with timing.

Example:
    python scripts/batch_verify.py --seeds 1:200 --numerator-cap 50

Exits 1 when a check fails or a seed admits no scene, and 2 on a usage
error: a malformed or empty seed range or a cap that is not positive.
"""

import argparse
import sys
import time
from collections import Counter

from brocard.checks import THEOREM_CHECK_IDS, run_suite
from brocard.geom import GeometryError
from brocard.scene import SceneParams, generate_scene


def parse_seed_range(text: str):
    """``lo:hi`` is the seeds lo..hi inclusive, ``n`` the seeds 0..n-1;
    either must name at least one seed."""
    lo, sep, hi = text.partition(":")
    try:
        seeds = range(int(lo), int(hi) + 1) if sep else range(0, int(lo))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range lo:hi or a count: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=parse_seed_range, default="1:100", help="seed range lo:hi inclusive (default 1:100)"
    )
    parser.add_argument("--numerator-cap", type=int, default=50)
    parser.add_argument("--denominator-cap", type=int, default=50)
    args = parser.parse_args()
    caps = dict(numerator_cap=args.numerator_cap, denominator_cap=args.denominator_cap)
    try:
        SceneParams(seed=0, **caps)
    except ValueError as exc:  # a cap is not positive
        parser.error(str(exc))

    seeds = args.seeds
    per_check = {cid: Counter() for cid in THEOREM_CHECK_IDS}
    start = time.perf_counter()
    worst = (0.0, None)
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            scene = generate_scene(SceneParams(seed=seed, **caps))
        except GeometryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = run_suite(scene)
        dt = time.perf_counter() - t0
        if dt > worst[0]:
            worst = (dt, seed)
        for result in report.results:
            if result.check_id in per_check:
                per_check[result.check_id][result.status] += 1
    total = time.perf_counter() - start

    width = max(len(cid) for cid in THEOREM_CHECK_IDS)
    print(f"{'check':<{width}}  pass  fail  degenerate")
    for cid in THEOREM_CHECK_IDS:
        c = per_check[cid]
        print(f"{cid:<{width}}  {c['PASS']:>4}  {c['FAIL']:>4}  {c['DEGENERATE']:>10}")
    n = len(seeds)
    print(f"\n{n} scenes in {total:.1f}s ({total / n:.3f}s/scene, worst seed {worst[1]}: {worst[0]:.3f}s)")
    any_fail = any(c["FAIL"] for c in per_check.values())
    return 1 if any_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
