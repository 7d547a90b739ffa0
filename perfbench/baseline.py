"""Every metric of every workload at the default seed, from one command.

Runs each workload once with tracing off and once with tracing on, prints
every metric by name with its unit, and with ``--out`` writes them together
with the environment (Python, CPU count, platform, ``brocard.__version__``,
git commit) as a JSON entry of the performance trajectory::

    python3 perfbench/baseline.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import import_brocard, measure_layers  # noqa: E402


def git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=run.ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "brocard_version": import_brocard().__version__,
        "git_commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the metrics and environment to this JSON file")
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    env = environment()
    print("environment: " + json.dumps(env))
    entry = {"seed": run.DEFAULT_SEED, "run_seconds": seconds, "environment": env, "workloads": {}}
    # Every end-to-end run comes before the first traced run: a child's
    # peak RSS from wait4 can include the pages it shared with this process
    # before exec, and the traced runs grow this process.
    results = {name: {"end_to_end": run.measure_end_to_end(w, run.DEFAULT_SEED, seconds)}
               for name, w in run.WORKLOADS.items()}
    for name, w in run.WORKLOADS.items():
        results[name]["per_layer"] = measure_layers(w, run.DEFAULT_SEED)
    correct = True
    for name, by_kind in results.items():
        for kind, result in by_kind.items():
            run.print_result(result, f"{name} {kind}")
            correct = correct and result.correct
        entry["workloads"][name] = {kind: result.to_json() for kind, result in by_kind.items()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
