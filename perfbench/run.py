"""Benchmark of the brocard command-line path: ``generate`` then ``verify --report``.

One closed-loop client runs one CLI command at a time as a child process,
with no threads.  Every workload runs the same two commands on scenes
drawn from the workload seed; the workloads differ in how the scenes are
generated, which moves the work between layers:

* ``verify-caps50``: default caps (50); coordinates of about 120 bits, where
  the per-operation overhead of ``Fraction`` normalization dominates.
* ``verify-caps1e12``: caps of 10**12; coordinates of about 940 bits, where
  big-integer cost dominates, so a kernel change cannot win on small
  numbers while losing on large ones unseen.
* ``generate-strict``: ``--strict-segments`` at caps 50; about a dozen
  draws are rejected per accepted scene, so the rejection loop and the
  pipeline build carry ``generate_s``, which no checks-layer change can
  move.  It runs ``verify --report`` too, so that every workload reports
  every end-to-end metric.

Each workload has 100 scenes; workload seed n uses the scene seeds
100n+1 .. 100n+100.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-caps50 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on the CLI, run in child
processes with tracing off.  ``--trace 1`` runs the same commands in
process, in untraced passes and in passes with the public functions of the
``cli``, ``sceneio``, ``scene``, ``pipeline``, ``checks`` and ``geom``
modules wrapped in spans, and reports the per-layer metrics (see
``tracer.py``).  Either way the output is a table of every metric with its
unit, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timing statistic: the commands run again and again on the same input for
``--seconds``, rotating the CPU they are pinned to.  On a shared machine a
core runs the same code up to twice as slowly, for seconds at a time, when
its neighbours get busy, and CPU time slows with it.  So every timing is
given in reference seconds (see ``calibrate.py``): the child times a fixed
piece of standard-library work before each scene, and each scene's time
is scaled by how much slower than nominal that work ran just then.  On a
quiet core a reference second is a second; a change to ``brocard`` moves
both alike.

* ``generate_s`` and ``verify_s``: the child cut into one piece per scene
  at its progress lines (stamped on arrival from the unbuffered child),
  less the reference work, scaled, and summed over the per-piece medians
  across repetitions.  ``verify`` prints ``scene i:`` lines itself;
  ``generate`` runs through ``cli_child.py``, the console script plus one
  line per accepted scene;
* ``verify_scene_ms.p50`` and ``.p90``: percentiles over scenes 1..n-1 of
  each scene's median piece (scene 0 also carries import and file read);
* ``setup_s``: the median over repetitions on each CPU of a fresh
  interpreter importing ``brocard.cli``, each scaled by the reference work
  timed on that CPU just before and after it.

``scenes_per_s`` is scenes / (``generate_s`` + ``verify_s``), and
``peak_rss_mb`` the highest peak RSS of the children, read with ``wait4``.

Correctness gate: every command exits 0, every scene is all PASS, the
report's input digest is the scene file's sha256, the bytes repeat on
every iteration, and at the default seed both files match the sha256
recorded in ``fingerprints.json``.  Any miss counts toward ``failed``,
makes the run incorrect and drops that iteration from the timings.
``ok_ratio`` is 1 - fail_ratio, where fail_ratio is the scenes not all
PASS plus the commands that exit nonzero, time out or write wrong bytes,
over the scenes attempted (an end-to-end metric may not read 0).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from calibrate import REFERENCE_S, reference_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

DEFAULT_SEED = 0
CHECKS_PER_SCENE = 18  # scene_validation plus the 17 theorem checks
SETUP_REPEATS = 8
SMOOTH = 5  # scenes whose reference times scale each piece
MIN_ITERATIONS = 4
CHILD_TIMEOUT_S = 60.0

BIG_CAP = str(10**12)


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    generate_args: Tuple[str, ...]

    def first_seed(self, seed: int) -> int:
        """Scene seeds of workload seed n are the disjoint range
        n*count + 1 .. (n+1)*count."""
        return seed * self.count + 1

    def generate_argv(self, seed: int, out: str, count: Optional[int] = None) -> List[str]:
        n = self.count if count is None else count
        return ["generate", "--seed", str(self.first_seed(seed)), "--count", str(n),
                "--out", out, *self.generate_args]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("verify-caps50", 100, ()),
        Workload("verify-caps1e12", 100, ("--numerator-cap", BIG_CAP, "--denominator-cap", BIG_CAP)),
        Workload("generate-strict", 100, ("--strict-segments",)),
    )
}

# Unit of every metric, in the order the table prints them.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "generate_s": "s",
    "verify_s": "s",
    "scenes_per_s": "1/s",
    "verify_scene_ms.p50": "ms",
    "verify_scene_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

CLI = str(BENCH_DIR / "cli_child.py")  # the console script, plus generate progress

_GENERATED_LINE = re.compile(r"^generated \d+$")
_SCENE_LINE = re.compile(r"^scene (\d+): (\d+) checks, (\d+) pass, (\d+) fail, (\d+) degenerate$")
_REF_LINE = re.compile(r"^ref (\d+\.\d+)$")
_TOTAL_LINE = re.compile(r"^total: (\d+) pass, (\d+) fail, (\d+) degenerate$")


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("BROCARD_OUT_DIR", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    """One finished child process: wall time, exit code, stdout lines
    stamped on arrival, and its peak resident set from ``wait4``."""

    start: float
    wall_s: float
    returncode: Optional[int]
    lines: List[Tuple[float, str]]
    maxrss_kb: int

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_child(args: Sequence[str], env: Dict[str, str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python -u <args>`` and read its merged stdout/stderr until EOF.

    Lines are timestamped as they arrive (the child is unbuffered).  A child
    still running at the deadline is killed and reported with returncode
    None.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
    )
    lines: List[Tuple[float, str]] = []
    pending = b""
    timed_out = False
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            if not sel.select(remaining):
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            pending += chunk
            *complete, pending = pending.split(b"\n")
            lines.extend((now, raw.decode("utf-8", "replace")) for raw in complete)
    _, status, rusage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if pending:
        lines.append((time.perf_counter(), pending.decode("utf-8", "replace")))
    return Child(start, wall, None if timed_out else proc.returncode, lines, rusage.ru_maxrss)


@contextlib.contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Pin this process, and so every child it starts, to one CPU."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def usable_cpus() -> List[Optional[int]]:
    if not hasattr(os, "sched_getaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def measure_setup(env: Dict[str, str], cpus: Sequence[Optional[int]]) -> Tuple[float, int]:
    """Wall time of a fresh interpreter importing ``brocard.cli``, in
    reference seconds: the median over repetitions on each CPU, each scaled
    by the reference work timed on that CPU right before and after it,
    after one untimed warm-up that fills the bytecode cache.  Returns it
    and the number of failed imports."""
    argv = ["-c", "import brocard.cli"]
    failed = 0 if run_child(argv, env).ok else 1
    times = []
    for _ in range(SETUP_REPEATS):
        for cpu in cpus:
            with on_cpu(cpu):
                before = min(reference_s() for _ in range(3))
                child = run_child(argv, env)
                after = min(reference_s() for _ in range(3))
            failed += 0 if child.ok else 1
            times.append(child.wall_s * REFERENCE_S * 2 / (before + after))
    return statistics.median(times), failed


@dataclass
class Iteration:
    generate: Child
    verify: Child
    scene_sha: Optional[str]
    report_sha: Optional[str]
    scenes: int
    failed: int
    problems: List[str] = field(default_factory=list)


def scaled_pieces_s(child: Child, progress: re.Pattern[str]) -> List[float]:
    """A child's wall time cut at each progress line, in reference seconds.

    The pieces are: start to the first line (interpreter start, import, and
    scene 0), one per later scene, and the last line to exit (writing the
    file).  Each scene's piece loses the time of the reference work run
    before it and is scaled by ``REFERENCE_S`` over the median of the
    reference times of the nearest ``SMOOTH`` scenes; the last piece is
    scaled as the last scene's.  A child that stopped before its scenes
    (a failed run, timed only when every repetition failed) is not scaled.
    """
    stamps = [t for t, text in child.lines if progress.match(text)]
    refs = [float(m.group(1)) for m in (_REF_LINE.match(text) for _, text in child.lines) if m]
    cuts = [child.start, *stamps, child.start + child.wall_s]
    pieces = [b - a for a, b in zip(cuts, cuts[1:])]
    if len(refs) != len(stamps) or not refs:
        return pieces
    half = SMOOTH // 2
    scales = [REFERENCE_S / statistics.median(refs[max(0, i - half):i + half + 1]) for i in range(len(refs))]
    scales.append(scales[-1])
    return [(piece - ref) * scale for piece, ref, scale in zip(pieces, [*refs, 0.0], scales)]


def run_iteration(
    w: Workload,
    seed: int,
    workdir: Path,
    env: Dict[str, str],
    tamper: Optional[Callable[[Path], None]] = None,
) -> Iteration:
    """``brocard generate`` then ``brocard verify --report``, with the output
    checks.  ``tamper`` edits the scene file between the two commands; the
    self-tests use it to show that the gate catches a bad file."""
    n = w.count
    scene_path, report_path = workdir / "scenes.json", workdir / "report.json"
    for p in (scene_path, report_path):
        if p.exists():
            p.unlink()
    problems: List[str] = []
    gen = run_child([CLI, *w.generate_argv(seed, str(scene_path))], env)
    if not gen.ok:
        problems.append(f"generate exited {gen.returncode}")
    if tamper is not None and scene_path.exists():
        tamper(scene_path)
    ver = run_child([CLI, "verify", "--in", str(scene_path), "--report", str(report_path)], env)
    if not ver.ok:
        problems.append(f"verify exited {ver.returncode}")

    scene_lines = [m for m in (_SCENE_LINE.match(t) for _, t in ver.lines) if m]
    all_pass = sum(
        1 for m in scene_lines
        if int(m.group(2)) == CHECKS_PER_SCENE and int(m.group(3)) == CHECKS_PER_SCENE
    )
    failed_scenes = n - all_pass
    totals = [m for m in (_TOTAL_LINE.match(t) for _, t in ver.lines) if m]
    if not totals or totals[-1].groups() != (str(n * CHECKS_PER_SCENE), "0", "0"):
        problems.append("verify totals are not all PASS")

    scene_sha = sha256_file(scene_path) if scene_path.exists() else None
    report_sha = None
    if report_path.exists():
        report_sha = sha256_file(report_path)
        try:
            with open(report_path, "rb") as fh:
                report = json.loads(fh.read())
        except (UnicodeDecodeError, json.JSONDecodeError):
            report = {}
        if report.get("input_digest") != f"sha256:{scene_sha}":
            problems.append("report input digest is not the scene file's sha256")
        if report.get("summary") != {"pass": n * CHECKS_PER_SCENE, "fail": 0, "degenerate": 0}:
            problems.append("report summary is not all PASS")
    else:
        problems.append("no report written")
    failed = failed_scenes + sum(1 for c in (gen, ver) if not c.ok)
    return Iteration(gen, ver, scene_sha, report_sha, n, failed, problems)


def fingerprint_problems(w: Workload, seed: int, shas: Tuple[Optional[str], Optional[str]]) -> List[str]:
    """At the default seed the scene file and the report must match the
    sha256 recorded in ``fingerprints.json``."""
    if seed != DEFAULT_SEED:
        return []
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        want = json.load(fh).get(w.name, {})
    return [
        f"{what} fingerprint mismatch"
        for what, got, key in zip(("scene file", "report"), shas, ("scene_sha256", "report_sha256"))
        if got != want.get(key)
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    problems: List[str]

    def to_json(self) -> Dict[str, object]:
        """The result line's object: exactly the keys the output contract names."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def measure_end_to_end(
    w: Workload,
    seed: int,
    seconds: float,
    tamper: Optional[Callable[[Path], None]] = None,
    min_iterations: int = MIN_ITERATIONS,
) -> RunResult:
    env = child_env()
    cpus = usable_cpus()
    setup_s, setup_failed = measure_setup(env, cpus)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="e2e-", dir=OUT_DIR))
    iterations: List[Iteration] = []
    problems: List[str] = []
    try:
        start = time.perf_counter()
        while len(iterations) < min_iterations or time.perf_counter() - start < seconds:
            with on_cpu(cpus[len(iterations) % len(cpus)]):
                it = run_iteration(w, seed, workdir, env, tamper)
            shas = (it.scene_sha, it.report_sha)
            if iterations and shas != (iterations[0].scene_sha, iterations[0].report_sha):
                it.problems.append("output bytes differ between iterations")
            it.problems.extend(fingerprint_problems(w, seed, shas))
            if it.problems:
                it.failed = max(it.failed, 1)  # wrong bytes from commands that exited 0
            problems.extend(it.problems)
            iterations.append(it)
            if it.failed:
                break  # the run is incorrect already; do not wait on more timeouts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(it.scenes for it in iterations)
    failed = sum(it.failed for it in iterations) + setup_failed
    # A failed iteration misses every timing; if all failed, report them
    # anyway so the output stays complete (the run is incorrect either way).
    timed = [it for it in iterations if it.failed == 0] or iterations
    generate_s = sum(map(statistics.median, zip(*(scaled_pieces_s(it.generate, _GENERATED_LINE) for it in timed))))
    verify_pieces = list(map(statistics.median, zip(*(scaled_pieces_s(it.verify, _SCENE_LINE) for it in timed))))
    verify_s = sum(verify_pieces)
    per_scene = [piece * 1000.0 for piece in verify_pieces[1:-1]]
    metrics = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "verify_s": verify_s,
        "scenes_per_s": timed[0].scenes / (generate_s + verify_s),
        "verify_scene_ms.p50": percentile(per_scene, 50),
        "verify_scene_ms.p90": percentile(per_scene, 90),
        "peak_rss_mb": max(max(it.generate.maxrss_kb, it.verify.maxrss_kb) for it in iterations) / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return RunResult(
        failed == 0,
        attempted,
        failed,
        {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        problems,
    )


def print_result(result: RunResult, header: str) -> None:
    print(header)
    width = max((len(k) for k in result.metrics), default=0)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}}  {value:14.6f}  {unit}")
    for problem in sorted(set(result.problems)):
        print(f"  problem: {problem}")
    print(json.dumps(result.to_json()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brocard" / "cli.py").is_file():
        print(f"error: no brocard sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.trace:
        from tracer import measure_layers

        result = measure_layers(w, args.seed)
    else:
        result = measure_end_to_end(w, args.seed, args.seconds)
    print_result(result, f"{w.name} seed {args.seed} trace {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
