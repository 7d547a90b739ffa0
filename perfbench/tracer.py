"""In-process traced run of one workload, for the per-layer metrics.

The workload's two CLI commands run through ``brocard.cli.main`` in
alternating untraced and traced passes.  Spans are recorded from this file
only: each traced function is replaced, in every ``brocard`` module that
binds it, by a wrapper that records ``(name, start, end, parent, scene)``
in memory, and every patch is restored afterwards.  Nothing under ``src/``
changes.  A span's parent is the innermost traced call that was open when
it started; its scene is the index of the enclosing ``generate_scene`` or
``run_suite`` call.  Self time is a span's duration minus the time its
child spans cover.  The spans are written to
``.perfbench_out/spans-<workload>.jsonl`` when the run ends.

A separate untraced pass under ``cProfile`` counts ``Fraction``
arithmetic calls on the first few scenes (``geom.fraction_ops``).
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import functools
import io
import json
import pstats
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from run import (
    CHECKS_PER_SCENE,
    OUT_DIR,
    SRC,
    RunResult,
    Workload,
    fingerprint_problems,
    on_cpu,
    percentile,
    sha256_file,
    usable_cpus,
)

GEOM_FUNCTIONS = (
    "circumcircle",
    "line_through",
    "intersect_lines",
    "second_intersection_circles",
    "second_intersection_circle_line",
    "isogonal_conjugate",
    "pole_of_line",
    "foot_perpendicular",
    "simson_line",
    "on_circle",
    "on_line",
)

# (defining module, function names); the checks module adds its
# THEOREM_CHECK_IDS, whose ids are the names of the check functions.
TRACED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("cli", ("main",)),
    ("sceneio", ("write_scene_file", "read_scene_file", "write_report_file", "scene_digest", "file_digest")),
    ("scene", ("generate_scene", "scene_from_parameters", "validate_scene", "kwon_scene")),
    ("pipeline", ("compute_configuration", "miquel_point")),
    ("checks", ("run_suite",)),
    ("geom", GEOM_FUNCTIONS),
)
SCENE_ROOTS = ("scene.generate_scene", "checks.run_suite")
MODULES = ("geom", "scene", "pipeline", "checks", "sceneio", "svgrender", "cli")

# Operator implementations of fractions.Fraction (Python 3.10+); the
# public dunders dispatch to these, so each arithmetic operation is one call.
FRACTION_OPS = frozenset(
    ("_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod", "__pow__", "__rpow__",
     "__neg__", "__pos__", "__abs__")
)
PROFILED_SCENES = 10
TRACE_REPEATS = 3

Span = Tuple[str, float, float, int, Optional[int]]


def import_brocard() -> Any:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brocard.cli  # noqa: F401  (loads every module the CLI uses)

    return sys.modules["brocard"]


class Tracer:
    """Spans and patches of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.configurations: List[Any] = []
        self._stack: List[int] = []
        self._scene: Optional[int] = None
        self._next_scene = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        scene_root = name in SCENE_ROOTS
        keep_result = name == "pipeline.compute_configuration"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self._next_scene = 0
            if scene_root:
                self._scene = self._next_scene
                self._next_scene += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._scene)
                if scene_root:
                    self._scene = None
            if keep_result:
                self.configurations.append(result)
            return result

        return wrapper

    def install(self, brocard: Any) -> None:
        modules = [brocard] + [getattr(brocard, m) for m in MODULES]
        targets = list(TRACED) + [("checks", tuple(brocard.checks.THEOREM_CHECK_IDS))]
        for home, names in targets:
            for fn_name in names:
                original = getattr(getattr(brocard, home), fn_name)
                wrapper = self._wrap(f"{home}.{fn_name}", original)
                # Patch every module that looks the name up, not only the
                # one that defines it.
                for module in modules:
                    if vars(module).get(fn_name) is original:
                        self._patches.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, fn_name, original = self._patches.pop()
            setattr(module, fn_name, original)

    def write(self, path: Path) -> None:
        """One JSON array ``[name, start, end, parent, scene]`` per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


@dataclass
class SpanStats:
    durations_ms: List[float]
    self_ms: float


def span_stats(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, SpanStats] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        stats = out.setdefault(name, SpanStats([], 0.0))
        stats.durations_ms.append((end - start) * 1000.0)
        stats.self_ms += (end - start - covered[i]) * 1000.0
    return out


def max_bits(configurations: Sequence[Any], point_type: type) -> int:
    """Largest numerator or denominator bit length over the points of the
    Configurations built in the run."""
    best = 0
    for cfg in configurations:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, point_type):
                for q in (value.x, value.y):
                    best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def run_commands(
    brocard: Any, w: Workload, seed: int, workdir: Path, count: int
) -> Tuple[Optional[int], Optional[int], str]:
    """The workload's ``generate`` and ``verify --report`` through
    ``brocard.cli.main``; returns both exit codes and the captured stdout."""
    scenes, report = workdir / "scenes.json", workdir / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        gen = call_main(brocard, w.generate_argv(seed, str(scenes), count))
        ver = call_main(brocard, ["verify", "--in", str(scenes), "--report", str(report)])
    return gen, ver, out.getvalue()


def call_main(brocard: Any, argv: List[str]) -> Optional[int]:
    """``brocard.cli.main``, with an escaping exception printed and
    reported as exit code None, so that the run reports the failure."""
    try:
        return brocard.cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        return None


def count_fraction_ops(brocard: Any, w: Workload, seed: int, workdir: Path, count: int) -> int:
    profile = cProfile.Profile()
    profile.enable()
    try:
        run_commands(brocard, w, seed, workdir, count)
    finally:
        profile.disable()
    return sum(
        nc
        for (filename, _, fn_name), (_, nc, *_) in pstats.Stats(profile).stats.items()
        if filename == fractions.__file__ and fn_name in FRACTION_OPS
    )


@dataclass
class Pass:
    wall_s: float
    exit_codes: Tuple[Optional[int], Optional[int]]
    stdout: str
    shas: Tuple[Optional[str], Optional[str]]
    sizes: Tuple[int, int]
    tracer: Optional[Tracer]


def run_pass(
    brocard: Any, w: Workload, seed: int, workdir: Path, count: int, tracer: Optional[Tracer]
) -> Pass:
    workdir.mkdir()
    start = time.perf_counter()
    if tracer is not None:
        tracer.install(brocard)
    try:
        gen, ver, out = run_commands(brocard, w, seed, workdir, count)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    files = [workdir / f for f in ("scenes.json", "report.json")]
    shas = tuple(sha256_file(f) if f.exists() else None for f in files)
    sizes = tuple(f.stat().st_size if f.exists() else 0 for f in files)
    return Pass(wall, (gen, ver), out, shas, sizes, tracer)


def measure_layers(w: Workload, seed: int, count: Optional[int] = None) -> RunResult:
    """Untraced and traced passes alternate, TRACE_REPEATS of each; the
    per-layer figures come from the fastest traced pass, and the tracing
    overhead is the fastest traced wall time over the fastest untraced."""
    brocard = import_brocard()
    n = w.count if count is None else count
    OUT_DIR.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR))
    problems: List[str] = []
    try:
        plain: List[Pass] = []
        traced: List[Pass] = []
        cpus = usable_cpus()
        for rep in range(TRACE_REPEATS):
            with on_cpu(cpus[rep % len(cpus)]):
                plain.append(run_pass(brocard, w, seed, base / f"plain{rep}", n, None))
                traced.append(run_pass(brocard, w, seed, base / f"traced{rep}", n, Tracer()))
        profiled = min(PROFILED_SCENES, n)
        (base / "profile").mkdir()
        fraction_ops = count_fraction_ops(brocard, w, seed, base / "profile", profiled)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    all_pass = f"total: {n * CHECKS_PER_SCENE} pass, 0 fail, 0 degenerate"
    for label, passes in (("untraced", plain), ("traced", traced)):
        if any(p.exit_codes != (0, 0) or all_pass not in p.stdout.splitlines() for p in passes):
            problems.append(f"{label} run is not all PASS")
    if len({p.shas for p in plain + traced}) != 1:
        problems.append("traced run wrote different bytes from the untraced run")
    if n == w.count:
        problems.extend(fingerprint_problems(w, seed, plain[0].shas))
    best = min(traced, key=lambda p: p.wall_s)
    tracer = best.tracer
    tracer.write(OUT_DIR / f"spans-{w.name}.jsonl")
    scene_bytes, report_bytes = best.sizes
    all_pass_scenes = sum(
        1 for line in best.stdout.splitlines()
        if line.endswith(f": {CHECKS_PER_SCENE} checks, {CHECKS_PER_SCENE} pass, 0 fail, 0 degenerate")
    )
    overhead = best.wall_s / min(p.wall_s for p in plain)

    stats = span_stats(tracer.spans)
    empty = SpanStats([], 0.0)

    def calls(name: str) -> int:
        return len(stats.get(name, empty).durations_ms)

    def p50(name: str) -> float:
        d = stats.get(name, empty).durations_ms
        return statistics.median(d) if d else 0.0

    def total_ms(name: str) -> float:
        return sum(stats.get(name, empty).durations_ms)

    def self_per_scene(name: str) -> float:
        return stats.get(name, empty).self_ms / n

    # Builds inside generate_scene beyond one per accepted scene were rejected.
    generate_spans = {
        i for i, s in enumerate(tracer.spans) if s[0] == "scene.generate_scene"
    }
    generate_builds = sum(
        1 for s in tracer.spans if s[0] == "pipeline.compute_configuration" and s[3] in generate_spans
    )
    attempts = calls("scene.scene_from_parameters")
    suite = stats.get("checks.run_suite", empty).durations_ms
    generate = stats.get("scene.generate_scene", empty).durations_ms

    m: Dict[str, Tuple[float, str]] = {}
    for fn_name in GEOM_FUNCTIONS:
        m[f"geom.{fn_name}.calls"] = (calls(f"geom.{fn_name}") / n, "count/scene")
        m[f"geom.{fn_name}.self_ms"] = (self_per_scene(f"geom.{fn_name}"), "ms/scene")
    m["geom.fraction_ops"] = (fraction_ops / profiled, "count/scene")
    m["checks.run_suite_ms.p50"] = (percentile(suite, 50), "ms")
    m["checks.run_suite_ms.p90"] = (percentile(suite, 90), "ms")
    m["checks.run_suite_self_ms"] = (self_per_scene("checks.run_suite"), "ms/scene")
    for cid in brocard.checks.THEOREM_CHECK_IDS:
        m[f"checks.{cid}_ms"] = (p50(f"checks.{cid}"), "ms")
    m["pipeline.compute_configuration_ms.p50"] = (p50("pipeline.compute_configuration"), "ms")
    m["pipeline.builds_per_scene"] = (calls("pipeline.compute_configuration") / n, "count/scene")
    m["pipeline.rejected_builds"] = ((generate_builds - calls("scene.generate_scene")) / n, "count/scene")
    m["pipeline.miquel_point_ms"] = (p50("pipeline.miquel_point"), "ms")
    m["pipeline.max_bits"] = (max_bits(tracer.configurations, brocard.geom.Point), "bits")
    m["scene.generate_scene_ms.p50"] = (percentile(generate, 50), "ms")
    m["scene.generate_scene_ms.p90"] = (percentile(generate, 90), "ms")
    m["scene.generate_scene_self_ms"] = (self_per_scene("scene.generate_scene"), "ms/scene")
    m["scene.attempts_per_scene"] = (attempts / n, "count/scene")
    m["scene.accept_ratio"] = (calls("scene.generate_scene") / attempts if attempts else 0.0, "ratio")
    m["scene.validate_scene_ms"] = (p50("scene.validate_scene"), "ms")
    m["scene.kwon_scene_ms"] = (p50("scene.kwon_scene"), "ms")
    m["sceneio.write_scene_file_ms"] = (total_ms("sceneio.write_scene_file"), "ms")
    m["sceneio.read_scene_file_ms"] = (total_ms("sceneio.read_scene_file"), "ms")
    m["sceneio.write_report_file_ms"] = (total_ms("sceneio.write_report_file"), "ms")
    m["sceneio.scene_digest_ms"] = (p50("sceneio.scene_digest"), "ms")
    m["sceneio.scene_file_bytes"] = (scene_bytes, "bytes")
    m["sceneio.report_file_bytes"] = (report_bytes, "bytes")
    m["cli.self_ms"] = (stats.get("cli.main", empty).self_ms, "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    failed = n - all_pass_scenes
    if problems:
        failed = max(failed, 1)
    return RunResult(not problems, n, failed, m, problems)
