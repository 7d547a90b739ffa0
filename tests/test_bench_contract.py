"""The benchmark's in-process tracer, run as it is on the checked-out code.

``perfbench/tracer.py`` wraps ``brocard.checks.<id>`` for every id of
``THEOREM_CHECK_IDS``, reads every module of its ``MODULES`` off the
package after ``import brocard.cli``, and restores each patch when a pass
ends.  A refactor of ``brocard`` that breaks one of these silently loses
per-layer metrics, so one short traced run guards all three.  The
bench's timing child, ``perfbench/cli_child.py``, replaces two functions of
``brocard.cli``; one short run of it guards that they are still called.
"""

import cProfile
import fractions
import os
import pstats
import random
import re
import subprocess
import sys
from pathlib import Path

import brocard
from brocard import checks, geom, pipeline, sceneio
from brocard.geom import Line
from brocard.scene import SceneParams, generate_scene

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BENCH_MODULES = ("calibrate", "run", "tracer")  # perfbench's top-level modules


def test_traced_run_sees_every_check_and_restores_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)
    try:
        import run
        import tracer

        # What ``Tracer.install`` reads: each module off the package.
        for m in tracer.MODULES:
            assert getattr(brocard, m) is sys.modules["brocard." + m]
        originals = {cid: getattr(checks, cid) for cid in checks.THEOREM_CHECK_IDS}
        result = tracer.measure_layers(run.WORKLOADS["verify-caps50"], 7, count=1)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    assert result.correct
    assert result.problems == []
    check_metrics = {k for k in result.metrics if k.startswith("checks.check_")}
    assert len(checks.THEOREM_CHECK_IDS) == 17
    assert check_metrics == {f"checks.{cid}_ms" for cid in checks.THEOREM_CHECK_IDS}
    # Every wrapped check was reached, except the memoised cyclic lemma,
    # whose circle an earlier run may already have computed, and the Kwon
    # remark, which runs once per process.
    unseen = {cid for cid in checks.THEOREM_CHECK_IDS if result.metrics[f"checks.{cid}_ms"][0] == 0}
    assert unseen <= {"check_lemma_cyclic", "check_kwon_remark"}
    assert {cid: getattr(checks, cid) for cid in checks.THEOREM_CHECK_IDS} == originals


def test_bench_child_calibrates_every_scene(tmp_path):
    """``perfbench/cli_child.py`` replaces ``brocard.cli.generate_scene`` and
    ``brocard.cli.run_suite`` to print a ``ref`` line before each scene and
    ``generated i`` after each accepted one.  A command that bound either
    name in its own body would bypass both, and the bench would fall back
    to uncalibrated wall time without failing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def child(*argv):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert all(re.fullmatch(r"ref \d+\.\d+", line) for line in lines if line.startswith("ref"))
        return ["ref" if line.startswith("ref") else line.split(":")[0] for line in lines]

    scenes = str(tmp_path / "scenes.json")
    assert child("generate", "--seed", "7", "--count", "3", "--out", scenes) == [
        "ref", "generated 0", "ref", "generated 1", "ref", "generated 2", f"wrote 3 scene(s) to {scenes}",
    ]
    assert child("verify", "--in", scenes) == ["ref", "scene 0", "ref", "scene 1", "ref", "scene 2", "total"]


#: Fraction operations of one ``run_suite`` on the seed-7 scene at caps 50,
#: with the memoised cyclic lemma computed afresh and the Kwon remark,
#: which runs once per process, already computed: 0 since the checks decide
#: on integer residuals and the Kwon draw runs on integer pairs, 17 before,
#: 24 while points, circles and complex numbers stored Fractions, 651
#: before the point, complex and similarity layer moved onto integers.
#: Like the tracer, it counts the operators and not the ``Fraction(n, d)``
#: constructions of witnesses and views.
FRACTION_OPS_SEED7 = 0

#: ``Fraction`` constructions in the same run: 7 since the scene digest
#: formats the stored integer tuples, 30 while it formatted the ``Fraction``
#: views, 190 while every assertion built its witness.
FRACTION_NEW_SEED7 = 7


def test_fraction_operations_of_one_suite_run(monkeypatch):
    """Counted as ``tracer.count_fraction_ops`` counts them: calls of the
    ``Fraction`` operator implementations under cProfile, and beside them
    the calls of ``Fraction.__new__``.  Each bound allows 10% more."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    sys.modules.pop("tracer", None)
    try:
        from tracer import FRACTION_OPS
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    scene = generate_scene(SceneParams(seed=7))
    checks._cyclic_lemma.cache_clear()
    checks._kwon_remark()
    profile = cProfile.Profile()
    profile.enable()
    try:
        report = checks.run_suite(scene)
    finally:
        profile.disable()
    calls = [
        (fn_name, nc)
        for (filename, _, fn_name), (_, nc, *_) in pstats.Stats(profile).stats.items()
        if filename == fractions.__file__
    ]
    assert report.all_pass
    assert sum(nc for fn_name, nc in calls if fn_name in FRACTION_OPS) <= FRACTION_OPS_SEED7 * 1.1
    assert sum(nc for fn_name, nc in calls if fn_name == "__new__") <= FRACTION_NEW_SEED7 * 1.1


#: ``Line.__init__`` calls in the same run: 13 since the cyclic lemma meets
#: P, Q and R on raw joins and takes its Miquel point from triangle PAD, 16
#: since the Kwon remark runs once per process, 19 while the Kwon draw's
#: Miquel points read raw sidelines, 21 since a line that feeds one meet or
#: one foot stays a raw triple, 38 while the T-vertex, Steiner-point,
#: hexagon and Kwon meets took canonical lines, 85 while every check body
#: built throwaway lines for one-off tests.  An angle pair is canonicalized
#: only for a FAIL witness (17 angle classes were built per run while
#: ``angle_at`` built them), so ``geom._canonical_ints``, which every
#: ``Line`` calls once, is bounded by the same count.
LINE_NEW_SEED7 = 13

#: ``geom._reduced`` calls in the same run: 55 since the Kwon remark runs
#: once per process, 69 since the cyclic lemma's quadrangle Miquel point
#: meets two raw circles, 71 since no circle is reduced for one meet or one
#: incidence and the pedal feet stay raw, 88 since points, ratios and
#: circles built for one meet or one comparison stay raw integer tuples,
#: 128 while each of them was reduced.
REDUCED_SEED7 = 55

#: ``geom._circle_through`` calls in the same run: 10 since the Kwon remark
#: runs once per process, 13 since an incidence with the circle through
#: three points is decided on their cross ratio and O_A, O_B, O_C come from
#: ``_circumcenter``, 22 while every such circle was built.  The tracer's
#: ``geom.circumcircle.calls`` does not see these.
CIRCLE_THROUGH_SEED7 = 10

#: ``geom._power`` calls in the same run, one per incidence of a point with
#: a circle: 30 since the Kwon remark runs once per process, 31 since the
#: build tests no point on a circle it built through that point and no S_t
#: on the circumcircle before T_a, 44 before.
POWER_SEED7 = 30


def _suite_calls():
    """Calls per ``(file, first line, name)`` under cProfile of the same run
    as the Fraction counts, and whether every check passed."""
    scene = generate_scene(SceneParams(seed=7))
    checks._cyclic_lemma.cache_clear()
    checks._kwon_remark()
    profile = cProfile.Profile()
    profile.enable()
    try:
        report = checks.run_suite(scene)
    finally:
        profile.disable()
    calls = {
        (filename, line, fn_name): nc for (filename, line, fn_name), (_, nc, *_) in pstats.Stats(profile).stats.items()
    }
    return calls, report.all_pass


def _calls_of(calls, fn):
    code = fn.__code__
    return calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)


def test_line_and_angle_constructions_of_one_suite_run():
    """Each bound with 10% slack: a check body that builds a throwaway
    ``Line`` for a one-off incidence, or canonicalizes an angle pair on a
    PASS, fails, and so does a meet that canonicalizes its lines."""
    calls, all_pass = _suite_calls()
    assert all_pass
    assert _calls_of(calls, Line.__init__) <= LINE_NEW_SEED7 * 1.1
    assert _calls_of(calls, geom._canonical_ints) <= LINE_NEW_SEED7 * 1.1
    assert _calls_of(calls, Line.__init__) > 0  # the lines the configuration keeps


def test_reductions_of_one_suite_run():
    """With 10% slack: reducing a point, ratio or circle that only one meet
    or one comparison reads fails, and so does building a circle for one
    incidence."""
    calls, all_pass = _suite_calls()
    assert all_pass
    assert 0 < _calls_of(calls, geom._reduced) <= REDUCED_SEED7 * 1.1
    assert 0 < _calls_of(calls, geom._circle_through) <= CIRCLE_THROUGH_SEED7 * 1.1


def test_circle_incidences_of_one_suite_run():
    """With 10% slack: a build that tests again a point on a circle it
    built through that point, or a theorem a check asserts, fails."""
    calls, all_pass = _suite_calls()
    assert all_pass
    assert 0 < _calls_of(calls, geom._power) <= POWER_SEED7 * 1.1


#: ``geom._reduced`` calls of ``generate_scene(SceneParams(seed=7))``: 28
#: since R* and the perspector stay raw in the prefix, and the Brocard
#: circle and S_t, once kept raw there, are theorem stages that generation
#: does not build, 32 since the isogonal probe of P and the spiral ratios,
#: which no valid draw can fail, left generation, 34 while generation built
#: them, 42 while it built the whole configuration and threw it away.
GENERATE_REDUCED_SEED7 = 28


def _generation_stats(params):
    """cProfile's stats of a second ``generate_scene(params)``, and its
    calls per ``(file, first line, name)``."""
    generate_scene(params)
    profile = cProfile.Profile()
    profile.enable()
    try:
        generate_scene(params)
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    return stats, {(filename, line, fn_name): nc for (filename, line, fn_name), (_, nc, *_) in stats.items()}


def test_generation_builds_no_configuration():
    """The tracer counts ``compute_configuration`` spans, which generation
    no longer makes, so this pins its cost: no configuration, no
    circumcenter of the diameter-line block, no spiral ratio, no Brocard
    circle and no parallel of S_t (circles through three points only for
    the Miquel circles), a raw isogonal conjugate only for R*, and
    reductions within 10%.  Draws take no ``Random.randrange``, here on the
    strict path, which draws most: the pairs come straight from
    ``getrandbits``."""
    stats, calls = _generation_stats(SceneParams(seed=7))
    assert _calls_of(calls, pipeline.compute_configuration) == 0
    assert _calls_of(calls, geom._circumcenter) == 0
    assert _calls_of(calls, geom._spiral) == 0
    assert _calls_of(calls, geom._parallel) == 0
    for fn, caller in ((geom._isogonal, "_prefix"), (geom._circle_through, "miquel_circle")):
        code = fn.__code__
        callers = stats[(code.co_filename, code.co_firstlineno, code.co_name)][4]
        assert {name for _, _, name in callers} == {caller}
    assert 0 < _calls_of(calls, geom._reduced) <= GENERATE_REDUCED_SEED7 * 1.1
    _, strict_calls = _generation_stats(SceneParams(seed=7, strict_segments=True))
    assert _calls_of(strict_calls, random.Random.randrange) == 0


#: Distinct check results in the seed-7 caps-50 report (scene seeds
#: 701..800): the validation PASS and the seventeen theorem PASS blocks.
DISTINCT_BLOCKS_SEED7 = 18


def test_report_encodes_each_distinct_block_once(monkeypatch, tmp_path):
    """The writer formats one block per distinct result object, not one per
    occurrence: 18 of the 1,800 blocks of the bench's seed-7 report."""
    reports = [checks.run_suite(generate_scene(SceneParams(seed=seed))) for seed in range(701, 801)]
    formatted = []
    check_block = sceneio._check_block

    def counting(result):
        formatted.append(result)
        return check_block(result)

    monkeypatch.setattr(sceneio, "_check_block", counting)
    sceneio.write_report_file(str(tmp_path / "report.json"), reports, "sha256:" + "0" * 64)
    distinct = {result for report in reports for result in report.results}
    assert sum(len(report.results) for report in reports) == 1800
    assert len(formatted) == len(distinct) == DISTINCT_BLOCKS_SEED7
