"""The benchmark's in-process tracer, run as it is on the checked-out code.

``perfbench/tracer.py`` wraps ``brocard.checks.<id>`` for every id of
``THEOREM_CHECK_IDS``, reads every module of its ``MODULES`` off the
package after ``import brocard.cli``, and restores each patch when a pass
ends.  A refactor of ``brocard`` that breaks one of these silently loses
per-layer metrics, so one short traced run guards all three.
"""

import cProfile
import fractions
import pstats
import sys
from pathlib import Path

import brocard.cli  # noqa: F401  (the tracer expects the CLI's modules loaded)
from brocard import checks, sceneio
from brocard.scene import SceneParams, generate_scene

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("calibrate", "run", "tracer")  # perfbench's top-level modules


def test_traced_run_sees_every_check_and_restores_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)
    try:
        import run
        import tracer

        assert "brocard.svgrender" in sys.modules
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
    # whose circle an earlier run may already have computed.
    unseen = {cid for cid in checks.THEOREM_CHECK_IDS if result.metrics[f"checks.{cid}_ms"][0] == 0}
    assert unseen <= {"check_lemma_cyclic"}
    assert {cid: getattr(checks, cid) for cid in checks.THEOREM_CHECK_IDS} == originals


#: Fraction operations of one ``run_suite`` on the seed-7 scene at caps 50,
#: with the memoised cyclic lemma computed afresh: 0 since the checks decide
#: on integer residuals and the Kwon draw runs on integer pairs, 17 before,
#: 24 while points, circles and complex numbers stored Fractions, 651 before
#: the point, complex and similarity layer moved onto integers.  Like the
#: tracer, it counts the operators and not the ``Fraction(n, d)``
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


#: Distinct check results in the seed-7 caps-50 report (scene seeds
#: 701..800): the validation PASS and the seventeen theorem PASS blocks.
DISTINCT_BLOCKS_SEED7 = 18


def test_report_encodes_each_distinct_block_once(monkeypatch, tmp_path):
    """The writer formats one block per distinct result, not one per
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
