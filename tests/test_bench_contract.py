"""The benchmark's in-process tracer, run as it is on the checked-out code.

``perfbench/tracer.py`` wraps ``brocard.checks.<id>`` for every id of
``THEOREM_CHECK_IDS``, reads every module of its ``MODULES`` off the
package after ``import brocard.cli``, and restores each patch when a pass
ends.  A refactor of ``brocard`` that breaks one of these silently loses
per-layer metrics, so one short traced run guards all three.
"""

import sys
from pathlib import Path

import brocard.cli  # noqa: F401  (the tracer expects the CLI's modules loaded)
from brocard import checks

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
