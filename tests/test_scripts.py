"""Smoke tests of the experiment scripts, run as their users run them: as
separate processes with ``src`` on ``PYTHONPATH``; and of the README's
library example, run as printed."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from brocard.checks import THEOREM_CHECK_IDS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _assert_batch_table(scenes, *args):
    proc = run_script("batch_verify.py", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["check", "pass", "fail", "degenerate"]
    rows = [line.split() for line in lines[1:len(THEOREM_CHECK_IDS) + 1]]
    assert rows == [[cid, str(scenes), "0", "0"] for cid in THEOREM_CHECK_IDS]
    assert f"{scenes} scenes in" in proc.stdout


def test_batch_verify_table():
    _assert_batch_table(3, "--seeds", "1:3")


def test_batch_verify_table_small_caps():
    """A scene whose spiral lemma meets the tangent-circle limit."""
    _assert_batch_table(1, "--seeds", "46:46", "--numerator-cap", "2", "--denominator-cap", "2")


@pytest.mark.parametrize(
    "args, code, message",
    [
        (("--seeds", "1:3", "--numerator-cap", "1", "--denominator-cap", "1"), 1,
         "error: no valid scene within 500 attempts (seed 1)"),
        (("--seeds", "1-3"), 2, "error: argument --seeds: not a seed range lo:hi or a count: '1-3'"),
        (("--seeds", "1:"), 2, "error: argument --seeds: not a seed range lo:hi or a count: '1:'"),
        (("--numerator-cap", "0"), 2, "error: parameter caps must be positive"),
        (("--seeds", "1:3", "--denominator-cap", "-1"), 2, "error: parameter caps must be positive"),
        (("--seeds", "3:1"), 2, "error: argument --seeds: empty seed range: '3:1'"),
        (("--seeds", "0"), 2, "error: argument --seeds: empty seed range: '0'"),
    ],
)
def test_batch_verify_errors_without_traceback(args, code, message):
    """An exhausted seed exits 1 with one ``error:`` line, as ``brocard
    generate`` does; a malformed or empty range or a cap that is not
    positive is a usage error and exits 2."""
    proc = run_script("batch_verify.py", *args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(message)
    if code == 1:
        assert proc.stderr == message + "\n" and proc.stdout == ""


def test_render_gallery_writes_svgs(tmp_path):
    proc = run_script("render_gallery.py", "--seeds", "7", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["classical_0_1_3.svg", "scene_seed7.svg"]
    for name in written:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert "<svg " in text and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "args, message",
    [
        (("--seeds", "7,abc"), "error: argument --seeds: not comma-separated integer seeds: '7,abc'"),
        (("--digits", "-2"), "error: --digits must be nonnegative"),
    ],
)
def test_render_gallery_usage_errors_without_traceback(tmp_path, args, message):
    """A malformed seed list or a negative digit count is a usage error,
    reported before any figure is written."""
    out = tmp_path / "figures"
    proc = run_script("render_gallery.py", "--out-dir", str(out), *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(message)
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("where", ["a file", "under a file", "empty", "a figure name taken"])
def test_render_gallery_bad_out_dir_without_traceback(tmp_path, where):
    """An output directory that cannot be made, or a figure that cannot be
    written in it, exits 1 with one ``error:`` line, as ``brocard
    generate`` does on an ``OSError``, and writes nothing."""
    blocker = tmp_path / "figures"
    blocker.write_text("not a directory\n", encoding="utf-8")
    taken = tmp_path / "taken"
    (taken / "scene_seed7.svg").mkdir(parents=True)
    out = {"a file": blocker, "under a file": blocker / "sub", "empty": "", "a figure name taken": taken}[where]
    proc = run_script("render_gallery.py", "--seeds", "7", "--out-dir", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["figures", "scene_seed7.svg", "taken"]


def test_readme_library_example():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _run_output(correct, verify_ms, per_s):
    """What ``perfbench/run.py`` prints: a table, then its JSON line."""
    metrics = {
        "verify_scene_ms.p50": {"value": verify_ms, "unit": "ms"},
        "scenes_per_s": {"value": per_s, "unit": "1/s"},
    }
    line = json.dumps({"correct": correct, "attempted": 100, "failed": 0 if correct else 1, "metrics": metrics})
    return f"verify-caps50 seed 0 trace 0\n  verify_scene_ms.p50  {verify_ms}  ms\n{line}\n"


def test_bench_pairs_summary(monkeypatch):
    """Medians, the parent's quartiles and the pairs won, with the direction
    of each metric from BENCHMARK.json; an incorrect run is kept and named."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs

    parent = [bench_pairs.parse_result(_run_output(True, ms, s)) for ms, s in ((2.0, 100), (1.0, 120), (3.0, 90), (4.0, 80))]
    change = [bench_pairs.parse_result(_run_output(ok, ms, s)) for ok, ms, s in
              ((True, 1.5, 110), (False, 1.5, 110), (True, 2.0, 95), (True, 4.5, 70))]
    lines = bench_pairs.summarize(list(zip(parent, change)))
    assert lines == [
        "verify_scene_ms.p50: 2.5 [1.75, 3.25] -> 1.75 ms (2/4, -30.0%): unresolved",
        "scenes_per_s: 95 [87.5, 105] -> 102.5 1/s (2/4, +7.9%): unresolved",
        "parent: 4/4 runs correct",
        "change: 3/4 runs correct; incorrect or missing in pair(s) 2",
    ]
    assert bench_pairs.parse_result("no json here\n") is None
    assert bench_pairs.parse_result("") is None
    missing = bench_pairs.summarize([(parent[0], None)])
    assert missing[0] == "verify_scene_ms.p50: missing on one side"
    assert missing[-1] == "change: 0/1 runs correct; incorrect or missing in pair(s) 1"


def test_bench_pairs_verdict(monkeypatch):
    """The claim rule per metric: ``better`` at 9/10 pairs won with a median
    gap above the parent's IQR, ``worse`` at 9/10 lost with such a gap, and
    ``unresolved`` when either part fails."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs

    parent_ms = [1.30, 1.32, 1.31, 1.29, 1.33, 1.30, 1.34, 1.31, 1.28, 1.30]
    parent_s = [230, 231, 229, 232, 230, 228, 231, 230, 229, 233]
    # verify_scene_ms.p50 wins 9 of 10 pairs by more than the IQR;
    # scenes_per_s loses all 10 by more than the IQR.
    change = [(ms - 0.1 if i else ms + 0.01, s - 10) for i, (ms, s) in enumerate(zip(parent_ms, parent_s))]
    pairs = [
        (bench_pairs.parse_result(_run_output(True, p_ms, p_s)), bench_pairs.parse_result(_run_output(True, c_ms, c_s)))
        for p_ms, p_s, (c_ms, c_s) in zip(parent_ms, parent_s, change)
    ]
    lines = bench_pairs.summarize(pairs)
    assert lines[0] == "verify_scene_ms.p50: 1.305 [1.3, 1.317] -> 1.21 ms (9/10, -7.3%): better"
    assert lines[1] == "scenes_per_s: 230 [229.2, 231] -> 220 1/s (0/10, -4.3%): worse"
    # Eight pairs won is too few, and a gap inside the IQR is too small.
    assert bench_pairs.verdict(8, 2, 10, 0.1, 0.02) == "unresolved"
    assert bench_pairs.verdict(10, 0, 10, 0.01, 0.02) == "unresolved"
    assert bench_pairs.verdict(9, 1, 10, 0.03, 0.02) == "better"
    assert bench_pairs.verdict(0, 9, 10, -0.03, 0.02) == "worse"
    assert bench_pairs.verdict(0, 0, 0, 0.0, 0.0) == "unresolved"


def test_bench_pairs_help():
    proc = run_script("bench_pairs.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--workload" in proc.stdout and "--pairs" in proc.stdout
