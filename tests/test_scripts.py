"""Smoke tests of the experiment scripts, run as their users run them: as
separate processes with ``src`` on ``PYTHONPATH``; and of the README's
library example, run as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_render_gallery_writes_svgs(tmp_path):
    proc = run_script("render_gallery.py", "--seeds", "7", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["classical_0_1_3.svg", "scene_seed7.svg"]
    for name in written:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert "<svg " in text and text.rstrip().endswith("</svg>")


def test_readme_library_example():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
