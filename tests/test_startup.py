"""Start-up and exit: the modules each command loads, the lazy package
surface, and the heap a command process freezes before it exits.

Each command runs in a fresh interpreter that prints ``sys.modules`` when
the command returns, so the load sets are gated exactly, not by time.
"""

import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brocard
import test_io_cli
from brocard import checks, svgrender
from brocard.cli import main
from brocard.geom import Point
from brocard.sceneio import read_scene_file, write_scene_file

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``brocard.cli.main`` on the arguments, then prints its exit code and
# the loaded module names as one JSON line.
PROBE = "import json, sys, brocard.cli; code = brocard.cli.main(sys.argv[1:]); print(json.dumps([code, sorted(sys.modules)]))"

BASE = {"brocard", "brocard.cli", "brocard.geom", "brocard.scene", "brocard.pipeline", "brocard.sceneio"}

# The console script: ``brocard.cli.main``, whose code is the exit status.
CLI = "import sys, brocard.cli; sys.exit(brocard.cli.main(sys.argv[1:]))"

# Registered before the program imports brocard, so that it runs after
# brocard's own exit hook (hooks run last in, first out), and prints the
# number of frozen objects as the last line.
FREEZE_PROBE = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count()))\n"


def child(program, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def loaded(program, *argv, cwd):
    proc = child(program, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_argvs(tmp_path):
    """One call of each command, in an order in which each one's input exists."""
    scenes = str(tmp_path / "scenes.json")
    return [
        ["generate", "--seed", "7", "--count", "2", "--out", scenes],
        ["verify", "--in", scenes, "--report", str(tmp_path / "report.json")],
        ["render", "--in", scenes, "--out", str(tmp_path / "fig.svg")],
        ["classical", "--params", "0,1,3"],
    ]


def test_each_command_loads_only_what_it_runs(tmp_path):
    # Each command's brocard modules, and whether it loads ``hashlib``.
    loads = {
        "generate": (BASE, False),
        "verify": (BASE | {"brocard.checks"}, True),
        "render": (BASE | {"brocard.svgrender"}, False),
        "classical": (BASE | {"brocard.checks"}, True),
    }
    for argv in command_argvs(tmp_path):
        expected, digest = loads[argv[0]]
        code, modules = loaded(PROBE, *argv, cwd=tmp_path)
        assert code == 0, argv
        assert {m for m in modules if m.split(".")[0] == "brocard"} == expected, argv[0]
        assert ("hashlib" in modules) == digest, argv[0]


def test_no_command_loads_dataclasses(tmp_path):
    """``dataclasses`` and the modules it imports cost each process several
    milliseconds; ``import brocard.cli`` and every command run without them,
    and only introspecting a record (``dataclasses.fields``) loads them."""
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    program = "import json, sys, brocard.cli; print(json.dumps(sorted(sys.modules)))"
    assert heavy.isdisjoint(loaded(program, cwd=tmp_path))
    for argv in command_argvs(tmp_path):
        code, modules = loaded(PROBE, *argv, cwd=tmp_path)
        assert code == 0 and heavy.isdisjoint(modules), argv[0]
    program = (
        "import json, sys\n"
        "from brocard.scene import SceneParams\n"
        "params = SceneParams(seed=3)\n"
        "steps = ['dataclasses' in sys.modules]\n"
        "names = list(SceneParams.__dataclass_fields__)\n"
        "steps.append('dataclasses' in sys.modules)\n"
        "print(json.dumps([steps, names]))"
    )
    assert loaded(program, cwd=tmp_path) == [
        [False, True],
        ["seed", "center", "radius", "numerator_cap", "denominator_cap", "strict_segments"],
    ]


def test_a_cli_process_freezes_its_heap_at_exit(tmp_path):
    """Finalization skips the frozen heap.  Importing ``brocard.cli`` freezes
    it at exit, after every command and after a bare import; the package and
    the modules a library uses register nothing."""
    assert loaded(FREEZE_PROBE + "import brocard.cli", cwd=tmp_path) > 0
    assert loaded(FREEZE_PROBE + "import brocard, brocard.checks, brocard.pipeline", cwd=tmp_path) == 0
    for argv in command_argvs(tmp_path):
        assert loaded(FREEZE_PROBE + CLI, *argv, cwd=tmp_path) > 0, argv[0]


def test_an_in_process_call_freezes_nothing(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    for argv in command_argvs(tmp_path):
        assert main(argv) == 0, argv[0]
        assert gc.get_freeze_count() == frozen, argv[0]


def _total_line(report):
    summary = json.loads(report.read_text())["summary"]
    return f"total: {summary['pass']} pass, {summary['fail']} fail, {summary['degenerate']} degenerate\n"


def test_a_cli_process_writes_everything_before_it_exits(tmp_path, capsys):
    """The byte gates run ``main`` in process, which never reaches the exit
    hook; here each command is its own process, as a user runs it."""
    _, scene_sha, report_sha = test_io_cli.TestBenchBytes.WORKLOADS["verify-caps50"]
    scenes, report = tmp_path / "s.json", tmp_path / "r.json"
    gen = child(CLI, "generate", "--seed", "701", "--count", "100", "--out", str(scenes), cwd=tmp_path)
    assert (gen.returncode, gen.stdout, gen.stderr) == (0, f"wrote 100 scene(s) to {scenes}\n", "")
    ver = child(CLI, "verify", "--in", str(scenes), "--report", str(report), cwd=tmp_path)
    assert (ver.returncode, ver.stderr) == (0, "")
    assert hashlib.sha256(scenes.read_bytes()).hexdigest() == scene_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
    assert ver.stdout.endswith(_total_line(report))

    # A moved A1 fails validation: the process exits 1 with the same report
    # and lines as an in-process run, and every scene in the report.
    originals, provenance = read_scene_file(str(scenes))
    first = originals[0]
    edited = tmp_path / "edited.json"
    write_scene_file(
        str(edited), [dataclasses.replace(first, a1=first.a1 + Point(Fraction(1, 3), 0)), *originals[1:]], provenance
    )
    failed, in_process = tmp_path / "failed.json", tmp_path / "in_process.json"
    ver = child(CLI, "verify", "--in", str(edited), "--report", str(failed), cwd=tmp_path)
    assert (ver.returncode, ver.stderr) == (1, "")
    assert main(["verify", "--in", str(edited), "--report", str(in_process)]) == 1
    assert ver.stdout == capsys.readouterr().out
    assert failed.read_bytes() == in_process.read_bytes()
    doc = json.loads(failed.read_text())
    assert len(doc["scenes"]) == 100 and doc["summary"]["fail"] > 0
    assert ver.stdout.endswith(_total_line(failed))


def test_bare_import_loads_no_submodule(tmp_path):
    """``import brocard`` loads nothing more; reading a name off the package
    loads its defining module, and a submodule name loads that submodule."""
    program = (
        "import json, sys, brocard\n"
        "seen = lambda: [m for m in sorted(sys.modules) if m.startswith('brocard')]\n"
        "steps = [seen()]\n"
        "brocard.Point\n"
        "steps.append(seen())\n"
        "brocard.svgrender\n"
        "steps.append(seen())\n"
        "print(json.dumps(steps))"
    )
    assert loaded(program, cwd=tmp_path) == [
        ["brocard"],
        ["brocard", "brocard.geom"],
        ["brocard", "brocard.geom", "brocard.pipeline", "brocard.scene", "brocard.svgrender"],
    ]


def test_every_export_is_its_defining_modules_object():
    for name in brocard.__all__:
        value = getattr(brocard, name)
        home = {"THEOREM_CHECK_IDS": "brocard.checks", "__version__": "brocard"}.get(name) or value.__module__
        assert getattr(sys.modules[home], name) is value, name
    assert brocard.run_suite is checks.run_suite


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from brocard import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(brocard.__all__)


def test_dir_covers_exports_and_submodules():
    assert set(brocard.__all__) | {"checks", "cli", "svgrender"} <= set(dir(brocard))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(brocard, "no_such_name")


def test_render_help_lists_exactly_the_layers(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["render", "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"comma-separated subset of: (.*?) --digits", help_text).group(1)
    assert tuple(listed.split(", ")) == svgrender.LAYERS == brocard.LAYERS
