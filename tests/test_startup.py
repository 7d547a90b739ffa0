"""Start-up: the modules each command loads, and the lazy package surface.

Each command runs in a fresh interpreter that prints ``sys.modules`` when
the command returns, so the load sets are gated exactly, not by time.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brocard
from brocard import checks, svgrender
from brocard.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``brocard.cli.main`` on the arguments, then prints its exit code and
# the loaded module names as one JSON line.
PROBE = "import json, sys, brocard.cli; code = brocard.cli.main(sys.argv[1:]); print(json.dumps([code, sorted(sys.modules)]))"

BASE = {"brocard", "brocard.cli", "brocard.geom", "brocard.scene", "brocard.pipeline", "brocard.sceneio"}


def loaded(program, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_loads_only_what_it_runs(tmp_path):
    scenes, report = str(tmp_path / "scenes.json"), str(tmp_path / "report.json")
    commands = [
        (["generate", "--seed", "7", "--count", "2", "--out", scenes], BASE, False),
        (["verify", "--in", scenes, "--report", report], BASE | {"brocard.checks"}, True),
        (["render", "--in", scenes, "--out", str(tmp_path / "fig.svg")], BASE | {"brocard.svgrender"}, False),
        (["classical", "--params", "0,1,3"], BASE | {"brocard.checks"}, True),
    ]
    for argv, expected, digest in commands:
        code, modules = loaded(PROBE, *argv, cwd=tmp_path)
        assert code == 0, argv
        assert {m for m in modules if m.split(".")[0] == "brocard"} == expected, argv[0]
        assert ("hashlib" in modules) == digest, argv[0]


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
