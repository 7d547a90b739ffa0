"""Bytes across interpreters: ``byte_manifest.json`` pins the sha256 of the
scene files, reports and stdout that ``byte_manifest.py`` lists.  The running
interpreter must give them in process, and each other installed CPython the
package supports in a child process.  The others are found by path, under
pyenv's versions directory, and an interpreter that is not there is skipped
with its path as the reason."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import byte_manifest

ROOT = Path(__file__).resolve().parent.parent
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
OTHER_VERSIONS = ("3.10.13", "3.12.1", "3.13.0")


def _expected() -> dict:
    return json.loads(byte_manifest.MANIFEST.read_text())


@pytest.fixture(scope="module")
def children():
    """One child per installed interpreter, all started at once, printing
    its digests; the version -> process of each that was found."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = {}
    for version in OTHER_VERSIONS:
        exe = PYENV_VERSIONS / version / "bin" / "python3"
        if exe.is_file():
            procs[version] = subprocess.Popen(
                [str(exe), str(Path(byte_manifest.__file__).resolve())],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def test_this_interpreter_gives_the_manifest(children):
    assert byte_manifest.digests() == _expected(), sys.version


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_other_interpreter_gives_the_manifest(children, version):
    if version not in children:
        pytest.skip(f"{PYENV_VERSIONS / version / 'bin' / 'python3'} not found")
    out, err = children[version].communicate(timeout=120)
    assert children[version].returncode == 0, err
    assert json.loads(out) == _expected(), version
