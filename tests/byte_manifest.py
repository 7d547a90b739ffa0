"""sha256 digests of the outputs that ``byte_manifest.json`` pins.

The outputs are those of ``brocard.cli.main``, run in this process in a
temporary directory: ``generate --seed 701 --count 100`` at caps 50, at
caps 10^12 and with ``--strict-segments``; ``verify --report`` of each of
those files, with its exit code and stdout; and ``classical --report`` on
the three pinned parameter sets, with its exit code and stdout.  Scene and
report bytes depend only on the input and the tool version, so every
interpreter the package supports gives the same digests::

    PYTHONPATH=src python3 tests/byte_manifest.py           # print them as JSON
    PYTHONPATH=src python3 tests/byte_manifest.py --write   # rewrite the manifest

``tests/test_byte_manifest.py`` compares them with the manifest under the
running interpreter and, in child processes, under the other installed ones.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("byte_manifest.json")
BIG_CAP = str(10**12)
GENERATE = {
    "caps50": (),
    "caps1e12": ("--numerator-cap", BIG_CAP, "--denominator-cap", BIG_CAP),
    "strict": ("--strict-segments",),
}
CLASSICAL = ("0,1,-1", "0,1,3", "1/2,-3,7/5")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    """The exit code and stdout of ``brocard`` on argv, as one text."""
    from brocard.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def digests() -> dict:
    """Output name -> sha256 hex digest, in a fixed order."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, extra in GENERATE.items():
            scenes, report = Path(tmp, f"{name}.json"), Path(tmp, f"{name}-report.json")
            _run(["generate", "--seed", "701", "--count", "100", "--out", str(scenes), *extra])
            stdout = _run(["verify", "--in", str(scenes), "--report", str(report)])
            result[f"generate {name}"] = _sha(scenes.read_bytes())
            result[f"verify {name} report"] = _sha(report.read_bytes())
            result[f"verify {name} stdout"] = _sha(stdout.encode())
        for params in CLASSICAL:
            report = Path(tmp, "classical-report.json")
            stdout = _run(["classical", "--params", params, "--report", str(report)])
            result[f"classical {params} report"] = _sha(report.read_bytes())
            result[f"classical {params} stdout"] = _sha(stdout.encode())
    return result


if __name__ == "__main__":
    text = json.dumps(digests(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(text)
    elif sys.argv[1:]:
        sys.exit("usage: byte_manifest.py [--write]")
    else:
        sys.stdout.write(text)
