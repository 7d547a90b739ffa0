"""``brocard`` as its console script runs it, with a timed piece of
reference work before each scene and one ``generated i`` line per accepted
scene on stdout.

``generate`` prints nothing until it has written the whole file, so the
benchmark could only time it whole.  The ``generated i`` lines let it cut
the generate child into one piece per scene, as it cuts ``verify`` at its
``scene i:`` lines.  Before each scene of either command the child runs
``calibrate.reference_work`` and prints its time as ``ref <seconds>``, so
that the benchmark can scale each piece by the machine's speed at that
moment (see ``calibrate.py``).  The scenes, the files and the exit code
are the CLI's own.

    PYTHONPATH=src python3 -u perfbench/cli_child.py generate --seed 1 --count 10 --out scenes.json
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import brocard.cli
from calibrate import reference_s


def calibrated(fn: Callable[..., Any], progress: Callable[[], None] = lambda: None) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        print(f"ref {reference_s():.9f}")
        result = fn(*args, **kwargs)
        progress()
        return result

    return wrapper


def main() -> int:
    accepted = 0

    def generated() -> None:
        nonlocal accepted
        print(f"generated {accepted}")
        accepted += 1

    brocard.cli.generate_scene = calibrated(brocard.cli.generate_scene, generated)
    brocard.cli.run_suite = calibrated(brocard.cli.run_suite)
    return brocard.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
