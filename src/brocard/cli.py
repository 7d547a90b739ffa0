"""Command-line front end: generate | verify | render | classical.

Exit codes: 0 on success (and on verification with zero FAILs), 1 on any
FAIL or runtime failure, 2 on a usage error.  The commands raise and
``main`` alone reports, with one ``error:`` line: a usage error
(``argparse.ArgumentTypeError``, which ``_usage`` makes of a library
validator's ``ValueError``) exits 2, and ``OSError``, ``SceneFormatError``,
``GeometryError`` and ``CommandFailed`` exit 1; a broken pipe exits 1
silently.  A program fault, such as ``InternalInconsistencyError`` or any
other ``ValueError``, escapes with its traceback.  Relative output paths
resolve against BROCARD_OUT_DIR when that environment variable is set.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import LAYERS
from .geom import GeometryError, Point, rat
from .scene import Scene, SceneParams, classical_brocard_scene, generate_scene, validate_scene
from .sceneio import (
    SceneFormatError,
    file_digest,
    rational_to_str,
    read_scene_file,
    write_report_file,
    write_scene_file,
)

if TYPE_CHECKING:
    from .checks import SuiteReport

# A command imports the modules that only it runs in its own body, so that
# ``generate`` loads neither ``checks`` nor ``svgrender``.  Finalization need
# not collect the heap, since every file is closed by ``with``: an exit hook
# freezes it, and an in-process ``main`` call, never exiting, freezes nothing.
atexit.register(gc.freeze)

OUT_DIR_ENV = "BROCARD_OUT_DIR"


class CommandFailed(Exception):
    """A runtime failure of a command that no library error names."""


def run_suite(scene: Scene, check_ids: Optional[Sequence[str]] = None) -> SuiteReport:
    """``checks.run_suite``, loading ``checks`` on the first call.  The
    commands look it up in this module, so a caller that replaces it here,
    as ``perfbench/cli_child.py`` does, sees every suite run."""
    from .checks import run_suite

    return run_suite(scene, check_ids)


def _out_path(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _usage(validate, *args, **kwargs):
    """``validate(*args, **kwargs)``, with its ``ValueError`` a usage error."""
    try:
        return validate(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_rational(text: str) -> Fraction:
    try:
        return rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _parse_rational_list(text: str, count: int, what: str) -> List[Fraction]:
    values = [_parse_rational(p) for p in text.split(",")]
    if len(values) != count:
        raise argparse.ArgumentTypeError(f"{what} needs {count} comma-separated rationals")
    return values


def _point_str(p: Point) -> str:
    return f"({rational_to_str(p.x)}, {rational_to_str(p.y)})"


def _classical_scene(args: argparse.Namespace) -> Tuple[Scene, List[Fraction]]:
    """The classical scene of ``--params``, ``--center`` and ``--radius``,
    and its parameters.  A usage error when they define none."""
    ts = _parse_rational_list(args.params, 3, "--params")
    return _usage(classical_brocard_scene, *ts, center=args.center, radius=args.radius), ts


def cmd_generate(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    if args.classical:
        if args.params is None:
            raise argparse.ArgumentTypeError("--classical requires --params t1,t2,t3")
        scene, ts = _classical_scene(args)
        if args.count != 1:
            raise argparse.ArgumentTypeError("--classical produces exactly one scene")
        scenes = [scene]
        provenance = {"kind": "classical", "params": [rational_to_str(t) for t in ts]}
    elif args.params is not None:
        raise argparse.ArgumentTypeError("--params requires --classical")
    else:
        scenes = []
        provenance = {
            "kind": "generated",
            "seed": args.seed,
            "count": args.count,
            "numerator_cap": args.numerator_cap,
            "denominator_cap": args.denominator_cap,
            "strict_segments": args.strict_segments,
        }
        shape = dict(
            center=args.center,
            radius=args.radius,
            numerator_cap=args.numerator_cap,
            denominator_cap=args.denominator_cap,
            strict_segments=args.strict_segments,
        )
        _usage(SceneParams, seed=args.seed, **shape)  # a cap or the radius is not positive
        for sub_seed in range(args.seed, args.seed + args.count):
            scenes.append(generate_scene(SceneParams(seed=sub_seed, **shape)))
    write_scene_file(out, scenes, provenance)
    print(f"wrote {len(scenes)} scene(s) to {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import check_suite_ids

    check_ids = None
    if args.checks is not None:
        check_ids = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not check_ids:
            raise argparse.ArgumentTypeError("--checks names no check id")
        _usage(check_suite_ids, check_ids)
    scenes, _ = read_scene_file(args.infile)
    reports = []
    for index, scene in enumerate(scenes):
        report = run_suite(scene, check_ids)
        reports.append(report)
        counts = report.counts
        print(
            f"scene {index}: {len(report.results)} checks, "
            f"{counts['PASS']} pass, {counts['FAIL']} fail, {counts['DEGENERATE']} degenerate"
        )
        for result in report.results:
            if result.status == "FAIL":
                for assertion in result.failed_assertions:
                    witnesses = ", ".join(rational_to_str(w) for w in assertion.witnesses)
                    print(f"  FAIL {result.check_id}: {assertion.label} (witness {witnesses})")
    total_fail = sum(r.counts["FAIL"] for r in reports)
    total_pass = sum(r.counts["PASS"] for r in reports)
    total_deg = sum(r.counts["DEGENERATE"] for r in reports)
    print(f"total: {total_pass} pass, {total_fail} fail, {total_deg} degenerate")
    if args.report:
        write_report_file(_out_path(args.report), reports, file_digest(args.infile))
    return 0 if total_fail == 0 else 1


def cmd_render(args: argparse.Namespace) -> int:
    from .pipeline import compute_configuration
    from .svgrender import check_layers, render_svg

    layers = LAYERS
    if args.layers is not None:
        layers = tuple(l.strip() for l in args.layers.split(",") if l.strip())
    _usage(check_layers, layers)
    scenes, _ = read_scene_file(args.infile)
    if not 0 <= args.index < len(scenes):
        raise CommandFailed(f"index {args.index} out of range (file has {len(scenes)} scenes)")
    scene = scenes[args.index]
    violations = validate_scene(scene)
    if violations:
        for violation in violations:
            print(f"error: scene {args.index} is invalid: {violation}", file=sys.stderr)
        return 1
    try:
        cfg = compute_configuration(scene) if any(l != "scene" for l in layers) else None
        svg = render_svg(scene, cfg, layers, digits=args.digits)
    except GeometryError as exc:
        raise CommandFailed(f"configuration degenerate, render scene layer only: {exc}") from exc
    out = _out_path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


def cmd_classical(args: argparse.Namespace) -> int:
    from .checks import _suite

    scene, ts = _classical_scene(args)
    report, cfg = _suite(scene, None)
    if cfg is None:
        print(f"degenerate classical scene: {report.results[-1].notes[0]}")
    else:
        overlay = cfg.overlay
        print(f"R = {_point_str(cfg.r)}")
        print(f"K = {_point_str(overlay.k)}  (R == K: {cfg.r == overlay.k})")
        print(f"tan(Brocard angle) = {rational_to_str(overlay.tan_brocard)}")
        print(f"Omega  = {_point_str(cfg.p)}")
        print(f"Omega' = {_point_str(cfg.q)}")
    counts = report.counts
    print(
        f"suite: {counts['PASS']} pass, {counts['FAIL']} fail, {counts['DEGENERATE']} degenerate"
    )
    if args.report:
        digest = "params:" + ",".join(rational_to_str(t) for t in ts)
        write_report_file(_out_path(args.report), [report], digest)
    return 0 if counts["FAIL"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brocard",
        description="Exact verification of generalized Brocard configurations on rational scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    center, radius = SceneParams.center, SceneParams.radius

    def add_circle_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--center",
            type=lambda t: Point(*_parse_rational_list(t, 2, "--center")),
            default=center,
            help=f"circle center as x,y rationals (default {center.x},{center.y})",
        )
        p.add_argument("--radius", type=_parse_rational, default=radius, help=f"rational radius (default {radius})")

    gen = sub.add_parser("generate", help="generate validated rational scenes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.add_argument("--numerator-cap", type=int, default=SceneParams.numerator_cap)
    gen.add_argument("--denominator-cap", type=int, default=SceneParams.denominator_cap)
    gen.add_argument("--strict-segments", action="store_true")
    gen.add_argument("--classical", action="store_true", help="build one classical scene from --params")
    gen.add_argument("--params", help="three comma-separated rationals for --classical")
    add_circle_args(gen)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the exact check suite on a scene file")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--report", help="write a report file")
    ver.add_argument("--checks", help="comma-separated check ids to run")
    ver.set_defaults(func=cmd_verify)

    ren = sub.add_parser("render", help="emit an SVG figure for one scene")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--index", type=int, default=0)
    ren.add_argument("--out", required=True)
    ren.add_argument("--layers", help=f"comma-separated subset of: {', '.join(LAYERS)}")
    ren.add_argument("--digits", type=int, default=9, help="decimal digits in rendered coordinates")
    ren.set_defaults(func=cmd_render)

    cla = sub.add_parser("classical", help="verify a classical scene and print its exact invariants")
    cla.add_argument("--params", required=True, help="three comma-separated rationals")
    cla.add_argument("--report", help="write a report file")
    add_circle_args(cla)
    cla.set_defaults(func=cmd_classical)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.count < 1:
        parser.error("--count must be at least 1")
    if args.command == "render" and args.digits < 0:
        parser.error("--digits must be nonnegative")
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, reported by no line
        return 1
    except (argparse.ArgumentTypeError, OSError, SceneFormatError, GeometryError, CommandFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, argparse.ArgumentTypeError) else 1


if __name__ == "__main__":
    sys.exit(main())
