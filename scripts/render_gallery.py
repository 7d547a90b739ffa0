#!/usr/bin/env python3
"""Render a small gallery of figures: a few generated scenes plus the
classical specialization, as SVG files in an output directory.

Example:
    python scripts/render_gallery.py --out-dir figures --seeds 7,11,42
"""

import argparse
import os
import sys

from brocard.pipeline import compute_configuration
from brocard.scene import SceneParams, classical_brocard_scene, generate_scene
from brocard.svgrender import render_svg


def parse_seeds(text: str):
    """Comma-separated integer seeds; empty entries are skipped."""
    try:
        return [int(seed) for seed in text.split(",") if seed.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integer seeds: {text!r}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    parser.add_argument("--seeds", type=parse_seeds, default="7,11,42", help="comma-separated seeds")
    parser.add_argument("--digits", type=int, default=9)
    args = parser.parse_args()
    if args.digits < 0:
        parser.error("--digits must be nonnegative")

    jobs = [(f"scene_seed{seed}", generate_scene(SceneParams(seed=seed))) for seed in args.seeds]
    jobs.append(("classical_0_1_3", classical_brocard_scene(0, 1, 3)))

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, scene in jobs:
            cfg = compute_configuration(scene)
            path = os.path.join(args.out_dir, f"{name}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_svg(scene, cfg, digits=args.digits))
            print(f"wrote {path}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
