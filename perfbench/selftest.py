"""Self-tests of the benchmark harness.

Run from the root of a checkout (about 20 seconds)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import MODULES, import_brocard, measure_layers  # noqa: E402

SEED = 7
SCENES = 4


def exact_count(name: str) -> bool:
    return (
        name.endswith(".calls")
        or name.endswith("_bytes")
        or name in ("geom.fraction_ops", "scene.attempts_per_scene", "pipeline.builds_per_scene",
                    "pipeline.rejected_builds", "pipeline.max_bits")
    )


def unreduce_first_coordinate(path: Path) -> None:
    """Rewrite the first scene's ``a.x`` as ``2p/2q``: the same value, not
    in lowest terms, which the scene reader must reject."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    num, _, den = doc["scenes"][0]["a"][0].partition("/")
    doc["scenes"][0]["a"][0] = f"{2 * int(num)}/{2 * int(den or 1)}"
    path.write_bytes((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


class TracedRun(unittest.TestCase):
    def test_traced_run_writes_the_untraced_bytes(self):
        for name in ("verify-caps50", "generate-strict"):
            result = measure_layers(run.WORKLOADS[name], SEED, count=SCENES)
            self.assertEqual(result.problems, [], name)
            self.assertTrue(result.correct, name)
            self.assertEqual(result.failed, 0, name)

    def test_every_patch_is_restored(self):
        brocard = import_brocard()
        modules = [brocard] + [getattr(brocard, m) for m in MODULES]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
        measure_layers(run.WORKLOADS["verify-caps50"], SEED, count=1)
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
        self.assertEqual(before, after)

    def test_counts_repeat_exactly(self):
        w = run.WORKLOADS["generate-strict"]
        first = measure_layers(w, SEED, count=SCENES).metrics
        second = measure_layers(w, SEED, count=SCENES).metrics
        counts = sorted(name for name in first if exact_count(name))
        self.assertEqual(len(counts), 18)
        for name in counts:
            self.assertEqual(first[name], second[name], name)
        self.assertGreaterEqual(first["pipeline.builds_per_scene"][0], 2)

    def test_every_per_layer_metric_is_reported(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = measure_layers(run.WORKLOADS["verify-caps50"], SEED, count=2).metrics
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)


class Calibration(unittest.TestCase):
    def test_pieces_are_scaled_by_the_reference_speed(self):
        # Two scenes of 0.1 s each, on a core where the reference work ran
        # at half speed, then 0.05 s writing the file.
        ref = 2 * run.REFERENCE_S
        lines = [(1.0 + ref, f"ref {ref:.9f}"), (1.1 + ref, "generated 0"),
                 (1.1 + 2 * ref, f"ref {ref:.9f}"), (1.2 + 2 * ref, "generated 1")]
        child = run.Child(1.0, 0.25 + 2 * ref, 0, lines, 0)
        pieces = run.scaled_pieces_s(child, run._GENERATED_LINE)
        for got, want in zip(pieces, (0.05, 0.05, 0.025)):
            self.assertAlmostEqual(got, want)


class EndToEnd(unittest.TestCase):
    def test_default_seed_matches_fingerprints(self):
        w = run.WORKLOADS["verify-caps50"]
        result = run.measure_end_to_end(w, run.DEFAULT_SEED, 0, min_iterations=1)
        self.assertEqual(result.problems, [])
        self.assertTrue(result.correct)
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in result.metrics.items()}, declared)

    def test_tampered_scene_file_fails_the_gate(self):
        w = run.WORKLOADS["verify-caps50"]
        result = run.measure_end_to_end(
            w, run.DEFAULT_SEED, 0, tamper=unreduce_first_coordinate, min_iterations=1
        )
        self.assertFalse(result.correct)
        self.assertGreater(result.failed / result.attempted, 0)
        self.assertLess(result.metrics["ok_ratio"][0], 1)
        self.assertIn("scene file fingerprint mismatch", result.problems)
        self.assertIn("verify exited 1", result.problems)


if __name__ == "__main__":
    unittest.main()
