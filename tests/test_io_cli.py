"""Persistence and CLI contracts: lossless round trips, canonical-bytes
determinism, exit codes, SVG output."""

import collections
import contextlib
import dataclasses
import enum
import functools
import hashlib
import io
import json
import os
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, reject, settings

from brocard import __version__, checks, pipeline
from brocard.checks import (
    DEGENERATE,
    FAIL,
    PASS,
    SPIRAL_SCALE,
    Assertion,
    CheckResult,
    SuiteReport,
    build_spiral_points,
    check_equidistant,
    check_lemma_spiral,
    run_suite,
)
from brocard.cli import main
from brocard.geom import Circle, ComplexScalar, GeometryError, Point
from brocard.pipeline import compute_configuration
from brocard.scene import (
    SceneParams,
    classical_brocard_scene,
    generate_scene,
    scene_from_parameters,
    validate_scene,
)
from brocard.sceneio import (
    SCENE_FORMAT,
    SceneFormatError,
    _canonical_bytes,
    _ratio_from_str,
    canonical_text,
    rational_to_str,
    read_scene_file,
    scene_digest,
    scene_from_dict,
    scene_to_dict,
    scenes_to_document,
    write_report_file,
    write_scene_file,
)

from test_pipeline import COLLAPSE_SCENE


class TestRationalStrings:
    """The scene parser's rationals: ``_ratio_from_str`` accepts exactly
    the text ``rational_to_str`` writes, as its lowest-terms pair."""

    def test_round_trip(self):
        for v in (F(0), F(3), F(-7, 2), F(22, 7)):
            assert _ratio_from_str(rational_to_str(v)) == (v.numerator, v.denominator)

    @given(st.fractions() | st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)))
    def test_canonical_round_trip(self, v):
        text = rational_to_str(v)
        assert _ratio_from_str(text) == (v.numerator, v.denominator)
        assert rational_to_str(F(*_ratio_from_str(text))) == text

    def test_plain_integer_rejected(self):
        with pytest.raises(SceneFormatError):
            _ratio_from_str("5")

    @pytest.mark.parametrize(
        "text",
        [
            "6_260/35891", " 3/4", "3/4 ", "3/4\n", "+3/4", "-0/1", "03/4", "3/04",
            "-3/+4", "3/", "/4", "3/4/5", "", "\u0663/4", "1/0", "0/5",
        ],
    )
    def test_non_canonical_rejected(self, text):
        with pytest.raises(SceneFormatError):
            _ratio_from_str(text)

    def test_not_lowest_terms_rejected(self):
        with pytest.raises(SceneFormatError, match="lowest terms"):
            _ratio_from_str("2/4")

    def test_negative_denominator_rejected(self):
        with pytest.raises(SceneFormatError):
            _ratio_from_str("1/-2")

    def test_garbage_rejected(self):
        with pytest.raises(SceneFormatError):
            _ratio_from_str("a/b")


class TestSceneRoundTrip:
    def test_structural_identity(self):
        s = generate_scene(SceneParams(seed=7))
        assert scene_from_dict(scene_to_dict(s)) == s

    def test_classical_round_trip(self):
        s = classical_brocard_scene(0, 1, -1)
        back = scene_from_dict(scene_to_dict(s))
        assert back == s and back.classical

    def test_file_round_trip(self, tmp_path):
        scenes = [generate_scene(SceneParams(seed=s)) for s in (1, 2)]
        path = tmp_path / "scenes.json"
        write_scene_file(str(path), scenes, {"seed": 1})
        loaded, prov = read_scene_file(str(path))
        assert loaded == scenes and prov == {"seed": 1}

    def test_digest_stable_and_content_sensitive(self):
        s1 = generate_scene(SceneParams(seed=7))
        s2 = generate_scene(SceneParams(seed=8))
        assert scene_digest(s1) == scene_digest(s1)
        assert scene_digest(s1) != scene_digest(s2)

    def test_missing_flags_read_as_false(self):
        d = scene_to_dict(generate_scene(SceneParams(seed=7)))
        del d["classical"], d["strict_segments"]
        s = scene_from_dict(d)
        assert not s.classical and not s.strict_segments

    @pytest.mark.parametrize("key", ["classical", "strict_segments"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_flags_must_be_json_booleans(self, key, value):
        d = scene_to_dict(generate_scene(SceneParams(seed=7)))
        d[key] = value
        with pytest.raises(SceneFormatError):
            scene_from_dict(d)

    def test_missing_field_rejected(self):
        s = generate_scene(SceneParams(seed=7))
        d = scene_to_dict(s)
        del d["a1"]
        with pytest.raises(SceneFormatError):
            scene_from_dict(d)

    @pytest.mark.parametrize("key", ["clasical", "strict-segments", "gama", "Classical", ""])
    def test_unknown_scene_key_rejected(self, key):
        d = scene_to_dict(classical_brocard_scene(0, 1, 3))
        d[key] = d.pop("classical")
        with pytest.raises(SceneFormatError, match=f"unknown keys {key!r}"):
            scene_from_dict(d)

    def test_unknown_document_key_rejected(self, tmp_path, capsys):
        doc = scenes_to_document([classical_brocard_scene(0, 1, 3)], {"note": "free-form"})
        doc["provenence"] = doc.pop("provenance")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="unknown keys 'provenence'"):
            read_scene_file(str(path))
        assert main(["verify", "--in", str(path)]) == 1
        assert main(["render", "--in", str(path), "--out", str(tmp_path / "o.svg")]) == 1
        assert "provenence" in capsys.readouterr().err

    def test_misspelled_flag_is_a_format_error(self, tmp_path, capsys):
        doc = scenes_to_document([classical_brocard_scene(0, 1, 3)])
        doc["scenes"][0]["clasical"] = doc["scenes"][0].pop("classical")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(path)]) == 1
        assert main(["render", "--in", str(path), "--out", str(tmp_path / "o.svg")]) == 1
        err = capsys.readouterr().err
        assert "scenes[0]: unknown keys 'clasical'" in err and "invalid" not in err

    def test_provenance_keys_are_free_form(self, tmp_path):
        prov = {"anything": {"nested": [1, "x"]}, "clasical": True}
        path = tmp_path / "s.json"
        write_scene_file(str(path), [classical_brocard_scene(0, 1, 3)], prov)
        assert read_scene_file(str(path))[1] == prov

    @pytest.mark.parametrize("value", [None, 0, "", [], "seed 1", [1]])
    def test_provenance_must_be_an_object(self, tmp_path, value):
        doc = scenes_to_document([generate_scene(SceneParams(seed=7))])
        doc["provenance"] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="provenance"):
            read_scene_file(str(path))

    @pytest.mark.parametrize(
        "number",
        ["1.5", "1e3", "-0.0", "NaN", "Infinity", pytest.param("9" * 5000, id="5000-digit-int")],
    )
    def test_non_canonical_numbers_rejected(self, tmp_path, capsys, number):
        """Floats are not written and cannot round-trip; integers beyond
        the interpreter's conversion limit cannot be read back either."""
        doc = scenes_to_document([generate_scene(SceneParams(seed=7))])
        text = json.dumps(doc).replace('"provenance": {}', '"provenance": {"x": %s}' % number)
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(SceneFormatError):
            read_scene_file(str(path))
        assert main(["verify", "--in", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_overlong_rational_rejected(self, tmp_path, capsys):
        doc = scenes_to_document([generate_scene(SceneParams(seed=7))])
        doc["scenes"][0]["a"][0] = "1" * 5000 + "/3"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(path)]) == 1
        assert "rational too long" in capsys.readouterr().err


class TestCliGenerate:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "42", "--count", "3", "--out", str(p1)]) == 0
        assert main(["generate", "--seed", "42", "--count", "3", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_count_zero_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "42", "--count", "0", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--numerator-cap", "0", "parameter caps must be positive"),
            ("--denominator-cap", "-3", "parameter caps must be positive"),
            ("--radius", "0", "radius must be positive"),
        ],
    )
    def test_bad_scene_parameter_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.json"
        assert main(["generate", "--seed", "1", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_classical_generation(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["generate", "--classical", "--params", "0,1,-1", "--out", str(out)]) == 0
        scenes, prov = read_scene_file(str(out))
        assert prov["kind"] == "classical"
        assert scenes[0].a == Point(1, 0)
        assert scenes[0].b == Point(0, 1)
        assert scenes[0].c == Point(0, -1)

    def test_classical_repeated_params(self, tmp_path):
        code = main(["generate", "--classical", "--params", "0,0,1", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_params_without_classical_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--params", "1,2,3", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --params requires --classical\n")
        assert not out.exists()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BROCARD_OUT_DIR", str(tmp_path))
        assert main(["generate", "--seed", "1", "--count", "1", "--out", "env.json"]) == 0
        assert (tmp_path / "env.json").exists()


class TestCliVerify:
    @pytest.fixture()
    def scene_file(self, tmp_path):
        path = tmp_path / "scenes.json"
        assert main(["generate", "--seed", "42", "--count", "2", "--out", str(path)]) == 0
        return path

    def test_all_pass_exit_zero(self, scene_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "--in", str(scene_file), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["summary"]["fail"] == 0
        assert doc["summary"]["pass"] > 0

    def test_report_bytes_deterministic(self, scene_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--in", str(scene_file), "--report", str(r1)]) == 0
        assert main(["verify", "--in", str(scene_file), "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_corrupted_scene_nonzero_exit(self, scene_file, tmp_path, capsys):
        doc = json.loads(scene_file.read_text())
        x = F(*_ratio_from_str(doc["scenes"][0]["a1"][0])) + 1
        doc["scenes"][0]["a1"][0] = rational_to_str(x)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "a1 not on BC" in out

    def test_malformed_rational_rejected(self, scene_file, tmp_path):
        doc = json.loads(scene_file.read_text())
        doc["scenes"][0]["a"][0] = "2/4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(bad)]) == 1

    def test_string_flag_rejected(self, scene_file, tmp_path, capsys):
        doc = json.loads(scene_file.read_text())
        doc["scenes"][0]["classical"] = "false"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(bad)]) == 1
        assert "classical must be true or false" in capsys.readouterr().err

    def test_check_filter(self, scene_file, capsys):
        assert main(["verify", "--in", str(scene_file), "--checks", "check_steiner,check_tarry"]) == 0
        out = capsys.readouterr().out
        assert "3 checks" in out

    def test_unknown_check_usage_error(self, scene_file):
        assert main(["verify", "--in", str(scene_file), "--checks", "check_bogus"]) == 2

    @pytest.mark.parametrize("value", [",", " ", "", " , ,"])
    def test_no_check_id_usage_error(self, scene_file, tmp_path, capsys, value):
        report = tmp_path / "r.json"
        assert main(["verify", "--in", str(scene_file), "--checks", value, "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --checks names no check id\n")
        assert not report.exists()

    def test_unknown_check_usage_error_on_invalid_scene(self, scene_file, tmp_path):
        doc = json.loads(scene_file.read_text())
        doc["scenes"] = doc["scenes"][:1]
        doc["scenes"][0]["a1"][0] = rational_to_str(F(*_ratio_from_str(doc["scenes"][0]["a1"][0])) + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(bad), "--checks", "check_bogus"]) == 2

    @pytest.mark.parametrize("contents", [None, "{not json"])
    def test_unknown_check_checked_before_reading(self, tmp_path, capsys, contents):
        """An unknown check id is a usage error also when the scene file is
        missing or malformed."""
        path, report = tmp_path / "s.json", tmp_path / "r.json"
        if contents is not None:
            path.write_text(contents)
        argv = ["verify", "--in", str(path), "--checks", "check_steiner,bogus", "--report", str(report)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: unknown check ids: bogus\n")
        assert not report.exists()

    def test_classical_overlay_skipped_on_generated_scene(self, scene_file, capsys):
        assert main(["verify", "--in", str(scene_file), "--checks", "check_classical_overlay"]) == 0
        out = capsys.readouterr().out
        assert "scene 0: 1 checks, 1 pass, 0 fail, 0 degenerate" in out
        assert "total: 2 pass, 0 fail, 0 degenerate" in out

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--in", str(tmp_path / "nope.json")]) == 1


class TestCliRender:
    @pytest.fixture()
    def scene_file(self, tmp_path):
        path = tmp_path / "scenes.json"
        assert main(["generate", "--seed", "42", "--count", "1", "--out", str(path)]) == 0
        return path

    def test_svg_labels_and_wellformed(self, scene_file, tmp_path):
        fig = tmp_path / "fig.svg"
        assert main(["render", "--in", str(scene_file), "--index", "0", "--out", str(fig)]) == 0
        text = fig.read_text()
        for label in (">P<", ">Q<", ">O<", ">R<"):
            assert label in text
        ET.fromstring(text)  # raises on malformed XML

    def test_layer_subset(self, scene_file, tmp_path):
        fig = tmp_path / "fig.svg"
        assert main([
            "render", "--in", str(scene_file), "--index", "0",
            "--out", str(fig), "--layers", "brocard-circle",
        ]) == 0
        text = fig.read_text()
        assert 'id="brocard-circle"' in text
        assert 'id="scene"' not in text

    def test_unknown_layer(self, scene_file, tmp_path):
        code = main([
            "render", "--in", str(scene_file), "--index", "0",
            "--out", str(tmp_path / "x.svg"), "--layers", "bogus",
        ])
        assert code == 2

    def test_invalid_scene_rejected(self, scene_file, tmp_path, capsys):
        doc = json.loads(scene_file.read_text())
        f = F(*_ratio_from_str(doc["scenes"][0]["gamma"]["f"]))
        doc["scenes"][0]["gamma"]["f"] = rational_to_str(f + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        fig = tmp_path / "fig.svg"
        assert main(["render", "--in", str(bad), "--index", "0", "--out", str(fig)]) == 1
        assert "a1 not on gamma" in capsys.readouterr().err
        assert not fig.exists()

    def test_large_caps_all_layers(self, tmp_path):
        big = str(10**12)
        path, fig = tmp_path / "s.json", tmp_path / "f.svg"
        assert main([
            "generate", "--seed", "1", "--count", "1", "--out", str(path),
            "--numerator-cap", big, "--denominator-cap", big,
        ]) == 0
        assert main(["render", "--in", str(path), "--out", str(fig)]) == 0
        svg = "{http://www.w3.org/2000/svg}"
        layers = {g.get("id"): g for g in ET.fromstring(fig.read_text()).iter(svg + "g")}
        assert list(layers) == ["scene", "miquel", "triangles", "brocard-circle", "steiner"]
        assert len(layers["steiner"].findall(svg + "line")) == 2  # both Simson lines clipped

    def test_index_out_of_range(self, scene_file, tmp_path):
        assert main(["render", "--in", str(scene_file), "--index", "5", "--out", str(tmp_path / "x.svg")]) == 1

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_no_layer_usage_error(self, scene_file, tmp_path, capsys, value):
        fig = tmp_path / "f.svg"
        assert main(["render", "--in", str(scene_file), "--out", str(fig), "--layers", value]) == 2
        assert capsys.readouterr().err == "error: no layer selected\n"
        assert not fig.exists()

    @pytest.mark.parametrize("value", ["bogus", "scene,bogus"])
    def test_unknown_layer_checked_before_configuration(self, tmp_path, capsys, value):
        """An unknown layer is a usage error also on a scene whose
        configuration cannot be built."""
        scene = scene_from_parameters(["-1", "-2", "1/2", "2", "-1/2", "1"], Point(0, 0), 1)
        assert validate_scene(scene) == []
        with pytest.raises(GeometryError):
            compute_configuration(scene)
        path, fig = tmp_path / "s.json", tmp_path / "f.svg"
        write_scene_file(str(path), [scene])
        assert main(["render", "--in", str(path), "--out", str(fig), "--layers", value]) == 2
        assert capsys.readouterr().err == "error: unknown layers: bogus\n"
        assert not fig.exists()

    def test_collapsed_configuration_draws_scene_layer_only(self, tmp_path, capsys):
        path, fig = tmp_path / "s.json", tmp_path / "f.svg"
        write_scene_file(str(path), [COLLAPSE_SCENE])
        argv = ["render", "--in", str(path), "--out", str(fig)]
        for layers in ("miquel", "triangles,steiner"):
            assert main(argv + ["--layers", layers]) == 1
            assert capsys.readouterr().err == (
                "error: configuration degenerate, render scene layer only: configuration: collapsed (P = Q)\n"
            )
            assert not fig.exists()
        assert main(argv) == 0  # every layer: the scene layer is drawn alone
        svg = "{http://www.w3.org/2000/svg}"
        assert [g.get("id") for g in ET.fromstring(fig.read_text()).iter(svg + "g")] == ["scene"]

    def test_layers_without_a_configuration_are_a_caller_error(self):
        """Layers other than "scene" drawn without a configuration are a
        ``ValueError``, not a degeneracy of the scene."""
        from brocard.svgrender import render_svg

        scene = generate_scene(SceneParams(seed=42))
        for layers in (("miquel",), ("triangles", "steiner")):
            with pytest.raises(ValueError, match="^layers other than 'scene' need a configuration$"):
                render_svg(scene, None, layers)
        assert "<svg" in render_svg(scene, None, ("scene",))

    def test_render_does_not_affect_verification(self, scene_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--in", str(scene_file), "--report", str(r1)]) == 0
        assert main(["render", "--in", str(scene_file), "--index", "0", "--out", str(tmp_path / "f.svg")]) == 0
        assert main(["verify", "--in", str(scene_file), "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestCliClassical:
    def test_reference_values_printed(self, capsys):
        assert main(["classical", "--params", "0,1,-1"]) == 0
        out = capsys.readouterr().out
        assert "R = (1/2, 0/1)" in out
        assert "R == K: True" in out
        assert "tan(Brocard angle) = 1/2" in out

    def test_report_written(self, tmp_path):
        report = tmp_path / "classical.json"
        assert main(["classical", "--params", "0,1,3", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        ids = [c["id"] for c in doc["scenes"][0]["checks"]]
        assert "check_classical_overlay" in ids
        assert doc["summary"]["fail"] == 0

    def test_exit_zero_iff_no_fail(self):
        # isoceles scene has degenerate entries but no FAIL
        assert main(["classical", "--params", "0,1,-1"]) == 0

    def test_builds_each_object_once(self, monkeypatch, capsys):
        """The command prints from the suite's own configuration and shares
        one overlay with the check: one build, the Miquel pair from one
        closed-form evaluation, the six tangent circles the check reads, and
        one overlay whose K is the one isogonal conjugate the pipeline takes
        beside R*."""
        calls = collections.Counter()
        # The two lemma checks run once per process, each through
        # ``_miquel``; run them first, so the count holds in any test order.
        checks._kwon_remark()
        checks._cyclic_lemma(Circle(0, 0, -1))

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (checks, "compute_configuration"),
            (pipeline, "compute_configuration"),
            (pipeline, "_closed_forms"),
            (pipeline, "_miquel"),
            (pipeline, "circle_through_tangent"),
            (pipeline, "classical_overlay"),
            (pipeline, "_isogonal"),
        ):
            count(module, name)
        assert main(["classical", "--params", "0,1,3"]) == 0
        assert "Omega  = (-26/73, 45/73)" in capsys.readouterr().out
        assert calls == {
            "compute_configuration": 1, "_closed_forms": 1, "circle_through_tangent": 6, "classical_overlay": 1,
            "_isogonal": 2,
        }

    def test_degenerate_configuration_not_rebuilt(self, monkeypatch, capsys):
        """With no configuration, the command prints the suite's
        ``configuration`` note and builds nothing more."""
        calls = []

        def degenerate(scene):
            calls.append(scene)
            raise GeometryError("forced")

        monkeypatch.setattr(checks, "compute_configuration", degenerate)
        monkeypatch.setattr(pipeline, "compute_configuration", degenerate)
        assert main(["classical", "--params", "0,1,3"]) == 0
        assert capsys.readouterr().out == (
            "degenerate classical scene: forced\nsuite: 1 pass, 0 fail, 1 degenerate\n"
        )
        assert len(calls) == 1

    @pytest.mark.parametrize("radius", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", [["generate", "--classical", "--out", "c.json"], ["classical", "--report", "c.json"]]
    )
    def test_nonpositive_radius_usage_error(self, tmp_path, monkeypatch, capsys, command, radius):
        monkeypatch.setenv("BROCARD_OUT_DIR", str(tmp_path))
        assert main([*command, "--params", "0,1,3", "--radius", radius]) == 2
        assert capsys.readouterr() == ("", "error: radius must be positive\n")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical", "--params", "0,,1,3"],
            ["classical", "--params", "0,1,3,"],
            ["classical", "--params", "0,1,3", "--center", "1,2,", "--report", "c.json"],
            ["generate", "--classical", "--params", "0,,1,3", "--out", "c.json"],
            ["generate", "--center", "1,,2", "--out", "c.json"],
        ],
    )
    def test_empty_rational_entry_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        """An empty entry of ``--params`` or ``--center`` is not skipped: it
        is a usage error with one line naming it, and nothing is written."""
        monkeypatch.setenv("BROCARD_OUT_DIR", str(tmp_path))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad --center itself
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and len(errors) == 1 and errors[0].endswith("not a rational: ''"), err
        assert not (tmp_path / "c.json").exists()


VERIFY_SEED42_STDOUT = "scene 0: 18 checks, 18 pass, 0 fail, 0 degenerate\ntotal: 18 pass, 0 fail, 0 degenerate\n"
CLASSICAL_013_STDOUT = (
    "R = (-1/8, 3/4)\nK = (-1/8, 3/4)  (R == K: True)\ntan(Brocard angle) = 3/8\n"
    "Omega  = (-26/73, 45/73)\nOmega' = (10/73, 51/73)\nsuite: 19 pass, 0 fail, 0 degenerate\n"
)
NO_DIR = "error: [Errno 2] No such file or directory: '{tmp}/no/{name}'\n"
INVALID_LINES = "".join(
    f"error: scene 0 is invalid: {violation}\n"
    for violation in [*(f"{p} not on gamma" for p in ("a1", "a2", "b1", "b2", "c1", "c2")),
                      "gamma has non-positive squared radius"]
)

# (argv, exit code, stdout, stderr); ``{tmp}`` is the test's directory and
# ``{scenes}``, ``{invalid}``, ``{collapsed}`` and ``{notjson}`` scene files in it.
FAILURES = [
    ("generate --numerator-cap 1 --denominator-cap 1 --out {tmp}/x.json", 1, "",
     "error: no valid scene within 500 attempts (seed 0)\n"),
    ("generate --seed 1 --out {tmp}/no/x.json", 1, "", NO_DIR.replace("{name}", "x.json")),
    ("verify --in {scenes} --report {tmp}/no/r.json", 1, VERIFY_SEED42_STDOUT, NO_DIR.replace("{name}", "r.json")),
    ("render --in {scenes} --out {tmp}/no/f.svg", 1, "", NO_DIR.replace("{name}", "f.svg")),
    ("classical --params 0,1,3 --report {tmp}/no/r.json", 1, CLASSICAL_013_STDOUT,
     NO_DIR.replace("{name}", "r.json")),
    ("verify --in {tmp}/missing.json --report {tmp}/r.json", 1, "",
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    ("render --in {tmp}/missing.json --out {tmp}/f.svg", 1, "",
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    ("verify --in {notjson} --report {tmp}/r.json", 1, "",
     "error: {notjson}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    ("verify --in {scenes} --checks check_bogus,check_steiner --report {tmp}/r.json", 2, "",
     "error: unknown check ids: check_bogus\n"),
    ("verify --in {scenes} --checks , --report {tmp}/r.json", 2, "", "error: --checks names no check id\n"),
    ("render --in {scenes} --layers scene,bogus --out {tmp}/f.svg", 2, "", "error: unknown layers: bogus\n"),
    ("render --in {scenes} --layers , --out {tmp}/f.svg", 2, "", "error: no layer selected\n"),
    ("generate --numerator-cap 0 --out {tmp}/x.json", 2, "", "error: parameter caps must be positive\n"),
    ("generate --denominator-cap -3 --out {tmp}/x.json", 2, "", "error: parameter caps must be positive\n"),
    ("generate --radius 0 --out {tmp}/x.json", 2, "", "error: radius must be positive\n"),
    ("generate --classical --params 0,1,3 --radius 0 --out {tmp}/x.json", 2, "", "error: radius must be positive\n"),
    ("classical --params 0,1,3 --radius -1 --report {tmp}/r.json", 2, "", "error: radius must be positive\n"),
    ("classical --params 0,0,1 --radius 0 --report {tmp}/r.json", 2, "",
     "error: classical parameters must be distinct\n"),
    ("generate --classical --params 0,0,1 --count 2 --out {tmp}/x.json", 2, "",
     "error: classical parameters must be distinct\n"),
    ("classical --params 1,2 --report {tmp}/r.json", 2, "", "error: --params needs 3 comma-separated rationals\n"),
    ("generate --classical --out {tmp}/x.json", 2, "", "error: --classical requires --params t1,t2,t3\n"),
    ("generate --params 1,2,3 --out {tmp}/x.json", 2, "", "error: --params requires --classical\n"),
    ("generate --classical --params 0,1,3 --count 2 --out {tmp}/x.json", 2, "",
     "error: --classical produces exactly one scene\n"),
    ("render --in {scenes} --index 5 --out {tmp}/f.svg", 1, "", "error: index 5 out of range (file has 1 scenes)\n"),
    ("render --in {invalid} --layers miquel --out {tmp}/f.svg", 1, "", INVALID_LINES),
    ("render --in {collapsed} --layers triangles,steiner --out {tmp}/f.svg", 1, "",
     "error: configuration degenerate, render scene layer only: configuration: collapsed (P = Q)\n"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", FAILURES, ids=[row[0] for row in FAILURES])
def test_failure_paths(tmp_path, monkeypatch, capsys, argv, code, stdout, stderr):
    """Each failing command line exits with its code, prints exactly these
    lines, and leaves no ``--out`` or ``--report`` file behind."""
    monkeypatch.delenv("BROCARD_OUT_DIR", raising=False)
    files = {name: str(tmp_path / f"{name}.json") for name in ("scenes", "invalid", "collapsed", "notjson")}
    write_scene_file(files["scenes"], [generate_scene(SceneParams(seed=42))])
    doc = json.loads((tmp_path / "scenes.json").read_text())
    doc["scenes"][0]["gamma"]["f"] = rational_to_str(F(*_ratio_from_str(doc["scenes"][0]["gamma"]["f"])) + 1)
    (tmp_path / "invalid.json").write_text(json.dumps(doc))
    write_scene_file(files["collapsed"], [COLLAPSE_SCENE])
    (tmp_path / "notjson.json").write_text("{not json")
    fill = dict(files, tmp=str(tmp_path))
    args = [part.format(**fill) for part in argv.split()]
    assert main(args) == code
    assert capsys.readouterr() == (stdout.format(**fill), stderr.format(**fill))
    outputs = [args[i + 1] for i, part in enumerate(args) if part in ("--out", "--report")]
    assert outputs and not any(os.path.exists(path) for path in outputs)


@pytest.mark.parametrize("fault", [pipeline.InternalInconsistencyError("T_A: forced"), ValueError("forced")])
def test_program_faults_escape_main(monkeypatch, capsys, fault):
    """A fault of the program is not an input error: ``main`` reports no
    ``error:`` line for it and lets it escape with its traceback."""

    def faulty(scene, check_ids):
        raise fault

    monkeypatch.setattr(checks, "_suite", faulty)
    with pytest.raises(type(fault), match="forced"):
        main(["classical", "--params", "0,1,3"])
    assert capsys.readouterr() == ("", "")


def test_report_omits_timing(tmp_path):
    path = tmp_path / "scenes.json"
    assert main(["generate", "--seed", "5", "--count", "1", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["verify", "--in", str(path), "--report", str(report)]) == 0
    assert "elapsed" not in report.read_text()


def test_report_blocks_do_not_outlive_the_call(tmp_path):
    """Blocks are keyed by result identity within one call only: once a
    call returns, its results may die and a new result may reuse one's
    identity, and the next call still writes that new result's block."""
    path = tmp_path / "r.json"
    for k in range(1, 21):
        result = CheckResult("check_x", FAIL, (Assertion("x == 0", False, (F(k),)),))
        write_report_file(str(path), [SuiteReport("d", (result,))], "sha256:" + "0" * 64)
        del result
        witnesses = json.loads(path.read_text())["scenes"][0]["checks"][0]["assertions"][0]["witnesses"]
        assert witnesses == [f"{k}/1"]


def test_render_digits_flag(tmp_path):
    path = tmp_path / "scenes.json"
    assert main(["generate", "--seed", "42", "--count", "1", "--out", str(path)]) == 0
    d3, d9 = tmp_path / "d3.svg", tmp_path / "d9.svg"
    assert main(["render", "--in", str(path), "--index", "0", "--out", str(d3), "--digits", "3"]) == 0
    assert main(["render", "--in", str(path), "--index", "0", "--out", str(d9)]) == 0
    assert len(d3.read_text()) < len(d9.read_text())


def test_render_negative_digits_usage_error(tmp_path, capsys):
    """A negative ``--digits`` is a usage error, reported before the scene
    file is read (the file named here does not exist); 0 stays valid."""
    with pytest.raises(SystemExit) as exc:
        main(["render", "--in", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.svg"), "--digits", "-1"])
    assert exc.value.code == 2
    assert "--digits must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()
    path = tmp_path / "scenes.json"
    assert main(["generate", "--seed", "42", "--count", "1", "--out", str(path)]) == 0
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "d0.svg"), "--digits", "0"]) == 0


class TestGoldenBytes:
    """Canonical serialization is pinned: any change to the scene or report
    byte format (or to the seeded generator) must update these digests."""

    SCENE_SHA = "f2d53441be2ded834bf490b5fed50062fd13a4c65851fc82e59b1fe33b7c35e2"
    REPORT_SHA = "dd0dad47468e4653d814343d28422ca818d976d16186a74a90349e3a5ff45dd7"
    CLASSICAL_REPORT_SHA = "97742f22d8116832bebb4f9860089f0213ddf49e598ee92d1ee396230033de67"
    DEGENERATE_REPORT_SHA = "578c184bcd94d48a9ec69021b9e0cd4a9b141ba6c4982be7d8b142d858d78f62"
    FAIL_REPORT_SHA = "81eb74d83e0400e736cec0d5ffe8698f5fe6c7a1210da609857f5b82d11e18d6"

    def test_scene_file_golden(self, tmp_path):
        import hashlib

        path = tmp_path / "g.json"
        assert main(["generate", "--seed", "42", "--count", "2", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SCENE_SHA

    def test_report_file_golden(self, tmp_path):
        import hashlib

        scenes = tmp_path / "g.json"
        report = tmp_path / "r.json"
        assert main(["generate", "--seed", "42", "--count", "2", "--out", str(scenes)]) == 0
        assert main(["verify", "--in", str(scenes), "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.REPORT_SHA

    def test_classical_report_golden(self, tmp_path):
        report = tmp_path / "c.json"
        assert main(["classical", "--params", "0,1,-1", "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.CLASSICAL_REPORT_SHA

    def test_degenerate_report_golden(self, tmp_path):
        """The collapsed scene, on a circle of its own, between two scenes on
        the unit circle: DEGENERATE entries with notes, and the cyclic lemma
        on two circles in turn."""
        scenes = tmp_path / "d.json"
        report = tmp_path / "r.json"
        generated = [generate_scene(SceneParams(seed=seed)) for seed in (1, 2)]
        write_scene_file(str(scenes), [generated[0], COLLAPSE_SCENE, generated[1]])
        assert main(["verify", "--in", str(scenes), "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.DEGENERATE_REPORT_SHA

    def test_fail_report_golden(self, tmp_path):
        """Every predicate of the checks' recorder FAILs with its witnesses:
        the suite on the seed-7 configuration with one object moved at a
        time (P for the angle chain, Q, T_C, R, A', A0, the perspector, and
        r_P moved by i), on a classical configuration with P moved (the
        scalar equalities), and the spiral lemma with a spiral point moved
        along its side (the Miquel-circle incidences)."""
        scene = generate_scene(SceneParams(seed=7))
        cfg = compute_configuration(scene)
        shift = Point(F(1, 7), F(-2, 9))
        moved = [
            dataclasses.replace(cfg, **{name: getattr(cfg, name) + shift})
            for name in ("p", "q", "t_c", "r", "a_prime", "a0", "perspector")
        ]
        moved.append(dataclasses.replace(cfg, r_p=ComplexScalar(cfg.r_p.re, cfg.r_p.im + 1)))
        classical = compute_configuration(classical_brocard_scene(0, 1, 3))
        moved.append(dataclasses.replace(classical, p=classical.p + shift))
        reports = []
        for variant in moved:
            digest = scene_digest(variant.scene)
            results = [
                run(variant)
                for run, classical_only in checks._SUITE.values()
                if variant.scene.classical or not classical_only
            ]
            reports.append(SuiteReport(digest, tuple(results)))
        tri = scene.triangle
        bc = tri.sides[0]
        d, e, f = build_spiral_points(tri, cfg.p, SPIRAL_SCALE)
        spiral = check_lemma_spiral(tri, cfg.p, SPIRAL_SCALE, (d + Point(bc.b, -bc.a), e, f))
        reports.append(SuiteReport(scene_digest(scene), (spiral,)))
        assert all(report.counts[FAIL] for report in reports)
        path = tmp_path / "f.json"
        write_report_file(str(path), reports, scene_digest(scene))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FAIL_REPORT_SHA


class TestBenchBytes:
    """The files of the benchmark's workloads at seed 7 and of three
    classical scenes are pinned, with the classical invariants printed."""

    BIG_CAP = str(10**12)
    WORKLOADS = {
        "verify-caps50": (
            (),
            "651b68bac8415dceb89f5f6a5c468dff920a6c75bd5402ac1c227e629716a8d4",
            "44075f6465e1ca6b2e1ed624ce7e50dfc2b5167fa51141874968f2508e623e8b",
        ),
        "verify-caps1e12": (
            ("--numerator-cap", BIG_CAP, "--denominator-cap", BIG_CAP),
            "a66a46d1b7515521937b562230c294ec4f7b013fac1e494b72a1755c5458472d",
            "631c58c7e871bda202568b14ce4888f67a0674b79a0e69e25141e0d7559ffa5f",
        ),
        "generate-strict": (
            ("--strict-segments",),
            "437b296ee764675babbed2d9764ba852f38e01f0e8cd7218cc1d361bc832a7c5",
            "a375edcd8a215d276b0918c10ddfedac5b12f2443dab3a098bb2d1a6a1666e15",
        ),
    }
    CLASSICAL = {
        "0,1,-1": (
            TestGoldenBytes.CLASSICAL_REPORT_SHA,
            "R = (1/2, 0/1)\n"
            "K = (1/2, 0/1)  (R == K: True)\n"
            "tan(Brocard angle) = 1/2\n"
            "Omega  = (2/5, 1/5)\n"
            "Omega' = (2/5, -1/5)\n"
            "suite: 18 pass, 0 fail, 1 degenerate\n",
        ),
        "0,1,3": (
            "f422e58e6cdbe583f60e4bf2ff9e5bb7eee4e334498c0bc792cd314eb1e6f83c",
            "R = (-1/8, 3/4)\n"
            "K = (-1/8, 3/4)  (R == K: True)\n"
            "tan(Brocard angle) = 3/8\n"
            "Omega  = (-26/73, 45/73)\n"
            "Omega' = (10/73, 51/73)\n"
            "suite: 19 pass, 0 fail, 0 degenerate\n",
        ),
        "1/2,-3,7/5": (
            "ef83defb76952cc83ee29ba90a52656cc343813566063120553e2b979958cccb",
            "R = (-93/1714, 610/857)\n"
            "K = (-93/1714, 610/857)  (R == K: True)\n"
            "tan(Brocard angle) = 693/1714\n"
            "Omega  = (-1004862/3418045, 2026631/3418045)\n"
            "Omega' = (686058/3418045, 2155529/3418045)\n"
            "suite: 19 pass, 0 fail, 0 degenerate\n",
        ),
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_seed7_files(self, tmp_path, capsys, workload):
        extra, scene_sha, report_sha = self.WORKLOADS[workload]
        scenes, report = tmp_path / "s.json", tmp_path / "r.json"
        assert main(["generate", "--seed", "701", "--count", "100", "--out", str(scenes), *extra]) == 0
        assert main(["verify", "--in", str(scenes), "--report", str(report)]) == 0
        assert hashlib.sha256(scenes.read_bytes()).hexdigest() == scene_sha
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha

    @pytest.mark.parametrize("params", sorted(CLASSICAL))
    def test_classical_report_and_invariants(self, tmp_path, capsys, params):
        report_sha, printed = self.CLASSICAL[params]
        report = tmp_path / "c.json"
        assert main(["classical", "--params", params, "--report", str(report)]) == 0
        assert capsys.readouterr() == (printed, "")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


def _oracle_digest(s):
    """The scene digest by its definition: the sha256 of the compact,
    sorted-key JSON of ``scene_to_dict``."""
    blob = json.dumps(scene_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestSceneDigest:
    """``scene_digest`` hashes ``Scene.canonical_text``: the text the reader
    parsed for a scene read from a file, and otherwise the text built from
    the stored integers.  Both equal the definition, ``_oracle_digest``."""

    PARAMS = {
        "verify-caps50": {},
        "verify-caps1e12": {"numerator_cap": 10**12, "denominator_cap": 10**12},
        "generate-strict": {"strict_segments": True},
    }

    @staticmethod
    def assert_digest(s):
        assert scene_digest(s) == _oracle_digest(s)

    @pytest.mark.parametrize("workload", sorted(PARAMS))
    def test_seed701_files_as_read_and_generated(self, tmp_path, capsys, workload):
        extra, scene_sha, _ = TestBenchBytes.WORKLOADS[workload]
        path = tmp_path / "s.json"
        assert main(["generate", "--seed", "701", "--count", "100", "--out", str(path), *extra]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == scene_sha
        read, _ = read_scene_file(str(path))
        generated = [generate_scene(SceneParams(seed=seed, **self.PARAMS[workload])) for seed in range(701, 801)]
        assert read == generated
        shift = Point(F(1, 3), F(-2, 7))
        for scene, fresh in zip(read, generated):
            assert "canonical_text" in vars(scene) and "canonical_text" not in vars(fresh)
            assert scene.canonical_text == fresh.canonical_text
            self.assert_digest(scene)
            self.assert_digest(fresh)
            for variant in (
                dataclasses.replace(scene, classical=not scene.classical),
                dataclasses.replace(scene, strict_segments=not scene.strict_segments),
                dataclasses.replace(scene, o=scene.o + shift, a1=scene.b),
                dataclasses.replace(scene, gamma=Circle.from_center_radius2(scene.o, 4)),
            ):
                assert "canonical_text" not in vars(variant)
                self.assert_digest(variant)
                assert scene_digest(variant) != scene_digest(scene)

    @pytest.mark.parametrize("params", sorted(TestBenchBytes.CLASSICAL))
    def test_classical_scenes(self, params):
        scene = classical_brocard_scene(*params.split(","))
        self.assert_digest(scene)
        read = scene_from_dict(scene_to_dict(scene))
        assert read.canonical_text == canonical_text(scene)
        self.assert_digest(read)

    def test_file_without_flags(self, tmp_path):
        scenes = [generate_scene(SceneParams(seed=7)), classical_brocard_scene(0, 1, 3)]
        document = scenes_to_document(scenes)
        for item in document["scenes"]:
            del item["classical"], item["strict_segments"]
        path = tmp_path / "s.json"
        path.write_bytes(_canonical_bytes(document))
        read, _ = read_scene_file(str(path))
        assert [s.classical for s in read] == [False, False]
        for scene in read:
            self.assert_digest(scene)
        assert scene_digest(read[0]) == scene_digest(scenes[0])
        assert scene_digest(read[1]) == scene_digest(dataclasses.replace(scenes[1], classical=False))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 50, 10**6, 10**12]).flatmap(
            lambda cap: st.lists(st.tuples(st.integers(-cap, cap), st.integers(1, cap)), min_size=6, max_size=6)
        ),
        st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9)),
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.booleans(),
        st.booleans(),
    )
    def test_drawn_scenes(self, pairs, center, radius, classical, strict):
        try:
            scene = scene_from_parameters(
                [F(n, d) for n, d in pairs], Point(F(*center[:2]), F(*center[2:])), F(*radius)
            )
        except GeometryError:
            reject()
        scene = dataclasses.replace(scene, classical=classical, strict_segments=strict)
        self.assert_digest(scene)
        read = scene_from_dict(scene_to_dict(scene))
        assert read.canonical_text == canonical_text(scene)


# ---------------------------------------------------------------------------
# The canonical encoder against the stdlib layout it reproduces.


def _reference_bytes(document):
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


# Any code point, lone surrogates and control characters included.
json_text = st.text(st.characters(exclude_categories=()), max_size=8)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | json_text
    | st.sampled_from(["", "0/1", "-7/2", "caf\u00e9", "\u2603", "\U0001f600", "\x00\x1f\x7f", '"\\/'])
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=40,
)


class _Level(enum.IntEnum):
    HIGH = 3


class TestCanonicalEncoder:
    @example({})
    @example({"level": _Level.HIGH, "flag": True, "levels": (_Level.HIGH, 0)})
    @example([])
    @example({"a": [], "b": {}, "c": [[], {}], "d": ()})
    @example({"z": True, "a": False, "m": None, "\u00e9": -(10**40), "": [1, "x", {"k": "v"}]})
    @given(json_trees)
    def test_matches_stdlib_layout(self, tree):
        assert _canonical_bytes(tree) == _reference_bytes(tree)

    @pytest.mark.parametrize(
        "value",
        [1.5, F(1, 2), b"x", {1, 2}, object(), {1: "x"}, {"a": [1, {"b": 2.0}]}, [None, {("k",): 1}]],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _canonical_bytes(value)

    def test_classical_report(self):
        report = run_suite(classical_brocard_scene(0, 1, -1))
        doc = _ref_report_dict([report], "params:0/1,1/1,-1/1")
        assert doc["summary"]["degenerate"] > 0
        assert any(c["notes"] for c in doc["scenes"][0]["checks"])
        assert _written_report([report], "params:0/1,1/1,-1/1") == _reference_bytes(doc)

    def test_report_with_fail_witnesses(self):
        scene = generate_scene(SceneParams(seed=42))
        cfg = compute_configuration(scene)
        passing = run_suite(scene)
        shifted = check_equidistant(dataclasses.replace(cfg, r=cfg.r + Point(1, 0)))
        assert shifted.status == FAIL
        with_fail = dataclasses.replace(passing, results=(*passing.results, shifted))
        moved = dataclasses.replace(scene, a1=scene.a1 + Point(F(1, 3), 0))
        reports = [with_fail, run_suite(moved)]
        doc = _ref_report_dict(reports, "sha256:" + "0" * 64)
        assert doc["summary"]["fail"] == 2
        witnesses = [
            w
            for sc in doc["scenes"]
            for check in sc["checks"]
            for a in check["assertions"]
            for w in a["witnesses"]
        ]
        assert any(w != "0/1" for w in witnesses)
        assert _written_report(reports, "sha256:" + "0" * 64) == _reference_bytes(doc)

    def test_validation_fail_witnesses(self, tmp_path, capsys):
        scene = generate_scene(SceneParams(seed=42))
        moved = scene.a1 + Point(F(1, 3), 0)
        path, report = tmp_path / "m.json", tmp_path / "r.json"
        write_scene_file(str(path), [dataclasses.replace(scene, a1=moved)])
        assert main(["verify", "--in", str(path), "--report", str(report)]) == 1
        (validation,) = json.loads(report.read_text())["scenes"][0]["checks"]
        assert validation["id"] == "scene_validation" and validation["status"] == "FAIL"
        expected = {
            "a1 not on BC": [rational_to_str(scene.triangle.sides[0].eval(moved))],
            "a1 not on gamma": [rational_to_str(scene.gamma.eval(moved))],
        }
        assert {a["label"]: a["witnesses"] for a in validation["assertions"]} == expected
        assert "0/1" not in [w for ws in expected.values() for w in ws]
        out = capsys.readouterr().out
        for label, (witness,) in expected.items():
            assert f"FAIL scene_validation: {label} (witness {witness})" in out

    def test_generated_scene_file(self, tmp_path):
        path = tmp_path / "s.json"
        assert main(["generate", "--seed", "3", "--count", "3", "--out", str(path)]) == 0
        scenes, provenance = read_scene_file(str(path))
        assert provenance["kind"] == "generated"
        doc = scenes_to_document(scenes, provenance)
        assert path.read_bytes() == _canonical_bytes(doc) == _reference_bytes(doc)


# ---------------------------------------------------------------------------
# The report writer against a reference document with every block in place.


def _ref_report_dict(reports, input_digest):
    """The report document built field by field, each check block written
    out where it occurs; the writer's bytes are this document's canonical
    layout."""
    scenes = []
    totals = {"pass": 0, "fail": 0, "degenerate": 0}
    for index, report in enumerate(reports):
        counts = report.counts
        scenes.append(
            {
                "index": index,
                "digest": report.scene_digest,
                "checks": [
                    {
                        "id": result.check_id,
                        "status": result.status,
                        "assertions": [
                            {
                                "label": a.label,
                                "ok": a.ok,
                                "witnesses": [f"{w.numerator}/{w.denominator}" for w in a.witnesses],
                            }
                            for a in result.assertions
                        ],
                        "notes": list(result.notes),
                    }
                    for result in report.results
                ],
                "counts": {"pass": counts[PASS], "fail": counts[FAIL], "degenerate": counts[DEGENERATE]},
            }
        )
        for key, status in (("pass", PASS), ("fail", FAIL), ("degenerate", DEGENERATE)):
            totals[key] += counts[status]
    return {
        "format": "brocard-report/1",
        "tool_version": __version__,
        "input_digest": input_digest,
        "scenes": scenes,
        "summary": totals,
    }


def _written_report(reports, input_digest):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        write_report_file(path, reports, input_digest)
        with open(path, "rb") as fh:
            return fh.read()


def _with_first_assertion(result, **changes):
    first, *rest = result.assertions
    return dataclasses.replace(result, assertions=(dataclasses.replace(first, **changes), *rest))


@functools.lru_cache(maxsize=None)
def _result_pool():
    """Check results of every kind a report holds, and near misses of them.

    Seeds 42 and 43 give equal all-PASS results as distinct objects and
    share the one memoised cyclic-lemma result.  The variants of one PASS
    result differ from it only in one witness, by one extra zero witness,
    only in ``ok`` or only in a label, and a variant of a DEGENERATE result
    only in its note.  Then come a FAIL with nonzero witnesses, a
    ``scene_validation`` FAIL with plain ``str`` labels and the same FAIL
    with its ``Violation`` labels, and a classical report, whose DEGENERATE
    ``check_circumcenter_perspective`` at parameters 0,1,-1 (objects X to
    O_C undefined) supplies the DEGENERATE result with its note."""
    scene = generate_scene(SceneParams(seed=42))
    passing = run_suite(scene).results
    other = run_suite(generate_scene(SceneParams(seed=43))).results
    cfg = compute_configuration(scene)
    shifted = check_equidistant(dataclasses.replace(cfg, r=cfg.r + Point(1, 0)))
    moved = dataclasses.replace(scene, a1=scene.a1 + Point(F(1, 3), 0))
    invalid = run_suite(moved).results
    violations = validate_scene(moved)
    as_violations = CheckResult("scene_validation", FAIL, tuple(Assertion(v, False, v.witnesses) for v in violations))
    classical = run_suite(classical_brocard_scene(0, 1, -1)).results
    base = next(r for r in passing if r.assertions and len(r.assertions[0].witnesses) == 2)
    first = base.assertions[0]
    degenerate = next(r for r in classical if r.check_id == "check_circumcenter_perspective")
    assert degenerate.status == DEGENERATE
    variants = (
        _with_first_assertion(base, witnesses=(first.witnesses[0], F(-2, 7))),
        _with_first_assertion(base, witnesses=(*first.witnesses, F(0))),
        _with_first_assertion(base, ok=False),
        _with_first_assertion(base, label=first.label + " "),
        dataclasses.replace(degenerate, notes=("another reason",)),
    )
    pool = (*passing, *other, *variants, shifted, *invalid, as_violations, *classical)
    assert shifted.status == FAIL and invalid[0].status == FAIL
    assert degenerate.notes
    assert type(as_violations.assertions[0].label) is not str
    return pool


suite_reports = st.builds(
    SuiteReport,
    json_text,
    st.lists(st.deferred(lambda: st.sampled_from(_result_pool())), max_size=24).map(tuple),
)


class TestReportWriter:
    @example([], "sha256:" + "0" * 64)
    @given(st.lists(suite_reports, max_size=5), json_text)
    def test_matches_reference_document(self, reports, input_digest):
        expected = _reference_bytes(_ref_report_dict(reports, input_digest))
        assert _written_report(reports, input_digest) == expected

    def test_every_result_twice(self):
        pool = _result_pool()
        reports = [SuiteReport("first", pool), SuiteReport("second", pool[::-1])]
        doc = _ref_report_dict(reports, "sha256:" + "0" * 64)
        assert _written_report(reports, "sha256:" + "0" * 64) == _reference_bytes(doc)



# ---------------------------------------------------------------------------
# Scene-document fuzzing: mutated documents through verify and render.


@functools.lru_cache(maxsize=None)
def _base_document_bytes(classical):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.json")
        if classical:
            argv = ["generate", "--classical", "--params", "0,1,3", "--out", path]
        else:
            argv = ["generate", "--seed", "11", "--count", "1", "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        with open(path, "rb") as fh:
            return fh.read()


def _paths(node, prefix=()):
    """Every (path, value) below node; a path is a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _delete(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _non_canonical_spellings(text):
    num, den = (int(part) for part in text.split("/"))
    digits = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
    spellings = [
        f"{2 * num}/{2 * den}",
        f"+{num}/{den}",
        f" {text}",
        f"{text} ",
        f"{num}",
        f"{num}/0",
        f"{-num}/-{den}",
        f"{num}/0{den}",
        text[:-1] + "_" + text[-1],
        f"{num}/ {den}",
        text.translate(digits),
        f"{num}.0/{den}",
        "9" * 5000 + "/1",
    ]
    if num == 0:
        spellings.append("-0/1")
    return spellings


WRONG_TYPED = [None, 0, 7, 1.5, -2.5e300, "x", "true", "", [], {}, ["1/2"], ["1/2", "1/3", "1/4"], True, False]


@st.composite
def mutated_documents(draw):
    """(kind, file bytes): one mutation of a valid scene document."""
    original = _base_document_bytes(draw(st.booleans()))
    doc = json.loads(original)
    kind = draw(st.sampled_from(["type", "missing", "renamed", "rational", "value", "format", "syntax"]))
    if kind == "syntax":
        if draw(st.booleans()):
            return kind, original[: draw(st.integers(0, len(original) - 2))]
        at = draw(st.integers(0, len(original)))
        return kind, original[:at] + b"\xff" + original[at:]
    paths = list(_paths(doc))
    rationals = [path for path, value in paths if isinstance(value, str) and "/" in value and path[0] == "scenes"]
    if kind == "type":
        path, value = draw(st.sampled_from(paths))
        new = draw(st.sampled_from([v for v in WRONG_TYPED if type(v) is not type(value)]))
        _set(doc, path, new)
    elif kind == "missing":
        _delete(doc, draw(st.sampled_from([path for path, _ in paths])))
    elif kind == "renamed":
        # Any object key; only the keys of the free-form provenance may change.
        path = draw(st.sampled_from([path for path, _ in paths if isinstance(path[-1], str)]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        new = draw(json_text.filter(lambda k: k not in parent))
        parent[new] = parent.pop(path[-1])
        if len(path) > 1 and path[0] == "provenance":
            kind = "renamed in provenance"
    elif kind == "rational":
        path = draw(st.sampled_from(rationals))
        text = doc
        for key in path:
            text = text[key]
        _set(doc, path, draw(st.sampled_from(_non_canonical_spellings(text))))
    elif kind == "value":
        value = draw(st.fractions(min_value=-50, max_value=50, max_denominator=50))
        _set(doc, draw(st.sampled_from(rationals)), rational_to_str(value))
    else:
        new = draw(
            st.sampled_from(["brocard-scenes/2", "brocard-report/1", "Brocard-scenes/1", SCENE_FORMAT + " ", ""])
            | json_text
            | st.sampled_from(WRONG_TYPED)
        )
        if new == SCENE_FORMAT:
            new = None
        _set(doc, ("format",), new)
    return kind, _reference_bytes(doc)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestSceneDocumentFuzz:
    @settings(max_examples=60)
    @given(mutated_documents())
    def test_mutated_documents(self, case):
        """Every mutated document exits 0, 1 or 2 without an uncaught
        exception; a rejected one exits 1 from both commands, and an accepted
        one is rewritten byte for byte, with the reader's documented defaults
        (missing flags false, missing provenance empty) filled in.  A key
        renamed outside the provenance is always rejected."""
        kind, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.json")
            with open(path, "wb") as fh:
                fh.write(data)
            verify = _run_quietly(["verify", "--in", path])
            render = _run_quietly(["render", "--in", path, "--out", os.path.join(tmp, "out.svg")])
            assert verify in (0, 1, 2) and render in (0, 1, 2)
            try:
                scenes, provenance = read_scene_file(path)
            except SceneFormatError:
                assert verify == 1 and render == 1
                return
            assert kind not in ("renamed", "rational", "format", "syntax")
            rewritten = os.path.join(tmp, "out.json")
            write_scene_file(rewritten, scenes, provenance)
            with open(rewritten, "rb") as fh:
                got = fh.read()
        expected = json.loads(data)
        expected.setdefault("provenance", {})
        for scene in expected["scenes"]:
            scene.setdefault("classical", False)
            scene.setdefault("strict_segments", False)
        assert got == _reference_bytes(expected)
        if kind != "missing":
            assert got == data

    def test_unmutated_documents_pass(self):
        for classical in (False, True):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "in.json")
                with open(path, "wb") as fh:
                    fh.write(_base_document_bytes(classical))
                assert _run_quietly(["verify", "--in", path]) == 0
                assert _run_quietly(["render", "--in", path, "--out", os.path.join(tmp, "o.svg")]) == 0
                scenes, provenance = read_scene_file(path)
                assert scenes_to_document(scenes, provenance) == json.loads(_base_document_bytes(classical))
