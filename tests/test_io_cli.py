"""Persistence and CLI contracts: lossless round trips, canonical-bytes
determinism, exit codes, SVG output."""

import json
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from brocard.cli import main
from brocard.geom import Point
from brocard.scene import SceneParams, classical_brocard_scene, generate_scene
from brocard.sceneio import (
    SceneFormatError,
    rational_from_str,
    rational_to_str,
    read_scene_file,
    scene_digest,
    scene_from_dict,
    scene_to_dict,
    write_scene_file,
)


class TestRationalStrings:
    def test_round_trip(self):
        for v in (F(0), F(3), F(-7, 2), F(22, 7)):
            assert rational_from_str(rational_to_str(v)) == v

    @given(st.fractions() | st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)))
    def test_canonical_round_trip(self, v):
        text = rational_to_str(v)
        assert rational_from_str(text) == v
        assert rational_to_str(rational_from_str(text)) == text

    def test_plain_integer_rejected(self):
        with pytest.raises(SceneFormatError):
            rational_from_str("5")

    @pytest.mark.parametrize(
        "text",
        [
            "6_260/35891", " 3/4", "3/4 ", "3/4\n", "+3/4", "-0/1", "03/4", "3/04",
            "-3/+4", "3/", "/4", "3/4/5", "", "\u0663/4", "1/0", "0/5",
        ],
    )
    def test_non_canonical_rejected(self, text):
        with pytest.raises(SceneFormatError):
            rational_from_str(text)

    def test_not_lowest_terms_rejected(self):
        with pytest.raises(SceneFormatError):
            rational_from_str("2/4")

    def test_negative_denominator_rejected(self):
        with pytest.raises(SceneFormatError):
            rational_from_str("1/-2")

    def test_garbage_rejected(self):
        with pytest.raises(SceneFormatError):
            rational_from_str("a/b")


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
        x = rational_from_str(doc["scenes"][0]["a1"][0]) + 1
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
        f = rational_from_str(doc["scenes"][0]["gamma"]["f"])
        doc["scenes"][0]["gamma"]["f"] = rational_to_str(f + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        fig = tmp_path / "fig.svg"
        assert main(["render", "--in", str(bad), "--index", "0", "--out", str(fig)]) == 1
        assert "a1 not on gamma" in capsys.readouterr().err
        assert not fig.exists()

    def test_index_out_of_range(self, scene_file, tmp_path):
        assert main(["render", "--in", str(scene_file), "--index", "5", "--out", str(tmp_path / "x.svg")]) == 1

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


def test_report_omits_timing(tmp_path):
    path = tmp_path / "scenes.json"
    assert main(["generate", "--seed", "5", "--count", "1", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["verify", "--in", str(path), "--report", str(report)]) == 0
    assert "elapsed" not in report.read_text()


def test_render_digits_flag(tmp_path):
    path = tmp_path / "scenes.json"
    assert main(["generate", "--seed", "42", "--count", "1", "--out", str(path)]) == 0
    d3, d9 = tmp_path / "d3.svg", tmp_path / "d9.svg"
    assert main(["render", "--in", str(path), "--index", "0", "--out", str(d3), "--digits", "3"]) == 0
    assert main(["render", "--in", str(path), "--index", "0", "--out", str(d9)]) == 0
    assert len(d3.read_text()) < len(d9.read_text())


class TestGoldenBytes:
    """Canonical serialization is pinned: any change to the scene or report
    byte format (or to the seeded generator) must update these digests."""

    SCENE_SHA = "f2d53441be2ded834bf490b5fed50062fd13a4c65851fc82e59b1fe33b7c35e2"
    REPORT_SHA = "dd0dad47468e4653d814343d28422ca818d976d16186a74a90349e3a5ff45dd7"

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
