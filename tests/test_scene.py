"""Scene generation: parametrization values, the worked six-parameter
example, determinism, classical aliasing, Kwon draws, validation."""

import dataclasses
from fractions import Fraction as F

import pytest

from brocard.geom import Circle, Point, collinear_det, dist2, line_through, on_circle, on_line, orientation
from brocard.scene import (
    GenerationExhausted,
    SceneParams,
    circle_point_from_parameter,
    classical_brocard_scene,
    generate_scene,
    kwon_scene,
    scene_from_parameters,
    validate_scene,
)

ORIGIN = Point(0, 0)


class TestParametrization:
    def test_reference_values(self):
        assert circle_point_from_parameter(0, ORIGIN, 1) == Point(1, 0)
        assert circle_point_from_parameter(1, ORIGIN, 1) == Point(0, 1)
        # (1 - 9)/(1 + 9), 6/(1 + 9)
        assert circle_point_from_parameter(3, ORIGIN, 1) == Point(F(-4, 5), F(3, 5))

    def test_always_on_circle(self):
        center = Point(F(1, 3), -2)
        radius = F(5, 7)
        gamma_r2 = radius * radius
        for t in (F(0), F(2, 3), F(-11, 4), F(50)):
            p = circle_point_from_parameter(t, center, radius)
            assert dist2(center, p) == gamma_r2


class TestWorkedExample:
    PARAMS = [F(0), F(1), F(-1), F(3), F(1, 2), F(-2)]

    def test_six_points(self):
        s = scene_from_parameters(self.PARAMS, ORIGIN, 1)
        assert s.a1 == Point(1, 0) and s.a2 == Point(0, 1)
        assert s.b1 == Point(0, -1) and s.b2 == Point(F(-4, 5), F(3, 5))
        assert s.c1 == Point(F(3, 5), F(4, 5)) and s.c2 == Point(F(-3, 5), F(-4, 5))

    def test_vertices(self):
        s = scene_from_parameters(self.PARAMS, ORIGIN, 1)
        assert s.a == Point(F(-3, 10), F(-2, 5))
        assert s.b == Point(F(3, 7), F(4, 7))
        assert s.c == Point(-2, 3)
        assert orientation(s.a, s.b, s.c) == 1

    def test_validates(self):
        s = scene_from_parameters(self.PARAMS, ORIGIN, 1)
        assert validate_scene(s) == []

    def test_repeated_parameter_rejected(self):
        from brocard.geom import Degenerate

        with pytest.raises(Degenerate):
            scene_from_parameters([F(0), F(0), F(-1), F(3), F(1, 2), F(-2)], ORIGIN, 1)


class TestGeneration:
    def test_deterministic(self):
        s1 = generate_scene(SceneParams(seed=11))
        s2 = generate_scene(SceneParams(seed=11))
        assert s1 == s2

    def test_distinct_seeds_differ(self):
        assert generate_scene(SceneParams(seed=1)) != generate_scene(SceneParams(seed=2))

    def test_generated_scenes_validate(self):
        for seed in range(25):
            assert validate_scene(generate_scene(SceneParams(seed=seed))) == []

    def test_thousand_seeds_validate(self):
        assert all(
            validate_scene(generate_scene(SceneParams(seed=seed))) == []
            for seed in range(1000)
        )

    def test_pathological_bounds_exhaust(self):
        # numerators in {-1, 0, 1} over denominator 1: only three distinct
        # parameter values, never six.
        with pytest.raises(GenerationExhausted):
            generate_scene(SceneParams(seed=0, numerator_cap=1, denominator_cap=1, max_attempts=30))

    def test_strict_segments(self):
        s = generate_scene(SceneParams(seed=3, strict_segments=True))
        assert s.strict_segments
        assert validate_scene(s) == []

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SceneParams(seed=0, radius=F(0))
        with pytest.raises(ValueError):
            SceneParams(seed=0, numerator_cap=0)


class TestClassical:
    def test_reference_triangle(self):
        s = classical_brocard_scene(0, 1, -1)
        assert (s.a, s.b, s.c) == (Point(1, 0), Point(0, 1), Point(0, -1))
        assert s.gamma.center == ORIGIN and s.gamma.radius2 == 1
        assert s.o == ORIGIN and s.classical

    def test_side_lengths(self):
        s = classical_brocard_scene(0, 1, -1)
        assert dist2(s.b, s.c) == 4
        assert dist2(s.c, s.a) == 2
        assert dist2(s.a, s.b) == 2

    def test_aliasing(self):
        s = classical_brocard_scene(0, 1, -1)
        assert (s.a1, s.a2) == (s.b, s.c)
        assert (s.b1, s.b2) == (s.c, s.a)
        assert (s.c1, s.c2) == (s.a, s.b)
        assert validate_scene(s) == []

    def test_orientation_fixed(self):
        s = classical_brocard_scene(1, 0, -1)  # order that would be clockwise
        assert orientation(s.a, s.b, s.c) == 1
        assert validate_scene(s) == []

    def test_repeated_parameters(self):
        with pytest.raises(GenerationExhausted):
            classical_brocard_scene(0, 0, 1)


class TestKwon:
    def test_forced_equidistances(self):
        kw = kwon_scene(1)
        assert dist2(kw.t, kw.d) == dist2(kw.t, kw.x)
        assert dist2(kw.t, kw.e) == dist2(kw.t, kw.y)
        assert dist2(kw.t, kw.f) == dist2(kw.t, kw.z)

    def test_points_on_sides(self):
        from brocard.geom import line_through

        kw = kwon_scene(5)
        bc = line_through(kw.b, kw.c)
        ca = line_through(kw.c, kw.a)
        ab = line_through(kw.a, kw.b)
        assert on_line(kw.d, bc) and on_line(kw.x, bc)
        assert on_line(kw.e, ca) and on_line(kw.y, ca)
        assert on_line(kw.f, ab) and on_line(kw.z, ab)

    def test_deterministic(self):
        assert kwon_scene(1) == kwon_scene(1)
        assert kwon_scene(1) != kwon_scene(2)

    def test_seed_draw_pinned(self):
        """The instance a seed draws is fixed: seed 1 puts D, X on BC, E, Y
        on CA and F on AB here."""
        kw = kwon_scene(1)
        assert (kw.d, kw.x, kw.e, kw.y, kw.f) == (
            Point(F(-67, 16), F(25, 32)),
            Point(F(-35, 8), F(13, 16)),
            Point(F(11, 50), F(8, 5)),
            Point(F(37, 60), F(-2, 3)),
            Point(F(-34, 15), F(71, 8)),
        )
        assert kw.z == Point(F(-1834999, 294050), F(-1835253, 188192))


def _witnesses(scene, message):
    return next(v.witnesses for v in validate_scene(scene) if v == message)


class TestValidation:
    def test_tampered_point(self):
        s = generate_scene(SceneParams(seed=7))
        bad = dataclasses.replace(s, a1=s.a1 + Point(1, 0))
        violations = validate_scene(bad)
        assert "a1 not on BC" in violations
        assert "a1 not on gamma" in violations

    def test_clockwise_relabel(self):
        s = generate_scene(SceneParams(seed=7))
        bad = dataclasses.replace(s, a=s.b, b=s.a)
        assert any("orientation" in v for v in validate_scene(bad))

    def test_center_mismatch(self):
        s = generate_scene(SceneParams(seed=7))
        bad = dataclasses.replace(s, o=s.o + Point(0, 1))
        assert any("center" in v for v in validate_scene(bad))

    def test_a1_off_by_a_third_carries_residuals(self):
        s = generate_scene(SceneParams(seed=7))
        moved = s.a1 + Point(F(1, 3), 0)
        bad = dataclasses.replace(s, a1=moved)
        witnesses = {v: v.witnesses for v in validate_scene(bad)}
        assert witnesses == {
            "a1 not on BC": (line_through(s.b, s.c).eval(moved),),
            "a1 not on gamma": (s.gamma.eval(moved),),
        }
        assert all(w[0] != 0 for w in witnesses.values())

    def test_inequality_witnesses_are_the_offending_values(self):
        s = generate_scene(SceneParams(seed=7))
        clockwise = dataclasses.replace(s, a=s.b, b=s.a)
        (det,) = _witnesses(clockwise, "orientation: triangle is not anticlockwise")
        assert det == collinear_det(s.b, s.a, s.c) < 0
        flat = dataclasses.replace(s, gamma=Circle(0, 0, 1))
        assert _witnesses(flat, "gamma has non-positive squared radius") == (F(-1),)

    def test_center_and_alias_witnesses_are_coordinate_differences(self):
        s = generate_scene(SceneParams(seed=7))
        off = dataclasses.replace(s, o=s.o + Point(F(2, 3), -1))
        assert _witnesses(off, "o is not the center of gamma") == (F(2, 3), F(-1))
        cl = classical_brocard_scene(0, 1, 3)
        broken = dataclasses.replace(cl, a1=cl.c)
        assert _witnesses(broken, "classical aliasing broken for a1") == (cl.c.x - cl.b.x, cl.c.y - cl.b.y)

    def test_distinctness_witness_is_the_zero_difference(self):
        s = generate_scene(SceneParams(seed=7))
        twice = dataclasses.replace(s, a2=s.a1)
        assert _witnesses(twice, "incidence points are not pairwise distinct") == (0, 0)
        on_vertex = dataclasses.replace(s, a1=s.b)
        assert _witnesses(on_vertex, "incidence point coincides with a vertex") == (0, 0)
        pinched = dataclasses.replace(s, b=s.c)
        assert validate_scene(pinched) == ["triangle vertices are not pairwise distinct"]
        assert validate_scene(pinched)[0].witnesses == (0, 0)

    def test_segment_witness_is_the_affine_parameter(self):
        checked = 0
        for seed in range(1, 20):
            s = generate_scene(SceneParams(seed=seed))
            strict = dataclasses.replace(s, strict_segments=True)
            outside = {v: v.witnesses for v in validate_scene(strict)}
            for name, p, e1, e2 in (("a1", s.a1, s.b, s.c), ("b1", s.b1, s.c, s.a), ("c1", s.c1, s.a, s.b)):
                # p is on the line e1-e2: read its parameter off one coordinate.
                lam = (p.x - e1.x) / (e2.x - e1.x) if e2.x != e1.x else (p.y - e1.y) / (e2.y - e1.y)
                label = f"{name} outside the closed segment"
                assert (label in outside) == (not 0 <= lam <= 1)
                if label in outside:
                    assert outside[label] == (lam,)
                    checked += 1
        assert checked > 0

    def test_all_points_on_gamma(self):
        s = generate_scene(SceneParams(seed=9))
        for p in s.incidence_points:
            assert on_circle(p, s.gamma)
