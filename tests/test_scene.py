"""Scene generation: parametrization values, the worked six-parameter
example, determinism, the strict-segment squeeze, classical aliasing, Kwon
draws, validation."""

import dataclasses
import hashlib
from fractions import Fraction as F
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from brocard.geom import (
    Circle,
    GeometryError,
    Line,
    Point,
    collinear_det,
    dist2,
    foot_perpendicular,
    intersect_lines,
    line_through,
    on_circle,
    on_line,
    orientation,
)
from brocard.scene import (
    GenerationExhausted,
    KwonScene,
    SceneParams,
    _chords_adjacent,
    circle_point_from_parameter,
    classical_brocard_scene,
    generate_scene,
    kwon_scene,
    scene_from_parameters,
    validate_scene,
)
from brocard.sceneio import scene_digest

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
            generate_scene(SceneParams(seed=0, numerator_cap=1, denominator_cap=1))

    def test_strict_segments(self):
        s = generate_scene(SceneParams(seed=3, strict_segments=True))
        assert s.strict_segments
        assert validate_scene(s) == []

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SceneParams(seed=0, radius=F(0))
        with pytest.raises(ValueError):
            SceneParams(seed=0, numerator_cap=0)


def _ref_chords_adjacent(ts):
    """The squeeze's definition on Fractions: each chord's pair has the
    other four parameters all strictly inside or all strictly outside it."""
    for k in (0, 2, 4):
        lo, hi = sorted(ts[k:k + 2])
        others = ts[:k] + ts[k + 2:]
        if not (all(lo < t < hi for t in others) or all(t < lo or t > hi for t in others)):
            return False
    return True


def _strict_scene(draws):
    """The scene the full path builds from integer draws, or None."""
    try:
        return scene_from_parameters([F(n, d) for n, d in draws], ORIGIN, 1, strict_segments=True)
    except GeometryError:
        return None


def _sextuples(caps):
    return caps.flatmap(
        lambda cap: st.lists(st.tuples(st.integers(-cap, cap), st.integers(1, cap)), min_size=6, max_size=6)
    )


@st.composite
def _paired_sextuples(draw, caps):
    """Six draws whose chords take consecutive values around gamma, in any
    labelling: the shape of every strict scene, so the full path often
    accepts them."""
    ds = sorted(draw(_sextuples(caps)), key=lambda nd: F(*nd))
    if draw(st.booleans()):
        ds = ds[1:] + ds[:1]
    pairs = draw(st.permutations([ds[0:2], ds[2:4], ds[4:6]]))
    return [nd for pair in pairs for nd in (pair if draw(st.booleans()) else pair[::-1])]


class TestStrictSqueeze:
    """``_chords_adjacent``, the squeeze ``generate_scene`` applies to strict
    draws before building them, is its definition and never rejects a draw
    that ``scene_from_parameters`` accepts."""

    # Sorted: -4 (a1), -4/3 (c1), -1 (c2), -1/2 (b2), 4/3 (b1), 2 (a2).
    SWAPPED = [(-4, 1), (2, 1), (4, 3), (-1, 2), (-4, 3), (-1, 1)]

    @settings(max_examples=300)
    @given(st.one_of(*(
        shape(caps) for shape in (_sextuples, _paired_sextuples)
        for caps in (st.integers(1, 6), st.integers(1, 10**12))
    )))
    def test_sound_and_exact(self, draws):
        ts = [F(n, d) for n, d in draws]
        assert _chords_adjacent(draws) == _ref_chords_adjacent(ts)
        if _strict_scene(draws) is not None:
            assert _chords_adjacent(draws)

    def test_orientation_swap(self):
        """The chords' first labelling is clockwise, so the B and C pairs
        swap labels; the squeeze does not depend on the labels."""
        s = _strict_scene(self.SWAPPED)
        assert s is not None and s.b1 == circle_point_from_parameter(F(-4, 3), ORIGIN, 1)
        assert _chords_adjacent(self.SWAPPED)

    def test_equal_values_written_differently(self):
        scaled = [(n * k, d * k) for (n, d), k in zip(self.SWAPPED, (2, 3, 5, 7, 1, 4))]
        assert _strict_scene(scaled) is not None and _chords_adjacent(scaled)
        # 2/4 is a1 = 1/2 again: on an endpoint, neither inside nor outside.
        repeated = [(1, 2), (3, 1), (2, 4), (1, 1), (2, 1), (5, 2)]
        assert _strict_scene(repeated) is None and not _chords_adjacent(repeated)

    @pytest.mark.parametrize("draws", [
        [(3, 1), (6, 1), (4, 1), (5, 1), (1, 1), (2, 1)],
        [(1, 1), (2, 1), (3, 1), (6, 1), (4, 1), (5, 1)],
        [(4, 1), (5, 1), (1, 1), (2, 1), (3, 1), (6, 1)],
    ], ids=["a-encloses-b", "b-encloses-c", "c-encloses-a"])
    def test_nested_chord_rejected(self, draws):
        """One chord's arc holds another chord and not the third; the other
        two pairs are adjacent, so only that chord's test rejects."""
        assert _strict_scene(draws) is None
        assert not _chords_adjacent(draws)

    def test_generation_unchanged(self):
        """sha256 over the strict scene digests, one line per seed, with
        GenerationExhausted as its own line.  The pins were computed at
        commit e7fc779, before the squeeze; 34 of the caps-2 seeds exhaust."""
        pins = {
            (4, range(1, 200)): "12e89782c99971b3a266048f5328fb91cc240236aa71c63c0f6315254c8fc3b1",
            (2, range(1, 100)): "1b0c2fe981d2ed62002299944d411dcddae53278c98e7fc8bae7530be2727cab",
        }
        for (caps, seeds), pin in pins.items():
            lines = []
            for seed in seeds:
                params = SceneParams(seed=seed, numerator_cap=caps, denominator_cap=caps, strict_segments=True)
                try:
                    lines.append(scene_digest(generate_scene(params)))
                except GenerationExhausted:
                    lines.append("GenerationExhausted")
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == pin


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


def _ref_kwon_scene(seed):
    """The Kwon draw in Fraction arithmetic, as ``kwon_scene`` made it before
    it drew integer pairs: the same ``randint`` calls in the same order."""
    rng = Random(seed)

    def draw_rat(lo, hi):
        return F(rng.randint(lo, hi), rng.randint(1, 6))

    for _ in range(200):
        a = Point(draw_rat(-12, 12), draw_rat(-12, 12))
        b = Point(draw_rat(-12, 12), draw_rat(-12, 12))
        c = Point(draw_rat(-12, 12), draw_rat(-12, 12))
        if orientation(a, b, c) == 0:
            continue
        if orientation(a, b, c) < 0:
            b, c = c, b

        def on_side(p1, p2):
            t = draw_rat(-2, 8) / 6
            return Point(p1.x + t * (p2.x - p1.x), p1.y + t * (p2.y - p1.y))

        def bisector(p, q):  # the z with 2 (q - p).z = |q|^2 - |p|^2
            return Line(2 * (q.x - p.x), 2 * (q.y - p.y), p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y)

        d, x = on_side(b, c), on_side(b, c)
        e, y = on_side(c, a), on_side(c, a)
        f = on_side(a, b)
        try:
            if d == x or e == y:
                continue
            t = intersect_lines(bisector(d, x), bisector(e, y))
            z = 2 * foot_perpendicular(t, line_through(a, b)) - f
            kw = KwonScene(a=a, b=b, c=c, d=d, e=e, f=f, x=x, y=y, z=z, t=t)
            kw.miquel_points
        except GeometryError:
            continue
        return kw
    raise GenerationExhausted(f"no valid Kwon scene (seed {seed})")


#: Seeds whose draws take each branch of the Kwon loop: the B <-> C swap
#: (4), no swap (1, 3), a retry on collinear vertices (11, 188), on D = X
#: (25), on E = Y (54), and on a GeometryError, here a Miquel circle whose
#: two defining points collapse onto vertex A, B or C (12, 195, 985).
KWON_BRANCH_SEEDS = (1, 3, 4, 11, 12, 25, 54, 188, 195, 985)


class TestKwon:
    def test_matches_reference(self):
        """Field for field on the branch seeds, on seeds 0..299, and on 100
        seeds of 48 bits, as the suite derives them from scene digests."""
        rng = Random(2024)
        for seed in [*KWON_BRANCH_SEEDS, *range(300), *(rng.getrandbits(48) for _ in range(100))]:
            kw, ref = kwon_scene(seed), _ref_kwon_scene(seed)
            for field in dataclasses.fields(KwonScene):
                assert getattr(kw, field.name) == getattr(ref, field.name), (seed, field.name)

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

    def test_segments_are_closed(self):
        """An incidence point on either end of its side is on the closed
        segment: only the vertex violation is reported."""
        s = generate_scene(SceneParams(seed=3, strict_segments=True))
        for moved in (dataclasses.replace(s, a1=s.b), dataclasses.replace(s, a1=s.c)):
            violations = validate_scene(moved)
            assert "incidence point coincides with a vertex" in violations
            assert not any("closed segment" in v for v in violations)

    def test_all_points_on_gamma(self):
        s = generate_scene(SceneParams(seed=9))
        for p in s.incidence_points:
            assert on_circle(p, s.gamma)
