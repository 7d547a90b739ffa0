"""Pipeline constructions: Miquel points, the full configuration, the
classical overlay, and the collapse path."""

import dataclasses
from fractions import Fraction as F
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from brocard import pipeline
from brocard.checks import run_suite
from brocard.geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    Point,
    Triangle,
    circle_through_tangent,
    circumcircle,
    collinear_det,
    dist2,
    intersect_lines,
    isogonal_conjugate,
    line_through,
    on_circle,
    on_line,
    orientation,
    parallel,
    simson_line,
)
from brocard.pipeline import (
    classical_overlay,
    compute_configuration,
    miquel_point,
    miquel_point_quadrangle,
    spiral_ratio,
    tangent_of_angle,
)
from brocard.scene import (
    Scene,
    SceneParams,
    circle_point_from_parameter,
    classical_brocard_scene,
    generate_scene,
    scene_from_parameters,
)


def random_triangle(rng: Random):
    while True:
        pts = [Point(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
        if orientation(*pts) > 0:
            return pts
        if orientation(*pts) < 0:
            pts[1], pts[2] = pts[2], pts[1]
            return pts


class TestMiquelPoint:
    def test_medial_triangle_gives_circumcenter(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        m = miquel_point(F(1, 2) * (b + c), F(1, 2) * (c + a), F(1, 2) * (a + b), Triangle(a, b, c))
        assert m == circumcircle(a, b, c).center == Point(2, 1)

    def test_medial_triangle_random(self):
        rng = Random(4242)
        for _ in range(5):
            a, b, c = random_triangle(rng)
            m = miquel_point(F(1, 2) * (b + c), F(1, 2) * (c + a), F(1, 2) * (a + b), Triangle(a, b, c))
            assert m == circumcircle(a, b, c).center

    def test_classical_aliasing_gives_brocard_point(self):
        s = classical_brocard_scene(0, 1, -1)
        omega = miquel_point(s.b, s.c, s.a, s.triangle)
        # the first Brocard point satisfies the equal-angle condition
        t1 = tangent_of_angle(s.a, s.b, omega)
        t2 = tangent_of_angle(s.b, s.c, omega)
        t3 = tangent_of_angle(s.c, s.a, omega)
        assert t1 == t2 == t3

    def test_misplaced_point_rejected(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        with pytest.raises(Degenerate):
            miquel_point(F(1, 2) * (c + a), F(1, 2) * (b + c), F(1, 2) * (a + b), Triangle(a, b, c))


class TestMiquelQuadrangle:
    def test_square_degenerate(self):
        with pytest.raises(Degenerate) as err:
            miquel_point_quadrangle(Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1))
        assert err.value.name == "P"

    def test_memberships_on_random_quadrangle(self):
        pts = [circle_point_from_parameter(t, Point(0, 0), 1) for t in (F(0), F(1), F(-1), F(3))]
        m = miquel_point_quadrangle(*pts)
        pa, pb, pc, pd = pts
        p = intersect_lines(line_through(pa, pb), line_through(pc, pd))
        q = intersect_lines(line_through(pa, pd), line_through(pb, pc))
        for circle in (
            circumcircle(p, pa, pd),
            circumcircle(p, pb, pc),
            circumcircle(q, pa, pb),
            circumcircle(q, pc, pd),
        ):
            assert on_circle(m, circle)

    def test_cyclic_quadrangle_point_on_pq(self):
        pts = [circle_point_from_parameter(t, Point(2, -1), F(5, 2)) for t in (F(1, 2), F(2), F(-3), F(5))]
        m = miquel_point_quadrangle(*pts)
        p = intersect_lines(line_through(pts[0], pts[1]), line_through(pts[2], pts[3]))
        q = intersect_lines(line_through(pts[0], pts[3]), line_through(pts[1], pts[2]))
        assert on_line(m, line_through(p, q))


class TestSpiralRatio:
    def test_foot_maps_to_one(self):
        from brocard.geom import foot_perpendicular

        side = line_through(Point(0, 0), Point(4, 0))
        m = Point(1, 2)
        ft = foot_perpendicular(m, side)
        r = spiral_ratio(m, ft, side)
        assert (r.re, r.im) == (1, 0)

    def test_center_on_side_rejected(self):
        side = line_through(Point(0, 0), Point(4, 0))
        with pytest.raises(Degenerate):
            spiral_ratio(Point(2, 0), Point(1, 0), side)


class TestConfiguration:
    def test_worked_scene_memberships(self):
        s = scene_from_parameters([F(0), F(1), F(-1), F(3), F(1, 2), F(-2)], Point(0, 0), 1)
        cfg = compute_configuration(s)
        assert cfg.complete
        for pt in (cfg.p, cfg.q, cfg.o, cfg.r, cfg.a_prime, cfg.b_prime,
                   cfg.c_prime, cfg.t_a, cfg.t_b, cfg.t_c):
            assert on_circle(pt, cfg.brocard_circle)
        assert F(1, 2) * (cfg.o + cfg.r) == cfg.brocard_circle.center

    def test_isogonal_pair(self):
        s = generate_scene(SceneParams(seed=13))
        cfg = compute_configuration(s)
        assert isogonal_conjugate(cfg.p, s.a, s.b, s.c) == cfg.q

    def test_spiral_ratios_cancel(self):
        s = generate_scene(SceneParams(seed=17))
        cfg = compute_configuration(s)
        assert (cfg.r_p * cfg.r_q).im == 0

    def test_classical_r_equals_symmedian(self):
        cfg = compute_configuration(classical_brocard_scene(0, 1, -1))
        assert cfg.r == Point(F(1, 2), 0)

    def test_pascal_line_contains_finite_meets(self):
        s = generate_scene(SceneParams(seed=19))
        cfg = compute_configuration(s)
        assert collinear_det(cfg.a0, cfg.b0, cfg.c0) == 0
        for pt in (cfg.a0, cfg.b0, cfg.c0):
            assert on_line(pt, cfg.pascal_line)

    def test_steiner_tarry_on_circumcircle(self):
        s = generate_scene(SceneParams(seed=23))
        cfg = compute_configuration(s)
        assert on_circle(cfg.steiner, cfg.circ)
        assert cfg.tarry == 2 * cfg.circ.center - cfg.steiner

    def test_t_vertex_on_its_primed_vertex_degenerate(self):
        # T_C == C' == (0, -5/4): the third perspector line is undefined.
        s = scene_from_parameters(["-1", "-2", "1/2", "2", "-1/2", "1"], Point(0, 0), 1)
        with pytest.raises(Degenerate) as err:
            compute_configuration(s)
        assert err.value.name == "S"

    def test_simson_directions(self):
        s = generate_scene(SceneParams(seed=29))
        cfg = compute_configuration(s)
        or_line = line_through(cfg.o, cfg.r)
        tri = Triangle(s.a, s.b, s.c)
        assert parallel(simson_line(cfg.steiner, tri), or_line)
        tarry_line = simson_line(cfg.tarry, tri)
        assert tarry_line.a * or_line.a + tarry_line.b * or_line.b == 0


COLLAPSE_SCENE = Scene(
    a=Point(0, 9), b=Point(0, 0), c=Point(12, 0),
    gamma=Circle.from_center_radius2(Point(3, 3), 25), o=Point(3, 3),
    a1=Point(7, 0), a2=Point(-1, 0),
    b1=Point(F(8, 5), F(39, 5)), b2=Point(8, 3),
    c1=Point(0, -1), c2=Point(0, 7),
)


class TestCollapse:
    """A circle centered at the incenter cuts the sides in spiral-symmetric
    pairs, pulling both Miquel points into the incenter: the rational
    analogue of the equilateral classical collapse."""

    def test_scene_is_valid(self):
        from brocard.scene import validate_scene

        assert validate_scene(COLLAPSE_SCENE) == []

    def test_detected(self):
        cfg = compute_configuration(COLLAPSE_SCENE)
        assert cfg.collapsed
        assert cfg.p == cfg.q == Point(3, 3)
        assert not cfg.complete
        assert cfg.brocard_circle is None


def tangent_circles(cfg):
    """The six tangent circles of the Brocard points by name: the Miquel
    circles of P at A, B, C are (w_c, w_a, w_b), those of Q
    (w_b_prime, w_c_prime, w_a_prime)."""
    return {
        **dict(zip(("w_c", "w_a", "w_b"), cfg.p_circles)),
        **dict(zip(("w_b_prime", "w_c_prime", "w_a_prime"), cfg.q_circles)),
    }


class TestClassicalOverlay:
    def test_brocard_points_meet_tangent_circles(self):
        cfg = compute_configuration(classical_brocard_scene(0, 1, 3))
        circles = tangent_circles(cfg)
        for name in ("w_a", "w_b", "w_c"):
            assert on_circle(cfg.p, circles[name])
        for name in ("w_a_prime", "w_b_prime", "w_c_prime"):
            assert on_circle(cfg.q, circles[name])

    def test_r_equals_k_and_tangent_oracle(self):
        s = classical_brocard_scene(0, 1, 3)
        cfg = compute_configuration(s)
        ov = classical_overlay(cfg)
        assert ov.k == cfg.r
        area2 = F(2) * (s.b - s.a).x * (s.c - s.a).y - F(2) * (s.b - s.a).y * (s.c - s.a).x
        total = dist2(s.b, s.c) + dist2(s.c, s.a) + dist2(s.a, s.b)
        assert ov.tan_brocard == area2 / total
        assert cfg.overlay == ov

    def test_isoceles_mirror_symmetry(self):
        cfg = compute_configuration(classical_brocard_scene(0, 1, -1))
        assert cfg.p.x == cfg.q.x
        assert cfg.p.y == -cfg.q.y

    def test_requires_classical_scene(self):
        cfg = compute_configuration(generate_scene(SceneParams(seed=7)))
        with pytest.raises(ValueError):
            classical_overlay(cfg)

    @pytest.mark.parametrize("params", [(0, 1, -1), (0, 1, 3), (F(1, 2), -3, F(7, 5))])
    def test_circles_are_the_tangent_circles(self, params, monkeypatch):
        """Each Miquel circle of a classical configuration is the circle
        tangent to a sideline at one end and through the opposite vertex,
        named as in ``tangent_circles``; the configuration builds the six
        once, in one tangent-circle call each."""
        s = classical_brocard_scene(*params)
        a, b, c = s.a, s.b, s.c
        bc, ca, ab = s.triangle.sides
        expected = {
            "w_a": circle_through_tangent(b, bc, a),
            "w_b": circle_through_tangent(c, ca, b),
            "w_c": circle_through_tangent(a, ab, c),
            "w_a_prime": circle_through_tangent(c, bc, a),
            "w_b_prime": circle_through_tangent(a, ca, b),
            "w_c_prime": circle_through_tangent(b, ab, c),
        }
        calls = []

        def counted(*args):
            calls.append(args)
            return circle_through_tangent(*args)

        monkeypatch.setattr(pipeline, "circle_through_tangent", counted)
        cfg = compute_configuration(s)
        classical_overlay(cfg)
        assert tangent_circles(cfg) == expected
        assert len(calls) == 6


def _similar(alpha, beta, p):
    """alpha * p + beta, reading the point p as a complex number; Fraction
    arithmetic on the coordinate views."""
    (ar, ai), (br, bi) = alpha, beta
    return Point(ar * p.x - ai * p.y + br, ar * p.y + ai * p.x + bi)


def _similar_circle(alpha, beta, c):
    """The image circle: the image center, radius squared times |alpha|^2."""
    center = _similar(alpha, beta, Point(-c.d / 2, -c.e / 2))
    r2 = (c.d * c.d + c.e * c.e) / 4 - c.f
    r2 *= alpha[0] ** 2 + alpha[1] ** 2
    return Circle(-2 * center.x, -2 * center.y, center.x * center.x + center.y * center.y - r2)


SCENE_POINTS = ("a", "b", "c", "o", "a1", "a2", "b1", "b2", "c1", "c2")


def _similar_scene(alpha, beta, s):
    return dataclasses.replace(
        s,
        gamma=_similar_circle(alpha, beta, s.gamma),
        **{name: _similar(alpha, beta, getattr(s, name)) for name in SCENE_POINTS},
    )


scales = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)


@st.composite
def direct_similarities(draw):
    """(alpha, beta) of z -> alpha*z + beta: alpha a Pythagorean-triple unit
    ((m^2 - n^2) + 2mn*i) / (m^2 + n^2) times a nonzero rational scale, beta
    a rational complex number."""
    m, n = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    assume(m or n)
    k = draw(scales) / (m * m + n * n)
    shift = st.fractions(min_value=-9, max_value=9, max_denominator=11)
    return (k * (m * m - n * n), k * 2 * m * n), (draw(shift), draw(shift))


class TestSimilarityEquivariance:
    """A direct similarity commutes with the whole construction: the
    configuration of the image scene is the image of the configuration,
    exactly, and the suite reports the same statuses and labels."""

    @example(seed=7, sim=((F(6, 5), F(8, 5)), (F(1, 2), F(-3))))
    @settings(max_examples=25)
    @given(st.integers(0, 10**6), direct_similarities())
    def test_configuration_maps_exactly(self, seed, sim):
        alpha, beta = sim
        scene = generate_scene(SceneParams(seed=seed))
        image = _similar_scene(alpha, beta, scene)
        cfg, image_cfg = compute_configuration(scene), compute_configuration(image)
        assert image_cfg.collapsed == cfg.collapsed
        for f in dataclasses.fields(cfg):
            value, mapped = getattr(cfg, f.name), getattr(image_cfg, f.name)
            if isinstance(value, Point):
                assert mapped == _similar(alpha, beta, value), f.name
            elif isinstance(value, Circle):
                assert mapped == _similar_circle(alpha, beta, value), f.name
            elif isinstance(value, tuple):  # the Miquel circles of P and of Q
                assert mapped == tuple(_similar_circle(alpha, beta, c) for c in value), f.name
            elif isinstance(value, ComplexScalar):
                assert mapped == value, f.name  # spiral ratios are invariant
            elif value is None:
                assert mapped is None, f.name
            else:  # no other field goes unchecked; the Pascal line's meets are mapped
                assert f.name in ("scene", "collapsed", "pascal_line"), f.name

        def outline(report):
            return [(r.check_id, r.status, [a.label for a in r.assertions]) for r in report.results]

        assert outline(run_suite(image)) == outline(run_suite(scene))
