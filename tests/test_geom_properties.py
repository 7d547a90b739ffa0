"""Property-based invariants of the exact kernel."""

import copy
import dataclasses
import pickle
from fractions import Fraction as F
from math import gcd, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

from brocard.checks import _Recorder
from brocard.geom import (
    CenterDegenerate,
    Circle,
    CirclesIdentical,
    CoincidentPoints,
    CollinearPoints,
    ComplexScalar,
    Degenerate,
    DirectedAngleClass,
    GeometryError,
    InverseSimilarity,
    Line,
    ParallelLines,
    Point,
    Triangle,
    circumcircle,
    collinear_det,
    complex_ratio,
    cross,
    directed_angle,
    dist2,
    dot,
    foot_perpendicular,
    intersect_lines,
    isogonal_conjugate,
    line_through,
    midpoint,
    on_circle,
    on_line,
    orientation,
    parallel_through,
    perpendicular_bisector,
    point_along,
    polar_of_point,
    perpendicular_through,
    pole_of_line,
    second_intersection_circle_line,
    second_intersection_circles,
    inverse_similarity_map,
    simson_line,
    spiral_ratio,
    tangent_line,
)
from brocard.pipeline import tangent_of_angle
from brocard.scene import circle_point_from_parameter

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
points = st.builds(Point, rationals, rationals)


@st.composite
def triangles(draw):
    a, b, c = draw(points), draw(points), draw(points)
    assume(orientation(a, b, c) != 0)
    return a, b, c


@st.composite
def lines(draw):
    p, q = draw(points), draw(points)
    assume(p != q)
    return line_through(p, q)


@st.composite
def circles(draw):
    center = draw(points)
    r2 = draw(st.fractions(min_value=F(1, 4), max_value=25, max_denominator=12))
    return Circle.from_center_radius2(center, r2)


@given(rationals, rationals, rationals)
def test_line_canonicalization_idempotent_and_equality_complete(a, b, c):
    assume(a != 0 or b != 0)
    l = Line(a, b, c)
    assert Line(l.a, l.b, l.c) == l
    for scale in (F(2), F(-3), F(5, 7)):
        assert Line(scale * a, scale * b, scale * c) == l


@given(rationals, rationals)
def test_angle_class_canonicalization(u, v):
    assume(u != 0 or v != 0)
    cls = DirectedAngleClass(u, v)
    assert DirectedAngleClass(cls.cross, cls.dot) == cls
    assert DirectedAngleClass(-u, -v) == cls


@given(points, circles())
def test_pole_polar_round_trip(p, c):
    assume(p != c.center)
    line = polar_of_point(p, c)
    assume(not on_line(c.center, line))
    assert pole_of_line(line, c) == p


radii = st.fractions(min_value=F(1, 4), max_value=8, max_denominator=6)


@given(points, radii, points, rationals)
def test_second_intersection_involution(center1, radius1, center2, t):
    x = circle_point_from_parameter(t, center1, radius1)
    assume(center2 != x)
    c1 = Circle.from_center_radius2(center1, radius1 * radius1)
    c2 = Circle.from_center_radius2(center2, dist2(center2, x))
    assume(c1 != c2)
    y, tangent = second_intersection_circles(c1, c2, x)
    back, tangent2 = second_intersection_circles(c1, c2, y)
    assert back == x
    assert tangent == tangent2


@given(triangles(), points)
def test_isogonal_involution(tri, p):
    a, b, c = tri
    try:
        q = isogonal_conjugate(p, a, b, c)
    except GeometryError:
        assume(False)
    assert isogonal_conjugate(q, a, b, c) == p


@given(points, lines())
def test_foot_on_line_and_perpendicular(p, l):
    foot = foot_perpendicular(p, l)
    assert on_line(foot, l)
    if p != foot:
        normal = line_through(p, foot)
        assert normal.a * l.a + normal.b * l.b == 0
    else:
        assert on_line(p, l)


@given(triangles(), rationals)
def test_simson_collinearity_decides_circle_membership(tri, t):
    """Pedal feet are collinear exactly for points of the circumcircle.

    On-circle points come from the rational parametrization of the
    circumcircle when its radius is rational; off-circle points are the
    drawn rational points that miss the circle.
    """
    a, b, c = tri
    circ = circumcircle(a, b, c)
    from brocard.geom import rational_sqrt

    r = rational_sqrt(circ.radius2)
    sides = (line_through(b, c), line_through(c, a), line_through(a, b))

    def feet_collinear(p):
        f1, f2, f3 = (foot_perpendicular(p, s) for s in sides)
        assume(len({f1, f2, f3}) >= 2)
        return collinear_det(f1, f2, f3) == 0

    if r is not None:
        on_pt = circle_point_from_parameter(t, circ.center, r)
        assert feet_collinear(on_pt)
    off_pt = Point(circ.center.x + t, circ.center.y + 1 + abs(t))
    assume(not on_circle(off_pt, circ))
    assert not feet_collinear(off_pt)


@given(lines(), lines(), lines(), lines())
def test_directed_angle_equality_is_equivalence(l1, l2, l3, l4):
    a12 = directed_angle(l1, l2)
    assert a12 == directed_angle(l1, l2)  # reflexive
    if a12 == directed_angle(l3, l4):
        assert directed_angle(l3, l4) == a12  # symmetric
        if directed_angle(l3, l4) == directed_angle(l2, l4):
            assert a12 == directed_angle(l2, l4)  # transitive


@given(lines(), lines(), points, points)
def test_directed_angle_translation_invariant(l1, l2, p, q):
    assert directed_angle(l1, l2) == directed_angle(
        parallel_through(p, l1), parallel_through(q, l2)
    )


@given(triangles(), points, points)
def test_inverse_similarity_reverses_orientation(tri, d1, d2):
    a, b, c = tri
    assume(d1 != d2)
    m = inverse_similarity_map(a, d1, b, d2)
    image = (m.apply(a), m.apply(b), m.apply(c))
    sign = orientation(*image)
    assume(sign != 0)
    assert sign == -orientation(a, b, c)
    assert m.apply(a) == d1 and m.apply(b) == d2


@given(points, points, points)
def test_perpendicular_bisector_equidistance(p, q, z):
    assume(p != q)
    bis = perpendicular_bisector(p, q)
    foot = foot_perpendicular(z, bis)
    assert dist2(foot, p) == dist2(foot, q)


@given(points, points, points)
def test_circumcircle_contains_definers(p, q, r):
    assume(orientation(p, q, r) != 0)
    c = circumcircle(p, q, r)
    assert on_circle(p, c) and on_circle(q, c) and on_circle(r, c)
    assert c.radius2 > 0


# ---------------------------------------------------------------------------
# Reference equivalence of the integer kernel.  The functions below are the
# kernel's former per-operation Fraction formulas, kept as the reference:
# every rewritten construction must return exactly what they return, and
# raise the same errors.


def _ref_canonical(*values):
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _ref_line(a, b, c):
    a, b, c = F(a), F(b), F(c)
    if a == 0 and b == 0:
        raise Degenerate("line", "normal vector (a, b) is zero")
    return _ref_canonical(a, b, c)


def _ref_det3(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _ref_line_through(p, q):
    if p == q:
        raise CoincidentPoints("same point")
    return _ref_line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def _ref_circumcircle(p, q, r):
    one = F(1)
    det = _ref_det3(p.x, p.y, one, q.x, q.y, one, r.x, r.y, one)
    if det == 0:
        raise CollinearPoints("collinear")
    sp = -(p.x * p.x + p.y * p.y)
    sq = -(q.x * q.x + q.y * q.y)
    sr = -(r.x * r.x + r.y * r.y)
    d = _ref_det3(sp, p.y, one, sq, q.y, one, sr, r.y, one) / det
    e = _ref_det3(p.x, sp, one, q.x, sq, one, r.x, sr, one) / det
    f = _ref_det3(p.x, p.y, sp, q.x, q.y, sq, r.x, r.y, sr) / det
    return Circle(d, e, f)


def _ref_line_eval(l, p):
    return l.a * p.x + l.b * p.y + l.c


def _ref_circle_eval(c, p):
    return p.x * p.x + p.y * p.y + c.d * p.x + c.e * p.y + c.f


def _ref_parallel_through(p, l):
    return _ref_line(l.a, l.b, -(l.a * p.x + l.b * p.y))


def _ref_perpendicular_through(p, l):
    return _ref_line(l.b, -l.a, -(l.b * p.x - l.a * p.y))


def _ref_perpendicular_bisector(p, q):
    if p == q:
        raise CoincidentPoints("same point")
    return _ref_line(
        2 * (q.x - p.x), 2 * (q.y - p.y), p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y
    )


def _ref_foot_perpendicular(p, l):
    t = _ref_line_eval(l, p) / (l.a * l.a + l.b * l.b)
    return Point(p.x - t * l.a, p.y - t * l.b)


def _ref_second_intersection_circle_line(c, l, x):
    a, b = l.a, l.b
    t = -(2 * x.x * b - 2 * x.y * a + c.d * b - c.e * a) / F(a * a + b * b)
    if t == 0:
        return x, True
    return Point(x.x + t * b, x.y - t * a), False


def _ref_radical_axis(c1, c2):
    return _ref_line(c1.d - c2.d, c1.e - c2.e, c1.f - c2.f)


def _ref_polar_of_point(p, c):
    if p == _ref_center(c):
        raise CenterDegenerate("center")
    return _ref_line(p.x + c.d / 2, p.y + c.e / 2, (c.d * p.x + c.e * p.y) / 2 + c.f)


def _ref_pole_of_line(l, c):
    denom = F(c.d * l.a + c.e * l.b, 2) - l.c
    if denom == 0:
        raise CenterDegenerate("through the center")
    lam = _ref_radius2(c) / denom
    return Point(lam * l.a - c.d / 2, lam * l.b - c.e / 2)


def _ref_isogonal_conjugate(p, a, b, c):
    total = _ref_cross(_ref_sub(b, a), _ref_sub(c, a))
    if total == 0:
        raise CollinearPoints("degenerate reference triangle")
    u = _ref_cross(_ref_sub(b, p), _ref_sub(c, p))
    v = _ref_cross(_ref_sub(p, a), _ref_sub(c, a))
    w = _ref_cross(_ref_sub(b, a), _ref_sub(p, a))
    if u == 0 or v == 0 or w == 0:
        raise Degenerate("isogonal conjugate", "point lies on a sideline")
    la, lb, lc = _ref_dist2(b, c), _ref_dist2(c, a), _ref_dist2(a, b)
    u2, v2, w2 = la / u, lb / v, lc / w
    s = u2 + v2 + w2
    if s == 0:
        raise Degenerate("isogonal conjugate", "point lies on the circumcircle")
    return Point(
        (u2 * a.x + v2 * b.x + w2 * c.x) / s,
        (u2 * a.y + v2 * b.y + w2 * c.y) / s,
    )


def _triple(l):
    return (l.a, l.b, l.c)


BIG = 10**12
small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
big_rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
kernel_rationals = small_rationals | big_rationals


@st.composite
def kernel_points(draw):
    """Points with unequal or shared coordinate denominators, small or of
    about 10^12, of either sign."""
    if draw(st.booleans()):
        den = draw(st.integers(1, 12) | st.integers(1, BIG))
        nums = st.integers(-BIG, BIG)
        return Point(F(draw(nums), den), F(draw(nums), den))
    return Point(draw(kernel_rationals), draw(kernel_rationals))


@st.composite
def kernel_lines(draw):
    p, q = draw(kernel_points()), draw(kernel_points())
    assume(p != q)
    return line_through(p, q)


@st.composite
def kernel_circles(draw):
    """A circle with the three points it was built through."""
    a, b, c = draw(kernel_points()), draw(kernel_points()), draw(kernel_points())
    assume(orientation(a, b, c) != 0)
    return circumcircle(a, b, c), a, b, c


def _same_outcome(kernel, reference, *args):
    """Both calls return the same value of the same type, or both raise the
    same error type (for ``Degenerate``, with the same name).  Lines compare
    by their coefficient triple."""
    try:
        expected = reference(*args)
    except GeometryError as exc:
        with pytest.raises(type(exc)) as raised:
            kernel(*args)
        if isinstance(exc, Degenerate):
            assert raised.value.name == exc.name
        return None
    got = kernel(*args)
    value = _triple(got) if isinstance(got, Line) else got
    assert type(value) is type(expected) and value == expected
    return got


SAME_DEN_EXAMPLE = (Point(F(-3, 7), F(5, 7)), Point(F(1, 7), F(-2, 7)))
HORIZONTAL_EXAMPLE = (Point(F(5, 3), F(-1, 2)), Point(F(-7, 4), F(-1, 2)))


@example(*SAME_DEN_EXAMPLE)
@example(*HORIZONTAL_EXAMPLE)
@example(Point(F(BIG - 1, BIG), F(-BIG, BIG - 3)), Point(F(-1, BIG), F(1, 2)))
@example(Point(F(-1, 3), F(2, BIG)), Point(F(-1, 3), F(2, BIG)))
@given(kernel_points(), kernel_points())
def test_line_through_matches_reference(p, q):
    _same_outcome(line_through, _ref_line_through, p, q)
    _same_outcome(perpendicular_bisector, _ref_perpendicular_bisector, p, q)


def test_line_canonicalization_branches():
    p, q = HORIZONTAL_EXAMPLE
    l = line_through(p, q)
    assert l.a == 0 and l.b > 0 and _triple(l) == _ref_line_through(p, q)
    assert _triple(line_through(q, p)) == _ref_line_through(q, p)
    assert _triple(Line(0, -6, 4)) == _ref_line(0, -6, 4) == (0, 3, -2)
    assert _triple(Line(F(0), F(-3, 4), F(1, 6))) == _ref_line(0, F(-3, 4), F(1, 6))
    assert _triple(Line(-4, 6, 0)) == _ref_line(-4, 6, 0) == (2, -3, 0)
    for args in ((0, 0, 1), (F(0), F(0), F(1, 3)), ("0", 0, "-5/2")):
        with pytest.raises(Degenerate) as exc:
            Line(*args)
        assert exc.value.name == "line"


@example(Point(0, 0), Point(1, 0), Point(2, 0))
@example(Point(F(1, 3), F(1, 3)), Point(F(2, 5), F(2, 5)), Point(F(-BIG, 7), F(-BIG, 7)))
@given(kernel_points(), kernel_points(), kernel_points())
def test_circumcircle_matches_reference(p, q, r):
    _same_outcome(circumcircle, _ref_circumcircle, p, q, r)


def concyclic_det(p: Point, q: Point, r: Point, s: Point) -> F:
    """Determinant vanishing iff the four points lie on a common circle or
    line: rows (u, v, u^2 + v^2) of p, q, r taken relative to s."""
    (a, b, c), (d, e, f), (g, h, i) = (
        (v.x - s.x, v.y - s.y, (v.x - s.x) ** 2 + (v.y - s.y) ** 2) for v in (p, q, r)
    )
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_circumcircle_concyclic_oracle(p, q, r, z):
    """A fourth point found on the kernel's circle is concyclic with the
    three definers by an independent determinant."""
    assume(orientation(p, q, r) != 0 and z != p)
    c = circumcircle(p, q, r)
    s, _ = second_intersection_circle_line(c, line_through(p, z), p)
    assert on_circle(s, c)
    assert concyclic_det(p, q, r, s) == 0


@given(kernel_points(), kernel_lines(), kernel_circles())
def test_incidence_matches_reference(p, l, circle):
    c = circle[0]
    assert l.eval(p) == _ref_line_eval(l, p)
    assert on_line(p, l) == (_ref_line_eval(l, p) == 0)
    assert c.eval(p) == _ref_circle_eval(c, p)
    assert on_circle(p, c) == (_ref_circle_eval(c, p) == 0)
    assert all(on_circle(v, c) and c.eval(v) == 0 for v in circle[1:])
    foot = foot_perpendicular(p, l)
    assert foot == _ref_foot_perpendicular(p, l)
    assert on_line(foot, l) and l.eval(foot) == 0


@given(kernel_points(), kernel_lines())
def test_parallel_and_perpendicular_match_reference(p, l):
    assert _triple(parallel_through(p, l)) == _ref_parallel_through(p, l)
    assert _triple(perpendicular_through(p, l)) == _ref_perpendicular_through(p, l)


@given(kernel_points(), kernel_circles(), kernel_lines())
def test_pole_and_polar_match_reference(p, circle, l):
    c = circle[0]
    polar = _same_outcome(polar_of_point, _ref_polar_of_point, p, c)
    if polar is not None:
        assert _same_outcome(pole_of_line, _ref_pole_of_line, polar, c) == p
    _same_outcome(polar_of_point, _ref_polar_of_point, c.center, c)
    _same_outcome(pole_of_line, _ref_pole_of_line, l, c)
    if p != c.center:
        _same_outcome(pole_of_line, _ref_pole_of_line, line_through(c.center, p), c)


@given(kernel_circles(), kernel_points(), kernel_points())
def test_second_intersections_match_reference(circle, z, center2):
    """Second points through a known common point x: of the circle with a
    chord and with the tangent at x, and of two circles."""
    c1, x = circle[0], circle[1]
    chords = [tangent_line(c1, x)]
    if z != x:
        chords.append(line_through(x, z))
    for l in chords:
        assert second_intersection_circle_line(c1, l, x) == _ref_second_intersection_circle_line(
            c1, l, x
        )
    assume(center2 != x)
    c2 = Circle.from_center_radius2(center2, dist2(center2, x))
    if c2 == c1:
        with pytest.raises(CirclesIdentical):
            second_intersection_circles(c1, c2, x)
        return
    axis = Line(*_ref_radical_axis(c1, c2))
    expected = _ref_second_intersection_circle_line(c1, axis, x)
    assert second_intersection_circles(c1, c2, x) == expected


UNIT_CIRCLE_TRIANGLE = (Point(1, 0), Point(0, 1), Point(-1, 0))


@example(Point(0, -1), *UNIT_CIRCLE_TRIANGLE)  # on the circumcircle
@example(Point(3, 0), Point(0, 0), Point(1, 0), Point(2, 0))  # collinear triangle, p on its line
@example(Point(F(1, 2), F(1, 2)), *UNIT_CIRCLE_TRIANGLE)  # on side ab
@example(Point(3, 0), *UNIT_CIRCLE_TRIANGLE)  # on the extension of side ca
@example(Point(F(1, 3), F(1, 5)), Point(0, 0), Point(1, 1), Point(F(-BIG, 3), F(-BIG, 3)))  # collinear
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_isogonal_conjugate_matches_reference(p, a, b, c):
    _same_outcome(isogonal_conjugate, _ref_isogonal_conjugate, p, a, b, c)


@given(kernel_circles(), kernel_points())
def test_isogonal_conjugate_on_circumcircle_matches_reference(circle, z):
    """A point of the circumcircle other than the vertices has no finite
    conjugate; both formulas refuse it with the same error."""
    c, a, b, v = circle
    assume(z != a)
    p, _ = second_intersection_circle_line(c, line_through(a, z), a)
    assert on_circle(p, c)
    with pytest.raises(Degenerate):
        isogonal_conjugate(p, a, b, v)
    _same_outcome(isogonal_conjugate, _ref_isogonal_conjugate, p, a, b, v)


# ---------------------------------------------------------------------------
# Reference equivalence of the point, complex and similarity layer.  The
# functions below are that layer's former per-operation Fraction formulas
# on the fields, kept as the reference for the integer rewrite.


def _ref_add(p, q):
    return Point(p.x + q.x, p.y + q.y)


def _ref_sub(p, q):
    return Point(p.x - q.x, p.y - q.y)


def _ref_scale(k, p):
    k = F(k)
    return Point(k * p.x, k * p.y)


def _ref_cross(u, v):
    return u.x * v.y - u.y * v.x


def _ref_dot(u, v):
    return u.x * v.x + u.y * v.y


def _ref_dist2(p, q):
    d = _ref_sub(q, p)
    return d.x * d.x + d.y * d.y


def _ref_midpoint(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def _ref_collinear_det(p, q, r):
    return _ref_cross(_ref_sub(q, p), _ref_sub(r, p))


def _ref_orientation(p, q, r):
    det = _ref_collinear_det(p, q, r)
    return (det > 0) - (det < 0)


def _ref_point_along(p, q, t):
    return _ref_add(p, _ref_scale(t, _ref_sub(q, p)))


def _ref_complex_add(z, w):
    return ComplexScalar(z.re + w.re, z.im + w.im)


def _ref_complex_sub(z, w):
    return ComplexScalar(z.re - w.re, z.im - w.im)


def _ref_complex_mul(z, w):
    return ComplexScalar(z.re * w.re - z.im * w.im, z.re * w.im + z.im * w.re)


def _ref_complex_div(z, w):
    n = w.re * w.re + w.im * w.im
    if n == 0:
        raise Degenerate("complex division", "divisor is zero")
    return ComplexScalar((z.re * w.re + z.im * w.im) / n, (z.im * w.re - z.re * w.im) / n)


def _ref_apply_to(z, v):
    return Point(z.re * v.x - z.im * v.y, z.re * v.y + z.im * v.x)


def _ref_complex_ratio(u, v):
    return _ref_complex_div(ComplexScalar(u.x, u.y), ComplexScalar(v.x, v.y))


def _ref_similarity_apply(sim, p):
    w = _ref_complex_add(_ref_complex_mul(sim.alpha, ComplexScalar(p.x, -p.y)), sim.beta)
    return Point(w.re, w.im)


def _ref_inverse_similarity_map(src1, dst1, src2, dst2):
    if src1 == src2:
        raise CoincidentPoints("same source point")
    zs1, zs2 = ComplexScalar(src1.x, -src1.y), ComplexScalar(src2.x, -src2.y)
    zd1, zd2 = ComplexScalar(dst1.x, dst1.y), ComplexScalar(dst2.x, dst2.y)
    alpha = _ref_complex_div(_ref_complex_sub(zd1, zd2), _ref_complex_sub(zs1, zs2))
    return InverseSimilarity(alpha, _ref_complex_sub(zd1, _ref_complex_mul(alpha, zs1)))


def _ref_center(c):
    return Point(-c.d / 2, -c.e / 2)


def _ref_radius2(c):
    return c.d * c.d / 4 + c.e * c.e / 4 - c.f


def _ref_spiral_ratio(m, d, side):
    if _ref_line_eval(side, m) == 0:
        raise Degenerate("spiral ratio", "center lies on the side")
    if _ref_line_eval(side, d) != 0:
        raise Degenerate("spiral ratio", "target point is not on the side")
    ft = _ref_foot_perpendicular(m, side)
    return _ref_complex_ratio(_ref_sub(d, m), _ref_sub(ft, m))


def _ref_tangent_of_angle(vertex, toward1, toward2):
    u, v = _ref_sub(toward1, vertex), _ref_sub(toward2, vertex)
    d = _ref_dot(u, v)
    if d == 0:
        raise Degenerate("angle tangent", "right angle has no finite tangent")
    return _ref_cross(u, v) / d


def _ref_circle_point_from_parameter(t, center, radius):
    t, radius = F(t), F(radius)
    if radius <= 0:
        raise Degenerate("circle parametrization", "radius must be positive")
    den = 1 + t * t
    return Point(center.x + radius * (1 - t * t) / den, center.y + radius * 2 * t / den)


kernel_complexes = st.builds(lambda p: ComplexScalar(p.x, p.y), kernel_points())
ZERO = Point(0, 0)


@example(*SAME_DEN_EXAMPLE, Point(F(2, 7), F(-6, 7)), F(3, 7))
@example(Point(F(-BIG, 3), F(BIG, 7)), Point(F(1, BIG), F(-1, 2)), ZERO, F(-BIG, BIG - 1))
@example(ZERO, ZERO, ZERO, 0)
@given(kernel_points(), kernel_points(), kernel_points(), kernel_rationals)
def test_point_arithmetic_matches_reference(p, q, r, k):
    for kernel, reference in (
        (lambda u, v: u + v, _ref_add),
        (lambda u, v: u - v, _ref_sub),
        (cross, _ref_cross),
        (dot, _ref_dot),
        (dist2, _ref_dist2),
        (midpoint, _ref_midpoint),
    ):
        _same_outcome(kernel, reference, p, q)
        _same_outcome(kernel, reference, q, p)
    for scale in (k, 2, -1, 0):
        _same_outcome(lambda u: scale * u, lambda u: _ref_scale(scale, u), p)
    _same_outcome(point_along, _ref_point_along, p, q, k)
    _same_outcome(collinear_det, _ref_collinear_det, p, q, r)
    _same_outcome(orientation, _ref_orientation, p, q, r)
    _same_outcome(orientation, _ref_orientation, p, q, _ref_point_along(p, q, k))


@example(ComplexScalar(F(1, 3), F(-2, 5)), ComplexScalar(0, 0), ZERO, ZERO)
@example(ComplexScalar(F(BIG, 3), F(-2, BIG)), ComplexScalar(F(-1, 7), F(3, 7)), Point(F(1, 2), 0), ZERO)
@given(kernel_complexes, kernel_complexes, kernel_points(), kernel_points())
def test_complex_arithmetic_matches_reference(z, w, u, v):
    """Sums, products and quotients; a zero divisor raises the named
    ``Degenerate("complex division")`` on both sides."""
    for kernel, reference in (
        (lambda a, b: a + b, _ref_complex_add),
        (lambda a, b: a - b, _ref_complex_sub),
        (lambda a, b: a * b, _ref_complex_mul),
        (lambda a, b: a / b, _ref_complex_div),
    ):
        _same_outcome(kernel, reference, z, w)
        _same_outcome(kernel, reference, w, z)
    _same_outcome(lambda a, b: a / b, _ref_complex_div, z, ComplexScalar(0, 0))
    _same_outcome(lambda a, b: a.apply_to(b), _ref_apply_to, z, u)
    for divisor in (v, ZERO):
        _same_outcome(complex_ratio, _ref_complex_ratio, u, divisor)


@example(Point(0, 0), Point(1, 2), Point(0, 0), Point(3, 4), Point(1, 1))
@example(*SAME_DEN_EXAMPLE, Point(F(-BIG, 7), F(1, BIG)), Point(F(1, 3), F(1, 5)), Point(F(2, 9), F(-5, 9)))
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_inverse_similarity_matches_reference(src1, dst1, src2, dst2, p):
    sim = _same_outcome(inverse_similarity_map, _ref_inverse_similarity_map, src1, dst1, src2, dst2)
    if sim is not None:
        for point in (p, src1, src2):
            _same_outcome(lambda s, u: s.apply(u), _ref_similarity_apply, sim, point)


@given(kernel_circles())
def test_circle_center_and_radius_match_reference(circle):
    c = circle[0]
    _same_outcome(lambda k: k.center, _ref_center, c)
    _same_outcome(lambda k: k.radius2, _ref_radius2, c)


@example(Point(0, 0), Point(2, 0), Point(1, 1), F(1, 2), Point(5, 5))
@example(Point(F(-1, 3), F(2, BIG)), Point(F(BIG, 7), F(-1, 2)), Point(F(1, 9), F(-4, 9)), F(-1, 5), ZERO)
@given(kernel_points(), kernel_points(), kernel_points(), kernel_rationals, kernel_points())
def test_spiral_ratio_matches_reference(p1, p2, m, t, off):
    """One-pass spiral ratio against (d - m) / (foot - m); a center on the
    side and a target off it raise the named ``Degenerate("spiral ratio")``."""
    assume(p1 != p2)
    side = line_through(p1, p2)
    d = _ref_point_along(p1, p2, t)
    on_side = _ref_point_along(p1, p2, 1 - t)
    for center, target in ((m, d), (m, off), (on_side, d), (m, on_side)):
        _same_outcome(spiral_ratio, _ref_spiral_ratio, center, target, side)
    with pytest.raises(Degenerate) as exc:
        spiral_ratio(on_side, d, side)
    assert exc.value.name == "spiral ratio"


@example(Point(0, 0), Point(1, 0), Point(0, 1))  # right angle
@example(Point(0, 0), Point(0, 0), Point(1, 1))  # degenerate ray
@example(*SAME_DEN_EXAMPLE, Point(F(-BIG, 3), F(5, BIG)))
@given(kernel_points(), kernel_points(), kernel_points())
def test_tangent_of_angle_matches_reference(vertex, toward1, toward2):
    _same_outcome(tangent_of_angle, _ref_tangent_of_angle, vertex, toward1, toward2)
    _same_outcome(tangent_of_angle, _ref_tangent_of_angle, vertex, toward2, toward1)


@example(F(0), ZERO, F(1))
@example(F(-3, 7), Point(F(1, 3), F(-2, 5)), F(0))
@given(kernel_rationals, kernel_points(), kernel_rationals)
def test_circle_point_from_parameter_matches_reference(t, center, radius):
    for r in (radius, -radius):
        _same_outcome(circle_point_from_parameter, _ref_circle_point_from_parameter, t, center, r)


def _assert_records(record, args, expected):
    """One record on a fresh recorder: its witnesses equal ``expected``, as
    ``Fraction``, and it passes iff they all vanish."""
    rec = _Recorder()
    ok = getattr(rec, record)("label", *args)
    (assertion,) = rec.assertions
    assert assertion.witnesses == expected
    assert all(type(v) is F for v in assertion.witnesses)
    assert ok == assertion.ok == all(v == 0 for v in expected)
    return ok


@example(ZERO, ZERO, F(0), F(0))
@example(Point(1, 2), Point(1, F(5, 3)), F(0), F(0))  # only the second witness is nonzero
@given(kernel_points(), kernel_points(), kernel_rationals, kernel_rationals)
def test_witness_differences_match_reference(p, q, s, t):
    """The recorder's witnesses are the exact differences, as ``Fraction``
    also where the kernel gives integers (lines), and an assertion passes iff
    they all vanish."""
    z, w = ComplexScalar(p.x, p.y), ComplexScalar(q.x, q.y)
    l1, l2 = Line(1, s, t), Line(1, s, s)
    for case in (
        ("parallel", (l1, l2), (l1.a * l2.b - l2.a * l1.b,)),
        ("lines_equal", (l1, l2), (l1.a * l2.b - l2.a * l1.b, l1.a * l2.c - l2.a * l1.c, l1.b * l2.c - l2.b * l1.c)),
        ("lines_equal", (l2, Line(1, s, s)), (0, 0, 0)),
        ("scalars_equal", (s, t), (s - t,)),
        ("scalars_equal", (s, s), (F(0),)),
        ("scalar_zero", (s,), (s,)),
        ("perpendicular", (l1, l2), (l1.a * l2.a + l1.b * l2.b,)),
        ("points_equal", (p, q), (p.x - q.x, p.y - q.y)),
        ("points_equal", (p, Point(p.x, p.y)), (F(0), F(0))),
        ("complex_equal", (z, w), (z.re - w.re, z.im - w.im)),
        ("complex_equal", (w, w), (F(0), F(0))),
    ):
        _assert_records(*case)


HUGE = 10**272  # 904 bits


@example(
    Point(F(HUGE + 1, HUGE - 3), F(-HUGE, 7)),
    Point(F(1, HUGE), F(HUGE, 3)),
    Point(F(-2 * HUGE, HUGE + 7), F(5, HUGE)),
    F(1, 3),
)
@example(Point(F(HUGE, 3), F(1, HUGE)), Point(F(-HUGE, 3), F(1, HUGE)), Point(F(1, HUGE), F(HUGE, 5)), F(2))
@example(Point(0, 0), Point(F(HUGE), 0), Point(0, F(HUGE, HUGE + 1)), F(-HUGE, HUGE - 1))
@given(kernel_points(), kernel_points(), kernel_points(), kernel_rationals)
def test_incidence_witnesses_match_reference(p, q, r, t):
    """The incidence and equidistance records decide on integer residuals,
    and their witnesses are the Fraction reference values: zero where the
    construction makes the identity hold, the residual where it does not."""
    assume(orientation(p, q, r) != 0)
    circle = circumcircle(p, q, r)
    o = circle.center
    pq = line_through(p, q)
    s = point_along(p, q, t)  # on pq; on the circle only for t = 0 or 1
    holds = (
        ("point_on_circle", (r, circle), (_ref_circle_eval(circle, r),)),
        ("point_on_line", (s, pq), (_ref_line_eval(pq, s),)),
        ("collinear", (p, q, s), (_ref_collinear_det(p, q, s),)),
        ("equidistant", (o, p, q), (_ref_dist2(o, p) - _ref_dist2(o, q),)),
    )
    for record, args, expected in holds:
        assert _assert_records(record, args, expected)
    fails = (
        ("point_on_circle", (o, circle), (_ref_circle_eval(circle, o),)),
        ("point_on_line", (r, pq), (_ref_line_eval(pq, r),)),
        ("collinear", (p, q, r), (_ref_collinear_det(p, q, r),)),
    )
    for record, args, expected in fails:
        assert not _assert_records(record, args, expected)
    # The line pq meets the circle in p and q only.
    on_circle_too = t in (0, 1)
    assert _assert_records("point_on_circle", (s, circle), (_ref_circle_eval(circle, s),)) == on_circle_too
    assert _assert_records("equidistant", (o, p, s), (_ref_dist2(o, p) - _ref_dist2(o, s),)) == on_circle_too


def _assert_stored_form(value, *views):
    """``value`` holds one field, a coprime integer tuple with a positive
    last entry; its ``views`` are lowest-terms Fractions of that tuple, and
    rebuilding from them, copying or pickling gives an equal value with an
    equal hash."""
    h = value.h
    assert [f.name for f in dataclasses.fields(value)] == ["h"] and not hasattr(value, "__dict__")
    assert type(h) is tuple and all(type(v) is int for v in h)
    assert gcd(*h) == 1 and h[-1] > 0
    fractions = [getattr(value, name) for name in views]
    for i, v in enumerate(fractions):
        assert type(v) is F and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
        assert v == F(h[i], h[-1])
    rebuilt = type(value)(*fractions)
    assert rebuilt == value and rebuilt.h == h and hash(rebuilt) == hash(value)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied.h == h
        assert copied == value and hash(copied) == hash(value)


def _lcm_form(*values):
    w = lcm(*(v.denominator for v in values))
    return (*(v.numerator * (w // v.denominator) for v in values), w)


@example(Point(F(1, 2), F(-2, 3)), Point(0, 0), Point(0, 1), Point(1, 0))  # clockwise abc
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_stored_form(p, a, b, c):
    """Points, circles and complex values built from rationals store the lcm
    form of their rationals; those built by constructions whose raw
    denominator can be negative (a clockwise circumcircle, the two orders of
    ``intersect_lines``, ``pole_of_line``, ``isogonal_conjugate``, complex
    ``/``) store the same canonical form."""
    z, w = ComplexScalar(p.x, p.y), ComplexScalar(a.x, -a.y)
    gamma = Circle(p.x, a.y, b.x)
    assert p.h == _lcm_form(p.x, p.y) and z.h == p.h
    assert gamma.h == _lcm_form(p.x, a.y, b.x)
    points, circles, complexes = [p, a, b, c], [gamma], [z, w, z * w, z - w]
    try:
        complexes.append(z / w)
    except Degenerate:
        assert w == ComplexScalar(0, 0)
    if orientation(a, b, c) != 0:
        circles += [circumcircle(a, b, c), circumcircle(a, c, b)]
        for tri in ((a, b, c), (a, c, b)):
            try:
                points.append(isogonal_conjugate(p, *tri))
            except GeometryError:
                pass
    if a != b and p != c:
        l1, l2 = line_through(a, b), line_through(p, c)
        for m, n in ((l1, l2), (l2, l1)):
            try:
                points.append(intersect_lines(m, n))
            except ParallelLines:
                pass
        for circle in circles:
            try:
                points.append(pole_of_line(l1, circle))
            except CenterDegenerate:
                pass
    for value in points:
        _assert_stored_form(value, "x", "y")
    for value in circles:
        _assert_stored_form(value, "d", "e", "f")
    for value in complexes:
        _assert_stored_form(value, "re", "im")


def _ref_angle(u, v):
    u, v = F(u), F(v)
    if u == 0 and v == 0:
        raise Degenerate("angle class", "(cross, dot) is zero")
    return _ref_canonical(u, v)


@example(F(0), F(-3, 4), F(1, 6))
@example(F(4), F(-6), F(0))
@example(F(0), F(0), F(5, 3))
@example(F(0), F(0), F(0))
@example(F(-BIG, 3), F(2, BIG), F(BIG - 1, BIG))
@given(kernel_rationals, kernel_rationals, kernel_rationals)
def test_line_and_angle_stored_form(a, b, c):
    """A line or an angle class built from Fractions, or from the integers
    of their lcm form, holds the reference canonical form (coprime, first
    nonzero entry positive) in int fields and nothing else; its fields are
    frozen, and copying, pickling or ``dataclasses.replace`` gives an equal
    value with an equal hash.  A zero normal or a zero (cross, dot) raises
    the same ``Degenerate``."""
    for cls, reference, values in ((Line, _ref_line, (a, b, c)), (DirectedAngleClass, _ref_angle, (a, b))):
        integers = _lcm_form(*values)[:-1]
        try:
            expected = reference(*values)
        except Degenerate as exc:
            for args in (values, integers):
                with pytest.raises(Degenerate) as raised:
                    cls(*args)
                assert str(raised.value) == str(exc)
            continue
        for args in (values, integers):
            value = cls(*args)
            names = [f.name for f in dataclasses.fields(value)]
            stored = tuple(getattr(value, name) for name in names)
            assert stored == expected and all(type(v) is int for v in stored)
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, names[0], 1)
            copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
            for copied in (*copies, dataclasses.replace(value)):
                assert type(copied) is cls and copied == value and hash(copied) == hash(value)


@st.composite
def inscribed_triangles(draw):
    """A triangle inscribed in a rational circle, and a point of that circle."""
    center = draw(points)
    radius = draw(st.fractions(min_value=F(1, 4), max_value=5, max_denominator=12))
    a, b, c, p = (circle_point_from_parameter(draw(rationals), center, radius) for _ in range(4))
    assume(orientation(a, b, c) != 0)
    return Triangle(a, b, c), p


@given(inscribed_triangles())
def test_triangle_cache_is_invisible(case):
    """After a Triangle has built its sidelines, circumcircle and a Simson
    line, equality, hashing, ``repr``, ``dataclasses.replace``, copying and
    pickling behave as on a fresh triangle with the same vertices."""
    tri, p = case
    fresh = Triangle(tri.a, tri.b, tri.c)
    hash_before = hash(tri)
    sides, circ, line = tri.sides, tri.circumcircle, tri.simson_line(p)
    assert tri.sides is sides and tri.circumcircle is circ
    assert vars(tri).keys() == {"a", "b", "c", "sides", "circumcircle", "_simson"}
    assert vars(tri)["_simson"] == {p: line}  # keyed on the point itself
    assert tri == fresh and hash(tri) == hash(fresh) == hash_before
    assert repr(tri) == repr(fresh)
    assert pickle.dumps(tri) == pickle.dumps(fresh)
    for copied in (copy.copy(tri), pickle.loads(pickle.dumps(tri))):
        assert copied == fresh and hash(copied) == hash(fresh)
        assert vars(copied) == vars(fresh) == {"a": tri.a, "b": tri.b, "c": tri.c}
    same = dataclasses.replace(tri)
    assert same == tri and vars(same).keys() == {"a", "b", "c"}
    assert same.sides == sides and same.sides is not sides
    assert same.simson_line(p) == line and same.simson_line(p) is not line
    moved = dataclasses.replace(tri, a=p)
    assume(p not in (tri.b, tri.c))
    assert moved.sides == (sides[0], line_through(tri.c, p), line_through(p, tri.b))
    assert moved.circumcircle == circ  # p is on the same circle


@given(inscribed_triangles())
def test_triangle_simson_memo(case):
    """The memo returns the line it built for an equal but distinct point,
    and that line is the one a fresh triangle builds."""
    tri, p = case
    line = tri.simson_line(p)
    assert tri.simson_line(Point(p.x, p.y)) is line
    assert line == simson_line(p, Triangle(tri.a, tri.b, tri.c))
    for v, opposite in zip((tri.a, tri.b, tri.c), tri.sides):
        # A vertex's Simson line is the altitude from it.
        assert tri.simson_line(v) == perpendicular_through(v, opposite)
    assert tri.simson_line(p) is line
