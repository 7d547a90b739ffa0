"""Property-based invariants of the exact kernel."""

import dataclasses
from itertools import permutations
from fractions import Fraction as F
from math import gcd, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

from brocard.checks import _Recorder
from brocard.geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    GeometryError,
    InverseSimilarity,
    Line,
    ParallelLines,
    Point,
    Triangle,
    circumcircle,
    collinear_det,
    dist2,
    foot_perpendicular,
    intersect_lines,
    isogonal_conjugate,
    line_through,
    on_circle,
    on_line,
    orientation,
    pole_of_line,
    second_intersection_circle_line,
    second_intersection_circles,
    inverse_similarity_map,
    simson_line,
    spiral_ratio,
    tangent_line,
    _angle,
    _angle_at,
    _antipode,
    _bisector,
    _canonical_ints,
    _center,
    _circle_through,
    _circumcenter,
    _concyclic,
    _image,
    _isogonal,
    _join,
    _meet,
    _midpoint,
    _parallel,
    _perpendicular,
    _polar,
    _quotient,
    _reduced,
    _spiral,
    _sum,
    _times,
)
from brocard.pipeline import miquel_point, tangent_of_angle
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


def _angle_pair(cross, dot):
    """The canonical (cross, dot) pair of an angle class, as a FAIL witness
    of ``_Recorder.angles_equal`` takes it."""
    return _canonical_ints("angle class", "(cross, dot) is zero", cross, dot)


@given(rationals, rationals)
def test_angle_class_canonicalization(u, v):
    assume(u != 0 or v != 0)
    pair = _angle_pair(u, v)
    assert _angle_pair(*pair) == pair
    assert _angle_pair(-u, -v) == pair


@given(points, circles())
def test_pole_polar_round_trip(p, c):
    assume(p != c.center)
    line = Line(*_polar(p, c))
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

    On-circle points are the second meets of the circumcircle with the
    lines through a vertex; off-circle points are the drawn rational points
    that miss the circle.
    """
    a, b, c = tri
    circ = circumcircle(a, b, c)
    sides = (line_through(b, c), line_through(c, a), line_through(a, b))

    def feet_collinear(p):
        f1, f2, f3 = (foot_perpendicular(p, s) for s in sides)
        assume(len({f1, f2, f3}) >= 2)
        return collinear_det(f1, f2, f3) == 0

    on_pt, _ = second_intersection_circle_line(circ, line_through(a, a + Point(1, t)), a)
    assert feet_collinear(on_pt)
    off_pt = Point(circ.center.x + t, circ.center.y + 1 + abs(t))
    assume(not on_circle(off_pt, circ))
    assert not feet_collinear(off_pt)


def _angle_class(l1, l2):
    """The directed angle from l1 to l2 modulo pi."""
    return _angle_pair(*_angle(l1, l2))


def _similarity_image(sim, p):
    return _reduced(Point, *_image(sim, p))


@given(lines(), lines(), lines(), lines())
def test_directed_angle_equality_is_equivalence(l1, l2, l3, l4):
    a12 = _angle_class(l1, l2)
    assert a12 == _angle_class(l1, l2)  # reflexive
    if a12 == _angle_class(l3, l4):
        assert _angle_class(l3, l4) == a12  # symmetric
        if _angle_class(l3, l4) == _angle_class(l2, l4):
            assert a12 == _angle_class(l2, l4)  # transitive


@given(lines(), lines(), points, points)
def test_directed_angle_translation_invariant(l1, l2, p, q):
    assert _angle_class(l1, l2) == _angle_class(Line(*_parallel(p, l1)), Line(*_parallel(q, l2)))


@given(triangles(), points, points)
def test_inverse_similarity_reverses_orientation(tri, d1, d2):
    a, b, c = tri
    assume(d1 != d2)
    m = inverse_similarity_map(a, d1, b, d2)
    image = tuple(_similarity_image(m, p) for p in (a, b, c))
    sign = orientation(*image)
    assume(sign != 0)
    assert sign == -orientation(a, b, c)
    assert image[:2] == (d1, d2)


@given(points, points, points)
def test_perpendicular_bisector_equidistance(p, q, z):
    assume(p != q)
    bis = Line(*_bisector(p, q))
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
        raise GeometryError("same point")
    return _ref_line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def _ref_circumcircle(p, q, r):
    one = F(1)
    det = _ref_det3(p.x, p.y, one, q.x, q.y, one, r.x, r.y, one)
    if det == 0:
        raise GeometryError("collinear")
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


def _ref_parallel(p, l):
    return _ref_line(l.a, l.b, -(l.a * p.x + l.b * p.y))


def _ref_perpendicular_through(p, l):
    return _ref_line(l.b, -l.a, -(l.b * p.x - l.a * p.y))


def _ref_perpendicular_bisector(p, q):
    if p == q:
        raise GeometryError("same point")
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
        raise GeometryError("center")
    return _ref_line(p.x + c.d / 2, p.y + c.e / 2, (c.d * p.x + c.e * p.y) / 2 + c.f)


def _ref_pole_of_line(l, c):
    denom = F(c.d * l.a + c.e * l.b, 2) - l.c
    if denom == 0:
        raise GeometryError("through the center")
    lam = _ref_radius2(c) / denom
    return Point(lam * l.a - c.d / 2, lam * l.b - c.e / 2)


def _ref_isogonal_conjugate(p, a, b, c):
    total = _ref_cross(_ref_sub(b, a), _ref_sub(c, a))
    if total == 0:
        raise GeometryError("degenerate reference triangle")
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
    same error type (for ``Degenerate``, with the same name; a caller error
    is a ``ValueError``).  Lines compare by their coefficient triple."""
    try:
        expected = reference(*args)
    except (GeometryError, ValueError) as exc:
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
    _same_outcome(lambda u, v: Line(*_bisector(u, v)), _ref_perpendicular_bisector, p, q)


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
    assert _triple(Line(*_parallel(p, l))) == _ref_parallel(p, l)
    assert _triple(Line(*_perpendicular(p, l))) == _ref_perpendicular_through(p, l)


def _polar_line(p, c):
    return Line(*_polar(p, c))


@given(kernel_points(), kernel_circles(), kernel_lines())
def test_pole_and_polar_match_reference(p, circle, l):
    c = circle[0]
    polar = _same_outcome(_polar_line, _ref_polar_of_point, p, c)
    if polar is not None:
        assert _same_outcome(pole_of_line, _ref_pole_of_line, polar, c) == p
    _same_outcome(_polar_line, _ref_polar_of_point, c.center, c)
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
        with pytest.raises(GeometryError):
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


def _ref_times(z, v):
    return Point(z.re * v.x - z.im * v.y, z.re * v.y + z.im * v.x)


def _ref_quotient(u, v):
    return _ref_complex_div(ComplexScalar(u.x, u.y), ComplexScalar(v.x, v.y))


def _ref_similarity_apply(sim, p):
    w = _ref_complex_add(_ref_complex_mul(sim.alpha, ComplexScalar(p.x, -p.y)), sim.beta)
    return Point(w.re, w.im)


def _ref_inverse_similarity_map(src1, dst1, src2, dst2):
    if src1 == src2:
        raise GeometryError("same source point")
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
    return _ref_quotient(_ref_sub(d, m), _ref_sub(ft, m))


def _ref_tangent_of_angle(vertex, toward1, toward2):
    u, v = _ref_sub(toward1, vertex), _ref_sub(toward2, vertex)
    d = _ref_dot(u, v)
    if d == 0:
        raise Degenerate("angle tangent", "right angle has no finite tangent")
    return _ref_cross(u, v) / d


def _ref_circle_point_from_parameter(t, center, radius):
    t, radius = F(t), F(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
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
        (dist2, _ref_dist2),
        (lambda u, v: _reduced(Point, *_midpoint(u, v)), _ref_midpoint),
    ):
        _same_outcome(kernel, reference, p, q)
        _same_outcome(kernel, reference, q, p)
    for scale in (k, 2, -1, 0):
        _same_outcome(lambda u: scale * u, lambda u: _ref_scale(scale, u), p)
    _same_outcome(collinear_det, _ref_collinear_det, p, q, r)
    _same_outcome(orientation, _ref_orientation, p, q, r)
    _same_outcome(orientation, _ref_orientation, p, q, _ref_point_along(p, q, k))


@example(ComplexScalar(F(1, 3), F(-2, 5)), ComplexScalar(0, 0), ZERO, ZERO)
@example(ComplexScalar(F(BIG, 3), F(-2, BIG)), ComplexScalar(F(-1, 7), F(3, 7)), Point(F(1, 2), 0), ZERO)
@given(kernel_complexes, kernel_complexes, kernel_points(), kernel_points())
def test_complex_arithmetic_matches_reference(z, w, u, v):
    """Sums, products and quotients on the raw triples; a zero divisor
    raises the named ``Degenerate("complex division")`` on both sides."""
    for kernel, reference in (
        (lambda a, b: _reduced(ComplexScalar, *_sum(a.h, b.h, 1)), _ref_complex_add),
        (lambda a, b: _reduced(ComplexScalar, *_sum(a.h, b.h, -1)), _ref_complex_sub),
        (lambda a, b: _reduced(ComplexScalar, *_times(a.h, b.h)), _ref_complex_mul),
        (lambda a, b: _reduced(ComplexScalar, *_quotient(a.h, b.h)), _ref_complex_div),
    ):
        _same_outcome(kernel, reference, z, w)
        _same_outcome(kernel, reference, w, z)
    _same_outcome(lambda a, b: _reduced(ComplexScalar, *_quotient(a.h, b.h)), _ref_complex_div, z, ComplexScalar(0, 0))
    # A complex number times a displacement vector, and the quotient of two
    # displacement vectors read as complex numbers.
    _same_outcome(lambda a, b: _reduced(Point, *_times(a.h, b.h)), _ref_times, z, u)
    for divisor in (v, ZERO):
        _same_outcome(lambda a, b: _reduced(ComplexScalar, *_quotient(a.h, b.h)), _ref_quotient, u, divisor)


@example(Point(0, 0), Point(1, 2), Point(0, 0), Point(3, 4), Point(1, 1))
@example(*SAME_DEN_EXAMPLE, Point(F(-BIG, 7), F(1, BIG)), Point(F(1, 3), F(1, 5)), Point(F(2, 9), F(-5, 9)))
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_inverse_similarity_matches_reference(src1, dst1, src2, dst2, p):
    sim = _same_outcome(inverse_similarity_map, _ref_inverse_similarity_map, src1, dst1, src2, dst2)
    if sim is not None:
        for point in (p, src1, src2):
            _same_outcome(_similarity_image, _ref_similarity_apply, sim, point)


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
        ("points_equal", (z, w), (z.re - w.re, z.im - w.im)),
        ("points_equal", (w, w), (F(0), F(0))),
        ("points_equal", (_scaled(p.h, -3), q), (p.x - q.x, p.y - q.y)),
        ("points_equal", (z.h, _scaled(w.h, 2)), (z.re - w.re, z.im - w.im)),
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
    s = _ref_point_along(p, q, t)  # on pq; on the circle only for t = 0 or 1
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
    rebuilding from them gives an equal value with an equal hash."""
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


def _lcm_form(*values):
    w = lcm(*(v.denominator for v in values))
    return (*(v.numerator * (w // v.denominator) for v in values), w)


@example(Point(F(1, 2), F(-2, 3)), Point(0, 0), Point(0, 1), Point(1, 0))  # clockwise abc
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_stored_form(p, a, b, c):
    """Points, circles and complex values built from rationals store the lcm
    form of their rationals; those built by constructions whose raw
    denominator can be negative (a clockwise circumcircle, the two orders of
    ``intersect_lines``, ``pole_of_line``, ``isogonal_conjugate``, the
    complex quotient) store the same canonical form."""
    z, w = ComplexScalar(p.x, p.y), ComplexScalar(a.x, -a.y)
    gamma = Circle(p.x, a.y, b.x)
    assert p.h == _lcm_form(p.x, p.y) and z.h == p.h
    assert gamma.h == _lcm_form(p.x, a.y, b.x)
    points, circles = [p, a, b, c], [gamma]
    complexes = [z, w, _reduced(ComplexScalar, *_times(z.h, w.h)), _reduced(ComplexScalar, *_sum(z.h, w.h, -1))]
    try:
        complexes.append(_reduced(ComplexScalar, *_quotient(z.h, w.h)))
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
            except GeometryError:
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
    """A line built from Fractions, or from the integers of their lcm form,
    holds the reference canonical form (coprime, first nonzero entry
    positive) in int fields and nothing else; its fields are frozen, and
    ``dataclasses.replace`` gives an equal value with an equal hash.  The
    canonical pair of an angle class is that form too.  A zero normal or a
    zero (cross, dot) raises the same ``Degenerate``."""
    for make, reference, values in ((Line, _ref_line, (a, b, c)), (_angle_pair, _ref_angle, (a, b))):
        integers = _lcm_form(*values)[:-1]
        try:
            expected = reference(*values)
        except Degenerate as exc:
            for args in (values, integers):
                with pytest.raises(Degenerate) as raised:
                    make(*args)
                assert str(raised.value) == str(exc)
            continue
        for args in (values, integers):
            value = make(*args)
            if make is _angle_pair:
                assert value == expected and all(type(v) is int for v in value)
                continue
            names = [f.name for f in dataclasses.fields(value)]
            stored = tuple(getattr(value, name) for name in names)
            assert stored == expected and all(type(v) is int for v in stored)
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(value, names[0], 1)
            copied = dataclasses.replace(value)
            assert type(copied) is Line and copied == value and hash(copied) == hash(value)


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
    line, equality, hashing, ``repr`` and ``dataclasses.replace`` behave as
    on a fresh triangle with the same vertices."""
    tri, p = case
    fresh = Triangle(tri.a, tri.b, tri.c)
    hash_before = hash(tri)
    sides, circ, line = tri.sides, tri.circumcircle, tri.simson_line(p)
    assert tri.sides is sides and tri.circumcircle is circ
    assert vars(tri).keys() == {"a", "b", "c", "sides", "circumcircle", "_simson"}
    assert vars(tri)["_simson"] == {p: line}  # keyed on the point itself
    assert tri == fresh and hash(tri) == hash(fresh) == hash_before
    assert repr(tri) == repr(fresh)
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
        assert tri.simson_line(v) == Line(*_perpendicular(v, opposite))
    assert tri.simson_line(p) is line


# ---------------------------------------------------------------------------
# Raw coefficients.  Each public line or angle constructor canonicalizes
# the unreduced output of one raw helper, which raises what it raised.


def _outcome(fn, *args):
    """``(value, None)`` or ``(None, (exception class, message))``."""
    try:
        return fn(*args), None
    except GeometryError as exc:
        return None, (type(exc), str(exc))


def _raw_residual(raw, p):
    a, b, c = raw
    x, y, w = p.h
    return a * x + b * y + c * w


@example(Point(F(BIG - 1, BIG), F(-BIG, BIG - 3)), Point(F(-1, BIG), F(1, 2)), Point(F(BIG, 7), F(3, BIG)))
@example(Point(F(-1, 3), F(2, BIG)), Point(F(-1, 3), F(2, BIG)), Point(0, 0))  # coincident pair
@example(*HORIZONTAL_EXAMPLE, HORIZONTAL_EXAMPLE[0])  # r on pq
@given(kernel_points(), kernel_points(), kernel_points())
def test_raw_helpers_canonicalize_to_constructors(p, q, r):
    """``Line(*_join(p, q)) == line_through(p, q)``, or both raise the same
    exception class with the same message; the perpendicular canonicalizes
    to its Fraction reference, and the angle class of two raw lines is that
    of their canonical lines.  A raw residual is zero iff the point is on
    the canonical line, for the parallel and the perpendicular too."""
    raw, raised = _outcome(_join, p, q)
    assert _outcome(line_through, p, q) == (None if raised else Line(*raw), raised)
    if raised:
        assert raised == (GeometryError, f"no unique line through {p} twice")
        return
    l = line_through(p, q)
    for point in (p, q, r):
        assert (_raw_residual(raw, point) == 0) == on_line(point, l)
    assert _triple(Line(*_perpendicular(r, l))) == _ref_perpendicular_through(r, l)
    for raw_through in (_parallel(r, l), _perpendicular(r, l)):
        assert _raw_residual(raw_through, r) == 0
        assert (_raw_residual(raw_through, p) == 0) == on_line(p, Line(*raw_through))
    assert tuple(l) == (l.a, l.b, l.c)
    other = Line(*_perpendicular(r, l))
    for l1, l2 in ((l, other), (other, l), (raw, _parallel(r, l)), (l, _perpendicular(p, l))):
        assert _angle_class(l1, l2) == _angle_class(Line(*l1), Line(*l2))


@example(Point(F(1, BIG), F(-BIG, 3)), Point(F(BIG - 1, BIG), F(2, 7)), Point(F(-BIG, 5), F(BIG, BIG + 1)))
@example(Point(1, 1), Point(1, 1), Point(2, 3))  # p on the vertex
@example(Point(1, 1), Point(2, 3), Point(1, 1))  # q on the vertex
@example(Point(1, 1), Point(1, 1), Point(1, 1))
@example(Point(0, 0), Point(1, 0), Point(-3, 0))  # a straight angle
@given(kernel_points(), kernel_points(), kernel_points())
def test_angle_at_is_the_angle_of_its_two_lines(v, p, q):
    """``_angle_at`` reads the directions from the vertex, not two lines, and
    gives the class of the two lines through the vertex, or raises what the
    first of them raises."""
    value, raised = _outcome(lambda: _angle_pair(*_angle_at(v, p, q)))
    expected = _outcome(lambda: _angle_class(line_through(v, p), line_through(v, q)))
    assert (value, raised) == expected


def _ref_second_intersection_circles(c1, c2, x):
    """The second common point in Fraction arithmetic, on the unscaled
    radical axis of the monic equations."""
    if c1 == c2:
        raise GeometryError("second intersection of a circle with itself")
    for c in (c1, c2):
        if _ref_circle_eval(c, x) != 0:
            raise GeometryError(f"{x} is not on {c}")
    a, b = c1.d - c2.d, c1.e - c2.e
    t = -(2 * x.x * b - 2 * x.y * a + c1.d * b - c1.e * a) / (a * a + b * b)
    if t == 0:
        return x, True
    return Point(x.x + t * b, x.y - t * a), False


@example(  # circles of about 10^12 through the origin, and a tangent pair
    (Circle(F(-2 * BIG, 3), F(BIG, 7), 0), Point(0, 0)), Point(F(BIG, 11), F(-1, BIG)), F(3, 2)
)
@example((Circle(-2, 0, 0), Point(0, 0)), Point(-1, 0), F(1))  # tangent at the origin
@given(kernel_circles(), kernel_points(), kernel_rationals)
def test_second_intersection_circles_matches_fraction_reference(circle, center2, k):
    """``second_intersection_circles`` feeds the raw radical axis to Vieta;
    it returns what the Fraction reference returns, and raises the same
    exception class with the same message: on identical circles and on a
    point off either circle."""
    c1, x = circle[0], circle[1]
    assume(center2 != x)
    c2 = Circle.from_center_radius2(center2, dist2(center2, x))
    off = x + Point(1, 0)
    cases = [(c1, c2, x), (c1, c1, x), (c1, c2, off), (c2, c1, off)]
    if k != 0:
        scaled = Circle.from_center_radius2(x + k * (center2 - x), k * k * dist2(center2, x))
        cases.append((c2, scaled, x))  # tangent at x unless k == 1
    for args in cases:
        assert _outcome(second_intersection_circles, *args) == _outcome(_ref_second_intersection_circles, *args)


def test_raw_helpers_raise_the_constructors_errors():
    """The degenerate inputs of each raw helper raise the exception class
    and message its public constructor raised before it had a raw helper,
    and the polar canonicalizes to its Fraction reference."""
    p, c = Point(F(1, 3), F(-2, 5)), Circle(F(-2, 3), F(-4, 5), F(-1, 7))
    assert _outcome(_join, p, p)[1] == (GeometryError, "no unique line through Point(1/3, -2/5) twice")
    assert _outcome(line_through, p, p)[1] == _outcome(_join, p, p)[1]
    for vertex, u, w in ((p, p, ZERO), (p, ZERO, p), (p, p, p)):
        expected = (GeometryError, "no unique line through Point(1/3, -2/5) twice")
        assert _outcome(_angle_at, vertex, u, w)[1] == expected
    expected = (GeometryError, "polar of the center is the line at infinity")
    assert _outcome(_polar, c.center, c)[1] == expected
    assert _triple(Line(*_polar(p, c))) == _ref_polar_of_point(p, c)


def _reduces_to(cls, raw_fn, public_fn, *args):
    """``raw_fn(*args)`` reduces to the ``cls`` value ``public_fn(*args)``,
    or both raise the same exception class with the same message; returns
    the public outcome."""
    raw, raised = _outcome(raw_fn, *args)
    value, public_raised = _outcome(public_fn, *args)
    assert raised == public_raised
    if raised is None:
        assert type(value) is cls and _reduced(cls, *raw) == value
    return value


def _scaled(raw, k):
    return tuple(k * v for v in raw)


BIG_A, BIG_B = Point(F(BIG - 1, BIG), F(-BIG, BIG - 3)), Point(F(-1, BIG), F(1, 2))
BIG_C, BIG_D = Point(F(BIG, 7), F(3, BIG)), Point(F(-BIG, 5), F(BIG, BIG + 1))


@example(BIG_A, BIG_B, BIG_C, BIG_D)
@example(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1))  # collinear circle points
@example(Point(1, 1), Point(1, 1), Point(2, 3), Point(0, 0))  # coincident circle points
@example(Point(0, 0), Point(2, 0), Point(0, 2), Point(1, 0))  # s on a sideline
@example(Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2))  # s on the circumcircle
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_raw_point_and_circle_helpers_reduce_to_public_functions(p, q, r, s):
    """The midpoint reduces to its Fraction reference.  The circle through
    three points and its center, the isogonal conjugate and the similarity
    image reduce to their public functions, or raise their errors:
    collinear or coincident circle points, s on a sideline or on the
    circumcircle of pqr."""
    assert _reduced(Point, *_midpoint(p, q)) == _ref_midpoint(p, q)
    circle = _reduces_to(Circle, _circle_through, circumcircle, p, q, r)
    if circle is not None:
        assert _reduced(Point, *_center(circle.h)) == circle.center
        assert _reduced(Point, *_center(_circle_through(p, q, r))) == circle.center
    _reduces_to(Point, _isogonal, isogonal_conjugate, s, p, q, r)
    if p != r:
        sim = inverse_similarity_map(p, q, r, s)
        assert _similarity_image(sim, s) == _ref_similarity_apply(sim, s)
        assert _similarity_image(sim, p) == q


@example(BIG_A, BIG_B, BIG_C, F(-1, BIG), BIG_D)
@example(Point(0, 0), Point(2, 0), Point(1, 1), F(1, 2), Point(5, 5))
@example(Point(0, 0), Point(2, 0), Point(1, 0), F(1, 2), Point(5, 5))  # center on the side
@given(kernel_points(), kernel_points(), kernel_points(), kernel_rationals, kernel_points())
def test_raw_spiral_ratio_reduces_to_spiral_ratio(p1, p2, m, t, off):
    """On a ``Line`` side or on the raw triple of its join, at any scale,
    with a center on the side and a target off it among the cases."""
    assume(p1 != p2)
    side, raw = line_through(p1, p2), _join(p1, p2)
    d = _ref_point_along(p1, p2, t)
    for center, target in ((m, d), (m, off), (_ref_point_along(p1, p2, 1 - t), d)):
        value = _reduces_to(ComplexScalar, _spiral, spiral_ratio, center, target, side)
        for coefficients in (raw, _scaled(raw, -3)):
            got, raised = _outcome(_spiral, center, target, coefficients)
            assert (raised is None) == (value is not None)
            if value is not None:
                assert _reduced(ComplexScalar, *got) == value


@example(BIG_A, BIG_B, BIG_C, BIG_D)
@example(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))  # parallel, distinct
@example(Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0))  # one line twice
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_intersect_lines_on_raw_triples_and_lines(p, q, r, s):
    """The same point, or ``ParallelLines``, on ``Line``s as on raw triples
    at any nonzero scale, for distinct and for equal parallel lines."""
    assume(p != q and r != s)
    l1, l2 = line_through(p, q), line_through(r, s)
    pairs = [(l1, l2), (l1, _parallel(r, l1)), (l1, _parallel(p, l1)), (l1, _scaled(_join(q, p), -2))]
    for a, b in pairs:
        expected = _outcome(intersect_lines, Line(*a), Line(*b))
        for raw_a, raw_b in ((tuple(a), tuple(b)), (_scaled(a, -5), _scaled(b, 7)), (Line(*a), tuple(b))):
            got = _outcome(intersect_lines, raw_a, raw_b)
            assert got == expected
            if got[1] is not None:
                with pytest.raises(ParallelLines):
                    _meet(raw_a, raw_b)


@example(BIG_A, BIG_B, BIG_C)
@example(Point(0, 0), Point(1, 0), Point(0, 1))
@given(kernel_points(), kernel_points(), kernel_points())
def test_antipode_matches_fraction_reference(p, q, r):
    """One reduction of the raw antipode equals 2 * center - p in Fraction
    arithmetic, for p on the circle and, untested, for a point off it."""
    assume(orientation(p, q, r) != 0)
    c = circumcircle(p, q, r)
    center = _ref_center(c)
    assert _reduced(Point, *_antipode(p, c)) == Point(2 * center.x - p.x, 2 * center.y - p.y)
    off = p + Point(1, 0)
    assume(not on_circle(off, c))
    assert _reduced(Point, *_antipode(off, c)) == Point(2 * center.x - off.x, 2 * center.y - off.y)


def test_new_raw_helpers_raise_the_public_errors():
    """Each degenerate input raises the class and message the public
    function raised before it had a raw helper."""
    a, b, c = Point(0, 0), Point(2, 0), Point(0, 2)
    collinear = (GeometryError, "no circle through collinear points")
    assert _outcome(_circle_through, a, b, Point(5, 0))[1] == _outcome(circumcircle, a, b, Point(5, 0))[1] == collinear
    assert _outcome(_circle_through, a, a, c)[1] == collinear
    sideline = (Degenerate, "isogonal conjugate: point lies on a sideline")
    assert _outcome(_isogonal, Point(1, 0), a, b, c)[1] == _outcome(isogonal_conjugate, Point(1, 0), a, b, c)[1] == sideline
    on_circle_ = (Degenerate, "isogonal conjugate: point lies on the circumcircle")
    assert _outcome(_isogonal, Point(2, 2), a, b, c)[1] == on_circle_
    assert _outcome(_isogonal, a, a, b, Point(5, 0))[1] == (GeometryError, "degenerate reference triangle")
    side = line_through(a, b)
    center_on_side = (Degenerate, "spiral ratio: center lies on the side")
    assert _outcome(_spiral, Point(1, 0), b, side)[1] == _outcome(spiral_ratio, Point(1, 0), b, side)[1] == center_on_side
    off_side = (Degenerate, "spiral ratio: target point is not on the side")
    assert _outcome(_spiral, c, Point(1, 1), _join(a, b))[1] == off_side
    assert _outcome(_meet, side, _join(c, Point(1, 2)))[1] == (ParallelLines, "lines are parallel")


@example(BIG_A, BIG_B, BIG_C, BIG_D)
@example(BIG_A, BIG_B, BIG_C, BIG_A)  # m is a defining point
@example(BIG_A, BIG_B, BIG_C, BIG_C)
@example(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1))  # collinear
@example(Point(1, 1), Point(1, 1), Point(2, 3), Point(0, 0))  # coincident
@example(Point(1, 1), Point(2, 3), Point(1, 1), Point(1, 1))  # coincident, m on both
@example(Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2))  # z on the circle
@given(kernel_points(), kernel_points(), kernel_points(), kernel_points())
def test_concyclic_decides_circumcircle_incidence(p, q, r, z):
    """``_concyclic(p, q, r, m)`` is zero iff ``circumcircle(p, q, r)``
    passes through m, in every order of p, q and r, for m off the circle,
    on it (the second meet of the line pz), or one of p, q, r.  A collinear
    or coincident triple raises the class and message of ``circumcircle``,
    and ``_circumcenter`` reduces to the circle's center or raises so too."""
    circle, raised = _outcome(circumcircle, p, q, r)
    for order in permutations((p, q, r)):
        assert _outcome(_concyclic, *order, z)[1] == raised
        assert _outcome(_circumcenter, *order)[1] == raised
    if circle is None:
        assert raised == (GeometryError, "no circle through collinear points")
        return
    assert _reduced(Point, *_circumcenter(p, q, r)) == circle.center
    candidates = [z, p, q, r]
    if z != p:
        on, _ = second_intersection_circle_line(circle, line_through(p, z), p)
        assert circle.eval(on) == 0
        candidates.append(on)
    for m in candidates:
        for order in permutations((p, q, r)):
            assert (_concyclic(*order, m) == 0) == (circle.eval(m) == 0)


#: Parameters along a side: its two vertices (tangent-circle limits) or any.
side_parameters = st.sampled_from([F(0), F(1)]) | kernel_rationals


def _ref_tangent_circle(v, side, q):
    """The circle through q tangent to the line ``side`` (a triple) at v:
    its center v + k * (a, b) is as far from q as from v."""
    la, lb, _ = side
    u = _ref_sub(q, v)
    k = _ref_dot(u, u) / (2 * (u.x * la + u.y * lb))
    center = Point(v.x + k * la, v.y + k * lb)
    return Circle(-2 * center.x, -2 * center.y, center.x**2 + center.y**2 - _ref_dist2(center, v))


@example(BIG_A, BIG_B, BIG_C, F(-1, BIG), F(BIG - 1, BIG), F(2, 7), False)
@example(BIG_A, BIG_B, BIG_C, F(0), F(1, 3), F(1, 2), False)  # d on B
@example(BIG_A, BIG_B, BIG_C, F(1), F(1, 3), F(1, 2), False)  # d on C
@example(BIG_A, BIG_B, BIG_C, F(1), F(0), F(1, 2), False)  # d and e on C
@example(Point(0, 0), Point(4, 0), Point(1, 3), F(1), F(1), F(1), False)  # one on each vertex
@example(Point(0, 0), Point(4, 0), Point(1, 3), F(1, 2), F(1, 3), F(1, 4), True)  # d off BC
@given(kernel_points(), kernel_points(), kernel_points(), side_parameters, side_parameters, side_parameters, st.booleans())
def test_miquel_point_lies_on_reference_circles(a, b, c, s, t, u, off):
    """``miquel_point`` against the ``_ref_`` oracles: M lies on the
    circumcircle of each of the triples (A, E, F), (B, F, D), (C, D, E),
    and on the circle tangent to the sideline where a point sits on the
    triple's vertex.  Two points on one vertex raise ``Degenerate`` for
    that circle, and d moved off BC raises ``Degenerate("miquel point")``."""
    assume(orientation(a, b, c) != 0)
    d, e, f = _ref_point_along(b, c, s), _ref_point_along(c, a, t), _ref_point_along(a, b, u)
    if off:
        d = d + Point(0, 1)
    m, raised = _outcome(miquel_point, d, e, f, Triangle(a, b, c))
    bc, ca, ab = _ref_line_through(b, c), _ref_line_through(c, a), _ref_line_through(a, b)
    if bc[0] * d.x + bc[1] * d.y + bc[2]:  # a vertical BC keeps d on it
        assert raised == (Degenerate, "miquel point: d is not on sideline BC")
        return
    triples = (("A", a, e, ca, f, ab), ("B", b, f, ab, d, bc), ("C", c, d, bc, e, ca))
    for name, v, p, p_side, q, q_side in triples:
        if p == v and q == v:
            assert raised == (Degenerate, f"miquel circle at {name}: both defining points collapse onto the vertex")
            return
    assert raised is None
    for name, v, p, p_side, q, q_side in triples:
        if p == v:
            circle = _ref_tangent_circle(v, p_side, q)
        elif q == v:
            circle = _ref_tangent_circle(v, q_side, p)
        else:
            circle = _ref_circumcircle(v, p, q)
        assert _ref_circle_eval(circle, m) == 0
