"""Kernel operation tests with frozen expected values.

Derived expectations are computed by independent oracles inline (altitude
intersections, barycentric formulas, explicit projections) and frozen in
the assertions; the checked code path never produces its own expectation.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import brocard
from brocard.geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    GeometryError,
    Line,
    ParallelLines,
    Point,
    Triangle,
    circle_through_tangent,
    circumcircle,
    collinear_det,
    dist2,
    foot_perpendicular,
    intersect_lines,
    inverse_similarity_map,
    isogonal_conjugate,
    line_through,
    on_circle,
    on_line,
    orientation,
    parallel,
    pole_of_line,
    second_intersection_circle_line,
    second_intersection_circles,
    simson_line,
    _angle,
    _angle_at,
    _antipode,
    _bisector,
    _canonical_ints,
    _image,
    _midpoint,
    _parallel,
    _perpendicular,
    _polar,
    _reduced,
)

UNIT = Circle(0, 0, -1)


class TestLinesAndPoints:
    def test_line_through_axis(self):
        assert line_through(Point(0, 0), Point(1, 0)) == Line(0, 1, 0)

    def test_line_through_diagonal(self):
        assert line_through(Point(1, 0), Point(0, 1)) == Line(1, 1, -1)

    def test_line_through_coincident(self):
        with pytest.raises(GeometryError):
            line_through(Point(2, 3), Point(2, 3))

    def test_line_canonical_scaling(self):
        assert Line(F(1, 2), F(1, 2), -2) == Line(1, 1, -4)
        assert Line(-2, -2, 8) == Line(1, 1, -4)

    def test_intersect(self):
        assert intersect_lines(Line(1, 1, -4), Line(1, -1, 0)) == Point(2, 2)
        assert intersect_lines(Line(0, 1, 0), Line(1, 0, 0)) == Point(0, 0)

    def test_intersect_parallel_flag(self):
        with pytest.raises(ParallelLines, match="^lines are parallel$"):
            intersect_lines(Line(0, 1, 0), Line(0, 1, -1))
        with pytest.raises(ParallelLines, match="^lines are parallel$"):
            intersect_lines(Line(0, 1, -1), Line(0, 2, -2))

    def test_parallel_through(self):
        assert Line(*_parallel(Point(0, 1), Line(0, 1, 0))) == Line(0, 1, -1)
        assert Line(*_parallel(Point(2, 2), Line(1, 1, -1))) == Line(1, 1, -4)
        l = Line(3, -2, 5)
        p = Point(1, 4)  # on l
        assert on_line(p, l) and Line(*_parallel(p, l)) == l

    def test_perpendicular_through(self):
        assert Line(*_perpendicular(Point(0, 0), Line(0, 1, 0))) == Line(1, 0, 0)
        assert Line(*_perpendicular(Point(1, 1), Line(1, 1, 0))) == Line(1, -1, 0)
        assert Line(*_perpendicular(Point(3, 4), Line(1, 0, 0))) == Line(0, 1, -4)

    def test_perpendicular_bisector(self):
        assert Line(*_bisector(Point(0, 0), Point(2, 0))) == Line(1, 0, -1)
        assert Line(*_bisector(Point(1, 0), Point(0, 1))) == Line(1, -1, 0)
        with pytest.raises(GeometryError):
            _bisector(Point(0, 0), Point(0, 0))

    def test_foot(self):
        assert foot_perpendicular(Point(3, 4), Line(0, 1, 0)) == Point(3, 0)
        assert foot_perpendicular(Point(4, 4), Line(1, 1, -4)) == Point(2, 2)
        p = Point(F(7, 3), F(5, 3))
        l = line_through(Point(-1, 3), Point(2, F(1, 2)))
        foot = foot_perpendicular(p, l)
        assert on_line(foot, l)
        assert foot_perpendicular(foot, l) == foot


class TestCircles:
    def test_circumcircle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert c.center == Point(1, 1) and c.radius2 == 2
        assert circumcircle(Point(1, 0), Point(0, 1), Point(-1, 0)) == UNIT
        with pytest.raises(GeometryError):
            circumcircle(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_tangent_circle(self):
        c = circle_through_tangent(Point(0, 0), Line(0, 1, 0), Point(0, 2))
        assert c == Circle.from_center_radius2(Point(0, 1), 1)
        assert circle_through_tangent(Point(1, 0), Line(1, 0, -1), Point(-1, 0)) == UNIT
        with pytest.raises(Degenerate):
            circle_through_tangent(Point(0, 0), Line(0, 1, 0), Point(5, 0))

    def test_antipode(self):
        assert _reduced(Point, *_antipode(Point(1, 0), UNIT)) == Point(-1, 0)
        assert _reduced(Point, *_antipode(Point(0, 1), UNIT)) == Point(0, -1)
        # Membership is not tested: a point off the circle is reflected
        # in its center.
        assert _reduced(Point, *_antipode(Point(2, 0), UNIT)) == Point(-2, 0)

    def test_second_intersection_circles(self):
        c1 = Circle(0, 0, -25)
        c2 = Circle(-16, 0, 39)  # (x-8)^2 + y^2 = 25
        pt, tangent = second_intersection_circles(c1, c2, Point(4, 3))
        assert pt == Point(4, -3) and not tangent

    def test_second_intersection_tangent(self):
        c2 = Circle(-4, 0, 3)  # (x-2)^2 + y^2 = 1
        pt, tangent = second_intersection_circles(UNIT, c2, Point(1, 0))
        assert pt == Point(1, 0) and tangent

    def test_second_intersection_identical(self):
        with pytest.raises(GeometryError):
            second_intersection_circles(UNIT, Circle(0, 0, -1), Point(1, 0))

    def test_second_intersection_line(self):
        c = Circle(0, 0, -25)
        pt, tangent = second_intersection_circle_line(c, Line(0, 1, -3), Point(4, 3))
        assert pt == Point(-4, 3) and not tangent
        pt, tangent = second_intersection_circle_line(UNIT, Line(1, 0, -1), Point(1, 0))
        assert pt == Point(1, 0) and tangent
        with pytest.raises(GeometryError):
            second_intersection_circle_line(UNIT, Line(0, 1, 0), Point(0, 0))


class TestPolarity:
    def test_polar(self):
        assert Line(*_polar(Point(F(1, 4), 0), UNIT)) == Line(1, 0, -4)
        with pytest.raises(GeometryError):
            _polar(Point(0, 0), UNIT)

    def test_pole(self):
        assert pole_of_line(Line(1, 0, -4), UNIT) == Point(F(1, 4), 0)
        with pytest.raises(GeometryError):
            pole_of_line(Line(1, 0, 0), UNIT)

    def test_la_hire(self):
        p = Point(F(3, 7), F(-2, 5))
        q = Point(4, F(1, 3))
        c = Circle.from_center_radius2(Point(F(1, 2), -1), F(7, 3))
        assert on_line(q, Line(*_polar(p, c))) == on_line(p, Line(*_polar(q, c)))


class TestIsogonal:
    TRI = (Point(0, 0), Point(4, 0), Point(1, 3))

    def test_circumcenter_maps_to_orthocenter(self):
        a, b, c = self.TRI
        circum = circumcircle(a, b, c).center
        assert circum == Point(2, 1)
        # oracle: orthocenter as the meet of two altitudes
        alt_a = _perpendicular(a, line_through(b, c))
        alt_b = _perpendicular(b, line_through(a, c))
        ortho = intersect_lines(alt_a, alt_b)
        assert ortho == Point(1, 1)
        assert isogonal_conjugate(circum, a, b, c) == ortho

    def test_centroid_maps_to_symmedian(self):
        a, b, c = self.TRI
        centroid = Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
        la, lb, lc = dist2(b, c), dist2(c, a), dist2(a, b)
        s = la + lb + lc
        symmedian = Point(
            (la * a.x + lb * b.x + lc * c.x) / s,
            (la * a.y + lb * b.y + lc * c.y) / s,
        )
        assert isogonal_conjugate(centroid, a, b, c) == symmedian

    def test_sideline_degenerate(self):
        a, b, c = self.TRI
        with pytest.raises(Degenerate):
            isogonal_conjugate(Point(2, 0), a, b, c)

    def test_circumcircle_degenerate(self):
        a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
        assert on_circle(Point(1, 1), circumcircle(a, b, c))
        with pytest.raises(Degenerate):
            isogonal_conjugate(Point(1, 1), a, b, c)


class TestSimson:
    def test_simson_line(self):
        l = simson_line(Point(4, 4), Triangle(Point(0, 0), Point(4, 0), Point(0, 4)))
        # feet by direct projection: (4,0), (0,4), (2,2), all on x + y = 4
        assert l == Line(1, 1, -4)

    def test_vertex_gives_altitude(self):
        assert simson_line(Point(0, 0), Triangle(Point(0, 0), Point(4, 0), Point(0, 4))) == Line(1, -1, 0)

    def test_interior_point_rejected(self):
        with pytest.raises(GeometryError):
            simson_line(Point(1, 1), Triangle(Point(0, 0), Point(4, 0), Point(0, 4)))


class TestPredicates:
    def test_orientation(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) == -1
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_parallel_perpendicular(self):
        assert parallel(Line(1, 1, 0), Line(2, 2, -5))
        assert angle_class(Line(1, 1, 0), Line(1, -1, 3)) == (1, 0)
        assert angle_class(Line(1, 0, 0), Line(1, 1, 0)) != (1, 0)


def canonical_angle(cross, dot):
    """The coprime (cross, dot) pair, first nonzero entry positive, that
    stands for the class of all pairs proportional to (cross, dot)."""
    return _canonical_ints("angle class", "(cross, dot) is zero", cross, dot)


def angle_class(l1, l2):
    """The directed angle from l1 to l2 modulo pi."""
    return canonical_angle(*_angle(l1, l2))


class TestDirectedAngles:
    def test_mod_pi_equality(self):
        x_axis, diag, y_axis, anti = Line(0, 1, 0), Line(1, -1, 0), Line(1, 0, 0), Line(1, 1, 0)
        assert angle_class(x_axis, diag) == angle_class(diag, y_axis)
        assert angle_class(x_axis, diag) != angle_class(x_axis, anti)
        assert angle_class(x_axis, y_axis) == angle_class(diag, anti)

    def test_class_canonical(self):
        assert canonical_angle(2, 4) == canonical_angle(-1, -2) == (1, 2)
        assert canonical_angle(-1, 2) == canonical_angle(1, -2) == (1, -2)
        with pytest.raises(Degenerate, match="^angle class: [(]cross, dot[)] is zero$"):
            canonical_angle(0, 0)

    def test_translation_invariance(self):
        l1, l2 = Line(3, -1, 2), Line(1, 5, -4)
        m1 = Line(*_parallel(Point(17, -6), l1))
        m2 = Line(*_parallel(Point(F(2, 3), F(5, 7)), l2))
        assert angle_class(l1, l2) == angle_class(m1, m2)

    def test_angle_at(self):
        assert canonical_angle(*_angle_at(Point(0, 0), Point(1, 0), Point(1, 1))) == (1, 1)  # 45 degrees


def similarity_image(sim, p):
    return _reduced(Point, *_image(sim, p))


class TestInverseSimilarity:
    def test_pure_conjugation(self):
        m = inverse_similarity_map(Point(0, 0), Point(0, 0), Point(1, 0), Point(1, 0))
        assert m.alpha == ComplexScalar(1, 0) and m.beta == ComplexScalar(0, 0)
        assert similarity_image(m, Point(0, 1)) == Point(0, -1)

    def test_vertical_reflection(self):
        m = inverse_similarity_map(Point(0, 0), Point(0, 0), Point(0, 1), Point(0, 1))
        assert m.alpha == ComplexScalar(-1, 0) and m.beta == ComplexScalar(0, 0)
        assert similarity_image(m, Point(1, 0)) == Point(-1, 0)

    def test_coincident_sources(self):
        with pytest.raises(GeometryError):
            inverse_similarity_map(Point(1, 2), Point(0, 0), Point(1, 2), Point(3, 4))

    def test_defining_pairs_always_verify(self):
        m = inverse_similarity_map(Point(1, 2), Point(-3, F(1, 2)), Point(0, -1), Point(4, 4))
        assert similarity_image(m, Point(1, 2)) == Point(-3, F(1, 2))
        assert similarity_image(m, Point(0, -1)) == Point(4, 4)


def test_midpoint_and_dist2():
    assert _reduced(Point, *_midpoint(Point(0, 0), Point(3, 5))) == Point(F(3, 2), F(5, 2))
    assert dist2(Point(1, 2), Point(4, 6)) == 25


def test_collinear():
    assert collinear_det(Point(0, 0), Point(2, 1), Point(4, 2)) == 0
    assert collinear_det(Point(0, 0), Point(2, 1), Point(4, 3)) == 2


ROOT = Path(__file__).resolve().parent.parent


def _geom_names_used(path):
    """The ``brocard.geom`` names a file imports or reads as ``geom.name``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("geom", "brocard.geom"):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "geom":
            used.add(node.attr)
    return used


def _other_modules():
    """The modules of the package other than ``geom`` and ``__init__``, and
    the scripts."""
    skip = {"geom.py", "__init__.py"}
    return [*(p for p in (ROOT / "src" / "brocard").glob("*.py") if p.name not in skip), *(ROOT / "scripts").glob("*.py")]


def test_every_public_kernel_class_has_a_caller():
    """Each public class of ``brocard.geom`` is named by another module of
    the package or by a script.  An export from ``brocard`` does not count:
    an exception class that no caller catches or reads is one that no
    caller tells apart, so its ``raise`` should name its base class."""
    tree = ast.parse((ROOT / "src" / "brocard" / "geom.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    used = set().union(*map(_geom_names_used, _other_modules()))
    assert "GeometryError" in public and sorted(public - used) == []


def test_every_public_kernel_function_has_a_caller():
    """Each public function of ``brocard.geom`` is used by another module of
    the package or by a script, exported by ``brocard``, or timed by the
    bench by name (``GEOM_FUNCTIONS`` in ``perfbench/tracer.py``, read
    without importing it).  A function that only tests call is dead API:
    delete it, or inline it into its one caller."""
    geom_path = ROOT / "src" / "brocard" / "geom.py"
    public = {
        node.name
        for node in ast.parse(geom_path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set().union(*map(_geom_names_used, _other_modules()))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GEOM_FUNCTIONS" for t in node.targets)
    ]
    assert public and traced
    assert sorted(public - used - set(brocard._EXPORTS["geom"]) - set(traced)) == []


def test_every_public_kernel_method_has_a_caller():
    """Each public method or property defined in a class body of
    ``brocard.geom`` is read as ``.name`` by another module of the package
    or by a script.  A method that only tests call is a second form of what
    a raw helper already computes: delete it.  Operators are not covered,
    as no name search finds their callers."""
    tree = ast.parse((ROOT / "src" / "brocard" / "geom.py").read_text(encoding="utf-8"))
    public = {
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = {
        node.attr
        for path in _other_modules()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert "Circle.center" in public
    assert sorted(name for name in public if name.split(".")[1] not in read) == []
