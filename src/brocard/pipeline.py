"""Derivation of the full generalized Brocard configuration from a scene.

From the six incidence points this module constructs the Miquel pair P, Q,
the T-triangle and primed triangle, the Pascal line of the inscribed
hexagon with its pole R, the circle carrying all ten distinguished points,
the generalized Steiner and Tarry points, the perspector of the two
derived triangles, and the spiral-similarity ratios.

The pipeline constructs; the suite in ``checks`` asserts.  Each identity
the theorems guarantee (the Pascal collinearity, R as pole and concurrency
point, the ten points on the circle with diameter OR, the Steiner point,
the perspector, the Brocard points on their tangent circles) is asserted
once, by a named check whose FAIL carries a nonzero exact witness, so a
construction bug surfaces there and not as a traceback here.  Nor does
the build test an incidence it constructed (a second circle meet lies on
both circles) or a checked theorem: T_a is 2 * center - S_t.  What no
check asserts stays an internal error (``InternalInconsistencyError``):
the Pascal line is parallel to a hexagon meet at infinity, Miquel's
theorem itself (the second meet of two Miquel circles lies on the third),
T_B, T_C and a classical T_A, the Brocard circle and S_t, P or Q on BC in
the spiral ratios, the diameter-line block X, Y, Z, O_A..O_C where an
exact test on the line OR found it defined, and the classical overlay's
K and Brocard angle, with the third tangent-side meet on the Lemoine
axis.  Input degeneracies raise ``Degenerate`` with the name of the
first object that broke, which keeps the generator's reject-and-resample
loop informative.  Every stage that can reject a draw is in ``_prefix``,
which is all the generator builds; ``compute_configuration`` runs it,
then the stages that cannot, each a theorem stage.
The perspector S is the meet of two of its three lines; a T-vertex equal
to its primed vertex leaves the third undefined, and ``check_perspective``
with it, so the build raises ``Degenerate("S")``.

Classical scenes (incidence points aliased to vertices) are handled by the
same code paths: a chord through two coincident labels degenerates to the
tangent line of the circle there, and a circumcircle with a repeated
defining point degenerates to the circle tangent to the corresponding
sideline, exactly as the limits demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from .geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    GeometryError,
    InverseSimilarity,
    Line,
    ParallelLines,
    Point,
    Triangle,
    circle_through_tangent,
    intersect_lines,
    inverse_similarity_map,
    line_through,
    on_circle,
    on_line,
    parallel,
    pole_of_line,
    spiral_ratio,
    tangent_line,
    _antipode,
    _circle_through,
    _circumcenter,
    _concyclic,
    _isogonal,
    _join,
    _meet,
    _parallel,
    _polar,
    _record,
    _reduced,
    _second_common,
    _sum,
)
from .scene import Scene


class InternalInconsistencyError(Exception):
    """A theorem-guaranteed identity failed: a kernel bug, not a bad input."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise InternalInconsistencyError(what)


@_record
class Configuration:
    """Every derived object of the configuration.

    When the two Miquel points coincide (``collapsed``), only ``p``, ``q``
    and their circles are populated; all dependent constructions are
    undefined and the verification suite reports DEGENERATE instead of
    evaluating them.

    The objects several checks share (the inverse similarity, the line OR,
    the T-sides, the lines through the perspector, and the classical
    overlay, which the classical check shares with ``brocard classical``)
    are built on first use and cached on the instance, never passed to
    ``__init__``, so ``dataclasses.replace`` derives them afresh from the
    replaced fields.  ``compute_configuration`` seeds the caches with the
    lines it built itself.  The Simson lines of S_t and T_a live in the memo
    of the scene's triangle.
    """

    scene: Scene
    circ: Circle  # circumcircle of ABC, the scene triangle's own
    o: Point  # center of gamma
    p: Point
    q: Point
    # The Miquel circles of P and of Q at A, B and C; on a classical scene
    # they are the six tangent circles of the Brocard points.
    p_circles: Tuple[Circle, Circle, Circle]
    q_circles: Tuple[Circle, Circle, Circle]
    collapsed: bool = False
    t_a: Optional[Point] = None
    t_b: Optional[Point] = None
    t_c: Optional[Point] = None
    a_prime: Optional[Point] = None
    b_prime: Optional[Point] = None
    c_prime: Optional[Point] = None
    # Hexagon meets defining the Pascal line; one may genuinely lie at
    # infinity (parallel hexagon sides) and is then stored as None.
    a0: Optional[Point] = None
    b0: Optional[Point] = None
    c0: Optional[Point] = None
    pascal_line: Optional[Line] = None
    r: Optional[Point] = None
    r_star: Optional[Point] = None
    brocard_circle: Optional[Circle] = None
    steiner: Optional[Point] = None
    tarry: Optional[Point] = None
    perspector: Optional[Point] = None
    x: Optional[Point] = None
    y: Optional[Point] = None
    z: Optional[Point] = None
    o_a: Optional[Point] = None
    o_b: Optional[Point] = None
    o_c: Optional[Point] = None
    r_p: Optional[ComplexScalar] = None
    r_q: Optional[ComplexScalar] = None

    @cached_property
    def similarity(self) -> InverseSimilarity:
        """The orientation-reversing similarity A -> T_A, B -> T_B."""
        return inverse_similarity_map(self.scene.a, self.t_a, self.scene.b, self.t_b)

    @cached_property
    def or_line(self) -> Line:
        return line_through(self.o, self.r)

    @cached_property
    def t_sides(self) -> Tuple[Line, Line, Line]:
        """The sidelines (T_B T_C, T_C T_A, T_A T_B) of the T-triangle."""
        return Triangle(self.t_a, self.t_b, self.t_c).sides

    @cached_property
    def perspective_lines(self) -> Tuple[Line, Line, Line]:
        """The lines T_A A', T_B B', T_C C', which meet at the perspector."""
        return _perspective_lines(self.t_a, self.t_b, self.t_c, self.a_prime, self.b_prime, self.c_prime)

    @cached_property
    def overlay(self) -> ClassicalOverlay:
        """The classical overlay of this configuration; classical scenes only."""
        return classical_overlay(self)

    @property
    def simson_steiner(self) -> Line:
        """Simson line of S_t in the scene triangle."""
        return self.scene.triangle.simson_line(self.steiner)

    @property
    def simson_tarry(self) -> Line:
        """Simson line of T_a in the scene triangle."""
        return self.scene.triangle.simson_line(self.tarry)


@_record
class ClassicalOverlay:
    """What a classical scene adds to its configuration: the symmedian point
    and the exact tangent of the Brocard angle.  The Brocard points are the
    configuration's P and Q, and their six tangent circles its Miquel
    circles."""

    k: Point
    tan_brocard: Fraction


def miquel_circle(v: Point, p: Point, p_side: Line, q: Point, q_side: Line, name: str) -> Circle:
    """Miquel circle at vertex v: circumcircle of (v, p, q), p on p_side, q on q_side.

    If an incidence point coincides with the vertex, the circle degenerates
    to the one tangent to that point's sideline at the vertex, which is the
    exact limit of the circumcircle as the point slides into the vertex.
    """
    try:
        if p == v and q == v:
            raise Degenerate(name, "both defining points collapse onto the vertex")
        if p == v:
            return circle_through_tangent(v, p_side, q)
        if q == v:
            return circle_through_tangent(v, q_side, p)
        return _reduced(Circle, *_circle_through(v, p, q))
    except Degenerate:
        raise
    except GeometryError as exc:
        raise Degenerate(name, str(exc)) from exc


def _chord(p1: Point, p2: Point, gamma: Circle):
    """The unreduced line through two labeled points of gamma; a doubled
    label yields the tangent there (the classical aliasing produces exactly
    this).  Validation puts every label on gamma, so none is tested."""
    return _join(p1, p2) if p1 != p2 else _polar(p1, gamma)


def miquel_point(d: Point, e: Point, f: Point, tri: Triangle) -> Point:
    """Miquel point of the inscribed triangle def in triangle tri = abc: the
    common point of the circumcircles of (a,e,f), (b,f,d), (c,d,e).

    d must lie on sideline BC, e on CA, f on AB.  Aliased inputs (d=b and
    similar) are allowed and produce the tangent-circle limits, so the
    classical Brocard points are the images of (b,c,a) and (c,a,b).
    """
    return _miquel(d, e, f, tri)[0]


def _inscribed(d: Point, e: Point, f: Point, bc: Line, ca: Line, ab: Line) -> None:
    """Raise unless d, e, f lie on BC, CA, AB."""
    for name, pt, (la, lb, lc), side in zip("def", (d, e, f), (bc, ca, ab), ("BC", "CA", "AB")):
        x, y, w = pt.h
        if la * x + lb * y + lc * w:
            raise Degenerate("miquel point", f"{name} is not on sideline {side}")


def _on_miquel_circle(m: Point, v: Point, p: Point, p_side: Line, q: Point, q_side: Line, name: str) -> bool:
    """m lies on ``miquel_circle(v, p, p_side, q, q_side, name)``, with the
    errors it raises; the spiral lemma's recorder asks this of each of its
    three circles.  Only a tangent limit is built; any other circle is
    decided by ``_concyclic`` on the cross ratio."""
    if v == p or v == q:
        return on_circle(m, miquel_circle(v, p, p_side, q, q_side, name))
    with _Stage(name):
        return _concyclic(v, p, q, m) == 0


def _miquel(d: Point, e: Point, f: Point, tri: Triangle) -> Tuple[Point, Tuple[Circle, Circle, Circle]]:
    """``miquel_point`` together with its three circles, at A, B and C."""
    a, b, c = tri.a, tri.b, tri.c
    bc, ca, ab = tri.sides
    _inscribed(d, e, f, bc, ca, ab)
    circle_a = miquel_circle(a, e, ca, f, ab, "miquel circle at A")
    circle_b = miquel_circle(b, f, ab, d, bc, "miquel circle at B")
    circle_c = miquel_circle(c, d, bc, e, ca, "miquel circle at C")
    with _Stage("miquel point"):
        m, _ = _second_common(circle_a.h, circle_b.h, f)
    _require(on_circle(m, circle_c), "Miquel point misses the third circle")
    return m, (circle_a, circle_b, circle_c)


def miquel_point_quadrangle(pa: Point, pb: Point, pc: Point, pd: Point) -> Point:
    """Miquel point of the quadrangle (pa, pb, pc, pd): the common point of
    the circumcircles of (P,a,d), (P,b,c), (Q,a,b), (Q,c,d) where P = AB
    meet CD and Q = AD meet BC.  It is ``miquel_point`` of triangle PAD with
    b on PA, c on DP and Q on AD, whose circumcircle is the fourth circle."""
    with _Stage("P"):
        p = intersect_lines(_join(pa, pb), _join(pc, pd))
    with _Stage("Q"):
        q = intersect_lines(_join(pa, pd), _join(pb, pc))
    return miquel_point(q, pc, pb, Triangle(p, pa, pd))


class _Stage:
    """Context manager converting any kernel degeneracy into a named
    ``Degenerate``, or, in a stage no valid scene can make raise (a
    ``theorem`` stage), into an ``InternalInconsistencyError``."""

    def __init__(self, name: str, theorem: bool = False):
        self.name = name
        self.theorem = theorem

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, GeometryError):
            if self.theorem:
                raise InternalInconsistencyError(f"{self.name}: {exc}") from exc
            raise Degenerate(self.name, str(exc)) from exc
        return False


def compute_configuration(scene: Scene) -> Configuration:
    """Construct every derived object and test none of the theorems about
    them, S_t on the circumcircle included (T_a is 2 * center - S_t): the
    checks assert them, with witnesses.  ``_prefix`` builds every stage that
    can reject a draw; this reduces what it keeps raw and adds the ones that
    cannot (the circumcircle, the Brocard circle, S_t, T_a, the spiral
    ratios, X, Y, Z and O_A..O_C) and the record.  Raises ``Degenerate`` on
    an input degeneracy, including ``Degenerate("S")`` when a T-vertex equals
    its primed vertex, and ``InternalInconsistencyError`` only if a theorem
    fails: Miquel's theorem, at T_B, T_C or a classical T_A, the Pascal
    line at a meet at infinity, R = O, the Brocard circle, S_t, P or Q on BC,
    or the diameter-line block where ``_prefix`` found it defined.
    Precondition: ``validate_scene(scene)`` is empty."""
    fields, lines, or_join = _prefix(scene)
    fields["circ"] = circ = scene.triangle.circumcircle
    if not fields.get("collapsed"):
        p, q = fields["p"], fields["q"]
        for name in ("r_star", "perspector"):
            fields[name] = _reduced(Point, *fields[name])
        # OP = OQ, and P, Q lie on the circle with diameter OR, R != O as the
        # pole of a finite line; so P != Q keeps P, Q and O off one line.
        with _Stage("brocard circle", theorem=True):
            fields["brocard_circle"] = _reduced(Circle, *_circle_through(p, q, scene.o))
        # The T-triangle is inversely similar to ABC; a degenerate one would be
        # one point on P a1, P b1, P c1 and on Q a2, Q b2, Q c2, so P = Q.
        with _Stage("S_t", theorem=True):
            lines["t_sides"] = t_sides = Triangle(fields["t_a"], fields["t_b"], fields["t_c"]).sides
            steiner = _reduced(Point, *_meet(_parallel(scene.a, t_sides[0]), _parallel(scene.b, t_sides[1])))
        fields.update(steiner=steiner, tarry=_reduced(Point, *_antipode(steiner, circ)))
        # No valid scene puts P on a sideline.  A is on chord b1b2, not on
        # gamma, so circle(A, b1, c1) misses a1 and B; P is on it and on
        # circle(B, c1, a1), which meets BC only at B and a1.  Likewise for
        # CA, AB and Q; classical P and Q are the Brocard points, inside ABC.
        bc = scene.triangle.sides[0]
        with _Stage("spiral ratios", theorem=True):
            fields.update(r_p=spiral_ratio(p, scene.a1, bc), r_q=spiral_ratio(q, scene.a2, bc))
        if or_join is not None:
            lines["or_line"] = or_line = Line(*or_join)
            with _Stage("diameter line", theorem=True):
                x, y, z = [intersect_lines(or_line, side) for side in scene.triangle.sides]
                o_a = _reduced(Point, *_circumcenter(scene.a, y, z))
                o_b = _reduced(Point, *_circumcenter(scene.b, z, x))
                o_c = _reduced(Point, *_circumcenter(scene.c, x, y))
            fields.update(x=x, y=y, z=z, o_a=o_a, o_b=o_b, o_c=o_c)
    cfg = Configuration(**fields)
    vars(cfg).update(lines)
    return cfg


def _prefix(scene: Scene) -> Tuple[dict, dict, Optional[Tuple[int, int, int]]]:
    """The stages of ``compute_configuration`` that can reject a draw, in
    build order.  Returns the ``Configuration`` fields they define, R* and
    the perspector as raw tuples, the shared lines they built and the raw
    line OR, None when P = Q, when a hexagon meet is at infinity or when X,
    Y, Z, O_A..O_C are undefined.  The configuration is complete iff OR is
    returned.  No Brocard circle, T-side or S_t is built here."""
    a, b, c = scene.a, scene.b, scene.c
    gamma, o = scene.gamma, scene.o
    tri = scene.triangle
    bc, ca, ab = tri.sides

    # The Miquel circles of P and of Q through each vertex also define the
    # primed point there, their second meet; each is built once.
    p, p_circles = _miquel(scene.a1, scene.b1, scene.c1, tri)
    q, q_circles = _miquel(scene.a2, scene.b2, scene.c2, tri)
    fields = dict(scene=scene, o=o, p=p, q=q, p_circles=p_circles, q_circles=q_circles)
    if p == q:
        return dict(fields, collapsed=True), {}, None

    # A line that feeds one meet stays a raw triple, and a point reduces once.
    # P's cevians meet their sidelines at one directed angle and Q's at one
    # other (the chain check_isogonal_conjugates asserts), so the three pairs
    # are all parallel or none is; on a classical scene they meet at twice
    # the Brocard angle, in (0, 60] degrees.  P and Q lie on no sideline.
    with _Stage("T_A", theorem=scene.classical):
        t_a = _reduced(Point, *_meet(_join(p, scene.a1), _join(q, scene.a2)))
    with _Stage("T_B", theorem=True):
        t_b = _reduced(Point, *_meet(_join(p, scene.b1), _join(q, scene.b2)))
    with _Stage("T_C", theorem=True):
        t_c = _reduced(Point, *_meet(_join(p, scene.c1), _join(q, scene.c2)))

    def primed(v: Point, first: Circle, second: Circle, name: str) -> Point:
        with _Stage(name):
            pt, tangent = _second_common(first.h, second.h, v)
        if tangent:
            raise Degenerate(name, "defining circles are tangent at the vertex")
        return pt

    a_prime = primed(a, p_circles[0], q_circles[0], "A'")
    b_prime = primed(b, p_circles[1], q_circles[1], "B'")
    c_prime = primed(c, p_circles[2], q_circles[2], "C'")

    def hexagon_meet(u1: Point, u2: Point, v1: Point, v2: Point, name: str):
        """Meet of two hexagon sides, or None and the first side when it
        lies at infinity (the sides are parallel; an isoceles classical
        scene produces this)."""
        with _Stage(name):
            side1 = _chord(u1, u2, gamma)
            side2 = _chord(v1, v2, gamma)
            try:
                return _reduced(Point, *_meet(side1, side2)), None
            except ParallelLines:
                return None, Line(*side1)

    a0, dir_a0 = hexagon_meet(scene.b1, scene.c2, scene.c1, scene.b2, "A0")
    b0, dir_b0 = hexagon_meet(scene.a1, scene.c2, scene.c1, scene.a2, "B0")
    c0, dir_c0 = hexagon_meet(scene.a1, scene.b2, scene.b1, scene.a2, "C0")

    distinct = []
    for pt in (a0, b0, c0):
        if pt is not None and pt not in distinct:
            distinct.append(pt)
    if len(distinct) < 2:
        raise Degenerate("pascal line", "fewer than two distinct finite hexagon meets")
    with _Stage("pascal line"):
        pascal = line_through(distinct[0], distinct[1])
    for pt, direction in ((a0, dir_a0), (b0, dir_b0), (c0, dir_c0)):
        if pt is None:
            # The meet at infinity still lies on the Pascal line: the line
            # must be parallel to the two (parallel) hexagon sides.
            _require(parallel(pascal, direction), "Pascal line misses a hexagon meet at infinity")

    with _Stage("R"):
        r = pole_of_line(pascal, gamma)

    with _Stage("R*"):
        r_star = _isogonal(r, a, b, c)

    if t_a == a_prime or t_b == b_prime or t_c == c_prime:
        raise Degenerate("S", "a T-vertex coincides with its primed vertex")
    with _Stage("S"):
        perspective_lines = _perspective_lines(t_a, t_b, t_c, a_prime, b_prime, c_prime)
        perspector = _meet(perspective_lines[0], perspective_lines[1])

    # The diameter line OR parallel to a sideline cuts it at infinity, and OR
    # through A gives Y = Z = A (an isoceles classical scene sends it through
    # the apex); off A, Y and Z lie off A on CA and AB, so A, Y, Z are not
    # collinear.  X..O_C then stay None, and only their check is DEGENERATE.
    # A0 at infinity puts its polar AA', which carries R, through O, so OR
    # runs through A; testing the meets too changes no outcome.
    with _Stage("OR", theorem=True):  # R is the pole of a finite line, never O
        la, lb, lc = or_join = _join(o, r)
    parallel_to_side = la * bc.b == lb * bc.a or la * ca.b == lb * ca.a or la * ab.b == lb * ab.a
    through_vertex = 0 in [la * x + lb * y + lc * w for x, y, w in (a.h, b.h, c.h)]
    if None in (a0, b0, c0) or parallel_to_side or through_vertex:
        or_join = None

    fields.update(
        t_a=t_a, t_b=t_b, t_c=t_c,
        a_prime=a_prime, b_prime=b_prime, c_prime=c_prime,
        a0=a0, b0=b0, c0=c0,
        pascal_line=pascal, r=r, r_star=r_star, perspector=perspector,
    )
    # The checks share these lines; the configuration's caches start from them.
    return fields, {"perspective_lines": perspective_lines}, or_join


def _perspective_lines(
    t_a: Point, t_b: Point, t_c: Point, a_prime: Point, b_prime: Point, c_prime: Point
) -> Tuple[Line, Line, Line]:
    return line_through(t_a, a_prime), line_through(t_b, b_prime), line_through(t_c, c_prime)


def tangent_of_angle(vertex: Point, toward1: Point, toward2: Point) -> Fraction:
    """Exact tangent of the directed angle at ``vertex`` from the ray toward
    ``toward1`` to the ray toward ``toward2``: cross over dot of the two
    differences, whose denominators cancel in the quotient."""
    x1, y1, _ = _sum(toward1.h, vertex.h, -1)
    x2, y2, _ = _sum(toward2.h, vertex.h, -1)
    dot = x1 * x2 + y1 * y2
    if dot == 0:
        raise Degenerate("angle tangent", "right angle has no finite tangent")
    return Fraction(x1 * y2 - y1 * x2, dot)


def classical_overlay(cfg: Configuration) -> ClassicalOverlay:
    """Classical Brocard objects of a classical configuration: the symmedian
    point as pole of the line of tangent intersections, and the exact
    Brocard-angle tangent at P, the first Brocard point."""
    scene = cfg.scene
    if not scene.classical:
        raise ValueError("classical overlay requires a classical scene")
    a, b, c = scene.a, scene.b, scene.c
    gamma = scene.gamma
    bc, ca, ab = scene.triangle.sides

    # No valid classical scene can raise here.  No rational triangle is
    # equilateral, so at most one tangent is parallel to its side (the
    # tangent at the apex of an isosceles triangle).  Two finite meets lie on
    # different sidelines and neither is their shared vertex, so they are
    # distinct.  Their line, the Lemoine axis, is the polar of the interior
    # point K, so it misses the center and its pole is finite.
    with _Stage("K", theorem=True):
        meets = []
        for vertex, side in ((a, bc), (b, ca), (c, ab)):
            try:
                meets.append(intersect_lines(tangent_line(gamma, vertex), side))
            except ParallelLines:
                pass
        _require(len(meets) >= 2, "K: fewer than two finite tangent-side meets")
        lemoine_axis = line_through(meets[0], meets[1])
        k = pole_of_line(lemoine_axis, gamma)
    _require(
        all(on_line(m, lemoine_axis) for m in meets),
        "tangent intersections are not collinear",
    )

    # Rotation from ray A->B to ray A->P: the Brocard angle, in (0, 30]
    # degrees for an anticlockwise triangle, so never right.  The classical
    # check asserts its tangent is 4 * area / (a^2 + b^2 + c^2).
    with _Stage("brocard angle", theorem=True):
        tan_brocard = tangent_of_angle(a, b, cfg.p)

    return ClassicalOverlay(k=k, tan_brocard=tan_brocard)
