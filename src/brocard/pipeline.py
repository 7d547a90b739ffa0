"""Derivation of the full generalized Brocard configuration from a scene.

From the six incidence points this module constructs the Miquel pair P, Q
and the primed triangle, from their closed forms in the labels, the
T-triangle, the Pascal line of the inscribed hexagon with its pole R, the
circle carrying all ten distinguished points, the generalized Steiner and
Tarry points, the perspector of the two derived triangles, and the
spiral-similarity ratios.

The pipeline constructs; the suite in ``checks`` asserts.  Each identity
the theorems guarantee (the Pascal collinearity, R as pole and concurrency
point, the ten points on the circle with diameter OR, the Steiner point,
the perspector, the Brocard points on their tangent circles) is asserted
once, by a named check whose FAIL carries a nonzero exact witness, so a
construction bug surfaces there and not as a traceback here.  Nor does
the build test an incidence it constructed (a second circle meet lies on
both circles) or a checked theorem: T_a is 2 * center - S_t.  What no
check asserts stays an internal error (``InternalInconsistencyError``):
the Pascal line is parallel to a hexagon meet at infinity, a zero divisor
in the closed forms of the Miquel pair and the primed triangle, the
Miquel circles the classical check reads, Miquel's theorem in
``miquel_point`` (the second meet of two Miquel circles lies on the
third), T_B and T_C, a classical T_A, A'..C' and R, the Brocard circle
and S_t, P or Q on BC in the spiral ratios, the diameter-line block X, Y,
Z, O_A..O_C where an exact test on the line OR found it defined, and the
classical overlay's K and Brocard angle.  Input degeneracies raise ``Degenerate`` with the name of
the first object that broke, which keeps the generator's
reject-and-resample loop informative.
Every stage that can reject a draw is in ``_prefix``, which is all the
generator builds; ``compute_configuration`` runs it, then the stages that
cannot, each a theorem stage.
The perspector S is the meet of two of its three lines; a T-vertex equal
to its primed vertex leaves the third undefined, and ``check_perspective``
with it, so the build raises ``Degenerate("S")``.

Classical scenes (incidence points aliased to vertices) are handled by the
same code paths: the closed forms are finite at the aliasing, a chord
through two coincident labels degenerates to the tangent line of the
circle there, and a Miquel circle with a repeated defining point
degenerates to the circle tangent to the corresponding sideline, exactly
as the limits demand.
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
    parallel,
    pole_of_line,
    spiral_ratio,
    _antipode,
    _circle_through,
    _circumcenter,
    _isogonal,
    _join,
    _meet,
    _parallel,
    _polar,
    _quotient,
    _record,
    _reduced,
    _second_common,
    _sum,
    _times,
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

    When the two Miquel points coincide (``collapsed``), only ``p`` and
    ``q`` are populated; all dependent constructions are undefined and the
    verification suite reports DEGENERATE instead of evaluating them.

    The objects several checks share (the inverse similarity, the line OR,
    the T-sides, the lines through the perspector, and the classical
    overlay, which the classical check shares with ``brocard classical``)
    and the Miquel circles, which only the classical check reads, are
    built on first use and cached on the instance, never passed to
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
    def p_circles(self) -> Tuple[Circle, Circle, Circle]:
        """The Miquel circles of P at A, B and C; on a classical scene the
        tangent circles of the first Brocard point."""
        s = self.scene
        return _scene_miquel_circles(s.a1, s.b1, s.c1, s.triangle)

    @cached_property
    def q_circles(self) -> Tuple[Circle, Circle, Circle]:
        """The Miquel circles of Q at A, B and C."""
        s = self.scene
        return _scene_miquel_circles(s.a2, s.b2, s.c2, s.triangle)

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
    K, built apart from the pole R that the theorem makes equal to it, and
    the exact tangent of the Brocard angle.  The Brocard points are the
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


def _miquel(d: Point, e: Point, f: Point, tri: Triangle) -> Tuple[Point, Tuple[Circle, Circle, Circle]]:
    """``miquel_point`` together with its three circles, at A, B and C;
    ``Degenerate`` unless d, e, f lie on BC, CA, AB and the circles exist."""
    circle_a, circle_b, circle_c = circles = _miquel_circles(d, e, f, tri)
    with _Stage("miquel point"):
        m, _ = _second_common(circle_a.h, circle_b.h, f)
    _require(on_circle(m, circle_c), "Miquel point misses the third circle")
    return m, circles


def _miquel_circles(d: Point, e: Point, f: Point, tri: Triangle) -> Tuple[Circle, Circle, Circle]:
    """The Miquel circles of d, e, f at A, B and C, as ``_miquel`` builds them."""
    a, b, c = tri.a, tri.b, tri.c
    bc, ca, ab = tri.sides
    for name, pt, (la, lb, lc), side in zip("def", (d, e, f), (bc, ca, ab), ("BC", "CA", "AB")):
        x, y, w = pt.h
        if la * x + lb * y + lc * w:
            raise Degenerate("miquel point", f"{name} is not on sideline {side}")
    return (
        miquel_circle(a, e, ca, f, ab, "miquel circle at A"),
        miquel_circle(b, f, ab, d, bc, "miquel circle at B"),
        miquel_circle(c, d, bc, e, ca, "miquel circle at C"),
    )


def _scene_miquel_circles(d: Point, e: Point, f: Point, tri: Triangle) -> Tuple[Circle, Circle, Circle]:
    """``_miquel_circles`` of a valid scene's labels, which cannot raise.
    Validation puts each label on its sideline.  A generic scene puts no
    label on a vertex, and a classical one aliases one of each circle's two
    points to its vertex, never both.  A tangent limit's third point is off
    the vertex and on the other sideline, so off the tangent one; a vertex
    and a point off it on each sideline through it are not collinear."""
    with _Stage("Miquel circles", theorem=True):
        return _miquel_circles(d, e, f, tri)


def _closed_forms(
    o: Point, one: Tuple[Point, Point, Point], two: Tuple[Point, Point, Point]
) -> Tuple[Point, Point, Tuple[Point, Point, Point]]:
    """The reduced P, Q and (A', B', C') of the labels one = (a1, b1, c1)
    and two = (a2, b2, c2) of gamma, centred at o.

    With o as the origin each label is a complex number z with
    |z| = radius, and (Chen, *Euclidean Geometry in Mathematical
    Olympiads*, ch. 6), summing cyclically over (a, b, c):

        P = -N / D_P,  Q = N / D_Q,  A' = (b1 c2 - c1 b2) / (b1 - c1 - b2 + c2),
        N = sum a1 a2 (b1 c2 - c1 b2),  D_Q = sum a1 a2 (b1 - c1),
        D_P = sum a1 a2 (b2 - c2).

    A label (x + iy)/w relative to o is the triple (x, y, w).  Each vertex
    term is a Gaussian integer over the product of its four labels' w,
    and each sum over the product of all six, which cancels in the
    quotient.  No valid scene makes a divisor zero.  On gamma, D_P = 0
    forces (a1 - b1)(a1 - c1)(b2 - c2)(b1 b2 - c1 c2) = 0, the resultant in
    a2 of D_P and its conjugate (z -> radius^2 / z), and D_Q = 0 the same
    with 1 and 2 exchanged: two labels equal that no scene aliases (a
    classical one has a1 = c2, b1 = a2 and c1 = b2 only), or b1 b2 = c1 c2,
    the chords CA and AB parallel.  b1 - b2 = c1 - c2 makes those chords
    translates of each other.
    """
    a1, b1, c1 = [_sum(pt.h, o.h, -1) for pt in one]
    a2, b2, c2 = [_sum(pt.h, o.h, -1) for pt in two]
    nx = ny = qx = qy = px = py = 0
    primes = []
    # Written for the vertex A, with the opposite chord x1x2 = a1a2; B and
    # C follow by the cyclic shift.
    for (x1, x2, (bx1, by1, bw1), (bx2, by2, bw2), (cx1, cy1, cw1), (cx2, cy2, cw2)) in (
        (a1, a2, b1, b2, c1, c2), (b1, b2, c1, c2, a1, a2), (c1, c2, a1, a2, b1, b2)
    ):
        # Over w = bw1 * cw1 * bw2 * cw2: t = b1 c2 - c1 b2, e = b1 - c1 and
        # g = b2 - c2.  The two products are over complementary halves of w.
        ux, uy, uw = _times((bx1, by1, bw1), (cx2, cy2, cw2))
        vx, vy, vw = _times((cx1, cy1, cw1), (bx2, by2, bw2))
        tx, ty = ux * vw - vx * uw, uy * vw - vy * uw
        w1, w2 = bw1 * cw1, bw2 * cw2
        ex, ey = (bx1 * cw1 - cx1 * bw1) * w2, (by1 * cw1 - cy1 * bw1) * w2
        gx, gy = (bx2 * cw2 - cx2 * bw2) * w1, (by2 * cw2 - cy2 * bw2) * w1
        primes.append(_reduced(Point, *_sum(o.h, _quotient((tx, ty, 1), (ex - gx, ey - gy, 1)), 1)))
        # Times x1 x2, each term is over the product of all six w.
        mx, my, _ = _times(x1, x2)
        nx, ny = nx + mx * tx - my * ty, ny + mx * ty + my * tx
        qx, qy = qx + mx * ex - my * ey, qy + mx * ey + my * ex
        px, py = px + mx * gx - my * gy, py + mx * gy + my * gx
    p = _reduced(Point, *_sum(o.h, _quotient((nx, ny, 1), (px, py, 1)), -1))
    q = _reduced(Point, *_sum(o.h, _quotient((nx, ny, 1), (qx, qy, 1)), 1))
    return p, q, tuple(primes)


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
    ratios, X, Y, Z and O_A..O_C) and the record; a collapse (P = Q) gets
    only ``p`` and ``q``.  Raises ``Degenerate`` on an input degeneracy,
    including ``Degenerate("S")`` when a T-vertex equals its primed vertex,
    and ``InternalInconsistencyError`` only if a theorem fails: a zero
    divisor in the closed forms of the Miquel pair and the primed
    triangle, at T_B, T_C, a classical T_A, A'..C' or R, the Pascal line
    at a meet at infinity, R = O, the Brocard circle, S_t, P or Q on BC, or
    the diameter-line block where ``_prefix`` found it defined.
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
    bc, ca, ab = scene.triangle.sides

    # P, Q and A'..C' from the labels' closed forms.  No valid scene makes
    # a divisor zero: see ``_closed_forms``.
    with _Stage("Miquel pair", theorem=True):
        p, q, primes = _closed_forms(o, (scene.a1, scene.b1, scene.c1), (scene.a2, scene.b2, scene.c2))
    fields = dict(scene=scene, o=o, p=p, q=q)
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

    # A' is the second meet of the Miquel circles of P and of Q through A,
    # and A' = A where they touch there: exactly when
    # (b1 - c1)(b2 - c2)(b1 c1 - b2 c2) = 0, so for distinct labels when the
    # chords b1c1 and b2c2 are parallel, which a generated scene can reach.
    # A classical one cannot: there b1 = C, c1 = b2 = A and c2 = B.
    a_prime, b_prime, c_prime = primes
    for name, v, pt in (("A'", a, a_prime), ("B'", b, b_prime), ("C'", c, c_prime)):
        with _Stage(name, theorem=scene.classical):
            if pt == v:
                raise GeometryError("defining circles are tangent at the vertex")

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

    # On a classical scene the Pascal line is the Lemoine axis, the polar of
    # the interior point K, so it misses the center and R is finite.
    with _Stage("R", theorem=scene.classical):
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
    point as the isogonal conjugate of the centroid, a route that shares no
    construction with R, and the exact Brocard-angle tangent at P, the first
    Brocard point."""
    scene = cfg.scene
    if not scene.classical:
        raise ValueError("classical overlay requires a classical scene")
    a, b, c = scene.a, scene.b, scene.c

    # The centroid is inside ABC, so it lies on no sideline and off the
    # circumcircle, and its isogonal conjugate is finite.
    with _Stage("K", theorem=True):
        k = _reduced(Point, *_isogonal(Fraction(1, 3) * (a + b + c), a, b, c))

    # Rotation from ray A->B to ray A->P: the Brocard angle, in (0, 30]
    # degrees for an anticlockwise triangle, so never right.  The classical
    # check asserts its tangent is 4 * area / (a^2 + b^2 + c^2).
    with _Stage("brocard angle", theorem=True):
        tan_brocard = tangent_of_angle(a, b, cfg.p)

    return ClassicalOverlay(k=k, tan_brocard=tan_brocard)
