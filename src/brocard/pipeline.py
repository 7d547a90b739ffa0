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
construction bug surfaces there and not as a traceback here.  The three
identities no check asserts stay internal errors
(``InternalInconsistencyError``): the Pascal line is parallel to a hexagon
meet at infinity, the third tangent-side meet lies on the Lemoine axis, and
Miquel's theorem itself, that the second meet of two Miquel circles lies on
the third (for a quadrangle: on the two other defining circles).  Input
degeneracies raise ``Degenerate`` with the name of the first object that
broke, which keeps the generator's reject-and-resample loop informative.
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

from dataclasses import dataclass
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
    antipode,
    circle_through_tangent,
    circumcircle,
    cross,
    dot,
    intersect_lines,
    inverse_similarity_map,
    isogonal_conjugate,
    line_through,
    on_circle,
    on_line,
    parallel,
    parallel_through,
    pole_of_line,
    second_intersection_circles,
    simson_line,
    spiral_ratio,
    tangent_line,
    triangle_sidelines,
)
from .scene import Scene


class InternalInconsistencyError(Exception):
    """A theorem-guaranteed identity failed: a kernel bug, not a bad input."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise InternalInconsistencyError(what)


@dataclass(frozen=True)
class Configuration:
    """Every derived object of the configuration.

    When the two Miquel points coincide (``collapsed``), only ``p`` and
    ``q`` are populated; all dependent constructions are undefined and the
    verification suite reports DEGENERATE instead of evaluating them.

    The objects several checks share (the inverse similarity, the line OR,
    the T-sides, the lines through the perspector, the Simson lines of S_t
    and T_a) are built on first use and cached on the instance, never passed
    to ``__init__``, so ``dataclasses.replace`` derives them afresh from the
    replaced fields.  ``compute_configuration`` seeds the caches with the
    lines it built itself.
    """

    scene: Scene
    circ: Circle  # circumcircle of ABC
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

    @property
    def complete(self) -> bool:
        """True iff every derived object exists (no collapse, no meets at
        infinity, no local degeneracy in the diameter-line block)."""
        if self.collapsed:
            return False
        return all(
            getattr(self, name) is not None
            for name in ("a0", "b0", "c0", "x", "y", "z", "o_a", "o_b", "o_c")
        )

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
        return triangle_sidelines(self.t_a, self.t_b, self.t_c)

    @cached_property
    def perspective_lines(self) -> Tuple[Line, Line, Line]:
        """The lines T_A A', T_B B', T_C C', which meet at the perspector."""
        return _perspective_lines(self.t_a, self.t_b, self.t_c, self.a_prime, self.b_prime, self.c_prime)

    @cached_property
    def simson_steiner(self) -> Line:
        """Simson line of S_t, on the stored circumcircle and sidelines."""
        return self._simson(self.steiner)

    @cached_property
    def simson_tarry(self) -> Line:
        """Simson line of T_a, on the stored circumcircle and sidelines."""
        return self._simson(self.tarry)

    def _simson(self, pt: Point) -> Line:
        s = self.scene
        return simson_line(pt, s.a, s.b, s.c, self.circ, s.sidelines())


@dataclass(frozen=True)
class ClassicalOverlay:
    """Classical Brocard objects of a classical scene: the two Brocard
    points, the six tangent circles defining them, the symmedian point, and
    the exact tangent of the Brocard angle."""

    omega: Point
    omega_prime: Point
    k: Point
    w_a: Circle
    w_b: Circle
    w_c: Circle
    w_a_prime: Circle
    w_b_prime: Circle
    w_c_prime: Circle
    tan_brocard: Fraction
    collapsed: bool = False


def _vertex_circle(v: Point, p: Point, p_side: Line, q: Point, q_side: Line, name: str) -> Circle:
    """Circumcircle of (v, p, q) where p sits on p_side and q on q_side.

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
        return circumcircle(v, p, q)
    except Degenerate:
        raise
    except GeometryError as exc:
        raise Degenerate(name, str(exc)) from exc


def _chord_line(p1: Point, p2: Point, gamma: Circle, name: str) -> Line:
    """Line through two labeled points of gamma; a doubled label yields the
    tangent there (the classical aliasing produces exactly this)."""
    if p1 != p2:
        return line_through(p1, p2)
    if not on_circle(p1, gamma):
        raise Degenerate(name, "doubled chord label off the circle")
    return tangent_line(gamma, p1)


def miquel_point(
    d: Point, e: Point, f: Point, a: Point, b: Point, c: Point,
    sides: Optional[Tuple[Line, Line, Line]] = None,
) -> Point:
    """Miquel point of the inscribed triangle def in triangle abc: the common
    point of the circumcircles of (a,e,f), (b,f,d), (c,d,e).

    d must lie on sideline BC, e on CA, f on AB.  Aliased inputs (d=b and
    similar) are allowed and produce the tangent-circle limits, so the
    classical Brocard points are the images of (b,c,a) and (c,a,b).  A
    caller holding the sidelines (BC, CA, AB) passes them as ``sides``.
    """
    return _miquel(d, e, f, a, b, c, sides)[0]


def _miquel(
    d: Point, e: Point, f: Point, a: Point, b: Point, c: Point,
    sides: Optional[Tuple[Line, Line, Line]] = None,
) -> Tuple[Point, Tuple[Circle, Circle, Circle]]:
    """``miquel_point`` together with its three circles, at A, B and C."""
    bc, ca, ab = sides if sides is not None else triangle_sidelines(a, b, c)
    if not on_line(d, bc):
        raise Degenerate("miquel point", "d is not on sideline BC")
    if not on_line(e, ca):
        raise Degenerate("miquel point", "e is not on sideline CA")
    if not on_line(f, ab):
        raise Degenerate("miquel point", "f is not on sideline AB")
    circle_a = _vertex_circle(a, e, ca, f, ab, "miquel circle at A")
    circle_b = _vertex_circle(b, f, ab, d, bc, "miquel circle at B")
    circle_c = _vertex_circle(c, d, bc, e, ca, "miquel circle at C")
    try:
        m, _ = second_intersection_circles(circle_a, circle_b, f)
    except GeometryError as exc:
        raise Degenerate("miquel point", str(exc)) from exc
    _require(on_circle(m, circle_c), "Miquel point misses the third circle")
    return m, (circle_a, circle_b, circle_c)


def miquel_point_quadrangle(pa: Point, pb: Point, pc: Point, pd: Point) -> Point:
    """Miquel point of the quadrangle (pa, pb, pc, pd): the common point of
    the circumcircles of (P,a,d), (P,b,c), (Q,a,b), (Q,c,d) where P = AB
    meet CD and Q = AD meet BC."""
    try:
        p = intersect_lines(line_through(pa, pb), line_through(pc, pd))
    except GeometryError as exc:
        raise Degenerate("P", str(exc)) from exc
    try:
        q = intersect_lines(line_through(pa, pd), line_through(pb, pc))
    except GeometryError as exc:
        raise Degenerate("Q", str(exc)) from exc
    try:
        c1 = circumcircle(p, pa, pd)
        c2 = circumcircle(q, pa, pb)
        m, _ = second_intersection_circles(c1, c2, pa)
    except GeometryError as exc:
        raise Degenerate("miquel quadrangle point", str(exc)) from exc
    try:
        ok = on_circle(m, circumcircle(p, pb, pc)) and on_circle(m, circumcircle(q, pc, pd))
    except GeometryError as exc:
        raise Degenerate("miquel quadrangle point", str(exc)) from exc
    _require(ok, "quadrangle Miquel point misses a defining circle")
    return m


class _Stage:
    """Context manager converting any kernel degeneracy into a named one."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, GeometryError):
            raise Degenerate(self.name, str(exc)) from exc
        return False


def compute_configuration(scene: Scene) -> Configuration:
    """Construct every derived object and assert none of the theorems
    about them: the checks do that, with witnesses.  Raises ``Degenerate``
    on an input degeneracy, including ``Degenerate("S")`` when a T-vertex
    equals its primed vertex, and ``InternalInconsistencyError`` only if
    Miquel's theorem fails or the Pascal line is not parallel to a hexagon
    meet at infinity.
    Precondition: ``validate_scene(scene)`` is empty."""
    a, b, c = scene.a, scene.b, scene.c
    gamma, o = scene.gamma, scene.o
    sides = scene.sidelines()
    bc, ca, ab = sides
    circ = circumcircle(a, b, c)

    # The Miquel circles of P and of Q through each vertex also define the
    # primed point there, their second meet; each is built once.
    p, p_circles = _miquel(scene.a1, scene.b1, scene.c1, a, b, c, sides)
    q, q_circles = _miquel(scene.a2, scene.b2, scene.c2, a, b, c, sides)
    if p == q:
        return Configuration(scene=scene, circ=circ, o=o, p=p, q=q, collapsed=True)

    with _Stage("T_A"):
        t_a = intersect_lines(line_through(p, scene.a1), line_through(q, scene.a2))
    with _Stage("T_B"):
        t_b = intersect_lines(line_through(p, scene.b1), line_through(q, scene.b2))
    with _Stage("T_C"):
        t_c = intersect_lines(line_through(p, scene.c1), line_through(q, scene.c2))

    def primed(v: Point, first: Circle, second: Circle, name: str) -> Point:
        with _Stage(name):
            pt, tangent = second_intersection_circles(first, second, v)
        if tangent:
            raise Degenerate(name, "defining circles are tangent at the vertex")
        return pt

    a_prime = primed(a, p_circles[0], q_circles[0], "A'")
    b_prime = primed(b, p_circles[1], q_circles[1], "B'")
    c_prime = primed(c, p_circles[2], q_circles[2], "C'")

    def hexagon_meet(u1: Point, u2: Point, v1: Point, v2: Point, name: str):
        """Meet of two hexagon sides, or None when it lies at infinity (the
        sides are parallel; an isoceles classical scene produces this)."""
        with _Stage(name):
            side1 = _chord_line(u1, u2, gamma, name)
            side2 = _chord_line(v1, v2, gamma, name)
            try:
                return intersect_lines(side1, side2), side1
            except ParallelLines:
                return None, side1

    a0, dir_a0 = hexagon_meet(scene.b1, scene.c2, scene.c1, scene.b2, "A0")
    b0, dir_b0 = hexagon_meet(scene.a1, scene.c2, scene.c1, scene.a2, "B0")
    c0, dir_c0 = hexagon_meet(scene.a1, scene.b2, scene.b1, scene.a2, "C0")

    finite = [pt for pt in (a0, b0, c0) if pt is not None]
    distinct = []
    for pt in finite:
        if pt not in distinct:
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
        r_star = isogonal_conjugate(r, a, b, c)

    with _Stage("brocard circle"):
        brocard = circumcircle(p, q, o)

    with _Stage("S_t"):
        t_sides = triangle_sidelines(t_a, t_b, t_c)
        steiner = intersect_lines(parallel_through(a, t_sides[0]), parallel_through(b, t_sides[1]))

    with _Stage("T_a"):
        tarry = antipode(steiner, circ)

    if t_a == a_prime or t_b == b_prime or t_c == c_prime:
        raise Degenerate("S", "a T-vertex coincides with its primed vertex")
    with _Stage("S"):
        perspective_lines = _perspective_lines(t_a, t_b, t_c, a_prime, b_prime, c_prime)
        perspector = intersect_lines(perspective_lines[0], perspective_lines[1])
    # The checks share these lines; the configuration's caches start from them.
    lines = {"t_sides": t_sides, "perspective_lines": perspective_lines}

    # The diameter line may run parallel to a sideline or through a vertex
    # (an isoceles classical scene sends it through the apex, collapsing
    # AYZ).  That degeneracy is local to these six objects, so they go soft:
    # the corresponding check reports DEGENERATE and everything else stands.
    x = y = z = o_a = o_b = o_c = None
    try:
        lines["or_line"] = or_line = line_through(o, r)
        x = intersect_lines(or_line, bc)
        y = intersect_lines(or_line, ca)
        z = intersect_lines(or_line, ab)
        o_a = circumcircle(a, y, z).center
        o_b = circumcircle(b, z, x).center
        o_c = circumcircle(c, x, y).center
    except GeometryError:
        x = y = z = o_a = o_b = o_c = None

    with _Stage("spiral ratios"):
        r_p = spiral_ratio(p, scene.a1, bc)
        r_q = spiral_ratio(q, scene.a2, bc)

    cfg = Configuration(
        scene=scene, circ=circ, o=o, p=p, q=q,
        t_a=t_a, t_b=t_b, t_c=t_c,
        a_prime=a_prime, b_prime=b_prime, c_prime=c_prime,
        a0=a0, b0=b0, c0=c0,
        pascal_line=pascal, r=r, r_star=r_star,
        brocard_circle=brocard,
        steiner=steiner, tarry=tarry, perspector=perspector,
        x=x, y=y, z=z, o_a=o_a, o_b=o_b, o_c=o_c,
        r_p=r_p, r_q=r_q,
    )
    vars(cfg).update(lines)
    return cfg


def _perspective_lines(
    t_a: Point, t_b: Point, t_c: Point, a_prime: Point, b_prime: Point, c_prime: Point
) -> Tuple[Line, Line, Line]:
    return line_through(t_a, a_prime), line_through(t_b, b_prime), line_through(t_c, c_prime)


def tangent_of_angle(vertex: Point, toward1: Point, toward2: Point) -> Fraction:
    """Exact tangent of the directed angle at ``vertex`` from the ray toward
    ``toward1`` to the ray toward ``toward2`` (cross over dot)."""
    u, v = toward1 - vertex, toward2 - vertex
    d = dot(u, v)
    if d == 0:
        raise Degenerate("angle tangent", "right angle has no finite tangent")
    return cross(u, v) / d


def classical_overlay(scene: Scene) -> ClassicalOverlay:
    """Classical Brocard objects of a classical scene: the Brocard points as
    meets of the six tangent circles, the symmedian point as pole of the
    line of tangent intersections, and the exact Brocard-angle tangent."""
    if not scene.classical:
        raise ValueError("classical overlay requires a classical scene")
    a, b, c = scene.a, scene.b, scene.c
    gamma = scene.gamma
    sides = scene.sidelines()
    bc, ca, ab = sides

    with _Stage("tangent circles"):
        w_a = circle_through_tangent(b, bc, a)
        w_b = circle_through_tangent(c, ca, b)
        w_c = circle_through_tangent(a, ab, c)
        w_a_prime = circle_through_tangent(c, bc, a)
        w_b_prime = circle_through_tangent(a, ca, b)
        w_c_prime = circle_through_tangent(b, ab, c)

    omega = miquel_point(b, c, a, a, b, c, sides)
    omega_prime = miquel_point(c, a, b, a, b, c, sides)
    if omega == omega_prime:
        # The equilateral collapse; both points sink into the center.
        return ClassicalOverlay(
            omega=omega, omega_prime=omega_prime, k=omega,
            w_a=w_a, w_b=w_b, w_c=w_c,
            w_a_prime=w_a_prime, w_b_prime=w_b_prime, w_c_prime=w_c_prime,
            tan_brocard=Fraction(0), collapsed=True,
        )

    with _Stage("K"):
        meets = []
        for vertex, side in ((a, bc), (b, ca), (c, ab)):
            try:
                meets.append(intersect_lines(tangent_line(gamma, vertex), side))
            except ParallelLines:
                # Isoceles: the tangent at the apex is parallel to the base,
                # so that meet sits at infinity.  At most one can.
                pass
        if len(meets) < 2:
            raise Degenerate("K", "fewer than two finite tangent-side meets")
        lemoine_axis = line_through(meets[0], meets[1])
        k = pole_of_line(lemoine_axis, gamma)
    _require(
        all(on_line(m, lemoine_axis) for m in meets),
        "tangent intersections are not collinear",
    )

    with _Stage("brocard angle"):
        # Rotation from ray A->B to ray A->Omega; positive for an
        # anticlockwise triangle since Omega is interior.
        tan_brocard = tangent_of_angle(a, b, omega)

    return ClassicalOverlay(
        omega=omega, omega_prime=omega_prime, k=k,
        w_a=w_a, w_b=w_b, w_c=w_c,
        w_a_prime=w_a_prime, w_b_prime=w_b_prime, w_c_prime=w_c_prime,
        tan_brocard=tan_brocard,
    )
