"""Seeded generation of fully rational scenes.

A scene is a triangle ABC with a circle cutting each sideline in two
rational points.  The rationality backbone is the tangent half-angle
parametrization of a circle with rational center and rational radius:
every parameter value yields a rational point, so every object derived
downstream stays rational and every theorem becomes an exact identity.

Degeneracy policy is reject-and-resample: a candidate scene is accepted
only if the construction stages that can reject it, ``pipeline._prefix``,
pass and leave the configuration complete, so accepted scenes never
produce degenerate verification results.  A candidate is six integer
pairs, ``Random.randint``'s values taken straight from ``getrandbits``.

With strict segments, most draws fail because an incidence point falls
outside its side.  ``generate_scene`` first applies an exact squeeze to
the six drawn integer pairs: t = tan(theta/2) rises with the angle, so
the order of the six points around gamma is the order of their
parameters, and in a strict scene each chord's pair is adjacent in that
order.  A draw whose pairs are not all adjacent is rejected before any
point, line or vertex is built.  The squeeze never rejects a draw the
full construction accepts, and it consumes no random numbers, so every
seed gives the same scene as without it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from random import Random
from typing import List, Sequence, Tuple

from .geom import (
    Degenerate,
    GeometryError,
    Point,
    Circle,
    Triangle,
    collinear_det,
    on_circle,
    on_line,
    orientation,
    rat,
    RationalLike,
    _bisector,
    _foot,
    _join,
    _meet,
    _record,
    _reduced,
    _sum,
)


class GenerationExhausted(GeometryError):
    """Resampling gave up; the parameter bounds admit no valid scene."""


#: Draws ``generate_scene`` and ``kwon_scene`` make before giving up.
_MAX_ATTEMPTS = 500
_KWON_MAX_ATTEMPTS = 200


@_record
class Scene:
    """Triangle with an inscribed-chord circle and its six incidence points.

    a1, a2 lie on sideline BC; b1, b2 on CA; c1, c2 on AB; all six on gamma,
    whose center is o.  Classical scenes alias the incidence points to the
    vertices (a1=b, b1=c, c1=a, a2=c, b2=a, c2=b) and gamma is then the
    circumcircle.

    Objects derived from the fields are cached on the frozen record, never
    passed to ``__init__``, so ``dataclasses.replace`` derives them afresh.
    """

    a: Point
    b: Point
    c: Point
    gamma: Circle
    o: Point
    a1: Point
    a2: Point
    b1: Point
    b2: Point
    c1: Point
    c2: Point
    classical: bool = False
    strict_segments: bool = False

    @property
    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    @property
    def incidence_points(self) -> Tuple[Point, ...]:
        return (self.a1, self.a2, self.b1, self.b2, self.c1, self.c2)

    @cached_property
    def triangle(self) -> Triangle:
        """ABC, which caches its sidelines, circumcircle and Simson lines."""
        return Triangle(self.a, self.b, self.c)

    @cached_property
    def canonical_text(self) -> str:
        """The compact sorted-key JSON that ``sceneio.scene_digest`` hashes.
        ``sceneio.scene_from_dict`` seeds it with the text it read."""
        from .sceneio import canonical_text  # deferred: sceneio builds on scenes

        return canonical_text(self)


@_record
class SceneParams:
    """Generation parameters.  Caps bound |numerator| and denominator of the
    six chord parameters; small caps keep big-integer growth through the
    pipeline manageable.  Every instance without a ``center`` shares one
    immutable origin."""

    seed: int
    center: Point = Point(0, 0)
    radius: Fraction = Fraction(1)
    numerator_cap: int = 50
    denominator_cap: int = 50
    strict_segments: bool = False

    def __post_init__(self):
        if not isinstance(self.radius, Fraction):
            object.__setattr__(self, "radius", rat(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.numerator_cap < 1 or self.denominator_cap < 1:
            raise ValueError("parameter caps must be positive")


@_record
class KwonScene:
    """Two inscribed triangles DEF, XYZ whose chord perpendicular bisectors
    concur at t (the third bisector is forced by reflecting f across the
    foot of t on AB).  Their Miquel points in ``Triangle(a, b, c)`` are
    cached on the frozen record, so ``dataclasses.replace`` derives them
    afresh."""

    a: Point
    b: Point
    c: Point
    d: Point
    e: Point
    f: Point
    x: Point
    y: Point
    z: Point
    t: Point

    @cached_property
    def miquel_points(self) -> Tuple[Point, Point]:
        """The Miquel points of DEF and of XYZ in ABC."""
        from .pipeline import miquel_point  # deferred: pipeline builds on scenes

        tri = Triangle(self.a, self.b, self.c)
        return miquel_point(self.d, self.e, self.f, tri), miquel_point(self.x, self.y, self.z, tri)


def circle_point_from_parameter(t: RationalLike, center: Point, radius: RationalLike) -> Point:
    """Rational point of the circle at tangent half-angle parameter t:
    center + radius * ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)).  A nonpositive
    radius raises ``ValueError``."""
    n, d = rat(t).as_integer_ratio()
    rn, rd = rat(radius).as_integer_ratio()
    if rn <= 0:
        raise ValueError("radius must be positive")
    x, y, w = center.h
    den = rd * (d * d + n * n)
    return _reduced(Point, x * den + w * rn * (d * d - n * n), y * den + w * 2 * rn * n * d, w * den)


def _segment_parameter(p: Point, end1: Point, end2: Point) -> Tuple[int, int]:
    """The affine parameter (p - end1).(end2 - end1) / |end2 - end1|^2 of p
    along end1 -> end2, as an unreduced (numerator, nonnegative denominator)."""
    qx, qy, qw = _sum(p.h, end1.h, -1)
    dx, dy, dw = _sum(end2.h, end1.h, -1)
    return (qx * dx + qy * dy) * dw, (dx * dx + dy * dy) * qw


def _between(p: Point, end1: Point, end2: Point) -> bool:
    """p on segment [end1, end2], assuming p on the line; exact comparison of
    the affine coordinate."""
    num, den = _segment_parameter(p, end1, end2)
    return 0 <= num <= den


def scene_from_parameters(
    ts: Sequence[RationalLike],
    center: Point,
    radius: RationalLike,
    strict_segments: bool = False,
) -> Scene:
    """Build a scene from six explicit chord parameters (a1, a2, b1, b2, c1, c2).

    The chord a1-a2 becomes sideline BC, b1-b2 becomes CA, c1-c2 becomes AB;
    vertices are the pairwise chord intersections.  Raises on any local
    degeneracy (repeated parameters, parallel chords, collinear vertices,
    incidence point coinciding with a vertex); orientation is fixed by one
    label swap.
    """
    values = [rat(t) for t in ts]
    if len(values) != 6:
        raise ValueError("exactly six chord parameters are required")
    if len(set(values)) != 6:
        raise Degenerate("scene", "repeated chord parameter")
    radius = rat(radius)
    a1, a2, b1, b2, c1, c2 = (circle_point_from_parameter(t, center, radius) for t in values)

    chord_bc = _join(a1, a2)
    chord_ca = _join(b1, b2)
    chord_ab = _join(c1, c2)
    a = _reduced(Point, *_meet(chord_ca, chord_ab))
    b = _reduced(Point, *_meet(chord_ab, chord_bc))
    c = _reduced(Point, *_meet(chord_bc, chord_ca))

    if a == b or b == c or a == c or orientation(a, b, c) == 0:
        raise Degenerate("scene", "degenerate triangle")
    if orientation(a, b, c) < 0:
        # Swapping B and C keeps sideline BC fixed and exchanges CA with AB,
        # so the chord pairs on those sides swap labels with it.
        b, c = c, b
        b1, b2, c1, c2 = c1, c2, b1, b2

    incidences = (a1, a2, b1, b2, c1, c2)
    if any(p in (a, b, c) for p in incidences):
        raise Degenerate("scene", "incidence point coincides with a vertex")
    if strict_segments:
        for p, e1, e2 in ((a1, b, c), (a2, b, c), (b1, c, a), (b2, c, a), (c1, a, b), (c2, a, b)):
            if not _between(p, e1, e2):
                raise Degenerate("scene", "incidence point outside the closed segment")

    gamma = Circle.from_center_radius2(center, radius * radius)
    return Scene(
        a=a, b=b, c=c, gamma=gamma, o=center,
        a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2,
        strict_segments=strict_segments,
    )


def _draw_pairs(rng: Random, count: int, lo: int, hi: int, den_cap: int) -> List[Tuple[int, int]]:
    """``count`` pairs ``(rng.randint(lo, hi), rng.randint(1, den_cap))`` as
    CPython draws them: ``randint(a, b)`` is a plus the first
    ``getrandbits(k)`` below b - a + 1, k its bit length, so the values and
    the state left are ``randint``'s."""
    bits = rng.getrandbits
    width = hi - lo + 1
    nk, dk = width.bit_length(), den_cap.bit_length()
    pairs = []
    for _ in range(count):
        n = bits(nk)
        while n >= width:
            n = bits(nk)
        d = bits(dk)
        while d >= den_cap:
            d = bits(dk)
        pairs.append((lo + n, d + 1))
    return pairs


def _chords_adjacent(draws: Sequence[Tuple[int, int]]) -> bool:
    """The strict-segment squeeze on six drawn parameters (n, d), d > 0.

    True iff each chord's pair (a1, a2), (b1, b2), (c1, c2) has the other
    four parameters all strictly between its two or all strictly outside
    them: the pair is adjacent in the order around gamma.  A strict scene
    needs this, since its six points lie on the triangle's boundary, side by
    side, and points of a circle are in convex position.  For t = n/d the
    sign of (t - t1)(t - t2) is that of (n*d1 - n1*d)(n*d2 - n2*d); the test
    stops at the first that is zero or of the other sign."""
    for k in (0, 2, 4):
        (n1, d1), (n2, d2) = draws[k], draws[k + 1]
        outside = None  # the side of the first of the other four
        for n, d in draws[:k] + draws[k + 2:]:
            v = (n * d1 - n1 * d) * (n * d2 - n2 * d)
            if v == 0 or outside is (v < 0):
                return False
            outside = v > 0
    return True


def generate_scene(params: SceneParams) -> Scene:
    """Draw chord parameters until a draw's configuration is complete.

    Rejected and resampled: repeated parameters, parallel chords, degenerate
    triangles, incidence points falling on vertices, then what the stages
    of ``pipeline._prefix`` reject (P = Q, a degenerate stage from T_A to
    S, a hexagon meet at infinity, OR parallel to a sideline or through a
    vertex).  Only those stages are built, and no Brocard circle or S_t.
    P has an isogonal conjugate: it lies on no sideline
    (``pipeline.compute_configuration``), and a Miquel point on the
    circumcircle needs a1, b1, c1 collinear.  Deterministic for a fixed seed.

    With strict segments, a draw that fails the squeeze ``_chords_adjacent``
    is rejected on its six integer pairs, before ``scene_from_parameters``
    builds anything.  The squeeze is necessary for a strict scene, and it
    draws nothing.  ``_draw_pairs`` writes out ``Random.randint``, so every
    seed gives its scene on the same ``getrandbits`` stream.
    """
    from .pipeline import _prefix  # deferred: pipeline builds on scenes

    rng = Random(params.seed)
    for _ in range(_MAX_ATTEMPTS):
        draws = _draw_pairs(rng, 6, -params.numerator_cap, params.numerator_cap, params.denominator_cap)
        if params.strict_segments and not _chords_adjacent(draws):
            continue
        try:
            scene = scene_from_parameters(
                [Fraction(n, d) for n, d in draws], params.center, params.radius, params.strict_segments
            )
            if _prefix(scene)[2] is None:
                continue
        except GeometryError:
            continue
        return scene
    raise GenerationExhausted(
        f"no valid scene within {_MAX_ATTEMPTS} attempts (seed {params.seed})"
    )


def classical_brocard_scene(
    t1: RationalLike,
    t2: RationalLike,
    t3: RationalLike,
    center: Point = SceneParams.center,
    radius: RationalLike = SceneParams.radius,
) -> Scene:
    """Scene whose circle is the circumcircle itself: the incidence points
    alias to the vertices (a1=b, b1=c, c1=a, a2=c, b2=a, c2=b), which turns
    the two Miquel points into the classical Brocard points.  Center and
    radius default to those of ``SceneParams``.  Repeated parameters, and
    then a nonpositive radius, raise ``ValueError``; nothing else fails, as
    three distinct points of a circle are never collinear."""
    values = [rat(t) for t in (t1, t2, t3)]
    if len(set(values)) != 3:
        raise ValueError("classical parameters must be distinct")
    radius = rat(radius)
    a, b, c = (circle_point_from_parameter(t, center, radius) for t in values)
    if orientation(a, b, c) < 0:
        b, c = c, b
    gamma = Circle.from_center_radius2(center, radius * radius)
    return Scene(
        a=a, b=b, c=c, gamma=gamma, o=center,
        a1=b, a2=c, b1=c, b2=a, c1=a, c2=b,
        classical=True,
    )


def kwon_scene(seed: int) -> KwonScene:
    """Two inscribed triangles with concurrent chord perpendicular bisectors.

    d, x on BC and e, y on CA are drawn freely; t is the meet of the first
    two bisectors; z is then the reflection of a free f across the foot of t
    on AB, which forces the third bisector through t exactly.  Each drawn
    rational is its integer pair (numerator, denominator in 1..6), and
    each point is reduced once from those pairs.
    """
    rng = Random(seed)

    def vertex() -> Point:
        (nx, dx), (ny, dy) = _draw_pairs(rng, 2, -12, 12, 6)
        return _reduced(Point, nx * dy, ny * dx, dx * dy)

    def on_side(p1: Point, p2: Point) -> Point:
        """The point p1 + t*(p2 - p1) at t = n / 6m: mostly inside the
        segment, sometimes beyond."""
        [(n, m)] = _draw_pairs(rng, 1, -2, 8, 6)
        m *= 6
        x1, y1, w1 = p1.h
        x2, y2, w2 = p2.h
        return _reduced(Point, (m - n) * x1 * w2 + n * x2 * w1, (m - n) * y1 * w2 + n * y2 * w1, m * w1 * w2)

    for _ in range(_KWON_MAX_ATTEMPTS):
        a, b, c = vertex(), vertex(), vertex()
        turn = orientation(a, b, c)
        if turn == 0:
            continue
        if turn < 0:
            b, c = c, b

        d, x = on_side(b, c), on_side(b, c)
        e, y = on_side(c, a), on_side(c, a)
        f = on_side(a, b)
        try:
            if d == x or e == y:
                continue
            t = _reduced(Point, *_meet(_bisector(d, x), _bisector(e, y)))
            # z = 2 * foot(t, AB) - f, reduced once.
            fx, fy, fw = _foot(t, *_join(a, b))
            z = _reduced(Point, *_sum((2 * fx, 2 * fy, fw), f.h, -1))
            kw = KwonScene(a=a, b=b, c=c, d=d, e=e, f=f, x=x, y=y, z=z, t=t)
            # Both Miquel points must be constructible for the check to run;
            # the scene keeps them for it.
            kw.miquel_points
        except GeometryError:
            continue
        return kw
    raise GenerationExhausted(f"no valid Kwon scene within {_KWON_MAX_ATTEMPTS} attempts (seed {seed})")


class Violation(str):
    """A violated scene invariant: the message, with ``witnesses``, the exact
    quantities its predicate tested.  A violated equality carries a nonzero
    residual or coordinate difference; a violated inequality carries the
    value that has the wrong sign; a violated distinctness condition carries
    the zero difference of the two coinciding points."""

    witnesses: Tuple[Fraction, ...]

    def __new__(cls, message: str, *witnesses: Fraction) -> "Violation":
        self = super().__new__(cls, message)
        self.witnesses = witnesses
        return self


def _difference(p: Point, q: Point) -> Tuple[Fraction, Fraction]:
    d = p - q
    return d.x, d.y


def validate_scene(s: Scene) -> List[Violation]:
    """Re-check every scene invariant with exact predicates; empty iff valid.
    Each violation is its message, a ``str``, carrying its witnesses."""
    violations: List[Violation] = []
    try:
        bc, ca, ab = s.triangle.sides
    except GeometryError:
        p, q = next((p, q) for p, q in ((s.b, s.c), (s.c, s.a), (s.a, s.b)) if p == q)
        return [Violation("triangle vertices are not pairwise distinct", *_difference(p, q))]

    for name, p, l, side in (
        ("a1", s.a1, bc, "BC"), ("a2", s.a2, bc, "BC"),
        ("b1", s.b1, ca, "CA"), ("b2", s.b2, ca, "CA"),
        ("c1", s.c1, ab, "AB"), ("c2", s.c2, ab, "AB"),
    ):
        if not on_line(p, l):
            violations.append(Violation(f"{name} not on {side}", l.eval(p)))
    for name, p in zip(("a1", "a2", "b1", "b2", "c1", "c2"), s.incidence_points):
        if not on_circle(p, s.gamma):
            violations.append(Violation(f"{name} not on gamma", s.gamma.eval(p)))
    (ox, oy, ow), (d, e, f, v) = s.o.h, s.gamma.h
    if 2 * v * ox + d * ow or 2 * v * oy + e * ow:  # o is not the center (-d, -e) / 2v
        violations.append(Violation("o is not the center of gamma", *_difference(s.o, s.gamma.center)))
    if d * d + e * e - 4 * f * v <= 0:  # 4 * v^2 * radius2
        violations.append(Violation("gamma has non-positive squared radius", s.gamma.radius2))
    if orientation(s.a, s.b, s.c) <= 0:
        violations.append(
            Violation("orientation: triangle is not anticlockwise", collinear_det(s.a, s.b, s.c))
        )

    if s.classical:
        aliases = (
            ("a1", s.a1, s.b), ("a2", s.a2, s.c), ("b1", s.b1, s.c),
            ("b2", s.b2, s.a), ("c1", s.c1, s.a), ("c2", s.c2, s.b),
        )
        for name, p, v in aliases:
            if p != v:
                violations.append(Violation(f"classical aliasing broken for {name}", *_difference(p, v)))
    else:
        pts = s.incidence_points
        repeated = next(((p, q) for i, p in enumerate(pts) for q in pts[i + 1:] if p == q), None)
        if repeated is not None:
            violations.append(Violation("incidence points are not pairwise distinct", *_difference(*repeated)))
        on_vertex = next(((p, v) for p in pts for v in s.vertices if p == v), None)
        if on_vertex is not None:
            violations.append(Violation("incidence point coincides with a vertex", *_difference(*on_vertex)))

    if s.strict_segments:
        for name, p, e1, e2 in (
            ("a1", s.a1, s.b, s.c), ("a2", s.a2, s.b, s.c),
            ("b1", s.b1, s.c, s.a), ("b2", s.b2, s.c, s.a),
            ("c1", s.c1, s.a, s.b), ("c2", s.c2, s.a, s.b),
        ):
            if not _between(p, e1, e2):
                # The affine parameter of p along e1 -> e2, outside [0, 1].
                outside = Fraction(*_segment_parameter(p, e1, e2))
                violations.append(Violation(f"{name} outside the closed segment", outside))
    return violations
