"""Named exact checks, one per verified statement, plus the suite runner.

Each check re-derives its claim from the configuration with exact
predicates and records every assertion with witness scalars: the witness
is the exact residual (determinant, power of a point, coordinate
difference) that must vanish, so a FAIL always carries a nonzero exact
certificate of violation.  The recorder decides each assertion on the
integer numerator of that residual; a PASS records the shared zero
witnesses and builds no ``Fraction``, and only a FAIL builds its exact
witness.  The ``scene_validation`` result carries the
witnesses of ``validate_scene``: a violated equality has a nonzero
residual or coordinate difference, a violated inequality the value with
the wrong sign, and a violated distinctness condition the zero difference
of the two coinciding points.

Status taxonomy: PASS means every assertion holds; FAIL means at least one
exact identity is violated; DEGENERATE means the configuration does not
carry the objects the check needs (collapsed Miquel pair, meets at
infinity).  DEGENERATE is never conflated with FAIL.  If a construction
inside a check raises after some assertion has already failed, the failure
wins; a degeneracy with a clean slate reports DEGENERATE.

A configuration check is declared once, as a body ``(rec, cfg)`` that
records its assertions on ``rec``, decorated with ``@_check(*fields)``
naming the configuration fields it needs besides the Miquel pair.  The
body's function name is the check id, and the decorator turns the body
into the public check of that name, ``check_x(cfg) -> CheckResult``.  The
suite runs the checks in declaration order, which is report order: the
configuration checks first, then the four lemma checks, whose adapters
derive their self-contained inputs from the scene, and last the
classical-overlay check, ``@_check(classical=True)``, which runs on
classical scenes only.  Results are frozen records holding tuples:
immutable, hashable values that reports share.  Every PASS result is one
shared value, kept by ``_run`` per check id, notes and assertions, and the
``scene_validation`` PASS is the constant ``_VALID``; FAIL and DEGENERATE
results are built fresh.  Every scene on one circle shares the one
memoised cyclic-lemma result, and every scene the one Kwon-remark result,
memoised on a fixed instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    GeometryError,
    Line,
    Point,
    Triangle,
    collinear_det,
    dist2,
    intersect_lines,
    line_through,
    pole_of_line,
    second_intersection_circle_line,
    _angle,
    _angle_at,
    _area,
    _canonical_ints,
    _center,
    _foot,
    _image,
    _isogonal,
    _join,
    _meet,
    _midpoint,
    _parallel,
    _perpendicular,
    _polar,
    _power,
    _quotient,
    _record,
    _reduced,
    _spiral,
    _sum,
    _times,
)
from .pipeline import (
    Configuration,
    compute_configuration,
    miquel_circle,
    miquel_point,
    tangent_of_angle,
    _Stage,
    _on_miquel_circle,
)
from .scene import KwonScene, Scene, circle_point_from_parameter, kwon_scene, validate_scene
from .sceneio import scene_digest

PASS = "PASS"
FAIL = "FAIL"
DEGENERATE = "DEGENERATE"

#: Every check of the suite in report order, which is declaration order:
#: id -> (runner(configuration), runs on classical scenes only).
_SUITE: Dict[str, Tuple[Callable[[Configuration], CheckResult], bool]] = {}

#: A line, point or complex number as its value or as the raw coefficient
#: triple of a ``geom`` helper, a circle as its value or the raw
#: ``(d, e, f, v)`` of one, and an angle as the raw ``(cross, dot)`` pair
#: of ``_angle`` or ``_angle_at``; see ``_Recorder``.
Coefficients = Union[Line, Tuple[int, int, int]]
PointLike = Union[Point, ComplexScalar, Tuple[int, int, int]]
CircleLike = Union[Circle, Tuple[int, int, int, int]]
AnglePair = Tuple[int, int]

#: Fixed auxiliary inputs the suite derives per scene for the lemma checks.
SPIRAL_SCALE = Fraction(2, 5)
CYCLIC_PARAMETERS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(3))


@_record
class Assertion:
    label: str
    ok: bool
    witnesses: Tuple[Fraction, ...]


@_record
class CheckResult:
    check_id: str
    status: str
    assertions: Tuple[Assertion, ...]
    notes: Tuple[str, ...] = ()

    @property
    def failed_assertions(self) -> Tuple[Assertion, ...]:
        return tuple(a for a in self.assertions if not a.ok)


@_record
class SuiteReport:
    scene_digest: str
    results: Tuple[CheckResult, ...]

    @property
    def counts(self) -> Dict[str, int]:
        out = {PASS: 0, FAIL: 0, DEGENERATE: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.results)


#: The witnesses of a passing assertion, one shared tuple per arity.
_ZEROS = {n: (Fraction(0),) * n for n in (1, 2, 3)}

#: The PASS assertion of each (label, arity), built on first use and then
#: shared by every check and scene that records it.  Labels come from a
#: fixed set of names, so the memo stays bounded.
_PASSES: Dict[Tuple[str, int], Assertion] = {}


class _Recorder:
    """Accumulates assertions; every record returns the pass flag so checks
    can short-circuit around constructions that need a passed premise.

    Each predicate decides on the integer numerator of its residual, read
    off the stored tuples.  A zero residual records PASS with the shared
    zero witnesses of ``_ZEROS`` and builds no ``Fraction``; only a FAIL
    builds its witnesses, each with the public function that defines it
    (``Circle.eval``, ``Line.eval``, ``collinear_det``, a difference).
    A PASS records the one shared assertion of its label from ``_PASSES``,
    and ``failed`` is set once any assertion fails.

    Reduced where kept or written; raw for one meet or one comparison.
    The line predicates take a ``Line`` or the raw triple of a ``geom``
    helper (``_join``, ``_parallel``, ...), ``points_equal`` two points or
    two complex numbers, each a value or a raw triple (``_isogonal``,
    ``_image``, ``_midpoint``, ``_spiral``, ``_quotient``, ...),
    ``point_on_circle`` a ``Circle`` or the raw ``(d, e, f, v)`` of
    ``_circle_through``, and ``angles_equal`` the raw ``(cross, dot)``
    pairs of ``_angle`` and ``_angle_at``.  Each decides on the raw values,
    by a scale-invariant residual or by cross-multiplication.  Only a FAIL
    builds its witness: the residual of the canonical lines, circle or
    angle pairs (``_canonical_ints``), or the exact coordinate difference.
    An incidence with the circle through three points (``on_miquel_circle``,
    off a tangent-circle limit) is decided on the cross ratio, and only a
    FAIL builds the circle.  The helpers raise what the public functions
    raise, so no zero normal or zero denominator reaches a predicate."""

    def __init__(self):
        self.assertions: List[Assertion] = []
        self.notes: List[str] = []
        self.failed = False

    def note(self, text: str) -> None:
        self.notes.append(text)

    def _passed(self, label: str, arity: int = 1) -> bool:
        passed = _PASSES.get((label, arity))
        if passed is None:
            passed = _PASSES[label, arity] = Assertion(label, True, _ZEROS[arity])
        self.assertions.append(passed)
        return True

    def _failed(self, label: str, *witnesses: Union[int, Fraction]) -> bool:
        self.failed = True
        self.assertions.append(
            Assertion(label, False, tuple([Fraction(w) if type(w) is int else w for w in witnesses]))
        )
        return False

    def scalar_zero(self, label: str, value: Union[int, Fraction], den: int = 1) -> bool:
        """value / den == 0, for a nonzero integer den."""
        return self._failed(label, Fraction(value, den)) if value else self._passed(label)

    def scalars_equal(self, label: str, lhs: Fraction, rhs: Fraction) -> bool:
        return self._passed(label) if lhs == rhs else self._failed(label, lhs - rhs)

    def equidistant(self, label: str, center: Point, p: Point, q: Point) -> bool:
        """|center p|^2 == |center q|^2, compared by cross-multiplying the
        unreduced squared distances."""
        x1, y1, w1 = _sum(p.h, center.h, -1)
        x2, y2, w2 = _sum(q.h, center.h, -1)
        if (x1 * x1 + y1 * y1) * (w2 * w2) == (x2 * x2 + y2 * y2) * (w1 * w1):
            return self._passed(label)
        return self._failed(label, dist2(center, p) - dist2(center, q))

    def points_equal(self, label: str, p: PointLike, q: PointLike) -> bool:
        """p == q for two points or two complex numbers; a FAIL's witnesses
        are the coordinates of p - q."""
        if _same(p, q):
            return self._passed(label, 2)
        dx, dy, dw = _sum(p if type(p) is tuple else p.h, q if type(q) is tuple else q.h, -1)
        return self._failed(label, Fraction(dx, dw), Fraction(dy, dw))

    def point_on_circle(self, label: str, p: Point, c: CircleLike) -> bool:
        if _power(p, c if type(c) is tuple else c.h)[0]:
            return self._failed(label, (_reduced(Circle, *c) if type(c) is tuple else c).eval(p))
        return self._passed(label)

    def on_miquel_circle(self, label: str, m: Point, *circle) -> bool:
        """m on ``pipeline.miquel_circle(*circle)``, decided by ``_on_miquel_circle``."""
        if _on_miquel_circle(m, *circle):
            return self._passed(label)
        return self._failed(label, miquel_circle(*circle).eval(m))

    def point_on_line(self, label: str, p: Point, l: Coefficients) -> bool:
        a, b, c = l
        x, y, w = p.h
        return self._failed(label, Line(a, b, c).eval(p)) if a * x + b * y + c * w else self._passed(label)

    def collinear(self, label: str, p: Point, q: Point, r: Point) -> bool:
        return self._failed(label, collinear_det(p, q, r)) if _area(p, q, r)[0] else self._passed(label)

    def parallel(self, label: str, l1: Coefficients, l2: Coefficients) -> bool:
        if _angle(l1, l2)[0]:
            return self._failed(label, _angle(Line(*l1), Line(*l2))[0])
        return self._passed(label)

    def perpendicular(self, label: str, l1: Coefficients, l2: Coefficients) -> bool:
        if _angle(l1, l2)[1]:
            return self._failed(label, _angle(Line(*l1), Line(*l2))[1])
        return self._passed(label)

    def angles_equal(self, label: str, x: AnglePair, y: AnglePair) -> bool:
        if x[0] * y[1] - y[0] * x[1]:
            x, y = (_canonical_ints("angle class", "(cross, dot) is zero", *pair) for pair in (x, y))
            return self._failed(label, x[0] * y[1] - y[0] * x[1])
        return self._passed(label)

    def lines_equal(self, label: str, l1: Coefficients, l2: Coefficients) -> bool:
        a1, b1, c1 = l1
        a2, b2, c2 = l2
        if a1 * b2 - a2 * b1 or a1 * c2 - a2 * c1 or b1 * c2 - b2 * c1:
            l1, l2 = Line(a1, b1, c1), Line(a2, b2, c2)
            return self._failed(
                label,
                l1.a * l2.b - l2.a * l1.b,
                l1.a * l2.c - l2.a * l1.c,
                l1.b * l2.c - l2.b * l1.c,
            )
        return self._passed(label, 3)


def _same(u, v) -> bool:
    """Two points or complex numbers, each a value or a raw triple, are
    equal: their coordinates agree by cross-multiplication."""
    x1, y1, w1 = u if type(u) is tuple else u.h
    x2, y2, w2 = v if type(v) is tuple else v.h
    return x1 * w2 == x2 * w1 and y1 * w2 == y2 * w1


#: The PASS result of each (check id, notes, assertions), built on first use
#: and then shared by every scene that passes the check with them.  A PASS
#: records only the shared assertions of ``_PASSES``, so the key holds their
#: identities, which the stored result keeps alive.
_PASS_RESULTS: Dict[Tuple[str, Tuple[str, ...], Tuple[int, ...]], CheckResult] = {}


def _run(check_id: str, body: Callable[[_Recorder], None]) -> CheckResult:
    """The result of running ``body`` on a fresh recorder: the one shared
    PASS value of its id, notes and assertions, or a fresh FAIL or
    DEGENERATE result."""
    rec = _Recorder()
    try:
        body(rec)
        if not rec.failed:
            notes = tuple(rec.notes)
            key = (check_id, notes, tuple(map(id, rec.assertions)))
            result = _PASS_RESULTS.get(key)
            if result is None:
                result = _PASS_RESULTS[key] = CheckResult(check_id, PASS, tuple(rec.assertions), notes)
            return result
        status = FAIL
    except GeometryError as exc:
        if rec.failed:
            status = FAIL
            rec.note(f"aborted after failed assertion: {exc}")
        else:
            status = DEGENERATE
            rec.note(str(exc))
    return CheckResult(check_id, status, tuple(rec.assertions), tuple(rec.notes))


def _degenerate(check_id: str, reason: str) -> CheckResult:
    return CheckResult(check_id, DEGENERATE, (), (reason,))


def _needs(cfg: Configuration, check_id: str, *fields: str) -> Optional[CheckResult]:
    if cfg.collapsed:
        return _degenerate(check_id, "configuration collapsed (P = Q)")
    missing = [f for f in fields if getattr(cfg, f) is None]
    if missing:
        return _degenerate(check_id, f"objects undefined: {', '.join(missing)}")
    return None


#: The body of a configuration check: records its assertions on ``rec``.
_Body = Callable[[_Recorder, Configuration], None]
_Check = Callable[[Configuration], CheckResult]


def _check(*needed_fields: str, classical: bool = False) -> Callable[[_Body], _Check]:
    """Declare a configuration check from its body ``(rec, cfg)``.

    The check's id is the body's name.  The returned ``check(cfg)`` reports
    DEGENERATE when ``classical`` is set and the scene is not classical,
    when the configuration collapsed or when one of ``needed_fields`` is
    undefined, and otherwise runs the body under ``_run``.  The id joins
    the suite in declaration order; a ``classical`` check runs there on
    classical scenes only.
    """

    def declare(body: _Body) -> _Check:
        check_id = body.__name__

        def check(cfg: Configuration) -> CheckResult:
            if classical and not cfg.scene.classical:
                return _degenerate(check_id, "scene is not classical")
            bad = _needs(cfg, check_id, *needed_fields)
            if bad:
                return bad
            return _run(check_id, lambda rec: body(rec, cfg))

        check.__name__ = check.__qualname__ = check_id
        check.__doc__ = body.__doc__
        # Looked up by name at call time, not captured; see run_suite.
        _SUITE[check_id] = (lambda cfg: globals()[check_id](cfg), classical)
        return check

    return declare


# ---------------------------------------------------------------------------
# Configuration checks


@_check()
def check_isogonal_conjugates(rec: _Recorder, cfg: Configuration) -> None:
    """P and Q are isogonal conjugates, with the six-term directed-angle
    chain (the sign-symmetric reading asserted, the literal printed sign of
    the last term reported as a note)."""
    s, p, q = cfg.scene, cfg.p, cfg.q
    # Line X1 X2 of each angle is the sideline through X1 and X2.  The
    # angles are raw (cross, dot) pairs; a negated angle negates the cross.
    bc, ca, ab = s.triangle.sides
    ap = _angle(_join(s.a1, p), bc)
    bp = _angle(_join(s.b1, p), ca)
    cp = _angle(_join(s.c1, p), ab)
    aq_cross, aq_dot = _angle(_join(s.a2, q), bc)
    bq_cross, bq_dot = _angle(_join(s.b2, q), ca)
    cq_cross, cq_dot = _angle(_join(s.c2, q), ab)
    rec.angles_equal("ang(P,A1,A2) == ang(P,B1,B2)", ap, bp)
    rec.angles_equal("ang(P,B1,B2) == ang(P,C1,C2)", bp, cp)
    rec.angles_equal("ang(P,C1,C2) == -ang(Q,A2,A1)", cp, (-aq_cross, aq_dot))
    rec.angles_equal("-ang(Q,A2,A1) == -ang(Q,B2,B1)", (-aq_cross, aq_dot), (-bq_cross, bq_dot))
    rec.angles_equal("-ang(Q,B2,B1) == -ang(Q,C2,C1)", (-bq_cross, bq_dot), (-cq_cross, cq_dot))
    # Two classes are equal iff their pairs are proportional.  This reads
    # False on every report: by the chain it would make P a1 and Q a2
    # parallel, and no build gets past T_A with them parallel.
    same = ap[0] * cq_dot == cq_cross * ap[1]
    rec.note(f"literal positive-sign reading ang(P,A1,A2) == +ang(Q,C2,C1): {same}")
    rec.points_equal("isogonal_conjugate(P) == Q", _isogonal(cfg.p, s.a, s.b, s.c), cfg.q)


@_check()
def check_rotation_angles(rec: _Recorder, cfg: Configuration) -> None:
    """The two spiral rotation angles cancel: Im(r_P * r_Q) = 0, with the
    per-side ratios for each Miquel point agreeing across BC, CA, AB."""
    s = cfg.scene
    # The BC ratios are the configuration's r_P and r_Q.
    _, ca, ab = s.triangle.sides
    rp_ca = _spiral(cfg.p, s.b1, ca)
    rp_ab = _spiral(cfg.p, s.c1, ab)
    rq_ca = _spiral(cfg.q, s.b2, ca)
    rq_ab = _spiral(cfg.q, s.c2, ab)
    rec.points_equal("r_P agrees on BC and CA", cfg.r_p, rp_ca)
    rec.points_equal("r_P agrees on CA and AB", rp_ca, rp_ab)
    rec.points_equal("r_Q agrees on BC and CA", cfg.r_q, rq_ca)
    rec.points_equal("r_Q agrees on CA and AB", rq_ca, rq_ab)
    _, im, w = _times(cfg.r_p.h, cfg.r_q.h)
    rec.scalar_zero("Im(r_P * r_Q) == 0", im, w)


@_check()
def check_pascal_and_r(rec: _Recorder, cfg: Configuration) -> None:
    """The hexagon meets are collinear (Pascal), the vertex-prime lines
    concur at the pole R of that line, and each vertex-prime line is the
    polar of the corresponding hexagon meet."""
    s = cfg.scene
    meets = [(nm, pt) for nm, pt in (("A0", cfg.a0), ("B0", cfg.b0), ("C0", cfg.c0)) if pt is not None]
    if len(meets) == 3:
        rec.collinear("A0, B0, C0 collinear", cfg.a0, cfg.b0, cfg.c0)
    else:
        rec.note(f"{3 - len(meets)} hexagon meet(s) at infinity")
    for nm, pt in meets:
        rec.point_on_line(f"{nm} on Pascal line", pt, cfg.pascal_line)
    rec.points_equal("pole(Pascal line) == R", pole_of_line(cfg.pascal_line, s.gamma), cfg.r)
    prime_lines = {}
    for nm, v, pr in (("A", s.a, cfg.a_prime), ("B", s.b, cfg.b_prime), ("C", s.c, cfg.c_prime)):
        prime_lines[nm] = _join(v, pr)
        rec.point_on_line(f"R on {nm}{nm}'", cfg.r, prime_lines[nm])
    for nm, pt in meets:
        vertex = {"A0": "A", "B0": "B", "C0": "C"}[nm]
        rec.lines_equal(
            f"{vertex}{vertex}' is the polar of {nm}",
            prime_lines[vertex],
            _polar(pt, s.gamma),
        )


@_check()
def check_brocard_circle(rec: _Recorder, cfg: Configuration) -> None:
    """All ten distinguished points lie on one circle with OR as diameter,
    and the chord PQ subtends equal directed angles at the primed and
    T-triangle vertices."""
    members = (
        ("P", cfg.p), ("Q", cfg.q), ("O", cfg.o), ("R", cfg.r),
        ("A'", cfg.a_prime), ("B'", cfg.b_prime), ("C'", cfg.c_prime),
        ("T_A", cfg.t_a), ("T_B", cfg.t_b), ("T_C", cfg.t_c),
    )
    for name, pt in members:
        rec.point_on_circle(f"{name} on the common circle", pt, cfg.brocard_circle)
    rec.points_equal("midpoint(O, R) == center", _midpoint(cfg.o, cfg.r), _center(cfg.brocard_circle.h))
    # Proof-internal sharpenings; undefined when the named points
    # coincide (an isoceles classical scene puts A' on O), in which
    # case the core theorem above still stands.
    if cfg.o != cfg.a_prime and cfg.a_prime != cfg.r:
        rec.perpendicular(
            "OA' perpendicular to A'R",
            _join(cfg.o, cfg.a_prime),
            _join(cfg.a_prime, cfg.r),
        )
    else:
        rec.note("angle O-A'-R undefined: A' coincides with O or R")
    views = [
        (name, _angle_at(pt, cfg.p, cfg.q))
        for name, pt in (("A'", cfg.a_prime), ("B'", cfg.b_prime), ("C'", cfg.c_prime), ("T_A", cfg.t_a))
        if pt not in (cfg.p, cfg.q)
    ]
    for (n1, angle1), (n2, angle2) in zip(views, views[1:]):
        rec.angles_equal(f"ang(P,{n1},Q) == ang(P,{n2},Q)", angle1, angle2)


@_check()
def check_equidistant(rec: _Recorder, cfg: Configuration) -> None:
    """P and Q are equidistant from R, and from O."""
    rec.equidistant("RP^2 == RQ^2", cfg.r, cfg.p, cfg.q)
    rec.equidistant("OP^2 == OQ^2", cfg.o, cfg.p, cfg.q)


@_check()
def check_first_triangle_similarity(rec: _Recorder, cfg: Configuration) -> None:
    """The T-triangle is inversely similar to the reference triangle."""
    s = cfg.scene
    rec.points_equal("similarity fitted on A, B sends C to T_C", _image(cfg.similarity, s.c), cfg.t_c)
    lhs = _quotient(_sum(cfg.t_b.h, cfg.t_a.h, -1), _sum(cfg.t_c.h, cfg.t_a.h, -1))
    x, y, w = _quotient(_sum(s.b.h, s.a.h, -1), _sum(s.c.h, s.a.h, -1))
    rec.points_equal("(T_B-T_A)/(T_C-T_A) == conj((B-A)/(C-A))", lhs, (x, -y, w))


@_check()
def check_steiner(rec: _Recorder, cfg: Configuration) -> None:
    """The parallels from the vertices to the opposite T-sides concur at a
    point of the circumcircle."""
    for name, v, t_side in zip("ABC", cfg.scene.vertices, cfg.t_sides):
        rec.point_on_line(f"S_t on the parallel from {name}", cfg.steiner, _parallel(v, t_side))
    rec.point_on_circle("S_t on the circumcircle", cfg.steiner, cfg.circ)


@_check()
def check_tarry(rec: _Recorder, cfg: Configuration) -> None:
    """The perpendiculars from the vertices to the opposite T-sides concur
    at the antipode of the Steiner point."""
    for name, v, t_side in zip("ABC", cfg.scene.vertices, cfg.t_sides):
        rec.point_on_line(
            f"T_a on the perpendicular from {name}", cfg.tarry, _perpendicular(v, t_side)
        )
    rec.point_on_circle("T_a on the circumcircle", cfg.tarry, cfg.circ)
    rec.points_equal("midpoint(S_t, T_a) == circumcenter", _midpoint(cfg.steiner, cfg.tarry), _center(cfg.circ.h))


@_check()
def check_polygon_similarity(rec: _Recorder, cfg: Configuration) -> None:
    """The inverse similarity fitted on two vertex pairs extends over the
    whole polygons: C -> T_C, S_t -> R, T_a -> O."""
    s = cfg.scene
    sim = cfg.similarity
    rec.points_equal("map sends C to T_C", _image(sim, s.c), cfg.t_c)
    rec.points_equal("map sends S_t to R", _image(sim, cfg.steiner), cfg.r)
    rec.points_equal("map sends T_a to O", _image(sim, cfg.tarry), cfg.o)


@_check()
def check_perspective(rec: _Recorder, cfg: Configuration) -> None:
    """The T-triangle and the primed triangle are perspective, and the
    fitted similarity carries the isogonal conjugate of R to the
    perspector."""
    for name, line in zip("ABC", cfg.perspective_lines):
        rec.point_on_line(f"S on T_{name} {name}'", cfg.perspector, line)
    rec.points_equal("map sends R* to S", _image(cfg.similarity, cfg.r_star), cfg.perspector)


@_check()
def check_simson_parallel(rec: _Recorder, cfg: Configuration) -> None:
    """The Simson line of the Steiner point is parallel to OR."""
    if rec.point_on_circle("S_t on the circumcircle", cfg.steiner, cfg.circ):
        rec.parallel("simson(S_t) parallel to OR", cfg.simson_steiner, cfg.or_line)


@_check()
def check_simson_perpendicular(rec: _Recorder, cfg: Configuration) -> None:
    """The Simson line of the Tarry point is perpendicular to OR."""
    if rec.point_on_circle("T_a on the circumcircle", cfg.tarry, cfg.circ):
        rec.perpendicular("simson(T_a) perpendicular to OR", cfg.simson_tarry, cfg.or_line)


@_check("x", "y", "z", "o_a", "o_b", "o_c")
def check_circumcenter_perspective(rec: _Recorder, cfg: Configuration) -> None:
    """OR cuts the sidelines in X, Y, Z; the circumcenters of AYZ, BZX, CXY
    are perspective with ABC at the Steiner point."""
    s = cfg.scene
    bc, ca, ab = s.triangle.sides
    or_line = cfg.or_line
    for name, pt, side in (("X", cfg.x, bc), ("Y", cfg.y, ca), ("Z", cfg.z, ab)):
        rec.point_on_line(f"{name} on its sideline", pt, side)
        rec.point_on_line(f"{name} on OR", pt, or_line)
    for name, oc, v, p1, p2 in (
        ("O_A", cfg.o_a, s.a, cfg.y, cfg.z),
        ("O_B", cfg.o_b, s.b, cfg.z, cfg.x),
        ("O_C", cfg.o_c, s.c, cfg.x, cfg.y),
    ):
        rec.equidistant(f"{name} equidistant from the vertex and first cut", oc, v, p1)
        rec.equidistant(f"{name} equidistant from the vertex and second cut", oc, v, p2)
    for name, v, oc in (("A", s.a, cfg.o_a), ("B", s.b, cfg.o_b), ("C", s.c, cfg.o_c)):
        rec.point_on_line(f"S_t on {name} O_{name}", cfg.steiner, _join(v, oc))


# ---------------------------------------------------------------------------
# Lemma checks (self-contained inputs)


def build_spiral_points(tri: Triangle, m: Point, scale: Fraction) -> Tuple[Point, Point, Point]:
    """Spiral image of the pedal triangle of m under 1 + scale*i, which keeps
    each image point on its sideline."""
    rho = ComplexScalar(1, scale).h
    return tuple(
        _reduced(Point, *_sum(m.h, _times(rho, _sum(_foot(m, *side), m.h, -1)), 1)) for side in tri.sides
    )


def check_lemma_spiral(
    tri: Triangle, m: Point, scale: Fraction, points: Optional[Tuple[Point, Point, Point]] = None
) -> CheckResult:
    """m is the Miquel point of the spiral image of its own pedal triangle,
    with one common spiral ratio on all three sides; a spiral point on a
    vertex takes the tangent-circle limit there (``pipeline.miquel_circle``)."""

    def body(rec: _Recorder):
        a, b, c = tri.a, tri.b, tri.c
        bc, ca, ab = tri.sides
        d, e, f = points if points is not None else build_spiral_points(tri, m, scale)
        rec.point_on_line("D on BC", d, bc)
        rec.point_on_line("E on CA", e, ca)
        rec.point_on_line("F on AB", f, ab)
        rec.on_miquel_circle("M on circle(A,E,F)", m, a, e, ca, f, ab, "circle(A,E,F)")
        rec.on_miquel_circle("M on circle(B,F,D)", m, b, f, ab, d, bc, "circle(B,F,D)")
        rec.on_miquel_circle("M on circle(C,D,E)", m, c, d, bc, e, ca, "circle(C,D,E)")
        r1 = _spiral(m, d, bc)
        r2 = _spiral(m, e, ca)
        r3 = _spiral(m, f, ab)
        rec.points_equal("spiral ratio equal on BC and CA", r1, r2)
        rec.points_equal("spiral ratio equal on CA and AB", r2, r3)

    return _run("check_lemma_spiral", body)


def build_cyclic_quadrangle(circle: Circle) -> Tuple[Point, Point, Point, Point]:
    """Four rational points of the circle; needs a rational radius."""
    n, d = circle.radius2.as_integer_ratio()
    # isqrt raises on a negative n; 0 stands in, and 0 * 0 != n rejects it.
    rn, rd = isqrt(max(n, 0)), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise Degenerate("cyclic quadrangle", "circle radius is irrational")
    radius = Fraction(rn, rd)
    return tuple(circle_point_from_parameter(t, circle.center, radius) for t in CYCLIC_PARAMETERS)


def check_lemma_cyclic(
    circle: Circle, pa: Point, pb: Point, pc: Point, pd: Point
) -> CheckResult:
    """The Miquel point of a cyclic quadrangle sits on the line PQ of
    opposite-side meets, perpendicular to it from the center, and is the
    inverse of the diagonal meet in the circle."""

    def body(rec: _Recorder):
        ok = True
        for name, pt in (("A", pa), ("B", pb), ("C", pc), ("D", pd)):
            ok = rec.point_on_circle(f"{name} on the circle", pt, circle) and ok
        if not ok:
            return
        p = intersect_lines(_join(pa, pb), _join(pc, pd))
        q = intersect_lines(_join(pa, pd), _join(pb, pc))
        # As in miquel_point_quadrangle, whose premises four concyclic points meet.
        with _Stage("quadrangle Miquel point", theorem=True):
            m = miquel_point(q, pc, pb, Triangle(p, pa, pd))
        pq = _join(p, q)
        o = circle.center
        rec.point_on_line("M on PQ", m, pq)
        rec.perpendicular("OM perpendicular to PQ", _join(o, m), pq)
        r = intersect_lines(_join(pa, pc), _join(pb, pd))
        if r == o:
            raise Degenerate("inversion identity", "diagonal meet at the center")
        lhs = dist2(o, r) * (m - o)
        rhs = circle.radius2 * (r - o)
        rec.points_equal("M - O == (r^2 / OR^2) (R - O)", lhs, rhs)

    return _run("check_lemma_cyclic", body)


def check_lemma_simson_angle(tri: Triangle, m: Point, n: Point) -> CheckResult:
    """The angle between two Simson lines equals the inscribed angle the two
    points subtend at a vertex."""

    def body(rec: _Recorder):
        circ = tri.circumcircle
        ok_m = rec.point_on_circle("M on the circumcircle", m, circ)
        ok_n = rec.point_on_circle("N on the circumcircle", n, circ)
        if not (ok_m and ok_n):
            return
        # Any vertex distinct from both points sees the same inscribed
        # angle mod pi; one always exists.
        vertex = next(v for v in (tri.a, tri.b, tri.c) if v != m and v != n)
        rec.angles_equal(
            "ang(simson(M), simson(N)) == ang(M,vertex,N)",
            _angle(tri.simson_line(m), tri.simson_line(n)),
            _angle_at(vertex, m, n),
        )

    return _run("check_lemma_simson_angle", body)


def check_kwon_remark(kw: KwonScene) -> CheckResult:
    """When the chord perpendicular bisectors of two inscribed triangles
    concur at T, the two Miquel points are equidistant from T."""

    def body(rec: _Recorder):
        rec.equidistant("TD^2 == TX^2", kw.t, kw.d, kw.x)
        rec.equidistant("TE^2 == TY^2", kw.t, kw.e, kw.y)
        rec.equidistant("TF^2 == TZ^2", kw.t, kw.f, kw.z)
        o1, o2 = kw.miquel_points
        rec.equidistant("T O1^2 == T O2^2", kw.t, o1, o2)

    return _run("check_kwon_remark", body)


# ---------------------------------------------------------------------------
# Lemma inputs per scene, or per process


@lru_cache(maxsize=1)
def _cyclic_lemma(gamma: Circle) -> CheckResult:
    """The cyclic lemma on the fixed quadrangle of gamma.  It depends on
    gamma alone, so the result for the last circle is kept and shared: a
    file of scenes on one circle computes it once."""
    try:
        quad = build_cyclic_quadrangle(gamma)
    except GeometryError as exc:
        return _degenerate("check_lemma_cyclic", str(exc))
    return check_lemma_cyclic(gamma, *quad)


def _lemma_spiral(cfg: Configuration) -> CheckResult:
    if cfg.collapsed:
        return _degenerate("check_lemma_spiral", "configuration collapsed (P = Q)")
    return check_lemma_spiral(cfg.scene.triangle, cfg.p, SPIRAL_SCALE)


def _lemma_simson_angle(cfg: Configuration) -> CheckResult:
    if cfg.collapsed:
        return _degenerate("check_lemma_simson_angle", "Steiner pair unavailable")
    return check_lemma_simson_angle(cfg.scene.triangle, cfg.steiner, cfg.tarry)


@lru_cache(maxsize=1)
def _kwon_remark() -> CheckResult:
    """The Kwon remark on the fixed instance ``kwon_scene(0)``, once per
    process: nothing in it depends on the scene."""
    try:
        kw = kwon_scene(0)
    except GeometryError as exc:
        return _degenerate("check_kwon_remark", str(exc))
    return check_kwon_remark(kw)


# The lemma checks keep their self-contained signatures; these adapters
# derive their inputs deterministically from the scene, or none at all.
_SUITE.update(
    check_lemma_spiral=(_lemma_spiral, False),
    check_lemma_cyclic=(lambda cfg: _cyclic_lemma(cfg.scene.gamma), False),
    check_lemma_simson_angle=(_lemma_simson_angle, False),
    check_kwon_remark=(lambda cfg: _kwon_remark(), False),
)


# ---------------------------------------------------------------------------
# Classical overlay check (last in the suite, on classical scenes only)


def _barycentric(a: Point, b: Point, c: Point, u: Fraction, v: Fraction, w: Fraction) -> Point:
    """The point with barycentrics u : v : w in triangle abc."""
    s = u + v + w
    return Point((u * a.x + v * b.x + w * c.x) / s, (u * a.y + v * b.y + w * c.y) / s)


@_check(classical=True)
def check_classical_overlay(rec: _Recorder, cfg: Configuration) -> None:
    """Classical specialization: the Miquel pair is the Brocard pair, the
    pole R is the symmedian point, and the T- and primed triangles are the
    two classical Brocard triangles."""
    s = cfg.scene
    a, b, c = s.vertices
    ov = cfg.overlay
    # Barycentric oracles, independent of the pipeline's constructions:
    # Omega = c^2 a^2 : a^2 b^2 : b^2 c^2, Omega' = a^2 b^2 : b^2 c^2 : c^2 a^2
    # and K = a^2 : b^2 : c^2, with a^2 = |BC|^2 and so on.
    la, lb, lc = dist2(b, c), dist2(c, a), dist2(a, b)
    omega = _barycentric(a, b, c, lc * la, la * lb, lb * lc)
    omega_prime = _barycentric(a, b, c, la * lb, lb * lc, lc * la)
    rec.points_equal("P == Omega", cfg.p, omega)
    rec.points_equal("Q == Omega'", cfg.q, omega_prime)
    # The Miquel circles at A, B and C are (w_C, w_A, w_B) for P and
    # (w_B', w_C', w_A') for Q.
    w_c, w_a, w_b = cfg.p_circles
    w_b_prime, w_c_prime, w_a_prime = cfg.q_circles
    for name, circle in (("w_A", w_a), ("w_B", w_b), ("w_C", w_c)):
        rec.point_on_circle(f"Omega on {name}", omega, circle)
    for name, circle in (("w_A'", w_a_prime), ("w_B'", w_b_prime), ("w_C'", w_c_prime)):
        rec.point_on_circle(f"Omega' on {name}", omega_prime, circle)
    rec.points_equal("R == K", cfg.r, ov.k)
    rec.points_equal("K matches barycentric a^2:b^2:c^2", ov.k, _barycentric(a, b, c, la, lb, lc))
    rec.point_on_circle("Omega on the circle with diameter OK", omega, cfg.brocard_circle)
    rec.point_on_circle("Omega' on the circle with diameter OK", omega_prime, cfg.brocard_circle)
    rec.equidistant("O equidistant from Omega, Omega'", cfg.o, omega, omega_prime)
    rec.equidistant("K equidistant from Omega, Omega'", ov.k, omega, omega_prime)
    # First Brocard triangle: T-vertices as meets of Brocard cevians.
    vertex = dict(zip("ABC", s.vertices))
    for x, y, z, t in zip("ABC", "BCA", "CAB", (cfg.t_a, cfg.t_b, cfg.t_c)):
        rec.points_equal(
            f"T_{x} == Omega {y} meet Omega' {z}",
            t,
            _meet(_join(omega, vertex[y]), _join(omega_prime, vertex[z])),
        )
    # Second Brocard triangle: primed points on the symmedians, and each
    # is the second meet of its symmedian with the circle on OK.
    for name, v, pr in (("A", a, cfg.a_prime), ("B", b, cfg.b_prime), ("C", c, cfg.c_prime)):
        rec.collinear(f"{name}, {name}', K collinear", v, pr, ov.k)
        chord, _ = second_intersection_circle_line(cfg.brocard_circle, line_through(v, ov.k), ov.k)
        rec.points_equal(f"{name}' is the second symmedian meet", pr, chord)
    t1 = tangent_of_angle(a, b, omega)
    t2 = tangent_of_angle(b, c, omega)
    t3 = tangent_of_angle(c, a, omega)
    rec.scalars_equal("tan at A == tan at B (Omega)", t1, t2)
    rec.scalars_equal("tan at B == tan at C (Omega)", t2, t3)
    rec.scalars_equal("stored Brocard tangent matches", ov.tan_brocard, t1)
    area2 = collinear_det(a, b, c)
    rec.scalars_equal("tan equals 4*area/(a^2+b^2+c^2)", ov.tan_brocard, 2 * area2 / (la + lb + lc))
    u1 = tangent_of_angle(a, c, omega_prime)
    u2 = tangent_of_angle(b, a, omega_prime)
    u3 = tangent_of_angle(c, b, omega_prime)
    rec.scalars_equal("tan at A == tan at B (Omega')", u1, u2)
    rec.scalars_equal("tan at B == tan at C (Omega')", u2, u3)
    rec.scalars_equal("Omega' tangent mirrors Omega's", u1, -ov.tan_brocard)


# ---------------------------------------------------------------------------
# Suite runner

#: The ``scene_validation`` result of every valid scene.
_VALID = CheckResult("scene_validation", PASS, ())

#: The seventeen theorem checks run on every scene, in report order.
THEOREM_CHECK_IDS: Tuple[str, ...] = tuple(cid for cid, (_, classical) in _SUITE.items() if not classical)


def check_suite_ids(check_ids: Sequence[str]) -> None:
    """Raise ``ValueError`` naming every id of ``check_ids`` that is not a
    check of the suite."""
    unknown = [cid for cid in check_ids if cid not in _SUITE]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(sorted(unknown))}")


def run_suite(scene: Scene, check_ids: Optional[Sequence[str]] = None) -> SuiteReport:
    """Validate the scene, build its configuration, and run every applicable
    check (optionally filtered by id).  Deterministic for a fixed scene."""
    return _suite(scene, check_ids)[0]


def _suite(scene: Scene, check_ids: Optional[Sequence[str]]) -> Tuple[SuiteReport, Optional[Configuration]]:
    """``run_suite``'s report, with the configuration its checks ran on, or
    None when the scene is invalid or its configuration degenerate."""
    selected = list(_SUITE if check_ids is None else check_ids)
    check_suite_ids(selected)
    digest = scene_digest(scene)
    violations = validate_scene(scene)
    if violations:
        validation = CheckResult(
            "scene_validation", FAIL, tuple(Assertion(str(v), False, v.witnesses) for v in violations)
        )
        return SuiteReport(digest, (validation,)), None

    try:
        cfg = compute_configuration(scene)
    except GeometryError as exc:
        return SuiteReport(digest, (_VALID, _degenerate("configuration", str(exc)))), None

    # Every runner calls its check through the module attribute
    # ``checks.<id>``, so a wrapper installed there sees every call that a
    # memo does not skip: perfbench/tracer.py times each check that way.
    results = [_VALID]
    for cid, (run, classical) in _SUITE.items():
        if cid in selected and (scene.classical or not classical):
            results.append(run(cfg))
    return SuiteReport(digest, tuple(results)), cfg
