"""Named exact checks, one per verified statement, plus the suite runner.

Each check re-derives its claim from the configuration with exact
predicates and records every assertion with witness scalars: the witness
is the exact residual (determinant, power of a point, coordinate
difference) that must vanish, so a FAIL always carries a nonzero exact
certificate of violation.  The ``scene_validation`` result carries the
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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .geom import (
    Circle,
    ComplexScalar,
    Degenerate,
    DirectedAngleClass,
    GeometryError,
    Line,
    Point,
    angle_at,
    circumcircle,
    collinear_det,
    dist2,
    directed_angle,
    foot_perpendicular,
    intersect_lines,
    isogonal_conjugate,
    line_through,
    midpoint,
    parallel_through,
    perpendicular_through,
    polar_of_point,
    pole_of_line,
    rational_sqrt,
    second_intersection_circle_line,
    simson_line,
    triangle_sidelines,
)
from .pipeline import (
    ClassicalOverlay,
    Configuration,
    classical_overlay,
    miquel_point_quadrangle,
    spiral_ratio,
    tangent_of_angle,
)
from .scene import KwonScene, Scene, circle_point_from_parameter, kwon_scene, validate_scene

PASS = "PASS"
FAIL = "FAIL"
DEGENERATE = "DEGENERATE"

#: The seventeen theorem checks run on every scene, in report order.
THEOREM_CHECK_IDS: Tuple[str, ...] = (
    "check_isogonal_conjugates",
    "check_rotation_angles",
    "check_pascal_and_r",
    "check_brocard_circle",
    "check_equidistant",
    "check_first_triangle_similarity",
    "check_steiner",
    "check_tarry",
    "check_polygon_similarity",
    "check_perspective",
    "check_simson_parallel",
    "check_simson_perpendicular",
    "check_circumcenter_perspective",
    "check_lemma_spiral",
    "check_lemma_cyclic",
    "check_lemma_simson_angle",
    "check_kwon_remark",
)

#: Fixed auxiliary inputs the suite derives per scene for the lemma checks.
SPIRAL_SCALE = Fraction(2, 5)
CYCLIC_PARAMETERS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(3))


@dataclass
class Assertion:
    label: str
    ok: bool
    witnesses: Tuple[Fraction, ...]


@dataclass
class CheckResult:
    check_id: str
    status: str
    assertions: List[Assertion]
    notes: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failed_assertions(self) -> List[Assertion]:
        return [a for a in self.assertions if not a.ok]


@dataclass
class SuiteReport:
    scene_digest: str
    results: List[CheckResult]

    @property
    def counts(self) -> Dict[str, int]:
        out = {PASS: 0, FAIL: 0, DEGENERATE: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.results)

    @property
    def has_fail(self) -> bool:
        return any(r.status == FAIL for r in self.results)


class _Recorder:
    """Accumulates assertions; every record returns the pass flag so checks
    can short-circuit around constructions that need a passed premise."""

    def __init__(self):
        self.assertions: List[Assertion] = []
        self.notes: List[str] = []

    @property
    def any_failed(self) -> bool:
        return any(not a.ok for a in self.assertions)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def _record(self, label: str, witnesses: Sequence[Fraction]) -> bool:
        ws = tuple(w if type(w) is Fraction else Fraction(w) for w in witnesses)
        ok = all(w == 0 for w in ws)
        self.assertions.append(Assertion(label, ok, ws))
        return ok

    def scalar_zero(self, label: str, value: Fraction) -> bool:
        return self._record(label, (value,))

    def scalars_equal(self, label: str, lhs: Fraction, rhs: Fraction) -> bool:
        return self._record(label, (lhs - rhs,))

    def points_equal(self, label: str, p: Point, q: Point) -> bool:
        return self._record(label, (p.x - q.x, p.y - q.y))

    def complex_equal(self, label: str, z: ComplexScalar, w: ComplexScalar) -> bool:
        return self._record(label, (z.re - w.re, z.im - w.im))

    def point_on_circle(self, label: str, p: Point, c: Circle) -> bool:
        return self._record(label, (c.eval(p),))

    def point_on_line(self, label: str, p: Point, l: Line) -> bool:
        return self._record(label, (l.eval(p),))

    def collinear(self, label: str, p: Point, q: Point, r: Point) -> bool:
        return self._record(label, (collinear_det(p, q, r),))

    def parallel(self, label: str, l1: Line, l2: Line) -> bool:
        return self._record(label, (l1.a * l2.b - l2.a * l1.b,))

    def perpendicular(self, label: str, l1: Line, l2: Line) -> bool:
        return self._record(label, (l1.a * l2.a + l1.b * l2.b,))

    def angles_equal(self, label: str, x: DirectedAngleClass, y: DirectedAngleClass) -> bool:
        return self._record(label, (x.cross * y.dot - y.cross * x.dot,))

    def lines_equal(self, label: str, l1: Line, l2: Line) -> bool:
        return self._record(
            label,
            (
                l1.a * l2.b - l2.a * l1.b,
                l1.a * l2.c - l2.a * l1.c,
                l1.b * l2.c - l2.b * l1.c,
            ),
        )


def _run(check_id: str, body: Callable[[_Recorder], None]) -> CheckResult:
    rec = _Recorder()
    start = time.perf_counter()
    try:
        body(rec)
        status = FAIL if rec.any_failed else PASS
    except GeometryError as exc:
        if rec.any_failed:
            status = FAIL
            rec.note(f"aborted after failed assertion: {exc}")
        else:
            status = DEGENERATE
            rec.note(str(exc))
    return CheckResult(check_id, status, rec.assertions, rec.notes, time.perf_counter() - start)


def _degenerate(check_id: str, reason: str) -> CheckResult:
    return CheckResult(check_id, DEGENERATE, [], [reason])


def _needs(cfg: Configuration, check_id: str, *fields: str) -> Optional[CheckResult]:
    if cfg.collapsed:
        return _degenerate(check_id, "configuration collapsed (P = Q)")
    missing = [f for f in fields if getattr(cfg, f) is None]
    if missing:
        return _degenerate(check_id, f"objects undefined: {', '.join(missing)}")
    return None


# ---------------------------------------------------------------------------
# Configuration checks


def check_isogonal_conjugates(cfg: Configuration) -> CheckResult:
    """P and Q are isogonal conjugates, with the six-term directed-angle
    chain (the sign-symmetric reading asserted, the literal printed sign of
    the last term reported as a note)."""
    bad = _needs(cfg, "check_isogonal_conjugates")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        ap = angle_at(s.a1, cfg.p, s.a2)
        bp = angle_at(s.b1, cfg.p, s.b2)
        cp = angle_at(s.c1, cfg.p, s.c2)
        aq = angle_at(s.a2, cfg.q, s.a1)
        bq = angle_at(s.b2, cfg.q, s.b1)
        cq = angle_at(s.c2, cfg.q, s.c1)
        rec.angles_equal("ang(P,A1,A2) == ang(P,B1,B2)", ap, bp)
        rec.angles_equal("ang(P,B1,B2) == ang(P,C1,C2)", bp, cp)
        rec.angles_equal("ang(P,C1,C2) == -ang(Q,A2,A1)", cp, -aq)
        rec.angles_equal("-ang(Q,A2,A1) == -ang(Q,B2,B1)", -aq, -bq)
        rec.angles_equal("-ang(Q,B2,B1) == -ang(Q,C2,C1)", -bq, -cq)
        rec.note(f"literal positive-sign reading ang(P,A1,A2) == +ang(Q,C2,C1): {ap == cq}")
        rec.points_equal(
            "isogonal_conjugate(P) == Q",
            isogonal_conjugate(cfg.p, s.a, s.b, s.c),
            cfg.q,
        )

    return _run("check_isogonal_conjugates", body)


def check_rotation_angles(cfg: Configuration) -> CheckResult:
    """The two spiral rotation angles cancel: Im(r_P * r_Q) = 0, with the
    per-side ratios for each Miquel point agreeing across BC, CA, AB."""
    bad = _needs(cfg, "check_rotation_angles")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        # The BC ratios are the configuration's r_P and r_Q.
        _, ca, ab = s.sidelines()
        rp_ca = spiral_ratio(cfg.p, s.b1, ca)
        rp_ab = spiral_ratio(cfg.p, s.c1, ab)
        rq_ca = spiral_ratio(cfg.q, s.b2, ca)
        rq_ab = spiral_ratio(cfg.q, s.c2, ab)
        rec.complex_equal("r_P agrees on BC and CA", cfg.r_p, rp_ca)
        rec.complex_equal("r_P agrees on CA and AB", rp_ca, rp_ab)
        rec.complex_equal("r_Q agrees on BC and CA", cfg.r_q, rq_ca)
        rec.complex_equal("r_Q agrees on CA and AB", rq_ca, rq_ab)
        rec.scalar_zero("Im(r_P * r_Q) == 0", (cfg.r_p * cfg.r_q).im)

    return _run("check_rotation_angles", body)


def check_pascal_and_r(cfg: Configuration) -> CheckResult:
    """The hexagon meets are collinear (Pascal), the vertex-prime lines
    concur at the pole R of that line, and each vertex-prime line is the
    polar of the corresponding hexagon meet."""
    bad = _needs(cfg, "check_pascal_and_r")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
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
            prime_lines[nm] = line_through(v, pr)
            rec.point_on_line(f"R on {nm}{nm}'", cfg.r, prime_lines[nm])
        for nm, pt in meets:
            vertex = {"A0": "A", "B0": "B", "C0": "C"}[nm]
            rec.lines_equal(
                f"{vertex}{vertex}' is the polar of {nm}",
                prime_lines[vertex],
                polar_of_point(pt, s.gamma),
            )

    return _run("check_pascal_and_r", body)


def check_brocard_circle(cfg: Configuration) -> CheckResult:
    """All ten distinguished points lie on one circle with OR as diameter,
    and the chord PQ subtends equal directed angles at the primed and
    T-triangle vertices."""
    bad = _needs(cfg, "check_brocard_circle")
    if bad:
        return bad

    def body(rec: _Recorder):
        members = (
            ("P", cfg.p), ("Q", cfg.q), ("O", cfg.o), ("R", cfg.r),
            ("A'", cfg.a_prime), ("B'", cfg.b_prime), ("C'", cfg.c_prime),
            ("T_A", cfg.t_a), ("T_B", cfg.t_b), ("T_C", cfg.t_c),
        )
        for name, pt in members:
            rec.point_on_circle(f"{name} on the common circle", pt, cfg.brocard_circle)
        rec.points_equal("midpoint(O, R) == center", midpoint(cfg.o, cfg.r), cfg.brocard_circle.center)
        # Proof-internal sharpenings; undefined when the named points
        # coincide (an isoceles classical scene puts A' on O), in which
        # case the core theorem above still stands.
        if cfg.o != cfg.a_prime and cfg.a_prime != cfg.r:
            rec.perpendicular(
                "OA' perpendicular to A'R",
                line_through(cfg.o, cfg.a_prime),
                line_through(cfg.a_prime, cfg.r),
            )
        else:
            rec.note("angle O-A'-R undefined: A' coincides with O or R")
        chord_views = [
            (name, pt)
            for name, pt in (("A'", cfg.a_prime), ("B'", cfg.b_prime), ("C'", cfg.c_prime), ("T_A", cfg.t_a))
            if pt not in (cfg.p, cfg.q)
        ]
        for (n1, v1), (n2, v2) in zip(chord_views, chord_views[1:]):
            rec.angles_equal(
                f"ang(P,{n1},Q) == ang(P,{n2},Q)",
                angle_at(v1, cfg.p, cfg.q),
                angle_at(v2, cfg.p, cfg.q),
            )

    return _run("check_brocard_circle", body)


def check_equidistant(cfg: Configuration) -> CheckResult:
    """P and Q are equidistant from R, and from O."""
    bad = _needs(cfg, "check_equidistant")
    if bad:
        return bad

    def body(rec: _Recorder):
        rec.scalars_equal("RP^2 == RQ^2", dist2(cfg.r, cfg.p), dist2(cfg.r, cfg.q))
        rec.scalars_equal("OP^2 == OQ^2", dist2(cfg.o, cfg.p), dist2(cfg.o, cfg.q))

    return _run("check_equidistant", body)


def check_first_triangle_similarity(cfg: Configuration) -> CheckResult:
    """The T-triangle is inversely similar to the reference triangle."""
    bad = _needs(cfg, "check_first_triangle_similarity")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        rec.points_equal("similarity fitted on A, B sends C to T_C", cfg.similarity.apply(s.c), cfg.t_c)
        lhs = ComplexScalar.from_vector(cfg.t_b - cfg.t_a) / ComplexScalar.from_vector(cfg.t_c - cfg.t_a)
        rhs = (ComplexScalar.from_vector(s.b - s.a) / ComplexScalar.from_vector(s.c - s.a)).conj()
        rec.complex_equal("(T_B-T_A)/(T_C-T_A) == conj((B-A)/(C-A))", lhs, rhs)

    return _run("check_first_triangle_similarity", body)


def check_steiner(cfg: Configuration) -> CheckResult:
    """The parallels from the vertices to the opposite T-sides concur at a
    point of the circumcircle."""
    bad = _needs(cfg, "check_steiner")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        for name, v, e1, e2 in (
            ("A", s.a, cfg.t_b, cfg.t_c),
            ("B", s.b, cfg.t_c, cfg.t_a),
            ("C", s.c, cfg.t_a, cfg.t_b),
        ):
            rec.point_on_line(
                f"S_t on the parallel from {name}",
                cfg.steiner,
                parallel_through(v, line_through(e1, e2)),
            )
        rec.point_on_circle("S_t on the circumcircle", cfg.steiner, cfg.circ)

    return _run("check_steiner", body)


def check_tarry(cfg: Configuration) -> CheckResult:
    """The perpendiculars from the vertices to the opposite T-sides concur
    at the antipode of the Steiner point."""
    bad = _needs(cfg, "check_tarry")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        for name, v, e1, e2 in (
            ("A", s.a, cfg.t_b, cfg.t_c),
            ("B", s.b, cfg.t_c, cfg.t_a),
            ("C", s.c, cfg.t_a, cfg.t_b),
        ):
            rec.point_on_line(
                f"T_a on the perpendicular from {name}",
                cfg.tarry,
                perpendicular_through(v, line_through(e1, e2)),
            )
        rec.point_on_circle("T_a on the circumcircle", cfg.tarry, cfg.circ)
        rec.points_equal("midpoint(S_t, T_a) == circumcenter", midpoint(cfg.steiner, cfg.tarry), cfg.circ.center)

    return _run("check_tarry", body)


def check_polygon_similarity(cfg: Configuration) -> CheckResult:
    """The inverse similarity fitted on two vertex pairs extends over the
    whole polygons: C -> T_C, S_t -> R, T_a -> O."""
    bad = _needs(cfg, "check_polygon_similarity")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        sim = cfg.similarity
        rec.points_equal("map sends C to T_C", sim.apply(s.c), cfg.t_c)
        rec.points_equal("map sends S_t to R", sim.apply(cfg.steiner), cfg.r)
        rec.points_equal("map sends T_a to O", sim.apply(cfg.tarry), cfg.o)

    return _run("check_polygon_similarity", body)


def check_perspective(cfg: Configuration) -> CheckResult:
    """The T-triangle and the primed triangle are perspective, and the
    fitted similarity carries the isogonal conjugate of R to the
    perspector."""
    bad = _needs(cfg, "check_perspective")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        for name, t, pr in (("A", cfg.t_a, cfg.a_prime), ("B", cfg.t_b, cfg.b_prime), ("C", cfg.t_c, cfg.c_prime)):
            rec.point_on_line(f"S on T_{name} {name}'", cfg.perspector, line_through(t, pr))
        rec.points_equal("map sends R* to S", cfg.similarity.apply(cfg.r_star), cfg.perspector)

    return _run("check_perspective", body)


def check_simson_parallel(cfg: Configuration) -> CheckResult:
    """The Simson line of the Steiner point is parallel to OR."""
    bad = _needs(cfg, "check_simson_parallel")
    if bad:
        return bad

    def body(rec: _Recorder):
        if rec.point_on_circle("S_t on the circumcircle", cfg.steiner, cfg.circ):
            rec.parallel("simson(S_t) parallel to OR", cfg.simson_steiner, cfg.or_line)

    return _run("check_simson_parallel", body)


def check_simson_perpendicular(cfg: Configuration) -> CheckResult:
    """The Simson line of the Tarry point is perpendicular to OR."""
    bad = _needs(cfg, "check_simson_perpendicular")
    if bad:
        return bad

    def body(rec: _Recorder):
        if rec.point_on_circle("T_a on the circumcircle", cfg.tarry, cfg.circ):
            rec.perpendicular("simson(T_a) perpendicular to OR", cfg.simson_tarry, cfg.or_line)

    return _run("check_simson_perpendicular", body)


def check_circumcenter_perspective(cfg: Configuration) -> CheckResult:
    """OR cuts the sidelines in X, Y, Z; the circumcenters of AYZ, BZX, CXY
    are perspective with ABC at the Steiner point."""
    bad = _needs(cfg, "check_circumcenter_perspective", "x", "y", "z", "o_a", "o_b", "o_c")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        bc, ca, ab = s.sidelines()
        or_line = cfg.or_line
        for name, pt, side in (("X", cfg.x, bc), ("Y", cfg.y, ca), ("Z", cfg.z, ab)):
            rec.point_on_line(f"{name} on its sideline", pt, side)
            rec.point_on_line(f"{name} on OR", pt, or_line)
        for name, oc, v, p1, p2 in (
            ("O_A", cfg.o_a, s.a, cfg.y, cfg.z),
            ("O_B", cfg.o_b, s.b, cfg.z, cfg.x),
            ("O_C", cfg.o_c, s.c, cfg.x, cfg.y),
        ):
            rec.scalars_equal(f"{name} equidistant from the vertex and first cut", dist2(oc, v), dist2(oc, p1))
            rec.scalars_equal(f"{name} equidistant from the vertex and second cut", dist2(oc, v), dist2(oc, p2))
        for name, v, oc in (("A", s.a, cfg.o_a), ("B", s.b, cfg.o_b), ("C", s.c, cfg.o_c)):
            rec.point_on_line(f"S_t on {name} O_{name}", cfg.steiner, line_through(v, oc))

    return _run("check_circumcenter_perspective", body)


# ---------------------------------------------------------------------------
# Lemma checks (self-contained inputs)


def build_spiral_points(
    a: Point, b: Point, c: Point, m: Point, scale: Fraction,
    sides: Optional[Tuple[Line, Line, Line]] = None,
) -> Tuple[Point, Point, Point]:
    """Spiral image of the pedal triangle of m under 1 + scale*i, which keeps
    each image point on its sideline.  A caller holding the sidelines
    (BC, CA, AB) passes them as ``sides``."""
    rho = ComplexScalar(1, scale)
    out = []
    for side in sides if sides is not None else triangle_sidelines(a, b, c):
        ft = foot_perpendicular(m, side)
        out.append(m + rho.apply_to(ft - m))
    return tuple(out)


def check_lemma_spiral(
    a: Point, b: Point, c: Point, m: Point, scale: Fraction,
    points: Optional[Tuple[Point, Point, Point]] = None,
    sides: Optional[Tuple[Line, Line, Line]] = None,
) -> CheckResult:
    """m is the Miquel point of the spiral image of its own pedal triangle,
    with one common spiral ratio on all three sides.  A caller holding the
    sidelines (BC, CA, AB) passes them as ``sides``."""

    def body(rec: _Recorder):
        bc, ca, ab = sides if sides is not None else triangle_sidelines(a, b, c)
        d, e, f = points if points is not None else build_spiral_points(a, b, c, m, scale, (bc, ca, ab))
        rec.point_on_line("D on BC", d, bc)
        rec.point_on_line("E on CA", e, ca)
        rec.point_on_line("F on AB", f, ab)
        rec.point_on_circle("M on circle(A,E,F)", m, circumcircle(a, e, f))
        rec.point_on_circle("M on circle(B,F,D)", m, circumcircle(b, f, d))
        rec.point_on_circle("M on circle(C,D,E)", m, circumcircle(c, d, e))
        r1 = spiral_ratio(m, d, bc)
        r2 = spiral_ratio(m, e, ca)
        r3 = spiral_ratio(m, f, ab)
        rec.complex_equal("spiral ratio equal on BC and CA", r1, r2)
        rec.complex_equal("spiral ratio equal on CA and AB", r2, r3)

    return _run("check_lemma_spiral", body)


def build_cyclic_quadrangle(
    circle: Circle, params: Sequence[Fraction] = CYCLIC_PARAMETERS
) -> Tuple[Point, Point, Point, Point]:
    """Four rational points of the circle; needs a rational radius."""
    radius = rational_sqrt(circle.radius2)
    if radius is None:
        raise Degenerate("cyclic quadrangle", "circle radius is irrational")
    return tuple(circle_point_from_parameter(t, circle.center, radius) for t in params)


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
        p = intersect_lines(line_through(pa, pb), line_through(pc, pd))
        q = intersect_lines(line_through(pa, pd), line_through(pb, pc))
        m = miquel_point_quadrangle(pa, pb, pc, pd)
        pq = line_through(p, q)
        o = circle.center
        rec.point_on_line("M on PQ", m, pq)
        rec.perpendicular("OM perpendicular to PQ", line_through(o, m), pq)
        r = intersect_lines(line_through(pa, pc), line_through(pb, pd))
        if r == o:
            raise Degenerate("inversion identity", "diagonal meet at the center")
        lhs = dist2(o, r) * (m - o)
        rhs = circle.radius2 * (r - o)
        rec.points_equal("M - O == (r^2 / OR^2) (R - O)", lhs, rhs)

    return _run("check_lemma_cyclic", body)


def check_lemma_simson_angle(
    a: Point, b: Point, c: Point, m: Point, n: Point, cfg: Optional[Configuration] = None
) -> CheckResult:
    """The angle between two Simson lines equals the inscribed angle the two
    points subtend at a vertex.  When m and n are the Steiner and Tarry
    points of ``cfg``, its circumcircle and Simson lines are used."""

    def body(rec: _Recorder):
        circ = cfg.circ if cfg is not None else circumcircle(a, b, c)
        ok_m = rec.point_on_circle("M on the circumcircle", m, circ)
        ok_n = rec.point_on_circle("N on the circumcircle", n, circ)
        if not (ok_m and ok_n):
            return
        if cfg is not None:
            lm, ln = cfg.simson_steiner, cfg.simson_tarry
        else:
            lm, ln = simson_line(m, a, b, c), simson_line(n, a, b, c)
        # Any vertex distinct from both points sees the same inscribed
        # angle mod pi; one always exists.
        vertex = next(v for v in (a, b, c) if v != m and v != n)
        rec.angles_equal(
            "ang(simson(M), simson(N)) == ang(M,vertex,N)",
            directed_angle(lm, ln),
            angle_at(vertex, m, n),
        )

    return _run("check_lemma_simson_angle", body)


def check_kwon_remark(kw: KwonScene) -> CheckResult:
    """When the chord perpendicular bisectors of two inscribed triangles
    concur at T, the two Miquel points are equidistant from T."""

    def body(rec: _Recorder):
        rec.scalars_equal("TD^2 == TX^2", dist2(kw.t, kw.d), dist2(kw.t, kw.x))
        rec.scalars_equal("TE^2 == TY^2", dist2(kw.t, kw.e), dist2(kw.t, kw.y))
        rec.scalars_equal("TF^2 == TZ^2", dist2(kw.t, kw.f), dist2(kw.t, kw.z))
        o1, o2 = kw.miquel_points
        rec.scalars_equal("T O1^2 == T O2^2", dist2(kw.t, o1), dist2(kw.t, o2))

    return _run("check_kwon_remark", body)


# ---------------------------------------------------------------------------
# Classical overlay check


def _symmedian_point(a: Point, b: Point, c: Point) -> Point:
    """Barycentric oracle a^2 : b^2 : c^2, independent of the pole
    construction used by the pipeline."""
    la, lb, lc = dist2(b, c), dist2(c, a), dist2(a, b)
    s = la + lb + lc
    return Point(
        (la * a.x + lb * b.x + lc * c.x) / s,
        (la * a.y + lb * b.y + lc * c.y) / s,
    )


def check_classical_overlay(cfg: Configuration, overlay: Optional[ClassicalOverlay] = None) -> CheckResult:
    """Classical specialization: the Miquel pair is the Brocard pair, the
    pole R is the symmedian point, and the T- and primed triangles are the
    two classical Brocard triangles."""
    if not cfg.scene.classical:
        return _degenerate("check_classical_overlay", "scene is not classical")
    bad = _needs(cfg, "check_classical_overlay")
    if bad:
        return bad
    s = cfg.scene

    def body(rec: _Recorder):
        ov = overlay if overlay is not None else classical_overlay(s)
        if ov.collapsed:
            raise Degenerate("classical overlay", "equilateral collapse")
        rec.points_equal("P == Omega", cfg.p, ov.omega)
        rec.points_equal("Q == Omega'", cfg.q, ov.omega_prime)
        for name, circle in (("w_A", ov.w_a), ("w_B", ov.w_b), ("w_C", ov.w_c)):
            rec.point_on_circle(f"Omega on {name}", ov.omega, circle)
        for name, circle in (("w_A'", ov.w_a_prime), ("w_B'", ov.w_b_prime), ("w_C'", ov.w_c_prime)):
            rec.point_on_circle(f"Omega' on {name}", ov.omega_prime, circle)
        rec.points_equal("R == K", cfg.r, ov.k)
        rec.points_equal("K matches barycentric a^2:b^2:c^2", ov.k, _symmedian_point(s.a, s.b, s.c))
        rec.point_on_circle("Omega on the circle with diameter OK", ov.omega, cfg.brocard_circle)
        rec.point_on_circle("Omega' on the circle with diameter OK", ov.omega_prime, cfg.brocard_circle)
        rec.scalars_equal("O equidistant from Omega, Omega'", dist2(cfg.o, ov.omega), dist2(cfg.o, ov.omega_prime))
        rec.scalars_equal("K equidistant from Omega, Omega'", dist2(ov.k, ov.omega), dist2(ov.k, ov.omega_prime))
        # First Brocard triangle: T-vertices as meets of Brocard cevians.
        rec.points_equal(
            "T_A == Omega B meet Omega' C",
            cfg.t_a,
            intersect_lines(line_through(ov.omega, s.b), line_through(ov.omega_prime, s.c)),
        )
        rec.points_equal(
            "T_B == Omega C meet Omega' A",
            cfg.t_b,
            intersect_lines(line_through(ov.omega, s.c), line_through(ov.omega_prime, s.a)),
        )
        rec.points_equal(
            "T_C == Omega A meet Omega' B",
            cfg.t_c,
            intersect_lines(line_through(ov.omega, s.a), line_through(ov.omega_prime, s.b)),
        )
        # Second Brocard triangle: primed points on the symmedians, and each
        # is the second meet of its symmedian with the circle on OK.
        for name, v, pr in (("A", s.a, cfg.a_prime), ("B", s.b, cfg.b_prime), ("C", s.c, cfg.c_prime)):
            rec.collinear(f"{name}, {name}', K collinear", v, pr, ov.k)
            chord, _ = second_intersection_circle_line(
                cfg.brocard_circle, line_through(v, ov.k), ov.k
            )
            rec.points_equal(f"{name}' is the second symmedian meet", pr, chord)
        t1 = tangent_of_angle(s.a, s.b, ov.omega)
        t2 = tangent_of_angle(s.b, s.c, ov.omega)
        t3 = tangent_of_angle(s.c, s.a, ov.omega)
        rec.scalars_equal("tan at A == tan at B (Omega)", t1, t2)
        rec.scalars_equal("tan at B == tan at C (Omega)", t2, t3)
        rec.scalars_equal("stored Brocard tangent matches", ov.tan_brocard, t1)
        area2 = collinear_det(s.a, s.b, s.c)
        la, lb, lc = dist2(s.b, s.c), dist2(s.c, s.a), dist2(s.a, s.b)
        rec.scalars_equal("tan equals 4*area/(a^2+b^2+c^2)", ov.tan_brocard, 2 * area2 / (la + lb + lc))
        u1 = tangent_of_angle(s.a, s.c, ov.omega_prime)
        u2 = tangent_of_angle(s.b, s.a, ov.omega_prime)
        u3 = tangent_of_angle(s.c, s.b, ov.omega_prime)
        rec.scalars_equal("tan at A == tan at B (Omega')", u1, u2)
        rec.scalars_equal("tan at B == tan at C (Omega')", u2, u3)
        rec.scalars_equal("Omega' tangent mirrors Omega's", u1, -ov.tan_brocard)

    return _run("check_classical_overlay", body)


# ---------------------------------------------------------------------------
# Suite runner


@lru_cache(maxsize=1)
def _cyclic_lemma(gamma: Circle) -> CheckResult:
    """The cyclic lemma on the fixed quadrangle of gamma.  It depends on
    gamma alone, so the result for the last circle is kept: a file of
    scenes on one circle computes it once.  Never hand it out; see
    ``_copy_result``."""
    try:
        quad = build_cyclic_quadrangle(gamma)
    except GeometryError as exc:
        return _degenerate("check_lemma_cyclic", str(exc))
    return check_lemma_cyclic(gamma, *quad)


def _copy_result(result: CheckResult) -> CheckResult:
    """A copy of ``result`` that shares no mutable object with it."""
    return CheckResult(
        result.check_id,
        result.status,
        [Assertion(a.label, a.ok, a.witnesses) for a in result.assertions],
        list(result.notes),
    )


def _scene_checks(cfg: Configuration, digest: str) -> Dict[str, Callable[[], CheckResult]]:
    """Bind every theorem check to the configuration, deriving the auxiliary
    lemma inputs deterministically from the scene."""
    s = cfg.scene

    def lemma_spiral() -> CheckResult:
        if cfg.collapsed:
            return _degenerate("check_lemma_spiral", "configuration collapsed (P = Q)")
        return check_lemma_spiral(s.a, s.b, s.c, cfg.p, SPIRAL_SCALE, sides=s.sidelines())

    def lemma_simson() -> CheckResult:
        if cfg.collapsed or cfg.steiner is None:
            return _degenerate("check_lemma_simson_angle", "Steiner pair unavailable")
        return check_lemma_simson_angle(s.a, s.b, s.c, cfg.steiner, cfg.tarry, cfg)

    def kwon() -> CheckResult:
        try:
            kw = kwon_scene(int(digest[:12], 16))
        except GeometryError as exc:
            return _degenerate("check_kwon_remark", str(exc))
        return check_kwon_remark(kw)

    return {
        "check_isogonal_conjugates": lambda: check_isogonal_conjugates(cfg),
        "check_rotation_angles": lambda: check_rotation_angles(cfg),
        "check_pascal_and_r": lambda: check_pascal_and_r(cfg),
        "check_brocard_circle": lambda: check_brocard_circle(cfg),
        "check_equidistant": lambda: check_equidistant(cfg),
        "check_first_triangle_similarity": lambda: check_first_triangle_similarity(cfg),
        "check_steiner": lambda: check_steiner(cfg),
        "check_tarry": lambda: check_tarry(cfg),
        "check_polygon_similarity": lambda: check_polygon_similarity(cfg),
        "check_perspective": lambda: check_perspective(cfg),
        "check_simson_parallel": lambda: check_simson_parallel(cfg),
        "check_simson_perpendicular": lambda: check_simson_perpendicular(cfg),
        "check_circumcenter_perspective": lambda: check_circumcenter_perspective(cfg),
        "check_lemma_spiral": lemma_spiral,
        "check_lemma_cyclic": lambda: _copy_result(_cyclic_lemma(s.gamma)),
        "check_lemma_simson_angle": lemma_simson,
        "check_kwon_remark": kwon,
    }


def run_suite(scene: Scene, check_ids: Optional[Sequence[str]] = None) -> SuiteReport:
    """Validate the scene, build its configuration, and run every applicable
    check (optionally filtered by id).  Deterministic for a fixed scene."""
    from .sceneio import scene_digest  # local: sceneio serializes these reports

    from .pipeline import compute_configuration

    digest = scene_digest(scene)
    violations = validate_scene(scene)
    validation = CheckResult(
        "scene_validation",
        FAIL if violations else PASS,
        [Assertion(str(v), False, v.witnesses) for v in violations],
    )
    results = [validation]
    if violations:
        return SuiteReport(digest, results)

    try:
        cfg = compute_configuration(scene)
    except GeometryError as exc:
        results.append(_degenerate("configuration", str(exc)))
        return SuiteReport(digest, results)

    table = _scene_checks(cfg, digest)
    selected = list(check_ids) if check_ids is not None else list(THEOREM_CHECK_IDS)
    unknown = [cid for cid in selected if cid not in table and cid != "check_classical_overlay"]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(sorted(unknown))}")
    for cid in THEOREM_CHECK_IDS:
        if cid in selected:
            results.append(table[cid]())
    if scene.classical and (check_ids is None or "check_classical_overlay" in selected):
        results.append(check_classical_overlay(cfg))
    return SuiteReport(digest, results)
