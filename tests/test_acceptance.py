"""Acceptance criteria, one test per criterion, one printed line each.

Every tolerance is exact equality of rationals; there is no epsilon.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines while the suite runs.
"""

import time
from fractions import Fraction as F
from random import Random

from brocard.checks import (
    DEGENERATE,
    FAIL,
    PASS,
    THEOREM_CHECK_IDS,
    run_suite,
)
from brocard.cli import main
from brocard.geom import (
    Circle,
    GeometryError,
    Line,
    Point,
    Triangle,
    dist2,
    intersect_lines,
    isogonal_conjugate,
    line_through,
    on_circle,
    orientation,
    pole_of_line,
    second_intersection_circles,
    _bisector,
    _canonical_ints,
    _polar,
)
from brocard.pipeline import (
    classical_overlay,
    compute_configuration,
    miquel_point,
    miquel_point_quadrangle,
)
from brocard.scene import (
    SceneParams,
    circle_point_from_parameter,
    classical_brocard_scene,
    generate_scene,
)

from test_checks import run_mutations


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_full_suite_zero_fail():
    """Seeds 1..100: every generated scene passes all 17 checks exactly,
    with zero DEGENERATE entries."""
    start = time.perf_counter()
    ok = True
    for seed in range(1, 101):
        scene = generate_scene(SceneParams(seed=seed))
        report = run_suite(scene)
        ids = [r.check_id for r in report.results]
        if ids != ["scene_validation", *THEOREM_CHECK_IDS]:
            ok = False
            break
        counts = report.counts
        if counts[FAIL] != 0 or counts[DEGENERATE] != 0 or counts[PASS] != 18:
            ok = False
            print(f"  seed {seed}: {counts}")
            break
    elapsed = time.perf_counter() - start
    _report(f"1 (full-suite zero-FAIL, seeds 1..100, {elapsed:.1f}s)", ok)
    assert ok


def test_criterion_2_classical_oracle():
    """Scene (0, 1, -1) on the unit circle: R = K = (1/2, 0), Brocard-angle
    tangent 1/2, both Brocard points on the circle with diameter OK and
    mirror-symmetric across the x axis."""
    scene = classical_brocard_scene(0, 1, -1)
    cfg = compute_configuration(scene)
    overlay = classical_overlay(cfg)
    omega, omega_prime = cfg.p, cfg.q
    checks = []
    checks.append(cfg.r == Point(F(1, 2), 0))
    checks.append(overlay.k == Point(F(1, 2), 0))
    checks.append(cfg.r == overlay.k)
    # oracle: symmedian barycentrics a^2 : b^2 : c^2 = 4 : 2 : 2
    la, lb, lc = dist2(scene.b, scene.c), dist2(scene.c, scene.a), dist2(scene.a, scene.b)
    checks.append((la, lb, lc) == (4, 2, 2))
    oracle_k = Point(
        (la * scene.a.x + lb * scene.b.x + lc * scene.c.x) / (la + lb + lc),
        (la * scene.a.y + lb * scene.b.y + lc * scene.c.y) / (la + lb + lc),
    )
    checks.append(oracle_k == overlay.k)
    # oracle: tan(brocard) = 4 * area / (a^2 + b^2 + c^2); area = 1 here
    checks.append(overlay.tan_brocard == F(1, 2))
    area2 = abs(
        (scene.b.x - scene.a.x) * (scene.c.y - scene.a.y)
        - (scene.b.y - scene.a.y) * (scene.c.x - scene.a.x)
    )
    checks.append(overlay.tan_brocard == 2 * area2 / (la + lb + lc))
    # circle with diameter O K contains both Brocard points
    center = F(1, 2) * (scene.o + overlay.k)
    diameter_circle = Circle.from_center_radius2(center, dist2(center, scene.o))
    checks.append(on_circle(omega, diameter_circle))
    checks.append(on_circle(omega_prime, diameter_circle))
    # mirror symmetry across y = 0
    checks.append(omega.x == omega_prime.x)
    checks.append(omega.y == -omega_prime.y)
    ok = all(checks)
    _report("2 (classical oracle R = K = (1/2, 0), tan = 1/2)", ok)
    assert ok


def _random_triangle(rng: Random):
    while True:
        pts = [
            Point(F(rng.randint(-12, 12), rng.randint(1, 5)), F(rng.randint(-12, 12), rng.randint(1, 5)))
            for _ in range(3)
        ]
        sign = orientation(*pts)
        if sign > 0:
            return pts
        if sign < 0:
            pts[1], pts[2] = pts[2], pts[1]
            return pts


def test_criterion_3_lemma_oracles():
    """Medial-triangle Miquel point equals the circumcenter on 20 random
    rational triangles; the cyclic-quadrangle Miquel point is the inverse of
    the diagonal meet on 20 random cyclic quadrangles.  All exact."""
    rng = Random(333)
    ok = True
    for _ in range(20):
        a, b, c = _random_triangle(rng)
        m = miquel_point(F(1, 2) * (b + c), F(1, 2) * (c + a), F(1, 2) * (a + b), Triangle(a, b, c))
        # independent circumcenter: meet of two perpendicular bisectors
        center = intersect_lines(_bisector(a, b), _bisector(b, c))
        if m != center:
            ok = False
            break

    produced = 0
    while produced < 20 and ok:
        center = Point(F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
        radius = F(rng.randint(1, 8), rng.randint(1, 3))
        ts = []
        while len(ts) < 4:
            t = F(rng.randint(-9, 9), rng.randint(1, 5))
            if t not in ts:
                ts.append(t)
        pts = [circle_point_from_parameter(t, center, radius) for t in ts]
        circle = Circle.from_center_radius2(center, radius * radius)
        try:
            m = miquel_point_quadrangle(*pts)
            r = intersect_lines(line_through(pts[0], pts[2]), line_through(pts[1], pts[3]))
        except GeometryError:
            continue  # parallel structure; draw another quadrangle
        if r == center:
            continue
        produced += 1
        if dist2(center, r) * (m - center) != circle.radius2 * (r - center):
            ok = False
    _report("3 (lemma oracles: medial Miquel x20, inversion identity x20)", ok)
    assert ok


def test_criterion_4_mutation_soundness():
    """20 random single-point perturbations per check, all 17 checks: every
    one must FAIL with a nonzero exact witness."""
    scene = generate_scene(SceneParams(seed=7))
    cfg = compute_configuration(scene)
    rng = Random(441)
    failures_per_check = {cid: 0 for cid in THEOREM_CHECK_IDS}
    ok = True
    for check_id, result in run_mutations(cfg, scene, rounds=20, rng=rng):
        sound = result.status == FAIL and any(
            any(w != 0 for w in a.witnesses) for a in result.failed_assertions
        )
        if not sound:
            ok = False
            print(f"  {check_id}: {result.status} without nonzero witness")
        failures_per_check[check_id] += 1
    if set(failures_per_check) != set(THEOREM_CHECK_IDS) or any(
        n != 20 for n in failures_per_check.values()
    ):
        ok = False
    _report("4 (mutation soundness: 17 checks x 20 perturbations)", ok)
    assert ok


def test_criterion_5_determinism(tmp_path):
    """cmd_generate twice with seed 42 gives byte-identical scene files;
    cmd_verify gives byte-identical reports."""
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok = main(["generate", "--seed", "42", "--count", "5", "--out", str(s1)]) == 0
    ok = ok and main(["generate", "--seed", "42", "--count", "5", "--out", str(s2)]) == 0
    ok = ok and s1.read_bytes() == s2.read_bytes()
    ok = ok and main(["verify", "--in", str(s1), "--report", str(r1)]) == 0
    ok = ok and main(["verify", "--in", str(s1), "--report", str(r2)]) == 0
    ok = ok and r1.read_bytes() == r2.read_bytes()
    _report("5 (byte determinism of generate and verify)", ok)
    assert ok


def test_criterion_6_kernel_property_suites():
    """1000 random cases per kernel invariant: pole/polar round trip,
    isogonal involution, second-intersection involution, canonicalization
    idempotence."""
    rng = Random(6006)

    def rand_rat(span=20, den=9):
        return F(rng.randint(-span, span), rng.randint(1, den))

    def rand_point():
        return Point(rand_rat(), rand_rat())

    ok = True

    # pole(polar(p)) == p
    done = 0
    while done < 1000:
        center, r2 = rand_point(), abs(rand_rat(9, 4)) + 1
        circle = Circle.from_center_radius2(center, r2)
        p = rand_point()
        if p == center:
            continue
        line = Line(*_polar(p, circle))
        if line.eval(center) == 0:
            continue
        if pole_of_line(line, circle) != p:
            ok = False
            break
        done += 1

    # isogonal involution
    done = 0
    while done < 1000 and ok:
        a, b, c = _random_triangle(rng)
        p = rand_point()
        try:
            q = isogonal_conjugate(p, a, b, c)
            back = isogonal_conjugate(q, a, b, c)
        except GeometryError:
            continue
        if back != p:
            ok = False
        done += 1

    # second-intersection involution
    done = 0
    while done < 1000 and ok:
        center1, radius1 = rand_point(), abs(rand_rat(6, 3)) + 1
        x = circle_point_from_parameter(rand_rat(), center1, radius1)
        center2 = rand_point()
        if center2 == x:
            continue
        c1 = Circle.from_center_radius2(center1, radius1 * radius1)
        c2 = Circle.from_center_radius2(center2, dist2(center2, x))
        if c1 == c2:
            continue
        y, tangent1 = second_intersection_circles(c1, c2, x)
        back, tangent2 = second_intersection_circles(c1, c2, y)
        if back != x or tangent1 != tangent2:
            ok = False
        done += 1

    # canonicalization: idempotent and equality-complete on scaled triples
    def angle_pair(cross, dot):
        return _canonical_ints("angle class", "(cross, dot) is zero", cross, dot)

    done = 0
    while done < 1000 and ok:
        a, b, c = rand_rat(), rand_rat(), rand_rat()
        if a == 0 and b == 0:
            continue
        scale = rand_rat()
        if scale == 0:
            continue
        l = Line(a, b, c)
        if Line(l.a, l.b, l.c) != l or Line(scale * a, scale * b, scale * c) != l:
            ok = False
        pair = angle_pair(a, b)  # the class of an angle between lines
        if angle_pair(*pair) != pair or angle_pair(scale * a, scale * b) != pair:
            ok = False
        done += 1

    _report("6 (kernel invariants, 1000 random cases each)", ok)
    assert ok
