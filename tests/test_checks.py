"""Theorem suite behavior: pass on valid scenes, fail with nonzero
witnesses under perturbation, degenerate on collapse, deterministic."""

import dataclasses
import inspect
from fractions import Fraction as F
from random import Random

import pytest

from brocard import checks as ck
from brocard.checks import (
    DEGENERATE,
    FAIL,
    PASS,
    SPIRAL_SCALE,
    THEOREM_CHECK_IDS,
    build_cyclic_quadrangle,
    build_spiral_points,
    check_classical_overlay,
    check_kwon_remark,
    check_lemma_cyclic,
    check_lemma_simson_angle,
    check_lemma_spiral,
    run_suite,
)
from brocard.geom import (
    Circle,
    ComplexScalar,
    Point,
    dist2,
    inverse_similarity_map,
    line_through,
    simson_line,
    triangle_sidelines,
)
from brocard.pipeline import compute_configuration, miquel_point
from brocard.scene import (
    SceneParams,
    classical_brocard_scene,
    generate_scene,
    kwon_scene,
)

from test_pipeline import COLLAPSE_SCENE


@pytest.fixture(scope="module")
def seed7_scene():
    return generate_scene(SceneParams(seed=7))


@pytest.fixture(scope="module")
def seed7_cfg(seed7_scene):
    return compute_configuration(seed7_scene)


#: Which configuration points each check consumes (mutation targets).
CONFIG_CHECK_TARGETS = {
    "check_isogonal_conjugates": ["p", "q"],
    "check_rotation_angles": ["p", "q"],
    "check_pascal_and_r": ["a0", "b0", "c0", "r", "a_prime", "b_prime", "c_prime"],
    "check_brocard_circle": ["p", "q", "o", "r", "a_prime", "b_prime", "c_prime", "t_a", "t_b", "t_c"],
    "check_equidistant": ["p", "q", "r", "o"],
    "check_first_triangle_similarity": ["t_a", "t_b", "t_c"],
    "check_steiner": ["steiner", "t_a", "t_b", "t_c"],
    "check_tarry": ["tarry", "steiner", "t_a", "t_b", "t_c"],
    "check_polygon_similarity": ["t_a", "t_b", "t_c", "steiner", "tarry", "r", "o"],
    "check_perspective": ["perspector", "t_a", "t_b", "t_c", "a_prime", "b_prime", "c_prime", "r_star"],
    "check_simson_parallel": ["steiner", "r"],
    "check_simson_perpendicular": ["tarry", "r"],
    "check_circumcenter_perspective": ["x", "y", "z", "o_a", "o_b", "o_c", "steiner"],
}


def nonzero_delta(rng: Random) -> Point:
    while True:
        d = Point(F(rng.randint(-5, 5), rng.randint(1, 7)), F(rng.randint(-5, 5), rng.randint(1, 7)))
        if d != Point(0, 0):
            return d


def run_mutations(cfg, scene, rounds: int, rng: Random):
    """Yield (check_id, CheckResult) for single-point perturbations of every
    theorem check."""
    for check_id, fields in CONFIG_CHECK_TARGETS.items():
        fn = getattr(ck, check_id)
        for i in range(rounds):
            fld = fields[i % len(fields)]
            mutated = dataclasses.replace(cfg, **{fld: getattr(cfg, fld) + nonzero_delta(rng)})
            yield check_id, fn(mutated)

    base_points = build_spiral_points(scene.a, scene.b, scene.c, cfg.p, SPIRAL_SCALE)
    for i in range(rounds):
        mutated = list(base_points)
        mutated[i % 3] = mutated[i % 3] + nonzero_delta(rng)
        yield "check_lemma_spiral", check_lemma_spiral(
            scene.a, scene.b, scene.c, cfg.p, SPIRAL_SCALE, points=tuple(mutated)
        )

    quad = build_cyclic_quadrangle(scene.gamma)
    for i in range(rounds):
        mutated = list(quad)
        mutated[i % 4] = mutated[i % 4] + nonzero_delta(rng)
        yield "check_lemma_cyclic", check_lemma_cyclic(scene.gamma, *mutated)

    for i in range(rounds):
        m, n = cfg.steiner, cfg.tarry
        if i % 2 == 0:
            m = m + nonzero_delta(rng)
        else:
            n = n + nonzero_delta(rng)
        yield "check_lemma_simson_angle", check_lemma_simson_angle(scene.a, scene.b, scene.c, m, n)

    kw = kwon_scene(987654)
    kwon_fields = ["z", "t", "d", "x", "y", "e", "f"]
    for i in range(rounds):
        fld = kwon_fields[i % len(kwon_fields)]
        mutated = dataclasses.replace(kw, **{fld: getattr(kw, fld) + nonzero_delta(rng)})
        yield "check_kwon_remark", check_kwon_remark(mutated)


class TestSuitePass:
    def test_seed7_all_pass(self, seed7_scene):
        report = run_suite(seed7_scene)
        assert [r.check_id for r in report.results] == ["scene_validation", *THEOREM_CHECK_IDS]
        assert report.all_pass
        assert report.counts[DEGENERATE] == 0

    def test_classical_scene_with_overlay(self):
        report = run_suite(classical_brocard_scene(0, 1, 3))
        assert report.results[-1].check_id == "check_classical_overlay"
        assert report.all_pass

    def test_more_classical_scenes(self):
        for params in ((F(1, 2), F(-2), F(5)), (F(0), F(3), F(-1, 3)), (F(2), F(7), F(-4))):
            report = run_suite(classical_brocard_scene(*params))
            assert not report.has_fail, params

    def test_literal_sign_reading_reported(self, seed7_scene):
        report = run_suite(seed7_scene)
        iso = next(r for r in report.results if r.check_id == "check_isogonal_conjugates")
        assert any("literal" in n for n in iso.notes)

    def test_deterministic_results(self, seed7_scene):
        r1 = run_suite(seed7_scene)
        r2 = run_suite(seed7_scene)
        assert r1.scene_digest == r2.scene_digest
        for a, b in zip(r1.results, r2.results):
            assert a.check_id == b.check_id and a.status == b.status
            assert a.assertions == b.assertions and a.notes == b.notes

    def test_check_filter(self, seed7_scene):
        report = run_suite(seed7_scene, ["check_steiner", "check_tarry"])
        ids = [r.check_id for r in report.results]
        assert ids == ["scene_validation", "check_steiner", "check_tarry"]

    def test_unknown_check_rejected(self, seed7_scene):
        with pytest.raises(ValueError):
            run_suite(seed7_scene, ["check_nonsense"])


class TestCheckProtocol:
    """Each check is declared once; the suite reaches it by module attribute."""

    def test_theorem_check_ids_in_report_order(self):
        assert THEOREM_CHECK_IDS == (
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

    def test_run_suite_calls_each_module_attribute_once(self, seed7_scene, monkeypatch):
        calls = []
        for cid in THEOREM_CHECK_IDS:

            def counting(*args, _cid=cid, _check=getattr(ck, cid), **kwargs):
                calls.append(_cid)
                return _check(*args, **kwargs)

            monkeypatch.setattr(ck, cid, counting)
        ck._cyclic_lemma.cache_clear()  # a memoised cyclic lemma would skip its call
        report = run_suite(seed7_scene)
        ck._cyclic_lemma.cache_clear()
        assert calls == list(THEOREM_CHECK_IDS)
        assert report.all_pass

    def test_declared_checks_keep_name_docstring_and_signature(self):
        for cid in CONFIG_CHECK_TARGETS:
            check = getattr(ck, cid)
            assert check.__name__ == check.__qualname__ == cid
            assert check.__doc__ and check.__doc__.strip()
            assert list(inspect.signature(check).parameters) == ["cfg"]
        assert ck.check_steiner.__doc__.startswith("The parallels from the vertices")

    def test_needs_rule(self, seed7_cfg):
        collapsed = dataclasses.replace(seed7_cfg, collapsed=True)
        for cid in CONFIG_CHECK_TARGETS:
            result = getattr(ck, cid)(collapsed)
            assert (result.check_id, result.status, result.assertions) == (cid, DEGENERATE, [])
            assert result.notes == ["configuration collapsed (P = Q)"]
        result = ck.check_circumcenter_perspective(dataclasses.replace(seed7_cfg, y=None, o_c=None))
        assert (result.status, result.notes) == (DEGENERATE, ["objects undefined: y, o_c"])


class TestDegenerate:
    def test_collapse_reports_degenerate_never_fail(self):
        report = run_suite(COLLAPSE_SCENE)
        assert not report.has_fail
        statuses = {r.check_id: r.status for r in report.results}
        assert statuses["check_isogonal_conjugates"] == DEGENERATE
        assert statuses["check_brocard_circle"] == DEGENERATE

    def test_isoceles_classical_partial_degeneracy(self):
        report = run_suite(classical_brocard_scene(0, 1, -1))
        assert not report.has_fail
        statuses = {r.check_id: r.status for r in report.results}
        # OR runs through the apex: the circumcenter-perspective objects
        # genuinely do not exist for this scene.
        assert statuses["check_circumcenter_perspective"] == DEGENERATE
        assert statuses["check_brocard_circle"] == PASS
        assert statuses["check_classical_overlay"] == PASS

    def test_corrupted_scene_fails_validation(self, seed7_scene):
        bad = dataclasses.replace(seed7_scene, a1=seed7_scene.a1 + Point(1, 0))
        report = run_suite(bad)
        assert report.results[0].check_id == "scene_validation"
        assert report.results[0].status == FAIL
        assert len(report.results) == 1


class TestMutations:
    def test_every_check_fails_under_perturbation(self, seed7_scene, seed7_cfg):
        rng = Random(5150)
        seen = set()
        for check_id, result in run_mutations(seed7_cfg, seed7_scene, rounds=3, rng=rng):
            seen.add(check_id)
            assert result.status == FAIL, f"{check_id} gave {result.status}: {result.notes}"
            assert any(
                any(w != 0 for w in a.witnesses) for a in result.failed_assertions
            ), f"{check_id} failed without a nonzero witness"
        assert seen == set(THEOREM_CHECK_IDS)


class TestLemmaChecks:
    def test_spiral_scale_zero_is_pedal_triangle(self, seed7_scene, seed7_cfg):
        s = seed7_scene
        result = check_lemma_spiral(s.a, s.b, s.c, seed7_cfg.p, F(0))
        assert result.status == PASS

    def test_spiral_random_rational(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        result = check_lemma_spiral(a, b, c, Point(F(1, 3), F(1, 4)), F(2, 5))
        assert result.status == PASS

    def test_spiral_center_on_sideline_degenerate(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        result = check_lemma_spiral(a, b, c, Point(2, 0), F(2, 5))
        assert result.status == DEGENERATE

    def test_cyclic_reference_parameters(self):
        quad = build_cyclic_quadrangle(Circle(0, 0, -1))
        result = check_lemma_cyclic(Circle(0, 0, -1), *quad)
        assert result.status == PASS

    def test_cyclic_parallel_sides_degenerate(self):
        square = (Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1))
        result = check_lemma_cyclic(Circle(0, 0, -1), *square)
        assert result.status == DEGENERATE

    def test_cyclic_symmetric_quadrangle_point_on_axis(self):
        # quadrangle invariant under reflection across the x axis (A and C,
        # B and D are mirror pairs): the Miquel point lands on the axis
        from brocard.pipeline import miquel_point_quadrangle
        from brocard.scene import circle_point_from_parameter

        pts = [circle_point_from_parameter(t, Point(0, 0), 1) for t in (F(2), F(5), F(-2), F(-5))]
        m = miquel_point_quadrangle(*pts)
        assert m.y == 0
        # the mirror chords are the diagonals here (parallel verticals), so
        # the check's inversion clause is unavailable: DEGENERATE, never FAIL
        assert check_lemma_cyclic(Circle(0, 0, -1), *pts).status == DEGENERATE

    def test_simson_angle_same_point(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        m = Point(4, 4)
        result = check_lemma_simson_angle(a, b, c, m, m)
        assert result.status == PASS

    def test_simson_angle_off_circle_fails(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        result = check_lemma_simson_angle(a, b, c, Point(4, 4), Point(1, 1))
        assert result.status == FAIL

    def test_kwon_remark_passes(self):
        result = check_kwon_remark(kwon_scene(1))
        assert result.status == PASS

    def test_kwon_reflection_perturbed_fails(self):
        kw = kwon_scene(1)
        bad = dataclasses.replace(kw, z=kw.z + Point(0, 1))
        result = check_kwon_remark(bad)
        assert result.status == FAIL


class TestClassicalOverlayCheck:
    def test_non_classical_rejected(self, seed7_cfg):
        result = check_classical_overlay(seed7_cfg)
        assert result.status == DEGENERATE

    def test_overlay_assertions(self):
        cfg = compute_configuration(classical_brocard_scene(0, 1, 3))
        result = check_classical_overlay(cfg)
        assert result.status == PASS
        labels = [a.label for a in result.assertions]
        assert "R == K" in labels
        assert any("barycentric" in l for l in labels)


class TestWitnessFidelity:
    def test_fail_witness_is_exact_residual(self, seed7_cfg):
        shifted = dataclasses.replace(seed7_cfg, r=seed7_cfg.r + Point(1, 0))
        result = ck.check_equidistant(shifted)
        assert result.status == FAIL
        from brocard.geom import dist2

        expected = dist2(shifted.r, shifted.p) - dist2(shifted.r, shifted.q)
        assert result.assertions[0].witnesses == (expected,)
        assert expected != 0


def _result_objects(report):
    """Every CheckResult, Assertion and list object a report holds."""
    for result in report.results:
        yield from (result, result.assertions, result.notes)
        yield from result.assertions


class TestComputedOnce:
    """Derived objects are cached on the instance they derive from, so a
    ``dataclasses.replace`` copy derives them afresh from its own fields."""

    def test_scene_sidelines_cached_and_rederived(self, seed7_scene):
        s = seed7_scene
        assert s.sidelines() is s.sidelines()
        assert s.sidelines() == triangle_sidelines(s.a, s.b, s.c)
        moved = dataclasses.replace(s, a=s.a + Point(1, 0))
        assert moved.sidelines() == triangle_sidelines(moved.a, moved.b, moved.c)
        assert moved.sidelines()[0] == s.sidelines()[0]
        assert moved.sidelines()[1:] != s.sidelines()[1:]

    def test_configuration_objects_rederived(self, seed7_scene, seed7_cfg):
        cfg, s = seed7_cfg, seed7_scene
        assert cfg.or_line is cfg.or_line
        assert cfg.similarity is cfg.similarity
        assert cfg.simson_steiner == simson_line(cfg.steiner, s.a, s.b, s.c)
        assert cfg.simson_tarry == simson_line(cfg.tarry, s.a, s.b, s.c)

        shifted = dataclasses.replace(cfg, r=cfg.r + Point(1, 0))
        assert shifted.or_line == line_through(cfg.o, shifted.r) != cfg.or_line
        moved = dataclasses.replace(cfg, t_a=cfg.t_a + Point(0, 1))
        assert moved.similarity == inverse_similarity_map(s.a, moved.t_a, s.b, moved.t_b)
        assert moved.similarity != cfg.similarity
        swapped = dataclasses.replace(cfg, steiner=cfg.tarry, tarry=cfg.steiner)
        assert swapped.simson_steiner == cfg.simson_tarry
        assert swapped.simson_tarry == cfg.simson_steiner

    def test_replaced_configuration_fails_on_its_own_objects(self, seed7_cfg):
        cfg = seed7_cfg
        # Warm every cache on the original first: a copy must not reuse them.
        cfg.or_line, cfg.similarity, cfg.simson_steiner, cfg.simson_tarry
        shifted = dataclasses.replace(cfg, r=cfg.r + Point(1, 0))
        for check in (ck.check_simson_parallel, ck.check_simson_perpendicular, ck.check_polygon_similarity):
            assert check(cfg).status == PASS
            assert check(shifted).status == FAIL
        moved = dataclasses.replace(cfg, t_b=cfg.t_b + Point(1, 0))
        assert ck.check_first_triangle_similarity(moved).status == FAIL

    def test_rotation_check_reads_the_stored_ratios(self, seed7_cfg):
        cfg = seed7_cfg
        for field_, label in (("r_p", "r_P agrees on BC and CA"), ("r_q", "r_Q agrees on BC and CA")):
            bad = dataclasses.replace(cfg, **{field_: getattr(cfg, field_) + ComplexScalar(0, 1)})
            result = ck.check_rotation_angles(bad)
            assert result.status == FAIL
            failed = {a.label: a.witnesses for a in result.failed_assertions}
            assert failed[label] == (0, 1)
            assert "Im(r_P * r_Q) == 0" in failed

    def test_kwon_miquel_points_rederived(self):
        kw = kwon_scene(1)
        a, b, c = kw.a, kw.b, kw.c
        assert kw.miquel_points == (
            miquel_point(kw.d, kw.e, kw.f, a, b, c),
            miquel_point(kw.x, kw.y, kw.z, a, b, c),
        )
        # Slide Z along AB: the triangle XYZ stays inscribed, so its Miquel
        # point exists, but the bisectors no longer concur at T.
        bad = dataclasses.replace(kw, z=kw.z + F(1, 3) * (b - a))
        o1, o2 = kw.miquel_points
        new_o2 = miquel_point(bad.x, bad.y, bad.z, a, b, c)
        assert bad.miquel_points == (o1, new_o2) and new_o2 != o2
        result = check_kwon_remark(bad)
        assert result.status == FAIL
        assert result.assertions[-1].witnesses == (dist2(kw.t, o1) - dist2(kw.t, new_o2),)

    def test_cyclic_lemma_per_circle(self, seed7_scene):
        def cyclic(report):
            return next(r for r in report.results if r.check_id == "check_lemma_cyclic")

        def fields(result):
            return result.check_id, result.status, result.assertions, result.notes

        ck._cyclic_lemma.cache_clear()
        fresh = run_suite(COLLAPSE_SCENE)
        after_unit_circle = [run_suite(seed7_scene), run_suite(COLLAPSE_SCENE)][1]
        assert [fields(r) for r in after_unit_circle.results] == [fields(r) for r in fresh.results]
        quad = build_cyclic_quadrangle(COLLAPSE_SCENE.gamma)
        assert fields(cyclic(fresh)) == fields(check_lemma_cyclic(COLLAPSE_SCENE.gamma, *quad))

    def test_cyclic_lemma_computed_once_per_circle(self, seed7_scene, monkeypatch):
        circles = []

        def counting(circle, *quad):
            circles.append(circle)
            return check_lemma_cyclic(circle, *quad)

        monkeypatch.setattr(ck, "check_lemma_cyclic", counting)
        ck._cyclic_lemma.cache_clear()
        other = generate_scene(SceneParams(seed=8))
        for scene in (seed7_scene, other, seed7_scene, COLLAPSE_SCENE, COLLAPSE_SCENE, other):
            run_suite(scene)
        assert circles == [seed7_scene.gamma, COLLAPSE_SCENE.gamma, other.gamma]
        ck._cyclic_lemma.cache_clear()

    def test_reports_share_no_result_object(self, seed7_scene):
        first, second = run_suite(seed7_scene), run_suite(seed7_scene)
        assert not {id(o) for o in _result_objects(first)} & {id(o) for o in _result_objects(second)}
        cyclic = next(r for r in first.results if r.check_id == "check_lemma_cyclic")
        cyclic.assertions.clear()
        cyclic.notes.append("edited")
        third = run_suite(seed7_scene)
        assert [r.assertions for r in third.results] == [r.assertions for r in second.results]
        assert [r.notes for r in third.results] == [r.notes for r in second.results]
