"""Theorem suite behavior: pass on valid scenes, fail with nonzero
witnesses under perturbation, degenerate on collapse, deterministic."""

import collections
import dataclasses
import inspect
from fractions import Fraction as F
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, reject, settings

from brocard import checks as ck
from brocard import geom, pipeline
from brocard import scene as scene_module
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
from brocard.cli import main
from brocard.geom import (
    Circle,
    ComplexScalar,
    Line,
    Point,
    Triangle,
    dist2,
    inverse_similarity_map,
    line_through,
    simson_line,
)
from brocard.pipeline import (
    InternalInconsistencyError,
    compute_configuration,
    miquel_point,
    miquel_point_quadrangle,
)
from brocard.scene import (
    GenerationExhausted,
    SceneParams,
    classical_brocard_scene,
    generate_scene,
    kwon_scene,
)
from brocard.sceneio import write_scene_file

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

    # Even rounds move one spiral point off its sideline; odd rounds move
    # one vertex of the triangle and keep the original spiral points.
    base_points = build_spiral_points(scene.triangle, cfg.p, SPIRAL_SCALE)
    for i in range(rounds):
        if i % 2 == 0:
            mutated = list(base_points)
            mutated[i % 3] = mutated[i % 3] + nonzero_delta(rng)
            yield "check_lemma_spiral", check_lemma_spiral(
                scene.triangle, cfg.p, SPIRAL_SCALE, points=tuple(mutated)
            )
        else:
            vertices = list(scene.vertices)
            vertices[i % 3] = vertices[i % 3] + nonzero_delta(rng)
            yield "check_lemma_spiral", check_lemma_spiral(
                Triangle(*vertices), cfg.p, SPIRAL_SCALE, points=base_points
            )

    quad = build_cyclic_quadrangle(scene.gamma)
    for i in range(rounds):
        mutated = list(quad)
        mutated[i % 4] = mutated[i % 4] + nonzero_delta(rng)
        yield "check_lemma_cyclic", check_lemma_cyclic(scene.gamma, *mutated)

    # Each round moves the Steiner or the Tarry point.  Rounds 2, 3, 6, 7,
    # ... ask the scene's own triangle, as the suite does, whose memo may
    # hold the Simson lines of the unmoved points; the others a fresh one.
    for i in range(rounds):
        fld = ("steiner", "tarry")[i % 2]
        mutated = dataclasses.replace(cfg, **{fld: getattr(cfg, fld) + nonzero_delta(rng)})
        tri = scene.triangle if (i // 2) % 2 else Triangle(*scene.vertices)
        yield "check_lemma_simson_angle", check_lemma_simson_angle(tri, mutated.steiner, mutated.tarry)

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
            assert report.counts[FAIL] == 0, params

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
        # A memoised cyclic lemma or Kwon remark would skip its call.
        ck._cyclic_lemma.cache_clear()
        ck._kwon_remark.cache_clear()
        report = run_suite(seed7_scene)
        ck._cyclic_lemma.cache_clear()
        ck._kwon_remark.cache_clear()
        assert calls == list(THEOREM_CHECK_IDS)
        assert report.all_pass

    def test_declared_checks_keep_name_docstring_and_signature(self):
        for cid in (*CONFIG_CHECK_TARGETS, "check_classical_overlay"):
            check = getattr(ck, cid)
            assert check.__name__ == check.__qualname__ == cid
            assert check.__doc__ and check.__doc__.strip()
            assert list(inspect.signature(check).parameters) == ["cfg"]
        assert ck.check_steiner.__doc__.startswith("The parallels from the vertices")
        assert check_classical_overlay.__doc__.startswith("Classical specialization: the Miquel pair")

    def test_needs_rule(self, seed7_cfg):
        collapsed = dataclasses.replace(seed7_cfg, collapsed=True)
        for cid in CONFIG_CHECK_TARGETS:
            result = getattr(ck, cid)(collapsed)
            assert (result.check_id, result.status, result.assertions) == (cid, DEGENERATE, ())
            assert result.notes == ("configuration collapsed (P = Q)",)
        result = ck.check_circumcenter_perspective(dataclasses.replace(seed7_cfg, y=None, o_c=None))
        assert (result.status, result.notes) == (DEGENERATE, ("objects undefined: y, o_c",))


class TestDegenerate:
    def test_collapse_reports_degenerate_never_fail(self):
        report = run_suite(COLLAPSE_SCENE)
        assert report.counts[FAIL] == 0
        statuses = {r.check_id: r.status for r in report.results}
        assert statuses["check_isogonal_conjugates"] == DEGENERATE
        assert statuses["check_brocard_circle"] == DEGENERATE

    def test_isoceles_classical_partial_degeneracy(self):
        report = run_suite(classical_brocard_scene(0, 1, -1))
        assert report.counts[FAIL] == 0
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


class TestConstructionBugs:
    def test_wrong_pole_fails_with_witnesses(self, seed7_scene, monkeypatch):
        """A pipeline that builds R wrongly yields FAILs with witnesses from
        the checks, which build their own pole, and no exception."""
        pole = pipeline.pole_of_line
        monkeypatch.setattr(pipeline, "pole_of_line", lambda *args: pole(*args) + Point(1, 0))
        report = run_suite(seed7_scene)
        failed = [r for r in report.results if r.status == FAIL]
        assert [r.check_id for r in failed] == [
            "check_pascal_and_r",
            "check_brocard_circle",
            "check_equidistant",
            "check_polygon_similarity",
            "check_perspective",
            "check_simson_parallel",
            "check_simson_perpendicular",
            "check_circumcenter_perspective",
        ]
        for result in failed:
            assert any(any(w != 0 for w in a.witnesses) for a in result.failed_assertions), result.check_id
        assert report.counts == {PASS: 10, FAIL: 8, DEGENERATE: 0}

    def test_broken_miquel_is_internal_error(self, seed7_scene, monkeypatch):
        """Miquel's theorem is no check's assertion, so a second circle meet
        that misses the third Miquel circle is an internal error: it escapes
        ``run_suite`` and ``generate_scene`` instead of reading as a
        degenerate draw."""
        second = pipeline._second_common

        def shifted(*args):
            pt, tangent = second(*args)
            return pt + Point(1, 0), tangent

        monkeypatch.setattr(pipeline, "_second_common", shifted)
        with pytest.raises(InternalInconsistencyError, match="Miquel point misses the third circle"):
            run_suite(seed7_scene)
        with pytest.raises(InternalInconsistencyError):
            generate_scene(SceneParams(seed=7))
        quad = build_cyclic_quadrangle(Circle(0, 0, -1))
        with pytest.raises(InternalInconsistencyError, match="Miquel point misses the third circle"):
            miquel_point_quadrangle(*quad)

    def test_wrong_quadrangle_triangle_is_internal_error(self, monkeypatch):
        """The cyclic lemma's Miquel point taken with B and C exchanged puts
        a point off its sideline, which four points of a circle cannot do,
        so it escapes ``check_lemma_cyclic`` instead of reading DEGENERATE."""
        real = ck.miquel_point
        monkeypatch.setattr(ck, "miquel_point", lambda d, e, f, tri: real(d, f, e, tri))
        circle = Circle(0, 0, -1)
        with pytest.raises(InternalInconsistencyError, match="^quadrangle Miquel point: "):
            check_lemma_cyclic(circle, *build_cyclic_quadrangle(circle))

    @staticmethod
    def _fails_with_witnesses(scenes, tmp_path):
        """Each scene FAILs ``check_steiner`` among others, every FAIL with
        a nonzero witness and no result DEGENERATE, and ``brocard verify``
        on them exits 1."""
        for scene in scenes:
            report = run_suite(scene)
            failed = [r for r in report.results if r.status == FAIL]
            assert "check_steiner" in [r.check_id for r in failed]
            for result in failed:
                assert any(any(w != 0 for w in a.witnesses) for a in result.failed_assertions), result.check_id
            assert report.counts[DEGENERATE] == 0
        path = tmp_path / "scenes.json"
        write_scene_file(str(path), scenes)
        assert main(["verify", "--in", str(path)]) == 1

    def test_swapped_t_a_cevians_fail_with_witnesses(self, seed7_scene, monkeypatch, tmp_path):
        """T_A taken as the meet of P a2 and Q a1 puts S_t off the
        circumcircle.  The build does not test that, so ``check_steiner``
        and the checks downstream of T_A FAIL, instead of the whole scene
        reading as DEGENERATE at T_a."""
        scenes = [seed7_scene, classical_brocard_scene(0, 1, 3)]
        swapped = {}
        for scene in scenes:
            cfg = compute_configuration(scene)
            swapped[(cfg.p, scene.a1)] = scene.a2
            swapped[(cfg.q, scene.a2)] = scene.a1
        join = pipeline._join
        monkeypatch.setattr(pipeline, "_join", lambda u, v: join(u, swapped.get((u, v), v)))
        self._fails_with_witnesses(scenes, tmp_path)

    def test_swapped_miquel_pair_fails_with_witnesses(self, seed7_scene, monkeypatch, tmp_path):
        """P built from Q's incidence points and Q from P's: every T-vertex
        joins the wrong cevians, and the checks FAIL with witnesses."""
        scenes = [seed7_scene, classical_brocard_scene(0, 1, 3)]
        other = {}
        for s in scenes:
            other[(s.a1, s.b1, s.c1)] = (s.a2, s.b2, s.c2)
            other[(s.a2, s.b2, s.c2)] = (s.a1, s.b1, s.c1)
        miquel = pipeline._miquel
        monkeypatch.setattr(pipeline, "_miquel", lambda d, e, f, tri: miquel(*other[(d, e, f)], tri))
        self._fails_with_witnesses(scenes, tmp_path)

    def test_off_normal_tangent_circle_is_internal_error(self, monkeypatch):
        """Each tangent circle centered on the normal at its third point
        instead of at the tangency point.  On a classical scene the T_A
        cevians meet at twice the Brocard angle, so T_A is a theorem stage
        and their parallel lines escape ``run_suite`` as an internal error
        instead of reading as a degenerate input."""

        def off_normal(t, line, p):
            center = geom._reduced(Point, *geom._meet(geom._perpendicular(p, line), geom._bisector(t, p)))
            return Circle.from_center_radius2(center, dist2(center, t))

        monkeypatch.setattr(pipeline, "circle_through_tangent", off_normal)
        for ts in ((0, 1, -1), (0, 1, 3), (F(1, 2), -3, F(7, 5))):
            with pytest.raises(InternalInconsistencyError, match="^T_A: lines are parallel"):
                run_suite(classical_brocard_scene(*ts))

    def test_antipodal_tangent_is_internal_error_or_fail(self, monkeypatch):
        """The classical overlay built from the tangent at each vertex's
        antipode.  On ``0,1,-1`` its Lemoine axis passes through the center,
        which no valid classical scene allows, so K is an internal error
        that escapes ``run_suite`` instead of reading as DEGENERATE.  On the
        other two pinned sets the classical check FAILs with witnesses."""
        tangent = pipeline.tangent_line
        monkeypatch.setattr(pipeline, "tangent_line", lambda gamma, v: tangent(gamma, 2 * gamma.center - v))
        with pytest.raises(InternalInconsistencyError, match="^K: "):
            run_suite(classical_brocard_scene(0, 1, -1))
        for ts in ((0, 1, 3), (F(1, 2), -3, F(7, 5))):
            result = check_classical_overlay(compute_configuration(classical_brocard_scene(*ts)))
            assert result.status == FAIL, ts
            assert any(any(w != 0 for w in a.witnesses) for a in result.failed_assertions), ts


class TestSmallCapGeneration:
    @pytest.mark.parametrize(
        "caps, seed",
        [(2, 52), (2, 66), (2, 127), (3, 30), (2, 46), (2, 65), (2, 78), (3, 60), (3, 70), (10, 1846)],
    )
    def test_accepted_scene_never_degenerate(self, caps, seed):
        """Each of the first four seeds draws a scene with a T-vertex on its
        primed vertex before the one it accepts; rejecting that draw keeps
        every check of the accepted scene defined.  In each of the last six
        scenes a spiral point of P lands on a vertex, where the spiral
        lemma's circle is the tangent-circle limit."""
        scene = generate_scene(SceneParams(seed=seed, numerator_cap=caps, denominator_cap=caps))
        report = run_suite(scene)
        assert (report.counts[FAIL], report.counts[DEGENERATE]) == (0, 0)

    @settings(max_examples=100)
    @given(st.integers(2, 10), st.booleans(), st.integers(0, 10**6))
    def test_generated_scene_never_degenerate(self, caps, strict, seed):
        """The generator's promise at small caps, with and without strict
        segments: every check of an accepted scene is defined and passes."""
        params = SceneParams(seed=seed, numerator_cap=caps, denominator_cap=caps, strict_segments=strict)
        try:
            scene = generate_scene(params)
        except GenerationExhausted:
            reject()
        report = run_suite(scene)
        assert (report.counts[FAIL], report.counts[DEGENERATE]) == (0, 0)


class TestLemmaChecks:
    def test_spiral_scale_zero_is_pedal_triangle(self, seed7_scene, seed7_cfg):
        s = seed7_scene
        result = check_lemma_spiral(s.triangle, seed7_cfg.p, F(0))
        assert result.status == PASS

    def test_spiral_random_rational(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        result = check_lemma_spiral(Triangle(a, b, c), Point(F(1, 3), F(1, 4)), F(2, 5))
        assert result.status == PASS

    def test_spiral_point_on_vertex_takes_tangent_limit(self):
        """At caps 2 seed 46 a spiral point of P lands on a vertex; M lies
        on the tangent circle that is the limit of that vertex's circle."""
        s = generate_scene(SceneParams(seed=46, numerator_cap=2, denominator_cap=2))
        p = compute_configuration(s).p
        assert set(build_spiral_points(s.triangle, p, SPIRAL_SCALE)) & set(s.vertices)
        result = check_lemma_spiral(s.triangle, p, SPIRAL_SCALE)
        assert result.status == PASS
        assert len(result.assertions) == 8

    def test_spiral_center_on_sideline_degenerate(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
        result = check_lemma_spiral(Triangle(a, b, c), Point(2, 0), F(2, 5))
        assert result.status == DEGENERATE

    def test_cyclic_reference_parameters(self):
        quad = build_cyclic_quadrangle(Circle(0, 0, -1))
        result = check_lemma_cyclic(Circle(0, 0, -1), *quad)
        assert result.status == PASS

    def test_cyclic_quadrangle_needs_a_rational_radius(self):
        """The quadrangle lies on the circle at the exact rational root of
        its squared radius.  A zero radius cannot be parametrized, which is
        the ``ValueError`` of ``circle_point_from_parameter``, and a squared
        radius that is not a rational square, or is negative, raises the
        named ``Degenerate``, never ``isqrt``'s ``ValueError``."""
        center = Point(F(1, 3), -2)
        circle = Circle.from_center_radius2(center, F(4, 9))
        quad = build_cyclic_quadrangle(circle)
        assert quad[0] == center + Point(F(2, 3), 0)  # t = 0: the radius 2/3 along x
        assert len(set(quad)) == 4 and all(geom.on_circle(p, circle) for p in quad)
        with pytest.raises(ValueError, match="^radius must be positive$"):
            build_cyclic_quadrangle(Circle(0, 0, 0))
        for coefficients in ((0, 0, -2), (0, 0, F(-4, 3)), (0, 0, 1)):
            with pytest.raises(geom.Degenerate) as err:
                build_cyclic_quadrangle(Circle(*coefficients))
            assert err.value.name == "cyclic quadrangle"

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
        result = check_lemma_simson_angle(Triangle(a, b, c), m, m)
        assert result.status == PASS

    def test_simson_angle_off_circle_fails(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        result = check_lemma_simson_angle(Triangle(a, b, c), Point(4, 4), Point(1, 1))
        assert result.status == FAIL

    def test_kwon_remark_passes(self):
        result = check_kwon_remark(kwon_scene(1))
        assert result.status == PASS

    def test_kwon_remark_passes_on_many_instances(self):
        """The suite checks the remark on one fixed instance per process;
        this sweep is its coverage of the kernel on Kwon draws."""
        failing = [s for s in range(501) if check_kwon_remark(kwon_scene(s)).status != PASS]
        assert failing == []

    def test_suite_shares_one_kwon_remark(self, seed7_scene):
        """Every scene, on any circle, reports the one memoised result of
        the remark on ``kwon_scene(0)``."""

        def kwon(report):
            return next(r for r in report.results if r.check_id == "check_kwon_remark")

        other = generate_scene(SceneParams(seed=7, center=Point(2, -1), radius=F(5, 3)))
        assert other.gamma != seed7_scene.gamma
        ck._kwon_remark.cache_clear()
        first, second = kwon(run_suite(seed7_scene)), kwon(run_suite(other))
        assert first is second
        assert first == check_kwon_remark(kwon_scene(0))
        assert first.status == PASS

    def test_kwon_reflection_perturbed_fails(self):
        kw = kwon_scene(1)
        bad = dataclasses.replace(kw, z=kw.z + Point(0, 1))
        result = check_kwon_remark(bad)
        assert result.status == FAIL


class TestClassicalOverlayCheck:
    def test_non_classical_rejected(self, seed7_cfg):
        result = check_classical_overlay(seed7_cfg)
        assert (result.status, result.notes) == (DEGENERATE, ("scene is not classical",))

    def test_runs_on_classical_scenes_only(self, seed7_scene):
        only = ["check_classical_overlay"]
        assert [r.check_id for r in run_suite(seed7_scene, only).results] == ["scene_validation"]
        classical = run_suite(classical_brocard_scene(0, 1, 3), only)
        assert [(r.check_id, r.status) for r in classical.results] == [
            ("scene_validation", PASS),
            ("check_classical_overlay", PASS),
        ]
        collapsed = check_classical_overlay(
            dataclasses.replace(compute_configuration(classical_brocard_scene(0, 1, 3)), collapsed=True)
        )
        assert (collapsed.status, collapsed.notes) == (DEGENERATE, ("configuration collapsed (P = Q)",))

    def test_moved_objects_fail_against_the_oracle(self):
        """A moved P, Q, T-vertex or tangent circle FAILs against the
        barycentric Brocard points, which the check derives from the
        vertices alone, with the exact difference or residual as witness."""
        cfg = compute_configuration(classical_brocard_scene(0, 1, 3))
        omega, omega_prime = Point(F(-26, 73), F(45, 73)), Point(F(10, 73), F(51, 73))
        shift = Point(F(1, 7), F(-2, 9))
        for field, label, oracle in (
            ("p", "P == Omega", omega),
            ("q", "Q == Omega'", omega_prime),
            ("t_a", "T_A == Omega B meet Omega' C", cfg.t_a),
        ):
            moved = dataclasses.replace(cfg, **{field: getattr(cfg, field) + shift})
            failed = {a.label: a.witnesses for a in check_classical_overlay(moved).failed_assertions}
            d = getattr(moved, field) - oracle
            assert failed[label] == (d.x, d.y) != (0, 0)
        w_c, w_a, w_b = cfg.p_circles
        bent = Circle(w_a.d, w_a.e, w_a.f + 1)
        result = check_classical_overlay(dataclasses.replace(cfg, p_circles=(w_c, bent, w_b)))
        assert [(a.label, a.witnesses) for a in result.failed_assertions] == [("Omega on w_A", (bent.eval(omega),))]

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

    def test_recorder_keeps_failures_and_shares_passes(self, seed7_scene):
        """A label that passes and then fails records the failing witness
        and marks the recorder failed; the PASS assertions of one label are
        one shared object, within a scene and across scenes."""
        rec = ck._Recorder()
        assert rec.scalar_zero("w == 0", F(0)) and not rec.failed
        assert not rec.scalar_zero("w == 0", F(-2, 3)) and rec.failed
        assert rec.scalar_zero("w == 0", F(0)) and rec.failed
        first, second, third = rec.assertions
        assert (first.label, first.ok, first.witnesses) == ("w == 0", True, (F(0),))
        assert (second.label, second.ok, second.witnesses) == ("w == 0", False, (F(-2, 3),))
        assert third is first
        passes = {}
        for scene in (seed7_scene, generate_scene(SceneParams(seed=8))):
            for result in run_suite(scene).results:
                for a in result.assertions:
                    if a.ok:
                        assert passes.setdefault((a.label, len(a.witnesses)), a) is a
        assert len(passes) > 80


    @staticmethod
    def _failed(result, label):
        """The witnesses of the one failed assertion labelled ``label``."""
        (found,) = [a for a in result.failed_assertions if a.label == label]
        assert result.status == FAIL
        return found.witnesses

    def test_incidence_witnesses_are_canonical_residuals(self, seed7_scene, seed7_cfg):
        """Checks that decide on raw line coefficients still fail with the
        residual of the canonical line: parallels, perpendiculars and joins."""
        s, cfg = seed7_scene, seed7_cfg
        shift = Point(F(1, 7), F(-2, 9))
        moved = dataclasses.replace(cfg, steiner=cfg.steiner + shift)
        result = ck.check_steiner(moved)
        for name, v, t_side in zip("ABC", s.vertices, cfg.t_sides):
            expected = Line(*geom._parallel(v, t_side)).eval(moved.steiner)
            assert self._failed(result, f"S_t on the parallel from {name}") == (expected,) != (0,)
        moved = dataclasses.replace(cfg, tarry=cfg.tarry + shift)
        result = ck.check_tarry(moved)
        for name, v, t_side in zip("ABC", s.vertices, cfg.t_sides):
            expected = Line(*geom._perpendicular(v, t_side)).eval(moved.tarry)
            assert self._failed(result, f"T_a on the perpendicular from {name}") == (expected,) != (0,)
        moved = dataclasses.replace(cfg, o_a=cfg.o_a + shift)
        expected = line_through(s.a, moved.o_a).eval(cfg.steiner)
        assert self._failed(ck.check_circumcenter_perspective(moved), "S_t on A O_A") == (expected,)

    def test_pascal_witnesses_are_canonical_residuals(self, seed7_scene, seed7_cfg):
        s, cfg = seed7_scene, seed7_cfg
        moved = dataclasses.replace(cfg, a_prime=cfg.a_prime + Point(F(1, 7), F(-2, 9)))
        result = ck.check_pascal_and_r(moved)
        aa = line_through(s.a, moved.a_prime)
        assert self._failed(result, "R on AA'") == (aa.eval(cfg.r),)
        polar = Line(*geom._polar(cfg.a0, s.gamma))
        expected = (aa.a * polar.b - polar.a * aa.b, aa.a * polar.c - polar.a * aa.c, aa.b * polar.c - polar.b * aa.c)
        witnesses = self._failed(result, "AA' is the polar of A0")
        assert witnesses == expected and any(expected)
        assert all(type(w) is F for w in witnesses)

    def test_angle_witnesses_are_canonical_residuals(self, seed7_scene, seed7_cfg):
        """Checks that decide on raw (cross, dot) pairs still fail with the
        residual of the canonical angle pairs and lines."""
        s, cfg = seed7_scene, seed7_cfg

        def residual(x, y):
            return x[0] * y[1] - y[0] * x[1]

        def canonical(cross, dot):
            return geom._canonical_ints("angle class", "(cross, dot) is zero", cross, dot)

        def angle(l1, l2):
            return canonical(*geom._angle(l1, l2))

        def angle_at(vertex, p, q):
            return canonical(*geom._angle_at(vertex, p, q))

        moved = dataclasses.replace(cfg, a_prime=cfg.a_prime + Point(F(1, 7), F(-2, 9)))
        result = ck.check_brocard_circle(moved)
        l1, l2 = line_through(cfg.o, moved.a_prime), line_through(moved.a_prime, cfg.r)
        assert self._failed(result, "OA' perpendicular to A'R") == (l1.a * l2.a + l1.b * l2.b,)
        angle_a, angle_b = angle_at(moved.a_prime, cfg.p, cfg.q), angle_at(cfg.b_prime, cfg.p, cfg.q)
        assert self._failed(result, "ang(P,A',Q) == ang(P,B',Q)") == (residual(angle_a, angle_b),)

        moved = dataclasses.replace(cfg, p=cfg.p + Point(F(1, 7), F(-2, 9)))
        result = ck.check_isogonal_conjugates(moved)
        bc, ca, ab = s.triangle.sides
        ap = angle(line_through(s.a1, moved.p), bc)
        bp = angle(line_through(s.b1, moved.p), ca)
        cp = angle(line_through(s.c1, moved.p), ab)
        aq = angle(line_through(s.a2, cfg.q), bc)
        assert self._failed(result, "ang(P,A1,A2) == ang(P,B1,B2)") == (residual(ap, bp),)
        assert self._failed(result, "ang(P,B1,B2) == ang(P,C1,C2)") == (residual(bp, cp),)
        assert self._failed(result, "ang(P,C1,C2) == -ang(Q,A2,A1)") == (residual(cp, canonical(-aq[0], aq[1])),)
        cq = angle(line_through(s.c2, cfg.q), ab)
        assert result.notes == (f"literal positive-sign reading ang(P,A1,A2) == +ang(Q,C2,C1): {ap == cq}",)
        # The note compares classes, not raw pairs: with A1P perpendicular
        # to BC and C2Q to AB, both angles are the right-angle class.
        right = dataclasses.replace(cfg, p=s.a1 + Point(bc.a, bc.b), q=s.c2 + Point(ab.a, ab.b))
        result = ck.check_isogonal_conjugates(right)
        assert result.notes[0] == "literal positive-sign reading ang(P,A1,A2) == +ang(Q,C2,C1): True"

        # A triangle whose Simson memo holds the Tarry point's line for S_t.
        tri = Triangle(*s.vertices)
        vars(tri)["_simson"] = {cfg.steiner: cfg.simson_tarry}
        result = check_lemma_simson_angle(tri, cfg.steiner, cfg.tarry)
        vertex = next(v for v in s.vertices if v not in (cfg.steiner, cfg.tarry))
        expected = residual(
            angle(cfg.simson_tarry, cfg.simson_tarry), angle_at(vertex, cfg.steiner, cfg.tarry)
        )
        assert self._failed(result, "ang(simson(M), simson(N)) == ang(M,vertex,N)") == (expected,) != (0,)

    def test_cyclic_lemma_witnesses_are_canonical_residuals(self, seed7_scene, monkeypatch):
        quad = build_cyclic_quadrangle(seed7_scene.gamma)
        real = ck.miquel_point
        monkeypatch.setattr(ck, "miquel_point", lambda *args: real(*args) + Point(F(1, 7), 0))
        result = check_lemma_cyclic(seed7_scene.gamma, *quad)
        pa, pb, pc, pd = quad
        p = geom.intersect_lines(line_through(pa, pb), line_through(pc, pd))
        q = geom.intersect_lines(line_through(pa, pd), line_through(pb, pc))
        m = miquel_point_quadrangle(*quad) + Point(F(1, 7), 0)
        pq, om = line_through(p, q), line_through(seed7_scene.gamma.center, m)
        assert self._failed(result, "M on PQ") == (pq.eval(m),)
        assert self._failed(result, "OM perpendicular to PQ") == (om.a * pq.a + om.b * pq.b,)

    @staticmethod
    def _difference(u, v):
        """The witnesses of a point or complex equality: the differences of
        the coordinates of the canonical values."""
        if isinstance(u, Point):
            return u.x - v.x, u.y - v.y
        return u.re - v.re, u.im - v.im

    def test_point_and_ratio_witnesses_are_canonical_differences(self, seed7_scene, seed7_cfg):
        """Checks that compare raw points, ratios and circles still fail
        with the difference or residual of the canonical values."""
        s, cfg = seed7_scene, seed7_cfg
        shift = Point(F(1, 7), F(-2, 9))
        diff = self._difference

        def image(p):
            return geom._reduced(Point, *geom._image(cfg.similarity, p))

        moved = dataclasses.replace(cfg, q=cfg.q + shift)
        expected = diff(geom.isogonal_conjugate(cfg.p, s.a, s.b, s.c), moved.q)
        assert self._failed(ck.check_isogonal_conjugates(moved), "isogonal_conjugate(P) == Q") == expected

        moved = dataclasses.replace(cfg, t_c=cfg.t_c + shift)
        result = ck.check_first_triangle_similarity(moved)
        expected = diff(image(s.c), moved.t_c)
        assert self._failed(result, "similarity fitted on A, B sends C to T_C") == expected
        lhs = geom._reduced(ComplexScalar, *geom._quotient((cfg.t_b - cfg.t_a).h, (moved.t_c - cfg.t_a).h))
        ratio = geom._reduced(ComplexScalar, *geom._quotient((s.b - s.a).h, (s.c - s.a).h))
        rhs = ComplexScalar(ratio.re, -ratio.im)
        assert self._failed(result, "(T_B-T_A)/(T_C-T_A) == conj((B-A)/(C-A))") == diff(lhs, rhs)
        assert self._failed(ck.check_polygon_similarity(moved), "map sends C to T_C") == expected

        for field, label, source in (("r", "map sends S_t to R", cfg.steiner), ("o", "map sends T_a to O", cfg.tarry)):
            moved = dataclasses.replace(cfg, **{field: getattr(cfg, field) + shift})
            expected = diff(image(source), getattr(moved, field))
            assert self._failed(ck.check_polygon_similarity(moved), label) == expected
        moved = dataclasses.replace(cfg, perspector=cfg.perspector + shift)
        expected = diff(image(cfg.r_star), moved.perspector)
        assert self._failed(ck.check_perspective(moved), "map sends R* to S") == expected

        moved = dataclasses.replace(cfg, tarry=cfg.tarry + shift)
        expected = diff(F(1, 2) * (cfg.steiner + moved.tarry), cfg.circ.center)
        assert self._failed(ck.check_tarry(moved), "midpoint(S_t, T_a) == circumcenter") == expected
        moved = dataclasses.replace(cfg, r=cfg.r + shift)
        expected = diff(F(1, 2) * (cfg.o + moved.r), cfg.brocard_circle.center)
        assert self._failed(ck.check_brocard_circle(moved), "midpoint(O, R) == center") == expected

        bc, ca, ab = s.triangle.sides
        moved = dataclasses.replace(cfg, r_p=ComplexScalar(cfg.r_p.re + F(1, 7), cfg.r_p.im - F(2, 9)))
        result = ck.check_rotation_angles(moved)
        expected = diff(moved.r_p, geom.spiral_ratio(cfg.p, s.b1, ca))
        assert self._failed(result, "r_P agrees on BC and CA") == expected
        im = moved.r_p.re * cfg.r_q.im + moved.r_p.im * cfg.r_q.re
        assert self._failed(result, "Im(r_P * r_Q) == 0") == (im,)
        assert all(type(w) is F for a in result.failed_assertions for w in a.witnesses)

        # A spiral point moved along its side keeps "D on BC" but moves two
        # circles and the BC ratio; a moved center misses all three circles.
        tri, m = s.triangle, cfg.p
        d, e, f = build_spiral_points(tri, m, SPIRAL_SCALE)
        d_moved = d + Point(bc.b, -bc.a)
        result = check_lemma_spiral(tri, m, SPIRAL_SCALE, (d_moved, e, f))
        circle = pipeline.miquel_circle(s.b, f, ab, d_moved, bc, "circle(B,F,D)")
        assert self._failed(result, "M on circle(B,F,D)") == (circle.eval(m),) != (0,)
        expected = diff(geom.spiral_ratio(m, d_moved, bc), geom.spiral_ratio(m, e, ca))
        assert self._failed(result, "spiral ratio equal on BC and CA") == expected
        m_moved = m + shift
        result = check_lemma_spiral(tri, m_moved, SPIRAL_SCALE, (d, e, f))
        circle = pipeline.miquel_circle(s.a, e, ca, f, ab, "circle(A,E,F)")
        assert self._failed(result, "M on circle(A,E,F)") == (circle.eval(m_moved),) != (0,)

    def test_spiral_incidences_fail_with_circle_witnesses(self, seed7_scene, seed7_cfg):
        """The spiral lemma decides "M on circle(...)" on the cross ratio, and
        a FAIL carries the power of M in the canonical circle: M moved fails
        all three incidences, a spiral point moved along its side the two
        circles through it.  A spiral point on a vertex takes the tangent
        circle there, and a flat triangle is DEGENERATE with the note of the
        circle's error."""
        s, cfg = seed7_scene, seed7_cfg
        tri, m = s.triangle, cfg.p
        a, b, c = s.vertices
        sides = tri.sides

        def incidences(d, e, f):
            return {"circle(A,E,F)": (a, e, f), "circle(B,F,D)": (b, f, d), "circle(C,D,E)": (c, d, e)}

        points = build_spiral_points(tri, m, SPIRAL_SCALE)
        m_moved = m + Point(F(1, 7), F(-2, 9))
        result = check_lemma_spiral(tri, m_moved, SPIRAL_SCALE, points)
        for name, defining in incidences(*points).items():
            expected = geom.circumcircle(*defining).eval(m_moved)
            assert self._failed(result, f"M on {name}") == (expected,) != (0,)
        for i, side in enumerate(sides):
            moved = list(points)
            moved[i] = moved[i] + F(1, 3) * Point(side.b, -side.a)
            result = check_lemma_spiral(tri, m, SPIRAL_SCALE, tuple(moved))
            assert all(x.ok for x in result.assertions[:3])  # D on BC, E on CA, F on AB
            for name, defining in incidences(*moved).items():
                (assertion,) = [x for x in result.assertions if x.label == f"M on {name}"]
                if moved[i] in defining:
                    assert assertion.witnesses == (geom.circumcircle(*defining).eval(m),) != (0,)
                else:
                    assert assertion.ok

        # Caps 2, seed 46: E sits on A, so circle(A,E,F) is the circle
        # tangent to CA at A through F.
        s = generate_scene(SceneParams(seed=46, numerator_cap=2, denominator_cap=2))
        tri = s.triangle
        m = compute_configuration(s).p
        d, e, f = build_spiral_points(tri, m, SPIRAL_SCALE)
        assert e == s.a
        m_moved = m + Point(F(1, 7), F(-2, 9))
        result = check_lemma_spiral(tri, m_moved, SPIRAL_SCALE, (d, e, f))
        tangent = geom.circle_through_tangent(s.a, tri.sides[1], f)
        assert self._failed(result, "M on circle(A,E,F)") == (tangent.eval(m_moved),) != (0,)
        assert self._failed(result, "M on circle(C,D,E)") == (geom.circumcircle(s.c, d, s.a).eval(m_moved),)

        flat = Triangle(Point(0, 0), Point(4, 0), Point(1, 0))
        on_it = (Point(F(1, 2), 0), Point(2, 0), Point(3, 0))
        result = check_lemma_spiral(flat, Point(1, 2), SPIRAL_SCALE, on_it)
        assert result.status == DEGENERATE
        assert [x.label for x in result.assertions] == ["D on BC", "E on CA", "F on AB"]
        assert result.notes == ("circle(A,E,F): no circle through collinear points",)

    def test_raw_paths_keep_their_degenerate_notes(self, seed7_scene, seed7_cfg):
        """A degeneracy met on a raw path reports the note the public
        function's error gave: DEGENERATE with a clean slate, FAIL with
        "aborted after failed assertion" after a failed one."""
        s, cfg = seed7_scene, seed7_cfg

        def outcome(result):
            return result.status, result.notes

        # _spiral: the center on side CA, and a target moved off it.
        result = ck.check_rotation_angles(dataclasses.replace(cfg, p=s.c))
        assert outcome(result) == (DEGENERATE, ("spiral ratio: center lies on the side",))
        moved = dataclasses.replace(cfg, scene=dataclasses.replace(s, b1=s.b1 + Point(F(1, 7), 0)))
        assert outcome(ck.check_rotation_angles(moved)) == (DEGENERATE, ("spiral ratio: target point is not on the side",))
        # _isogonal: P on sideline BC.
        result = ck.check_isogonal_conjugates(dataclasses.replace(cfg, p=F(1, 2) * (s.b + s.c)))
        assert result.status == FAIL
        assert result.notes[-1] == "aborted after failed assertion: isogonal conjugate: point lies on a sideline"
        # The complex quotient of the first-triangle ratio: T_C == T_A.
        result = ck.check_first_triangle_similarity(dataclasses.replace(cfg, t_c=cfg.t_a))
        assert outcome(result) == (FAIL, ("aborted after failed assertion: complex division: divisor is zero",))
        # _circle_through in the spiral lemma: E on a vertex off its side
        # makes A, E, F collinear; E and F both on A collapse circle(A,E,F).
        tri, m = s.triangle, cfg.p
        d, e, f = build_spiral_points(tri, m, SPIRAL_SCALE)
        result = check_lemma_spiral(tri, m, SPIRAL_SCALE, (d, s.b, f))
        assert outcome(result) == (FAIL, ("aborted after failed assertion: circle(A,E,F): no circle through collinear points",))
        result = check_lemma_spiral(tri, m, SPIRAL_SCALE, (d, s.a, s.a))
        assert outcome(result) == (DEGENERATE, ("circle(A,E,F): both defining points collapse onto the vertex",))
        # The spiral lemma's center on a side.
        result = check_lemma_spiral(tri, s.b, SPIRAL_SCALE, (d, e, f))
        assert result.status == FAIL
        assert result.notes == ("aborted after failed assertion: spiral ratio: center lies on the side",)

    def test_coincident_defining_points_never_pass(self, seed7_scene, seed7_cfg):
        """A raw join of two equal points raises as ``line_through`` does: the
        check reports DEGENERATE with the kernel's note, or FAIL when an
        earlier assertion already failed; never PASS."""
        s, cfg = seed7_scene, seed7_cfg
        twice = "no unique line through {} twice".format
        result = ck.check_isogonal_conjugates(dataclasses.replace(cfg, p=s.a1))
        assert (result.status, result.assertions, result.notes) == (DEGENERATE, (), (twice(s.a1),))
        result = ck.check_pascal_and_r(dataclasses.replace(cfg, a_prime=s.a))
        assert (result.status, result.notes) == (DEGENERATE, (twice(s.a),))
        assert all(a.ok for a in result.assertions)
        # O_A = A fails its equidistance first, then the join aborts.
        result = ck.check_circumcenter_perspective(dataclasses.replace(cfg, o_a=s.a))
        assert result.status == FAIL
        assert result.notes == (f"aborted after failed assertion: {twice(s.a)}",)


class TestComputedOnce:
    """Derived objects are cached on the instance they derive from, so a
    ``dataclasses.replace`` copy derives them afresh from its own fields."""

    def test_scene_sidelines_cached_and_rederived(self, seed7_scene):
        s = seed7_scene
        assert s.triangle is s.triangle and s.triangle.sides is s.triangle.sides
        assert s.triangle.sides == (line_through(s.b, s.c), line_through(s.c, s.a), line_through(s.a, s.b))
        moved = dataclasses.replace(s, a=s.a + Point(1, 0))
        assert moved.triangle == Triangle(moved.a, s.b, s.c)
        assert moved.triangle.sides[0] == s.triangle.sides[0]
        assert moved.triangle.sides[1:] == (line_through(s.c, moved.a), line_through(moved.a, s.b))
        assert moved.triangle.sides[1:] != s.triangle.sides[1:]

    def test_configuration_objects_rederived(self, seed7_scene, seed7_cfg):
        cfg, s = seed7_cfg, seed7_scene
        assert cfg.or_line is cfg.or_line
        assert cfg.similarity is cfg.similarity
        assert cfg.circ is s.triangle.circumcircle
        fresh = Triangle(s.a, s.b, s.c)
        assert cfg.simson_steiner is s.triangle.simson_line(cfg.steiner) == simson_line(cfg.steiner, fresh)
        assert cfg.simson_tarry is s.triangle.simson_line(cfg.tarry) == simson_line(cfg.tarry, fresh)
        assert cfg.simson_steiner != cfg.simson_tarry

        shifted = dataclasses.replace(cfg, r=cfg.r + Point(1, 0))
        assert shifted.or_line == line_through(cfg.o, shifted.r) != cfg.or_line
        moved = dataclasses.replace(cfg, t_a=cfg.t_a + Point(0, 1))
        assert moved.similarity == inverse_similarity_map(s.a, moved.t_a, s.b, moved.t_b)
        assert moved.similarity != cfg.similarity
        # compute_configuration seeds these caches with the lines it built.
        assert {"t_sides", "perspective_lines", "or_line"} <= vars(compute_configuration(s)).keys()
        assert cfg.t_sides == (
            line_through(cfg.t_b, cfg.t_c),
            line_through(cfg.t_c, cfg.t_a),
            line_through(cfg.t_a, cfg.t_b),
        )
        assert cfg.perspective_lines == (
            line_through(cfg.t_a, cfg.a_prime),
            line_through(cfg.t_b, cfg.b_prime),
            line_through(cfg.t_c, cfg.c_prime),
        )
        assert moved.t_sides[1:] == (line_through(cfg.t_c, moved.t_a), line_through(moved.t_a, cfg.t_b))
        assert moved.t_sides[0] == cfg.t_sides[0] and moved.t_sides[1:] != cfg.t_sides[1:]
        assert moved.perspective_lines[0] == line_through(moved.t_a, cfg.a_prime) != cfg.perspective_lines[0]
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
            ratio = getattr(cfg, field_)
            bad = dataclasses.replace(cfg, **{field_: ComplexScalar(ratio.re, ratio.im + 1)})
            result = ck.check_rotation_angles(bad)
            assert result.status == FAIL
            failed = {a.label: a.witnesses for a in result.failed_assertions}
            assert failed[label] == (0, 1)
            assert "Im(r_P * r_Q) == 0" in failed

    def test_kwon_miquel_points_rederived(self):
        kw = kwon_scene(1)
        a, b, tri = kw.a, kw.b, Triangle(kw.a, kw.b, kw.c)
        assert kw.miquel_points == (miquel_point(kw.d, kw.e, kw.f, tri), miquel_point(kw.x, kw.y, kw.z, tri))
        # Slide Z along AB: the triangle XYZ stays inscribed, so its Miquel
        # point exists, but the bisectors no longer concur at T.
        bad = dataclasses.replace(kw, z=kw.z + F(1, 3) * (b - a))
        o1, o2 = kw.miquel_points
        new_o2 = miquel_point(bad.x, bad.y, bad.z, tri)
        assert bad.miquel_points == (o1, new_o2) and new_o2 != o2
        result = check_kwon_remark(bad)
        assert result.status == FAIL
        assert result.assertions[-1].witnesses == (dist2(kw.t, o1) - dist2(kw.t, new_o2),)

    def test_suite_builds_each_line_and_foot_once(self, seed7_scene, monkeypatch):
        """One ``run_suite`` calls ``line_through`` and the raw foot helper
        ``_foot`` at most once per argument tuple: the shared lines live on
        the configuration, and the Simson lines and spiral points read their
        pedal feet raw.  ``kwon_scene``'s own draw and the cyclic lemma,
        which runs once per circle, are exempt."""
        calls = []
        exempt = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                if not exempt:
                    calls.append((fn.__name__, args, tuple(sorted(kwargs.items()))))
                return fn(*args, **kwargs)

            return wrapper

        def exempting(fn):
            def wrapper(*args):
                exempt.append(True)
                try:
                    return fn(*args)
                finally:
                    exempt.pop()

            return wrapper

        for name in ("line_through", "_foot"):
            wrapper = recording(getattr(geom, name))
            for module in (geom, pipeline, ck, scene_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        for name in ("kwon_scene", "_cyclic_lemma"):
            monkeypatch.setattr(ck, name, exempting(getattr(ck, name)))
        report = run_suite(dataclasses.replace(seed7_scene))  # no cached sidelines
        assert report.all_pass
        names = {name for name, _, _ in calls}
        assert names == {"line_through", "_foot"}
        repeated = [call for i, call in enumerate(calls) if call in calls[:i]]
        assert repeated == []

    def test_lemma_checks_get_the_scene_triangle(self, seed7_scene, seed7_cfg, monkeypatch):
        """The suite hands the spiral and Simson-angle lemmas the scene's own
        triangle, whose memo then holds the two Simson lines the Simson
        checks built, and the configuration's points."""
        seen = {}
        for cid in ("check_lemma_spiral", "check_lemma_simson_angle"):

            def recording(*args, _cid=cid, _check=getattr(ck, cid)):
                seen[_cid] = args
                return _check(*args)

            monkeypatch.setattr(ck, cid, recording)
        scene, cfg = dataclasses.replace(seed7_scene), seed7_cfg
        assert run_suite(scene).all_pass
        tri = scene.triangle
        assert seen == {
            "check_lemma_spiral": (tri, cfg.p, SPIRAL_SCALE),
            "check_lemma_simson_angle": (tri, cfg.steiner, cfg.tarry),
        }
        assert all(args[0] is tri for args in seen.values())
        assert list(vars(tri)["_simson"].values()) == [cfg.simson_steiner, cfg.simson_tarry]

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

    def test_pass_results_interned_at_most_twice_per_check(self, monkeypatch):
        """Each PASS result is the one ``_PASS_RESULTS`` value of its check
        id, notes and assertions.  Over the seed-701 scenes of the three bench
        workloads and the three pinned classical sets the table holds 20
        results: two for ``check_pascal_and_r`` and ``check_brocard_circle``,
        whose notes and assertions differ on the right triangle of
        ``0,1,-1``, and one for every other check.  Two passes with the same
        assertions and other notes are two results."""
        monkeypatch.setattr(ck, "_PASS_RESULTS", {})
        ck._cyclic_lemma.cache_clear()
        ck._kwon_remark.cache_clear()
        workloads = ({}, {"numerator_cap": 10**12, "denominator_cap": 10**12}, {"strict_segments": True})
        scenes = [generate_scene(SceneParams(seed=seed, **w)) for w in workloads for seed in range(701, 801)]
        scenes += [classical_brocard_scene(*params) for params in ((0, 1, -1), (0, 1, 3), (F(1, 2), -3, F(7, 5)))]
        reports = [run_suite(scene) for scene in scenes]
        table = ck._PASS_RESULTS
        per_check = collections.Counter(check_id for check_id, _, _ in table)
        assert max(per_check.values()) <= 2 and len(table) == 20
        assert {cid for cid, count in per_check.items() if count == 2} == {"check_pascal_and_r", "check_brocard_circle"}
        assert all(r.status == PASS for r in table.values())
        interned = {id(r) for r in table.values()} | {id(ck._VALID)}
        assert all(id(r) in interned for report in reports for r in report.results if r.status == PASS)
        # Equal angles would make the T_A cevians parallel, so the literal
        # reading is False on every scene whose build completes.
        isogonal = [r for report in reports for r in report.results if r.check_id == "check_isogonal_conjugates"]
        assert len(isogonal) == len(scenes)
        assert {r.notes for r in isogonal} == {("literal positive-sign reading ang(P,A1,A2) == +ang(Q,C2,C1): False",)}

        def noted(text):
            def body(rec):
                rec.scalar_zero("premise", 0)
                rec.note(text)

            return body

        first, second = ck._run("check_x", noted("first")), ck._run("check_x", noted("second"))
        assert first.assertions == second.assertions and (first.notes, second.notes) == (("first",), ("second",))
        assert ck._run("check_x", noted("first")) is first
        ck._cyclic_lemma.cache_clear()
        ck._kwon_remark.cache_clear()

    def test_reports_share_immutable_results(self, seed7_scene, seed7_cfg):
        first, second = run_suite(seed7_scene), run_suite(seed7_scene)
        cyclic = [next(r for r in rep.results if r.check_id == "check_lemma_cyclic") for rep in (first, second)]
        assert cyclic[0] is cyclic[1]  # the memo shares its one result
        result = cyclic[0]
        for obj in (result.assertions[0], result, first):
            for f in dataclasses.fields(obj):
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(obj, f.name, getattr(obj, f.name))
        for rep in (first, second):
            assert type(rep.results) is tuple
            for r in rep.results:
                assert type(r.assertions) is tuple and type(r.notes) is tuple
        assert first.results[1] == second.results[1] and first.results[1] is second.results[1]
        assert first == second and first is not second
        assert [hash(r) for r in first.results] == [hash(r) for r in second.results]
        assert hash(first) == hash(second)
        # Only PASS results are shared: a FAIL or DEGENERATE result is a new
        # object on each run, equal to the last one.
        fails = [next(run_mutations(seed7_cfg, seed7_scene, rounds=1, rng=Random(5150)))[1] for _ in range(2)]
        degenerate = [run_suite(COLLAPSE_SCENE).results[1] for _ in range(2)]

        def body(rec):
            rec.scalar_zero("premise", 0)
            raise geom.Degenerate("meet", "lines are parallel")

        aborted = [ck._run("check_x", body) for _ in range(2)]
        for (one, other), status in ((fails, FAIL), (degenerate, DEGENERATE), (aborted, DEGENERATE)):
            assert one.status == status and one == other and one is not other
