"""The closed forms of the Miquel pair, the primed triangle and R.

With the center O of gamma as the origin, every label is a complex number
on |z| = radius, and (Chen, *Euclidean Geometry in Mathematical
Olympiads*, ch. 6)

    P = -N / D_P,  Q = N / D_Q,  R = 2N / (D_Q - D_P),
    A' = (b1 c2 - c1 b2) / (b1 - c1 - b2 + c2), B' and C' cyclically,

    N   = a1 b1 c2 (a2 - b2) + b1 c1 a2 (b2 - c2) + c1 a1 b2 (c2 - a2),
    D_P = a2 b2 (a1 - b1) + b2 c2 (b1 - c1) + c2 a2 (c1 - a1),
    D_Q = a1 b1 (a2 - b2) + b1 c1 (b2 - c2) + c1 a1 (c2 - a2).

The build takes P, Q and A'..C' from these forms, and R as the pole of the
Pascal line.  Here they are evaluated again in ``Fraction`` arithmetic,
written as above and apart from the pipeline's integer code, and compared
with the build and with the kernel route: ``miquel_point``, the second meet
of the two Miquel circles through each vertex, and the Pascal pole.  The
corpora are the bench workloads' seed-7 scenes (scene seeds 701..800), the
three pinned classical sets, and the same kinds of scene on a circle off
the origin, where a slip in taking the labels relative to O shows.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

from brocard import pipeline
from brocard.checks import PASS, run_suite
from brocard.geom import Point, second_intersection_circles
from brocard.pipeline import compute_configuration
from brocard.scene import SceneParams, classical_brocard_scene, generate_scene

OFF_CENTRE = dict(center=Point(F(1, 2), F(-1, 3)), radius=F(5, 3))
CLASSICAL_SETS = ((0, 1, -1), (0, 1, 3), (F(1, 2), -3, F(7, 5)))
BIG_CAP = 10**12
WORKLOADS = {
    "verify-caps50": dict(),
    "verify-caps1e12": dict(numerator_cap=BIG_CAP, denominator_cap=BIG_CAP),
    "generate-strict": dict(strict_segments=True),
}


@lru_cache(maxsize=None)
def corpus(name):
    if name in WORKLOADS:
        return [generate_scene(SceneParams(seed=seed, **WORKLOADS[name])) for seed in range(701, 801)]
    if name == "classical":
        return [classical_brocard_scene(*ts) for ts in CLASSICAL_SETS]
    if name == "classical-off-centre":
        return [classical_brocard_scene(*ts, **OFF_CENTRE) for ts in CLASSICAL_SETS]
    assert name == "off-centre"
    return [generate_scene(SceneParams(seed=seed, **OFF_CENTRE)) for seed in range(1, 61)]


def _c(p, o):
    """The point p relative to o as a complex number (re, im) of Fractions."""
    return p.x - o.x, p.y - o.y


def _add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _sub(u, v):
    return u[0] - v[0], u[1] - v[1]


def _mul(*factors):
    x, y = F(1), F(0)
    for u, v in factors:
        x, y = x * u - y * v, x * v + y * u
    return x, y


def _div(u, v):
    n = v[0] * v[0] + v[1] * v[1]
    return (u[0] * v[0] + u[1] * v[1]) / n, (u[1] * v[0] - u[0] * v[1]) / n


def _point(z, o):
    return Point(o.x + z[0], o.y + z[1])


def closed_forms(scene):
    """P, Q, R and (A', B', C') of the scene from the forms above."""
    o = scene.o
    a1, a2, b1, b2, c1, c2 = [_c(p, o) for p in scene.incidence_points]
    n = _add(_add(_mul(a1, b1, c2, _sub(a2, b2)), _mul(b1, c1, a2, _sub(b2, c2))), _mul(c1, a1, b2, _sub(c2, a2)))
    d_p = _add(_add(_mul(a2, b2, _sub(a1, b1)), _mul(b2, c2, _sub(b1, c1))), _mul(c2, a2, _sub(c1, a1)))
    d_q = _add(_add(_mul(a1, b1, _sub(a2, b2)), _mul(b1, c1, _sub(b2, c2))), _mul(c1, a1, _sub(c2, a2)))

    def primed(b1, c1, b2, c2):
        return _point(_div(_sub(_mul(b1, c2), _mul(c1, b2)), _add(_sub(b1, c1), _sub(c2, b2))), o)

    p = _point(_div((-n[0], -n[1]), d_p), o)
    q = _point(_div(n, d_q), o)
    r = _point(_div((2 * n[0], 2 * n[1]), _sub(d_q, d_p)), o)
    return p, q, r, (primed(b1, c1, b2, c2), primed(c1, a1, c2, a2), primed(a1, b1, a2, b2))


CORPORA = [*WORKLOADS, "classical", "off-centre", "classical-off-centre"]


@pytest.mark.parametrize("name", CORPORA)
def test_closed_forms_equal_the_build_and_the_kernel_route(name):
    """The build's P, Q, A'..C' and its Pascal pole R equal the closed forms;
    P and Q equal the Miquel points of ``miquel_point``'s route, and each
    primed vertex the second meet of the Miquel circles of P and of Q
    through it."""
    for scene in corpus(name):
        cfg = compute_configuration(scene)
        p, q, r, primes = closed_forms(scene)
        built = (cfg.a_prime, cfg.b_prime, cfg.c_prime)
        assert (cfg.p, cfg.q, cfg.r, built) == (p, q, r, primes)
        tri = scene.triangle
        miquel_p, p_circles = pipeline._miquel(scene.a1, scene.b1, scene.c1, tri)
        miquel_q, q_circles = pipeline._miquel(scene.a2, scene.b2, scene.c2, tri)
        assert (miquel_p, miquel_q) == (p, q)
        for v, pc, qc, pt in zip(scene.vertices, p_circles, q_circles, primes):
            assert second_intersection_circles(pc, qc, v) == (pt, False)
        assert (cfg.p_circles, cfg.q_circles) == (p_circles, q_circles)


def test_off_centre_generated_scenes_pass():
    """Generated scenes on a circle off the origin: every one of the 60
    scenes' 18 results PASSes."""
    statuses = [result.status for scene in corpus("off-centre") for result in run_suite(scene).results]
    assert statuses == [PASS] * 1080
