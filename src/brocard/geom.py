"""Exact rational plane-geometry kernel.

Every coordinate and every derived quantity is an exact rational.  There
is no epsilon and no floating point anywhere in this module: a point lies
on a circle iff the defining polynomial vanishes identically, so every
predicate is a decision, not an approximation.

Conventions:

* ``Point(x, y)`` stores the integer triple ``h = (X, Y, W)`` with
  x = X/W and y = Y/W; ``ComplexScalar(re, im)`` stores ``h`` the same way
  for (X + Y*i)/W.  The entries are coprime and W > 0, so equal values
  store equal tuples.  ``x``, ``y``, ``re`` and ``im`` are read-only
  lowest-terms ``fractions.Fraction`` views, built on each access.
* ``Line(a, b, c)`` is the locus a*x + b*y + c = 0.  Coefficients are
  canonicalized to a coprime integer triple whose first nonzero entry is
  positive, so structural equality coincides with geometric equality and
  lines hash deterministically.
* ``Circle(d, e, f)`` is the monic quadratic x^2 + y^2 + d*x + e*y + f = 0,
  stored as the coprime ``h = (D, E, F, V)``, V > 0, with d = D/V,
  e = E/V and f = F/V; ``d``, ``e`` and ``f`` are views as above.  Monic
  storage makes the radical axis of two circles a plain coefficient
  difference, and "second intersection through a known common point"
  reduces to Vieta's formulas.  No square root is ever taken; the general
  two-circle intersection (which would need one) is deliberately absent.
* Angles between lines are projective classes (cross : dot) modulo pi,
  compared by cross-multiplication.  Arc measures and inverse
  trigonometric functions are never computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Optional, Tuple, Union

RationalLike = Union[int, str, Fraction]


# ---------------------------------------------------------------------------
# Errors


class GeometryError(Exception):
    """Base class for every degeneracy the kernel can report."""


class CoincidentPoints(GeometryError):
    pass


class CollinearPoints(GeometryError):
    pass


class PointNotOnCircle(GeometryError):
    pass


class PointNotOnLine(GeometryError):
    pass


class CirclesIdentical(GeometryError):
    pass


class CenterDegenerate(GeometryError):
    """Pole or polar would lie at infinity."""


class ParallelLines(GeometryError):
    def __init__(self, message: str = "lines are parallel", identical: bool = False):
        super().__init__(message)
        self.identical = identical


class Degenerate(GeometryError):
    """A named construction failed; ``name`` identifies what broke."""

    def __init__(self, name: str, message: str = ""):
        super().__init__(f"{name}: {message}" if message else name)
        self.name = name


# ---------------------------------------------------------------------------
# Scalars


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like ``"-3/7"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def sign(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if it is not a perfect square."""
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _det3(a, b, c, d, e, f, g, h, i):
    """3x3 determinant of ints or Fractions, by rows."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# Points, complex numbers and circles store the integer tuple ``h``
# described above and nothing else.  The constructions and the predicates
# below compute with plain ints on these tuples and reduce each output
# tuple once, by one gcd, in ``_reduced``: Fraction arithmetic reduces by
# gcd on every operation, which dominates at the coordinate sizes scenes
# reach.  Equality and hashing compare the tuples.  Lines and angle
# classes are canonicalized once the same way: each constructor makes one
# pass through ``_canonical_ints`` and sets its integer fields once.

_Triple = Tuple[int, int, int]


def _integers(*values: RationalLike) -> Tuple[int, ...]:
    """The coprime integers (N_1, ..., N_k, W) with values[i] = N_i / W and
    W > 0 the lcm of the denominators of the values in lowest terms."""
    ratios = [(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in values]
    w = lcm(*[d for _, d in ratios])
    return (*[n * (w // d) for n, d in ratios], w)


def _reduced(cls, *ints: int):
    """The ``cls`` value storing ints, whose last entry is nonzero, divided
    by their gcd and signed so that the last entry is positive."""
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    value = object.__new__(cls)
    object.__setattr__(value, "h", ints if g == 1 else tuple([v // g for v in ints]))
    return value


def _view(i: int) -> property:
    """Entry i of the stored tuple over its last entry, as a Fraction."""
    return property(lambda self: Fraction(self.h[i], self.h[-1]))


def _sum(u: _Triple, v: _Triple, k: int) -> _Triple:
    """u + k*v on homogeneous triples, for k = 1 or -1."""
    x1, y1, w1 = u
    x2, y2, w2 = v
    if w1 == w2:
        return x1 + k * x2, y1 + k * y2, w1
    return x1 * w2 + k * x2 * w1, y1 * w2 + k * y2 * w1, w1 * w2


def _times(u: _Triple, v: _Triple) -> _Triple:
    """The complex product u * v on homogeneous triples."""
    x1, y1, w1 = u
    x2, y2, w2 = v
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, w1 * w2


def _quotient(u: _Triple, v: _Triple) -> _Triple:
    """The complex quotient u / v on homogeneous triples."""
    x1, y1, w1 = u
    x2, y2, w2 = v
    n = x2 * x2 + y2 * y2
    if n == 0:
        raise Degenerate("complex division", "divisor is zero")
    return (x1 * x2 + y1 * y2) * w2, (y1 * x2 - x1 * y2) * w2, w1 * n


# ---------------------------------------------------------------------------
# Points (also used as displacement vectors)


@dataclass(frozen=True, slots=True, init=False)
class Point:
    h: _Triple

    def __init__(self, x: RationalLike, y: RationalLike):
        object.__setattr__(self, "h", _integers(x, y))

    x = _view(0)
    y = _view(1)

    def __add__(self, other: "Point") -> "Point":
        return _reduced(Point, *_sum(self.h, other.h, 1))

    def __sub__(self, other: "Point") -> "Point":
        return _reduced(Point, *_sum(self.h, other.h, -1))

    def __neg__(self) -> "Point":
        x, y, w = self.h
        return _reduced(Point, -x, -y, w)

    def __rmul__(self, k: RationalLike) -> "Point":
        n, d = _integers(k)
        x, y, w = self.h
        return _reduced(Point, n * x, n * y, d * w)

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def cross(u: Point, v: Point) -> Fraction:
    """2D cross product of two displacement vectors."""
    x1, y1, w1 = u.h
    x2, y2, w2 = v.h
    return Fraction(x1 * y2 - y1 * x2, w1 * w2)


def dot(u: Point, v: Point) -> Fraction:
    x1, y1, w1 = u.h
    x2, y2, w2 = v.h
    return Fraction(x1 * x2 + y1 * y2, w1 * w2)


def dist2(p: Point, q: Point) -> Fraction:
    """Squared distance.  Plain distance would need a square root."""
    x, y, w = _sum(q.h, p.h, -1)
    return Fraction(x * x + y * y, w * w)


def midpoint(p: Point, q: Point) -> Point:
    x, y, w = _sum(p.h, q.h, 1)
    return _reduced(Point, x, y, 2 * w)


def point_along(p: Point, q: Point, t: RationalLike) -> Point:
    """The point p + t*(q - p) of the line pq."""
    n, d = _integers(t)
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    return _reduced(Point, (d - n) * x1 * w2 + n * x2 * w1, (d - n) * y1 * w2 + n * y2 * w1, d * w1 * w2)


def _area(p: Point, q: Point, r: Point) -> Tuple[int, int]:
    """cross(q - p, r - p) as an unreduced (numerator, positive denominator)."""
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    x3, y3, w3 = r.h
    return _det3(x1, y1, w1, x2, y2, w2, x3, y3, w3), w1 * w2 * w3


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of p-q-r: +1 anticlockwise, -1 clockwise, 0 collinear."""
    return sign(_area(p, q, r)[0])


# ---------------------------------------------------------------------------
# Exact complex numbers (spiral-similarity data)


@dataclass(frozen=True, slots=True, init=False)
class ComplexScalar:
    """Complex number with exact rational real and imaginary parts.

    Spiral similarities are stored as these ratios; the rotation angle is
    the argument and the scale factor the modulus, but neither is ever
    materialized as a real number.
    """

    h: _Triple

    def __init__(self, re: RationalLike, im: RationalLike):
        object.__setattr__(self, "h", _integers(re, im))

    re = _view(0)
    im = _view(1)

    def conj(self) -> "ComplexScalar":
        x, y, w = self.h
        return _reduced(ComplexScalar, x, -y, w)

    def __add__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _reduced(ComplexScalar, *_sum(self.h, other.h, 1))

    def __sub__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _reduced(ComplexScalar, *_sum(self.h, other.h, -1))

    def __neg__(self) -> "ComplexScalar":
        x, y, w = self.h
        return _reduced(ComplexScalar, -x, -y, w)

    def __mul__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _reduced(ComplexScalar, *_times(self.h, other.h))

    def __truediv__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _reduced(ComplexScalar, *_quotient(self.h, other.h))

    def apply_to(self, v: Point) -> Point:
        """Multiply the displacement vector v by this complex number."""
        return _reduced(Point, *_times(self.h, v.h))


def complex_ratio(u: Point, v: Point) -> ComplexScalar:
    """The complex number u / v, reading displacement vectors as complex."""
    return _reduced(ComplexScalar, *_quotient(u.h, v.h))


# ---------------------------------------------------------------------------
# Lines


def _canonical_ints(what: str, zero: str, *values: RationalLike) -> Tuple[int, ...]:
    """The coprime integers proportional to ``values`` whose first nonzero
    entry is positive, with rational values scaled to integers first.
    Raises ``Degenerate(what, zero)`` when the first two entries are zero."""
    for v in values:
        if type(v) is not int:
            values = _integers(*values)[:-1]
            break
    lead = values[0] or values[1]
    if not lead:
        raise Degenerate(what, zero)
    g = gcd(*values)
    if lead < 0:
        g = -g
    return values if g == 1 else tuple([v // g for v in values])


@dataclass(frozen=True, slots=True, init=False)
class Line:
    """Oriented locus a*x + b*y + c = 0, canonicalized on construction."""

    a: int
    b: int
    c: int

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike):
        a, b, c = _canonical_ints("line", "normal vector (a, b) is zero", a, b, c)
        _line_a(self, a)
        _line_b(self, b)
        _line_c(self, c)

    def eval(self, p: Point) -> Fraction:
        """Signed residual of p in the line equation; zero iff p is on the line."""
        x, y, w = p.h
        return Fraction(self.a * x + self.b * y + self.c * w, w)

    def __repr__(self) -> str:
        return f"Line({self.a}, {self.b}, {self.c})"


# Constructors set each field once through its slot descriptor, which
# bypasses the frozen ``__setattr__`` at less cost than ``object.__setattr__``.
_line_a, _line_b, _line_c = Line.a.__set__, Line.b.__set__, Line.c.__set__


# ---------------------------------------------------------------------------
# Circles


@dataclass(frozen=True, slots=True, init=False)
class Circle:
    """Monic circle x^2 + y^2 + d*x + e*y + f = 0."""

    h: Tuple[int, int, int, int]

    def __init__(self, d: RationalLike, e: RationalLike, f: RationalLike):
        object.__setattr__(self, "h", _integers(d, e, f))

    d = _view(0)
    e = _view(1)
    f = _view(2)

    @classmethod
    def from_center_radius2(cls, center: Point, radius2: RationalLike) -> "Circle":
        n, m = _integers(radius2)
        if n <= 0:
            raise Degenerate("circle", "radius squared must be positive")
        x, y, w = center.h
        return _reduced(cls, -2 * x * w * m, -2 * y * w * m, (x * x + y * y) * m - n * w * w, w * w * m)

    @property
    def center(self) -> Point:
        d, e, _, v = self.h
        return _reduced(Point, -d, -e, 2 * v)

    @property
    def radius2(self) -> Fraction:
        d, e, f, v = self.h
        return Fraction(d * d + e * e - 4 * f * v, 4 * v * v)

    def eval(self, p: Point) -> Fraction:
        """Power of the point p; zero iff p is on the circle."""
        return Fraction(*_power(p, self))

    def __repr__(self) -> str:
        return f"Circle({self.d}, {self.e}, {self.f})"


# ---------------------------------------------------------------------------
# Directed angles modulo pi


@dataclass(frozen=True, slots=True, init=False)
class DirectedAngleClass:
    """Angle between two lines modulo pi, as the projective pair (cross : dot).

    Classes (u, v) and (k*u, k*v) are equal for any k != 0; canonicalization
    to a coprime integer pair makes that structural.
    """

    cross: int
    dot: int

    def __init__(self, cross: RationalLike, dot: RationalLike):
        cross, dot = _canonical_ints("angle class", "(cross, dot) is zero", cross, dot)
        _angle_cross(self, cross)
        _angle_dot(self, dot)

    def __neg__(self) -> "DirectedAngleClass":
        return DirectedAngleClass(-self.cross, self.dot)


_angle_cross, _angle_dot = DirectedAngleClass.cross.__set__, DirectedAngleClass.dot.__set__


def directed_angle(l1: Line, l2: Line) -> DirectedAngleClass:
    """Directed angle from l1 to l2 modulo pi."""
    return DirectedAngleClass(
        l1.a * l2.b - l2.a * l1.b,
        l1.a * l2.a + l1.b * l2.b,
    )


def angle_at(vertex: Point, p: Point, q: Point) -> DirectedAngleClass:
    """Directed angle (mod pi) at ``vertex`` from line vertex-p to line vertex-q."""
    return directed_angle(line_through(vertex, p), line_through(vertex, q))


# ---------------------------------------------------------------------------
# Constructions


def line_through(p: Point, q: Point) -> Line:
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    a = y1 * w2 - y2 * w1
    b = x2 * w1 - x1 * w2
    if a == 0 and b == 0:
        raise CoincidentPoints(f"no unique line through {p} twice")
    return Line(a, b, x1 * y2 - x2 * y1)


def intersect_lines(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(identical=(l1 == l2))
    return _reduced(Point, l1.b * l2.c - l2.b * l1.c, l2.a * l1.c - l1.a * l2.c, det)


def parallel_through(p: Point, l: Line) -> Line:
    x, y, w = p.h
    return Line(l.a * w, l.b * w, -(l.a * x + l.b * y))


def perpendicular_through(p: Point, l: Line) -> Line:
    x, y, w = p.h
    return Line(l.b * w, -l.a * w, l.a * y - l.b * x)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    dx = x2 * w1 - x1 * w2
    dy = y2 * w1 - y1 * w2
    if dx == 0 and dy == 0:
        raise CoincidentPoints("perpendicular bisector of a point with itself")
    w12 = w1 * w2
    return Line(
        2 * dx * w12,
        2 * dy * w12,
        (x1 * x1 + y1 * y1) * w2 * w2 - (x2 * x2 + y2 * y2) * w1 * w1,
    )


def foot_perpendicular(p: Point, l: Line) -> Point:
    x, y, w = p.h
    a, b = l.a, l.b
    n2 = a * a + b * b
    r = a * x + b * y + l.c * w
    return _reduced(Point, x * n2 - r * a, y * n2 - r * b, w * n2)


def spiral_ratio(m: Point, d: Point, side: Line) -> ComplexScalar:
    """Complex ratio (d - m) / (foot(m, side) - m) of the spiral similarity
    taking the pedal foot of m to d; its argument is the rotation angle and
    its modulus the scale."""
    a, b, c = side.a, side.b, side.c
    xm, ym, wm = m.h
    xd, yd, wd = d.h
    r = a * xm + b * ym + c * wm
    if r == 0:
        raise Degenerate("spiral ratio", "center lies on the side")
    if a * xd + b * yd + c * wd != 0:
        raise Degenerate("spiral ratio", "target point is not on the side")
    # foot - m = -r/(wm*(a^2 + b^2)) * (a + b*i), so the ratio is
    # -(d - m) * (a - b*i) * wm / r with d - m = (ux + uy*i) / (wd*wm).
    ux, uy = xd * wm - xm * wd, yd * wm - ym * wd
    return _reduced(ComplexScalar, ux * a + uy * b, uy * a - ux * b, -wd * r)


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    # Row i of the usual determinants, scaled by W_i^2 > 0; the common
    # factor cancels in each ratio.
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    x3, y3, w3 = r.h
    a1, b1, c1, s1 = x1 * w1, y1 * w1, w1 * w1, -(x1 * x1 + y1 * y1)
    a2, b2, c2, s2 = x2 * w2, y2 * w2, w2 * w2, -(x2 * x2 + y2 * y2)
    a3, b3, c3, s3 = x3 * w3, y3 * w3, w3 * w3, -(x3 * x3 + y3 * y3)
    det = _det3(a1, b1, c1, a2, b2, c2, a3, b3, c3)
    if det == 0:
        raise CollinearPoints("no circle through collinear points")
    return _reduced(
        Circle,
        _det3(s1, b1, c1, s2, b2, c2, s3, b3, c3),
        _det3(a1, s1, c1, a2, s2, c2, a3, s3, c3),
        _det3(a1, b1, s1, a2, b2, s2, a3, b3, s3),
        det,
    )


def circle_through_tangent(t: Point, l: Line, p: Point) -> Circle:
    """Circle through p tangent to l at t (the degenerate limit of a circumcircle
    as one defining point slides into t along l)."""
    if not on_line(t, l):
        raise Degenerate("tangent circle", "tangency point is not on the line")
    if p == t:
        raise Degenerate("tangent circle", "third point coincides with tangency point")
    if on_line(p, l):
        raise Degenerate("tangent circle", "third point lies on the tangent line")
    center = intersect_lines(perpendicular_through(t, l), perpendicular_bisector(t, p))
    return Circle.from_center_radius2(center, dist2(center, t))


def tangent_line(c: Circle, p: Point) -> Line:
    """Tangent to c at a point of c (the polar of a point on the circle)."""
    if not on_circle(p, c):
        raise PointNotOnCircle(f"{p} is not on {c}")
    return polar_of_point(p, c)


def antipode(p: Point, c: Circle) -> Point:
    if not on_circle(p, c):
        raise PointNotOnCircle(f"{p} is not on {c}")
    return 2 * c.center - p


def second_intersection_circle_line(c: Circle, l: Line, x: Point) -> Tuple[Point, bool]:
    """Other intersection of c and l given the known common point x.

    Parametrizes l as x + t*(b, -a); the quadratic in t has the known root
    t = 0, so Vieta gives the second root directly.  Returns (point, tangent)
    where tangent is True iff l touches c at x (double root).
    """
    if not on_line(x, l):
        raise PointNotOnLine(f"{x} is not on {l}")
    if not on_circle(x, c):
        raise PointNotOnCircle(f"{x} is not on {c}")
    a, b = l.a, l.b
    px, py, w = x.h
    d, e, _, v = c.h
    # t = -n / (v * w * (a^2 + b^2)) is the second root.
    n = 2 * v * (px * b - py * a) + w * (d * b - e * a)
    if n == 0:
        return x, True
    n2 = v * (a * a + b * b)
    return _reduced(Point, px * n2 - n * b, py * n2 + n * a, w * n2), False


def second_intersection_circles(c1: Circle, c2: Circle, x: Point) -> Tuple[Point, bool]:
    """Other common point of c1 and c2 given the known common point x.

    Square-root-free: the radical axis is the coefficient difference of the
    monic equations, a line through x; Vieta against the known root does the
    rest.  Returns (point, tangent).
    """
    if c1 == c2:
        raise CirclesIdentical("second intersection of a circle with itself")
    if not on_circle(x, c1):
        raise PointNotOnCircle(f"{x} is not on {c1}")
    if not on_circle(x, c2):
        raise PointNotOnCircle(f"{x} is not on {c2}")
    d1, e1, f1, v1 = c1.h
    d2, e2, f2, v2 = c2.h
    radical_axis = Line(d1 * v2 - d2 * v1, e1 * v2 - e2 * v1, f1 * v2 - f2 * v1)
    return second_intersection_circle_line(c1, radical_axis, x)


def polar_of_point(p: Point, c: Circle) -> Line:
    x, y, w = p.h
    d, e, f, v = c.h
    a = 2 * v * x + d * w
    b = 2 * v * y + e * w
    if a == 0 and b == 0:
        raise CenterDegenerate("polar of the center is the line at infinity")
    return Line(a, b, d * x + e * y + 2 * f * w)


def pole_of_line(l: Line, c: Circle) -> Point:
    d, e, f, v = c.h
    denom = d * l.a + e * l.b - 2 * v * l.c
    if denom == 0:
        raise CenterDegenerate("pole of a line through the center is at infinity")
    r = d * d + e * e - 4 * f * v  # 4 * v^2 * radius2
    return _reduced(Point, r * l.a - d * denom, r * l.b - e * denom, 2 * v * denom)


def isogonal_conjugate(p: Point, a: Point, b: Point, c: Point) -> Point:
    """Isogonal conjugate of p in triangle abc.

    Exact barycentric map (x : y : z) -> (la/x : lb/y : lc/z) with la, lb, lc
    the squared side lengths.  Undefined on the sidelines (a coordinate
    vanishes) and on the circumcircle (the image is at infinity).
    """
    xa, ya, wa = a.h
    xb, yb, wb = b.h
    xc, yc, wc = c.h
    xp, yp, wp = p.h
    # Signed areas times the positive W products: the orientation of abc
    # and the barycentrics (u : v : w) of p.
    if _det3(xa, ya, wa, xb, yb, wb, xc, yc, wc) == 0:
        raise CollinearPoints("degenerate reference triangle")
    u = _det3(xp, yp, wp, xb, yb, wb, xc, yc, wc)
    v = _det3(xa, ya, wa, xp, yp, wp, xc, yc, wc)
    w = _det3(xa, ya, wa, xb, yb, wb, xp, yp, wp)
    if u == 0 or v == 0 or w == 0:
        raise Degenerate("isogonal conjugate", "point lies on a sideline")
    # Squared sides times squared W products.
    la = (xc * wb - xb * wc) ** 2 + (yc * wb - yb * wc) ** 2
    lb = (xa * wc - xc * wa) ** 2 + (ya * wc - yc * wa) ** 2
    lc = (xb * wa - xa * wb) ** 2 + (yb * wa - ya * wb) ** 2
    # Weights of the homogeneous vertices, (la/u : lb/v : lc/w) with the
    # W factors cancelled and u*v*w cleared.
    ku, kv, kw = la * v * w, lb * u * w, lc * u * v
    s = ku * wa + kv * wb + kw * wc
    if s == 0:
        raise Degenerate("isogonal conjugate", "point lies on the circumcircle")
    return _reduced(Point, ku * xa + kv * xb + kw * xc, ku * ya + kv * yb + kw * yc, s)


def simson_line(p: Point, tri: "Triangle") -> Line:
    """Line through the three pedal feet of p on the sidelines of tri,
    defined only for p on its circumcircle."""
    if not on_circle(p, tri.circumcircle):
        raise PointNotOnCircle(f"{p} is not on the circumcircle")
    feet = [foot_perpendicular(p, side) for side in tri.sides]
    first = feet[0]
    other = next((f for f in feet[1:] if f != first), None)
    if other is None:
        raise Degenerate("simson line", "all pedal feet coincide")
    l = line_through(first, other)
    if any(not on_line(f, l) for f in feet):
        raise Degenerate("simson line", "pedal feet are not collinear")
    return l


@dataclass(frozen=True)
class Triangle:
    """Triangle abc.  Its sidelines, circumcircle and the Simson line of each
    point asked about are built on first use and cached in the instance
    ``__dict__``, keyed on the point for Simson lines: equality, hashing,
    ``repr``, ``replace``, copies and pickles ignore them."""

    a: Point
    b: Point
    c: Point

    @cached_property
    def sides(self) -> Tuple[Line, Line, Line]:
        """The sidelines (BC, CA, AB)."""
        return line_through(self.b, self.c), line_through(self.c, self.a), line_through(self.a, self.b)

    @cached_property
    def circumcircle(self) -> Circle:
        return circumcircle(self.a, self.b, self.c)

    def simson_line(self, p: Point) -> Line:
        """``simson_line(p, self)``, built once per point."""
        memo = self.__dict__.setdefault("_simson", {})
        line = memo.get(p)
        if line is None:
            line = memo[p] = simson_line(p, self)
        return line

    def __getstate__(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# ---------------------------------------------------------------------------
# Predicates (exact determinant / dot / cross sign tests; no tolerances)


def on_line(p: Point, l: Line) -> bool:
    x, y, w = p.h
    return l.a * x + l.b * y + l.c * w == 0


def _power(p: Point, c: Circle) -> Tuple[int, int]:
    """Power of p with respect to c as an unreduced (numerator, denominator)."""
    x, y, w = p.h
    d, e, f, v = c.h
    return v * (x * x + y * y) + w * (d * x + e * y + f * w), v * w * w


def on_circle(p: Point, c: Circle) -> bool:
    return _power(p, c)[0] == 0


def collinear_det(p: Point, q: Point, r: Point) -> Fraction:
    return Fraction(*_area(p, q, r))


def parallel(l1: Line, l2: Line) -> bool:
    return l1.a * l2.b - l2.a * l1.b == 0


# ---------------------------------------------------------------------------
# Orientation-reversing similarities


@dataclass(frozen=True)
class InverseSimilarity:
    """The map z -> alpha * conj(z) + beta on points read as complex numbers.

    Orientation-reversing: it sends anticlockwise triangles to clockwise ones.
    """

    alpha: ComplexScalar
    beta: ComplexScalar

    def apply(self, p: Point) -> Point:
        x, y, w = p.h
        return _reduced(Point, *_sum(_times(self.alpha.h, (x, -y, w)), self.beta.h, 1))


def inverse_similarity_map(src1: Point, dst1: Point, src2: Point, dst2: Point) -> InverseSimilarity:
    """The unique orientation-reversing similarity sending src1 -> dst1 and
    src2 -> dst2."""
    if src1 == src2:
        raise CoincidentPoints("similarity needs two distinct source points")
    x1, y1, w1 = src1.h
    x2, y2, w2 = src2.h
    zs1 = (x1, -y1, w1)  # conj(src1)
    zd1 = dst1.h
    alpha = _quotient(_sum(zd1, dst2.h, -1), _sum(zs1, (x2, -y2, w2), -1))
    beta = _sum(zd1, _times(alpha, zs1), -1)
    return InverseSimilarity(_reduced(ComplexScalar, *alpha), _reduced(ComplexScalar, *beta))
