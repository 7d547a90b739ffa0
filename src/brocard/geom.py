"""Exact rational plane-geometry kernel.

Every coordinate and every derived quantity is an exact rational
(``fractions.Fraction``).  There is no epsilon and no floating point
anywhere in this module: a point lies on a circle iff the defining
polynomial vanishes identically, so every predicate is a decision, not an
approximation.

Conventions:

* ``Line(a, b, c)`` is the locus a*x + b*y + c = 0.  Coefficients are
  canonicalized to a coprime integer triple whose first nonzero entry is
  positive, so structural equality coincides with geometric equality and
  lines hash deterministically.
* ``Circle(d, e, f)`` is the monic quadratic x^2 + y^2 + d*x + e*y + f = 0.
  Monic storage makes the radical axis of two circles a plain coefficient
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


# The constructions and the whole point, complex and similarity layer below
# read their inputs as homogeneous integers (X, Y, W) over one common
# denominator, compute with plain ints and build each output Fraction (or
# the canonical Line triple) once: Fraction arithmetic reduces by gcd on
# every operation, which dominates at the coordinate sizes scenes reach.
# ``_hom`` caches a Point's triple in its instance ``__dict__`` on first
# use.  Equality, hashing and ``repr`` read only the two fields,
# ``dataclasses.replace`` builds a new instance without the cache, and
# ``__getstate__`` leaves it out of copies and pickles.

_Triple = Tuple[int, int, int]


def _pair(x: Fraction, y: Fraction) -> _Triple:
    """Integers (X, Y, W), W > 0 the lcm of the denominators, with x = X/W
    and y = Y/W."""
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    if dx == dy:
        return nx, ny, dx
    w = lcm(dx, dy)
    return nx * (w // dx), ny * (w // dy), w


def _hom(p: "Point") -> _Triple:
    """Homogeneous integer coordinates (X, Y, W) of p, with W > 0 the lcm of
    the coordinate denominators, so that p = (X/W, Y/W); cached on p."""
    h = p.__dict__.get("_hom")
    if h is None:
        h = p.__dict__["_hom"] = _pair(p.x, p.y)
    return h


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


def _point(x: int, y: int, w: int) -> "Point":
    return Point(Fraction(x, w), Fraction(y, w))


def _hom_circle(c: "Circle") -> Tuple[int, int, int, int]:
    """Integers (D, E, F, V), V > 0 the lcm of the coefficient denominators,
    with c = x^2 + y^2 + (D*x + E*y + F)/V."""
    nd, dd = c.d.as_integer_ratio()
    ne, de = c.e.as_integer_ratio()
    nf, df = c.f.as_integer_ratio()
    v = lcm(dd, de, df)
    return nd * (v // dd), ne * (v // de), nf * (v // df), v


# ---------------------------------------------------------------------------
# Points (also used as displacement vectors)


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if not isinstance(self.x, Fraction):
            object.__setattr__(self, "x", rat(self.x))
        if not isinstance(self.y, Fraction):
            object.__setattr__(self, "y", rat(self.y))

    def __add__(self, other: "Point") -> "Point":
        return _point(*_sum(_hom(self), _hom(other), 1))

    def __sub__(self, other: "Point") -> "Point":
        return _point(*_sum(_hom(self), _hom(other), -1))

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __rmul__(self, k: RationalLike) -> "Point":
        n, d = rat(k).as_integer_ratio()
        x, y, w = _hom(self)
        return _point(n * x, n * y, d * w)

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"

    def __getstate__(self) -> dict:
        return {"x": self.x, "y": self.y}


def cross(u: Point, v: Point) -> Fraction:
    """2D cross product of two displacement vectors."""
    x1, y1, w1 = _hom(u)
    x2, y2, w2 = _hom(v)
    return Fraction(x1 * y2 - y1 * x2, w1 * w2)


def dot(u: Point, v: Point) -> Fraction:
    x1, y1, w1 = _hom(u)
    x2, y2, w2 = _hom(v)
    return Fraction(x1 * x2 + y1 * y2, w1 * w2)


def dist2(p: Point, q: Point) -> Fraction:
    """Squared distance.  Plain distance would need a square root."""
    x, y, w = _sum(_hom(q), _hom(p), -1)
    return Fraction(x * x + y * y, w * w)


def midpoint(p: Point, q: Point) -> Point:
    x, y, w = _sum(_hom(p), _hom(q), 1)
    return _point(x, y, 2 * w)


def point_along(p: Point, q: Point, t: RationalLike) -> Point:
    """The point p + t*(q - p) of the line pq."""
    n, d = rat(t).as_integer_ratio()
    x1, y1, w1 = _hom(p)
    x2, y2, w2 = _hom(q)
    return _point((d - n) * x1 * w2 + n * x2 * w1, (d - n) * y1 * w2 + n * y2 * w1, d * w1 * w2)


def _area(p: Point, q: Point, r: Point) -> Tuple[int, int]:
    """cross(q - p, r - p) as an unreduced (numerator, positive denominator)."""
    x1, y1, w1 = _hom(p)
    x2, y2, w2 = _hom(q)
    x3, y3, w3 = _hom(r)
    return _det3(x1, y1, w1, x2, y2, w2, x3, y3, w3), w1 * w2 * w3


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of p-q-r: +1 anticlockwise, -1 clockwise, 0 collinear."""
    return sign(_area(p, q, r)[0])


# ---------------------------------------------------------------------------
# Exact complex numbers (spiral-similarity data)


@dataclass(frozen=True)
class ComplexScalar:
    """Complex number with exact rational real and imaginary parts.

    Spiral similarities are stored as these ratios; the rotation angle is
    the argument and the scale factor the modulus, but neither is ever
    materialized as a real number.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", rat(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", rat(self.im))

    def conj(self) -> "ComplexScalar":
        return ComplexScalar(self.re, -self.im)

    def __add__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _complex(*_sum(_hom_complex(self), _hom_complex(other), 1))

    def __sub__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _complex(*_sum(_hom_complex(self), _hom_complex(other), -1))

    def __neg__(self) -> "ComplexScalar":
        return ComplexScalar(-self.re, -self.im)

    def __mul__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _complex(*_times(_hom_complex(self), _hom_complex(other)))

    def __truediv__(self, other: "ComplexScalar") -> "ComplexScalar":
        return _complex(*_quotient(_hom_complex(self), _hom_complex(other)))

    def apply_to(self, v: Point) -> Point:
        """Multiply the displacement vector v by this complex number."""
        return _point(*_times(_hom_complex(self), _hom(v)))


def _hom_complex(z: ComplexScalar) -> _Triple:
    """Integers (X, Y, W), W > 0, with z = (X + Y*i)/W."""
    return _pair(z.re, z.im)


def _complex(x: int, y: int, w: int) -> ComplexScalar:
    return ComplexScalar(Fraction(x, w), Fraction(y, w))


def complex_ratio(u: Point, v: Point) -> ComplexScalar:
    """The complex number u / v, reading displacement vectors as complex."""
    return _complex(*_quotient(_hom(u), _hom(v)))


# ---------------------------------------------------------------------------
# Lines


def _cleared(*values: RationalLike) -> Tuple[int, ...]:
    """Scale a rational tuple by the lcm of its denominators to integers."""
    fracs = [rat(v) for v in values]
    den = lcm(*(v.denominator for v in fracs))
    return tuple(v.numerator * (den // v.denominator) for v in fracs)


def _canonical_ints(*ints: int) -> Tuple[int, ...]:
    """Divide an integer tuple, not all zero, by its gcd, signed so that the
    first nonzero entry is positive."""
    g = gcd(*ints)
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    if g == 1:
        return ints
    return tuple([v // g for v in ints])


@dataclass(frozen=True)
class Line:
    """Oriented locus a*x + b*y + c = 0, canonicalized on construction."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (type(a) is int and type(b) is int and type(c) is int):
            a, b, c = _cleared(a, b, c)
        if a == 0 and b == 0:
            raise Degenerate("line", "normal vector (a, b) is zero")
        a, b, c = _canonical_ints(a, b, c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def eval(self, p: Point) -> Fraction:
        """Signed residual of p in the line equation; zero iff p is on the line."""
        x, y, w = _hom(p)
        return Fraction(self.a * x + self.b * y + self.c * w, w)

    def __repr__(self) -> str:
        return f"Line({self.a}, {self.b}, {self.c})"


# ---------------------------------------------------------------------------
# Circles


@dataclass(frozen=True)
class Circle:
    """Monic circle x^2 + y^2 + d*x + e*y + f = 0."""

    d: Fraction
    e: Fraction
    f: Fraction

    def __post_init__(self):
        for name in ("d", "e", "f"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, rat(v))

    @classmethod
    def from_center_radius2(cls, center: Point, radius2: RationalLike) -> "Circle":
        r2 = rat(radius2)
        if r2 <= 0:
            raise Degenerate("circle", "radius squared must be positive")
        return cls(-2 * center.x, -2 * center.y, center.x * center.x + center.y * center.y - r2)

    @property
    def center(self) -> Point:
        d, e, _, v = _hom_circle(self)
        return _point(-d, -e, 2 * v)

    @property
    def radius2(self) -> Fraction:
        d, e, f, v = _hom_circle(self)
        return Fraction(d * d + e * e - 4 * f * v, 4 * v * v)

    def eval(self, p: Point) -> Fraction:
        """Power of the point p; zero iff p is on the circle."""
        return Fraction(*_power(p, self))

    def __repr__(self) -> str:
        return f"Circle({self.d}, {self.e}, {self.f})"


# ---------------------------------------------------------------------------
# Directed angles modulo pi


@dataclass(frozen=True)
class DirectedAngleClass:
    """Angle between two lines modulo pi, as the projective pair (cross : dot).

    Classes (u, v) and (k*u, k*v) are equal for any k != 0; canonicalization
    to a coprime integer pair makes that structural.
    """

    cross: int
    dot: int

    def __post_init__(self):
        u, v = self.cross, self.dot
        if not (type(u) is int and type(v) is int):
            u, v = _cleared(u, v)
        if u == 0 and v == 0:
            raise Degenerate("angle class", "(cross, dot) is zero")
        u, v = _canonical_ints(u, v)
        object.__setattr__(self, "cross", u)
        object.__setattr__(self, "dot", v)

    def __neg__(self) -> "DirectedAngleClass":
        return DirectedAngleClass(-self.cross, self.dot)


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
    x1, y1, w1 = _hom(p)
    x2, y2, w2 = _hom(q)
    a = y1 * w2 - y2 * w1
    b = x2 * w1 - x1 * w2
    if a == 0 and b == 0:
        raise CoincidentPoints(f"no unique line through {p} twice")
    return Line(a, b, x1 * y2 - x2 * y1)


def intersect_lines(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(identical=(l1 == l2))
    return Point(
        Fraction(l1.b * l2.c - l2.b * l1.c, det),
        Fraction(l2.a * l1.c - l1.a * l2.c, det),
    )


def parallel_through(p: Point, l: Line) -> Line:
    x, y, w = _hom(p)
    return Line(l.a * w, l.b * w, -(l.a * x + l.b * y))


def perpendicular_through(p: Point, l: Line) -> Line:
    x, y, w = _hom(p)
    return Line(l.b * w, -l.a * w, l.a * y - l.b * x)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    x1, y1, w1 = _hom(p)
    x2, y2, w2 = _hom(q)
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
    x, y, w = _hom(p)
    a, b = l.a, l.b
    n2 = a * a + b * b
    r = a * x + b * y + l.c * w
    den = w * n2
    return Point(Fraction(x * n2 - r * a, den), Fraction(y * n2 - r * b, den))


def spiral_ratio(m: Point, d: Point, side: Line) -> ComplexScalar:
    """Complex ratio (d - m) / (foot(m, side) - m) of the spiral similarity
    taking the pedal foot of m to d; its argument is the rotation angle and
    its modulus the scale."""
    a, b, c = side.a, side.b, side.c
    xm, ym, wm = _hom(m)
    xd, yd, wd = _hom(d)
    r = a * xm + b * ym + c * wm
    if r == 0:
        raise Degenerate("spiral ratio", "center lies on the side")
    if a * xd + b * yd + c * wd != 0:
        raise Degenerate("spiral ratio", "target point is not on the side")
    # foot - m = -r/(wm*(a^2 + b^2)) * (a + b*i), so the ratio is
    # -(d - m) * (a - b*i) * wm / r with d - m = (ux + uy*i) / (wd*wm).
    ux, uy = xd * wm - xm * wd, yd * wm - ym * wd
    den = -wd * r
    return _complex(ux * a + uy * b, uy * a - ux * b, den)


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    # Row i of the usual determinants, scaled by W_i^2 > 0; the common
    # factor cancels in each ratio.
    x1, y1, w1 = _hom(p)
    x2, y2, w2 = _hom(q)
    x3, y3, w3 = _hom(r)
    a1, b1, c1, s1 = x1 * w1, y1 * w1, w1 * w1, -(x1 * x1 + y1 * y1)
    a2, b2, c2, s2 = x2 * w2, y2 * w2, w2 * w2, -(x2 * x2 + y2 * y2)
    a3, b3, c3, s3 = x3 * w3, y3 * w3, w3 * w3, -(x3 * x3 + y3 * y3)
    det = _det3(a1, b1, c1, a2, b2, c2, a3, b3, c3)
    if det == 0:
        raise CollinearPoints("no circle through collinear points")
    return Circle(
        Fraction(_det3(s1, b1, c1, s2, b2, c2, s3, b3, c3), det),
        Fraction(_det3(a1, s1, c1, a2, s2, c2, a3, s3, c3), det),
        Fraction(_det3(a1, b1, s1, a2, b2, s2, a3, b3, s3), det),
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
    px, py, w = _hom(x)
    d, e, _, v = _hom_circle(c)
    # t = -n / (v * w * (a^2 + b^2)) is the second root.
    n = 2 * v * (px * b - py * a) + w * (d * b - e * a)
    if n == 0:
        return x, True
    n2 = v * (a * a + b * b)
    den = w * n2
    return Point(Fraction(px * n2 - n * b, den), Fraction(py * n2 + n * a, den)), False


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
    d1, e1, f1, v1 = _hom_circle(c1)
    d2, e2, f2, v2 = _hom_circle(c2)
    radical_axis = Line(d1 * v2 - d2 * v1, e1 * v2 - e2 * v1, f1 * v2 - f2 * v1)
    return second_intersection_circle_line(c1, radical_axis, x)


def polar_of_point(p: Point, c: Circle) -> Line:
    x, y, w = _hom(p)
    d, e, f, v = _hom_circle(c)
    a = 2 * v * x + d * w
    b = 2 * v * y + e * w
    if a == 0 and b == 0:
        raise CenterDegenerate("polar of the center is the line at infinity")
    return Line(a, b, d * x + e * y + 2 * f * w)


def pole_of_line(l: Line, c: Circle) -> Point:
    d, e, f, v = _hom_circle(c)
    denom = d * l.a + e * l.b - 2 * v * l.c
    if denom == 0:
        raise CenterDegenerate("pole of a line through the center is at infinity")
    r = d * d + e * e - 4 * f * v  # 4 * v^2 * radius2
    den = 2 * v * denom
    return Point(Fraction(r * l.a - d * denom, den), Fraction(r * l.b - e * denom, den))


def isogonal_conjugate(p: Point, a: Point, b: Point, c: Point) -> Point:
    """Isogonal conjugate of p in triangle abc.

    Exact barycentric map (x : y : z) -> (la/x : lb/y : lc/z) with la, lb, lc
    the squared side lengths.  Undefined on the sidelines (a coordinate
    vanishes) and on the circumcircle (the image is at infinity).
    """
    xa, ya, wa = _hom(a)
    xb, yb, wb = _hom(b)
    xc, yc, wc = _hom(c)
    xp, yp, wp = _hom(p)
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
    return Point(Fraction(ku * xa + kv * xb + kw * xc, s), Fraction(ku * ya + kv * yb + kw * yc, s))


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
    point asked about are built on first use and cached on the instance, as
    ``_hom`` is on a Point: equality, hashing, ``repr``, ``replace``, copies
    and pickles ignore them.  Simson lines are keyed on the point's ``_hom``
    triple, which hashes without the modular inverse a Fraction hash takes."""

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
        key = _hom(p)
        line = memo.get(key)
        if line is None:
            line = memo[key] = simson_line(p, self)
        return line

    def __getstate__(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# ---------------------------------------------------------------------------
# Predicates (exact determinant / dot / cross sign tests; no tolerances)


def on_line(p: Point, l: Line) -> bool:
    x, y, w = _hom(p)
    return l.a * x + l.b * y + l.c * w == 0


def _power(p: Point, c: Circle) -> Tuple[int, int]:
    """Power of p with respect to c as an unreduced (numerator, denominator)."""
    x, y, w = _hom(p)
    d, e, f, v = _hom_circle(c)
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
        x, y, w = _hom(p)
        return _point(*_sum(_times(_hom_complex(self.alpha), (x, -y, w)), _hom_complex(self.beta), 1))


def inverse_similarity_map(src1: Point, dst1: Point, src2: Point, dst2: Point) -> InverseSimilarity:
    """The unique orientation-reversing similarity sending src1 -> dst1 and
    src2 -> dst2."""
    if src1 == src2:
        raise CoincidentPoints("similarity needs two distinct source points")
    x1, y1, w1 = _hom(src1)
    x2, y2, w2 = _hom(src2)
    zs1 = (x1, -y1, w1)  # conj(src1)
    zd1 = _hom(dst1)
    alpha = _quotient(_sum(zd1, _hom(dst2), -1), _sum(zs1, (x2, -y2, w2), -1))
    beta = _sum(zd1, _times(alpha, zs1), -1)
    return InverseSimilarity(_complex(*alpha), _complex(*beta))
