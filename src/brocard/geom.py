"""Exact rational plane-geometry kernel.

Every coordinate and every derived quantity is an exact rational.  There
is no epsilon and no floating point anywhere in this module: a point lies
on a circle iff the defining polynomial vanishes exactly, so every
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
* An angle between two lines modulo pi is the raw pair (cross, dot) of
  ``_angle`` or ``_angle_at``, and a complex ratio the raw triple of
  ``_sum``, ``_times`` or ``_quotient``; ``ComplexScalar`` is the stored
  form of a ratio that is kept.  Arc measures and inverse trigonometric
  functions are never computed.
* Reduced where kept or written; raw for one meet or one comparison.
  Each raw helper returns an unreduced integer tuple, and on a degenerate
  input raises the exception class, with the same message, that the
  public function reducing it raises: ``_join`` the line of
  ``line_through``; ``_meet``, ``_center``, ``_foot`` and ``_isogonal``
  the points of ``intersect_lines``, ``Circle.center``,
  ``foot_perpendicular`` and ``isogonal_conjugate``; ``_spiral`` the ratio
  of ``spiral_ratio``; ``_circle_through`` and ``_circumcenter`` the
  circle of ``circumcircle`` and its center.  The others have no public
  form: ``_image`` the image under an ``InverseSimilarity``,
  ``_parallel``, ``_perpendicular`` and ``_bisector`` the parallel and
  perpendicular through a point and the perpendicular bisector, ``_polar``
  the polar of a point, ``_antipode`` a point reflected in a circle's
  center, ``_midpoint`` the midpoint, ``_angle`` and ``_angle_at`` the
  (cross, dot) of two lines and of the two lines through a vertex, and
  ``_concyclic`` an incidence with the circle through three points,
  decided on their cross ratio.  A line that feeds one meet, and a point,
  ratio, angle or circle built for one comparison, stays raw: the meet is
  reduced once, and an incidence or an equality of two angles or values
  decides on the raw tuples (by a scale-invariant residual or by
  cross-multiplication).  A value kept, reused or written is reduced.
* Every value class of the package is a frozen record (``_record``): a
  plain value that compares, hashes and prints by its annotated fields and
  refuses assignment, copying and pickling.  It answers
  ``dataclasses.fields`` and ``replace``, and only such a call loads
  ``dataclasses``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter
from typing import Tuple, Union

RationalLike = Union[int, str, Fraction]


# ---------------------------------------------------------------------------
# Errors


class GeometryError(Exception):
    """A degenerate input, named by the message; every caller catches it.
    Its two subclasses are for callers that tell them apart: ``pipeline``
    catches ``ParallelLines`` where a meet at infinity is an answer, and
    ``Degenerate.name`` names the construction that broke.  A failure of
    the algorithm is ``pipeline.InternalInconsistencyError`` instead."""


class ParallelLines(GeometryError):
    """Two lines have no finite meet."""


class Degenerate(GeometryError):
    """A named construction failed; ``name`` identifies what broke."""

    def __init__(self, name: str, message: str = ""):
        super().__init__(f"{name}: {message}" if message else name)
        self.name = name


# ---------------------------------------------------------------------------
# Records
#
# ``import dataclasses`` loads ``inspect``, ``ast`` and ``dis``, and the
# decorator compiles every generated method with ``exec``, at each start of
# a command and with or without a bytecode cache.  ``_record`` builds the
# few methods the package uses from closures instead, and leaves the field
# table to the decorator itself, run on first introspection.


class _FieldTable:
    """A record's ``__dataclass_fields__``: on first access, the field table
    of the frozen dataclass made by ``dataclasses.dataclass`` from the
    record's annotations and defaults, stored over this descriptor.  Its
    users are ``perfbench``'s tracer, which reads ``dataclasses.fields`` of
    each configuration, and the tests, which build variants of a record
    with ``dataclasses.replace``."""

    def __init__(self, defaults: dict):
        self.defaults = defaults

    def __get__(self, obj, cls):
        import dataclasses

        body = {"__annotations__": cls.__annotations__, "__module__": cls.__module__, "__qualname__": cls.__qualname__}
        body.update(self.defaults)
        table = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body)).__dataclass_fields__
        cls.__dataclass_fields__ = table
        return table


def _record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order:
    equality, hashing and ``repr`` read the field tuple, assignment and
    deletion raise ``AttributeError``, copying and pickling raise
    ``TypeError``, and ``__init__`` takes the fields by position or
    keyword, fills defaults, then calls ``__post_init__`` if the class has
    one.  A method the class defines itself is kept, and a class
    with ``__slots__`` defines its ``__init__``; any other stores its fields
    in its ``__dict__``."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__ and "__slots__" not in cls.__dict__}
    accepted = frozenset(names)
    values = attrgetter(*names)
    key = values if len(names) > 1 else lambda self: (values(self),)
    qualname = cls.__qualname__
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise _argument_error(qualname, names, args, kwargs)
            kwargs.update(zip(names, args))
        if not kwargs.keys() <= accepted:
            raise _argument_error(qualname, names, (), kwargs)
        if len(kwargs) < len(names):
            for name in names:
                if name not in kwargs:
                    if name not in defaults:
                        raise TypeError(f"{qualname}() missing argument {name!r}")
                    kwargs[name] = defaults[name]
        self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce_ex__(self, protocol):
        raise TypeError(f"{qualname} is an immutable value: share it instead of copying or pickling it")

    for method in (__init__, __eq__, __repr__, __setattr__, __delattr__, __reduce_ex__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{qualname}.{method.__name__}"
            setattr(cls, method.__name__, method)
    if cls.__dict__.get("__hash__") is None:  # None when the class defines __eq__
        cls.__hash__ = __hash__
    cls.__dataclass_fields__ = _FieldTable(defaults)
    return cls


def _argument_error(qualname: str, names: Tuple[str, ...], args: tuple, kwargs: dict) -> TypeError:
    if len(args) > len(names):
        return TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
    name = next(name for name in kwargs if name not in names or names.index(name) < len(args))
    why = "multiple values for argument" if name in names else "an unexpected keyword argument"
    return TypeError(f"{qualname}() got {why} {name!r}")


# ---------------------------------------------------------------------------
# Scalars


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like ``"-3/7"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _det3(a, b, c, d, e, f, g, h, i):
    """3x3 determinant of ints or Fractions, by rows."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# Points, complex numbers and circles store the integer tuple ``h``
# described above and nothing else.  The constructions and the predicates
# below compute with plain ints on these tuples and reduce each output
# tuple once, by one gcd, in ``_reduced``: Fraction arithmetic reduces by
# gcd on every operation, which dominates at the coordinate sizes scenes
# reach.  Equality and hashing compare the tuples.  Lines are
# canonicalized once the same way: the constructor makes one pass through
# ``_canonical_ints`` and sets its integer fields once.  Only
# what is kept or written is reduced: each public construction reduces a
# raw helper's output, which a single meet or comparison reads instead.

_Triple = Tuple[int, int, int]
_Quadruple = Tuple[int, int, int, int]


def _integers(*values: RationalLike) -> Tuple[int, ...]:
    """The coprime integers (N_1, ..., N_k, W) with values[i] = N_i / W and
    W > 0 the lcm of the denominators of the values in lowest terms."""
    return _over_lcm([(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in values])


def _over_lcm(ratios) -> Tuple[int, ...]:
    """``_integers`` of the rationals n / d given as lowest-terms pairs
    (n, d), d > 0.  Scaled to their lcm W, the entries and W are coprime."""
    w = lcm(*[d for _, d in ratios])
    return (*[n * (w // d) for n, d in ratios], w)


def _from_ratios(cls, *ratios: Tuple[int, int]):
    """The ``cls`` value of the rationals n / d, given as lowest-terms pairs
    (n, d), d > 0: the ``cls(...)`` of those values, built without a
    ``Fraction`` or a gcd."""
    value = object.__new__(cls)
    _set_h[cls](value, _over_lcm(ratios))
    return value


def _reduced(cls, *ints: int):
    """The ``cls`` value storing ints, whose last entry is nonzero, divided
    by their gcd and signed so that the last entry is positive."""
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    value = object.__new__(cls)
    _set_h[cls](value, ints if g == 1 else tuple([v // g for v in ints]))
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


@_record
class Point:
    __slots__ = ("h",)
    h: _Triple

    def __init__(self, x: RationalLike, y: RationalLike):
        _set_h[Point](self, _integers(x, y))

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

    def __eq__(self, other) -> bool:
        if other.__class__ is Point:
            return self.h == other.h
        return NotImplemented

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def dist2(p: Point, q: Point) -> Fraction:
    """Squared distance.  Plain distance would need a square root."""
    x, y, w = _sum(q.h, p.h, -1)
    return Fraction(x * x + y * y, w * w)


def _midpoint(p: Point, q: Point) -> _Triple:
    """The unreduced coordinates of the midpoint of p and q."""
    x, y, w = _sum(p.h, q.h, 1)
    return x, y, 2 * w


def _area(p: Point, q: Point, r: Point) -> Tuple[int, int]:
    """cross(q - p, r - p) as an unreduced (numerator, positive denominator)."""
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    x3, y3, w3 = r.h
    return _det3(x1, y1, w1, x2, y2, w2, x3, y3, w3), w1 * w2 * w3


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of p-q-r: +1 anticlockwise, -1 clockwise, 0 collinear."""
    det = _area(p, q, r)[0]
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# Exact complex numbers (spiral-similarity data)


@_record
class ComplexScalar:
    """Complex number with exact rational real and imaginary parts.

    Spiral similarities are stored as these ratios; the rotation angle is
    the argument and the scale factor the modulus, but neither is ever
    materialized as a real number.
    """

    __slots__ = ("h",)
    h: _Triple

    def __init__(self, re: RationalLike, im: RationalLike):
        _set_h[ComplexScalar](self, _integers(re, im))

    re = _view(0)
    im = _view(1)


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


@_record
class Line:
    """Oriented locus a*x + b*y + c = 0, canonicalized on construction."""

    __slots__ = ("a", "b", "c")
    a: int
    b: int
    c: int

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike):
        a, b, c = _canonical_ints("line", "normal vector (a, b) is zero", a, b, c)
        _line_a(self, a)
        _line_b(self, b)
        _line_c(self, c)

    def __iter__(self):
        """The coefficients (a, b, c), as a raw helper returns them."""
        return iter((self.a, self.b, self.c))

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


@_record
class Circle:
    """Monic circle x^2 + y^2 + d*x + e*y + f = 0."""

    __slots__ = ("h",)
    h: _Quadruple

    def __init__(self, d: RationalLike, e: RationalLike, f: RationalLike):
        _set_h[Circle](self, _integers(d, e, f))

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
        return _reduced(Point, *_center(self.h))

    @property
    def radius2(self) -> Fraction:
        d, e, f, v = self.h
        return Fraction(d * d + e * e - 4 * f * v, 4 * v * v)

    def eval(self, p: Point) -> Fraction:
        """Power of the point p; zero iff p is on the circle."""
        return Fraction(*_power(p, self.h))

    def __repr__(self) -> str:
        return f"Circle({self.d}, {self.e}, {self.f})"


def _center(h: _Quadruple) -> _Triple:
    """The unreduced center of the circle with coefficients h = (d, e, f, v)."""
    d, e, _, v = h
    return -d, -e, 2 * v


# The slot setter of ``h`` for each class that stores an integer tuple:
# ``_reduced`` and the constructors set ``h`` through it, as ``Line`` does.
_set_h = {cls: cls.h.__set__ for cls in (Point, ComplexScalar, Circle)}


# ---------------------------------------------------------------------------
# Directed angles modulo pi, as raw (cross, dot) pairs


def _angle(l1, l2) -> Tuple[int, int]:
    """The unreduced (cross, dot) of the normals of two lines, each a
    ``Line`` or a raw coefficient triple."""
    a1, b1, _ = l1
    a2, b2, _ = l2
    return a1 * b2 - a2 * b1, a1 * a2 + b1 * b2


def _angle_at(vertex: Point, p: Point, q: Point) -> Tuple[int, int]:
    """The unreduced (cross, dot) of the directions p - vertex and
    q - vertex: those of the normals of lines vertex-p and vertex-q, each
    normal being its direction turned by a right angle."""
    dx1, dy1, _ = _sum(p.h, vertex.h, -1)
    dx2, dy2, _ = _sum(q.h, vertex.h, -1)
    if not (dx1 or dy1) or not (dx2 or dy2):
        raise GeometryError(f"no unique line through {vertex} twice")
    return dx1 * dy2 - dy1 * dx2, dx1 * dx2 + dy1 * dy2


# ---------------------------------------------------------------------------
# Constructions


def _join(p: Point, q: Point) -> _Triple:
    """The unreduced coefficients of the line through p and q."""
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    a = y1 * w2 - y2 * w1
    b = x2 * w1 - x1 * w2
    if a == 0 and b == 0:
        raise GeometryError(f"no unique line through {p} twice")
    return a, b, x1 * y2 - x2 * y1


def line_through(p: Point, q: Point) -> Line:
    return Line(*_join(p, q))


def _meet(l1, l2) -> _Triple:
    """The unreduced meet of two lines, each a ``Line`` or a raw triple."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ParallelLines("lines are parallel")
    return b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, det


def intersect_lines(l1, l2) -> Point:
    """The meet of two lines, each a ``Line`` or a raw triple."""
    return _reduced(Point, *_meet(l1, l2))


def _parallel(p: Point, l: Line) -> _Triple:
    """The unreduced coefficients of the parallel to l through p."""
    x, y, w = p.h
    return l.a * w, l.b * w, -(l.a * x + l.b * y)


def _perpendicular(p: Point, l: Line) -> _Triple:
    """The unreduced coefficients of the perpendicular to l through p."""
    x, y, w = p.h
    return l.b * w, -l.a * w, l.a * y - l.b * x


def _bisector(p: Point, q: Point) -> _Triple:
    """The unreduced coefficients of the perpendicular bisector of pq."""
    x1, y1, w1 = p.h
    x2, y2, w2 = q.h
    dx = x2 * w1 - x1 * w2
    dy = y2 * w1 - y1 * w2
    if dx == 0 and dy == 0:
        raise GeometryError("perpendicular bisector of a point with itself")
    w12 = w1 * w2
    return 2 * dx * w12, 2 * dy * w12, (x1 * x1 + y1 * y1) * w2 * w2 - (x2 * x2 + y2 * y2) * w1 * w1


def _foot(p: Point, a: int, b: int, c: int) -> _Triple:
    """The unreduced foot of p on the line a*x + b*y + c = 0."""
    x, y, w = p.h
    n2 = a * a + b * b
    r = a * x + b * y + c * w
    return x * n2 - r * a, y * n2 - r * b, w * n2


def foot_perpendicular(p: Point, l: Line) -> Point:
    return _reduced(Point, *_foot(p, l.a, l.b, l.c))


def _spiral(m: Point, d: Point, side) -> _Triple:
    """The unreduced ``spiral_ratio``; side is a ``Line`` or a raw triple."""
    a, b, c = side
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
    return ux * a + uy * b, uy * a - ux * b, -wd * r


def spiral_ratio(m: Point, d: Point, side: Line) -> ComplexScalar:
    """Complex ratio (d - m) / (foot(m, side) - m) of the spiral similarity
    taking the pedal foot of m to d; its argument is the rotation angle and
    its modulus the scale."""
    return _reduced(ComplexScalar, *_spiral(m, d, side))


def _circle_terms(p: Point, q: Point, r: Point):
    """The unreduced (d, e, v) of the circle through p, q, r, and the rows
    (x*w, y*w, w*w, -(x^2 + y^2)) they are determinants of: the usual rows
    scaled by W^2 > 0, a factor that cancels in each ratio."""
    rows = [(x * w, y * w, w * w, -(x * x + y * y)) for x, y, w in (p.h, q.h, r.h)]
    (a1, b1, c1, s1), (a2, b2, c2, s2), (a3, b3, c3, s3) = rows
    v = _det3(a1, b1, c1, a2, b2, c2, a3, b3, c3)
    if v == 0:
        raise GeometryError("no circle through collinear points")
    return _det3(s1, b1, c1, s2, b2, c2, s3, b3, c3), _det3(a1, s1, c1, a2, s2, c2, a3, s3, c3), v, rows


def _circle_through(p: Point, q: Point, r: Point) -> _Quadruple:
    """The unreduced coefficients (d, e, f, v) of the circle through p, q, r."""
    d, e, v, ((a1, b1, _, s1), (a2, b2, _, s2), (a3, b3, _, s3)) = _circle_terms(p, q, r)
    return d, e, _det3(a1, b1, s1, a2, b2, s2, a3, b3, s3), v


def _circumcenter(p: Point, q: Point, r: Point) -> _Triple:
    """The unreduced center of the circle through p, q, r, from three determinants."""
    d, e, v, _ = _circle_terms(p, q, r)
    return -d, -e, 2 * v


def _concyclic(p: Point, q: Point, r: Point, m: Point) -> int:
    """Zero iff m lies on the circle through p, q and r, as their cross
    ratio is then real: Im[(p - q)(m - r) * conj((p - r)(m - q))], at a
    positive scale.  Raises as ``_circle_through``."""
    if _area(p, q, r)[0] == 0:
        raise GeometryError("no circle through collinear points")
    ux, uy, _ = _times(_sum(p.h, q.h, -1), _sum(m.h, r.h, -1))
    vx, vy, _ = _times(_sum(p.h, r.h, -1), _sum(m.h, q.h, -1))
    return uy * vx - ux * vy


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    return _reduced(Circle, *_circle_through(p, q, r))


def circle_through_tangent(t: Point, l: Line, p: Point) -> Circle:
    """Circle through p tangent to l at t (the degenerate limit of a circumcircle
    as one defining point slides into t along l)."""
    if not on_line(t, l):
        raise Degenerate("tangent circle", "tangency point is not on the line")
    if p == t:
        raise Degenerate("tangent circle", "third point coincides with tangency point")
    if on_line(p, l):
        raise Degenerate("tangent circle", "third point lies on the tangent line")
    center = _reduced(Point, *_meet(_perpendicular(t, l), _bisector(t, p)))
    return Circle.from_center_radius2(center, dist2(center, t))


def tangent_line(c: Circle, p: Point) -> Line:
    """Tangent to c at a point of c (the polar of a point on the circle)."""
    if not on_circle(p, c):
        raise GeometryError(f"{p} is not on {c}")
    return Line(*_polar(p, c))


def _antipode(p: Point, c: Circle) -> _Triple:
    """The unreduced 2 * center - p, with center = (-d, -e) / (2v); p on c is not tested."""
    x, y, w = p.h
    d, e, _, v = c.h
    return -d * w - x * v, -e * w - y * v, v * w


def second_intersection_circle_line(c: Circle, l: Line, x: Point) -> Tuple[Point, bool]:
    """Other intersection of c and l given the known common point x.

    Parametrizes l as x + t*(b, -a); the quadratic in t has the known root
    t = 0, so Vieta gives the second root directly.  Returns (point, tangent)
    where tangent is True iff l touches c at x (double root).
    """
    if not on_line(x, l):
        raise GeometryError(f"{x} is not on {l}")
    if not on_circle(x, c):
        raise GeometryError(f"{x} is not on {c}")
    return _second_meet(c.h, l.a, l.b, x)


def _second_meet(h: _Quadruple, a: int, b: int, x: Point) -> Tuple[Point, bool]:
    """Vieta's second root on the line through x with normal (a, b), nonzero,
    of the circle h = (d, e, f, v) through x; h and (a, b) at any scale."""
    px, py, w = x.h
    d, e, _, v = h
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
    rest.  Returns (point, tangent).  The axis normal is nonzero: distinct
    circles through one common point are not concentric.
    """
    if c1 == c2:
        raise GeometryError("second intersection of a circle with itself")
    if not on_circle(x, c1):
        raise GeometryError(f"{x} is not on {c1}")
    if not on_circle(x, c2):
        raise GeometryError(f"{x} is not on {c2}")
    return _second_common(c1.h, c2.h, x)


def _second_common(h1: _Quadruple, h2: _Quadruple, x: Point) -> Tuple[Point, bool]:
    """``second_intersection_circles`` on raw coefficients of circles built through x."""
    d1, e1, _, v1 = h1
    d2, e2, _, v2 = h2
    a, b = d1 * v2 - d2 * v1, e1 * v2 - e2 * v1
    if a == 0 and b == 0:  # concentric circles through x coincide
        raise GeometryError("second intersection of a circle with itself")
    return _second_meet(h1, a, b, x)


def _polar(p: Point, c: Circle) -> _Triple:
    """The unreduced coefficients of the polar of p in c."""
    x, y, w = p.h
    d, e, f, v = c.h
    a = 2 * v * x + d * w
    b = 2 * v * y + e * w
    if a == 0 and b == 0:
        raise GeometryError("polar of the center is the line at infinity")
    return a, b, d * x + e * y + 2 * f * w


def pole_of_line(l: Line, c: Circle) -> Point:
    d, e, f, v = c.h
    denom = d * l.a + e * l.b - 2 * v * l.c
    if denom == 0:
        raise GeometryError("pole of a line through the center is at infinity")
    r = d * d + e * e - 4 * f * v  # 4 * v^2 * radius2
    return _reduced(Point, r * l.a - d * denom, r * l.b - e * denom, 2 * v * denom)


def _isogonal(p: Point, a: Point, b: Point, c: Point) -> _Triple:
    """The unreduced ``isogonal_conjugate``."""
    xa, ya, wa = a.h
    xb, yb, wb = b.h
    xc, yc, wc = c.h
    xp, yp, wp = p.h
    # Signed areas times the positive W products: the orientation of abc
    # and the barycentrics (u : v : w) of p.
    if _det3(xa, ya, wa, xb, yb, wb, xc, yc, wc) == 0:
        raise GeometryError("degenerate reference triangle")
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
    return ku * xa + kv * xb + kw * xc, ku * ya + kv * yb + kw * yc, s


def isogonal_conjugate(p: Point, a: Point, b: Point, c: Point) -> Point:
    """Isogonal conjugate of p in triangle abc.

    Exact barycentric map (x : y : z) -> (la/x : lb/y : lc/z) with la, lb, lc
    the squared side lengths.  Undefined on the sidelines (a coordinate
    vanishes) and on the circumcircle (the image is at infinity).
    """
    return _reduced(Point, *_isogonal(p, a, b, c))


def simson_line(p: Point, tri: "Triangle") -> Line:
    """Line through the three pedal feet of p on the sidelines of tri,
    defined only for p on its circumcircle."""
    if not on_circle(p, tri.circumcircle):
        raise GeometryError(f"{p} is not on the circumcircle")
    feet = [_foot(p, *side) for side in tri.sides]  # raw, with W > 0
    x1, y1, w1 = feet[0]
    joins = [(y1 * w2 - y2 * w1, x2 * w1 - x1 * w2, x1 * y2 - x2 * y1) for x2, y2, w2 in feet[1:]]
    a, b, c = next((j for j in joins if j[0] or j[1]), joins[-1])
    if not (a or b):
        raise Degenerate("simson line", "all pedal feet coincide")
    l = Line(a, b, c)
    if any(l.a * x + l.b * y + l.c * w for x, y, w in feet):
        raise Degenerate("simson line", "pedal feet are not collinear")
    return l


@_record
class Triangle:
    """Triangle abc.  Its sidelines, circumcircle and the Simson line of each
    point asked about are built on first use and cached in the instance
    ``__dict__``, keyed on the point for Simson lines: equality, hashing,
    ``repr`` and ``replace`` ignore them."""

    a: Point
    b: Point
    c: Point

    def __init__(self, a: Point, b: Point, c: Point):
        self.__dict__.update(a=a, b=b, c=c)

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


# ---------------------------------------------------------------------------
# Predicates (exact determinant / dot / cross sign tests; no tolerances)


def on_line(p: Point, l: Line) -> bool:
    x, y, w = p.h
    return l.a * x + l.b * y + l.c * w == 0


def _power(p: Point, h: _Quadruple) -> Tuple[int, int]:
    """Power of p with respect to the circle of coefficients h = (d, e, f, v),
    at any nonzero scale, as an unreduced (numerator, denominator)."""
    x, y, w = p.h
    d, e, f, v = h
    return v * (x * x + y * y) + w * (d * x + e * y + f * w), v * w * w


def on_circle(p: Point, c: Circle) -> bool:
    return _power(p, c.h)[0] == 0


def collinear_det(p: Point, q: Point, r: Point) -> Fraction:
    return Fraction(*_area(p, q, r))


def parallel(l1: Line, l2: Line) -> bool:
    return l1.a * l2.b - l2.a * l1.b == 0


# ---------------------------------------------------------------------------
# Orientation-reversing similarities


@_record
class InverseSimilarity:
    """The map z -> alpha * conj(z) + beta on points read as complex numbers.

    Orientation-reversing: it sends anticlockwise triangles to clockwise ones.
    """

    alpha: ComplexScalar
    beta: ComplexScalar


def _image(sim: InverseSimilarity, p: Point) -> _Triple:
    """The unreduced image of p under sim."""
    x, y, w = p.h
    return _sum(_times(sim.alpha.h, (x, -y, w)), sim.beta.h, 1)


def inverse_similarity_map(src1: Point, dst1: Point, src2: Point, dst2: Point) -> InverseSimilarity:
    """The unique orientation-reversing similarity sending src1 -> dst1 and
    src2 -> dst2."""
    if src1 == src2:
        raise GeometryError("similarity needs two distinct source points")
    x1, y1, w1 = src1.h
    x2, y2, w2 = src2.h
    zs1 = (x1, -y1, w1)  # conj(src1)
    zd1 = dst1.h
    alpha = _quotient(_sum(zd1, dst2.h, -1), _sum(zs1, (x2, -y2, w2), -1))
    beta = _sum(zd1, _times(alpha, zs1), -1)
    return InverseSimilarity(_reduced(ComplexScalar, *alpha), _reduced(ComplexScalar, *beta))
