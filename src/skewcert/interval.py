"""Minimal interval arithmetic with outward rounding.

Endpoints are ordinary doubles.  Every operation nudges its result
endpoints outward with ``math.nextafter`` so the returned interval
contains the exact image of the inputs; directed rounding modes are not
assumed.  The trig enclosure `_fast_sincos_pair` works on arguments
measured in *turns* (periods): over [0.25, 0.25] it encloses sin(pi/2),
and the argument reduction x mod 1 is exact for |x| < 2^52.
"""

from __future__ import annotations

import math

_INF = math.inf

# 2*pi rounded to the nearest double
PI2_HI = 6.283185307179586

# beyond 2^50 turns the critical-point lattice k +/- 1/4 stops being
# exactly representable; the enclosure degrades to [-1, 1]
_TURN_LIMIT = 2.0 ** 50


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:  # also rejects NaN endpoints
            raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- queries ------------------------------------------------------

    def width(self) -> float:
        return _up(self.hi - self.lo)

    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def abs_lower_bound(self) -> float:
        """Largest m with |x| >= m for all x in the interval (0 if it spans 0)."""
        if self.lo > 0.0:
            return self.lo
        if self.hi < 0.0:
            return -self.hi
        return 0.0

    def mag(self) -> float:
        """Upper bound for |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p1 = a * c
        p2 = a * d
        p3 = b * c
        p4 = b * d
        return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError("interval division by an interval containing 0")
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        q1 = a / c
        q2 = a / d
        q3 = b / c
        q4 = b / d
        return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))

    def scale(self, c: float) -> "Interval":
        """Multiply by an exact scalar."""
        if c >= 0.0:
            return Interval(_down(self.lo * c), _up(self.hi * c))
        return Interval(_down(self.hi * c), _up(self.lo * c))

    def shift(self, c: float) -> "Interval":
        """Add an exact scalar."""
        return Interval(_down(self.lo + c), _up(self.hi + c))

    def scale_div(self, c: float) -> "Interval":
        """Divide by an exact positive scalar."""
        if c <= 0.0:
            raise ValueError("scale_div wants a positive divisor")
        return Interval(_down(self.lo / c), _up(self.hi / c))

    def widen(self, r: float) -> "Interval":
        """Pad both endpoints outward by r >= 0."""
        if r < 0.0:
            raise ValueError("widen radius must be nonnegative")
        return Interval(_down(self.lo - r), _up(self.hi + r))

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; valid when both sides enclose the same exact set."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError(f"empty intersection of {self} and {other}")
        return Interval(lo, hi)

    def pow_int(self, n: int) -> "Interval":
        """self**n for integer n >= 0, by repeated interval squaring."""
        if n < 0:
            raise ValueError("pow_int wants n >= 0")
        acc = Interval(1.0, 1.0)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def bisect(self) -> tuple["Interval", "Interval"]:
        """Split at the midpoint; the two halves cover the interval."""
        if self.width() <= 0.0 or self.lo == self.hi:
            raise ValueError("cannot bisect a degenerate interval")
        m = self.mid()
        if m <= self.lo or m >= self.hi:
            raise ValueError("no representable split point")
        return Interval(self.lo, m), Interval(m, self.hi)


# -- trig kernel ------------------------------------------------------
#
# The one trig enclosure: the certifier's margins are 1e-2..1e-4, so it
# skips any argument correction and pays with a 2e-15 absolute pad
# (worst-case residue rounding for negative arguments is ~7e-16, libm and
# argument rounding ~5e-16).

_FAST_PAD = 2e-15


def _fast_sincos_turn(r: float) -> tuple[float, float]:
    """sin(2 pi r) and cos(2 pi r) for r in [0, 1], folded to [0, 1/4]."""
    sin = math.sin
    if r <= 0.25:
        s = sin(PI2_HI * r)
    elif r <= 0.5:
        s = sin(PI2_HI * (0.5 - r))
    elif r <= 0.75:
        s = -sin(PI2_HI * (r - 0.5))
    else:
        s = -sin(PI2_HI * (1.0 - r))
    if r < 0.25:
        c = math.cos(PI2_HI * r)
    elif r <= 0.5:
        c = -sin(PI2_HI * (r - 0.25))
    elif r <= 0.75:
        c = -math.cos(PI2_HI * (r - 0.5))
    else:
        c = sin(PI2_HI * (r - 0.75))
    return s, c


def _fast_sincos_pair(lo: float, hi: float) -> tuple[float, float, float, float]:
    """Enclosure endpoints (sin_lo, sin_hi, cos_lo, cos_hi) of sin(2 pi .)
    and cos(2 pi .) over [lo, hi], each padded by `_FAST_PAD`.

    One floor per endpoint reduces it for both functions.  As hi - lo < 1,
    a critical point m + c (c = 0, 1/4, 1/2 or 3/4) lies in [lo, hi] only
    for m = floor(lo) or floor(lo) + 1, and both are tested exactly.
    """
    if not hi - lo < 1.0 or lo <= -_TURN_LIMIT or hi >= _TURN_LIMIT:
        return (-1.0, 1.0, -1.0, 1.0)
    n = math.floor(lo)
    s_lo, c_lo = _fast_sincos_turn(lo - n)
    s_hi, c_hi = _fast_sincos_turn(hi - math.floor(hi))
    if s_lo > s_hi:
        s_lo, s_hi = s_hi, s_lo
    if c_lo > c_hi:
        c_lo, c_hi = c_hi, c_lo
    s_lo -= _FAST_PAD
    s_hi += _FAST_PAD
    c_lo -= _FAST_PAD
    c_hi += _FAST_PAD
    if lo <= n + 0.25 <= hi or n + 1.25 <= hi or s_hi > 1.0:
        s_hi = 1.0
    if lo <= n + 0.75 <= hi or n + 1.75 <= hi or s_lo < -1.0:
        s_lo = -1.0
    if lo <= n or n + 1 <= hi or c_hi > 1.0:
        c_hi = 1.0
    if lo <= n + 0.5 <= hi or n + 1.5 <= hi or c_lo < -1.0:
        c_lo = -1.0
    return (s_lo, s_hi, c_lo, c_hi)


# rigorous enclosure of 2*pi
TWO_PI = Interval(_down(PI2_HI), _up(PI2_HI))
