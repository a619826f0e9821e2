"""Enclosed evaluation of the slope series S(x, u) and its x-derivative
(as prefix-sum chains), the Weierstrass tail radius, and finite-word
combinatorics.

All rigorous evaluation works on `Interval` arguments so point and cell
queries share one code path.  The driving function psi is a zero-mean
trigonometric polynomial: psi and psi' then have closed forms and certified
sup-norm bounds, which feed every truncation-tail radius used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .interval import TWO_PI, Interval, _fast_sincos_pair

Word = tuple[int, ...]

_nextafter = math.nextafter
_INF = math.inf
_NEG_INF = -math.inf


class InvalidWordError(ValueError):
    pass


# ---------------------------------------------------------------------
# trig polynomials


class TrigPoly:
    """sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), k = 1..K (mean zero).

    Coefficients are stored as enclosures so that constants like -2*pi can
    be represented faithfully; plain floats become degenerate intervals.
    """

    __slots__ = ("cos_coeffs", "sin_coeffs", "_harmonics", "_terms")

    def __init__(
        self,
        cos_coeffs: Sequence[Interval] = (),
        sin_coeffs: Sequence[Interval] = (),
    ):
        self.cos_coeffs = tuple(cos_coeffs)
        self.sin_coeffs = tuple(sin_coeffs)
        # (k, is cosine, coefficient lo, hi) of each nonzero term: the
        # cosine terms, then the sine terms, each by ascending k
        active = [
            (float(k), is_cos, c.lo, c.hi)
            for is_cos, coeffs in ((True, self.cos_coeffs), (False, self.sin_coeffs))
            for k, c in enumerate(coeffs, start=1)
            if c.mag() != 0.0
        ]
        self._harmonics = tuple(sorted({k for k, _, _, _ in active}))
        # the nonzero terms as (j, coefficient lo, hi), in that order, where j
        # indexes the enclosure endpoints of the term's sin or cos in
        # `_trig_table(self._harmonics, ...)`
        self._terms = tuple(
            (4 * self._harmonics.index(k) + (2 if is_cos else 0), clo, chi)
            for k, is_cos, clo, chi in active
        )

    @staticmethod
    def from_floats(cos: Sequence[float] = (), sin: Sequence[float] = ()) -> "TrigPoly":
        return TrigPoly(
            [Interval.point(float(c)) for c in cos],
            [Interval.point(float(s)) for s in sin],
        )

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    def __repr__(self) -> str:
        return f"TrigPoly(cos={self.cos_coeffs!r}, sin={self.sin_coeffs!r})"

    def degree(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def derivative(self) -> "TrigPoly":
        """d/dx: a_k cos -> -2 pi k a_k sin;  b_k sin -> 2 pi k b_k cos."""
        deg = self.degree()
        zero = Interval.point(0.0)
        cos_out = []
        sin_out = []
        for k in range(1, deg + 1):
            a = self.cos_coeffs[k - 1] if k <= len(self.cos_coeffs) else zero
            b = self.sin_coeffs[k - 1] if k <= len(self.sin_coeffs) else zero
            factor = TWO_PI.scale(float(k))
            cos_out.append(factor * b if b.mag() != 0.0 else zero)
            sin_out.append(-(factor * a) if a.mag() != 0.0 else zero)
        return TrigPoly(cos_out, sin_out)

    def sup_bound(self) -> float:
        """Certified upper bound for sup |psi| (sum of coefficient magnitudes)."""
        acc = Interval.point(0.0)
        for c in self.cos_coeffs:
            acc = acc + Interval.point(c.mag())
        for s in self.sin_coeffs:
            acc = acc + Interval.point(s.mag())
        return acc.hi

    def eval_iv(self, x: Interval) -> Interval:
        """Enclosure of psi over x (x in plain units; harmonics in turns).

        Each harmonic takes the padded trig kernel `_fast_sincos_pair`
        that `Chain.step` also runs; its 2e-15 pad is immaterial against
        the margins and tail radii this feeds.
        """
        return Interval(*_sum_terms(self._terms, _trig_table(self._harmonics, x.lo, x.hi)))

    def eval_np(self, x: np.ndarray) -> np.ndarray:
        """Fast float evaluation (midpoint coefficients, no rigor).

        Each term is computed into one scratch array and added into the
        result in the order cosines, then sines, each by ascending k."""
        out = np.zeros_like(x, dtype=float)
        term = np.empty_like(out)
        for trig, coeffs in ((np.cos, self.cos_coeffs), (np.sin, self.sin_coeffs)):
            for k, c in enumerate(coeffs, start=1):
                m = c.mid()
                if m != 0.0:
                    np.multiply(x, 2.0 * math.pi * k, out=term)
                    trig(term, out=term)
                    term *= m
                    out += term
        return out


def _trig_table(harmonics: Sequence[float], lo: float, hi: float) -> list[float]:
    """sin and cos enclosure endpoints over [k lo, k hi] (rounded outward as
    `Interval.scale`) for each k of `harmonics`, four floats per k."""
    table: list[float] = []
    for k in harmonics:
        table += _fast_sincos_pair(_nextafter(lo * k, _NEG_INF), _nextafter(hi * k, _INF))
    return table


def _sum_terms(
    terms: Sequence[tuple[int, float, float]], table: list[float]
) -> tuple[float, float]:
    """Endpoints of sum c_j [table[j], table[j+1]] over `terms` in order,
    with the outward rounding of `Interval` `*` and `+`; (0, 0) if empty."""
    out_lo = out_hi = 0.0
    first = True
    for j, clo, chi in terms:
        tl = table[j]
        th = table[j + 1]
        p1 = clo * tl
        p2 = clo * th
        p3 = chi * tl
        p4 = chi * th
        term_lo = _nextafter(min(p1, p2, p3, p4), _NEG_INF)
        term_hi = _nextafter(max(p1, p2, p3, p4), _INF)
        if first:
            out_lo, out_hi, first = term_lo, term_hi, False
        else:
            out_lo = _nextafter(out_lo + term_lo, _NEG_INF)
            out_hi = _nextafter(out_hi + term_hi, _INF)
    return out_lo, out_hi


def classical_phi() -> TrigPoly:
    """phi(x) = cos(2 pi x)."""
    return TrigPoly.from_floats(cos=[1.0])


def classical_psi() -> TrigPoly:
    """psi(x) = -2 pi sin(2 pi x), the derivative of the classical phi."""
    return classical_phi().derivative()


# ---------------------------------------------------------------------
# system parameters


@dataclass(frozen=True)
class SystemParams:
    """One skew product (b x mod 1, gamma y + psi(x)) with certified norms."""

    b: int
    gamma: float
    psi: TrigPoly
    dpsi: TrigPoly = field(init=False, repr=False)
    psi_sup: float = field(init=False)
    dpsi_sup: float = field(init=False)
    # enclosures of gamma and b, read by every series bound and loop
    gamma_iv: Interval = field(init=False, repr=False)
    b_iv: Interval = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 2:
            raise ValueError(f"b must be an integer >= 2, got {self.b!r}")
        if not isinstance(self.gamma, (int, float)) or not 1.0 / self.b < self.gamma < 1.0:
            raise ValueError(
                f"gamma must be a number in (1/b, 1) = ({1.0 / self.b}, 1), got {self.gamma!r}"
            )
        object.__setattr__(self, "dpsi", self.psi.derivative())
        # psi' has exactly the harmonics of psi, as outward rounding never
        # turns a nonzero coefficient into zero, so one trig table over
        # psi's harmonics serves the terms of both
        object.__setattr__(self, "_harmonics", self.psi._harmonics)
        object.__setattr__(self, "_psi_terms", self.psi._terms)
        object.__setattr__(self, "_dpsi_terms", self.dpsi._terms)
        object.__setattr__(self, "psi_sup", self.psi.sup_bound())
        object.__setattr__(self, "dpsi_sup", self.dpsi.sup_bound())
        object.__setattr__(self, "gamma_iv", Interval.point(self.gamma))
        object.__setattr__(self, "b_iv", Interval.point(float(self.b)))
        one = Interval.point(1.0)
        object.__setattr__(self, "_ladder", ((one, one.scale_div(self.b)),))

    @staticmethod
    def classical(b: int, gamma: float) -> "SystemParams":
        return SystemParams(b=b, gamma=gamma, psi=classical_psi())

    def powers(self, n: int) -> tuple[Interval, Interval]:
        """Enclosures of gamma^n and gamma^n b^-(n+1), the weights of the
        n-th terms of S and S'.

        The ladder is built by repeated multiplication from n = 0 and
        cached, so every prefix sum of every length uses the same bits.  It
        grows by replacement, never in place, so concurrent readers always
        see a complete ladder.
        """
        ladder = self._ladder
        if n >= len(ladder):
            grown = list(ladder)
            step = self.gamma_iv.scale_div(self.b)
            while len(grown) <= n:
                g, h = grown[-1]
                grown.append((g * self.gamma_iv, h * step))
            ladder = tuple(grown)
            object.__setattr__(self, "_ladder", ladder)
        return ladder[n]


# ---------------------------------------------------------------------
# words


def check_word(b: int, w: Sequence[int]) -> Word:
    w = tuple(int(d) for d in w)
    for d in w:
        if not 0 <= d < b:
            raise InvalidWordError(f"digit {d} out of range for base {b}")
    return w


def word_value(b: int, w: Sequence[int]) -> int:
    """u_1 + u_2 b + ... + u_q b^(q-1)."""
    v = 0
    for d in reversed(w):
        v = v * b + d
    return v


def reflect_word(b: int, w: Sequence[int]) -> Word:
    """Digitwise reflection d -> b-1-d (the odd-psi symmetry companion)."""
    return tuple(b - 1 - d for d in w)


def adding_machine(b: int, w: Sequence[int]) -> tuple[Word, bool]:
    """Carry-propagating odometer: add one at the leading digit.

    Returns the new word and the carry out of the last digit, so that
    S(x+1, u) agrees with S(x, add(u)) for any continuation.
    """
    w = check_word(b, w)
    out = []
    carry = 1
    for d in w:
        s = d + carry
        if s < b:
            out.append(s)
            carry = 0
        else:
            out.append(0)
            carry = 1
    return tuple(out), bool(carry)


def tail_value(sup: float, ratio: Interval, n: int) -> float:
    """Upper bound sup ratio^n / (1 - ratio) for the tail past term n of a
    series sum ratio^k f_k with |f_k| <= sup: with sup = psi_sup and ratio
    gamma, that of S; with phi_sup and lam, that of the Weierstrass sum."""
    return (Interval.point(sup) * ratio.pow_int(n) / (Interval.point(1.0) - ratio)).hi


def tail_deriv(params: SystemParams, n: int) -> float:
    """Upper bound for the S' tail: dpsi_sup gamma^n / (b^n (b - gamma))."""
    g = params.gamma_iv
    ratio = (g / params.b_iv).pow_int(n)  # avoids b^n overflow at large n
    return (Interval.point(params.dpsi_sup) * ratio / (params.b_iv - g)).hi


# ---------------------------------------------------------------------
# series evaluation


def _add_product(
    acc_lo: float, acc_hi: float, w: Interval, vlo: float, vhi: float
) -> tuple[float, float]:
    """[acc_lo, acc_hi] + w * [vlo, vhi], rounded as `Interval` `*` and `+` round."""
    a, c = w.lo, w.hi
    p1 = a * vlo
    p2 = a * vhi
    p3 = c * vlo
    p4 = c * vhi
    return (
        _nextafter(acc_lo + _nextafter(min(p1, p2, p3, p4), _NEG_INF), _NEG_INF),
        _nextafter(acc_hi + _nextafter(max(p1, p2, p3, p4), _INF), _INF),
    )


class Chain:
    """Prefix sums of S and S' for one digit word w over one x-set X.

    With z_0 = X and z_(n+1) = (z_n + w_(n+1)) / b, a chain of length N
    holds enclosures of p = sum_(n<N) gamma^n psi(z_(n+1)) and
    dp = sum_(n<N) gamma^n b^-(n+1) psi'(z_(n+1)), and z = z_N = x(w).
    Every chain grows by `step` on the weights of `SystemParams.powers`,
    so equal (X, w) give equal bits however the chain was built.  The
    endpoints are held as floats; `p`, `dp` and `z` read them as intervals.

    A slope-only chain has p = None and never evaluates psi; its dp, z
    and n are those of the full chain.  `certify_pair` roots its cell
    chains this way: its mean-value form takes the value difference at
    the cell midpoint and only the slope difference over the cell.

    `digit` is the last digit of w (-1 for the empty word).  `kids` holds
    the one-digit children of a chain in the digit trie of
    `certifier._build_chain`: None until the first child is stepped there,
    then that child, then a list of b slots indexed by digit.
    """

    __slots__ = ("plo", "phi", "dplo", "dphi", "zlo", "zhi", "n", "digit", "kids")

    def __init__(
        self,
        plo: float | None,
        phi: float | None,
        dplo: float,
        dphi: float,
        zlo: float,
        zhi: float,
        n: int,
        digit: int = -1,
    ):
        self.plo = plo
        self.phi = phi
        self.dplo = dplo
        self.dphi = dphi
        self.zlo = zlo
        self.zhi = zhi
        self.n = n
        self.digit = digit
        self.kids = None

    @property
    def p(self) -> Interval | None:
        return None if self.plo is None else Interval(self.plo, self.phi)

    @property
    def dp(self) -> Interval:
        return Interval(self.dplo, self.dphi)

    @property
    def z(self) -> Interval:
        return Interval(self.zlo, self.zhi)

    @staticmethod
    def root(x: Interval, value: bool = True) -> "Chain":
        """The chain of the empty word over x (slope-only unless `value`)."""
        p = 0.0 if value else None
        return Chain(p, p, 0.0, 0.0, x.lo, x.hi, 0)

    def step(self, params: SystemParams, d: int) -> "Chain":
        """The chain of this word followed by digit d.

        One pass on float endpoints, with the operations and rounding of
        `z.shift(d).scale_div(b)`, then of `p + g * psi.eval_iv(z)` and
        `dp + h * dpsi.eval_iv(z)` in `Interval` arithmetic, so the bits
        are those of that interval loop.  One trig table over the
        harmonics of psi and psi' feeds both sums.
        """
        g, h = params.powers(self.n)
        b = params.b
        zlo = _nextafter(_nextafter(self.zlo + d, _NEG_INF) / b, _NEG_INF)
        zhi = _nextafter(_nextafter(self.zhi + d, _INF) / b, _INF)
        table = _trig_table(params._harmonics, zlo, zhi)
        plo = phi = None
        if self.plo is not None:
            plo, phi = _add_product(self.plo, self.phi, g, *_sum_terms(params._psi_terms, table))
        dplo, dphi = _add_product(
            self.dplo, self.dphi, h, *_sum_terms(params._dpsi_terms, table)
        )
        return Chain(plo, phi, dplo, dphi, zlo, zhi, self.n + 1, d)

    def walk(self, params: SystemParams, digits: Sequence[int]) -> "Chain":
        """The chain of this word followed by `digits`, one step per digit."""
        chain = self
        for d in digits:
            chain = chain.step(params, d)
        return chain


def eval_S(params: SystemParams, x: Interval, prefix: Sequence[int]) -> Interval:
    """Enclosure of S(x, i) for every infinite continuation i of `prefix`."""
    prefix = check_word(params.b, prefix)
    return Chain.root(x).walk(params, prefix).p.widen(
        tail_value(params.psi_sup, params.gamma_iv, len(prefix))
    )
