"""Enclosed evaluation of the slope series S(x, u), its x-derivative, the
Weierstrass sum, the auxiliary series G, and finite-word combinatorics.

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

from .interval import (
    TWO_PI,
    Interval,
    _down,
    _fast_cos_pair,
    _fast_sin_pair,
    _up,
    cos2pi,
    sin2pi,
)

Word = tuple[int, ...]


class InvalidWordError(ValueError):
    pass


# ---------------------------------------------------------------------
# trig polynomials


class TrigPoly:
    """sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), k = 1..K (mean zero).

    Coefficients are stored as enclosures so that constants like -2*pi can
    be represented faithfully; plain floats become degenerate intervals.
    """

    __slots__ = ("cos_coeffs", "sin_coeffs", "_active")

    def __init__(
        self,
        cos_coeffs: Sequence[Interval] = (),
        sin_coeffs: Sequence[Interval] = (),
    ):
        self.cos_coeffs = tuple(cos_coeffs)
        self.sin_coeffs = tuple(sin_coeffs)
        active = []
        for k, a in enumerate(self.cos_coeffs, start=1):
            if a.mag() != 0.0:
                active.append((float(k), a, True))
        for k, b in enumerate(self.sin_coeffs, start=1):
            if b.mag() != 0.0:
                active.append((float(k), b, False))
        self._active = tuple(active)

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

    def is_zero(self) -> bool:
        return all(c.mag() == 0.0 for c in self.cos_coeffs) and all(
            s.mag() == 0.0 for s in self.sin_coeffs
        )

    def key(self) -> tuple:
        """Hashable value identity (endpoint pairs of all coefficients)."""
        return (
            tuple((c.lo, c.hi) for c in self.cos_coeffs),
            tuple((s.lo, s.hi) for s in self.sin_coeffs),
        )

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

        Single-harmonic polynomials (the classical family) take a lean
        path on the padded fast trig kernels; the enclosure is a few
        1e-15 wider than the corrected kernels would give, immaterial
        against the margins and tail radii this feeds.
        """
        act = self._active
        if len(act) == 1:
            k, coeff, is_cos = act[0]
            xl = _down(x.lo * k)
            xh = _up(x.hi * k)
            tl, th = (_fast_cos_pair if is_cos else _fast_sin_pair)(xl, xh)
            clo = coeff.lo
            chi = coeff.hi
            p1 = clo * tl
            p2 = clo * th
            p3 = chi * tl
            p4 = chi * th
            return Interval(
                _down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4))
            )
        acc = Interval.point(0.0)
        for k, coeff, is_cos in act:
            trig = cos2pi(x.scale(k)) if is_cos else sin2pi(x.scale(k))
            acc = acc + coeff * trig
        return acc

    def eval_np(self, x: np.ndarray) -> np.ndarray:
        """Fast float evaluation (midpoint coefficients, no rigor)."""
        out = np.zeros_like(x, dtype=float)
        for k, a in enumerate(self.cos_coeffs, start=1):
            m = a.mid()
            if m != 0.0:
                out += m * np.cos((2.0 * math.pi * k) * x)
        for k, b in enumerate(self.sin_coeffs, start=1):
            m = b.mid()
            if m != 0.0:
                out += m * np.sin((2.0 * math.pi * k) * x)
        return out


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

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 2:
            raise ValueError(f"b must be an integer >= 2, got {self.b!r}")
        if not 1.0 / self.b < self.gamma < 1.0:
            raise ValueError(
                f"gamma must lie in (1/b, 1) = ({1.0 / self.b}, 1), got {self.gamma!r}"
            )
        object.__setattr__(self, "dpsi", self.psi.derivative())
        object.__setattr__(self, "psi_sup", self.psi.sup_bound())
        object.__setattr__(self, "dpsi_sup", self.dpsi.sup_bound())
        one = Interval.point(1.0)
        object.__setattr__(self, "_ladder", ((one, one.scale_div(self.b)),))

    @property
    def lam(self) -> float:
        return 1.0 / (self.gamma * self.b)

    @staticmethod
    def classical(b: int, gamma: float) -> "SystemParams":
        return SystemParams(b=b, gamma=gamma, psi=classical_psi())

    @staticmethod
    def from_lambda(b: int, lam: float, psi: TrigPoly | None = None) -> "SystemParams":
        if not 1.0 / b < lam < 1.0:
            raise ValueError(f"lambda must lie in (1/b, 1), got {lam!r}")
        gamma = 1.0 / (lam * b)
        return SystemParams(b=b, gamma=gamma, psi=psi if psi is not None else classical_psi())

    # enclosures reused by the series loops (cached: params is frozen)
    @property
    def gamma_iv(self) -> Interval:
        iv = getattr(self, "_gamma_iv", None)
        if iv is None:
            iv = Interval.point(self.gamma)
            object.__setattr__(self, "_gamma_iv", iv)
        return iv

    @property
    def b_iv(self) -> Interval:
        iv = getattr(self, "_b_iv", None)
        if iv is None:
            iv = Interval.point(float(self.b))
            object.__setattr__(self, "_b_iv", iv)
        return iv

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

    def default_depth(self, tol: float = 1e-12, cap: int = 5000) -> int:
        """Smallest N with value-tail radius below tol (capped)."""
        if self.psi_sup == 0.0:
            return 1
        guess = math.log(tol * (1.0 - self.gamma) / self.psi_sup) / math.log(self.gamma)
        n = max(1, int(guess) - 2)
        while tail_value(self, n) >= tol and n < cap:
            n += 1
        return n


# ---------------------------------------------------------------------
# words and codes


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


@dataclass(frozen=True)
class Code:
    """Finite prefix of an infinite digit code plus certified tail radii.

    Any infinite continuation of `prefix` has its S-value within
    `tail_val` of the depth-N partial sum, and its S'-value within
    `tail_der`.
    """

    prefix: Word
    tail_val: float
    tail_der: float

    @property
    def depth(self) -> int:
        return len(self.prefix)

    @staticmethod
    def make(params: SystemParams, prefix: Sequence[int]) -> "Code":
        prefix = check_word(params.b, prefix)
        n = len(prefix)
        return Code(prefix, tail_value(params, n), tail_deriv(params, n))

    @staticmethod
    def zeros(params: SystemParams, depth: int) -> "Code":
        return Code.make(params, (0,) * depth)


def tail_value(params: SystemParams, n: int) -> float:
    """Upper bound for |S - depth-n partial sum|: psi_sup gamma^n / (1-gamma)."""
    g = params.gamma_iv
    num = Interval.point(params.psi_sup) * g.pow_int(n)
    return (num / (Interval.point(1.0) - g)).hi


def tail_deriv(params: SystemParams, n: int) -> float:
    """Upper bound for the S' tail: dpsi_sup gamma^n / (b^n (b - gamma))."""
    g = params.gamma_iv
    ratio = (g / params.b_iv).pow_int(n)  # avoids b^n overflow at large n
    return (Interval.point(params.dpsi_sup) * ratio / (params.b_iv - g)).hi


def tail_g(params: SystemParams, n: int) -> float:
    """Upper bound for the G tail: dpsi_sup b^(1-n) / (b-1)."""
    b = params.b_iv
    binv_pow = (Interval.point(1.0) / b).pow_int(n)
    return (Interval.point(params.dpsi_sup) * b * binv_pow / (b - Interval.point(1.0))).hi


# ---------------------------------------------------------------------
# series evaluation


def _x_step(z: Interval, d: int, b: int) -> Interval:
    """Enclosure of (z + d) / b, the inverse branch of x -> b x mod 1 for digit d."""
    return z.shift(float(d)).scale_div(b)


class Chain:
    """Prefix sums of S and S' for one digit word w over one x-set X.

    With z_0 = X and z_(n+1) = (z_n + w_(n+1)) / b, a chain of length N
    holds enclosures of p = sum_(n<N) gamma^n psi(z_(n+1)) and
    dp = sum_(n<N) gamma^n b^-(n+1) psi'(z_(n+1)), and z = z_N = x(w).
    Every chain grows by `step` on the weights of `SystemParams.powers`,
    so equal (X, w) give equal bits however the chain was built.
    """

    __slots__ = ("p", "dp", "z", "n")

    def __init__(self, p: Interval, dp: Interval, z: Interval, n: int):
        self.p = p
        self.dp = dp
        self.z = z
        self.n = n

    @staticmethod
    def root(x: Interval) -> "Chain":
        """The chain of the empty word over x."""
        zero = Interval.point(0.0)
        return Chain(zero, zero, x, 0)

    def step(self, params: SystemParams, d: int) -> "Chain":
        """The chain of this word followed by digit d."""
        g, h = params.powers(self.n)
        z = _x_step(self.z, d, params.b)
        return Chain(
            self.p + g * params.psi.eval_iv(z),
            self.dp + h * params.dpsi.eval_iv(z),
            z,
            self.n + 1,
        )

    def walk(self, params: SystemParams, digits: Sequence[int]) -> "Chain":
        """The chain of this word followed by `digits`, one step per digit."""
        chain = self
        for d in digits:
            chain = chain.step(params, d)
        return chain


def x_of_word(params: SystemParams, x: Interval, w: Sequence[int]) -> Interval:
    """Enclosure of (x + u_1 + u_2 b + ... + u_q b^(q-1)) / b^q."""
    return Chain.root(x).walk(params, check_word(params.b, w)).z


def eval_S(params: SystemParams, x: Interval, code: Code) -> Interval:
    """Enclosure of S(x, i) for every infinite continuation i of the prefix."""
    return Chain.root(x).walk(params, code.prefix).p.widen(code.tail_val)


def eval_S_prime(params: SystemParams, x: Interval, code: Code) -> Interval:
    """Enclosure of S'(x, i) (the x-derivative) over all continuations."""
    return Chain.root(x).walk(params, code.prefix).dp.widen(code.tail_der)


def split_self_similar(
    params: SystemParams, x: Interval, w: Sequence[int]
) -> tuple[Interval, Interval]:
    """Prefix sums (P_w(x), P'_w(x)) of the self-similarity split.

    S(x, w.u)  = P_w(x)  + gamma^|w|     * S(x(w), u)
    S'(x, w.u) = P'_w(x) + (gamma/b)^|w| * S'(x(w), u)
    """
    chain = Chain.root(x).walk(params, check_word(params.b, w))
    return chain.p, chain.dp


def eval_G(params: SystemParams, x: Interval, code: Code) -> Interval:
    """Enclosure of G(x, i) = sum_n b^(1-n) psi'(x(i_1..i_n)) over continuations."""
    acc = Interval.point(0.0)
    w = Interval.point(1.0)
    z = x
    for d in code.prefix:
        z = _x_step(z, d, params.b)
        acc = acc + w * params.dpsi.eval_iv(z)
        w = w.scale_div(params.b)
    return acc.widen(tail_g(params, code.depth))


def eval_weierstrass(
    lam: float, b: int, phi: TrigPoly, x: Interval, depth: int
) -> Interval:
    """Enclosure of sum_{n>=0} lam^n phi(b^n x), truncated at `depth` terms."""
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b!r}")
    if not 1.0 / b < lam < 1.0:
        raise ValueError(f"lambda must lie in (1/b, 1), got {lam!r}")
    lam_iv = Interval.point(lam)
    acc = Interval.point(0.0)
    g = Interval.point(1.0)
    for n in range(depth):
        acc = acc + g * phi.eval_iv(x.scale(float(b) ** n))
        g = g * lam_iv
    return acc.widen(weierstrass_tail(lam, phi.sup_bound(), depth))


def weierstrass_tail(lam: float, phi_sup: float, depth: int) -> float:
    """Upper bound lam^depth * phi_sup / (1 - lam)."""
    lam_iv = Interval.point(lam)
    return (
        Interval.point(phi_sup) * lam_iv.pow_int(depth) / (Interval.point(1.0) - lam_iv)
    ).hi
