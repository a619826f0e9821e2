import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from skewcert.interval import _FAST_PAD, _TURN_LIMIT, Interval, _fast_sincos_pair

from _oracles import fast_cos_pair, fast_sin_pair

mp.prec = 200


def test_basic_queries():
    a = Interval(1.0, 2.0)
    assert a.width() >= 1.0
    assert a.contains(1.5) and not a.contains(2.5)
    assert Interval(-1, 2).abs_lower_bound() == 0.0
    assert Interval(3, 5).abs_lower_bound() == 3.0
    assert Interval(-5, -3).abs_lower_bound() == 3.0
    assert Interval(-5, -3).mag() == 5.0


def test_constructor_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_bisect():
    a, b = Interval(0.0, 1.0).bisect()
    assert a == Interval(0.0, 0.5) and b == Interval(0.5, 1.0)
    lo = 0.25
    hi = lo + 2.0**-20
    a, b = Interval(lo, hi).bisect()
    assert a.hi == b.lo and a.lo == lo and b.hi == hi
    with pytest.raises(ValueError):
        Interval(1.0, 1.0).bisect()


def test_bisect_union_covers():
    rnd = random.Random(3)
    for _ in range(200):
        lo = rnd.uniform(-5, 5)
        x = Interval(lo, lo + 10 ** rnd.uniform(-12, 1))
        a, b = x.bisect()
        assert (a.lo, a.hi, b.hi) == (x.lo, b.lo, x.hi)


def test_meet_and_hull():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert a.meet(b) == Interval(1.0, 2.0)
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).meet(Interval(2.0, 3.0))


def test_inclusion_fuzz_arithmetic():
    # spec-level inclusion fuzz: exact image point stays inside the result
    rnd = random.Random(99)
    n = 1_000_000
    for i in range(n):
        alo = rnd.uniform(-10, 10)
        a = Interval(alo, alo + 10 ** rnd.uniform(-14, 1))
        blo = rnd.uniform(-10, 10)
        b = Interval(blo, blo + 10 ** rnd.uniform(-14, 1))
        x = rnd.uniform(a.lo, a.hi)
        y = rnd.uniform(b.lo, b.hi)
        op = i % 5
        if op == 0:
            assert (a + b).contains(x + y)
        elif op == 1:
            assert (a - b).contains(x - y)
        elif op == 2:
            assert (a * b).contains(x * y)
        elif op == 3:
            c = rnd.uniform(-3, 3)
            assert a.scale(c).contains(x * c)
        else:
            if not b.contains(0.0):
                assert (a / b).contains(x / y)


def test_pow_int_inclusion():
    rnd = random.Random(5)
    for _ in range(2000):
        lo = rnd.uniform(-2, 2)
        a = Interval(lo, lo + rnd.uniform(0, 0.5))
        x = rnd.uniform(a.lo, a.hi)
        n = rnd.randrange(0, 9)
        assert a.pow_int(n).contains(x**n)


def test_scale_div_outward():
    a = Interval(1.0, 2.0)
    d = a.scale_div(3)
    assert d.lo <= 1.0 / 3.0 <= d.hi
    with pytest.raises(ValueError):
        a.scale_div(0)


# -- trig ---------------------------------------------------------------


def test_sin2pi_point_cases():
    # at the quarter turns each point enclosure holds the exact value and
    # is at most the pad wide on each side
    for x, sin, cos in (
        (0.0, 0.0, 1.0), (0.25, 1.0, 0.0), (0.5, 0.0, -1.0), (0.75, -1.0, 0.0), (-0.25, -1.0, 0.0)
    ):
        s_lo, s_hi, c_lo, c_hi = _fast_sincos_pair(x, x)
        assert s_lo <= sin <= s_hi and s_hi - s_lo <= 2 * _FAST_PAD, x
        assert c_lo <= cos <= c_hi and c_hi - c_lo <= 2 * _FAST_PAD, x


def test_sin2pi_interval_examples():
    s_lo, s_hi, _, _ = _fast_sincos_pair(0.0, 0.0)
    assert s_lo <= 0.0 <= s_hi and s_hi - s_lo <= 2 * _FAST_PAD
    s_lo, s_hi, _, _ = _fast_sincos_pair(0.0, 0.25)
    assert -_FAST_PAD <= s_lo <= 0.0 and s_hi == 1.0
    # sin 2 pi . increases on [0.1, 0.2]: the endpoints map to the ends
    s_lo, s_hi, _, _ = _fast_sincos_pair(0.1, 0.2)
    exact_lo = float(mp.sin(2 * mp.pi * mpf(0.1)))
    exact_hi = float(mp.sin(2 * mp.pi * mpf(0.2)))
    assert s_lo <= exact_lo and exact_hi <= s_hi
    assert s_hi - exact_hi < _FAST_PAD + 5e-16 and exact_lo - s_lo < _FAST_PAD + 5e-16


def test_trig_rejects_nonfinite():
    # a non-finite endpoint gets the trivial enclosure, never a NaN
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf), (math.nan, 0.0)):
        assert _fast_sincos_pair(lo, hi) == (-1.0, 1.0, -1.0, 1.0)


def test_trig_containment_fuzz():
    rnd = random.Random(12)
    for _ in range(30000):
        lo = rnd.uniform(-4, 4)
        hi = lo + 10 ** rnd.uniform(-17, 0.3)
        t = rnd.uniform(lo, hi)
        s_lo, s_hi, c_lo, c_hi = _fast_sincos_pair(lo, hi)
        ts = float(mp.sin(2 * mp.pi * mpf(t)))
        tc = float(mp.cos(2 * mp.pi * mpf(t)))
        assert s_lo <= ts <= s_hi, (lo, hi, t)
        assert c_lo <= tc <= c_hi, (lo, hi, t)
        assert -1.0 <= s_lo <= s_hi <= 1.0
        assert -1.0 <= c_lo <= c_hi <= 1.0


def _sin2pi_oracle(t: float, phase: Fraction = Fraction(0)) -> float:
    """High-precision sin(2 pi (t + phase)) with exact quarter-turn special cases."""
    r = (Fraction(t) + phase) % 1
    if r * 4 == int(r * 4):  # 0, 1/4, 1/2, 3/4 are exact
        return [0.0, 1.0, 0.0, -1.0][int(r * 4)]
    return float(mp.sin(2 * mp.pi * mpf(r.numerator) / mpf(r.denominator)))


def test_trig_containment_near_integers():
    # negative arguments just below integers exercise the inexact residue
    rnd = random.Random(7)
    for _ in range(20000):
        base = rnd.randint(-50, 50)
        off = rnd.choice([1, -1]) * 10 ** rnd.uniform(-20, -12)
        t = base + off
        s_lo, s_hi, _, _ = _fast_sincos_pair(t, t)
        ts = _sin2pi_oracle(t)
        assert s_lo <= ts <= s_hi, (t, s_lo, s_hi, ts)


def test_fast_trig_pair_containment():
    # the padded kernel behind TrigPoly.eval_iv and Chain.step, and so
    # behind every certificate: mid-range, near-integer (also negative) and
    # huge arguments
    rnd = random.Random(11)
    for i in range(20000):
        kind = i % 3
        if kind == 0:
            lo = rnd.uniform(-4, 4)
        elif kind == 1:
            lo = rnd.randint(-50, 50) + rnd.choice([1, -1]) * 10 ** rnd.uniform(-20, -12)
        else:
            lo = rnd.choice([1, -1]) * 2.0 ** rnd.uniform(0, 49)
        hi = lo + rnd.choice([0.0, 10 ** rnd.uniform(-17, 0.3)])
        s_lo, s_hi, c_lo, c_hi = _fast_sincos_pair(lo, hi)
        assert -1.0 <= s_lo <= s_hi <= 1.0 and -1.0 <= c_lo <= c_hi <= 1.0
        for t in (lo, hi, rnd.uniform(lo, hi)):
            assert s_lo <= _sin2pi_oracle(t) <= s_hi, (lo, hi, t)
            assert c_lo <= _sin2pi_oracle(t, Fraction(1, 4)) <= c_hi, (lo, hi, t)


def _sincos_cases(rnd):
    # quarter-turn lattice points and their neighbours one ulp away, on
    # both sides of zero, up to and past 2^50 turns, at widths 0 to 1.5
    for _ in range(3000):
        m = rnd.randint(-400, 400) / 4
        yield m + rnd.choice([-1, 0, 1]) * math.ulp(m), 0.0
        big = rnd.choice([1, -1]) * (_TURN_LIMIT + rnd.randint(-8, 8) * 0.25)
        yield big, 0.0
        yield -rnd.uniform(0, 8), 10 ** rnd.uniform(-17, 0)
        yield rnd.choice([1, -1]) * 2.0 ** rnd.uniform(40, 50.5), 10 ** rnd.uniform(-6, 0)
        yield rnd.uniform(-8, 8), rnd.uniform(1.0, 1.5)
        yield rnd.uniform(-8, 8), math.nextafter(1.0, 0.0)
    for m in (0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0):
        for lo in (math.nextafter(m, -1.0), m, math.nextafter(m, 1.0)):
            for width in (0.0, 0.25, 0.5, 0.75, 1.0):
                yield lo, width


def test_fast_sincos_pair_matches_per_function_pairs():
    # one floor per endpoint and two crossing candidates must give the bits
    # of separate sin and cos pairs, each with its own reduction and search
    rnd = random.Random(23)
    for lo, width in _sincos_cases(rnd):
        for hi in (lo + width, math.nextafter(lo + width, math.inf)):
            got = _fast_sincos_pair(lo, hi)
            want = fast_sin_pair(lo, hi) + fast_cos_pair(lo, hi)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (lo, hi)


def test_trig_monotone_span_tightness():
    # on spans inside one quarter turn sin and cos are monotone, and each
    # enclosure endpoint lies within 2.5e-15 of the exact range: the pad
    # plus libm and argument rounding
    rnd = random.Random(31)
    worst = 0.0
    for _ in range(20000):
        quarter = rnd.randrange(4) / 4
        lo = quarter + rnd.uniform(0.01, 0.24)
        hi = min(lo + 10 ** rnd.uniform(-9, -2), quarter + 0.249)
        s_lo, s_hi, c_lo, c_hi = _fast_sincos_pair(lo, hi)
        for got_lo, got_hi, f in ((s_lo, s_hi, mp.sin), (c_lo, c_hi, mp.cos)):
            ends = sorted((f(2 * mp.pi * mpf(lo)), f(2 * mp.pi * mpf(hi))))
            assert got_lo <= ends[0] and ends[1] <= got_hi, (lo, hi)
            worst = max(worst, float(ends[0] - got_lo), float(got_hi - ends[1]))
    assert worst <= 2.5e-15, worst


def test_trig_wide_interval_covers_period():
    assert _fast_sincos_pair(0.0, 2.0) == (-1.0, 1.0, -1.0, 1.0)
    assert _fast_sincos_pair(-3.7, 5.0) == (-1.0, 1.0, -1.0, 1.0)
    assert _fast_sincos_pair(0.3, 1.3) == (-1.0, 1.0, -1.0, 1.0)


def test_trig_critical_point_clamps():
    s_lo, s_hi, _, _ = _fast_sincos_pair(0.2, 0.3)  # contains 0.25
    assert s_hi == 1.0 and s_lo < 1.0
    s_lo, _, _, _ = _fast_sincos_pair(0.7, 0.8)  # contains 0.75
    assert s_lo == -1.0
    _, _, _, c_hi = _fast_sincos_pair(0.9, 1.1)  # contains the integer turn
    assert c_hi == 1.0
    _, _, c_lo, _ = _fast_sincos_pair(0.45, 0.55)
    assert c_lo == -1.0
