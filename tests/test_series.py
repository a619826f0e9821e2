import math
import random

import numpy as np
import pytest

from skewcert.interval import Interval
from skewcert.boxdim import sample_graph
from skewcert.series import (
    Chain,
    InvalidWordError,
    SystemParams,
    TrigPoly,
    adding_machine,
    classical_psi,
    eval_S,
    reflect_word,
    tail_deriv,
    tail_value,
)

from _oracles import fast_cos_pair, fast_sin_pair, s_partial, s_prime_partial, trig_eval_plain

# direct high-precision summation oracle results, frozen
# (classical psi, b=2, gamma=0.6, x=1, prefix of 20 zeros)
GOLDEN_S_1_ZEROS20 = -6.116016959721187


@pytest.fixture(scope="module")
def p26():
    return SystemParams.classical(2, 0.6)


@pytest.fixture(scope="module")
def p27():
    return SystemParams.classical(2, 0.7)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams.classical(1, 0.5)
    with pytest.raises(ValueError):
        SystemParams.classical(2, 0.5)  # gamma must exceed 1/b
    with pytest.raises(ValueError):
        SystemParams.classical(2, 1.0)
    with pytest.raises(ValueError):
        SystemParams.classical(2, "0.7")  # gamma must be a number
    p = SystemParams.classical(3, 0.5)
    assert p.gamma_iv == Interval.point(0.5) and p.b_iv == Interval.point(3.0)


def test_sup_norm_bounds(p26):
    # classical psi = -2 pi sin(2 pi x): sup 2 pi, derivative sup 4 pi^2
    assert p26.psi_sup >= 2 * math.pi and p26.psi_sup < 2 * math.pi * (1 + 1e-12)
    assert p26.dpsi_sup >= 4 * math.pi**2
    assert p26.dpsi_sup < 4 * math.pi**2 * (1 + 1e-12)
    # dense sampling stays below the certified bounds
    xs = np.linspace(0, 1, 10001)
    assert np.max(np.abs(p26.psi.eval_np(xs))) <= p26.psi_sup
    assert np.max(np.abs(p26.dpsi.eval_np(xs))) <= p26.dpsi_sup


def _s_prime(params, x, prefix):
    """Enclosure of S'(x, i) over every continuation i of `prefix`."""
    return Chain.root(x).walk(params, prefix).dp.widen(tail_deriv(params, len(prefix)))


def _tail_val(params, n):
    return tail_value(params.psi_sup, params.gamma_iv, n)


def test_x_of_word_examples(p26):
    # a chain's z encloses x(w) = (x + u_1 + u_2 b + ... + u_q b^(q-1)) / b^q
    assert Chain.root(Interval.point(0.0)).walk(p26, (1,)).z.contains(0.5)
    p3 = SystemParams.classical(3, 0.5)
    z = Chain.root(Interval.point(0.0)).walk(p3, ()).z
    assert z.lo == 0.0 and z.hi == 0.0
    z = Chain.root(Interval.point(0.5)).walk(p3, (2, 1)).z
    assert z.contains(11 / 18) and z.width() < 1e-14


def test_x_of_word_rejects_bad_digits(p26):
    # words enter through eval_S (and CertTask), which check their digits
    with pytest.raises(InvalidWordError):
        eval_S(p26, Interval.point(0.0), (2,))


def test_x_of_word_contracts_width(p26):
    x = Interval(0.2, 0.3)
    z = Chain.root(x).walk(p26, (1, 0, 1)).z
    assert z.width() == pytest.approx(0.1 / 8, rel=1e-9)


def test_eval_S_zero_case(p26):
    s = eval_S(p26, Interval.point(0.0), (0,) * 10)
    assert s.contains(0.0)
    assert s.width() <= 2 * _tail_val(p26, 10) * (1 + 1e-9)


def test_eval_S_golden(p26):
    s = eval_S(p26, Interval.point(1.0), (0,) * 20)
    assert s.contains(GOLDEN_S_1_ZEROS20)
    assert s.width() <= 2 * _tail_val(p26, 20) + 1e-10


def test_eval_S_symmetry_pair(p27):
    # odd psi: -S(x, i) = S(1-x, i') with digit reflection
    rnd = random.Random(17)
    for _ in range(40):
        x = rnd.random()
        u = tuple(rnd.randrange(2) for _ in range(14))
        a = eval_S(p27, Interval.point(x), u)
        b = eval_S(p27, Interval.point(1 - x), reflect_word(2, u))
        assert (-a).intersects(b)


def test_eval_S_prime_closed_form(p26):
    # all arguments hit 0 where psi'(0) = -4 pi^2: geometric sum -4pi^2/(b-gamma)
    s = _s_prime(p26, Interval.point(0.0), (0,) * 60)
    assert s.contains(-4 * math.pi**2 / (2 - 0.6))


def test_eval_S_prime_nesting(p26):
    x = Interval.point(0.37)
    deep = _s_prime(p26, x, (0,) * 12)
    shallow = _s_prime(p26, x, (0,) * 11)
    assert deep.width() <= shallow.width()
    assert deep.intersects(shallow)


def test_global_bounds(p27):
    rnd = random.Random(23)
    vb = p27.psi_sup / (1 - p27.gamma)
    db = p27.dpsi_sup / (p27.b - p27.gamma)
    for _ in range(60):
        x = Interval.point(rnd.uniform(0, 1))
        u = tuple(rnd.randrange(2) for _ in range(10))
        assert eval_S(p27, x, u).mag() <= vb + 1e-9
        assert _s_prime(p27, x, u).mag() <= db + 1e-9


def test_inclusion_monotonicity(p27):
    prefix = (0,) * 8
    inner = Interval(0.3, 0.4)
    outer = Interval(0.25, 0.45)
    si = eval_S(p27, inner, prefix)
    so = eval_S(p27, outer, prefix)
    assert so.lo <= si.lo and si.hi <= so.hi


def test_modulus_of_continuity(p27):
    # |S(x1) - S(x2)| <= xi/(1-gamma) with xi = sup|psi'| |x1-x2|
    rnd = random.Random(4)
    for _ in range(40):
        x1 = rnd.random()
        x2 = x1 + rnd.uniform(-0.05, 0.05)
        u = tuple(rnd.randrange(2) for _ in range(25))
        s1 = eval_S(p27, Interval.point(x1), u)
        s2 = eval_S(p27, Interval.point(x2), u)
        gap = max(abs(s1.mid() - s2.mid()) - s1.width() - s2.width(), 0.0)
        xi = p27.dpsi_sup * abs(x1 - x2)
        assert gap <= xi / (1 - p27.gamma) + 1e-9


def test_split_self_similar_identity(p27):
    rnd = random.Random(8)
    for _ in range(40):
        x = Interval.point(rnd.random())
        w = tuple(rnd.randrange(2) for _ in range(rnd.randrange(0, 5)))
        u = tuple(rnd.randrange(2) for _ in range(12))
        # S(x, w.u) = P_w(x) + gamma^|w| S(x(w), u), and S' with (gamma/b)^|w|
        chain = Chain.root(x).walk(p27, w)
        pw, dpw, xw = chain.p, chain.dp, chain.z
        if not w:
            assert pw.contains(0.0) and pw.width() < 1e-15
            assert dpw.contains(0.0)
            continue
        lhs = eval_S(p27, x, w + u)
        rhs = pw + p27.gamma_iv.pow_int(len(w)) * eval_S(p27, xw, u)
        assert lhs.intersects(rhs)
        lhs_d = _s_prime(p27, x, w + u)
        rhs_d = dpw + (p27.gamma_iv.scale_div(p27.b)).pow_int(len(w)) * _s_prime(
            p27, xw, u
        )
        assert lhs_d.intersects(rhs_d)


def test_split_q1_check(p27):
    # psi(x(w)) + gamma S(x(w), u) lands inside the S(x, w.u) enclosure
    x = Interval.point(0.3)
    w = (1,)
    u = (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    xw = Chain.root(x).walk(p27, w).z
    lhs = eval_S(p27, x, w + u)
    rhs = p27.psi.eval_iv(xw) + p27.gamma_iv * eval_S(p27, xw, u)
    assert lhs.intersects(rhs)


def _bits(iv):
    return (iv.lo, iv.hi)


def _chain_bits(chain):
    return (_bits(chain.p), _bits(chain.dp), _bits(chain.z), chain.n)


@pytest.mark.parametrize("b,gamma", [(2, 0.68), (6, 0.6)])
def test_chain_steps_match_walk(b, gamma):
    # however a chain is grown, equal (x, word) give equal bits
    params = SystemParams.classical(b, gamma)
    rnd = random.Random(b)
    for x in (Interval(0.25, 0.26), Interval.point(0.37)):
        w = tuple(rnd.randrange(b) for _ in range(16))
        whole = Chain.root(x).walk(params, w)
        chain = Chain.root(x)
        for d in w:
            chain = chain.step(params, d)
        assert _chain_bits(chain) == _chain_bits(whole)
        for cut in (1, 5, 15):
            split = Chain.root(x).walk(params, w[:cut]).walk(params, w[cut:])
            assert _chain_bits(split) == _chain_bits(whole)


def test_series_sums_agree_with_chain(p27):
    # a chain's bits are those of the term-by-term loop with the power
    # ladder gamma^n, gamma^n b^-(n+1) built by repeated multiplication,
    # and eval_S reads them
    rnd = random.Random(31)
    for _ in range(20):
        x = Interval.point(rnd.random())
        w = tuple(rnd.randrange(2) for _ in range(rnd.randrange(0, 20)))
        chain = Chain.root(x).walk(p27, w)
        p = dp = Interval.point(0.0)
        g = Interval.point(1.0)
        h = Interval.point(1.0).scale_div(2)
        z = x
        for d in w:
            z = z.shift(float(d)).scale_div(2)
            p = p + g * p27.psi.eval_iv(z)
            dp = dp + h * p27.dpsi.eval_iv(z)
            g = g * p27.gamma_iv
            h = h * p27.gamma_iv.scale_div(2)
        assert _chain_bits(chain) == (_bits(p), _bits(dp), _bits(z), len(w))
        assert _bits(eval_S(p27, x, w)) == _bits(p.widen(_tail_val(p27, len(w))))


def _psi_oracle(poly, z):
    # the scalar Interval kernel: each active harmonic's padded fast-trig
    # enclosure times its coefficient, cosines then sines by ascending k
    terms = [(a, k, fast_cos_pair) for k, a in enumerate(poly.cos_coeffs, start=1)]
    terms += [(s, k, fast_sin_pair) for k, s in enumerate(poly.sin_coeffs, start=1)]
    acc = None
    for coeff, k, pair in terms:
        if coeff.mag() != 0.0:
            arg = z.scale(float(k))
            term = coeff * Interval(*pair(arg.lo, arg.hi))
            acc = term if acc is None else acc + term
    return Interval.point(0.0) if acc is None else acc


@pytest.mark.parametrize("b,gamma", [(2, 0.7), (6, 0.6), (12, 0.9)])
def test_fused_chain_step_matches_interval_kernel(b, gamma):
    # Chain.step runs on float endpoints; its bits must be those of the
    # term-by-term Interval loop, for a psi whose cosine and sine terms
    # over several harmonics pin the order in which they accumulate.  A
    # slope-only chain has the full chain's dp, z and n.
    psi = TrigPoly.from_floats(cos=[0.3, 0.0, -1.2, 0.05], sin=[0.7, 0.25, 0.0, 0.1])
    params = SystemParams(b, gamma, psi)
    rnd = random.Random(b)
    for _ in range(40):
        lo = rnd.random()
        if rnd.random() < 0.5:
            x = Interval.point(lo)
        else:
            x = Interval(lo, lo + 10 ** rnd.uniform(-8, -1))
        w = tuple(rnd.randrange(b) for _ in range(rnd.randrange(0, 17)))
        p = dp = Interval.point(0.0)
        g = Interval.point(1.0)
        h = Interval.point(1.0).scale_div(b)
        z = x
        for d in w:
            z = z.shift(float(d)).scale_div(b)
            p = p + g * _psi_oracle(psi, z)
            dp = dp + h * _psi_oracle(params.dpsi, z)
            g = g * params.gamma_iv
            h = h * params.gamma_iv.scale_div(b)
        chain = Chain.root(x).walk(params, w)
        assert _chain_bits(chain) == (_bits(p), _bits(dp), _bits(z), len(w))
        slope = Chain.root(x, value=False).walk(params, w)
        assert slope.p is None
        assert (_bits(slope.dp), _bits(slope.z), slope.n) == _chain_bits(chain)[1:]
        assert _bits(psi.eval_iv(z)) == _bits(_psi_oracle(psi, z))


def test_adding_machine_examples():
    w, carry = adding_machine(2, (1, 1, 0))
    assert w == (0, 0, 1) and carry is False
    w, carry = adding_machine(3, (2, 2))
    assert w == (0, 0) and carry is True
    # bijection on A^q
    words = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    images = {adding_machine(3, w)[0] for w in words}
    assert len(images) == len(words)


def test_adding_machine_series_identity(p27):
    rnd = random.Random(44)
    for _ in range(40):
        x = rnd.random()
        u = tuple(rnd.randrange(2) for _ in range(15))
        au, _ = adding_machine(2, u)
        a = eval_S(p27, Interval.point(x + 1.0), u)
        b = eval_S(p27, Interval.point(x), au)
        assert a.intersects(b)


def test_weierstrass_examples():
    # the graph lane's sums lie within the tail_value radius of the
    # closed forms: W(0) = 1/(1-lambda), and the cosine sum is even
    for lam, b in ((0.5, 3), (0.7, 2)):
        g = sample_graph(lam, b, 10, depth=60)
        assert abs(g.values[0] - 1 / (1 - lam)) <= g.tail + 1e-12
        mirror = np.roll(g.values[::-1], 1)  # values at (n - j)/n
        assert np.all(np.abs(g.values - mirror) <= 2 * g.tail + 1e-12)


def test_weierstrass_rejects_bad_lambda():
    # the graph lane takes lambda in [1/b, 1)
    with pytest.raises(ValueError):
        sample_graph(0.4, 2, 4)
    with pytest.raises(ValueError):
        sample_graph(1.0, 2, 4)


def test_tail_radii_closed_forms(p26):
    # the tail radii match the printed closed forms
    for n in (1, 5, 20):
        expect_v = p26.psi_sup * 0.6**n / 0.4
        expect_d = p26.dpsi_sup * 0.6**n / (2**n * 1.4)
        assert _tail_val(p26, n) == pytest.approx(expect_v, rel=1e-12)
        assert tail_deriv(p26, n) == pytest.approx(expect_d, rel=1e-12)
        assert _tail_val(p26, n) >= expect_v * (1 - 1e-12)
        assert tail_deriv(p26, n) >= expect_d * (1 - 1e-12)


def test_enclosures_contain_float_oracle(p26):
    # plain-float partial sums must land inside the rigorous enclosures
    rnd = random.Random(77)
    for _ in range(50):
        x = rnd.uniform(0, 2)
        u = tuple(rnd.randrange(2) for _ in range(18))
        s = eval_S(p26, Interval.point(x), u)
        sp = _s_prime(p26, Interval.point(x), u)
        assert s.widen(1e-10).contains(s_partial(p26, x, u))
        assert sp.widen(1e-10).contains(s_prime_partial(p26, x, u))


def test_trigpoly_mean_zero_by_construction():
    # no constant term exists in the representation; numeric integral ~ 0
    poly = TrigPoly.from_floats(cos=[0.3, -1.2], sin=[2.0, 0.0, 0.7])
    xs = (np.arange(20000) + 0.5) / 20000
    assert abs(float(np.mean(poly.eval_np(xs)))) < 1e-12


def test_trigpoly_eval_np_matches_plain_terms():
    # the scratch-array sum gives the bytes of one temporary per term
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, 4097)
    for poly in (
        TrigPoly.from_floats(cos=[0.3, -1.2], sin=[2.0, 0.0, 0.7]),
        TrigPoly.from_floats(sin=[0.0, 1.5]),
        TrigPoly.zero(),
    ):
        for f in (poly, poly.derivative()):
            assert f.eval_np(xs).tobytes() == trig_eval_plain(f, xs).tobytes()


def test_trigpoly_eval_iv_contains_several_harmonics():
    # every harmonic goes through the padded fast kernels; the sum must still
    # enclose psi and psi' at points of the cell (mpmath reference)
    from mpmath import mp, mpf

    poly = TrigPoly.from_floats(cos=[0.3, -1.2], sin=[2.0, 0.0, 0.7])
    rnd = random.Random(9)
    for f in (poly, poly.derivative()):
        cos = [c.mid() for c in f.cos_coeffs]
        sin = [s.mid() for s in f.sin_coeffs]
        for _ in range(2000):
            lo = rnd.uniform(-2, 3)
            x = Interval(lo, lo + 10 ** rnd.uniform(-17, -1))
            got = f.eval_iv(x)
            with mp.workprec(120):
                t = mpf(rnd.uniform(x.lo, x.hi))
                exact = sum(
                    c * mp.cos(2 * mp.pi * k * t) for k, c in enumerate(cos, start=1)
                ) + sum(s * mp.sin(2 * mp.pi * k * t) for k, s in enumerate(sin, start=1))
            assert got.lo <= exact <= got.hi, (x, t)


def test_derivative_keeps_the_harmonics():
    # SystemParams evaluates psi' on the trig table of psi's harmonics: the
    # derivative must keep every nonzero one, however small or large
    for poly in (
        TrigPoly.from_floats(cos=[0.3, 0.0, -1.2, 0.05], sin=[0.7, 0.25, 0.0, 0.1]),
        TrigPoly.from_floats(cos=[0.0, 5e-324], sin=[0.0, 0.0, 1e300]),
        TrigPoly.from_floats(sin=[0.0, 1.5]),
        TrigPoly.zero(),
    ):
        assert poly.derivative()._harmonics == poly._harmonics


def test_classical_psi_is_phi_derivative():
    psi = classical_psi()
    xs = np.linspace(0, 1, 101)
    expect = -2 * math.pi * np.sin(2 * math.pi * xs)
    assert np.allclose(psi.eval_np(xs), expect, atol=1e-12)
