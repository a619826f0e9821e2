import math
import random

import numpy as np
import pytest

from skewcert.interval import Interval
from skewcert.series import (
    Chain,
    Code,
    InvalidWordError,
    SystemParams,
    TrigPoly,
    adding_machine,
    classical_phi,
    classical_psi,
    eval_G,
    eval_S,
    eval_S_prime,
    eval_weierstrass,
    reflect_word,
    split_self_similar,
    tail_deriv,
    tail_g,
    tail_value,
    x_of_word,
)

from _oracles import s_partial, s_prime_partial

# direct high-precision summation oracle results, frozen
# (classical psi, b=2, gamma=0.6, x=1, prefix of 20 zeros)
GOLDEN_S_1_ZEROS20 = -6.116016959721187
# (classical psi, b=2, x=1/4, G-series over 40 zero digits)
GOLDEN_G_QUARTER_ZEROS40 = -65.6745157550847


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
    p = SystemParams.classical(3, 0.5)
    assert p.lam == pytest.approx(1 / 1.5)


def test_sup_norm_bounds(p26):
    # classical psi = -2 pi sin(2 pi x): sup 2 pi, derivative sup 4 pi^2
    assert p26.psi_sup >= 2 * math.pi and p26.psi_sup < 2 * math.pi * (1 + 1e-12)
    assert p26.dpsi_sup >= 4 * math.pi**2
    assert p26.dpsi_sup < 4 * math.pi**2 * (1 + 1e-12)
    # dense sampling stays below the certified bounds
    xs = np.linspace(0, 1, 10001)
    assert np.max(np.abs(p26.psi.eval_np(xs))) <= p26.psi_sup
    assert np.max(np.abs(p26.dpsi.eval_np(xs))) <= p26.dpsi_sup


def test_x_of_word_examples(p26):
    assert x_of_word(p26, Interval.point(0.0), (1,)).contains(0.5)
    p3 = SystemParams.classical(3, 0.5)
    z = x_of_word(p3, Interval.point(0.0), ())
    assert z.lo == 0.0 and z.hi == 0.0
    z = x_of_word(p3, Interval.point(0.5), (2, 1))
    assert z.contains(11 / 18) and z.width() < 1e-14


def test_x_of_word_rejects_bad_digits(p26):
    with pytest.raises(InvalidWordError):
        x_of_word(p26, Interval.point(0.0), (2,))


def test_x_of_word_contracts_width(p26):
    x = Interval(0.2, 0.3)
    z = x_of_word(p26, x, (1, 0, 1))
    assert z.width() == pytest.approx(0.1 / 8, rel=1e-9)


def test_eval_S_zero_case(p26):
    code = Code.zeros(p26, 10)
    s = eval_S(p26, Interval.point(0.0), code)
    assert s.contains(0.0)
    assert s.width() <= 2 * code.tail_val * (1 + 1e-9)


def test_eval_S_golden(p26):
    code = Code.zeros(p26, 20)
    s = eval_S(p26, Interval.point(1.0), code)
    assert s.contains(GOLDEN_S_1_ZEROS20)
    assert s.width() <= 2 * code.tail_val + 1e-10


def test_eval_S_symmetry_pair(p27):
    # odd psi: -S(x, i) = S(1-x, i') with digit reflection
    rnd = random.Random(17)
    for _ in range(40):
        x = rnd.random()
        u = tuple(rnd.randrange(2) for _ in range(14))
        a = eval_S(p27, Interval.point(x), Code.make(p27, u))
        b = eval_S(p27, Interval.point(1 - x), Code.make(p27, reflect_word(2, u)))
        assert (-a).intersects(b)


def test_eval_S_prime_closed_form(p26):
    # all arguments hit 0 where psi'(0) = -4 pi^2: geometric sum -4pi^2/(b-gamma)
    s = eval_S_prime(p26, Interval.point(0.0), Code.zeros(p26, 60))
    assert s.contains(-4 * math.pi**2 / (2 - 0.6))


def test_eval_S_prime_nesting(p26):
    x = Interval.point(0.37)
    deep = eval_S_prime(p26, x, Code.zeros(p26, 12))
    shallow = eval_S_prime(p26, x, Code.zeros(p26, 11))
    assert deep.width() <= shallow.width()
    assert deep.intersects(shallow)


def test_global_bounds(p27):
    rnd = random.Random(23)
    vb = p27.psi_sup / (1 - p27.gamma)
    db = p27.dpsi_sup / (p27.b - p27.gamma)
    for _ in range(60):
        x = Interval.point(rnd.uniform(0, 1))
        u = tuple(rnd.randrange(2) for _ in range(10))
        assert eval_S(p27, x, Code.make(p27, u)).mag() <= vb + 1e-9
        assert eval_S_prime(p27, x, Code.make(p27, u)).mag() <= db + 1e-9


def test_inclusion_monotonicity(p27):
    code = Code.zeros(p27, 8)
    inner = Interval(0.3, 0.4)
    outer = Interval(0.25, 0.45)
    si = eval_S(p27, inner, code)
    so = eval_S(p27, outer, code)
    assert si.is_subset(so)


def test_modulus_of_continuity(p27):
    # |S(x1) - S(x2)| <= xi/(1-gamma) with xi = sup|psi'| |x1-x2|
    rnd = random.Random(4)
    for _ in range(40):
        x1 = rnd.random()
        x2 = x1 + rnd.uniform(-0.05, 0.05)
        u = tuple(rnd.randrange(2) for _ in range(25))
        s1 = eval_S(p27, Interval.point(x1), Code.make(p27, u))
        s2 = eval_S(p27, Interval.point(x2), Code.make(p27, u))
        gap = max(abs(s1.mid() - s2.mid()) - s1.width() - s2.width(), 0.0)
        xi = p27.dpsi_sup * abs(x1 - x2)
        assert gap <= xi / (1 - p27.gamma) + 1e-9


def test_split_self_similar_identity(p27):
    rnd = random.Random(8)
    for _ in range(40):
        x = Interval.point(rnd.random())
        w = tuple(rnd.randrange(2) for _ in range(rnd.randrange(0, 5)))
        u = tuple(rnd.randrange(2) for _ in range(12))
        pw, dpw = split_self_similar(p27, x, w)
        if not w:
            assert pw.contains(0.0) and pw.width() < 1e-15
            assert dpw.contains(0.0)
            continue
        xw = x_of_word(p27, x, w)
        lhs = eval_S(p27, x, Code.make(p27, w + u))
        rhs = pw + p27.gamma_iv.pow_int(len(w)) * eval_S(p27, xw, Code.make(p27, u))
        assert lhs.intersects(rhs)
        lhs_d = eval_S_prime(p27, x, Code.make(p27, w + u))
        rhs_d = dpw + (p27.gamma_iv.scale_div(p27.b)).pow_int(len(w)) * eval_S_prime(
            p27, xw, Code.make(p27, u)
        )
        assert lhs_d.intersects(rhs_d)


def test_split_q1_check(p27):
    # psi(x(w)) + gamma S(x(w), u) lands inside the S(x, w.u) enclosure
    x = Interval.point(0.3)
    w = (1,)
    u = (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    xw = x_of_word(p27, x, w)
    lhs = eval_S(p27, x, Code.make(p27, w + u))
    rhs = p27.psi.eval_iv(xw) + p27.gamma_iv * eval_S(p27, xw, Code.make(p27, u))
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
    # eval_S, eval_S_prime, split_self_similar and x_of_word read one chain;
    # its bits are those of the term-by-term loop with the power ladder
    # gamma^n, gamma^n b^-(n+1) built by repeated multiplication
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
        code = Code.make(p27, w)
        assert _bits(eval_S(p27, x, code)) == _bits(p.widen(code.tail_val))
        assert _bits(eval_S_prime(p27, x, code)) == _bits(dp.widen(code.tail_der))
        assert tuple(map(_bits, split_self_similar(p27, x, w))) == (_bits(p), _bits(dp))
        assert _bits(x_of_word(p27, x, w)) == _bits(z)


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
        a = eval_S(p27, Interval.point(x + 1.0), Code.make(p27, u))
        b = eval_S(p27, Interval.point(x), Code.make(p27, au))
        assert a.intersects(b)


def test_weierstrass_examples():
    w0 = eval_weierstrass(0.5, 3, classical_phi(), Interval.point(0.0), 60)
    assert w0.contains(2.0)  # geometric series 1/(1-lambda)
    # even symmetry of the cosine sum
    for x in (0.1, 0.37, 1.4):
        a = eval_weierstrass(0.7, 2, classical_phi(), Interval.point(x), 50)
        b = eval_weierstrass(0.7, 2, classical_phi(), Interval.point(-x), 50)
        assert a.intersects(b)
    # x = 1/3: every term is cos(2 pi 2^n / 3) = -1/2, so W = -1/(2(1-lam))
    w13 = eval_weierstrass(0.7, 2, classical_phi(), Interval.point(1 / 3), 80)
    assert w13.contains(-5 / 3)


def test_weierstrass_rejects_bad_lambda():
    with pytest.raises(ValueError):
        eval_weierstrass(0.5, 2, classical_phi(), Interval.point(0.0), 10)
    with pytest.raises(ValueError):
        eval_weierstrass(1.0, 2, classical_phi(), Interval.point(0.0), 10)


def test_eval_G_functional_equation(p27):
    rnd = random.Random(2)
    for _ in range(25):
        x = rnd.random() * 0.5
        gx = eval_G(p27, Interval.point(x), Code.zeros(p27, 30))
        gbx = eval_G(p27, Interval.point(2 * x), Code.zeros(p27, 30))
        rhs = p27.dpsi.eval_iv(Interval.point(x)) + gx.scale_div(2)
        assert gbx.intersects(rhs)


def test_eval_G_zero_psi():
    p = SystemParams(2, 0.7, TrigPoly.zero())
    g = eval_G(p, Interval.point(0.3), Code.zeros(p, 20))
    assert g.contains(0.0) and g.mag() < 1e-300


def test_eval_G_golden(p27):
    g = eval_G(p27, Interval.point(0.25), Code.zeros(p27, 40))
    assert g.contains(GOLDEN_G_QUARTER_ZEROS40)


def test_tail_radii_closed_forms(p26):
    # the Code invariants: radii match the printed closed forms
    for n in (1, 5, 20):
        code = Code.zeros(p26, n)
        expect_v = p26.psi_sup * 0.6**n / 0.4
        expect_d = p26.dpsi_sup * 0.6**n / (2**n * 1.4)
        assert code.tail_val == pytest.approx(expect_v, rel=1e-12)
        assert code.tail_der == pytest.approx(expect_d, rel=1e-12)
        assert tail_value(p26, n) >= expect_v * (1 - 1e-12)
        assert tail_deriv(p26, n) >= expect_d * (1 - 1e-12)
        assert tail_g(p26, n) >= p26.dpsi_sup * 2.0 ** (1 - n) * (1 - 1e-12)


def test_enclosures_contain_float_oracle(p26):
    # plain-float partial sums must land inside the rigorous enclosures
    rnd = random.Random(77)
    for _ in range(50):
        x = rnd.uniform(0, 2)
        u = tuple(rnd.randrange(2) for _ in range(18))
        code = Code.make(p26, u)
        s = eval_S(p26, Interval.point(x), code)
        sp = eval_S_prime(p26, Interval.point(x), code)
        assert s.widen(1e-10).contains(s_partial(p26, x, u))
        assert sp.widen(1e-10).contains(s_prime_partial(p26, x, u))


def test_default_depth(p26):
    n = p26.default_depth(1e-12)
    assert tail_value(p26, n) < 1e-12
    assert tail_value(p26, n - 1) >= 1e-12


def test_trigpoly_mean_zero_by_construction():
    # no constant term exists in the representation; numeric integral ~ 0
    poly = TrigPoly.from_floats(cos=[0.3, -1.2], sin=[2.0, 0.0, 0.7])
    xs = (np.arange(20000) + 0.5) / 20000
    assert abs(float(np.mean(poly.eval_np(xs)))) < 1e-12


def test_classical_psi_is_phi_derivative():
    psi = classical_psi()
    xs = np.linspace(0, 1, 101)
    expect = -2 * math.pi * np.sin(2 * math.pi * xs)
    assert np.allclose(psi.eval_np(xs), expect, atol=1e-12)
