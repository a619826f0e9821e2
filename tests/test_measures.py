import math
from types import SimpleNamespace

import numpy as np
import pytest

from skewcert.interval import Interval
from skewcert.series import SystemParams, TrigPoly, classical_psi, eval_S
from skewcert.measures import (
    AtomicMeasure,
    FiberAffine,
    _bin_index,
    ball_masses,
    corr_sq_norm,
    fiber_affine,
    i_r_table,
    local_dim_regress,
    sample_mx,
    srb_sample,
    vertical_scaling_check,
)

from _oracles import corr_sq_brute, fiber_atoms_plain, s_partial, srb_counts_plain


@pytest.fixture(scope="module")
def p27():
    return SystemParams.classical(2, 0.7)


@pytest.fixture(scope="module")
def p28():
    return SystemParams.classical(2, 0.8)


# -- sampling ---------------------------------------------------------------


def test_sample_mx_zero_psi():
    params = SystemParams(2, 0.7, TrigPoly.zero())
    mu = sample_mx(params, 0.3, 6)
    assert np.all(mu.locs == 0.0)
    assert mu.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_mx_depth2_enumeration(p27):
    mu = sample_mx(p27, 0.0, 2)
    expect = sorted(s_partial(p27, 0.0, u) for u in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert mu.n_atoms == 4
    assert np.allclose(mu.locs, expect, atol=1e-12)
    assert np.all(mu.masses == 0.25)


def test_sample_mx_atom_budget(p27):
    with pytest.raises(ValueError):
        sample_mx(p27, 0.0, 30)


def test_sample_mx_adding_machine_invariance(p27):
    a = sample_mx(p27, 0.37, 10)
    b = sample_mx(p27, 1.37, 10)
    assert np.max(np.abs(a.locs - b.locs)) < 1e-12 * 40  # matched truncation depth


def test_sample_mx_odd_reflection(p27):
    a = sample_mx(p27, 0.37, 10)
    c = sample_mx(p27, 1 - 0.37, 10)
    assert np.max(np.abs(np.sort(-c.locs) - a.locs)) < 1e-10


def test_sample_mx_mc_seeded(p27):
    a = sample_mx(p27, 0.3, 25, mode="mc", n_samples=5000, seed=9)
    b = sample_mx(p27, 0.3, 25, mode="mc", n_samples=5000, seed=9)
    assert np.array_equal(a.locs, b.locs)
    # MC atoms stay inside the global bound
    assert np.max(np.abs(a.locs)) <= p27.psi_sup / (1 - p27.gamma)
    # and inside the enclosure of S over all continuations
    s = eval_S(p27, Interval.point(0.3), ())
    assert np.all((a.locs >= s.lo) & (a.locs <= s.hi))


FOUR_HARMONICS = TrigPoly.from_floats(cos=[0.3, 0.0, -1.2, 0.05], sin=[0.7, 0.25, 0.0, 0.1])


@pytest.mark.parametrize(
    "b,gamma,psi",
    [
        pytest.param(2, 0.7, None, id="2-0.7"),
        pytest.param(3, 0.5, None, id="3-0.5"),
        pytest.param(2, 0.8, FOUR_HARMONICS, id="2-0.8-four"),
        pytest.param(3, 0.8, FOUR_HARMONICS, id="3-0.8-four"),
    ],
)
@pytest.mark.parametrize(
    "mode,depth",
    [
        pytest.param("exact", 9, id="exact"),
        pytest.param("mc", 9, id="mc"),
        pytest.param("mc", 25, id="mc-depth25"),
    ],
)
def test_sample_mx_matches_plain_loops(b, gamma, psi, mode, depth):
    # the psi table of the early mc steps (3000 samples: 9 steps at b = 2,
    # 6 at b = 3), the in-place updates and the plain sort give the bytes of
    # the loops that step every sample, allocate every step and argsort
    params = SystemParams.classical(b, gamma) if psi is None else SystemParams(b, gamma, psi)
    n_samples = 3000 if mode == "mc" else None
    mu = sample_mx(params, 0.37, depth, mode=mode, n_samples=n_samples, seed=11)
    plain = fiber_atoms_plain(params, 0.37, depth, mode, n_samples=n_samples, seed=11)
    assert mu.locs.tobytes() == plain.tobytes()


def test_atoms_inside_series_enclosure(p27):
    # every exact atom is a partial sum: the interval evaluation of its
    # digit string must contain it
    mu = sample_mx(p27, 0.55, 6)
    blur = mu.blur
    s_all = eval_S(p27, Interval.point(0.55), ())
    assert np.all(mu.locs >= s_all.lo - blur)
    assert np.all(mu.locs <= s_all.hi + blur)


# -- correlation norms --------------------------------------------------------


def test_corr_single_atom():
    one = AtomicMeasure(np.array([3.0]), np.array([1.0]), 1, 0.0)
    assert corr_sq_norm(one, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_corr_two_far_atoms():
    mu = AtomicMeasure(np.array([0.0, 5.0]), np.array([0.5, 0.5]), 1, 0.0)
    assert corr_sq_norm(mu, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_corr_two_overlapping_atoms():
    mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1, 0.0)
    assert corr_sq_norm(mu, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_corr_rejects_bad_r():
    mu = AtomicMeasure(np.array([0.0]), np.array([1.0]), 1, 0.0)
    with pytest.raises(ValueError):
        corr_sq_norm(mu, 0.0)


def test_corr_against_brute_force():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 60):
        locs = np.sort(rng.normal(size=n))
        masses = rng.random(n)
        masses /= masses.sum()
        mu = AtomicMeasure(locs, masses, 1, 0.0)
        for r in (0.01, 0.3, 2.0):
            assert corr_sq_norm(mu, r) == pytest.approx(
                corr_sq_brute(locs, masses, r), rel=1e-12
            )


def test_corr_monotone_and_bounded(p27):
    mu = sample_mx(p27, 0.3, 10)
    rs = [0.001, 0.01, 0.1, 1.0, 10.0]
    vals = [corr_sq_norm(mu, r) for r in rs]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for r, v in zip(rs, vals):
        assert 0.0 <= v <= 2 * r + 1e-15


# -- fiber maps and scaling ----------------------------------------------------


def test_fiber_affine_empty(p27):
    fa = fiber_affine(p27, 0.3, ())
    assert fa.scale == 1.0 and fa.offset == 0.0 and fa.q == 0


def test_fiber_affine_q1_identity(p27):
    # psi(x(w)) + gamma S(x(w), u) = S(x, w.u) within enclosures
    x = 0.3
    w = (1,)
    fa = fiber_affine(p27, x, w)
    assert fa.scale == pytest.approx(0.7)
    z = (x + 1) / 2
    assert fa.offset == pytest.approx(float(p27.psi.eval_np(np.array([z]))[0]), abs=1e-12)


def test_reconstruction_multiset(p27):
    # atoms at depth N+q equal the union of fiber images of depth-N atoms
    x0 = 0.3
    q = 2
    n = 6
    full = sample_mx(p27, x0, n + q)
    parts = []
    for w in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        z = x0
        for d in w:
            z = (z + d) / 2
        img = fiber_affine(p27, x0, w).apply(sample_mx(p27, z, n))
        parts.append(img.locs)
    recon = np.sort(np.concatenate(parts))
    assert np.max(np.abs(recon - full.locs)) < 1e-12
    # masses: each of the four blocks contributes 1/4 of its own masses
    assert full.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertical_scaling_single_atom(p27):
    one = AtomicMeasure(np.array([0.7]), np.array([1.0]), 1, 0.0)
    lhs, rhs = vertical_scaling_check(one, p27, 2, 0.05)
    assert lhs == pytest.approx(0.1, abs=1e-15)
    assert rhs == pytest.approx(0.1, abs=1e-15)


def test_vertical_scaling_two_atoms(p27):
    mu = AtomicMeasure(np.array([0.0, 0.004]), np.array([0.5, 0.5]), 1, 0.0)
    lhs, rhs = vertical_scaling_check(mu, p27, 1, 0.01)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_vertical_scaling_random_1000(p27):
    rng = np.random.default_rng(42)
    locs = np.sort(rng.normal(size=1000))
    masses = rng.random(1000)
    masses /= masses.sum()
    mu = AtomicMeasure(locs, masses, 10, 0.0)
    lhs, rhs = vertical_scaling_check(mu, p27, 3, 0.01)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# -- aggregate statistic ---------------------------------------------------------


def test_i_r_zero_psi():
    params = SystemParams(2, 0.7, TrigPoly.zero())
    est = i_r_table(params, [0.125], grid=16, depth=4)[0]
    assert est.value == pytest.approx(2.0 / 0.125, rel=1e-12)


def test_i_r_truncation_warning(p28):
    est = i_r_table(p28, [1e-6], grid=2, depth=8)[0]
    assert est.truncation_warning


def test_i_r_golden_and_mc_band(p28):
    # frozen after the first verified run: b=2, gamma=0.8, r=2^-8, N=20, grid 256
    golden = 0.15255136201409336
    r = 2.0**-8
    est = i_r_table(p28, [r], grid=256, depth=20)[0]
    assert est.truncation_warning  # blur(20) ~ 0.36 exceeds r; flagged, by design
    assert est.value == pytest.approx(golden, rel=1e-9)
    # Monte Carlo cross-check within three standard errors.  The plain MC
    # correlation norm carries a 2r/M self-pair bias, so the unbiased
    # U-statistic (M corr - 2r)/(M - 1) is compared instead.
    m_samples = 4096
    vals = []
    for seed in range(5):
        e = i_r_table(
            p28, [r], grid=256, depth=20, mode="mc", n_samples=m_samples, seed=seed
        )[0]
        corr_avg = e.value * r * r  # back out the x-averaged ||m_x||_r^2
        u_stat = (m_samples * corr_avg - 2 * r) / (m_samples - 1)
        vals.append(u_stat / (r * r))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - est.value) <= 3 * se


# -- local dimension ---------------------------------------------------------


def test_local_dim_uniform_dyadic():
    # 2^14 equally spaced, equal-mass atoms on [0, 1): Lebesgue-like, slope 1
    n = 1 << 14
    locs = (np.arange(n) + 0.5) / n
    mu = AtomicMeasure(locs, np.full(n, 1.0 / n), 14, 0.0)
    reg = local_dim_regress(mu, [2.0**-k for k in range(3, 9)], n_centers=64, seed=0)
    assert 0.9 <= reg.slope <= 1.05
    assert reg.ci_low <= 1.0 <= reg.ci_high or abs(reg.slope - 1.0) < 0.05


def test_local_dim_degenerate_errors():
    one = AtomicMeasure(np.array([0.0]), np.array([1.0]), 1, 0.0)
    with pytest.raises(ValueError):
        local_dim_regress(one, [0.1, 0.01])
    params = SystemParams(2, 0.7, TrigPoly.zero())
    mu = sample_mx(params, 0.3, 5)
    with pytest.raises(ValueError):
        local_dim_regress(mu, [0.1, 0.01])


def test_local_dim_blur_precondition(p28):
    mu = sample_mx(p28, 0.3, 10)
    with pytest.raises(ValueError):
        local_dim_regress(mu, [mu.blur / 2, mu.blur / 4])


def test_ball_masses(p27):
    mu = AtomicMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5]), 1, 0.0)
    out = ball_masses(mu, np.array([1.0]), 1.5)
    assert out[0] == pytest.approx(1.0)
    out = ball_masses(mu, np.array([1.0]), 0.5)
    assert out[0] == pytest.approx(0.3)


# -- SRB sampling -------------------------------------------------------------


def test_srb_zero_psi_concentrates():
    params = SystemParams(2, 0.7, TrigPoly.zero())
    h = srb_sample(params, 500, 600, 100, seed=3)
    # every sample lies in the y = 0 row band (psi_sup = 0 collapses y)
    ny = h.counts.shape[1]
    middle = h.counts[:, ny // 2 - 1 : ny // 2 + 1].sum()
    assert middle == h.counts.sum()


def test_srb_column_marginal_uniform(p27):
    h = srb_sample(p27, 2000, 1500, 300, seed=7)
    cm = h.counts.sum(axis=1) / h.counts.sum()
    assert abs(cm.max() - cm.min()) < 0.25 / 64


def test_srb_slice_matches_fiber_measure(p27):
    # histogram column vs binned direct fiber sample: small total variation
    h = srb_sample(p27, 4000, 1200, 200, seed=5, bins=(32, 64))
    j = 10  # column [10/32, 11/32)
    xc = (j + 0.5) / 32
    mu = sample_mx(p27, xc, 16)
    binned, _ = np.histogram(mu.locs, bins=h.y_edges, weights=mu.masses)
    tv = 0.5 * float(np.abs(h.counts[j] / h.counts[j].sum() - binned).sum())
    # threshold frozen from the first verified run (~0.08 typical)
    assert tv < 0.2


Y_MAX_27 = SystemParams.classical(2, 0.7).psi_sup / (1.0 - 0.7)


@pytest.mark.parametrize("bins", [64, 48, 7, 1])
@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-Y_MAX_27, Y_MAX_27), (-1e-9, 1e-9)])
def test_bin_index_matches_searchsorted(bins, lo, hi):
    # SRB's x range and y ranges (+-y_max at b = 2, gamma = 0.7, and the
    # zero-psi floor): every edge, one ulp either side of it, both ends and
    # a uniform spread
    edges = np.linspace(lo, hi, bins + 1)
    v = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [lo, hi],
        np.random.default_rng(bins).uniform(lo, hi, 5000),
    ])
    want = np.minimum(np.searchsorted(edges, v, side="right") - 1, bins - 1)
    assert _bin_index(edges, v).tobytes() == want.tobytes()


@pytest.mark.parametrize("bins", [(64, 64), (32, 48), (7, 3), (1, 1)])
def test_srb_counts_match_histogram2d(p27, bins):
    h = srb_sample(p27, 700, 260, 60, seed=17, bins=bins)
    assert h.counts.tobytes() == srb_counts_plain(p27, 700, 260, 60, 17, bins).tobytes()


def test_srb_counts_match_histogram2d_when_clipped():
    # psi_sup set below sup |psi|: many orbits leave [-y_max, y_max] and are
    # clipped onto the outer edges, the upper one binned into the last row
    params = SimpleNamespace(b=2, gamma=0.8, psi=classical_psi(), psi_sup=1.0)
    h = srb_sample(params, 500, 200, 50, seed=2, bins=(32, 48))
    assert h.counts[:, 0].sum() > 0 and h.counts[:, -1].sum() > 0
    assert h.counts.tobytes() == srb_counts_plain(params, 500, 200, 50, 2, (32, 48)).tobytes()


@pytest.mark.parametrize("bins", [(0, 64), (64, -1), (64.0, 64), (64,), (8, 8, 8), 64])
def test_srb_rejects_bad_bins(p27, bins):
    with pytest.raises(ValueError, match="bins must be two integers"):
        srb_sample(p27, 10, 20, 5, seed=0, bins=bins)


def test_srb_records_seed(p27):
    h = srb_sample(p27, 100, 300, 100, seed=123)
    assert h.seed == 123 and h.rng_kind == "numpy PCG64"
