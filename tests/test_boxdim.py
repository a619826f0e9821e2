import math

import numpy as np
import pytest

from skewcert.boxdim import (
    GraphSample,
    box_count_dim,
    graph_mu_local_dim,
    sample_graph,
    theoretical_D,
)
from skewcert.series import TrigPoly, classical_phi

from _oracles import graph_log_means_plain, graph_values_plain


def test_theoretical_D_values():
    assert theoretical_D(0.5, 2) == pytest.approx(1.0, abs=1e-15)
    assert theoretical_D(0.999, 2) == pytest.approx(2.0, abs=2e-3)
    # arithmetic oracle
    assert theoretical_D(0.7, 2) == pytest.approx(2 + math.log(0.7) / math.log(2), abs=0)
    assert theoretical_D(0.7, 2) == pytest.approx(1.4854, abs=1e-4)
    assert theoretical_D(0.5, 3) == pytest.approx(1.3691, abs=1e-4)


def test_theoretical_D_monotone_in_lambda():
    vals = [theoretical_D(lam, 2) for lam in (0.55, 0.6, 0.7, 0.8, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_theoretical_D_rejects_bad_args():
    with pytest.raises(ValueError):
        theoretical_D(0.4, 2)
    with pytest.raises(ValueError):
        theoretical_D(1.0, 2)
    with pytest.raises(ValueError):
        theoretical_D(0.7, 1)


def _flat_sample(values: np.ndarray, m: int) -> GraphSample:
    return GraphSample(0.7, 2, m, 10, values, 1e-12, 1e-12, 1.0)


def test_box_count_constant_graph():
    m = 12
    s = _flat_sample(np.full(1 << m, 0.37), m)
    res = box_count_dim(s, range(2, 10), drop_edges=0)
    # one box per column (up to the odd grid-line straddle)
    for scale, count in zip(res.scales, res.counts):
        cols = round(1 / scale)
        assert cols <= count <= 2 * cols
    assert abs(res.slope - 1.0) < 0.02


def test_box_count_line_graph():
    m = 12
    s = _flat_sample(np.arange(1 << m) / (1 << m), m)
    res = box_count_dim(s, range(2, 10), drop_edges=0)
    assert abs(res.slope - 1.0) < 0.05


def test_box_counts_monotone_in_scale():
    s = sample_graph(0.7, 2, 14)
    res = box_count_dim(s, range(3, 12), drop_edges=0)
    # N(s) non-increasing in s means counts grow as scales shrink
    assert all(a <= b for a, b in zip(res.counts, res.counts[1:]))


def test_box_count_translation_invariance():
    m = 14
    s = sample_graph(0.6, 2, m)
    shifted = GraphSample(
        s.lam, s.b, s.m, s.depth, s.values + 0.303, s.halfwidth, s.tail, s.phi_sup
    )
    r1 = box_count_dim(s, range(3, 12), drop_edges=0)
    r2 = box_count_dim(shifted, range(3, 12), drop_edges=0)
    for scale, c1, c2 in zip(r1.scales, r1.counts, r2.counts):
        cols = round(1 / scale)
        assert abs(c1 - c2) <= cols  # at most one extra straddled row per column
    assert abs(r1.slope - r2.slope) < 0.01


def test_box_count_certified_overcount():
    # column ranges padded by the halfwidth can only add boxes
    m = 12
    vals = np.cos(2 * math.pi * np.arange(1 << m) / (1 << m))
    tight = _flat_sample(vals, m)
    padded = GraphSample(0.7, 2, m, 10, vals, 0.1, 1e-12, 1.0)
    r_tight = box_count_dim(tight, range(2, 9), drop_edges=0)
    r_padded = box_count_dim(padded, range(2, 9), drop_edges=0)
    assert np.all(r_padded.counts >= r_tight.counts)


def test_box_count_scale_preconditions():
    s = sample_graph(0.7, 2, 10)
    with pytest.raises(ValueError, match="finer than the sample grid"):
        box_count_dim(s, [4, 12])
    for exps in ([], [5]):
        with pytest.raises(ValueError, match="two scales"):
            box_count_dim(s, exps)  # no slope to fit
    coarse = sample_graph(0.7, 2, 12, depth=10)  # fat tail
    with pytest.raises(ValueError, match="inside the truncation tail"):
        box_count_dim(coarse, [2, 10])


def test_graph_local_dim_constant():
    m = 14
    s = _flat_sample(np.full(1 << m, 0.2), m)
    reg = graph_mu_local_dim(s, [2.0**-k for k in range(3, 9)], n_centers=64, seed=1)
    assert abs(reg.slope - 1.0) < 0.05


def test_graph_local_dim_product_cloud():
    # iid uniform values: the lift looks locally like area, slope ~ 2
    m = 16
    rng = np.random.default_rng(8)
    s = _flat_sample(rng.random(1 << m), m)
    reg = graph_mu_local_dim(s, [2.0**-k for k in range(3, 7)], n_centers=64, seed=2)
    assert abs(reg.slope - 2.0) < 0.15


def test_graph_local_dim_weierstrass_matches_D():
    s = sample_graph(0.7, 2, 18)
    reg = graph_mu_local_dim(s, [2.0**-k for k in range(4, 10)], n_centers=128, seed=3)
    d = theoretical_D(0.7, 2)
    assert reg.ci_low - 0.05 <= d <= reg.ci_high + 0.05


def test_graph_sample_global_bound():
    s = sample_graph(0.7, 2, 12)
    assert np.max(np.abs(s.values)) <= s.phi_sup / (1 - s.lam) + 1e-9
    expect_tail = s.lam**s.depth * s.phi_sup / (1 - s.lam)
    assert s.tail == pytest.approx(expect_tail, rel=1e-9)


@pytest.mark.parametrize(
    "lam,b,phi,depth",
    [
        pytest.param(0.7, 2, None, None, id="0.7-2-None"),
        pytest.param(0.5, 3, None, None, id="0.5-3-None"),
        pytest.param(0.45, 5, None, None, id="0.45-5-None"),
        pytest.param(0.4, 6, None, None, id="0.4-6-None"),
        pytest.param(
            0.6, 2, TrigPoly.from_floats(cos=[0.3, 0.0, -1.2], sin=[0.7, 0.25]), None,
            id="0.6-2-phi4",
        ),
        pytest.param(
            0.5, 3, TrigPoly.from_floats(cos=[0.0, 0.4], sin=[1.0, 0.0, 0.1]), None,
            id="0.5-3-phi5",
        ),
        pytest.param(0.45, 4, None, None, id="0.45-4-None"),
        pytest.param(0.7, 2, None, 12, id="0.7-2-None-depth12"),
    ],
)
def test_sample_graph_matches_plain_series(lam, b, phi, depth):
    # moving the phi table along b j mod 2^m, and adding its one value once
    # b^n j mod 2^m is 0 for every j (even b, n >= m at b = 2), gives the
    # plain series loop's bytes; at depth 12 < m the table never gets there
    s = sample_graph(lam, b, 13, depth=depth, phi=phi)
    plain = graph_values_plain(lam, b, 13, s.depth, phi or classical_phi())
    assert s.values.tobytes() == plain.tobytes()


@pytest.mark.parametrize("m", [-1, 2.0, 52, None])
def test_sample_graph_rejects_bad_m(m):
    # b 2^m must stay <= 2^53; b = 3 allows m <= 51, which is not run here
    with pytest.raises(ValueError, match="m must be an integer"):
        sample_graph(0.5, 3, m)


def test_sample_graph_accepts_m_zero():
    s = sample_graph(0.7, 2, 0, depth=3)
    assert s.values.tobytes() == graph_values_plain(0.7, 2, 0, 3, classical_phi()).tobytes()


def test_graph_local_dim_matches_per_radius_loop():
    s = sample_graph(0.7, 2, 14)
    radii = [2.0**-k for k in range(3, 10)]
    reg = graph_mu_local_dim(s, radii, n_centers=50, seed=4)
    assert reg.log_means.tobytes() == graph_log_means_plain(s.values, radii, 50, 4).tobytes()
