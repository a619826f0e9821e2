import math
import random

import numpy as np
import pytest

from skewcert import certifier
from skewcert.interval import Interval
from skewcert.series import SystemParams, TrigPoly, tail_value, tail_deriv
from skewcert.certifier import (
    Budget,
    CertTask,
    WitnessNotFound,
    all_words,
    certify_pair,
    delta_max,
    e_upper,
    noncohomology_witness,
    pair_diff_enclosure,
    reflected_pairs,
    tangency_graph,
    theta_bound,
)

from _oracles import count_tangency_samples, oracle_depth, s_batch


@pytest.fixture(scope="module")
def p27():
    return SystemParams.classical(2, 0.7)


# -- pair_diff_enclosure ------------------------------------------------


def test_pair_diff_identical_words(p27):
    w = (0, 0, 1, 0, 1, 1)
    val, der = pair_diff_enclosure(p27, Interval(0.25, 0.26), w, w)
    tau_v = 2 * tail_value(p27, 6)
    tau_d = 2 * tail_deriv(p27, 6)
    assert val.lo == -tau_v and val.hi == tau_v
    assert der.lo == -tau_d and der.hi == tau_d


def test_pair_diff_tails_shrink(p27):
    widths = []
    for d in range(0, 8):
        val, _ = pair_diff_enclosure(
            p27, Interval(0.25, 0.26), (0,) * (1 + d), (1,) + (0,) * d
        )
        widths.append(2 * tail_value(p27, 1 + d))
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_pair_diff_contains_all_samples():
    # b=2, gamma=0.6, q=2, k=(0,0), l=(1,0), cell [0.25,0.26], d=4:
    # the enclosure must contain every sampled continuation difference
    params = SystemParams.classical(2, 0.6)
    ka = (0, 0) + (1, 0, 1, 1)
    lb = (1, 0) + (0, 1, 0, 0)
    val, der = pair_diff_enclosure(params, Interval(0.25, 0.26), ka, lb)
    rng = np.random.default_rng(6)
    xs = np.linspace(0.25, 0.26, 200)
    ext = rng.integers(0, 2, size=(300, 12))
    rows_u = np.concatenate([np.tile(ka, (300, 1)), ext], axis=1)
    ext2 = rng.integers(0, 2, size=(300, 12))
    rows_v = np.concatenate([np.tile(lb, (300, 1)), ext2], axis=1)
    vu, du = s_batch(params, xs, rows_u)
    vv, dv = s_batch(params, xs, rows_v)
    dval = vu - vv
    dder = du - dv
    assert float(dval.min()) >= val.lo and float(dval.max()) <= val.hi
    assert float(dder.min()) >= der.lo and float(dder.max()) <= der.hi


def test_pair_diff_length_mismatch(p27):
    with pytest.raises(ValueError):
        pair_diff_enclosure(p27, Interval(0.1, 0.2), (0, 0), (1,))


# -- certify_pair -------------------------------------------------------


def test_certify_low_cell_word_pair(p27):
    # (0...) vs (1...) transversal on [0, 1/3] at small margins
    cert = certify_pair(CertTask(p27, 1, Interval(0.0, 1 / 3), ((0,), (1,)), 1e-3, 1e-3))
    assert cert.transversal
    # leaves cover the whole cell in x
    xs = sorted(set([leaf.cell_lo for leaf in cert.leaves] + [leaf.cell_hi for leaf in cert.leaves]))
    assert xs[0] <= 0.0 and xs[-1] >= 1 / 3
    # every leaf's recorded margin actually clears the threshold
    for leaf in cert.leaves:
        if leaf.margin == "value":
            assert min(abs(leaf.val_lo), abs(leaf.val_hi)) > 1e-3
            assert leaf.val_lo * leaf.val_hi > 0
        else:
            assert min(abs(leaf.der_lo), abs(leaf.der_hi)) > 1e-3
            assert leaf.der_lo * leaf.der_hi > 0


def test_certify_diagonal_unresolved(p27):
    cert = certify_pair(CertTask(p27, 1, Interval(0.0, 0.5), ((0,), (0,)), 1e-3, 1e-3))
    assert not cert.transversal and cert.reason == "diagonal"


def test_certify_b6_shallow():
    params = SystemParams.classical(6, 0.5)
    cert = certify_pair(
        CertTask(params, 1, Interval(0.4, 0.45), ((0,), (3,)), 1e-3, 1e-3)
    )
    assert cert.transversal
    assert cert.node_count <= 50


def test_certify_eps_monotonicity(p27):
    # enlarging the margins can only lose certificates
    cell = Interval(0.0, 0.25)
    small = certify_pair(CertTask(p27, 1, cell, ((0,), (1,)), 1e-4, 1e-4))
    big = certify_pair(CertTask(p27, 1, cell, ((0,), (1,)), 1e-2, 1e-2))
    assert small.transversal
    if not big.transversal:
        pytest.fail("margin 1e-2 unexpectedly unresolved on the easy cell")


def test_certify_budget_monotonicity(p27):
    # a budget too small to finish reports unresolved; more budget fixes it
    cell = Interval(0.0, 1 / 3)
    tiny = certify_pair(
        CertTask(p27, 1, cell, ((0,), (1,)), 1e-3, 1e-3, Budget(max_nodes=2))
    )
    assert not tiny.transversal and tiny.reason == "node budget"
    full = certify_pair(CertTask(p27, 1, cell, ((0,), (1,)), 1e-3, 1e-3))
    assert full.transversal


def test_certificate_soundness_sampling(p27):
    # dense sampling finds no violations behind a transversal certificate
    rng = np.random.default_rng(11)
    cell = Interval(0.125, 0.1875)
    eps = 1e-2
    cert = certify_pair(CertTask(p27, 1, cell, ((0,), (1,)), eps, eps))
    assert cert.transversal
    depth = oracle_depth(p27, eps)
    bad = count_tangency_samples(
        p27, cell.lo, cell.hi, (0,), (1,), eps, eps, 400, 200, depth, rng
    )
    assert bad == 0


def test_tangency_witness_detection():
    # gamma=0.68 has a genuine tangency for (0),(1) near x = 1/2: the
    # certifier must not claim transversality there; the pair stays
    # unresolved, which is a budget statement, not a tangency claim
    params = SystemParams.classical(2, 0.68)
    cert = certify_pair(
        CertTask(params, 1, Interval(0.5, 0.515625), ((0,), (1,)), 1e-2, 1e-2)
    )
    assert not cert.transversal


# -- tangency_graph and e bounds ----------------------------------------


def test_graph_zero_psi_everything_unresolved():
    params = SystemParams(2, 0.7, TrigPoly.zero())
    g = tangency_graph(params, 1, 2, 1e-3, 1e-3, keep_certificates=False)
    for j in range(4):
        assert len(g.nontrivial_pairs(j)) == 1  # the single off-diagonal pair
    _, e = e_upper(g)
    assert e == 2


def test_graph_b2_gamma075_clean_quarters():
    params = SystemParams.classical(2, 0.75)
    g = tangency_graph(params, 1, 4, 1e-2, 1e-2, keep_certificates=False)
    for j in list(range(0, 4)) + list(range(12, 16)):
        assert g.is_diagonal_only(j), j


def _record_certify_calls(monkeypatch) -> list:
    """Route certifier.certify_pair through a recorder of its tasks."""
    calls = []

    def recording(task, _cache=None):
        calls.append(task)
        return certify_pair(task, _cache)

    monkeypatch.setattr(certifier, "certify_pair", recording)
    return calls


@pytest.mark.parametrize(
    "b,gamma,p",
    [(2, 0.75, 4), (6, 0.6, 2), (3, 0.6, 2)],  # b = 3: odd cell count, self-mirrored middle
)
def test_mirror_cells_match_direct_certification(b, gamma, p, monkeypatch):
    # for odd psi only the cells j <= (n-1)/2 are certified; every derived
    # cell's certificate status must equal that of direct certification
    params = SystemParams.classical(b, gamma)
    budget = Budget(max_nodes=1024)
    calls = _record_certify_calls(monkeypatch)
    g = tangency_graph(params, 1, p, 1e-2, 1e-2, budget)
    monkeypatch.undo()
    n = g.n_cells
    derived = 0
    for (j, k, l), cert in g.certificates.items():
        if j <= (n - 1) // 2:
            assert cert.derived_from is None
            continue
        if cert.derived_from is not None:
            derived += 1
            assert cert.derived_from == n - 1 - j
        cell = g.cell_interval(j)
        assert (cert.task.cell.lo, cert.task.cell.hi) == (cell.lo, cell.hi)
        direct = certify_pair(CertTask(params, 1, cell, (k, l), 1e-2, 1e-2, budget))
        assert cert.status == direct.status, (j, k, l)
        if cert.transversal:
            assert min(f.cell_lo for f in cert.leaves) <= cell.lo
            assert max(f.cell_hi for f in cert.leaves) >= cell.hi
    assert derived > 0
    # direct certification covers the cells j <= (n-1)/2 and the fallbacks only
    assert len(calls) == len(g.certificates) - derived
    for j in range(n):
        assert g.unresolved[n - 1 - j] == reflected_pairs(g, j)


def test_graph_non_odd_psi_certifies_every_cell(monkeypatch):
    # a cosine term breaks the odd symmetry: no cell may be mirrored
    psi = TrigPoly.from_floats(cos=[0.5], sin=[-2 * math.pi])
    params = SystemParams(2, 0.75, psi)
    calls = _record_certify_calls(monkeypatch)
    g = tangency_graph(params, 1, 3, 1e-2, 1e-2)
    monkeypatch.undo()
    assert len(calls) == g.n_cells
    assert all(cert.derived_from is None for cert in g.certificates.values())
    assert {id(c.task) for c in g.certificates.values()} == {id(t) for t in calls}


def _random_derived_transversal_certs(n: int):
    # transversal mirror-derived certificates of random odd-psi systems
    rng = np.random.default_rng(2718)
    out = []
    for _ in range(60):
        if len(out) >= n:
            break
        b = int(rng.choice([2, 2, 3, 6]))
        gamma = float(rng.uniform(1.0 / b + 0.05, 0.9))
        sin = [-2 * math.pi * float(rng.uniform(0.5, 1.5))]
        if rng.random() < 0.5:
            sin.append(float(rng.uniform(-2.0, 2.0)))
        params = SystemParams(b, gamma, TrigPoly.from_floats(sin=sin))
        q = int(rng.choice([1, 2])) if b == 2 else 1
        p = {2: 3, 3: 2, 6: 1}[b]
        eps = float(rng.choice([1e-2, 1e-3]))
        g = tangency_graph(params, q, p, eps, eps, Budget(max_nodes=500))
        derived = [
            c for c in g.certificates.values() if c.derived_from is not None and c.transversal
        ]
        for i in rng.permutation(len(derived))[:3]:
            out.append(derived[i])
    return out[:n]


def test_derived_certificate_soundness_fuzz():
    certs = _random_derived_transversal_certs(40)
    assert len(certs) == 40
    rng = np.random.default_rng(5)
    bad = 0
    for cert in certs:
        task = cert.task
        params = task.params
        k, l = task.pair
        depth = oracle_depth(params, task.eps)
        bad += count_tangency_samples(
            params, task.cell.lo, task.cell.hi, k, l, task.eps, task.delta,
            200, 100, depth, rng,
        )
        # each mirrored leaf encloses the sampled differences of its own
        # (cell, extension) node: value kept, derivative negated
        for leaf in cert.leaves[:3]:
            xs = np.linspace(leaf.cell_lo, leaf.cell_hi, 20)
            tails = rng.integers(0, params.b, size=(2, 30, depth))
            vu, du = s_batch(params, xs, np.hstack([np.tile(k + leaf.ext_a, (30, 1)), tails[0]]))
            vv, dv = s_batch(params, xs, np.hstack([np.tile(l + leaf.ext_b, (30, 1)), tails[1]]))
            n = len(k) + len(leaf.ext_a) + depth
            tol_v = 2 * tail_value(params, n) + 1e-12
            tol_d = 2 * tail_deriv(params, n) + 1e-12
            assert leaf.val_lo - tol_v <= (vu - vv).min() and (vu - vv).max() <= leaf.val_hi + tol_v
            if leaf.margin == "deriv":
                assert leaf.der_lo - tol_d <= (du - dv).min()
                assert (du - dv).max() <= leaf.der_hi + tol_d
    assert bad == 0


def test_e_upper_examples():
    params = SystemParams.classical(2, 0.6)
    g = tangency_graph(params, 1, 3, 1e-2, 1e-2, keep_certificates=False)
    per, glob = e_upper(g)
    assert glob == 1 and all(v == 1 for v in per)


def test_e_upper_refinement_monotone():
    params = SystemParams.classical(2, 0.75)
    _, coarse = e_upper(tangency_graph(params, 1, 3, 1e-2, 1e-2, keep_certificates=False))
    _, fine = e_upper(tangency_graph(params, 1, 5, 1e-2, 1e-2, keep_certificates=False))
    assert fine <= coarse


def test_unresolved_cells_satisfy_cos_closeness():
    # wherever a q=1 pair stays unresolved, the first-order cosine test
    # |cos(2pi(x+k)/b) - cos(2pi(x+l)/b)| <= 2 gamma/(b - gamma) + slack holds
    params = SystemParams.classical(2, 0.75)
    g = tangency_graph(params, 1, 5, 1e-3, 1e-3, keep_certificates=False)
    bound = 2 * params.gamma / (params.b - params.gamma)
    eps_slack = 0.3  # finite (eps, delta) and finite cells blur the locus
    for j in range(g.n_cells):
        for k, l in g.nontrivial_pairs(j):
            x = g.cell_interval(j).mid()
            ck = math.cos(2 * math.pi * (x + k[0]) / params.b)
            cl = math.cos(2 * math.pi * (x + l[0]) / params.b)
            assert abs(ck - cl) <= bound + eps_slack


def test_image_cell_indexing():
    params = SystemParams.classical(2, 0.7)
    g = tangency_graph(params, 2, 4, 1e-2, 1e-2, keep_certificates=False)
    # x(cell_j, w) = (x + w1 + 2 w2)/4 lands in the computed parent cell
    for j in (0, 5, 11,  15):
        for w in all_words(2, 2):
            parent = g.image_cell(j, w)
            x = g.cell_interval(j).mid()
            img = (x + w[0] + 2 * w[1]) / 4
            assert parent == min(int(img * 16), 15)


# -- chain cache -----------------------------------------------------------


def _chain_bits(chain):
    return (chain.p.lo, chain.p.hi, chain.dp.lo, chain.dp.hi, chain.z.lo, chain.z.hi)


@pytest.mark.parametrize(
    "b,gamma,j,p,pairs",
    [
        (6, 0.6, 0, 2, [((1,), (5,)), ((2,), (4,))]),
        (2, 0.68, 30, 6, [((0,), (1,))]),
        (2, 0.98, 0, 6, [((1, 0), (1, 1))]),
    ],
)
def test_chain_cache_matches_fresh_builds(b, gamma, j, p, pairs):
    # certify_pair grows chains digit by digit into the cell's cache, where
    # _build_chain also looks them up: every entry must have the bits of a
    # fresh walk from the root, or the certificate would depend on which
    # path filled the cache first.  These pairs stay unresolved, so their
    # search extends digits.
    params = SystemParams.classical(b, gamma)
    q = len(pairs[0][0])
    cell = Interval(j / b**p, (j + 1) / b**p)
    cache: dict = {}
    for pair in pairs:
        task = CertTask(params, q, cell, pair, 1e-3, 1e-3, Budget(max_nodes=300))
        certify_pair(task, _cache=cache)
    assert any(len(digits) > q + 1 for _, _, digits in cache)
    for lo, hi, digits in cache:
        x = Interval(lo, hi)
        fresh = certifier._build_chain(params, x, digits)
        assert _chain_bits(cache[(lo, hi, digits)]) == _chain_bits(fresh)
        assert certifier._build_chain(params, x, digits, cache) is cache[(lo, hi, digits)]
    # a miss stores the walk it returns
    x = Interval(0.5, 0.75)
    digits = (b - 1,) * (q + 2)
    built = certifier._build_chain(params, x, digits, cache)
    assert cache[(x.lo, x.hi, digits)] is built
    assert _chain_bits(built) == _chain_bits(certifier._build_chain(params, x, digits))


# -- closed-form pruning quantities ---------------------------------------


def test_delta_max_trivial():
    dm = delta_max(6, 0.0)
    assert dm.contains(1.0) and dm.width() < 1e-6


def test_delta_max_proven_bounds():
    dm = delta_max(6, 1 / 3)
    assert dm.hi <= 1.324  # max(1 + 0.972/3, 0.99 + 1/3)
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert delta_max(3, gamma).hi <= 1 + 0.71 * gamma
        assert delta_max(6, gamma).hi <= max(1 + 0.972 * gamma, 0.99 + gamma)


def test_delta_max_enclosure_brackets_samples():
    # dense sampling gives a lower bound the enclosure must respect
    for b, gamma in ((3, 0.5), (3, 0.9), (6, 0.9), (2, 0.25)):
        dm = delta_max(b, gamma)
        t = np.linspace(0, 2 * math.pi, 200001)
        best = float(np.max(np.sin(b * t) + gamma * np.sin(t)))
        assert dm.hi >= best - 1e-12
        assert dm.lo <= best + 1e-9
        assert dm.width() < 1e-6


def test_theta_bounds():
    assert abs(theta_bound(1, 6, 1.0) - 1.8) < 1e-12
    assert abs(theta_bound(2, 6, 1.0) - math.sqrt(21.24)) < 1e-12
    assert theta_bound(1, 2, 0.99) == 0.0  # max(0, .) clamps
    assert theta_bound(0, 6, 1.0) > theta_bound(1, 6, 1.0)
    with pytest.raises(ValueError):
        theta_bound(3, 6, 0.5)


# -- non-cohomology witness ------------------------------------------------


def test_witness_classical_b2(p27):
    w = noncohomology_witness(p27)
    assert w.gap > 0
    c = p27.dpsi_sup
    assert 2 * c < w.delta * 2**w.n1 * (2 - 1)  # printed inequality, rechecked
    assert (1 - w.gamma1**w.n1) * c < w.delta * 2 * (2 - 1)
    assert 0.0 <= w.gamma1 < 1.0


def test_witness_not_found_for_zero_psi():
    params = SystemParams(2, 0.7, TrigPoly.zero())
    with pytest.raises(WitnessNotFound):
        noncohomology_witness(params)
