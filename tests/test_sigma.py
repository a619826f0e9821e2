import math

import pytest

from skewcert.certifier import PairGraph, all_words, tangency_graph
from skewcert import certifier, sigma
from skewcert.series import SystemParams
from skewcert.sigma import (
    GOLDEN,
    LADDER,
    SQRT2,
    certify_main,
    check_golden,
    check_one_miss,
    check_sqrt2,
    check_three_tier,
    sigma_upper,
    solve_alpha,
    solve_t,
)

from _oracles import bisect_root


# -- root solvers ---------------------------------------------------------


def test_solve_alpha_degenerate():
    alpha, bound = solve_alpha(2, 1)
    assert alpha == 2.0 and bound == 1.0


def test_solve_alpha_b2_q2_vs_bisection():
    alpha, bound = solve_alpha(2, 2)
    # oracle: root of 2 - a = 2 a (a - 1) in (1, 2)
    oracle = bisect_root(lambda a: 2 - a - 2 * a * (a - 1), 1.0, 2.0)
    assert abs(alpha - oracle) < 1e-12
    assert abs(alpha - (1 + math.sqrt(17)) / 4) < 1e-12
    assert abs(bound - (2 + 2 / alpha)) < 1e-15


@pytest.mark.parametrize("b,q", [(2, 2), (3, 1), (3, 2), (6, 1), (12, 1), (2, 5)])
def test_solve_alpha_both_printed_forms(b, q):
    alpha, bound = solve_alpha(b, q)
    assert abs(bound - (1 + (b**q - 2) * alpha)) < 1e-10 * max(1.0, bound)
    # residual of the defining equation
    resid = 2 - alpha - (b**q - 2) * alpha * (alpha - 1)
    assert abs(resid) < 1e-10


def test_solve_t():
    t = solve_t()
    assert 1.60 < t < 1.61
    resid = 1 / (t * t - 1) + 2 / (t**3 - 2) + 1 - t * t
    assert abs(resid) < 1e-12
    oracle = bisect_root(
        lambda s: 1 / (s * s - 1) + 2 / (s**3 - 2) + 1 - s * s, 2 ** (1 / 3) + 1e-6, 1.61
    )
    assert abs(t - oracle) < 1e-12
    assert abs(t - 1.6044255915418513) < 1e-12  # frozen from the bisection oracle


# -- handcrafted graphs for the scheme checkers ----------------------------


def make_graph(b, q, p, cell_pairs):
    """A graph whose cell j leaves the pairs cell_pairs[j] unresolved, in
    either order; each cell's list holds them as sorted (k, l) with k < l."""
    unresolved = [
        sorted({tuple(sorted(pair)) for pair in cell_pairs.get(j, [])}) for j in range(b**p)
    ]
    return PairGraph(b, q, p, 1e-2, 1e-2, unresolved)


def test_check_sqrt2_fires_with_clean_images():
    g = make_graph(2, 1, 3, {3: [((0,), (1,))], 4: [((0,), (1,))]})
    s = check_sqrt2(g)
    assert s is not None and s.bound == SQRT2
    best = sigma_upper(g)
    assert best.kind == "sqrt2" and best.bound == SQRT2


def test_check_golden_single_sided_images():
    # each pair has exactly one image inside the diagonal-only set
    g = make_graph(2, 1, 2, {1: [((0,), (1,))], 2: [((0,), (1,))]})
    assert check_sqrt2(g) is None
    assert check_three_tier(g) is None
    s = check_golden(g)
    assert s is not None and s.bound == GOLDEN
    best = sigma_upper(g)
    assert best.kind == "golden" and best.bound == GOLDEN


def test_check_three_tier_star():
    # K1 = cell 0 (pair with both images clean), K2 = cell 3 (star: the
    # shared word's image is clean, one leaf image clean, the other in K1)
    g = make_graph(
        2,
        2,
        3,
        {
            0: [(((1, 0)), ((1, 1)))],
            3: [(((0, 1)), ((1, 0))), (((0, 0)), ((0, 1)))],
        },
    )
    assert check_sqrt2(g) is None
    assert check_golden(g) is None
    s = check_three_tier(g)
    assert s is not None
    assert s.regions["K1"] == [0] and s.regions["K2"] == [3]
    best = sigma_upper(g)
    assert best.kind == "three_tier"
    assert best.bound == solve_t()


def test_check_one_miss_wins_at_high_degree():
    pairs = [(((0, 0)), ((0, 1))), (((0, 0)), ((1, 0))), (((0, 0)), ((1, 1)))]
    g = make_graph(2, 2, 1, {0: pairs, 1: pairs})
    assert check_sqrt2(g) is None and check_golden(g) is None
    assert check_three_tier(g) is None
    s = check_one_miss(g)
    assert s is not None
    best = sigma_upper(g)
    assert best.kind == "one_miss"
    assert best.bound == pytest.approx(2 + 2 / ((1 + math.sqrt(17)) / 4), rel=1e-12)
    e = max(g.e_by_cell())
    assert e == 4 > best.bound


def test_one_miss_rejects_full_cell():
    words = all_words(2, 1)
    full = [(k, l) for k in words for l in words if k != l]
    g = make_graph(2, 1, 1, {0: full, 1: []})
    assert check_one_miss(g) is None


def test_trivial_fallback_diagonal_only():
    g = make_graph(2, 2, 2, {})
    best = sigma_upper(g)
    assert best.bound == 1.0 and best.kind == "trivial"


def test_sigma_never_exceeds_e():
    params = SystemParams.classical(2, 0.75)
    g = tangency_graph(params, 1, 4, 1e-2, 1e-2)
    e = max(g.e_by_cell())
    assert sigma_upper(g).bound <= e + 1e-12


# -- scheme re-validation (the hypotheses, re-checked independently) --------


def _revalidate(graph: PairGraph, scheme) -> None:
    k0 = {j for j in range(graph.n_cells) if not graph.unresolved[j]}
    if scheme.kind in ("sqrt2", "golden"):
        assert set(scheme.regions["K"]) == k0
        for j in range(graph.n_cells):
            if j in k0:
                continue
            pairs = graph.unresolved[j]
            used = [w for pair in pairs for w in pair]
            assert len(used) == len(set(used))  # e(q, x) <= 2: a matching
            for k, l in pairs:
                a = graph.image_cell(j, k) in k0
                b = graph.image_cell(j, l) in k0
                assert (a and b) if scheme.kind == "sqrt2" else (a or b)
    elif scheme.kind == "three_tier":
        k0s = set(scheme.regions["K0"])
        k1 = set(scheme.regions["K1"])
        k2 = set(scheme.regions["K2"])
        assert k0s == k0
        assert k0s | k1 | k2 == set(range(graph.n_cells))
        assert not (k0s & k1) and not (k0s & k2) and not (k1 & k2)
        for j in k1:
            d = scheme.designated[j]
            assert graph.image_cell(j, d["a"]) in k0s
            assert graph.image_cell(j, d["b"]) in k0s
            assert set(graph.unresolved[j]) <= {tuple(sorted((d["a"], d["b"])))}
        for j in k2:
            d = scheme.designated[j]
            a, b, c = d["a"], d["b"], d["c"]
            assert graph.image_cell(j, a) in k0s
            allowed = set()
            if b is not None:
                assert graph.image_cell(j, b) in k0s
                allowed.add(tuple(sorted((a, b))))
            if c is not None:
                assert graph.image_cell(j, c) in k1
                allowed.add(tuple(sorted((a, c))))
            assert set(graph.unresolved[j]) <= allowed


def test_reported_schemes_revalidate_on_real_graphs():
    for gamma, q in ((0.75, 1), (0.98, 1)):
        params = SystemParams.classical(2, gamma)
        g = tangency_graph(params, q, 5, 1e-2, 1e-2)
        best = sigma_upper(g)
        if best.kind in ("sqrt2", "golden", "three_tier"):
            _revalidate(g, best)


def test_revalidate_handcrafted_three_tier():
    g = make_graph(
        2, 2, 3,
        {0: [(((1, 0)), ((1, 1)))], 3: [(((0, 1)), ((1, 0))), (((0, 0)), ((0, 1)))]},
    )
    s = check_three_tier(g)
    _revalidate(g, s)


# -- main driver ------------------------------------------------------------


def test_certify_main_b2_gamma06():
    params = SystemParams.classical(2, 0.6)
    v = certify_main(params, 2)
    assert v.success and v.q == 1
    assert v.sigma_bound < (2 * 0.6) ** v.q
    assert v.rungs[-1].e_global == 1


def test_certify_main_budget_monotonicity():
    params = SystemParams.classical(2, 0.6)
    tiny = certify_main(params, 1, max_nodes=3)
    full = certify_main(params, 1)
    if tiny.success:
        assert full.success
    assert full.success


def test_certify_main_inconclusive_zero_psi():
    from skewcert.series import TrigPoly

    params = SystemParams(2, 0.6, TrigPoly.zero())
    v = certify_main(params, 1, grid_p=2)
    assert not v.success
    assert all(not r.success for r in v.rungs)
    assert v.deciding is None
    assert (v.q, v.scheme, v.sigma_bound, v.target, v.margin, v.eps, v.delta) == (None,) * 7


def test_certify_main_zero_psi_full_pass_reruns_tangency_witnesses():
    # psi = 0 puts every pair in the tangency box at its first node: the
    # probe certifies the 32 unmirrored cells' pairs (1 node each) and the
    # full pass, which inherits only transversal certificates, certifies
    # them again, to the same certificates
    from skewcert.series import TrigPoly

    v = certify_main(SystemParams(2, 0.7, TrigPoly.zero()), 1, keep_graphs=True)
    assert not v.success and v.grid_p == 6
    assert [r.nodes for r in v.rungs] == [64, 64, 64]
    certs = v.rungs[-1].graph.certificates.values()
    assert {(c.reason, c.node_count) for c in certs} == {("tangency witness", 1)}


def test_unresolved_lists_the_non_transversal_certificates(monkeypatch):
    # every graph that the b = 2, gamma = 0.68 ladder builds (q <= 2, probe
    # and full passes): cell j lists the sorted keys of its certificates
    # that are not transversal, and nothing else
    graphs = []
    real = sigma.tangency_graph

    def recording(*args, **kwargs):
        graphs.append(real(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(sigma, "tangency_graph", recording)
    v = certify_main(SystemParams.classical(2, 0.68), 2, grid_p=4)
    assert v.q == 2 and len(graphs) > len(v.rungs)
    assert any(any(g.unresolved) for g in graphs)
    for g in graphs:
        for j in range(g.n_cells):
            keys = [(k, l) for (i, k, l), c in g.certificates.items() if i == j]
            assert len(keys) == math.comb(2**g.q, 2)
            missed = sorted(
                (k, l) for (i, k, l), c in g.certificates.items() if i == j and not c.transversal
            )
            assert g.unresolved[j] == missed, (g.q, g.eps, j)


def test_verdict_headline_reads_the_deciding_rung():
    v = certify_main(SystemParams.classical(2, 0.68), 2, grid_p=4)
    r = v.rungs[-1]
    assert v.success and v.deciding is r and not any(x.success for x in v.rungs[:-1])
    assert (v.q, v.scheme, v.sigma_bound, v.target, v.margin, v.eps, v.delta) == (
        r.q, r.scheme, r.scheme.bound, r.target, r.target - r.scheme.bound, r.eps, r.delta
    )


def test_verdict_serialization():
    params = SystemParams.classical(2, 0.6)
    v = certify_main(params, 1)
    d = v.to_dict()
    assert d["success"] is True
    assert d["rungs"][0]["q"] == 1
    import json

    json.dumps(d)  # payload is JSON-clean


def _single_pass_ladder(params, q_max, p):
    """(q, eps, graph, scheme) per rung of a full-budget ladder with one
    tangency_graph call per rung, up to the first success."""
    out = []
    for q in range(1, q_max + 1):
        prior = None
        for eps in LADDER:
            prior = tangency_graph(params, q, p, eps, eps, prior=prior)
            scheme = sigma_upper(prior)
            out.append((q, eps, prior, scheme))
            if scheme.bound < (params.gamma * params.b) ** q:
                return out
    return out


@pytest.mark.parametrize("probe_nodes", [None, 8, 1024])
def test_certify_main_two_pass_rungs_match_single_pass(monkeypatch, probe_nodes):
    # a small probe budget leaves certifiable pairs unresolved, so the
    # full-budget pass of each missed rung has to recover them; 1024 was
    # the default probe before it was lowered to 16
    if probe_nodes is not None:
        monkeypatch.setattr(sigma, "PROBE_NODES", probe_nodes)
    params = SystemParams.classical(2, 0.68)
    p = 4
    v = certify_main(params, 2, grid_p=p, keep_graphs=True)
    ref = _single_pass_ladder(params, 2, p)
    assert [(r.q, r.eps) for r in v.rungs] == [(q, eps) for q, eps, *_ in ref]
    missed = [(r, ref_rung) for r, ref_rung in zip(v.rungs, ref) if not r.success]
    assert missed
    for r, (_, _, graph, scheme) in missed:
        assert r.graph.unresolved == graph.unresolved
        assert (r.scheme.bound, r.scheme.kind) == (scheme.bound, scheme.kind)
    _, _, _, scheme = ref[-1]
    assert v.success == (scheme.bound < (params.gamma * params.b) ** ref[-1][0])
    assert (v.q, v.sigma_bound, v.scheme.kind if v.scheme else None) == (
        (ref[-1][0], scheme.bound, scheme.kind) if v.success else (None, None, None)
    )


def test_rung_nodes_sum_certify_pair_nodes(monkeypatch):
    # b = 2, gamma = 0.68 has missed rungs (probe and full pass), inherited
    # pairs and mirror-derived cells, which must add no nodes
    counted = []
    real = certifier.certify_pair

    def counting(task):
        cert = real(task)
        counted.append(cert.node_count)
        return cert

    monkeypatch.setattr(certifier, "certify_pair", counting)
    v = certify_main(SystemParams.classical(2, 0.68), 2, grid_p=4)
    assert any(not r.success for r in v.rungs)
    assert sum(r.nodes for r in v.rungs) == sum(counted) > 0
    assert [r["nodes"] for r in v.to_dict()["rungs"]] == [r.nodes for r in v.rungs]
