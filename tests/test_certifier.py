import gc
import math
import random
import weakref

import numpy as np
import pytest

from skewcert import certifier
from skewcert.interval import Interval
from skewcert.series import Chain, SystemParams, TrigPoly, reflect_word, tail_value, tail_deriv
from skewcert.certifier import (
    CertTask,
    all_words,
    certify_pair,
    delta_max,
    tangency_graph,
    theta_bound,
)

from _oracles import count_tangency_samples, oracle_depth, s_batch


@pytest.fixture(scope="module")
def p27():
    return SystemParams.classical(2, 0.7)


# -- pair differences ---------------------------------------------------


def test_pair_diff_tails_shrink(p27):
    # certify_pair extends digits while the pair tail radii dominate: they
    # shrink with every digit
    tv2, td2, _ = certifier._pair_bounds(p27, 1)
    assert all(a > b for a, b in zip(tv2, tv2[1:]))
    assert all(a > b for a, b in zip(td2, td2[1:]))
    assert tv2[0] == 2 * tail_value(p27.psi_sup, p27.gamma_iv, 1)
    assert td2[-1] == 2 * tail_deriv(p27, 1 + certifier.D_MAX)


def test_pair_diff_contains_all_samples():
    # b=2, gamma=0.6, q=2, k=(0,0), l=(1,0), cell [0.25,0.26], d=4: the
    # chains' prefix differences, widened by the pair tail radii, must
    # contain every sampled continuation difference
    params = SystemParams.classical(2, 0.6)
    ka = (0, 0) + (1, 0, 1, 1)
    lb = (1, 0) + (0, 1, 0, 0)
    cell = Interval(0.25, 0.26)
    ca = Chain.root(cell).walk(params, ka)
    cb = Chain.root(cell).walk(params, lb)
    val = (ca.p - cb.p).widen(2 * tail_value(params.psi_sup, params.gamma_iv, len(ka)))
    der = (ca.dp - cb.dp).widen(2 * tail_deriv(params, len(ka)))
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
        CertTask(p27, 2, Interval(0.1, 0.2), ((0, 0), (1,)), 1e-3, 1e-3)


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
        CertTask(p27, 1, cell, ((0,), (1,)), 1e-3, 1e-3, 2)
    )
    assert not tiny.transversal and tiny.reason == "node budget"
    # the search found a leaf before it stopped; an unresolved certificate
    # keeps none, only why and when it stopped
    assert tiny.leaves == [] and tiny.node_count == 3
    full = certify_pair(CertTask(p27, 1, cell, ((0,), (1,)), 1e-3, 1e-3))
    assert full.transversal


def test_pair_bounds_do_not_keep_params_alive():
    params = SystemParams.classical(2, 0.7)
    ref = weakref.ref(params)
    certify_pair(CertTask(params, 1, Interval(0.0, 1 / 3), ((0,), (1,)), 1e-3, 1e-3))
    del params
    gc.collect()
    assert ref() is None


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
    g = tangency_graph(params, 1, 2, 1e-3, 1e-3)
    for j in range(4):
        assert len(g.unresolved[j]) == 1  # the single off-diagonal pair
    e = max(g.e_by_cell())
    assert e == 2


def test_graph_b2_gamma075_clean_quarters():
    params = SystemParams.classical(2, 0.75)
    g = tangency_graph(params, 1, 4, 1e-2, 1e-2)
    for j in list(range(0, 4)) + list(range(12, 16)):
        assert not g.unresolved[j], j


def _record_certify_calls(monkeypatch) -> list:
    """Route certifier.certify_pair through a recorder of its tasks."""
    calls = []

    def recording(task):
        calls.append(task)
        return certify_pair(task)

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
    max_nodes = 1024
    calls = _record_certify_calls(monkeypatch)
    g = tangency_graph(params, 1, p, 1e-2, 1e-2, max_nodes)
    monkeypatch.undo()
    n = g.n_cells
    derived = derived_unresolved = 0
    for (j, k, l), cert in g.certificates.items():
        if j <= (n - 1) // 2:
            assert cert.derived_from is None
            continue
        if cert.derived_from is not None:
            derived += 1
            assert cert.derived_from == n - 1 - j
            if not cert.transversal:
                # no leaves; why and when its source stopped
                derived_unresolved += 1
                source = g.certificates[(n - 1 - j, reflect_word(b, l), reflect_word(b, k))]
                assert cert.leaves == []
                assert (cert.reason, cert.node_count) == (source.reason, source.node_count)
        cell = g.cell_interval(j)
        assert (cert.task.cell.lo, cert.task.cell.hi) == (cell.lo, cell.hi)
        direct = certify_pair(CertTask(params, 1, cell, (k, l), 1e-2, 1e-2, max_nodes))
        assert cert.status == direct.status, (j, k, l)
        if cert.transversal:
            assert min(f.cell_lo for f in cert.leaves) <= cell.lo
            assert max(f.cell_hi for f in cert.leaves) >= cell.hi
    assert derived > 0 and derived_unresolved > 0
    # direct certification covers the cells j <= (n-1)/2 and the fallbacks only
    assert len(calls) == len(g.certificates) - derived
    for j in range(n):
        # reflection reverses the order of words, so (k, l) maps to (l', k')
        assert g.unresolved[n - 1 - j] == sorted(
            (reflect_word(b, l), reflect_word(b, k)) for k, l in g.unresolved[j]
        )


def test_full_pass_certifies_again_the_probe_non_transversal_pairs(monkeypatch):
    # the full pass inherits only the probe's transversal certificates: it
    # calls certify_pair once on each pair that the probe certified directly
    # and left unresolved, whatever it stopped on, and mirrors the others;
    # the graph is the one a single full-budget pass gives
    params = SystemParams.classical(2, 0.98)
    eps = 1e-2
    direct = tangency_graph(params, 1, 4, eps, eps)
    probe = tangency_graph(params, 1, 4, eps, eps, 1024)
    missed = {
        key: c.reason
        for key, c in probe.certificates.items()
        if not c.transversal and c.derived_from is None
    }
    assert set(missed.values()) == {"node budget", "depth budget"}
    calls = _record_certify_calls(monkeypatch)
    full = tangency_graph(params, 1, 4, eps, eps, prior=probe)
    cells = {(probe.cell_interval(j).lo, probe.cell_interval(j).hi): j for j in range(16)}
    called = [(cells[(t.cell.lo, t.cell.hi)], *t.pair) for t in calls]
    assert sorted(called) == sorted(missed)
    for key, cert in probe.certificates.items():
        if cert.transversal:
            assert full.certificates[key] is cert
    assert full.unresolved == direct.unresolved
    for key, cert in direct.certificates.items():
        got = full.certificates[key]
        assert (got.status, got.reason, got.node_count, got.derived_from) == (
            cert.status, cert.reason, cert.node_count, cert.derived_from
        )
        assert repr(got.leaves) == repr(cert.leaves)


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
        g = tangency_graph(params, q, p, eps, eps, 500)
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
            tol_v = 2 * tail_value(params.psi_sup, params.gamma_iv, n) + 1e-12
            tol_d = 2 * tail_deriv(params, n) + 1e-12
            assert leaf.val_lo - tol_v <= (vu - vv).min() and (vu - vv).max() <= leaf.val_hi + tol_v
            if leaf.margin == "deriv":
                assert leaf.der_lo - tol_d <= (du - dv).min()
                assert (du - dv).max() <= leaf.der_hi + tol_d
    assert bad == 0


def test_e_upper_examples():
    params = SystemParams.classical(2, 0.6)
    g = tangency_graph(params, 1, 3, 1e-2, 1e-2)
    per = g.e_by_cell()
    glob = max(per)
    assert glob == 1 and all(v == 1 for v in per)


def test_e_upper_refinement_monotone():
    params = SystemParams.classical(2, 0.75)
    coarse = max(tangency_graph(params, 1, 3, 1e-2, 1e-2).e_by_cell())
    fine = max(tangency_graph(params, 1, 5, 1e-2, 1e-2).e_by_cell())
    assert fine <= coarse


def test_unresolved_cells_satisfy_cos_closeness():
    # wherever a q=1 pair stays unresolved, the first-order cosine test
    # |cos(2pi(x+k)/b) - cos(2pi(x+l)/b)| <= 2 gamma/(b - gamma) + slack holds
    params = SystemParams.classical(2, 0.75)
    g = tangency_graph(params, 1, 5, 1e-3, 1e-3)
    bound = 2 * params.gamma / (params.b - params.gamma)
    eps_slack = 0.3  # finite (eps, delta) and finite cells blur the locus
    for j in range(g.n_cells):
        for k, l in g.unresolved[j]:
            x = g.cell_interval(j).mid()
            ck = math.cos(2 * math.pi * (x + k[0]) / params.b)
            cl = math.cos(2 * math.pi * (x + l[0]) / params.b)
            assert abs(ck - cl) <= bound + eps_slack


def test_image_cell_indexing():
    params = SystemParams.classical(2, 0.7)
    g = tangency_graph(params, 2, 4, 1e-2, 1e-2)
    # x(cell_j, w) = (x + w1 + 2 w2)/4 lands in the computed parent cell
    for j in (0, 5, 11,  15):
        for w in all_words(2, 2):
            parent = g.image_cell(j, w)
            x = g.cell_interval(j).mid()
            img = (x + w[0] + 2 * w[1]) / 4
            assert parent == min(int(img * 16), 15)


# -- chain trie --------------------------------------------------------------


def _chain_bits(chain):
    p = None if chain.p is None else (chain.p.lo, chain.p.hi)
    return (p, chain.dp.lo, chain.dp.hi, chain.z.lo, chain.z.hi, chain.n)


def _record_trie(monkeypatch) -> list:
    """Record certify_pair's `_build_chain` calls as (start, digits, end,
    number of `Chain.step` calls the walk made)."""
    calls = []
    steps = [0]
    step = Chain.step
    build = certifier._build_chain

    def counting_step(chain, params, d):
        steps[0] += 1
        return step(chain, params, d)

    def recording_build(params, chain, digits):
        before = steps[0]
        end = build(params, chain, digits)
        calls.append((chain, digits, end, steps[0] - before))
        return end

    monkeypatch.setattr(Chain, "step", counting_step)
    monkeypatch.setattr(certifier, "_build_chain", recording_build)
    return calls


def _trie_nodes(root):
    """Every (node, word) of the trie below root, the root included."""
    out = []
    todo = [(root, ())]
    while todo:
        chain, word = todo.pop()
        out.append((chain, word))
        kids = chain.kids
        if isinstance(kids, Chain):
            todo.append((kids, word + (kids.digit,)))
            continue
        for d, kid in enumerate(kids or ()):
            if kid is not None:
                todo.append((kid, word + (d,)))
    return out


@pytest.mark.parametrize(
    "b,gamma,j,p,pairs",
    [
        (6, 0.6, 0, 2, [((1,), (5,)), ((2,), (4,))]),
        (2, 0.68, 30, 6, [((0,), (1,))]),
        (2, 0.98, 0, 6, [((1, 0), (1, 1))]),
    ],
)
def test_chain_cache_matches_fresh_builds(b, gamma, j, p, pairs, monkeypatch):
    # certify_pair builds each popped node's chains in its digit trie,
    # stepping its parent's chains after a digit extension and walking from
    # the half-cell's roots after a bisection: every trie node must have the
    # bits of a fresh walk from its root, or the certificate would depend on
    # which path stepped it first.  Cell roots are slope-only (p is None)
    # and midpoint roots full.  These pairs stay unresolved, and their
    # search extends digits to the depth budget and then bisects.
    params = SystemParams.classical(b, gamma)
    q = len(pairs[0][0])
    cell = Interval(j / b**p, (j + 1) / b**p)
    calls = _record_trie(monkeypatch)
    for pair in pairs:
        calls.clear()
        task = CertTask(params, q, cell, pair, 1e-3, 1e-3, 1000)
        assert not certify_pair(task).transversal
        roots = {id(start): start for start, *_ in calls if start.n == 0}
        assert len(roots) > 2  # the task cell's two roots and a half-cell's
        deep = False
        nodes = 0
        kinds = set()
        for root in roots.values():
            value = root.p is not None
            kinds.add(value)
            for chain, word in _trie_nodes(root):
                fresh = Chain.root(root.z, value).walk(params, word)
                assert _chain_bits(chain) == _chain_bits(fresh)
                assert chain.digit == (word[-1] if word else -1)
                nodes += 1
                deep = deep or len(word) > q + 1
        assert deep and kinds == {False, True}
        # each trie node below a root was stepped exactly once
        assert sum(n for *_, n in calls) == nodes - len(roots)


def test_certify_pair_builds_chains_when_popped(monkeypatch):
    # the root branches, and the search stops at the budget before it pops
    # a child: only the root's four chains (cell and midpoint, for each
    # word) may be built, one step each from the two roots, and none of the
    # children it pushed
    params = SystemParams.classical(6, 0.6)
    cell = Interval(0.0, 1 / 36)
    calls = _record_trie(monkeypatch)
    task = CertTask(params, 1, cell, ((1,), (5,)), 1e-3, 1e-3, 1)
    cert = certify_pair(task)
    assert cert.reason == "node budget" and cert.node_count == 2
    xm = cell.mid()
    assert [(start.z.lo, start.z.hi, start.n, digits, n) for start, digits, _, n in calls] == [
        (cell.lo, cell.hi, 0, (1,), 1),
        (cell.lo, cell.hi, 0, (5,), 1),
        (xm, xm, 0, (1,), 1),
        (xm, xm, 0, (5,), 1),
    ]
    cell_root, mid_root = calls[0][0], calls[2][0]
    assert cell_root.p is None and mid_root.p is not None
    for root in (cell_root, mid_root):
        assert sorted(word for _, word in _trie_nodes(root)) == [(), (1,), (5,)]


def test_sibling_bisections_share_their_parent_word(monkeypatch):
    # sibling digit extensions that both bisect walk the same parent word
    # over the same half-cell: the later walk steps only its last digit
    params = SystemParams.classical(6, 0.6)
    cell = Interval(0.0, 1 / 36)
    calls = _record_trie(monkeypatch)
    task = CertTask(params, 1, cell, ((1,), (5,)), 1e-3, 1e-3, 1000)
    assert certify_pair(task).reason == "depth budget"
    walked: dict = {}
    shared = 0
    for start, digits, _, steps in calls:
        if start.n != 0 or len(digits) < 2:
            continue
        parent = (id(start), digits[:-1])
        if parent in walked:
            assert steps <= 1, digits
            shared += 1
        walked.setdefault(parent, steps)
    assert shared > 0
    assert max(walked.values()) >= 2  # the first walk of a parent word


# -- closed-form pruning quantities ---------------------------------------


def test_delta_max_trivial():
    dm = delta_max(6, 0.0)
    assert dm.contains(1.0) and dm.width() < 1e-6


def test_delta_max_b1_adds_the_harmonics():
    # at b = 1 both terms are sin t: the maximum is 1 + gamma, at t = pi/2
    for gamma in (0.0, 0.3, 0.7, 0.95):
        dm = delta_max(1, gamma)
        assert dm.contains(1.0 + gamma) and dm.width() < 1e-6, gamma


def test_delta_max_proven_bounds():
    dm = delta_max(6, 1 / 3)
    assert dm.hi <= 1.324  # max(1 + 0.972/3, 0.99 + 1/3)
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert delta_max(3, gamma).hi <= 1 + 0.71 * gamma
        assert delta_max(6, gamma).hi <= max(1 + 0.972 * gamma, 0.99 + gamma)


def test_delta_max_enclosure_brackets_samples():
    # the best of a dense sample, refined to the nearby zero of
    # f'(t) = b cos bt + gamma cos t by mpmath, is the true maximum the
    # enclosure must bracket
    from mpmath import mp

    for b, gamma in ((3, 0.5), (3, 0.9), (6, 0.9), (2, 0.25), (6, 1 / 3)):
        dm = delta_max(b, gamma)
        t = np.linspace(0, 2 * math.pi, 200001)
        t0 = float(t[np.argmax(np.sin(b * t) + gamma * np.sin(t))])
        with mp.workprec(100):
            t_star = mp.findroot(lambda s: b * mp.cos(b * s) + gamma * mp.cos(s), t0)
            top = float(mp.sin(b * t_star) + gamma * mp.sin(t_star))
        assert dm.hi >= top - 1e-12
        assert dm.lo <= top + 1e-12
        assert dm.width() < 1e-6


def test_theta_bounds():
    assert abs(theta_bound(1, 6, 1.0) - 1.8) < 1e-12
    assert abs(theta_bound(2, 6, 1.0) - math.sqrt(21.24)) < 1e-12
    assert theta_bound(1, 2, 0.99) == 0.0  # max(0, .) clamps
    assert theta_bound(0, 6, 1.0) > theta_bound(1, 6, 1.0)
    with pytest.raises(ValueError):
        theta_bound(3, 6, 0.5)
