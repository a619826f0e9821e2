"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
tolerances and budgets are pinned here, not configurable.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from skewcert.boxdim import box_count_dim, sample_graph, theoretical_D
from skewcert.certifier import (
    CertTask,
    certify_pair,
    delta_max,
    theta_bound,
)
from skewcert import cli
from skewcert.cli import main as cli_main
from skewcert.measures import (
    AtomicMeasure,
    fiber_affine,
    local_dim_regress,
    sample_mx,
    vertical_scaling_check,
)
from skewcert.series import SystemParams
from skewcert.sigma import GOLDEN, SQRT2, certify_main, solve_alpha, solve_t

from _oracles import count_tangency_samples, oracle_depth


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: large-b grid realization ----------------------------------


def test_criterion_1_large_b_grid():
    lines = []
    ok = True
    for b in (6, 8, 12):
        for gamma in (0.2, 0.5, 0.9):
            if not 1.0 / b < gamma < 1.0:
                continue
            t0 = time.perf_counter()
            v = certify_main(SystemParams.classical(b, gamma), q_max=1)
            dt = time.perf_counter() - t0
            e_glob = v.rungs[-1].e_global if v.rungs else None
            good = (
                v.success
                and v.q == 1
                and e_glob is not None
                and e_glob < gamma * b
                and dt < 120.0
            )
            ok = ok and good
            lines.append(f"b={b} gamma={gamma}: e={e_glob} < {gamma * b:.2f} in {dt:.1f}s")
    _report("criterion 1 (b in {6,8,12} certify at q=1, e < gamma b)", ok, "; ".join(lines))


# -- criterion 2: the b=2 regime ladder --------------------------------------


def test_criterion_2_b2_ladder():
    # (gamma, largest admissible q, cap on the certified bound)
    ladder = [
        (0.98, 1, GOLDEN),
        (0.75, 1, SQRT2),
        (0.68, 2, 1.61),
        (0.60, 2, SQRT2),
        (0.55, 3, SQRT2),
        (0.52, 1, 1.0),
    ]
    t_total = time.perf_counter()
    lines = []
    ok = True
    for gamma, q_cap, bound_cap in ladder:
        v = certify_main(SystemParams.classical(2, gamma), q_max=q_cap)
        good = (
            v.success
            and v.q is not None
            and v.q <= q_cap
            and v.sigma_bound <= bound_cap + 1e-9
            and v.sigma_bound < (2 * gamma) ** v.q
        )
        ok = ok and good
        lines.append(
            f"gamma={gamma}: q={v.q} {v.scheme.kind if v.scheme else '-'} "
            f"bound={v.sigma_bound if v.sigma_bound is not None else float('nan'):.4f} "
            f"< {(2 * gamma) ** (v.q or 1):.4f}"
        )
    elapsed = time.perf_counter() - t_total
    ok = ok and elapsed < 600.0
    _report(
        "criterion 2 (b=2 regime ladder)", ok, "; ".join(lines) + f"; total {elapsed:.0f}s"
    )


# -- criterion 3: closed forms ------------------------------------------------


def test_criterion_3_closed_forms():
    checks = []
    checks.append(("theta1(6,1)=1.8", abs(theta_bound(1, 6, 1.0) - 1.8) < 1e-12))
    checks.append(
        ("theta2(6,1)=sqrt(21.24)", abs(theta_bound(2, 6, 1.0) - math.sqrt(21.24)) < 1e-12)
    )
    delta_ok = True
    for gamma in [k / 10 for k in range(1, 10)]:
        delta_ok &= delta_max(6, gamma).hi <= max(1 + 0.972 * gamma, 0.99 + gamma)
        delta_ok &= delta_max(3, gamma).hi <= 1 + 0.71 * gamma
    checks.append(("delta_max closed-form bounds", delta_ok))
    t = solve_t()
    resid = 1 / (t * t - 1) + 2 / (t**3 - 2) + 1 - t * t
    checks.append(("solve_t residual and range", abs(resid) < 1e-12 and 1.60 < t < 1.61))
    alpha_ok = True
    for b, q in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (6, 1), (12, 1)):
        alpha, bound = solve_alpha(b, q)
        alpha_ok &= abs(bound - (1 + (b**q - 2) * alpha)) < 1e-12 * max(1.0, bound)
    checks.append(("solve_alpha printed-form consistency", alpha_ok))
    ok = all(flag for _, flag in checks)
    _report("criterion 3 (closed-form checks at 1e-12)", ok, "; ".join(n for n, _ in checks))


# -- criterion 4: exact measure identities -------------------------------------


def test_criterion_4_measure_identities():
    p = SystemParams.classical(2, 0.7)
    details = []

    # self-similarity reconstruction at b=2, q=2, N=6
    x0 = 0.3
    full = sample_mx(p, x0, 8)
    parts = []
    for w in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        z = x0
        for d in w:
            z = (z + d) / 2
        parts.append(fiber_affine(p, x0, w).apply(sample_mx(p, z, 6)).locs)
    recon = np.sort(np.concatenate(parts))
    err_recon = float(np.max(np.abs(recon - full.locs)))
    details.append(f"reconstruction {err_recon:.2e}")

    # vertical scaling identity on random 1000-atom measures
    rng = np.random.default_rng(2024)
    err_scaling = 0.0
    for _ in range(5):
        locs = np.sort(rng.normal(size=1000) * rng.uniform(0.5, 3.0))
        masses = rng.random(1000)
        masses /= masses.sum()
        mu = AtomicMeasure(locs, masses, 10, 0.0)
        lhs, rhs = vertical_scaling_check(mu, p, 3, 0.01)
        err_scaling = max(err_scaling, abs(lhs - rhs) / abs(rhs))
    details.append(f"scaling {err_scaling:.2e}")

    # adding-machine invariance and odd reflection
    a = sample_mx(p, 0.37, 10)
    b = sample_mx(p, 1.37, 10)
    err_add = float(np.max(np.abs(a.locs - b.locs)))
    c = sample_mx(p, 1 - 0.37, 10)
    err_reflect = float(np.max(np.abs(np.sort(-c.locs) - a.locs)))
    details.append(f"adding {err_add:.2e}; reflect {err_reflect:.2e}")

    ok = (
        err_recon < 1e-12
        and err_scaling < 1e-12
        and err_add < 1e-12
        and err_reflect < 1e-12
    )
    _report("criterion 4 (exact measure identities at 1e-12)", ok, "; ".join(details))


# -- criterion 5: certifier soundness fuzz --------------------------------------


def _random_transversal_certs(n: int):
    rng = np.random.default_rng(31337)
    out = []
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        b = int(rng.choice([2, 2, 2, 3, 6]))
        gamma = float(rng.uniform(1.0 / b + 0.05, 0.9))
        q = int(rng.choice([1, 2])) if b == 2 else 1
        p_depth = 4 if b <= 3 else 2
        j = int(rng.integers(0, b**p_depth))
        scale = float(b**p_depth)
        cell_lo = j / scale
        cell_hi = (j + 1) / scale
        words = [tuple(map(int, rng.integers(0, b, size=q))) for _ in range(2)]
        if words[0] == words[1]:
            continue
        eps = float(rng.choice([1e-2, 1e-3]))
        params = SystemParams.classical(b, gamma)
        from skewcert.interval import Interval

        task = CertTask(
            params, q, Interval(cell_lo, cell_hi), (words[0], words[1]), eps, eps,
            3000,
        )
        cert = certify_pair(task)
        if cert.transversal:
            out.append((params, cell_lo, cell_hi, words[0], words[1], eps))
    return out


def test_criterion_5_soundness_fuzz():
    certs = _random_transversal_certs(100)
    assert len(certs) == 100, "could not draw 100 transversal certificates"
    rng = np.random.default_rng(99)
    total_bad = 0
    t0 = time.perf_counter()
    for params, lo, hi, k, l, eps in certs:
        depth = oracle_depth(params, eps)
        total_bad += count_tangency_samples(
            params, lo, hi, k, l, eps, eps, 500, 200, depth, rng
        )
    dt = time.perf_counter() - t0
    # one certificate re-checked at the full stated density (10^4 x 10^3),
    # chunked over the x-grid to keep memory flat
    params, lo, hi, k, l, eps = certs[0]
    depth = max(30, oracle_depth(params, eps))
    for xs_chunk in np.array_split(np.linspace(lo, hi, 10_000), 10):
        total_bad += count_tangency_samples(
            params, float(xs_chunk[0]), float(xs_chunk[-1]), k, l, eps, eps,
            xs_chunk.size, 1_000, depth, rng,
        )
    ok = total_bad == 0
    _report(
        "criterion 5 (100 certificates, zero oracle counterexamples)",
        ok,
        f"violations={total_bad}, sampled in {dt:.0f}s + full-density recheck",
    )


# -- criterion 6: box-counting dimension -----------------------------------------


@pytest.mark.parametrize(
    "lam,b,target",
    [(0.7, 2, 1.4854), (0.5, 3, 1.3691)],
)
def test_criterion_6_box_dimension(lam, b, target):
    t0 = time.perf_counter()
    sample = sample_graph(lam, b, 20)
    res = box_count_dim(sample, range(4, 15))
    dt = time.perf_counter() - t0
    d = theoretical_D(lam, b)
    ok = abs(res.slope - d) <= 0.05 and abs(d - target) < 1e-3 and dt < 300.0
    _report(
        f"criterion 6 (box dimension W_{{{lam},{b}}})",
        ok,
        f"D_hat={res.slope:.4f} vs D={d:.4f} (|diff|={abs(res.slope - d):.4f}) in {dt:.0f}s",
    )


# -- criterion 7: local dimension of the fiber measures ----------------------------


def test_criterion_7_fiber_local_dimension():
    p = SystemParams.classical(2, 0.8)
    rng = np.random.default_rng(7)
    xs = rng.random(5)
    radii = [2.0**-k for k in range(4, 12)]
    slopes = []
    ok = True
    for i, x in enumerate(xs):
        mu = sample_mx(p, float(x), 70, mode="mc", n_samples=400_000, seed=1000 + i)
        reg = local_dim_regress(mu, radii, n_centers=100, seed=2000 + i)
        slopes.append(reg.slope)
        ok = ok and 0.9 <= reg.slope <= 1.05
    _report(
        "criterion 7 (m_x local dimension in [0.9, 1.05])",
        ok,
        "slopes=" + ", ".join(f"{s:.3f}" for s in slopes),
    )


# -- criterion 8: byte determinism across thread counts ----------------------------


def test_criterion_8_sweep_determinism(tmp_path, monkeypatch):
    # two usable CPUs, whatever the host has, so the --threads 4 run
    # really runs its 3 gamma values in a pool of 2 worker processes
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    args = [
        "sweep", "--b", "6", "--gamma-start", "0.3", "--gamma-stop", "0.9",
        "--gamma-step", "0.3", "--qmax", "1",
    ]
    rc1 = cli_main(args + ["--threads", "1", "--out", str(tmp_path / "t1")])
    rc2 = cli_main(args + ["--threads", "4", "--out", str(tmp_path / "t4")])
    csv_same = (tmp_path / "t1" / "sweep.csv").read_bytes() == (
        tmp_path / "t4" / "sweep.csv"
    ).read_bytes()
    rep_same = (tmp_path / "t1" / "report.json").read_bytes() == (
        tmp_path / "t4" / "report.json"
    ).read_bytes()
    rows = json.loads((tmp_path / "t1" / "report.json").read_text())["rows"]
    ok = rc1 == 0 and rc2 == 0 and csv_same and rep_same and len(rows) == 3 and pools == [2]
    _report(
        "criterion 8 (sweep reports byte-identical across thread counts)",
        ok,
        f"csv={csv_same} report={rep_same} rows={len(rows)} pools={pools}",
    )
