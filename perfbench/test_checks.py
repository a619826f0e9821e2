"""Each benchmark check accepts the program's real output and rejects a
tampered copy; failed operations are counted, not raised.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skewcert.boxdim import box_count_dim, sample_graph  # noqa: E402
from skewcert.certifier import CertTask, certify_pair  # noqa: E402
from skewcert.interval import Interval  # noqa: E402
from skewcert.measures import AtomicMeasure, corr_sq_norm, sample_mx, srb_sample  # noqa: E402
from skewcert.series import SystemParams  # noqa: E402
from skewcert.sigma import solve_alpha, solve_t  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "kind,bound,b,q,e",
    [
        ("sqrt2", math.sqrt(2.0), 2, 1, 2),
        ("golden", (1 + math.sqrt(5.0)) / 2, 2, 1, 2),
        ("three_tier", solve_t(), 2, 2, 3),
        ("one_miss", solve_alpha(2, 2)[1], 2, 2, 4),
        ("one_miss", solve_alpha(6, 1)[1], 6, 1, 6),
        ("trivial", 2.0, 6, 1, 2),
    ],
)
def test_scheme_bound_closed_forms(kind, bound, b, q, e):
    assert checks.scheme_problems(kind, bound, b, q, e) == []
    assert checks.scheme_problems(kind, bound + 1e-6, b, q, e)


def test_raised_bound_fails():
    # b = 2, gamma = 0.75: target 1.5, sqrt2 certifies
    assert checks.verdict_problems(2, 0.75, 1, "sqrt2", math.sqrt(2), 1.5, 2) == []
    assert checks.verdict_problems(2, 0.75, 1, "trivial", 2.0, 1.5, 2)
    assert checks.verdict_problems(2, 0.75, 1, "sqrt2", math.sqrt(2), 1.6, 2)


def test_wrong_e_fails():
    assert checks.large_b_problems(6, 0.6, 1, 3) == []
    assert checks.large_b_problems(6, 0.6, 1, 4)
    assert checks.large_b_problems(6, 0.6, 2, 3)
    assert checks.verdict_problems(6, 0.6, 1, "trivial", 2.0, 3.6, 3)


def test_ladder_caps():
    assert checks.ladder_cap_problems(2, math.sqrt(2), 2, 1.61) == []
    assert checks.ladder_cap_problems(3, math.sqrt(2), 2, 1.61)
    assert checks.ladder_cap_problems(1, checks.GOLDEN, 1, math.sqrt(2))


def test_certificate_sampling():
    params = SystemParams.classical(6, 0.6)
    cell = Interval(7 / 36, 8 / 36)
    cert = certify_pair(CertTask(params, 1, cell, ((0,), (3,)), 1e-2, 1e-2))
    assert cert.transversal
    rng = np.random.default_rng(0)
    assert checks.certificate_problems(6, 0.6, (cell.lo, cell.hi), ((0,), (3,)), 1e-2, 1e-2, rng) == []
    # a diagonal pair is tangent everywhere; a huge margin box swallows any pair
    assert checks.certificate_problems(6, 0.6, (cell.lo, cell.hi), ((2,), (2,)), 1e-2, 1e-2, rng)
    assert checks.certificate_problems(6, 0.6, (cell.lo, cell.hi), ((0,), (3,)), 1e3, 1e3, rng)


def test_perturbed_atom_fails():
    mu = sample_mx(SystemParams.classical(2, 0.8), 0.3, 10)
    assert checks.atoms_problems(2, 0.8, 0.3, 10, mu.locs, mu.masses) == []
    locs = mu.locs.copy()
    locs[17] += 1e-9
    assert checks.atoms_problems(2, 0.8, 0.3, 10, locs, mu.masses)
    assert checks.atoms_problems(2, 0.8, 0.3, 10, mu.locs[1:], mu.masses[1:])
    assert checks.atoms_problems(2, 0.8, 0.31, 10, mu.locs, mu.masses)


def test_corr_against_brute_force():
    rng = np.random.default_rng(3)
    locs = np.sort(rng.normal(size=400))
    masses = np.full(400, 1 / 400)
    mu = AtomicMeasure(locs, masses, 10, 0.0)
    radii = (0.5, 0.05, 0.005)
    values = [corr_sq_norm(mu, r) for r in radii]
    assert checks.corr_problems(locs, masses, radii, values) == []
    values[1] *= 1 + 1e-6
    assert checks.corr_problems(locs, masses, radii, values)


def test_i_r_bounds():
    assert checks.i_r_problems([0.5, 0.25], [1.0, 7.9]) == []
    assert checks.i_r_problems([0.5, 0.25], [1.0, 8.1])
    assert checks.i_r_problems([0.5], [0.0])


def test_shifted_dimensions_fail():
    sample = sample_graph(0.7, 2, 16)
    res = box_count_dim(sample, range(4, 13))
    assert checks.box_dim_problems(res.slope, 0.7, 2) == []
    away = math.copysign(0.06, res.slope - (2 + math.log(0.7) / math.log(2)))
    assert checks.box_dim_problems(res.slope + away, 0.7, 2)
    assert checks.local_dim_problems(1.0) == []
    assert checks.local_dim_problems(0.85)
    assert checks.local_dim_problems(1.06)
    assert checks.graph_local_dim_problems(1.45) == []
    assert checks.graph_local_dim_problems(2.2)


def test_graph_values():
    sample = sample_graph(0.5, 3, 12)
    idx = [0, 5, 777, 4095]
    vals = [float(sample.values[i]) for i in idx]
    assert checks.graph_value_problems(0.5, 3, 12, sample.depth, idx, vals) == []
    vals[2] += 1e-6
    assert checks.graph_value_problems(0.5, 3, 12, sample.depth, idx, vals)


def test_srb_marginal():
    h = srb_sample(SystemParams.classical(2, 0.8), 500, 400, 100, seed=5)
    marg = h.counts.sum(axis=1)
    assert checks.srb_problems(marg, 500, 400, 100) == []
    tampered = marg.copy()
    moved = tampered[:8].sum() // 2
    tampered[:8] //= 2
    tampered[8] += moved + (marg.sum() - tampered.sum() - moved)
    assert tampered.sum() == marg.sum()
    assert checks.srb_problems(tampered, 500, 400, 100)
    assert checks.srb_problems(marg, 500, 401, 100)


def test_failed_operations_are_counted_not_raised(tmp_path):
    tally = run.Tally()
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"b": 2, "gamma": 0.6, "psi": "zero", "qmax": 1, "grid_p": 2}))
    inconclusive = workloads.CliCertifyOp(0.6, tmp_path / "a", random.Random(0))
    inconclusive.argv = ["certify", "--config", str(cfg), "--out", str(tmp_path / "a")]
    invalid = workloads.CliCertifyOp(1.5, tmp_path / "b", random.Random(0))
    good = workloads.CliCertifyOp(0.2, tmp_path / "c", random.Random(0))
    assert [tally.execute(op, 0).status for op in (inconclusive, invalid, good)] == [
        "inconclusive",
        "invalid",
        "ok",
    ]
    assert tally.check() == (2, True)


def test_failed_check_marks_run_incorrect(tmp_path):
    tally = run.Tally()
    good = workloads.CliCertifyOp(0.2, tmp_path, random.Random(0))
    tally.execute(good, 0)
    tally.done[0].record["verdict"]["sigma_bound"] = 5.0
    assert tally.check() == (1, False)
