"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's interval machinery:
plain float/numpy summation, brute-force double loops, and bisection,
so the rigorous code paths are checked against unrelated arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from skewcert.interval import _FAST_PAD, _TURN_LIMIT, PI2_HI
from skewcert.series import SystemParams, TrigPoly, tail_value, tail_deriv


def psi_point(params: SystemParams, x):
    return params.psi.eval_np(np.asarray(x, dtype=float))


def dpsi_point(params: SystemParams, x):
    return params.dpsi.eval_np(np.asarray(x, dtype=float))


def s_partial(params: SystemParams, x: float, digits) -> float:
    """Plain float partial sum of the slope series."""
    z = float(x)
    acc = 0.0
    g = 1.0
    for d in digits:
        z = (z + d) / params.b
        acc += g * float(psi_point(params, [z])[0])
        g *= params.gamma
    return acc


def s_prime_partial(params: SystemParams, x: float, digits) -> float:
    z = float(x)
    acc = 0.0
    h = 1.0 / params.b
    step = params.gamma / params.b
    for d in digits:
        z = (z + d) / params.b
        acc += h * float(dpsi_point(params, [z])[0])
        h *= step
    return acc


def s_batch(params: SystemParams, xs: np.ndarray, digit_rows: np.ndarray):
    """Partial sums S and S' for every (x, digit row) combination.

    xs: (n,) floats; digit_rows: (m, depth) ints.  Returns two (n, m) arrays.
    """
    n = xs.size
    m, depth = digit_rows.shape
    z = np.broadcast_to(xs[:, None], (n, m)).astype(float).copy()
    val = np.zeros((n, m))
    der = np.zeros((n, m))
    g = 1.0
    h = 1.0 / params.b
    step = params.gamma / params.b
    for lev in range(depth):
        z = (z + digit_rows[None, :, lev]) / params.b
        val += g * params.psi.eval_np(z)
        der += h * params.dpsi.eval_np(z)
        g *= params.gamma
        h *= step
    return val, der


def oracle_depth(params: SystemParams, eps: float, floor: int = 30) -> int:
    """Depth making the truncation slack at most eps/4 (at least `floor`)."""
    n = floor
    while 2.0 * tail_value(params.psi_sup, params.gamma_iv, n) > 0.25 * eps and n < 2000:
        n += 10
    return n


def count_tangency_samples(
    params: SystemParams,
    cell_lo: float,
    cell_hi: float,
    k,
    l,
    eps: float,
    delta: float,
    n_x: int,
    n_pairs: int,
    depth: int,
    rng: np.random.Generator,
) -> int:
    """Number of sampled (x, continuation-pair) combos violating the certificate.

    A violation is counted only when it survives the truncation slack, so
    any positive count is a genuine counterexample to transversality.
    """
    q = len(k)
    xs = np.linspace(cell_lo, cell_hi, n_x)
    ext_u = rng.integers(0, params.b, size=(n_pairs, depth))
    ext_v = rng.integers(0, params.b, size=(n_pairs, depth))
    rows_u = np.concatenate(
        [np.tile(np.array(k, dtype=int), (n_pairs, 1)), ext_u], axis=1
    )
    rows_v = np.concatenate(
        [np.tile(np.array(l, dtype=int), (n_pairs, 1)), ext_v], axis=1
    )
    val_u, der_u = s_batch(params, xs, rows_u)
    val_v, der_v = s_batch(params, xs, rows_v)
    slack_v = 2.0 * tail_value(params.psi_sup, params.gamma_iv, q + depth)
    slack_d = 2.0 * tail_deriv(params, q + depth)
    bad = (np.abs(val_u - val_v) <= max(eps - slack_v, 0.0)) & (
        np.abs(der_u - der_v) <= max(delta - slack_d, 0.0)
    )
    return int(np.count_nonzero(bad))


def corr_sq_brute(locs, masses, r: float) -> float:
    """O(n^2) direct evaluation of the squared correlation norm."""
    locs = np.asarray(locs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    diffs = np.abs(locs[:, None] - locs[None, :])
    overlap = np.maximum(0.0, 2.0 * r - diffs)
    return float(masses @ overlap @ masses)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo = f(lo)
    fhi = f(hi)
    assert flo * fhi < 0, "root not bracketed"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
            flo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- per-function fast trig pairs ---------------------------------------
#
# One reduction and one crossing search per function, as the library did
# before `interval._fast_sincos_pair` served sin and cos from one floor per
# endpoint; the fused kernel must give these bits.


def _fast_sin_point(x: float) -> float:
    r = x - math.floor(x)
    if r <= 0.25:
        return math.sin(PI2_HI * r)
    if r <= 0.5:
        return math.sin(PI2_HI * (0.5 - r))
    if r <= 0.75:
        return -math.sin(PI2_HI * (r - 0.5))
    return -math.sin(PI2_HI * (1.0 - r))


def _fast_cos_point(x: float) -> float:
    r = x - math.floor(x)
    if r < 0.25:
        return math.cos(PI2_HI * r)
    if r <= 0.5:
        return -math.sin(PI2_HI * (r - 0.25))
    if r <= 0.75:
        return -math.cos(PI2_HI * (r - 0.5))
    return math.sin(PI2_HI * (r - 0.75))


def _has_crossing(lo: float, hi: float, offset: float) -> bool:
    """Is there an integer n with lo <= n + offset <= hi?"""
    n = math.floor(lo - offset)
    # at most a couple of candidates since hi - lo < 1
    for k in (n, n + 1, n + 2):
        if lo <= k + offset <= hi:
            return True
    return False


def _fast_pair(point, top: float, bottom: float, lo: float, hi: float):
    if not hi - lo < 1.0 or lo <= -_TURN_LIMIT or hi >= _TURN_LIMIT:
        return (-1.0, 1.0)
    a = point(lo)
    b = point(hi)
    if a > b:
        a, b = b, a
    a -= _FAST_PAD
    b += _FAST_PAD
    if _has_crossing(lo, hi, top) or b > 1.0:
        b = 1.0
    if _has_crossing(lo, hi, bottom) or a < -1.0:
        a = -1.0
    return (a, b)


def fast_sin_pair(lo: float, hi: float) -> tuple[float, float]:
    """Padded enclosure endpoints of sin(2 pi .) over [lo, hi]."""
    return _fast_pair(_fast_sin_point, 0.25, 0.75, lo, hi)


def fast_cos_pair(lo: float, hi: float) -> tuple[float, float]:
    """Padded enclosure endpoints of cos(2 pi .) over [lo, hi]."""
    return _fast_pair(_fast_cos_point, 0.0, 0.5, lo, hi)


# -- plain numpy lanes ---------------------------------------------------
#
# The numpy lanes as straight loops that allocate every intermediate: a
# fresh array per trig term, the graph argument stepped by np.mod, and
# np.histogram2d for the SRB counts. The library's table gathers, in-place
# updates and flat bincount binning must give these bytes.


def trig_eval_plain(poly: TrigPoly, x) -> np.ndarray:
    """Midpoint float value of a TrigPoly, one temporary per term."""
    out = np.zeros_like(x, dtype=float)
    for k, a in enumerate(poly.cos_coeffs, start=1):
        m = a.mid()
        if m != 0.0:
            out += m * np.cos((2.0 * math.pi * k) * x)
    for k, b in enumerate(poly.sin_coeffs, start=1):
        m = b.mid()
        if m != 0.0:
            out += m * np.sin((2.0 * math.pi * k) * x)
    return out


def graph_values_plain(lam: float, b: int, m: int, depth: int, phi: TrigPoly) -> np.ndarray:
    """sum_n lam^n phi(b^n x) on the 2^m grid, phi evaluated afresh per term."""
    n = 1 << m
    arg = np.arange(n) / n
    acc = np.zeros(n)
    g = 1.0
    for _ in range(depth):
        acc += g * trig_eval_plain(phi, arg)
        arg = np.mod(arg * b, 1.0)
        g *= lam
    return acc


def fiber_atoms_plain(
    params: SystemParams, x: float, depth: int, mode: str, n_samples=None, seed=None
) -> np.ndarray:
    """Sorted atom locations of the depth-N fiber measure ("exact" or "mc")."""
    b = params.b
    g = 1.0
    if mode == "exact":
        z = np.array([float(x)])
        acc = np.zeros(1)
        digits = np.arange(b, dtype=float)
        for _ in range(depth):
            z = ((z[:, None] + digits) / b).ravel()
            acc = np.repeat(acc, b) + g * trig_eval_plain(params.psi, z)
            g *= params.gamma
    else:
        rng = np.random.default_rng(seed)
        z = np.full(n_samples, float(x))
        acc = np.zeros(n_samples)
        for _ in range(depth):
            z = (z + rng.integers(0, b, size=n_samples)) / b
            acc += g * trig_eval_plain(params.psi, z)
            g *= params.gamma
    return acc[np.argsort(acc, kind="stable")]


def srb_counts_plain(
    params: SystemParams, n_points: int, n_iter: int, burn_in: int, seed: int, bins
) -> np.ndarray:
    """SRB orbit counts binned by np.histogram2d, fresh arrays every step."""
    rng = np.random.default_rng(seed)
    y_max = max(params.psi_sup / (1.0 - params.gamma), 1e-9)
    x = rng.random(n_points)
    y = np.zeros(n_points)
    nx, ny = bins
    x_edges = np.linspace(0.0, 1.0, nx + 1)
    y_edges = np.linspace(-y_max, y_max, ny + 1)
    counts = np.zeros((nx, ny), dtype=np.int64)
    for it in range(n_iter):
        y = params.gamma * y + trig_eval_plain(params.psi, x)
        x = (params.b * x + 2.0**-45 * rng.random(n_points)) % 1.0
        if it >= burn_in:
            h, _, _ = np.histogram2d(x, np.clip(y, -y_max, y_max), bins=(x_edges, y_edges))
            counts += h.astype(np.int64)
    return counts


def graph_log_means_plain(values: np.ndarray, radii, n_centers: int, seed) -> np.ndarray:
    """Mean log ball mass of the graph lift per radius (descending), one
    distance pass per radius and center."""
    n = values.size
    centers = np.random.default_rng(seed).integers(0, n, size=n_centers)
    out = []
    for r in sorted(radii, reverse=True):
        w = int(math.floor(r * n))
        masses = np.empty(n_centers)
        for t, c in enumerate(centers):
            seg = values[max(0, c - w) : min(n, c + w + 1)]
            masses[t] = np.count_nonzero(np.abs(seg - values[c]) <= r) / n
        out.append(float(np.mean(np.log(masses))))
    return np.array(out)
