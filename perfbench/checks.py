"""Correctness checks made apart from skewcert.

Every check recomputes its reference with plain float/numpy code written
here (the classical psi, the slope series, the closed-form scheme bounds,
the Weierstrass sum, an O(n^2) correlation sum), never with the program's
interval kernel or its own oracles.  Each function takes the program's
output values as arguments and returns a list of problems, empty when the
output is correct, so the tests can feed it tampered values.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
PSI_SUP = TWO_PI              # sup |psi|, psi(z) = -2 pi sin(2 pi z)
DPSI_SUP = TWO_PI * TWO_PI    # sup |psi'|


def psi(z):
    return -TWO_PI * np.sin(TWO_PI * z)


def dpsi(z):
    return -(TWO_PI * TWO_PI) * np.cos(TWO_PI * z)


# ---------------------------------------------------------------------
# verdicts and scheme bounds


def one_miss_bound(b: int, q: int) -> float:
    """b^q - 2 + 2/alpha with alpha in (1, 2] solving 2 - a = (b^q - 2) a (a - 1),
    alpha found by bisection."""
    big = float(b**q - 2)
    if big == 0.0:
        return 1.0
    lo, hi = 1.0, 2.0  # f(1) = -1 < 0 < f(2) = 2 big
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if big * mid * (mid - 1.0) - (2.0 - mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return big + 2.0 / (0.5 * (lo + hi))


def three_tier_residual(t: float) -> float:
    return 1.0 / (t * t - 1.0) + 2.0 / (t**3 - 2.0) + 1.0 - t * t


def scheme_problems(kind: str, bound: float, b: int, q: int, e_global: int) -> list[str]:
    """The reported sigma bound must equal its scheme's closed form."""
    if kind == "sqrt2":
        ok = abs(bound - SQRT2) <= 1e-12
    elif kind == "golden":
        ok = abs(bound - GOLDEN) <= 1e-12
    elif kind == "three_tier":
        ok = bound**3 > 2.0 and abs(three_tier_residual(bound)) <= 1e-9
    elif kind == "one_miss":
        ok = abs(bound - one_miss_bound(b, q)) <= 1e-9 * max(1.0, bound)
    elif kind == "trivial":
        ok = bound == float(e_global)
    else:
        return [f"unknown scheme {kind!r}"]
    return [] if ok else [f"{kind} bound {bound!r} is not its closed form (b={b}, q={q})"]


def verdict_problems(
    b: int, gamma: float, q: int, kind: str, bound: float, target: float, e_global: int
) -> list[str]:
    """A certified verdict must beat (gamma b)^q, recomputed here."""
    out = []
    want = (gamma * b) ** q
    if not math.isclose(target, want, rel_tol=1e-12):
        out.append(f"target {target!r} is not (gamma b)^q = {want!r}")
    if not bound < want:
        out.append(f"bound {bound!r} does not beat (gamma b)^q = {want!r}")
    return out + scheme_problems(kind, bound, b, q, e_global)


def large_b_problems(b: int, gamma: float, q: int, e_global: int) -> list[str]:
    """Large-b regime: q = 1 and the tangency count e(1) < gamma b."""
    out = []
    if q != 1:
        out.append(f"certified at q={q}, expected q=1")
    if not e_global < gamma * b:
        out.append(f"e(1) = {e_global} is not below gamma b = {gamma * b!r}")
    return out


def ladder_cap_problems(q: int, bound: float, q_cap: int, bound_cap: float) -> list[str]:
    """A regime of the b = 2 ladder certifies within its q and bound caps."""
    out = []
    if not 1 <= q <= q_cap:
        out.append(f"q={q} outside the regime cap q <= {q_cap}")
    if not bound <= bound_cap + 1e-9:
        out.append(f"bound {bound!r} above the regime cap {bound_cap!r}")
    return out


# ---------------------------------------------------------------------
# transversality certificates against dense float sampling


def value_tail(gamma: float, n: int) -> float:
    return PSI_SUP * gamma**n / (1.0 - gamma)


def deriv_tail(b: int, gamma: float, n: int) -> float:
    return DPSI_SUP * (gamma / b) ** n / (b - gamma)


def slope_sums(b: int, gamma: float, xs: np.ndarray, rows: np.ndarray):
    """Partial sums of S and S' for every (x, digit row): two (len(xs), len(rows)) arrays."""
    z = np.repeat(xs[:, None], rows.shape[0], axis=1)
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    g = 1.0
    h = 1.0 / b
    for n in range(rows.shape[1]):
        z = (z + rows[None, :, n]) / b
        val += g * psi(z)
        der += h * dpsi(z)
        g *= gamma
        h *= gamma / b
    return val, der


def certificate_problems(
    b: int,
    gamma: float,
    cell: tuple[float, float],
    pair: tuple[tuple[int, ...], tuple[int, ...]],
    eps: float,
    delta: float,
    rng: np.random.Generator,
    n_x: int = 48,
    n_pairs: int = 96,
) -> list[str]:
    """Sample (x, continuation pair) points of a cell claimed transversal.

    A point is a counterexample when both differences stay inside the
    tangency box even after the truncation slack is taken off, so any
    count above zero disproves the certificate.  Half the continuation
    pairs share their tail, which is where tangencies of nearby words sit.
    """
    k, l = (np.asarray(w, dtype=float) for w in pair)
    depth = 20
    while 2.0 * value_tail(gamma, len(k) + depth) > 0.25 * eps or (
        2.0 * deriv_tail(b, gamma, len(k) + depth) > 0.25 * delta
    ):
        depth += 20
    xs = np.linspace(cell[0], cell[1], n_x)
    u = rng.integers(0, b, size=(n_pairs, depth)).astype(float)
    v = rng.integers(0, b, size=(n_pairs, depth)).astype(float)
    v[: n_pairs // 2] = u[: n_pairs // 2]
    val_a, der_a = slope_sums(b, gamma, xs, np.hstack([np.tile(k, (n_pairs, 1)), u]))
    val_b, der_b = slope_sums(b, gamma, xs, np.hstack([np.tile(l, (n_pairs, 1)), v]))
    n = len(k) + depth
    slack_v = 2.0 * value_tail(gamma, n) + 1e-12
    slack_d = 2.0 * deriv_tail(b, gamma, n) + 1e-12
    bad = (np.abs(val_a - val_b) <= eps - slack_v) & (np.abs(der_a - der_b) <= delta - slack_d)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        return [f"{n_bad} sampled tangencies inside a transversal certificate {pair} on {cell}"]
    return []


# ---------------------------------------------------------------------
# fiber measures, SRB histogram, graphs


def atoms_problems(
    b: int, gamma: float, x: float, depth: int, locs: np.ndarray, masses: np.ndarray
) -> list[str]:
    """Exact depth-N atoms against plain float partial sums over all b^N words."""
    n = b**depth
    if locs.size != n:
        return [f"{locs.size} atoms, expected b^N = {n}"]
    idx = np.arange(n)
    z = np.full(n, float(x))
    acc = np.zeros(n)
    g = 1.0
    for lev in range(depth):
        z = (z + (idx // b**lev) % b) / b
        acc += g * psi(z)
        g *= gamma
    out = []
    err = float(np.max(np.abs(np.sort(acc) - locs)))
    if not err <= 1e-12:
        out.append(f"atoms differ from float partial sums by {err:.3e}")
    if not np.all(masses == 1.0 / n):
        out.append("atom masses are not b^-N")
    return out


def corr_brute(locs: np.ndarray, masses: np.ndarray, r: float) -> float:
    """sum_{a,b} m_a m_b max(0, 2r - |loc_a - loc_b|) by the double loop."""
    overlap = np.maximum(0.0, 2.0 * r - np.abs(locs[:, None] - locs[None, :]))
    return float(masses @ overlap @ masses)


def corr_problems(locs, masses, radii, values) -> list[str]:
    out = []
    for r, got in zip(radii, values):
        want = corr_brute(locs, masses, r)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15):
            out.append(f"corr_sq_norm(r={r!r}) = {got!r}, brute force {want!r}")
    return out


def i_r_problems(radii, values) -> list[str]:
    """0 < r I_r <= 2, since 0 < ||m||_r^2 <= 2r for a probability measure."""
    return [
        f"I_r = {v!r} at r = {r!r} outside (0, 2/r]"
        for r, v in zip(radii, values)
        if not 0.0 < r * v <= 2.0 + 1e-12
    ]


def local_dim_problems(slope: float) -> list[str]:
    """Absolutely continuous fiber measures have local dimension 1."""
    if 0.9 <= slope <= 1.05:
        return []
    return [f"fiber local-dimension slope {slope!r} outside [0.9, 1.05]"]


def srb_problems(x_marginal_counts: np.ndarray, n_points: int, n_iter: int, burn_in: int) -> list[str]:
    """x-marginal of the SRB histogram against Lebesgue measure (invariant for bx mod 1).

    Counts along one orbit are correlated: with 2^k bins and b = 2 the bin
    at step n is fixed by bits n+1..n+k of x_0, so a bin count's variance is
    at most 1 + 2 sum_j 2^-j < 3 times the independent one.  The bound is
    three times the chi-square mean plus five of its standard deviations.
    """
    counts = np.asarray(x_marginal_counts, dtype=float)
    total = float(counts.sum())
    out = []
    if total != float(n_points * (n_iter - burn_in)):
        out.append(f"histogram holds {total} samples, expected {n_points * (n_iter - burn_in)}")
    dof = counts.size - 1
    expected = total / counts.size
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    limit = 3.0 * (dof + 5.0 * math.sqrt(2.0 * dof))
    if not chi2 <= limit:
        out.append(f"x-marginal chi2 = {chi2:.1f} above {limit:.1f}: not uniform")
    return out


def graph_value_problems(lam: float, b: int, m: int, depth: int, idx, values) -> list[str]:
    """Sampled f(i/2^m) = sum_{n<depth} lam^n cos(2 pi b^n i/2^m), with b^n i mod 2^m exact."""
    n = 1 << m
    out = []
    for i, got in zip(idx, values):
        want = math.fsum(
            lam**k * math.cos(TWO_PI * ((int(i) * b**k) % n) / n) for k in range(depth)
        )
        if not abs(got - want) <= 1e-9:
            out.append(f"graph value at x = {int(i)}/2^{m} is {got!r}, expected {want!r}")
    return out


def box_dim_problems(slope: float, lam: float, b: int) -> list[str]:
    want = 2.0 + math.log(lam) / math.log(b)
    if abs(slope - want) <= 0.05:
        return []
    return [f"box dimension {slope!r} not within 0.05 of 2 + log(lam)/log(b) = {want!r}"]


def graph_local_dim_problems(slope: float) -> list[str]:
    """The graph-lift measure lives on a curve in the plane: dimension in [1, 2]."""
    if 1.0 <= slope <= 2.0:
        return []
    return [f"graph local-dimension slope {slope!r} outside [1, 2]"]
