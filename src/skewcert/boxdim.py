"""Box-counting and local-dimension estimates for Weierstrass-type graphs.

The graph is sampled on a dyadic x-grid; each sampled value carries a
truncation-tail halfwidth, so per-column vertical ranges err on the wide
side and box counts are over-counts by at most the straddled rows.

`sample_graph` evaluates phi once, on the grid itself, and moves those
values along instead of evaluating phi again. Its n-th term needs
phi(b^n x mod 1) at each grid point x = j / 2^m, and in floats each step
x -> b x mod 1 is exact while b 2^m <= 2^53: x b = (j b) / 2^m has an
integer numerator below 2^53, and taking it mod 1 subtracts an integer.
So the n-th argument at grid index j is exactly the grid point with index
j b mod 2^m of the (n-1)-th argument, and the n-th phi values are the
(n-1)-th ones read at j b mod 2^m: bit for bit entries of the first
table. Summed in series order, they give the plain series loop's values.
Read at j b mod 2^m, the grid splits into b runs of consecutive j, each
a stride-b slice, so every step is b strided copies rather than a
gather at scattered indices. For even b, b^s is a multiple of 2^m from
some step s on (s = m at b = 2), and then every argument b^s j mod 2^m is
0: the table is constant, and each later term adds cur[0] times lam^n,
the same product and sum as the array step, with no copies. Odd b never
gets there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import RegressionResult, _ols_slope_ci
from .interval import Interval
from .series import TrigPoly, classical_phi, tail_value


def theoretical_D(lam: float, b: int) -> float:
    """The dimension value 2 + log(lambda) / log(b); equals 1 at lam = 1/b."""
    if not (isinstance(b, int) and b >= 2):
        raise ValueError("b must be an integer >= 2")
    if not (0.0 < lam < 1.0 and lam * b >= 1.0 - 1e-12):
        raise ValueError(f"lambda must lie in [1/b, 1), got {lam!r}")
    return 2.0 + math.log(lam) / math.log(b)


@dataclass
class GraphSample:
    lam: float
    b: int
    m: int           # 2^m uniform sample points on [0, 1)
    depth: int       # series truncation
    values: np.ndarray
    halfwidth: float  # tail bound + float-evaluation slack
    tail: float
    phi_sup: float

    @property
    def n(self) -> int:
        return int(self.values.size)


def sample_graph(
    lam: float,
    b: int,
    m: int,
    depth: int | None = None,
    phi: TrigPoly | None = None,
) -> GraphSample:
    """Evaluate f(x) = sum lam^n phi(b^n x) on the 2^m dyadic grid."""
    theoretical_D(lam, b)  # validates (lam, b)
    if not (isinstance(m, int) and m >= 0 and b << m <= 1 << 53):
        raise ValueError(f"m must be an integer with 0 <= m and b 2^m <= 2^53, got {m!r}")
    phi = classical_phi() if phi is None else phi
    if depth is None:
        # tail below one thousandth of the finest interesting scale
        depth = max(8, int(math.ceil(math.log(1e-7 * (1 - lam)) / math.log(lam))))
    n = 1 << m
    cur = phi.eval_np(np.arange(n) / n)
    nxt = np.empty(n)
    term = np.empty(n)
    acc = np.zeros(n)
    # grid indices j in [lo[k], lo[k + 1]) read index b j - k n
    lo = [-(-k * n // b) for k in range(b + 1)]
    shift = 1 % n  # b^s mod 2^m at step s
    g = 1.0
    for _ in range(depth):
        if shift == 0:
            # every argument is 0 from here on, so every entry is cur[0]
            acc += cur[0] * g
        else:
            np.multiply(cur, g, out=term)
            acc += term
            for k in range(b):
                nxt[lo[k] : lo[k + 1]] = cur[b * lo[k] - k * n :: b][: lo[k + 1] - lo[k]]
            cur, nxt = nxt, cur
            shift = shift * b % n
        g *= lam
    phi_sup = phi.sup_bound()
    tail = tail_value(phi_sup, Interval.point(lam), depth)
    return GraphSample(lam, b, m, depth, acc, tail + 1e-9, tail, phi_sup)


@dataclass
class BoxCountResult:
    slope: float
    ci_low: float
    ci_high: float
    scales: np.ndarray
    counts: np.ndarray
    used: np.ndarray  # mask of scales entering the regression
    slope_all: float  # sensitivity: slope without edge trimming


def box_count_dim(
    sample: GraphSample,
    scale_exponents,
    drop_edges: int = 2,
) -> BoxCountResult:
    """Column-interval box counting over dyadic scales 2^-j.

    For each scale, the x-axis splits into columns one box wide; the
    number of occupied boxes in a column is the number of grid rows the
    column's value range [min - hw, max + hw] meets.
    """
    exps = sorted(int(j) for j in scale_exponents)
    if len(exps) < 2:
        raise ValueError("need at least two scales")
    n = sample.n
    hw = sample.halfwidth
    scales = []
    counts = []
    for j in exps:
        s = 2.0 ** (-j)
        cols = 1 << j
        if cols > n:
            raise ValueError(f"scale 2^-{j} finer than the sample grid 2^-{sample.m}")
        if s <= 2.0 * sample.tail:
            raise ValueError(
                f"scale 2^-{j} is inside the truncation tail {sample.tail}"
            )
        per = n // cols
        v = sample.values.reshape(cols, per)
        vmin = v.min(axis=1) - hw
        vmax = v.max(axis=1) + hw
        rows = np.floor(vmax / s) - np.floor(vmin / s) + 1.0
        scales.append(s)
        counts.append(float(rows.sum()))
    scales = np.array(scales)
    counts = np.array(counts)
    xs = np.log(1.0 / scales)
    ys = np.log(counts)
    slope_all, _ = _ols_slope_ci(xs, ys)
    used = np.ones(scales.size, dtype=bool)
    if drop_edges > 0 and scales.size > 2 * drop_edges + 1:
        used[:drop_edges] = False
        used[-drop_edges:] = False
    slope, half = _ols_slope_ci(xs[used], ys[used])
    return BoxCountResult(
        slope, slope - half, slope + half, scales, counts, used, slope_all
    )


def graph_mu_local_dim(
    sample: GraphSample,
    radii,
    n_centers: int = 200,
    seed: int | None = None,
) -> RegressionResult:
    """Local dimension of the graph-lift of Lebesgue measure.

    Mass of a square ball around (x_c, f(x_c)) is estimated by the count
    of sample points inside it; centers are uniform in x (which is the
    mass distribution of the lift).
    """
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if radii.size < 2:
        raise ValueError("need at least two radii")
    n = sample.n
    if radii[-1] * n < 4.0:
        raise ValueError("smallest radius below the sample resolution")
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, n, size=n_centers)
    vals = sample.values
    widths = [int(math.floor(r * n)) for r in radii]
    masses = np.empty((radii.size, n_centers))
    for t, c in enumerate(centers):
        # one distance pass over the widest window; each radius counts on
        # its own sub-window of it
        lo0 = max(0, c - widths[0])
        dist = vals[lo0 : min(n, c + widths[0] + 1)] - vals[c]
        np.abs(dist, out=dist)
        for i, (r, w) in enumerate(zip(radii, widths)):
            lo = max(0, c - w)
            hi = min(n, c + w + 1)
            masses[i, t] = np.count_nonzero(dist[lo - lo0 : hi - lo0] <= r) / n
    log_means = np.array([float(np.mean(np.log(row))) for row in masses])
    xs = np.log(radii)
    slope, half = _ols_slope_ci(xs, log_means)
    return RegressionResult(slope, slope - half, slope + half, radii, log_means, n_centers)
