"""Finite-atom conditional measures, correlation norms, and SRB sampling.

The fiber measure over x is approximated by the pushforward of the uniform
measure on depth-N digit strings; everything downstream ((rho, rho')_r,
the aggregate I_r, local-dimension regressions) has an exact closed form
on atomic measures, so no binning enters except in the SRB histogram.
This lane is plain float/numpy: rigor lives in the truncation-radius
bookkeeping, not in the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import SystemParams, Word, check_word, tail_value


# the most atoms exact mode enumerates
ATOM_BUDGET = 4_000_000


@dataclass
class AtomicMeasure:
    """Sorted atom locations with masses summing to one, plus the depth-N
    truncation radius every atom location is accurate to."""

    locs: np.ndarray
    masses: np.ndarray
    depth: int
    blur: float

    def __post_init__(self):
        if self.locs.shape != self.masses.shape:
            raise ValueError("locations and masses must align")
        total = float(self.masses.sum())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"masses must sum to 1, got {total}")

    @property
    def n_atoms(self) -> int:
        return int(self.locs.size)


def sample_mx(
    params: SystemParams,
    x: float,
    depth: int,
    mode: str = "exact",
    n_samples: int | None = None,
    seed: int | None = None,
) -> AtomicMeasure:
    """Atoms of the depth-N approximation of the fiber measure over x.

    "exact" enumerates all b^N digit strings (mass b^-N each), at most
    ATOM_BUDGET of them; "mc" draws n_samples uniform strings with a
    seeded generator (mass 1/n each).
    """
    b = params.b
    gamma = params.gamma
    digits = np.arange(b, dtype=float)
    if mode == "exact":
        n_atoms = b**depth
        if n_atoms > ATOM_BUDGET:
            raise ValueError(
                f"b^depth = {n_atoms} atoms exceeds the budget {ATOM_BUDGET}"
            )
        z = np.array([float(x)])
        acc = np.zeros(1)
        g = 1.0
        for _ in range(depth):
            z = ((z[:, None] + digits) / b).ravel()
            acc = np.repeat(acc, b) + g * params.psi.eval_np(z)
            g *= gamma
    elif mode == "mc":
        if not n_samples or n_samples < 1:
            raise ValueError("mc mode wants n_samples >= 1")
        rng = np.random.default_rng(seed)
        acc = np.zeros(n_samples)
        # After k steps z takes at most b^k values. While that table holds at
        # most a quarter as many entries as there are samples, step the
        # table as exact mode does, evaluate psi on it, and gather: a sample
        # with digits d_1 .. d_k reads entry idx = d_1 b^(k-1) + ... + d_k,
        # whose z is (z + d) / b in the same floats as the per-sample loop.
        z = np.array([float(x)])
        idx = np.zeros(n_samples, dtype=np.int64)
        g = 1.0
        step = 0
        while step < depth and 4 * b * z.size <= n_samples:
            idx *= b
            idx += rng.integers(0, b, size=n_samples)
            z = ((z[:, None] + digits) / b).ravel()
            term = params.psi.eval_np(z)
            term *= g
            acc += term[idx]
            g *= gamma
            step += 1
        z = z[idx]
        for _ in range(step, depth):
            z += rng.integers(0, b, size=n_samples)
            z /= b
            term = params.psi.eval_np(z)
            term *= g
            acc += term
            g *= gamma
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Every atom has the same mass, so only the locations need sorting, and
    # any sort gives the stable argsort's bytes: tied floats are equal bit
    # for bit unless they are +0.0 and -0.0, and acc is never -0.0 (it
    # starts at +0.0, and a round-to-nearest sum is -0.0 only when both
    # addends are).
    acc.sort()
    blur = tail_value(params.psi_sup, params.gamma_iv, depth)
    return AtomicMeasure(acc, np.full(acc.size, 1.0 / acc.size), depth, blur)


def corr_sq_norm(mu: AtomicMeasure, r: float) -> float:
    """Exact ||mu||_r^2 = sum_{a,b} m_a m_b max(0, 2r - |loc_a - loc_b|)."""
    if r <= 0:
        raise ValueError("r must be positive")
    locs = mu.locs
    m = mu.masses
    two_r = 2.0 * r
    lo = np.searchsorted(locs, locs - two_r, side="left")
    hi = np.searchsorted(locs, locs + two_r, side="right")
    idx = np.arange(locs.size)
    pm = np.concatenate(([0.0], np.cumsum(m)))
    pml = np.concatenate(([0.0], np.cumsum(m * locs)))
    # left neighbours j <= i: sum m_j (2r - (l_i - l_j))
    left = (two_r - locs) * (pm[idx + 1] - pm[lo]) + (pml[idx + 1] - pml[lo])
    # right neighbours j > i: sum m_j (2r - (l_j - l_i))
    right = (two_r + locs) * (pm[hi] - pm[idx + 1]) - (pml[hi] - pml[idx + 1])
    return float(np.sum(m * (left + right)))


@dataclass(frozen=True)
class FiberAffine:
    """y -> scale * y + offset, the fiber action of q steps of the skew map."""

    scale: float
    offset: float
    q: int

    def apply(self, mu: AtomicMeasure) -> AtomicMeasure:
        locs = self.scale * mu.locs + self.offset
        if self.scale < 0:
            locs = locs[::-1]
        return AtomicMeasure(locs, mu.masses.copy(), mu.depth, mu.blur * abs(self.scale))


def fiber_affine(params: SystemParams, x: float, w: Word) -> FiberAffine:
    """Affine fiber map carrying the measure over x(w) onto its slot in the
    self-similar decomposition of the measure over x."""
    w = check_word(params.b, w)
    q = len(w)
    gamma = params.gamma
    z = float(x)
    offset = 0.0
    g = 1.0
    for d in w:
        z = (z + d) / params.b
        offset += g * float(params.psi.eval_np(np.array([z]))[0])
        g *= gamma
    return FiberAffine(gamma**q, offset, q)


def vertical_scaling_check(
    mu: AtomicMeasure, params: SystemParams, q: int, r: float
) -> tuple[float, float]:
    """Both sides of ||T^q mu||_r^2 = gamma^q ||mu||_{gamma^-q r}^2 (offset-free:
    the correlation form is translation invariant)."""
    scale = params.gamma**q
    pushed = FiberAffine(scale, 0.0, q).apply(mu)
    lhs = corr_sq_norm(pushed, r)
    rhs = scale * corr_sq_norm(mu, r / scale)
    return lhs, rhs


@dataclass
class IrEstimate:
    value: float
    r: float
    truncation_warning: bool


def i_r_table(
    params: SystemParams,
    radii,
    grid: int,
    depth: int,
    mode: str = "exact",
    n_samples: int | None = None,
    seed: int | None = None,
) -> list[IrEstimate]:
    """Midpoint-rule estimates of I_r = (1/r^2) int ||m_x||_r^2 dx for
    several radii, building each fiber measure once."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    blur = tail_value(params.psi_sup, params.gamma_iv, depth)
    acc = [0.0] * len(radii)
    for j in range(grid):
        x = (j + 0.5) / grid
        mu = sample_mx(params, x, depth, mode=mode, n_samples=n_samples, seed=seed)
        for i, r in enumerate(radii):
            acc[i] += corr_sq_norm(mu, r)
    return [
        IrEstimate(acc[i] / (grid * r * r), r, r <= blur)
        for i, r in enumerate(radii)
    ]


@dataclass
class RegressionResult:
    slope: float
    ci_low: float
    ci_high: float
    radii: np.ndarray
    log_means: np.ndarray
    n_centers: int


def _ols_slope_ci(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and its 95% half-width from the residuals."""
    n = xs.size
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = ys - (intercept + slope * xs)
    if n > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        se = 0.0
    return slope, 1.96 * se


def ball_masses(mu: AtomicMeasure, centers: np.ndarray, r: float) -> np.ndarray:
    """mu(B(y, r)) for each center y (closed balls)."""
    pm = np.concatenate(([0.0], np.cumsum(mu.masses)))
    lo = np.searchsorted(mu.locs, centers - r, side="left")
    hi = np.searchsorted(mu.locs, centers + r, side="right")
    return pm[hi] - pm[lo]


def local_dim_regress(
    mu: AtomicMeasure,
    radii,
    n_centers: int = 100,
    seed: int | None = None,
) -> RegressionResult:
    """Slope of log mu(B(y, r)) against log r, averaged over mass-sampled
    centers; errors if the radii dip under the truncation blur or the
    measure is degenerate."""
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if radii.size < 2:
        raise ValueError("need at least two radii")
    if radii[-1] <= mu.blur:
        raise ValueError(
            f"smallest radius {radii[-1]} is inside the truncation blur {mu.blur}"
        )
    if mu.n_atoms < 2 or float(mu.locs[-1] - mu.locs[0]) == 0.0:
        raise ValueError("degenerate measure: local dimension undefined")
    rng = np.random.default_rng(seed)
    centers = rng.choice(mu.locs, size=n_centers, p=mu.masses / mu.masses.sum())
    log_means = np.empty(radii.size)
    for i, r in enumerate(radii):
        masses = ball_masses(mu, centers, float(r))
        if np.any(masses <= 0.0):
            raise ValueError("empty ball encountered; radii too small for the sample")
        log_means[i] = float(np.mean(np.log(masses)))
    xs = np.log(radii)
    slope, half = _ols_slope_ci(xs, log_means)
    return RegressionResult(slope, slope - half, slope + half, radii, log_means, n_centers)


@dataclass
class SRBHistogram:
    counts: np.ndarray
    x_edges: np.ndarray
    y_edges: np.ndarray
    seed: int
    n_points: int
    n_iter: int
    burn_in: int
    rng_kind: str = "numpy PCG64"


def _bin_index(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bin of each v in [edges[0], edges[-1]] by np.histogram2d's rule: bin i
    holds edges[i] <= v < edges[i + 1], and the last bin also its right
    edge. This is np.searchsorted(edges, v, "right") - 1 clamped to the last
    bin, without the binary search: the float guess (v - lo) / w and the
    linspace edges both sit within a few ulps of the exact lo + i w, so the
    guess is off by at most one bin, and one comparison with each of its
    two edges corrects it."""
    n = edges.size - 1
    w = (edges[-1] - edges[0]) / n
    i = ((v - edges[0]) / w).astype(np.int64)
    np.clip(i, 0, n - 1, out=i)
    up = edges[i + 1] <= v
    i -= edges[i] > v
    i += up
    np.minimum(i, n - 1, out=i)
    return i


def srb_sample(
    params: SystemParams,
    n_points: int,
    n_iter: int,
    burn_in: int,
    seed: int,
    bins: tuple[int, int] = (64, 64),
) -> SRBHistogram:
    """Histogram of post-burn-in orbits of (x, y) -> (b x mod 1, gamma y + psi(x))."""
    if n_iter <= burn_in:
        raise ValueError("n_iter must exceed burn_in")
    if not (
        isinstance(bins, (tuple, list))
        and len(bins) == 2
        and all(isinstance(k, int) and k >= 1 for k in bins)
    ):
        raise ValueError(f"bins must be two integers >= 1, got {bins!r}")
    rng = np.random.default_rng(seed)
    y_max = max(params.psi_sup / (1.0 - params.gamma), 1e-9)  # psi = 0 degenerates
    x = rng.random(n_points)
    y = np.zeros(n_points)
    nx, ny = bins
    x_edges = np.linspace(0.0, 1.0, nx + 1)
    y_edges = np.linspace(-y_max, y_max, ny + 1)
    flat = np.zeros(nx * ny, dtype=np.int64)
    kick = np.empty(n_points)
    yc = np.empty(n_points)
    noise = 2.0**-45  # refresh the bits float doubling shifts out, else
    # every orbit of b x mod 1 collapses onto 0 after ~53 steps
    for it in range(n_iter):
        y *= params.gamma
        y += params.psi.eval_np(x)
        x *= params.b
        rng.random(out=kick)
        kick *= noise
        x += kick
        np.mod(x, 1.0, out=x)
        if it >= burn_in:
            # x < 1 and y is clipped, so no point falls outside the edges
            np.clip(y, -y_max, y_max, out=yc)
            ix = _bin_index(x_edges, x)
            iy = _bin_index(y_edges, yc)
            ix *= ny
            ix += iy
            flat += np.bincount(ix, minlength=nx * ny)
    counts = flat.reshape(nx, ny)
    return SRBHistogram(counts, x_edges, y_edges, seed, n_points, n_iter, burn_in)
