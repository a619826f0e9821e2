"""Branch-and-bound certification of (eps, delta)-transversality.

A word pair (k, l) is certified transversal over an x-cell when a finite
cover by (subcell, digit-extension) nodes is found on which either the
value difference enclosure stays outside [-eps, eps] or the derivative
difference enclosure stays outside [-delta, delta] for *all* infinite
continuations.  "Unresolved" is always a budget statement, never a
tangency claim.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .interval import TWO_PI, Interval, cos2pi, sin2pi
from .series import (
    Chain,
    Code,
    SystemParams,
    Word,
    check_word,
    eval_G,
    reflect_word,
    tail_value,
    tail_deriv,
    word_value,
)


@dataclass(frozen=True)
class Budget:
    d_max: int = 14          # digit-extension depth beyond q
    x_depth_max: int = 20    # cell bisections
    max_nodes: int = 6000    # nodes per (cell, pair) task


@dataclass(frozen=True)
class CertTask:
    params: SystemParams
    q: int
    cell: Interval
    pair: tuple[Word, Word]
    eps: float
    delta: float
    budget: Budget = Budget()

    def __post_init__(self):
        k, l = self.pair
        check_word(self.params.b, k)
        check_word(self.params.b, l)
        if len(k) != self.q or len(l) != self.q:
            raise ValueError("pair words must have length q")
        if self.eps <= 0 or self.delta <= 0:
            raise ValueError("eps and delta must be positive")


@dataclass(frozen=True)
class Leaf:
    cell_lo: float
    cell_hi: float
    ext_a: Word
    ext_b: Word
    val_lo: float
    val_hi: float
    der_lo: float
    der_hi: float
    margin: str  # "value" or "deriv"


@dataclass
class Certificate:
    status: str  # "transversal" | "unresolved"
    leaves: list[Leaf]
    node_count: int
    task: CertTask
    reason: str = ""
    derived_from: int | None = None  # source cell of a mirror-derived certificate

    @property
    def transversal(self) -> bool:
        return self.status == "transversal"


# a cell's chain cache stops taking entries at this size
_CACHE_CAP = 400000


def _build_chain(
    params: SystemParams,
    x: Interval,
    digits: Word,
    cache: dict | None = None,
) -> Chain:
    """Chain over x for the digit string, memoized on (x, digits).

    `tangency_graph` gives each cell a fresh cache for the length of one
    call, so it pays off where identical chains recur within that cell:
    across its pairs (shared base words) and across bisection rebuilds.
    Nothing carries over between cells, calls or rungs.  `certify_pair`
    adds the chains it grows one digit at a time to the same cache; they
    have the same bits as a walk from the root.
    """
    if cache is None:
        return Chain.root(x).walk(params, digits)
    key = (x.lo, x.hi, digits)
    chain = cache.get(key)
    if chain is None:
        chain = Chain.root(x).walk(params, digits)
        if len(cache) < _CACHE_CAP:
            cache[key] = chain
    return chain


def _second_deriv_pair_bound(params: SystemParams) -> float:
    """Upper bound for |d^2/dx^2 (prefix difference)|: 2 ddpsi_sup / (b^2 - gamma)."""
    ddpsi_sup = params.dpsi.derivative().sup_bound()
    b2 = params.b_iv * params.b_iv
    return (Interval.point(2.0 * ddpsi_sup) / (b2 - params.gamma_iv)).hi


@functools.lru_cache(maxsize=256)
def _pair_bounds(
    params: SystemParams, q: int, d_max: int
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Pair tail radii 2 tail_value(n) and 2 tail_deriv(n), n = q..q+d_max,
    and `_second_deriv_pair_bound`."""
    ns = range(q, q + d_max + 1)
    return (
        tuple(2.0 * tail_value(params, n) for n in ns),
        tuple(2.0 * tail_deriv(params, n) for n in ns),
        _second_deriv_pair_bound(params),
    )


def pair_diff_enclosure(
    params: SystemParams,
    cell: Interval,
    ka: Word,
    lb: Word,
) -> tuple[Interval, Interval]:
    """Enclosures of {S(x, ka.u) - S(x, lb.v)} and the derivative analogue
    over all x in the cell and all continuation pairs (u, v)."""
    ka = check_word(params.b, ka)
    lb = check_word(params.b, lb)
    if len(ka) != len(lb):
        raise ValueError("extended words must have equal length")
    n = len(ka)
    tv = 2.0 * tail_value(params, n)
    td = 2.0 * tail_deriv(params, n)
    if ka == lb:
        # identical prefixes cancel pointwise; only the tails remain
        return Interval(-tv, tv), Interval(-td, td)
    ca = _build_chain(params, cell, ka)
    cb = _build_chain(params, cell, lb)
    val = (ca.p - cb.p).widen(tv)
    der = (ca.dp - cb.dp).widen(td)
    return val, der


def certify_pair(task: CertTask, _cache: dict | None = None) -> Certificate:
    """Decide (k, l) not-in E(q, cell; eps, delta) by exhaustive covering.

    Each node carries interval prefix chains over its cell *and* thin chains
    at the cell midpoint; the value difference is enclosed with the
    mean-value form D(m) + D'(cell)(x - m), which captures the cancellation
    of the x-dependence that a term-by-term enclosure loses.
    """
    params = task.params
    k, l = task.pair
    if k == l:
        return Certificate("unresolved", [], 0, task, reason="diagonal")
    b = params.b
    budget = task.budget
    tv2, td2, m2 = _pair_bounds(params, task.q, budget.d_max)
    eps = task.eps
    delta = task.delta

    def fresh(cell: Interval, xdepth: int, d: int, ea: Word, eb: Word):
        xm = cell.mid()
        mid = Interval.point(xm)
        return (
            cell,
            xm,
            xdepth,
            d,
            ea,
            eb,
            _build_chain(params, cell, k + ea, _cache),
            _build_chain(params, cell, l + eb, _cache),
            _build_chain(params, mid, k + ea, _cache),
            _build_chain(params, mid, l + eb, _cache),
        )

    def children(chain: Chain, xlo: float, xhi: float, base: Word) -> list[Chain]:
        out = []
        for dig in range(b):
            key = (xlo, xhi, base + (dig,))
            ch = _cache.get(key) if _cache is not None else None
            if ch is None:
                ch = chain.step(params, dig)
                if _cache is not None and len(_cache) < _CACHE_CAP:
                    _cache[key] = ch
            out.append(ch)
        return out

    leaves: list[Leaf] = []
    nodes = 0
    stack = [fresh(task.cell, 0, 0, (), ())]
    while stack:
        cell, xm, xdepth, d, ea, eb, ca, cb, ma, mb = stack.pop()
        nodes += 1
        if nodes > budget.max_nodes:
            return Certificate("unresolved", leaves, nodes, task, reason="node budget")
        offs = Interval(
            math.nextafter(cell.lo - xm, -math.inf),
            math.nextafter(cell.hi - xm, math.inf),
        )
        dprefix = ca.dp - cb.dp
        val_pre = (ma.p - mb.p) + dprefix * offs
        val = val_pre.widen(tv2[d])
        if val.abs_lower_bound() > eps:
            leaves.append(
                Leaf(cell.lo, cell.hi, ea, eb, val.lo, val.hi, math.nan, math.nan, "value")
            )
            continue
        der_centered = (ma.dp - mb.dp) + Interval(-m2, m2) * offs
        der = dprefix.meet(der_centered).widen(td2[d])
        if der.abs_lower_bound() > delta:
            leaves.append(
                Leaf(cell.lo, cell.hi, ea, eb, val.lo, val.hi, der.lo, der.hi, "deriv")
            )
            continue
        if -eps <= val.lo and val.hi <= eps and -delta <= der.lo and der.hi <= delta:
            # every x and every continuation pair in this node realizes the
            # tangency box: the pair is (eps, delta)-tangent on this cell
            return Certificate(
                "unresolved", leaves, nodes, task, reason="tangency witness"
            )
        # branch: extend digits while the continuation tail dominates the
        # prefix width, else bisect the cell
        extend = tv2[d] > 0.5 * val_pre.width()
        if extend and d >= budget.d_max:
            extend = False
        if not extend and xdepth >= budget.x_depth_max:
            if d < budget.d_max:
                extend = True
            else:
                return Certificate(
                    "unresolved", leaves, nodes, task, reason="depth budget"
                )
        if extend:
            ext_ca = children(ca, cell.lo, cell.hi, k + ea)
            ext_cb = children(cb, cell.lo, cell.hi, l + eb)
            ext_ma = children(ma, xm, xm, k + ea)
            ext_mb = children(mb, xm, xm, l + eb)
            for da in reversed(range(b)):
                for db in reversed(range(b)):
                    stack.append(
                        (
                            cell,
                            xm,
                            xdepth,
                            d + 1,
                            ea + (da,),
                            eb + (db,),
                            ext_ca[da],
                            ext_cb[db],
                            ext_ma[da],
                            ext_mb[db],
                        )
                    )
        else:
            left, right = cell.bisect()
            stack.append(fresh(right, xdepth + 1, d, ea, eb))
            stack.append(fresh(left, xdepth + 1, d, ea, eb))
    return Certificate("transversal", leaves, nodes, task)


# ---------------------------------------------------------------------
# per-cell tangency graphs and the e(q) upper bound


def all_words(b: int, q: int) -> list[Word]:
    return [tuple(w) for w in itertools.product(range(b), repeat=q)]


@dataclass
class PairGraph:
    """Per-cell sets of word pairs not certified transversal.

    Cells are [j/b^p, (j+1)/b^p); the stored pair sets are symmetric and
    always contain the diagonal.  `certificates` maps (j, k, l) with k < l
    to the pair's Certificate.  For odd psi, those of the cells
    j > (n - 1)/2 are mirror images of cell n - 1 - j, which their
    `derived_from` names (see `tangency_graph`).
    """

    b: int
    q: int
    p: int
    eps: float
    delta: float
    unresolved: list[set[tuple[Word, Word]]]
    certificates: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self) -> int:
        return self.b**self.p

    def cell_interval(self, j: int) -> Interval:
        scale = float(self.b**self.p)
        lo = math.nextafter(j / scale, -math.inf)
        hi = math.nextafter((j + 1) / scale, math.inf)
        return Interval(lo, hi)

    def nontrivial_pairs(self, j: int) -> list[tuple[Word, Word]]:
        """Unordered non-diagonal pairs of cell j, lexicographically sorted."""
        return sorted({(k, l) if k < l else (l, k) for (k, l) in self.unresolved[j] if k != l})

    def is_diagonal_only(self, j: int) -> bool:
        return all(k == l for (k, l) in self.unresolved[j])

    def e_by_cell(self) -> list[int]:
        out = []
        for j in range(self.n_cells):
            rows: dict[Word, int] = {}
            for (a, _) in self.unresolved[j]:
                rows[a] = rows.get(a, 0) + 1
            out.append(max(rows.values()) if rows else 1)
        return out

    def image_cell(self, j: int, w: Word) -> int:
        """Index at level p of the cell containing x(cell_j, w)."""
        return (j + word_value(self.b, w) * self.b**self.p) // (self.b**self.q)


def _one_minus(x: float) -> tuple[float, float]:
    """1 - x split exactly as s + e (TwoSum), s the rounded difference."""
    s = 1.0 - x
    bp = s - 1.0
    ap = s - bp
    return s, (1.0 - ap) + (-x - bp)


def _mirror_certificate(
    cert: Certificate,
    cell: Interval,
    pair: tuple[Word, Word],
    source: int,
    slopes: tuple[float, float],
    reflected: Callable[[Word], Word],
) -> Certificate | None:
    """Certificate of `pair` on `cell` read off its odd-psi mirror image `cert`.

    With x -> 1 - x and every digit d -> b - 1 - d, S changes sign and S'
    does not, so the swapped reflected pair has the same value difference
    and the negated derivative difference at the reflected point.  Leaf
    cells are reflected with outward rounding, and the leaves on the
    boundary of the source cell are stretched to `cell`.  A leaf that grew
    by s is widened by slopes[0] s in value and slopes[1] s in derivative,
    where slopes bounds |D'| and |D''| (D the pair's value difference).
    Returns None when a widened leaf of a transversal certificate no longer
    clears its margin; such leaves are dropped from an unresolved one.
    `reflected` is reflect_word for the base, memoized so that equal
    extension words share one reflected tuple.
    """
    task = replace(cert.task, cell=cell, pair=pair)
    src = cert.task.cell
    leaves = []
    for leaf in reversed(cert.leaves):
        s, e = _one_minus(leaf.cell_hi)
        lo = s if e >= 0.0 else math.nextafter(s, -math.inf)
        slack_lo = e if e >= 0.0 else s - lo
        if leaf.cell_hi == src.hi and cell.lo < lo:
            gap = math.nextafter(lo - cell.lo, math.inf)
            slack_lo = math.nextafter(slack_lo + gap, math.inf)
            lo = cell.lo
        s, e = _one_minus(leaf.cell_lo)
        hi = s if e <= 0.0 else math.nextafter(s, math.inf)
        slack_hi = -e if e <= 0.0 else hi - s
        if leaf.cell_lo == src.lo and cell.hi > hi:
            gap = math.nextafter(cell.hi - hi, math.inf)
            slack_hi = math.nextafter(slack_hi + gap, math.inf)
            hi = cell.hi
        slack = max(slack_lo, slack_hi)
        val_lo, val_hi = leaf.val_lo, leaf.val_hi
        if slack > 0.0:
            rv = math.nextafter(slopes[0] * slack, math.inf)
            val_lo = math.nextafter(val_lo - rv, -math.inf)
            val_hi = math.nextafter(val_hi + rv, math.inf)
        if leaf.margin == "value":
            der_lo, der_hi = leaf.der_lo, leaf.der_hi  # NaN: no derivative enclosure
            clears = val_lo > task.eps or val_hi < -task.eps
        else:
            der_lo, der_hi = -leaf.der_hi, -leaf.der_lo
            if slack > 0.0:
                rd = math.nextafter(slopes[1] * slack, math.inf)
                der_lo = math.nextafter(der_lo - rd, -math.inf)
                der_hi = math.nextafter(der_hi + rd, math.inf)
            clears = der_lo > task.delta or der_hi < -task.delta
        if not clears:
            if cert.transversal:
                return None
            continue
        leaves.append(
            Leaf(
                lo,
                hi,
                reflected(leaf.ext_b),
                reflected(leaf.ext_a),
                val_lo,
                val_hi,
                der_lo,
                der_hi,
                leaf.margin,
            )
        )
    return Certificate(cert.status, leaves, cert.node_count, task, cert.reason, source)


def tangency_graph(
    params: SystemParams,
    q: int,
    p: int,
    eps: float,
    delta: float,
    budget: Budget = Budget(),
    keep_certificates: bool = True,
    prior: PairGraph | None = None,
) -> PairGraph:
    """Certify every word pair over every base-b cell at resolution b^p.

    When `prior` is a graph for the same (q, p) at equal or larger
    (eps, delta), pairs it already certified are inherited and only its
    unresolved pairs are certified again: transversality at some margins
    implies transversality at equal or smaller ones.

    When psi is odd (no cosine terms), only the cells j <= (n - 1)/2 are
    certified.  Cell n - 1 - j takes the mirror images of cell j's
    certificates (`_mirror_certificate`, with `derived_from` = j), so its
    unresolved pairs are the reflected pairs of cell j; a pair whose mirror
    image fails its margin is certified directly.
    """
    b = params.b
    words = all_words(b, q)
    pairs = [(k, l) for i, k in enumerate(words) for l in words[i + 1 :]]
    n_cells = b**p
    graph = PairGraph(b, q, p, eps, delta, [set() for _ in range(n_cells)])
    if prior is not None and (prior.q != q or prior.p != p or prior.b != b):
        raise ValueError("prior graph shape mismatch")
    mirror = all(c.mag() == 0.0 for c in params.psi.cos_coeffs)
    if mirror:
        reflected = functools.cache(functools.partial(reflect_word, b))
        index = {pair: i for i, pair in enumerate(pairs)}
        mirror_index = [index[(reflected(l), reflected(k))] for k, l in pairs]
        slopes = (2.0 * tail_deriv(params, 0), _second_deriv_pair_bound(params))
    sources: dict[int, list[Certificate | None]] = {}
    for j in range(n_cells):
        cell = graph.cell_interval(j)
        cell_pairs = graph.unresolved[j]
        for w in words:
            cell_pairs.add((w, w))
        source = n_cells - 1 - j
        mirrored = sources.pop(source, None)
        certs: list[Certificate | None] = []
        cache: dict = {}
        for i, (k, l) in enumerate(pairs):
            if prior is not None and (k, l) not in prior.unresolved[j]:
                inherited = prior.certificates.get((j, k, l))
                certs.append(inherited)
                if keep_certificates and inherited is not None:
                    graph.certificates[(j, k, l)] = inherited
                continue
            cert = None
            if mirrored is not None and mirrored[mirror_index[i]] is not None:
                cert = _mirror_certificate(
                    mirrored[mirror_index[i]], cell, (k, l), source, slopes, reflected
                )
            if cert is None:
                cert = certify_pair(
                    CertTask(params, q, cell, (k, l), eps, delta, budget), _cache=cache
                )
            certs.append(cert)
            if keep_certificates:
                graph.certificates[(j, k, l)] = cert
            if not cert.transversal:
                cell_pairs.add((k, l))
                cell_pairs.add((l, k))
        if source > j and mirror:
            sources[j] = certs
    return graph


def e_upper(graph: PairGraph) -> tuple[list[int], int]:
    """Per-cell and global upper bounds for the tangency count e(q) at (eps, delta)."""
    per_cell = graph.e_by_cell()
    return per_cell, max(per_cell)


# ---------------------------------------------------------------------
# closed-form pruning quantities


def delta_max(
    b: int, gamma: float, tol: float = 1e-9, max_rounds: int = 200
) -> Interval:
    """Rigorous enclosure of max_t (sin(b t) + gamma sin t) over one period.

    Branch and bound in turns s = t / (2 pi): a cell stays while its upper
    bound, the smaller of the natural extension and the mean-value form
    f(m) + f'(cell)(cell - m), exceeds the best value found at a midpoint.
    """
    if not (isinstance(b, int) and b >= 1):
        raise ValueError("b must be a positive integer")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    g = Interval.point(gamma)

    def f(s: Interval) -> Interval:
        return sin2pi(s.scale(float(b))) + g * sin2pi(s)

    def df(s: Interval) -> Interval:
        return TWO_PI * (cos2pi(s.scale(float(b))).scale(float(b)) + g * cos2pi(s))

    active = [Interval(0.0, 1.0)]
    best_lo = -math.inf
    upper = math.inf
    for _ in range(max_rounds):
        evals = []
        for cell in active:
            m = Interval.point(cell.mid())
            fm = f(m)
            best_lo = max(best_lo, fm.lo)
            mean_value = fm + df(cell) * (cell - m)
            evals.append((cell, min(f(cell).hi, mean_value.hi)))
        upper = max((hi for _, hi in evals), default=best_lo)
        if upper - best_lo <= tol:
            break
        nxt = []
        for cell, hi in evals:
            if hi > best_lo:
                a, c = cell.bisect()
                nxt.append(a)
                nxt.append(c)
        if not nxt:
            upper = best_lo
            break
        active = nxt
    return Interval(best_lo, max(best_lo, upper))


def theta_bound(which: int, b: int, gamma: float) -> float:
    """The closed-form quantities theta_0, theta_1, theta_2 (with max(0,.) guard)."""
    if which not in (0, 1, 2):
        raise ValueError("which must be 0, 1 or 2")
    if b < 2:
        raise ValueError("b must be >= 2")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    ratio = gamma * b / (b - gamma)
    if which == 0:
        base = (b * math.sin(math.pi / b)) ** 2
        arg = base - ratio**2
    elif which == 1:
        base = (b * math.sin(math.pi / b)) ** 2
        arg = base - 4.0 * ratio**2
    else:
        base = (b * math.sin(2.0 * math.pi / b)) ** 2
        arg = base - 4.0 * ratio**2
    return math.sqrt(max(0.0, arg))


# ---------------------------------------------------------------------
# non-cohomology witness


class WitnessNotFound(RuntimeError):
    """No grid point produced a certified positive G-gap (inconclusive)."""


@dataclass(frozen=True)
class NoncohomologyWitness:
    x1: float
    gap: float      # certified lower bound for |G(x1, 000...) - G(x1, 100...)| = 5 delta
    delta: float    # gap / 5
    n1: int
    gamma1: float


def noncohomology_witness(
    params: SystemParams, grid: int = 512, depth: int = 40
) -> NoncohomologyWitness:
    """Search for the witness data of the one-missing-pair criterion.

    Grid-maximizes the certified lower bound of |G(x, 000...) - G(x, 100...)|
    and derives the depth N1 and threshold gamma1 satisfying
    2C < delta b^N1 (b-1) and (1 - gamma1^N1) C < delta b (b-1), C = sup|psi'|.
    """
    b = params.b
    code0 = Code.make(params, (0,) * depth)
    code1 = Code.make(params, (1,) + (0,) * (depth - 1))
    best_lb = 0.0
    best_x = None
    for j in range(grid):
        x = Interval.point((j + 0.5) / grid)
        gap_iv = eval_G(params, x, code0) - eval_G(params, x, code1)
        lb = gap_iv.abs_lower_bound()
        if lb > best_lb:
            best_lb = lb
            best_x = x.lo
    if best_x is None or best_lb <= 0.0:
        raise WitnessNotFound(
            f"no certified positive G-gap on a {grid}-point grid at depth {depth}"
        )
    delta = best_lb / 5.0
    c = params.dpsi_sup
    n1 = 1
    while not 2.0 * c < delta * b**n1 * (b - 1):
        n1 += 1
        if n1 > 4000:
            raise WitnessNotFound("no feasible N1 below 4000")
    target = delta * b * (b - 1)
    if c < target:
        gamma1 = 0.0
    else:
        gamma1 = (1.0 - target / c) ** (1.0 / n1)
        while not (1.0 - gamma1**n1) * c < target:
            gamma1 = gamma1 + (1.0 - gamma1) * 1e-9
            if gamma1 >= 1.0:
                raise WitnessNotFound("gamma1 threshold degenerate")
    return NoncohomologyWitness(best_x, best_lb, delta, n1, gamma1)


# ---------------------------------------------------------------------
# graph symmetry helper (odd psi)


def reflected_pairs(graph: PairGraph, j: int) -> set[tuple[Word, Word]]:
    """Image of cell j's pair set under digit reflection (odd-psi symmetry)."""
    return {
        (reflect_word(graph.b, k), reflect_word(graph.b, l))
        for (k, l) in graph.unresolved[j]
    }
