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
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .interval import Interval
from .series import (
    Chain,
    SystemParams,
    TrigPoly,
    Word,
    check_word,
    reflect_word,
    tail_value,
    tail_deriv,
    word_value,
)


D_MAX = 14  # digit-extension depth beyond q
X_DEPTH_MAX = 20  # cell bisections
MAX_NODES = 6000  # default nodes per (cell, pair) task


@dataclass(frozen=True)
class CertTask:
    params: SystemParams
    q: int
    cell: Interval
    pair: tuple[Word, Word]
    eps: float
    delta: float
    max_nodes: int = MAX_NODES

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
    """Outcome of one (cell, pair) task.  `leaves` is non-empty only when the
    status is transversal: then it covers the cell times every continuation
    pair.  An unresolved one claims nothing; it keeps `reason` and `node_count`."""

    status: str  # "transversal" | "unresolved"
    leaves: list[Leaf]
    node_count: int
    task: CertTask
    reason: str = ""
    derived_from: int | None = None  # source cell of a mirror-derived certificate

    @property
    def transversal(self) -> bool:
        return self.status == "transversal"


def _build_chain(params: SystemParams, chain: Chain, digits: Word) -> Chain:
    """The node of `digits` below `chain` in its digit trie.

    Each chain memoizes the one-digit children it has stepped (`Chain.kids`),
    so a walk steps only the digits that no earlier walk from the same root
    stepped, and every node has the bits of a fresh walk from its root.
    `certify_pair` keeps one trie per pair task, rooted at each x-set it
    meets: a node's chains extend its parent's after a digit extension,
    and after a bisection they are walked from the half-cell's roots,
    which the sibling extensions that bisect the same cell share.  Most
    nodes have at most one child, which `kids` holds without a list.
    """
    for d in digits:
        kids = chain.kids
        if kids is None:
            child = chain.kids = chain.step(params, d)
        elif kids.__class__ is list:
            child = kids[d]
            if child is None:
                child = kids[d] = chain.step(params, d)
        elif kids.digit == d:
            child = kids
        else:
            child = chain.step(params, d)
            chain.kids = [None] * params.b
            chain.kids[kids.digit] = kids
            chain.kids[d] = child
        chain = child
    return chain


def _second_deriv_pair_bound(params: SystemParams) -> float:
    """Upper bound for |d^2/dx^2 (prefix difference)|: 2 ddpsi_sup / (b^2 - gamma)."""
    ddpsi_sup = params.dpsi.derivative().sup_bound()
    b2 = params.b_iv * params.b_iv
    return (Interval.point(2.0 * ddpsi_sup) / (b2 - params.gamma_iv)).hi


def _pair_bounds(
    params: SystemParams, q: int
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Pair tail radii 2 tail_value(n) and 2 tail_deriv(n), n = q..q+D_MAX,
    and `_second_deriv_pair_bound` (memoized on params: it is frozen)."""
    memo = getattr(params, "_pair_bounds", None)
    if memo is None:
        memo = {}
        object.__setattr__(params, "_pair_bounds", memo)
    bounds = memo.get(q)
    if bounds is None:
        ns = range(q, q + D_MAX + 1)
        bounds = memo[q] = (
            tuple(2.0 * tail_value(params.psi_sup, params.gamma_iv, n) for n in ns),
            tuple(2.0 * tail_deriv(params, n) for n in ns),
            _second_deriv_pair_bound(params),
        )
    return bounds


def certify_pair(task: CertTask) -> Certificate:
    """Decide (k, l) not-in E(q, cell; eps, delta) by exhaustive covering.

    Each node carries interval prefix chains over its cell *and* thin chains
    at the cell midpoint; the value difference is enclosed with the
    mean-value form D(m) + D'(cell)(x - m), which captures the cancellation
    of the x-dependence that a term-by-term enclosure loses.  The cell
    chains are slope-only (no value sum): that form reads the value
    difference only at the midpoint.  A node builds its chains when it is
    popped, in a digit trie (`_build_chain`) that lives for this call: one
    step from its parent's chains after a digit extension, and from the
    roots over its cell and midpoint after a bisection, so nodes left on
    the stack cost nothing and no prefix is stepped twice over one x-set.
    """
    params = task.params
    k, l = task.pair
    if k == l:
        return Certificate("unresolved", [], 0, task, reason="diagonal")
    b = params.b
    max_nodes = task.max_nodes
    tv2, td2, m2 = _pair_bounds(params, task.q)
    eps = task.eps
    delta = task.delta
    roots: dict = {}

    def root(x: Interval, value: bool) -> Chain:
        key = (x.lo, x.hi, value)
        chain = roots.get(key)
        if chain is None:
            chain = roots[key] = Chain.root(x, value)
        return chain

    leaves: list[Leaf] = []
    nodes = 0
    # (cell, x depth, digit depth, extensions, parent chains or None)
    stack = [(task.cell, 0, 0, (), (), None)]
    while stack:
        cell, xdepth, d, ea, eb, parent = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            return Certificate("unresolved", [], nodes, task, reason="node budget")
        xm = cell.mid()
        if parent is None:
            pa = pb = root(cell, False)
            pma = pmb = root(Interval.point(xm), True)
            sa = k + ea
            sb = l + eb
        else:
            pa, pb, pma, pmb = parent
            sa = ea[-1:]
            sb = eb[-1:]
        ca = _build_chain(params, pa, sa)
        cb = _build_chain(params, pb, sb)
        ma = _build_chain(params, pma, sa)
        mb = _build_chain(params, pmb, sb)
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
            return Certificate("unresolved", [], nodes, task, reason="tangency witness")
        # branch: extend digits while the continuation tail dominates the
        # prefix width, else bisect the cell
        extend = tv2[d] > 0.5 * val_pre.width()
        if extend and d >= D_MAX:
            extend = False
        if not extend and xdepth >= X_DEPTH_MAX:
            if d < D_MAX:
                extend = True
            else:
                return Certificate("unresolved", [], nodes, task, reason="depth budget")
        if extend:
            chains = (ca, cb, ma, mb)
            for da in reversed(range(b)):
                for db in reversed(range(b)):
                    stack.append((cell, xdepth, d + 1, ea + (da,), eb + (db,), chains))
        else:
            left, right = cell.bisect()
            stack.append((right, xdepth + 1, d, ea, eb, None))
            stack.append((left, xdepth + 1, d, ea, eb, None))
    return Certificate("transversal", leaves, nodes, task)


# ---------------------------------------------------------------------
# per-cell tangency graphs


def all_words(b: int, q: int) -> list[Word]:
    return [tuple(w) for w in itertools.product(range(b), repeat=q)]


@dataclass
class PairGraph:
    """Per-cell lists of the word pairs not certified transversal.

    Cells are [j/b^p, (j+1)/b^p); `unresolved[j]` lists the pairs (k, l)
    with k < l of cell j whose certificate is not transversal, sorted.  The
    diagonal, which is never transversal, is left out.  `certificates` maps
    (j, k, l) with k < l to the pair's Certificate.  For odd psi, those of
    the cells j > (n - 1)/2 are mirror images of cell n - 1 - j, which their
    `derived_from` names (see `tangency_graph`).  `nodes` sums the
    `node_count` of the certificates this graph's own `certify_pair` calls
    returned; inherited and mirror-derived certificates add nothing.
    """

    b: int
    q: int
    p: int
    eps: float
    delta: float
    unresolved: list[list[tuple[Word, Word]]]
    certificates: dict = field(default_factory=dict, repr=False)
    nodes: int = 0

    @property
    def n_cells(self) -> int:
        return self.b**self.p

    def cell_interval(self, j: int) -> Interval:
        scale = float(self.b**self.p)
        lo = math.nextafter(j / scale, -math.inf)
        hi = math.nextafter((j + 1) / scale, math.inf)
        return Interval(lo, hi)

    def e_by_cell(self) -> list[int]:
        """Per cell, the bound 1 (the diagonal) + the largest unresolved degree
        of a word for the tangency count e(q) at (eps, delta)."""
        return [
            1 + max(Counter(itertools.chain.from_iterable(pairs)).values(), default=0)
            for pairs in self.unresolved
        ]

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
    Returns None when a widened leaf no longer clears its margin.  As in
    `cert`, the leaves are non-empty only when the status is transversal.
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
            return None
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
    max_nodes: int = MAX_NODES,
    prior: PairGraph | None = None,
) -> PairGraph:
    """Certify every word pair over every base-b cell at resolution b^p,
    each within `max_nodes` branch-and-bound nodes.

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
    graph = PairGraph(b, q, p, eps, delta, [[] for _ in range(n_cells)])
    if prior is not None and (prior.q != q or prior.p != p or prior.b != b):
        raise ValueError("prior graph shape mismatch")
    mirror = all(c.mag() == 0.0 for c in params.psi.cos_coeffs)
    if mirror:
        reflected = functools.cache(functools.partial(reflect_word, b))
        index = {pair: i for i, pair in enumerate(pairs)}
        mirror_index = [index[(reflected(l), reflected(k))] for k, l in pairs]
        slopes = (2.0 * tail_deriv(params, 0), _second_deriv_pair_bound(params))
    for j in range(n_cells):
        cell = graph.cell_interval(j)
        source = n_cells - 1 - j
        derive = mirror and source < j
        for i, (k, l) in enumerate(pairs):
            cert = None if prior is None else prior.certificates.get((j, k, l))
            if cert is not None and not cert.transversal:
                cert = None
            if cert is None and derive:
                mirrored = graph.certificates.get((source, *pairs[mirror_index[i]]))
                if mirrored is not None:
                    cert = _mirror_certificate(mirrored, cell, (k, l), source, slopes, reflected)
            if cert is None:
                cert = certify_pair(CertTask(params, q, cell, (k, l), eps, delta, max_nodes))
                graph.nodes += cert.node_count
            graph.certificates[(j, k, l)] = cert
            if not cert.transversal:
                graph.unresolved[j].append((k, l))
    return graph


# ---------------------------------------------------------------------
# closed-form pruning quantities


def delta_max(b: int, gamma: float) -> Interval:
    """Rigorous enclosure of max_t (sin(b t) + gamma sin t) over one period.

    Branch and bound in turns s = t / (2 pi): a cell stays while its upper
    bound, the smaller of the natural extension and the mean-value form
    f(m) + f'(cell)(cell - m), exceeds the best value found at a midpoint.
    It stops once the enclosure is 1e-9 wide, or after 200 rounds.
    """
    if not (isinstance(b, int) and b >= 1):
        raise ValueError("b must be a positive integer")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    # f(s) = sin 2 pi b s + gamma sin 2 pi s: harmonics b and 1, which add at b = 1
    one, g = Interval.point(1.0), Interval.point(gamma)
    sin = [one + g] if b == 1 else [g] + [Interval.point(0.0)] * (b - 2) + [one]
    poly = TrigPoly(sin_coeffs=sin)
    f = poly.eval_iv
    df = poly.derivative().eval_iv

    active = [Interval(0.0, 1.0)]
    best_lo = -math.inf
    upper = math.inf
    for _ in range(200):
        evals = []
        for cell in active:
            m = Interval.point(cell.mid())
            fm = f(m)
            best_lo = max(best_lo, fm.lo)
            mean_value = fm + df(cell) * (cell - m)
            evals.append((cell, min(f(cell).hi, mean_value.hi)))
        upper = max((hi for _, hi in evals), default=best_lo)
        if upper - best_lo <= 1e-9:
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
