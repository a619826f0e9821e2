"""Upper bounds for sigma(q) from a certified pair graph.

Four weight/testing-function constructions are checked mechanically
against the graph; each one's hypotheses are verified cell by cell, the
image conditions by exact integer arithmetic on cell indices.  The main
driver succeeds once some bound beats the absolute-continuity target
(gamma b)^q.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .certifier import Budget, PairGraph, e_upper, tangency_graph
from .series import SystemParams, Word

SQRT2 = math.sqrt(2.0)
GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0

# scheme preference for equal bounds
_SCHEME_ORDER = {"sqrt2": 0, "three_tier": 1, "golden": 2, "one_miss": 3, "trivial": 4}


def solve_alpha(b: int, q: int) -> tuple[float, float]:
    """Root alpha in (1, 2] of 2 - a = (b^q - 2) a (a - 1), and the bound
    b^q - 2 + 2/a it certifies when every cell misses a pair."""
    if b**q < 2:
        raise ValueError("b^q must be at least 2")
    big = float(b**q - 2)
    if big == 0.0:
        alpha = 2.0
    else:
        # B a^2 + (1 - B) a - 2 = 0, positive root
        alpha = ((big - 1.0) + math.sqrt(big * big + 6.0 * big + 1.0)) / (2.0 * big)
    return alpha, big + 2.0 / alpha


def solve_t(tol: float = 1e-14) -> float:
    """Unique root with t^3 > 2 of 1/(t^2-1) + 2/(t^3-2) + 1 = t^2."""

    def f(t: float) -> float:
        return 1.0 / (t * t - 1.0) + 2.0 / (t**3 - 2.0) + 1.0 - t * t

    lo = 2.0 ** (1.0 / 3.0) + 1e-6
    hi = 1.61
    flo = f(lo)
    fhi = f(hi)
    if not (flo > 0.0 > fhi):
        raise RuntimeError("root bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SigmaScheme:
    kind: str  # "trivial" | "one_miss" | "sqrt2" | "golden" | "three_tier"
    bound: float
    regions: dict = field(default_factory=dict)  # label -> sorted cell indices
    designated: dict = field(default_factory=dict)  # cell -> words used by the scheme


def _matching_structure(graph: PairGraph, j: int) -> list[tuple[Word, Word]] | None:
    """Nontrivial pairs of cell j if they form a partial matching, else None."""
    pairs = graph.nontrivial_pairs(j)
    seen: set[Word] = set()
    for k, l in pairs:
        if k in seen or l in seen:
            return None
        seen.add(k)
        seen.add(l)
    return pairs


def _check_matching(
    graph: PairGraph, kind: str, bound: float, images: Callable[[tuple[bool, bool]], bool]
) -> SigmaScheme | None:
    """K = diagonal-only cells; off K the unresolved pairs must form a
    matching, and `images` (all or any) of each pair's two image cells
    must lie inside K."""
    k_cells = [j for j in range(graph.n_cells) if graph.is_diagonal_only(j)]
    k_set = set(k_cells)
    designated = {}
    for j in range(graph.n_cells):
        if j in k_set:
            continue
        pairs = _matching_structure(graph, j)
        if pairs is None or not pairs:
            return None
        for k, l in pairs:
            if not images((graph.image_cell(j, k) in k_set, graph.image_cell(j, l) in k_set)):
                return None
        designated[j] = pairs
    return SigmaScheme(kind, bound, {"K": k_cells}, designated)


def check_sqrt2(graph: PairGraph) -> SigmaScheme | None:
    """K = diagonal-only cells; off K the unresolved pairs must form a
    matching with both image cells inside K."""
    return _check_matching(graph, "sqrt2", SQRT2, all)


def check_golden(graph: PairGraph) -> SigmaScheme | None:
    """Like sqrt2 but only one of the two image cells must lie in K."""
    return _check_matching(graph, "golden", GOLDEN, any)


def check_three_tier(graph: PairGraph) -> SigmaScheme | None:
    """Three-region construction: K0 diagonal-only cells; K1 cells carry one
    pair with both images in K0; K2 cells carry a star {(a,b), (a,c)} with
    x(a), x(b) in K0 and x(c) in K1 (or a single pair read as (a,b) or
    (a,c)).  The bound is the root t of the defining weight equation.
    """
    n = graph.n_cells
    k0 = {j for j in range(n) if graph.is_diagonal_only(j)}
    structures: dict[int, list[tuple[Word, Word]]] = {}
    for j in range(n):
        if j in k0:
            continue
        pairs = graph.nontrivial_pairs(j)
        if not 1 <= len(pairs) <= 2:
            return None
        structures[j] = pairs

    # first pass: K1 = single-pair cells with both images diagonal-only
    k1 = set()
    designated: dict[int, dict] = {}
    for j, pairs in structures.items():
        if len(pairs) == 1:
            a, b = pairs[0]
            if graph.image_cell(j, a) in k0 and graph.image_cell(j, b) in k0:
                k1.add(j)
                designated[j] = {"a": a, "b": b}

    # second pass: everything else must fit the K2 star pattern
    k2 = set()
    for j, pairs in structures.items():
        if j in k1:
            continue
        candidates: list[tuple[Word, Word, Word | None]] = []
        if len(pairs) == 1:
            u, v = pairs[0]
            candidates.append((u, None, v))  # (a, -, c)
            candidates.append((v, None, u))
        else:
            (p1, p2) = pairs
            shared = set(p1) & set(p2)
            if len(shared) != 1:
                return None
            a = shared.pop()
            leaves = [w for w in (*p1, *p2) if w != a]
            x, y = leaves
            candidates.append((a, x, y))
            candidates.append((a, y, x))
        ok = None
        for a, bb, c in candidates:
            if graph.image_cell(j, a) not in k0:
                continue
            if bb is not None and graph.image_cell(j, bb) not in k0:
                continue
            if c is not None and graph.image_cell(j, c) not in k1:
                continue
            ok = {"a": a, "b": bb, "c": c}
            break
        if ok is None:
            return None
        k2.add(j)
        designated[j] = ok
    t = solve_t()
    return SigmaScheme(
        "three_tier",
        t,
        {"K0": sorted(k0), "K1": sorted(k1), "K2": sorted(k2)},
        designated,
    )


def check_one_miss(graph: PairGraph, params: SystemParams) -> SigmaScheme | None:
    """Every cell must miss at least one off-diagonal pair."""
    n_words = params.b**graph.q
    full = n_words * n_words
    for j in range(graph.n_cells):
        if len(graph.unresolved[j]) >= full:
            return None
    alpha, bound = solve_alpha(params.b, graph.q)
    return SigmaScheme("one_miss", bound, {}, {"alpha": alpha})


def sigma_upper(
    graph: PairGraph, params: SystemParams, q: int
) -> tuple[float, SigmaScheme]:
    """Best sigma(q) bound among the scheme checks that verify on the graph.

    The trivial e(q)-bound always applies, so a result is guaranteed.
    """
    if q != graph.q:
        raise ValueError("graph was built for a different q")
    _, e_glob = e_upper(graph)
    schemes: list[SigmaScheme] = [SigmaScheme("trivial", float(e_glob))]
    for checker in (check_sqrt2, check_three_tier, check_golden):
        s = checker(graph)
        if s is not None:
            schemes.append(s)
    s = check_one_miss(graph, params)
    if s is not None:
        schemes.append(s)
    best = min(schemes, key=lambda s: (s.bound, _SCHEME_ORDER[s.kind]))
    return best.bound, best


# ---------------------------------------------------------------------
# main driver


@dataclass
class RungReport:
    q: int
    eps: float
    delta: float
    e_global: int
    sigma_bound: float
    scheme_kind: str
    target: float
    success: bool
    graph: PairGraph | None = None


@dataclass
class Verdict:
    success: bool
    b: int
    gamma: float
    q: int | None
    scheme: SigmaScheme | None
    sigma_bound: float | None
    target: float | None
    margin: float | None
    eps: float | None
    delta: float | None
    grid_p: int
    rungs: list[RungReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "b": self.b,
            "gamma": self.gamma,
            "q": self.q,
            "scheme": self.scheme.kind if self.scheme else None,
            "sigma_bound": self.sigma_bound,
            "target": self.target,
            "margin": self.margin,
            "eps": self.eps,
            "delta": self.delta,
            "grid_p": self.grid_p,
            "rungs": [
                {
                    "q": r.q,
                    "eps": r.eps,
                    "delta": r.delta,
                    "e_global": r.e_global,
                    "sigma_bound": r.sigma_bound,
                    "scheme": r.scheme_kind,
                    "target": r.target,
                    "success": r.success,
                }
                for r in self.rungs
            ],
        }


DEFAULT_LADDER = (1e-2, 1e-3, 1e-4)

# node budget of each rung's probe pass.  No transversal certificate measured
# so far (b = 2, 6 and 8) needed more than 601 nodes, while a pair that stays
# unresolved spends the whole budget; a rung the probe does not certify runs
# its unresolved pairs again at the full budget.
PROBE_NODES = 1024


def default_grid_p(b: int) -> int:
    """Grid depth so cells are comfortably below the scheme region scale."""
    return 6 if b == 2 else (3 if b <= 4 else 2)


def certify_main(
    params: SystemParams,
    q_max: int,
    grid_p: int | None = None,
    ladder: tuple[float, ...] = DEFAULT_LADDER,
    budget: Budget = Budget(),
    keep_graphs: bool = False,
) -> Verdict:
    """Search q = 1..q_max and the (eps, delta) ladder for sigma(q) < (gamma b)^q.

    The first success wins.  Within one q the ladder descends, reusing each
    rung's certified pairs for the next (transversality is monotone in the
    margins).  Each rung first certifies at a node budget of at most
    PROBE_NODES; only when that graph's bound misses the target are its
    unresolved pairs certified again at the full budget.  Certification of
    one pair is deterministic, so a missed rung ends with the graph a
    single full-budget pass would give.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    p = default_grid_p(params.b) if grid_p is None else grid_p
    probe = replace(budget, max_nodes=min(budget.max_nodes, PROBE_NODES))
    rungs: list[RungReport] = []
    for q in range(1, q_max + 1):
        target = (params.gamma * params.b) ** q
        prior = None
        for eps in ladder:
            graph = tangency_graph(
                params, q, p, eps, eps, probe, keep_certificates=True, prior=prior
            )
            bound, scheme = sigma_upper(graph, params, q)
            if bound >= target and probe != budget:
                graph = tangency_graph(
                    params, q, p, eps, eps, budget, keep_certificates=True, prior=graph
                )
                bound, scheme = sigma_upper(graph, params, q)
            prior = graph
            _, e_glob = e_upper(graph)
            success = bound < target
            rungs.append(
                RungReport(
                    q,
                    eps,
                    eps,
                    e_glob,
                    bound,
                    scheme.kind,
                    target,
                    success,
                    graph if keep_graphs else None,
                )
            )
            if success:
                return Verdict(
                    True,
                    params.b,
                    params.gamma,
                    q,
                    scheme,
                    bound,
                    target,
                    target - bound,
                    eps,
                    eps,
                    p,
                    rungs,
                )
    return Verdict(
        False,
        params.b,
        params.gamma,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        p,
        rungs,
    )
