"""The benchmark's workloads: inputs made from the seed, the timed calls
into skewcert's public entry points, and the checks on their outputs.

An operation is one call into an entry point: one certify verdict or one
measurement job.  `run` is the timed call; `finish`
turns its raw result into a status and a small record outside the timing;
`check` runs after the timed phase.  Calls go through module attributes
(`sigma.certify_main`, `measures.sample_mx`, ...) so the tracer can wrap
them.

The certification workloads use fixed gamma values: certification cost
jumps by up to half between gammas 0.001 apart, so seeded gammas would
make the run-to-run spread a property of the seed rather than of the
program.  The seed there orders the operations and picks the certificates
that are spot-checked; on fiber-graph it draws every input.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from skewcert import boxdim, cli, measures, sigma
from skewcert.measures import AtomicMeasure
from skewcert.series import SystemParams

import checks

# certify-b6: paper's large-b regime, e(1) < gamma b at q = 1
B6_GAMMAS = (0.45, 0.60, 0.70)

# ladder-b2: (gamma, largest admissible q, cap on the certified bound)
LADDER = (
    (0.98, 1, checks.GOLDEN),
    (0.75, 1, checks.SQRT2),
    (0.68, 2, 1.61),
    (0.60, 2, checks.SQRT2),
    (0.55, 3, checks.SQRT2),
    (0.52, 1, 1.0),
)

# fiber-graph: the acceptance suite's fiber system (criterion 7) and its two
# reference graphs (criterion 6)
FIBER_GAMMA = 0.8
GRAPHS = ((0.7, 2), (0.5, 3))
GRAPH_M = 20
GRAPH_SCALES = range(4, 15)

SPOT_CHECKS_PER_VERDICT = 2


def cli_status(rc: int) -> str:
    """CLI exit code to operation status: 0 certified, 2 inconclusive, 1 invalid config."""
    return {0: "ok", 2: "inconclusive", 1: "invalid"}.get(rc, f"exit {rc}")


def _pick_certificates(rng: random.Random, certs: list[tuple]) -> list[tuple]:
    return rng.sample(certs, min(SPOT_CHECKS_PER_VERDICT, len(certs)))


def _spot_check(b: int, gamma: float, samples: list[tuple], seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    out = []
    for cell, pair, eps, delta in samples:
        out += checks.certificate_problems(b, gamma, cell, pair, eps, delta, rng)
    return out


class CliCertifyOp:
    """`skewcert certify --b 6 --gamma g --qmax 1`, in process."""

    def __init__(self, gamma: float, out: Path, rng: random.Random):
        self.name = f"certify b=6 gamma={gamma}"
        self.gamma = gamma
        self.out = out
        self.rng = rng
        self.argv = ["certify", "--b", "6", "--gamma", repr(gamma), "--qmax", "1",
                     "--out", str(out)]

    def run(self):
        return cli.main(self.argv)

    def finish(self, rc):
        status = cli_status(rc)
        if status != "ok":
            return status, None
        v = json.loads((self.out / "verdict.json").read_text())["verdict"]
        certs = json.loads((self.out / "certificates.json").read_text())["certificates"]
        transversal = [
            (
                (float.fromhex(c["cell"]["lo_hex"]), float.fromhex(c["cell"]["hi_hex"])),
                tuple(tuple(w) for w in c["pair"]),
                c["eps"],
                c["delta"],
            )
            for c in certs
            if c["status"] == "transversal"
        ]
        return "ok", {
            "verdict": v,
            "samples": _pick_certificates(self.rng, transversal),
            "n_certificates": len(certs),
            "seed": self.rng.randrange(2**31),
        }

    def check(self, rec):
        v = rec["verdict"]
        e_global = v["rungs"][-1]["e_global"]
        out = []
        if not v["success"] or v["b"] != 6 or v["gamma"] != self.gamma:
            out.append(f"verdict echoes b={v['b']} gamma={v['gamma']} success={v['success']}")
        out += checks.verdict_problems(
            6, self.gamma, v["q"], v["scheme"], v["sigma_bound"], v["target"], e_global
        )
        out += checks.large_b_problems(6, self.gamma, v["q"], e_global)
        if rec["n_certificates"] != 36 * 15:
            out.append(f"{rec['n_certificates']} certificates, expected 36 cells x 15 pairs")
        return out + _spot_check(6, self.gamma, rec["samples"], rec["seed"])


class LadderOp:
    """`sigma.certify_main` for one regime of the b = 2 ladder."""

    def __init__(self, gamma: float, q_cap: int, bound_cap: float, rng: random.Random):
        self.name = f"ladder b=2 gamma={gamma}"
        self.gamma = gamma
        self.q_cap = q_cap
        self.bound_cap = bound_cap
        self.rng = rng
        self.params = SystemParams.classical(2, gamma)

    def run(self):
        return sigma.certify_main(self.params, q_max=self.q_cap, keep_graphs=True)

    def finish(self, v):
        if not v.success:
            return "inconclusive", None
        rung = v.rungs[-1]
        graph = rung.graph
        transversal = [
            (
                (c.task.cell.lo, c.task.cell.hi),
                c.task.pair,
                c.task.eps,
                c.task.delta,
            )
            for c in graph.certificates.values()
            if c.transversal
        ]
        return "ok", {
            "q": v.q,
            "scheme": v.scheme.kind,
            "bound": v.sigma_bound,
            "target": v.target,
            "e_global": rung.e_global,
            "samples": _pick_certificates(self.rng, transversal),
            "seed": self.rng.randrange(2**31),
        }

    def check(self, rec):
        out = checks.verdict_problems(
            2, self.gamma, rec["q"], rec["scheme"], rec["bound"], rec["target"], rec["e_global"]
        )
        out += checks.ladder_cap_problems(rec["q"], rec["bound"], self.q_cap, self.bound_cap)
        return out + _spot_check(2, self.gamma, rec["samples"], rec["seed"])


class FiberOp:
    """One numpy measurement job; `fn` reads earlier results from `state`."""

    def __init__(self, name, fn, digest, check, state: dict):
        self.name = name
        self.fn = fn
        self.digest = digest
        self._check = check
        self.state = state

    def run(self):
        result = self.fn(self.state)
        self.state[self.name] = result
        return result

    def finish(self, result):
        return "ok", self.digest(result)

    def check(self, rec):
        return self._check(rec)


def _fiber_round(rng: random.Random, state: dict) -> list[FiberOp]:
    p = SystemParams.classical(2, FIBER_GAMMA)
    x_exact = rng.uniform(0.05, 0.95)
    x_mc = rng.uniform(0.05, 0.95)
    seeds = [rng.randrange(2**31) for _ in range(6)]
    radii_ir = [2.0**-k for k in range(4, 11)]
    radii_ld = [2.0**-k for k in range(4, 12)]
    exact_depth = 16
    srb = (2000, 1500, 500)

    def corr_digest(mu):
        sub = np.random.default_rng(seeds[5]).choice(mu.n_atoms, size=1200, replace=False)
        locs = np.sort(mu.locs[sub])
        masses = np.full(locs.size, 1.0 / locs.size)
        radii = (2.0**-3, 2.0**-6, 2.0**-9)
        sub_mu = AtomicMeasure(locs, masses, mu.depth, mu.blur)
        values = [measures.corr_sq_norm(sub_mu, r) for r in radii]
        return locs, masses, radii, values

    ops = [
        FiberOp(
            "sample_mx exact",
            lambda s: measures.sample_mx(p, x_exact, exact_depth),
            lambda mu: (mu.locs, mu.masses),
            lambda rec: checks.atoms_problems(2, FIBER_GAMMA, x_exact, exact_depth, *rec),
            state,
        ),
        FiberOp(
            "sample_mx mc",
            lambda s: measures.sample_mx(p, x_mc, 70, mode="mc", n_samples=400_000, seed=seeds[0]),
            corr_digest,
            lambda rec: checks.corr_problems(*rec),
            state,
        ),
        FiberOp(
            "local_dim_regress",
            lambda s: measures.local_dim_regress(s["sample_mx mc"], radii_ld, 100, seed=seeds[1]),
            lambda reg: reg.slope,
            checks.local_dim_problems,
            state,
        ),
        FiberOp(
            "i_r_table",
            lambda s: measures.i_r_table(p, radii_ir, 32, 12),
            lambda ests: [e.value for e in ests],
            lambda values: checks.i_r_problems(radii_ir, values),
            state,
        ),
        FiberOp(
            "srb_sample",
            lambda s: measures.srb_sample(p, *srb, seed=seeds[2]),
            lambda h: h.counts.sum(axis=1),
            lambda marg: checks.srb_problems(marg, *srb),
            state,
        ),
    ]
    for (lam, b), seed in zip(GRAPHS, seeds[3:5]):
        tag = f"W({lam},{b})"
        idx = [rng.randrange(1 << GRAPH_M) for _ in range(8)]
        ops += [
            FiberOp(
                f"sample_graph {tag}",
                lambda s, lam=lam, b=b: boxdim.sample_graph(lam, b, GRAPH_M),
                lambda g, idx=idx: (g.depth, idx, [float(g.values[i]) for i in idx]),
                lambda rec, lam=lam, b=b: checks.graph_value_problems(lam, b, GRAPH_M, *rec),
                state,
            ),
            FiberOp(
                f"box_count_dim {tag}",
                lambda s, tag=tag: boxdim.box_count_dim(s[f"sample_graph {tag}"], GRAPH_SCALES),
                lambda res: res.slope,
                lambda slope, lam=lam, b=b: checks.box_dim_problems(slope, lam, b),
                state,
            ),
            FiberOp(
                f"graph_mu_local_dim {tag}",
                lambda s, tag=tag, seed=seed: boxdim.graph_mu_local_dim(
                    s[f"sample_graph {tag}"], [2.0**-k for k in range(4, 11)], 200, seed=seed
                ),
                lambda reg: reg.slope,
                checks.graph_local_dim_problems,
                state,
            ),
        ]
    return ops


class Workload:
    """Seeded rounds of operations; round r's inputs depend on (seed, r) only."""

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root

    def rng(self, r: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + r)

    def out_dir(self, r: int, i: int) -> Path:
        return self.out_root / f"r{r}-{i}"

    def round_ops(self, r: int) -> list:
        raise NotImplementedError


class CertifyB6(Workload):
    def round_ops(self, r):
        rng = self.rng(r)
        gammas = list(B6_GAMMAS)
        rng.shuffle(gammas)
        return [
            CliCertifyOp(g, self.out_dir(r, i), random.Random(rng.randrange(2**31)))
            for i, g in enumerate(gammas)
        ]


class LadderB2(Workload):
    def round_ops(self, r):
        rng = self.rng(r)
        ladder = list(LADDER)
        rng.shuffle(ladder)
        return [
            LadderOp(g, q_cap, cap, random.Random(rng.randrange(2**31)))
            for g, q_cap, cap in ladder
        ]


class FiberGraph(Workload):
    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self.state: dict = {}

    def round_ops(self, r):
        # drop the previous round's measures and graphs, so peak memory does
        # not grow with the number of rounds a run fits in
        self.state.clear()
        return _fiber_round(self.rng(r), self.state)


WORKLOADS = {
    "certify-b6": CertifyB6,
    "ladder-b2": LadderB2,
    "fiber-graph": FiberGraph,
}
