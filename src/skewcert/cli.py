"""Command-line front end: certify, sweep, measure, boxdim, selftest.

Every run writes its artifacts under --out with a manifest.  Reports and
CSV tables are byte-deterministic for a fixed config and seed (timing
lives only in the manifest); enclosure endpoints are serialized as hex
floats with decimal mirrors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .boxdim import box_count_dim, graph_mu_local_dim, sample_graph, theoretical_D
from .certifier import Budget
from .measures import i_r_table, local_dim_regress, sample_mx, srb_sample
from .series import SystemParams, TrigPoly, classical_psi
from .sigma import DEFAULT_LADDER, Verdict, certify_main

SCHEMA_VERSION = "1"
THREADS_ENV = "SKEWCERT_THREADS"


# ---------------------------------------------------------------------
# serialization helpers


def _hexpair(lo: float, hi: float) -> dict:
    return {"lo": lo, "hi": hi, "lo_hex": float.hex(lo), "hi_hex": float.hex(hi)}


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_manifest(out: Path, command: str, config: dict, artifacts: list[str], t0: float) -> None:
    _dump_json(
        out / "manifest.json",
        {
            "command": command,
            "tool_version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "artifacts": sorted(artifacts),
            "timing_s": round(time.perf_counter() - t0, 3),
        },
    )


def _make_params(cfg: dict) -> SystemParams:
    psi_spec = cfg.get("psi", "classical")
    if psi_spec == "classical":
        psi = classical_psi()
    elif psi_spec == "zero":
        psi = TrigPoly.zero()
    else:
        psi = TrigPoly.from_floats(
            cos=psi_spec.get("cos", ()), sin=psi_spec.get("sin", ())
        )
    return SystemParams(b=cfg["b"], gamma=cfg["gamma"], psi=psi)


def _certify(cfg: dict, keep_graphs: bool = False) -> Verdict:
    """`certify_main` on the system, ladder and budget of a certify or sweep config."""
    return certify_main(
        _make_params(cfg),
        q_max=cfg.get("qmax", 3),
        grid_p=cfg.get("grid_p"),
        ladder=tuple(cfg.get("eps_ladder", DEFAULT_LADDER)),
        budget=_budget_from(cfg),
        keep_graphs=keep_graphs,
    )


def _budget_from(cfg: dict) -> Budget:
    base = Budget()
    return Budget(
        d_max=cfg.get("d_max", base.d_max),
        x_depth_max=cfg.get("x_depth_max", base.x_depth_max),
        max_nodes=cfg.get("max_nodes", base.max_nodes),
    )


def _verdict_payload(v: Verdict) -> dict:
    d = v.to_dict()
    d["certificate_refs"] = ["certificates.json"]
    if v.scheme is not None:
        d["scheme_regions"] = {k: list(map(int, c)) for k, c in v.scheme.regions.items()}
    return d


def _certificates_payload(v: Verdict, full_leaves: bool) -> list[dict]:
    out = []
    rung = next((r for r in v.rungs if r.graph is not None and r.success), None)
    if rung is None:
        rung = next((r for r in reversed(v.rungs) if r.graph is not None), None)
    if rung is None:
        return out
    graph = rung.graph
    for (j, k, l), cert in sorted(graph.certificates.items()):
        entry = {
            "cell_index": j,
            "cell": _hexpair(graph.cell_interval(j).lo, graph.cell_interval(j).hi),
            "pair": [list(k), list(l)],
            "status": cert.status,
            "reason": cert.reason,
            "node_count": cert.node_count,
            "n_leaves": len(cert.leaves),
            "eps": rung.eps,
            "delta": rung.delta,
        }
        cap = len(cert.leaves) if full_leaves else min(len(cert.leaves), 16)
        entry["leaves"] = [
            {
                "cell": _hexpair(leaf.cell_lo, leaf.cell_hi),
                "ext": [list(leaf.ext_a), list(leaf.ext_b)],
                "value": _hexpair(leaf.val_lo, leaf.val_hi),
                "deriv": _hexpair(leaf.der_lo, leaf.der_hi)
                if not math.isnan(leaf.der_lo)
                else None,
                "margin": leaf.margin,
            }
            for leaf in cert.leaves[:cap]
        ]
        entry["leaves_elided"] = len(cert.leaves) - cap
        if cert.derived_from is not None:
            entry["derived_from"] = cert.derived_from
        out.append(entry)
    return out


# ---------------------------------------------------------------------
# subcommands


def cmd_certify(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    v = _certify(cfg, keep_graphs=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": cfg,
        "verdict": _verdict_payload(v),
    }
    _dump_json(out / "verdict.json", report)
    _dump_json(out / "certificates.json", {
        "schema_version": SCHEMA_VERSION,
        "certificates": _certificates_payload(v, cfg.get("full_leaves", False)),
    })
    _write_manifest(out, "certify", cfg, ["verdict.json", "certificates.json"], t0)
    if v.success:
        print(
            f"certified: q={v.q} scheme={v.scheme.kind} bound={v.sigma_bound:.6f} "
            f"< target={v.target:.6f} (eps={v.eps})"
        )
        return 0
    print("inconclusive: no sigma bound beat the target within budget")
    return 2


def _sweep_worker(job: tuple) -> dict:
    """One sweep row; a gamma whose certification raises gets an error row,
    so the other rows of the sweep are still written."""
    cfg = json.loads(job[0])
    gamma = job[1]
    cfg = dict(cfg, gamma=gamma)
    try:
        v = _certify(cfg)
    except Exception as exc:
        traceback.print_exc()
        row = dict.fromkeys(("q", "scheme", "bound", "target", "eps", "e_global"))
        return dict(row, gamma=gamma, success=False, error=f"{type(exc).__name__}: {exc}")
    return {
        "gamma": gamma,
        "success": v.success,
        "q": v.q,
        "scheme": v.scheme.kind if v.scheme else None,
        "bound": v.sigma_bound,
        "target": v.target,
        "eps": v.eps,
        "e_global": v.rungs[-1].e_global if v.rungs else None,
    }


def cmd_sweep(cfg: dict, out: Path, threads: int) -> int:
    t0 = time.perf_counter()
    b = cfg["b"]
    start = cfg["gamma_start"]
    stop = cfg["gamma_stop"]
    step = cfg.get("gamma_step", 0.02)
    gammas = []
    k = 0
    while True:
        g = round(start + k * step, 12)
        if g > stop + 1e-12:
            break
        if 1.0 / b < g < 1.0:
            gammas.append(g)
        k += 1
    cfg_json = json.dumps(cfg, sort_keys=True)
    jobs = [(cfg_json, g) for g in gammas]
    workers = min(threads, len(jobs), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]
    lines = ["gamma,q,scheme,bound,target,success,eps,e_global"]
    for r in rows:
        lines.append(
            f"{r['gamma']!r},{r['q']},{r['scheme']},"
            f"{r['bound']!r},{r['target']!r},{int(bool(r['success']))},"
            f"{r['eps']!r},{r['e_global']}"
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    _dump_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": cfg,
        "rows": rows,
    })
    _write_manifest(out, "sweep", cfg, ["sweep.csv", "report.json"], t0)
    n_ok = sum(1 for r in rows if r["success"])
    print(f"sweep: {n_ok}/{len(rows)} gamma values certified")
    n_err = sum(1 for r in rows if "error" in r)
    if n_err:
        print(f"sweep: {n_err} gamma values failed with an error", file=sys.stderr)
        return 1
    return 0 if n_ok == len(rows) else 2


def cmd_measure(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    params = _make_params(cfg)
    x = cfg.get("x", 0.3)
    depth = cfg.get("depth", 14)
    mode = cfg.get("mode", "exact")
    n_samples = cfg.get("samples")
    seed = cfg.get("seed", 0)
    artifacts = []
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": cfg,
    }

    mu = sample_mx(params, x, depth, mode=mode, n_samples=n_samples, seed=seed)
    report["atoms"] = {
        "n": mu.n_atoms,
        "depth": mu.depth,
        "blur": mu.blur,
        "distinct": int(np.unique(mu.locs).size),
    }

    r_exps = cfg.get("r_exponents", list(range(4, 11)))
    radii = [2.0 ** (-k) for k in r_exps]
    # aggregate correlation statistic over the x-grid
    ests = i_r_table(
        params, radii, cfg.get("grid", 64), depth, mode=mode, n_samples=n_samples, seed=seed
    )
    ir_rows = [(e.r, e.value, e.truncation_warning) for e in ests]
    lines = ["r,I_r,truncation_warning"]
    for r, v, w in ir_rows:
        lines.append(f"{r!r},{v!r},{int(w)}")
    (out / "i_r.csv").write_text("\n".join(lines) + "\n")
    artifacts.append("i_r.csv")
    finite = [v for _, v, _ in ir_rows]
    # heuristic boundedness flag: the small-r end of the curve stops growing
    bounded = len(finite) >= 3 and finite[-1] <= 1.25 * max(finite[0], min(finite))
    report["i_r"] = {
        "rows": [{"r": r, "value": v, "truncation_warning": w} for r, v, w in ir_rows],
        "bounded_heuristic": bool(bounded),
    }

    degenerate = mu.n_atoms < 2 or float(mu.locs[-1] - mu.locs[0]) == 0.0
    if degenerate:
        report["local_dim"] = {"error": "degenerate single-atom measure"}
    else:
        ld_exps = cfg.get("local_dim_exponents", list(range(4, 12)))
        ld_radii = [2.0 ** (-k) for k in ld_exps if 2.0 ** (-k) > mu.blur]
        if len(ld_radii) >= 2:
            reg = local_dim_regress(mu, ld_radii, cfg.get("centers", 100), seed=seed)
            lines = ["radius,mean_log_mass"]
            for r, lm in zip(reg.radii, reg.log_means):
                lines.append(f"{float(r)!r},{float(lm)!r}")
            (out / "local_dim.csv").write_text("\n".join(lines) + "\n")
            artifacts.append("local_dim.csv")
            report["local_dim"] = {
                "slope": reg.slope,
                "ci": [reg.ci_low, reg.ci_high],
                "n_centers": reg.n_centers,
            }
        else:
            report["local_dim"] = {"error": "all requested radii inside truncation blur"}

    if cfg.get("srb", False):
        hist = srb_sample(
            params,
            cfg.get("srb_points", 2000),
            cfg.get("srb_iters", 2000),
            cfg.get("srb_burn_in", 500),
            seed=seed,
            bins=tuple(cfg.get("srb_bins", (64, 64))),
        )
        hdr = (
            f"# srb histogram b={params.b} gamma={params.gamma!r} seed={seed} "
            f"rng={hist.rng_kind} points={hist.n_points} iters={hist.n_iter} "
            f"burn_in={hist.burn_in}\n"
            f"# rows: x bins {float(hist.x_edges[0])!r}..{float(hist.x_edges[-1])!r}; "
            f"cols: y bins {float(hist.y_edges[0])!r}..{float(hist.y_edges[-1])!r}\n"
        )
        body = "\n".join(",".join(str(int(c)) for c in row) for row in hist.counts)
        (out / "srb_histogram.csv").write_text(hdr + body + "\n")
        artifacts.append("srb_histogram.csv")
        report["srb"] = {"seed": seed, "rng": hist.rng_kind, "total": int(hist.counts.sum())}

    _dump_json(out / "report.json", report)
    artifacts.append("report.json")
    _write_manifest(out, "measure", cfg, artifacts, t0)
    print(f"measure: {mu.n_atoms} atoms, artifacts in {out}")
    return 0


def cmd_boxdim(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    lam = cfg["lam"]
    b = cfg["b"]
    d_theory = theoretical_D(lam, b)
    m = cfg.get("m", 20)
    exps = cfg.get("scale_exponents", list(range(4, 15)))
    sample = sample_graph(lam, b, m, depth=cfg.get("depth"))
    res = box_count_dim(sample, exps, drop_edges=cfg.get("drop_edges", 2))
    lines = ["scale,count,used_in_fit"]
    for s, c, u in zip(res.scales, res.counts, res.used):
        lines.append(f"{float(s)!r},{float(c)!r},{int(u)}")
    (out / "counts.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": cfg,
        "lambda": lam,
        "b": b,
        "D_theory": d_theory,
        "D_hat": res.slope,
        "CI": [res.ci_low, res.ci_high],
        "D_hat_all_scales": res.slope_all,
        "sample": {"m": m, "depth": sample.depth, "tail": sample.tail},
    }
    artifacts = ["counts.csv", "report.json"]
    if cfg.get("local_dim", False):
        reg = graph_mu_local_dim(
            sample,
            [2.0 ** (-k) for k in cfg.get("local_dim_exponents", range(4, 11))],
            n_centers=cfg.get("centers", 200),
            seed=cfg.get("seed", 0),
        )
        summary["mu_local_dim"] = {"slope": reg.slope, "ci": [reg.ci_low, reg.ci_high]}
    _dump_json(out / "report.json", summary)
    _write_manifest(out, "boxdim", cfg, artifacts, t0)
    print(f"boxdim: D_hat={res.slope:.4f} vs D={d_theory:.4f}")
    return 0


def cmd_selftest() -> int:
    """Small invariant battery; prints one line per check."""
    import random

    from .interval import Interval, sin2pi
    from .series import Code, adding_machine, eval_S
    from .certifier import CertTask, certify_pair, tangency_graph
    from .measures import AtomicMeasure, corr_sq_norm, vertical_scaling_check
    from .sigma import solve_alpha, solve_t

    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rnd = random.Random(0)
    ok = True
    for _ in range(20000):
        lo = rnd.uniform(-3, 3)
        w = 10 ** rnd.uniform(-12, 0)
        X = Interval(lo, lo + w)
        t = rnd.uniform(X.lo, X.hi)
        s = sin2pi(X)
        if not (s.lo <= math.sin(2 * math.pi * t) + 3e-16 and s.hi >= math.sin(2 * math.pi * t) - 3e-16):
            ok = False
            break
    check("interval trig inclusion (float reference)", ok)

    params = SystemParams.classical(2, 0.7)
    ok = True
    for _ in range(50):
        x = rnd.random()
        u = tuple(rnd.randrange(2) for _ in range(12))
        au, _carry = adding_machine(2, u)
        a = eval_S(params, Interval.point(x + 1.0), Code.make(params, u))
        bb = eval_S(params, Interval.point(x), Code.make(params, au))
        if not a.intersects(bb):
            ok = False
            break
    check("adding-machine series identity", ok)

    cert = certify_pair(CertTask(params, 1, Interval(0.0, 1 / 3), ((0,), (1,)), 1e-3, 1e-3))
    check("transversality certificate on [0, 1/3]", cert.transversal)

    mirror = SystemParams.classical(2, 0.75)
    graph = tangency_graph(mirror, 1, 3, 1e-2, 1e-2)
    derived = [key for key, c in graph.certificates.items() if c.derived_from is not None]
    ok = bool(derived) and all(
        graph.certificates[(j, k, l)].status
        == certify_pair(CertTask(mirror, 1, graph.cell_interval(j), (k, l), 1e-2, 1e-2)).status
        for j, k, l in derived
    )
    check("odd-psi mirror: derived cells equal direct", ok)

    rng = np.random.default_rng(1)
    locs = np.sort(rng.normal(size=500))
    masses = np.full(500, 1 / 500)
    mu = AtomicMeasure(locs, masses, 5, 0.0)
    lhs, rhs = vertical_scaling_check(mu, params, 2, 0.05)
    check("vertical scaling identity", abs(lhs - rhs) <= 1e-12 * abs(rhs))
    check("corr norm bounded by 2r", corr_sq_norm(mu, 0.25) <= 0.5 + 1e-15)

    alpha, bound = solve_alpha(2, 2)
    check("one-miss weight equation", abs(bound - (1 + 2 * alpha)) < 1e-12)
    t = solve_t()
    check("three-tier root in (1.60, 1.61)", 1.60 < t < 1.61)

    print("selftest:", "OK" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------
# argument plumbing


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", type=Path, help="JSON config file (flags win)")
    sp.add_argument("--out", type=Path, default=Path("runs/latest"))


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg.update(json.loads(Path(args.config).read_text()))
    for key in keys:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _int_list(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b) + 1))
    return [int(t) for t in text.split(",") if t]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewcert",
        description="certified transversality bounds and measure experiments "
        "for Weierstrass-type skew products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("certify", help="search for sigma(q) < (gamma b)^q")
    _add_common(pc)
    pc.add_argument("--b", type=int)
    pc.add_argument("--gamma", type=float)
    pc.add_argument("--lam", type=float, help="alternative to --gamma (gamma = 1/(lam b))")
    pc.add_argument("--qmax", type=int)
    pc.add_argument("--grid-p", dest="grid_p", type=int)
    pc.add_argument("--max-nodes", dest="max_nodes", type=int)
    pc.add_argument("--full-leaves", dest="full_leaves", action="store_const", const=True)

    ps = sub.add_parser("sweep", help="certify across a gamma grid in parallel")
    _add_common(ps)
    ps.add_argument("--b", type=int)
    ps.add_argument("--gamma-start", dest="gamma_start", type=float)
    ps.add_argument("--gamma-stop", dest="gamma_stop", type=float)
    ps.add_argument("--gamma-step", dest="gamma_step", type=float)
    ps.add_argument("--qmax", type=int)
    ps.add_argument("--grid-p", dest="grid_p", type=int)
    ps.add_argument("--max-nodes", dest="max_nodes", type=int)
    ps.add_argument(
        "--threads",
        type=int,
        help="worker processes (default 1, or $SKEWCERT_THREADS); capped at the "
        "number of gamma values and of usable CPUs",
    )

    pm = sub.add_parser("measure", help="fiber-measure statistics and local dimension")
    _add_common(pm)
    pm.add_argument("--b", type=int)
    pm.add_argument("--gamma", type=float)
    pm.add_argument("--psi", choices=["classical", "zero"])
    pm.add_argument("--x", type=float)
    pm.add_argument("--depth", type=int)
    pm.add_argument("--mode", choices=["exact", "mc"])
    pm.add_argument("--samples", type=int)
    pm.add_argument("--grid", type=int)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--srb", action="store_const", const=True)
    pm.add_argument("--r-exponents", dest="r_exponents", type=_int_list)
    pm.add_argument(
        "--local-dim-exponents", dest="local_dim_exponents", type=_int_list
    )

    pb = sub.add_parser("boxdim", help="box-counting dimension of the graph")
    _add_common(pb)
    pb.add_argument("--lam", type=float)
    pb.add_argument("--b", type=int)
    pb.add_argument("--m", type=int)
    pb.add_argument("--depth", type=int)
    pb.add_argument("--scales", dest="scale_exponents", type=_int_list)
    pb.add_argument("--local-dim", dest="local_dim", action="store_const", const=True)
    pb.add_argument("--seed", type=int)

    sub.add_parser("selftest", help="quick invariant battery")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return cmd_selftest()

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "certify":
            cfg = _merge_config(
                args, ["b", "gamma", "qmax", "grid_p", "max_nodes", "full_leaves"]
            )
            if getattr(args, "lam", None) is not None:
                cfg["gamma"] = 1.0 / (args.lam * cfg["b"])
            return cmd_certify(cfg, out)
        if args.command == "sweep":
            cfg = _merge_config(
                args,
                [
                    "b",
                    "gamma_start",
                    "gamma_stop",
                    "gamma_step",
                    "qmax",
                    "grid_p",
                    "max_nodes",
                ],
            )
            if "b" not in cfg or "gamma_start" not in cfg or "gamma_stop" not in cfg:
                parser.error("sweep needs --b, --gamma-start and --gamma-stop")
            threads = args.threads or int(os.environ.get(THREADS_ENV, "1"))
            return cmd_sweep(cfg, out, threads)
        if args.command == "measure":
            cfg = _merge_config(
                args,
                [
                    "b",
                    "gamma",
                    "psi",
                    "x",
                    "depth",
                    "mode",
                    "samples",
                    "grid",
                    "seed",
                    "srb",
                    "r_exponents",
                    "local_dim_exponents",
                ],
            )
            return cmd_measure(cfg, out)
        if args.command == "boxdim":
            cfg = _merge_config(
                args, ["lam", "b", "m", "depth", "scale_exponents", "local_dim", "seed"]
            )
            if "lam" not in cfg or "b" not in cfg:
                parser.error("boxdim needs --lam and --b")
            return cmd_boxdim(cfg, out)
    except (ValueError, KeyError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
