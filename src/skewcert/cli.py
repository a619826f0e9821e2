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
from .certifier import MAX_NODES
from .measures import i_r_table, local_dim_regress, sample_mx, srb_sample
from .series import SystemParams, TrigPoly, classical_psi
from .sigma import Verdict, certify_main

SCHEMA_VERSION = "2"
THREADS_ENV = "SKEWCERT_THREADS"


# ---------------------------------------------------------------------
# serialization helpers


def _hexpair(lo: float, hi: float) -> dict:
    return {"lo": lo, "hi": hi, "lo_hex": float.hex(lo), "hi_hex": float.hex(hi)}


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _report(cfg: dict, **body) -> dict:
    """The schema, tool and config header of every report, followed by `body`."""
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__, "config": cfg, **body}


def _write_csv(path: Path, header: str, rows) -> None:
    """`header` line(s), then one line per row of str() cells (a float's round-trip repr)."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out: Path, command: str, config: dict, artifacts: list[str], t0: float) -> None:
    _dump_json(
        out / "manifest.json",
        _report(
            config,
            command=command,
            artifacts=sorted(artifacts),
            timing_s=round(time.perf_counter() - t0, 3),
        ),
    )


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _count(key: str, v, least: int) -> int:
    """`v` if it is an integer (not a bool) of at least `least`."""
    if not (_is_int(v) and v >= least):
        raise ValueError(f"{key} must be an integer >= {least}, got {v!r}")
    return v


def _flag(cfg: dict, key: str) -> bool:
    """cfg[key], or False when it is absent, if it is true or false."""
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise ValueError(f"{key} must be true or false, got {v!r}")
    return v


def _exponents(cfg: dict, key: str, default: list[int]) -> list[int]:
    """cfg[key], or `default` when it is absent, if it is a list of integers."""
    v = cfg.get(key, default)
    if not (isinstance(v, list) and all(map(_is_int, v))):
        raise ValueError(f"{key} must be a list of integers, got {v!r}")
    return v


def _make_psi(cfg: dict) -> TrigPoly:
    psi_spec = cfg.get("psi", "classical")
    if psi_spec == "classical":
        return classical_psi()
    if psi_spec == "zero":
        return TrigPoly.zero()
    if isinstance(psi_spec, dict):
        coeffs = {key: psi_spec.get(key, ()) for key in ("cos", "sin")}
        for key, c in coeffs.items():
            if not (isinstance(c, (list, tuple)) and all(map(_is_number, c))):
                raise ValueError(f"psi {key} must be a list of numbers, got {c!r}")
        return TrigPoly.from_floats(**coeffs)
    raise ValueError(
        f"psi must be 'classical', 'zero' or an object of cos and sin lists, got {psi_spec!r}"
    )


def _make_params(cfg: dict) -> SystemParams:
    return SystemParams(b=cfg["b"], gamma=cfg["gamma"], psi=_make_psi(cfg))


def _certify_options(cfg: dict) -> dict:
    """`certify_main`'s q cap, grid and node budget from a certify or sweep
    config, checked."""
    # the ladder and depth limits are constants: a config naming one is refused,
    # so that its echo in a report claims no setting the run did not use
    for key in ("eps_ladder", "d_max", "x_depth_max"):
        if key in cfg:
            raise ValueError(f"{key} is not a setting")
    grid_p = cfg.get("grid_p")
    return {
        "q_max": _count("qmax", cfg.get("qmax", 3), 1),
        "grid_p": None if grid_p is None else _count("grid_p", grid_p, 0),
        "max_nodes": _count("max_nodes", cfg.get("max_nodes", MAX_NODES), 0),
    }


def _certify(cfg: dict, keep_graphs: bool = False) -> Verdict:
    """`certify_main` on the system, grid and node budget of a certify or sweep config."""
    options = _certify_options(cfg)
    return certify_main(_make_params(cfg), keep_graphs=keep_graphs, **options)


def _verdict_payload(v: Verdict) -> dict:
    d = v.to_dict()
    d["certificate_refs"] = ["certificates.json"]
    if v.scheme is not None:
        d["scheme_regions"] = {k: list(map(int, c)) for k, c in v.scheme.regions.items()}
    return d


def _certificates_payload(v: Verdict) -> list[dict]:
    """Every certificate of the last rung (the deciding one, or the last one
    tried), with all of its leaves."""
    out = []
    if not v.rungs:
        return out
    rung = v.rungs[-1]
    graph = rung.graph
    for (j, k, l), cert in sorted(graph.certificates.items()):
        entry = {
            "cell_index": j,
            "cell": _hexpair(graph.cell_interval(j).lo, graph.cell_interval(j).hi),
            "pair": [list(k), list(l)],
            "status": cert.status,
            "reason": cert.reason,
            "node_count": cert.node_count,
            "eps": rung.eps,
            "delta": rung.delta,
            "leaves": [
                {
                    "cell": _hexpair(leaf.cell_lo, leaf.cell_hi),
                    "ext": [list(leaf.ext_a), list(leaf.ext_b)],
                    "value": _hexpair(leaf.val_lo, leaf.val_hi),
                    "deriv": _hexpair(leaf.der_lo, leaf.der_hi)
                    if not math.isnan(leaf.der_lo)
                    else None,
                    "margin": leaf.margin,
                }
                for leaf in cert.leaves
            ],
        }
        if cert.derived_from is not None:
            entry["derived_from"] = cert.derived_from
        out.append(entry)
    return out


# ---------------------------------------------------------------------
# subcommands


def cmd_certify(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    v = _certify(cfg, keep_graphs=True)
    _dump_json(out / "verdict.json", _report(cfg, verdict=_verdict_payload(v)))
    # one line: json's C encoder writes it several times faster than indent=2
    certs = {"schema_version": SCHEMA_VERSION, "certificates": _certificates_payload(v)}
    (out / "certificates.json").write_text(
        json.dumps(certs, sort_keys=True, separators=(",", ":")) + "\n"
    )
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
    read as a verdict with no rungs, so the other rows of the sweep are
    still written."""
    cfg_json, gamma = job
    cfg = dict(json.loads(cfg_json), gamma=gamma)
    error = None
    try:
        v = _certify(cfg)
    except Exception as exc:
        traceback.print_exc()
        v = Verdict(cfg["b"], gamma, None)
        error = f"{type(exc).__name__}: {exc}"
    row = {
        "gamma": gamma,
        "success": v.success,
        "q": v.q,
        "scheme": v.scheme.kind if v.scheme else None,
        "bound": v.sigma_bound,
        "target": v.target,
        "eps": v.eps,
        "e_global": v.rungs[-1].e_global if v.rungs else None,
    }
    return row if error is None else dict(row, error=error)


def cmd_sweep(cfg: dict, out: Path, threads: int) -> int:
    t0 = time.perf_counter()
    # every gamma shares these settings: check them once, before any job starts
    _make_psi(cfg)
    _certify_options(cfg)
    b = _count("b", cfg["b"], 2)
    start = cfg["gamma_start"]
    stop = cfg["gamma_stop"]
    step = cfg.get("gamma_step", 0.02)
    numbers = all(map(_is_number, (start, stop, step)))
    if not (numbers and step > 0 and math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("sweep needs finite gamma_start and gamma_stop and gamma_step > 0")
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
    _write_csv(
        out / "sweep.csv",
        "gamma,q,scheme,bound,target,success,eps,e_global",
        (
            (r["gamma"], r["q"], r["scheme"], r["bound"], r["target"],
             int(bool(r["success"])), r["eps"], r["e_global"])
            for r in rows
        ),
    )
    _dump_json(out / "report.json", _report(cfg, rows=rows))
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
    if not _is_number(x):
        raise ValueError(f"x must be a number, got {x!r}")
    depth = _count("depth", cfg.get("depth", 14), 0)
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be \"exact\" or \"mc\", got {mode!r}")
    n_samples = cfg.get("samples")
    if n_samples is not None:
        _count("samples", n_samples, 1)
    elif mode == "mc":
        raise ValueError("mode \"mc\" needs samples")
    seed = _count("seed", cfg.get("seed", 0), 0)
    grid = _count("grid", cfg.get("grid", 64), 1)
    centers = _count("centers", cfg.get("centers", 100), 1)
    r_exps = _exponents(cfg, "r_exponents", list(range(4, 11)))
    ld_exps = _exponents(cfg, "local_dim_exponents", list(range(4, 12)))
    srb = None
    if _flag(cfg, "srb"):
        srb = (
            _count("srb_points", cfg.get("srb_points", 2000), 1),
            _count("srb_iters", cfg.get("srb_iters", 2000), 1),
            _count("srb_burn_in", cfg.get("srb_burn_in", 500), 0),
        )
    artifacts = []
    report = _report(cfg)

    # both sampled before any artifact is written, so that a setting they
    # refuse (the atom budget, the SRB bins) leaves no file; the fiber
    # first, as it checks its atom budget before any work
    mu = sample_mx(params, x, depth, mode=mode, n_samples=n_samples, seed=seed)
    hist = None
    if srb is not None:
        hist = srb_sample(params, *srb, seed=seed, bins=cfg.get("srb_bins", (64, 64)))

    report["atoms"] = {
        "n": mu.n_atoms,
        "depth": mu.depth,
        "blur": mu.blur,
        "distinct": int(np.unique(mu.locs).size),
    }

    radii = [2.0 ** (-k) for k in r_exps]
    # aggregate correlation statistic over the x-grid
    ests = i_r_table(params, radii, grid, depth, mode=mode, n_samples=n_samples, seed=seed)
    ir_rows = [(e.r, e.value, e.truncation_warning) for e in ests]
    _write_csv(out / "i_r.csv", "r,I_r,truncation_warning", ((r, v, int(w)) for r, v, w in ir_rows))
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
        ld_radii = [2.0 ** (-k) for k in ld_exps if 2.0 ** (-k) > mu.blur]
        if len(ld_radii) >= 2:
            reg = local_dim_regress(mu, ld_radii, centers, seed=seed)
            _write_csv(
                out / "local_dim.csv",
                "radius,mean_log_mass",
                ((float(r), float(lm)) for r, lm in zip(reg.radii, reg.log_means)),
            )
            artifacts.append("local_dim.csv")
            report["local_dim"] = {
                "slope": reg.slope,
                "ci": [reg.ci_low, reg.ci_high],
                "n_centers": reg.n_centers,
            }
        else:
            report["local_dim"] = {"error": "all requested radii inside truncation blur"}

    if hist is not None:
        hdr = (
            f"# srb histogram b={params.b} gamma={params.gamma!r} seed={seed} "
            f"rng={hist.rng_kind} points={hist.n_points} iters={hist.n_iter} "
            f"burn_in={hist.burn_in}\n"
            f"# rows: x bins {float(hist.x_edges[0])!r}..{float(hist.x_edges[-1])!r}; "
            f"cols: y bins {float(hist.y_edges[0])!r}..{float(hist.y_edges[-1])!r}"
        )
        _write_csv(out / "srb_histogram.csv", hdr, hist.counts.astype(int).tolist())
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
    if not _is_number(lam):
        raise ValueError(f"lam must be a number, got {lam!r}")
    b = cfg["b"]
    d_theory = theoretical_D(lam, b)
    m = cfg.get("m", 20)
    exps = _exponents(cfg, "scale_exponents", list(range(4, 15)))
    ld_exps = _exponents(cfg, "local_dim_exponents", list(range(4, 11)))
    depth = cfg.get("depth")
    if depth is not None:
        _count("depth", depth, 0)
    drop_edges = _count("drop_edges", cfg.get("drop_edges", 2), 0)
    centers = _count("centers", cfg.get("centers", 200), 1)
    seed = _count("seed", cfg.get("seed", 0), 0)
    local_dim = _flag(cfg, "local_dim")
    sample = sample_graph(lam, b, m, depth=depth)
    res = box_count_dim(sample, exps, drop_edges=drop_edges)
    _write_csv(
        out / "counts.csv",
        "scale,count,used_in_fit",
        ((float(s), float(c), int(u)) for s, c, u in zip(res.scales, res.counts, res.used)),
    )
    summary = _report(
        cfg,
        **{"lambda": lam},
        b=b,
        D_theory=d_theory,
        D_hat=res.slope,
        CI=[res.ci_low, res.ci_high],
        D_hat_all_scales=res.slope_all,
        sample={"m": m, "depth": sample.depth, "tail": sample.tail},
    )
    artifacts = ["counts.csv", "report.json"]
    if local_dim:
        reg = graph_mu_local_dim(
            sample,
            [2.0 ** (-k) for k in ld_exps],
            n_centers=centers,
            seed=seed,
        )
        summary["mu_local_dim"] = {"slope": reg.slope, "ci": [reg.ci_low, reg.ci_high]}
    _dump_json(out / "report.json", summary)
    _write_manifest(out, "boxdim", cfg, artifacts, t0)
    print(f"boxdim: D_hat={res.slope:.4f} vs D={d_theory:.4f}")
    return 0


def cmd_selftest() -> int:
    """Small invariant battery; prints one line per check."""
    import random

    from .interval import Interval, _fast_sincos_pair
    from .series import adding_machine, eval_S
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
        hi = lo + 10 ** rnd.uniform(-12, 0)
        t = rnd.uniform(lo, hi)
        s_lo, s_hi, _, _ = _fast_sincos_pair(lo, hi)
        if not (s_lo <= math.sin(2 * math.pi * t) + 3e-16 and s_hi >= math.sin(2 * math.pi * t) - 3e-16):
            ok = False
            break
    check("interval trig inclusion (float reference)", ok)

    params = SystemParams.classical(2, 0.7)
    ok = True
    for _ in range(50):
        x = rnd.random()
        u = tuple(rnd.randrange(2) for _ in range(12))
        au, _carry = adding_machine(2, u)
        a = eval_S(params, Interval.point(x + 1.0), u)
        bb = eval_S(params, Interval.point(x), au)
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

# namespace entries that steer the run rather than describe it
_RUN_ONLY = ("command", "config", "out", "threads")


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", type=Path, help="JSON config file (flags win)")
    sp.add_argument("--out", type=Path, default=Path("runs/latest"))
    sp.add_argument("--b", type=int)


def _merge_config(args: argparse.Namespace) -> dict:
    """The --config file's keys, overridden by every flag given.

    certify's --lam is not echoed: it sets gamma = 1/(lam b) instead.
    """
    flags = {k: v for k, v in vars(args).items() if k not in _RUN_ONLY}
    lam = flags.pop("lam") if args.command == "certify" else None
    try:
        text = args.config.read_text() if args.config else "{}"
    except OSError as exc:
        raise ValueError(f"cannot read {args.config}: {exc.strerror}") from exc
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config} holds no JSON object")
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    if lam is not None:
        cfg["gamma"] = 1.0 / (lam * cfg["b"])
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
    ps = sub.add_parser("sweep", help="certify across a gamma grid in parallel")
    pm = sub.add_parser("measure", help="fiber-measure statistics and local dimension")
    pb = sub.add_parser("boxdim", help="box-counting dimension of the graph")
    for sp in (pc, ps, pm, pb):
        _add_common(sp)
    for sp in (pc, ps):
        sp.add_argument("--qmax", type=int)
        sp.add_argument("--grid-p", type=int)
        sp.add_argument("--max-nodes", type=int)

    pc.add_argument("--gamma", type=float)
    pc.add_argument("--lam", type=float, help="alternative to --gamma (gamma = 1/(lam b))")

    ps.add_argument("--gamma-start", type=float)
    ps.add_argument("--gamma-stop", type=float)
    ps.add_argument("--gamma-step", type=float)
    ps.add_argument(
        "--threads",
        type=int,
        help="worker processes (default 1, or $SKEWCERT_THREADS); capped at the "
        "number of gamma values and of usable CPUs",
    )

    pm.add_argument("--gamma", type=float)
    pm.add_argument("--psi", choices=["classical", "zero"])
    pm.add_argument("--x", type=float)
    pm.add_argument("--depth", type=int)
    pm.add_argument("--mode", choices=["exact", "mc"])
    pm.add_argument("--samples", type=int)
    pm.add_argument("--grid", type=int)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--srb", action="store_const", const=True)
    pm.add_argument("--r-exponents", type=_int_list)
    pm.add_argument("--local-dim-exponents", type=_int_list)

    pb.add_argument("--lam", type=float)
    pb.add_argument("--m", type=int)
    pb.add_argument("--depth", type=int)
    pb.add_argument("--scales", dest="scale_exponents", type=_int_list)
    pb.add_argument("--local-dim", action="store_const", const=True)
    pb.add_argument("--seed", type=int)

    sub.add_parser("selftest", help="quick invariant battery")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return cmd_selftest()

    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"skewcert: cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
        return 1

    try:
        cfg = _merge_config(args)
        if args.command == "certify":
            return cmd_certify(cfg, out)
        if args.command == "sweep":
            threads = args.threads or int(os.environ.get(THREADS_ENV, "1"))
            return cmd_sweep(cfg, out, threads)
        if args.command == "measure":
            return cmd_measure(cfg, out)
        return cmd_boxdim(cfg, out)
    except (ValueError, KeyError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
