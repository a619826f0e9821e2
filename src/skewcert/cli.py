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
# settings

REQUIRED = object()
MODES = ("exact", "mc")

# The settings of each command, as key: (kind, default, flag).  A kind is an
# integer n (an integer >= n), "number" (a finite one), "bool", "ints" (a list
# of integers), "bins" (two integers >= 1), "mode" (one of MODES) or "psi"
# ("classical", "zero" or an object of cos and sin lists of numbers).  A
# default of None leaves the setting unset; a flag of None leaves the key to
# the --config file.  A config key that its command does not list is refused,
# so that a report's config echo claims no setting the run did not use.
_CERTIFY = {
    "b": (2, REQUIRED, "--b"),
    "qmax": (1, 3, "--qmax"),
    "grid_p": (0, None, "--grid-p"),
    "max_nodes": (0, MAX_NODES, "--max-nodes"),
    "psi": ("psi", "classical", None),
}
SETTINGS = {
    "certify": {**_CERTIFY, "gamma": ("number", REQUIRED, "--gamma")},
    "sweep": {
        **_CERTIFY,
        "gamma_start": ("number", REQUIRED, "--gamma-start"),
        "gamma_stop": ("number", REQUIRED, "--gamma-stop"),
        "gamma_step": ("number", 0.02, "--gamma-step"),
    },
    "measure": {
        "b": (2, REQUIRED, "--b"),
        "gamma": ("number", REQUIRED, "--gamma"),
        "psi": ("psi", "classical", "--psi"),
        "x": ("number", 0.3, "--x"),
        "depth": (0, 14, "--depth"),
        "mode": ("mode", "exact", "--mode"),
        "samples": (1, None, "--samples"),
        "grid": (1, 64, "--grid"),
        "seed": (0, 0, "--seed"),
        "srb": ("bool", False, "--srb"),
        "r_exponents": ("ints", list(range(4, 11)), "--r-exponents"),
        "local_dim_exponents": ("ints", list(range(4, 12)), "--local-dim-exponents"),
        "centers": (1, 100, None),
        "srb_points": (1, 2000, None),
        "srb_iters": (1, 2000, None),
        "srb_burn_in": (0, 500, None),
        "srb_bins": ("bins", (64, 64), None),
    },
    "boxdim": {
        "lam": ("number", REQUIRED, "--lam"),
        "b": (2, REQUIRED, "--b"),
        "m": (0, 20, "--m"),
        "depth": (0, None, "--depth"),
        "scale_exponents": ("ints", list(range(4, 15)), "--scales"),
        "local_dim": ("bool", False, "--local-dim"),
        "seed": (0, 0, "--seed"),
        "local_dim_exponents": ("ints", list(range(4, 11)), None),
        "drop_edges": (0, 2, None),
        "centers": (1, 200, None),
    },
}


def _is_number(v) -> bool:
    """Whether `v` is a finite number that a float holds (not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _value(key: str, kind, v):
    """`v` if it is a value of `kind` (see SETTINGS); a psi becomes its TrigPoly."""
    if kind == "psi" and v in ("classical", "zero"):
        return classical_psi() if v == "classical" else TrigPoly.zero()
    if kind == "psi" and isinstance(v, dict):
        coeffs = {k: v.get(k, ()) for k in ("cos", "sin")}
        for k, c in coeffs.items():
            if not (isinstance(c, (list, tuple)) and all(map(_is_number, c))):
                raise ValueError(f"psi {k} must be a list of finite numbers, got {c!r}")
        return TrigPoly.from_floats(**coeffs)
    if isinstance(kind, int):
        ok, rule = _is_int(v) and v >= kind, f"an integer >= {kind}"
    elif kind == "number":
        ok, rule = _is_number(v), "a finite number"
    elif kind == "bool":
        ok, rule = isinstance(v, bool), "true or false"
    elif kind == "ints":
        ok, rule = isinstance(v, list) and all(map(_is_int, v)), "a list of integers"
    elif kind == "bins":
        ok = isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_int(k) and k >= 1 for k in v)
        rule = "two integers >= 1"
    elif kind == "mode":
        ok, rule = v in MODES, '"exact" or "mc"'
    else:
        ok, rule = False, "'classical', 'zero' or an object of cos and sin lists"
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {v!r}")
    return v


def _settings(command: str, cfg: dict) -> dict:
    """Every setting of `command`, from `cfg` or its default, checked.

    Raises KeyError on a missing required key and ValueError on a key the
    command does not list or a value outside its kind, before any work.
    """
    rows = SETTINGS[command]
    for key in cfg:
        if key not in rows:
            raise ValueError(f"{key} is not a setting")
    s = {}
    for key, (kind, default, _) in rows.items():
        v = cfg.get(key, default)
        if v is REQUIRED:
            raise KeyError(key)
        s[key] = None if v is None and default is None else _value(key, kind, v)
    if command == "sweep" and not s["gamma_step"] > 0:
        raise ValueError(f"gamma_step must be > 0, got {s['gamma_step']!r}")
    if command == "measure":
        if s["mode"] == "mc" and s["samples"] is None:
            raise ValueError("mode \"mc\" needs samples")
        if s["srb_iters"] <= s["srb_burn_in"]:
            raise ValueError("srb_iters must exceed srb_burn_in")
    return s


def _certify(s: dict, keep_graphs: bool = False) -> Verdict:
    """`certify_main` on the system, grid and node budget of certify settings."""
    params = SystemParams(s["b"], s["gamma"], s["psi"])
    budget = {"q_max": s["qmax"], "grid_p": s["grid_p"], "max_nodes": s["max_nodes"]}
    return certify_main(params, keep_graphs=keep_graphs, **budget)


# ---------------------------------------------------------------------
# subcommands


def cmd_certify(cfg: dict, s: dict, out: Path) -> int:
    t0 = time.perf_counter()
    v = _certify(s, keep_graphs=True)
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
    s, gamma = job
    error = None
    try:
        v = _certify(dict(s, gamma=gamma))
    except Exception as exc:
        traceback.print_exc()
        v = Verdict(s["b"], gamma, None)
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


def cmd_sweep(cfg: dict, s: dict, out: Path, threads: int) -> int:
    t0 = time.perf_counter()
    start, stop, step = s["gamma_start"], s["gamma_stop"], s["gamma_step"]
    gammas = []
    k = 0
    while True:
        g = round(start + k * step, 12)
        if g > stop + 1e-12:
            break
        if 1.0 / s["b"] < g < 1.0:
            gammas.append(g)
        k += 1
    jobs = [(s, g) for g in gammas]
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


def cmd_measure(cfg: dict, s: dict, out: Path) -> int:
    t0 = time.perf_counter()
    params = SystemParams(s["b"], s["gamma"], s["psi"])
    depth, mode, n_samples, seed = s["depth"], s["mode"], s["samples"], s["seed"]
    artifacts = []
    report = _report(cfg)

    # both sampled before any artifact is written, so that an atom budget
    # sample_mx refuses leaves no file; the fiber first, as it checks that
    # budget before any work
    mu = sample_mx(params, s["x"], depth, mode=mode, n_samples=n_samples, seed=seed)
    srb = (s["srb_points"], s["srb_iters"], s["srb_burn_in"])
    hist = srb_sample(params, *srb, seed=seed, bins=s["srb_bins"]) if s["srb"] else None

    report["atoms"] = {
        "n": mu.n_atoms,
        "depth": mu.depth,
        "blur": mu.blur,
        "distinct": int(np.unique(mu.locs).size),
    }

    radii = [2.0 ** (-k) for k in s["r_exponents"]]
    # aggregate correlation statistic over the x-grid
    ests = i_r_table(params, radii, s["grid"], depth, mode=mode, n_samples=n_samples, seed=seed)
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
        ld_radii = [2.0 ** (-k) for k in s["local_dim_exponents"] if 2.0 ** (-k) > mu.blur]
        if len(ld_radii) >= 2:
            reg = local_dim_regress(mu, ld_radii, s["centers"], seed=seed)
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


def cmd_boxdim(cfg: dict, s: dict, out: Path) -> int:
    t0 = time.perf_counter()
    lam, b, m = s["lam"], s["b"], s["m"]
    d_theory = theoretical_D(lam, b)
    sample = sample_graph(lam, b, m, depth=s["depth"])
    res = box_count_dim(sample, s["scale_exponents"], drop_edges=s["drop_edges"])
    _write_csv(
        out / "counts.csv",
        "scale,count,used_in_fit",
        ((float(x), float(c), int(u)) for x, c, u in zip(res.scales, res.counts, res.used)),
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
    if s["local_dim"]:
        reg = graph_mu_local_dim(
            sample,
            [2.0 ** (-k) for k in s["local_dim_exponents"]],
            n_centers=s["centers"],
            seed=s["seed"],
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
        if not (_is_number(lam) and lam > 0):
            raise ValueError(f"lam must be a finite number > 0, got {lam!r}")
        cfg["gamma"] = 1.0 / (lam * _value("b", SETTINGS["certify"]["b"][0], cfg["b"]))
    return cfg


def _int_list(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b) + 1))
    return [int(t) for t in text.split(",") if t]


# argparse keywords of each kind's flag; an integer kind's flag takes an int
_FLAG_ARGS = {
    "number": {"type": float},
    "bool": {"action": "store_const", "const": True},
    "ints": {"type": _int_list},
    "mode": {"choices": MODES},
    "psi": {"choices": ("classical", "zero")},
}
_HELP = {
    "certify": "search for sigma(q) < (gamma b)^q",
    "sweep": "certify across a gamma grid in parallel",
    "measure": "fiber-measure statistics and local dimension",
    "boxdim": "box-counting dimension of the graph",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewcert",
        description="certified transversality bounds and measure experiments "
        "for Weierstrass-type skew products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}
    for command, rows in SETTINGS.items():
        sp = parsers[command] = sub.add_parser(command, help=_HELP[command])
        sp.add_argument("--config", type=Path, help="JSON config file (flags win)")
        sp.add_argument("--out", type=Path, default=Path("runs/latest"))
        for key, (kind, _, flag) in rows.items():
            if flag is not None:
                sp.add_argument(flag, dest=key, **_FLAG_ARGS.get(kind, {"type": int}))
    parsers["certify"].add_argument(
        "--lam", type=float, help="alternative to --gamma (gamma = 1/(lam b))"
    )
    parsers["sweep"].add_argument(
        "--threads",
        type=int,
        help="worker processes (default 1, or $SKEWCERT_THREADS); capped at the "
        "number of gamma values and of usable CPUs",
    )
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
        s = _settings(args.command, cfg)
        if args.command == "sweep":
            threads = args.threads
            if threads is None:
                threads = int(os.environ.get(THREADS_ENV, "1"))
            return cmd_sweep(cfg, s, out, _value("threads", 1, threads))
        commands = {"certify": cmd_certify, "measure": cmd_measure, "boxdim": cmd_boxdim}
        return commands[args.command](cfg, s, out)
    except (ValueError, KeyError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
