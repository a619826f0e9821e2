"""Byte gate: run the comparison systems through the CLI in two source trees
and compare everything they write.

    python3 tools/byte_gate.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each system runs as
`python3 -m skewcert.cli ... --out out` (`selftest` takes no --out) with
PYTHONPATH=<tree>/src, in a fresh temporary directory per tree, two runs
at a time.  The systems are the 18 certify verdicts (the certify-b6 and
ladder-b2 benchmark systems, and b = 6, 8, 12 at gamma = 0.2, 0.5, 0.9
with q <= 1), one inconclusive certify (b = 2, gamma = 0.68, q <= 1:
three missed rungs, so `certificates.json` comes from the last rung
tried), one zero-psi certify (b = 2, gamma = 0.7, q <= 1, read from a
`--config` file that the run writes into its directory: every pair stops
on a tangency witness at its first node), two certify runs with
`--max-nodes` (b = 6, gamma = 0.5 at 10 nodes, where the probe equals the
budget and no rung runs a full pass; b = 2, gamma = 0.68 at 500 nodes,
whose missed rungs run full passes and exit 2), the b = 6 sweep, two fiber
measures (exact; Monte Carlo with the SRB histogram), the box counts of
W(0.7, 2) and W(0.5, 3) with their local dimension, and the selftest
battery.  A last run prints
sha256 digests of the chain bits of random walks (b = 2, 3, 6, 12; the
classical psi and a four-harmonic one) and of the numpy lanes' arrays:
graph values and graph local-dimension log means at b = 2, 3, 4, 5 and 6
(the even b reach the constant tail), exact and Monte-Carlo fiber atoms
(the latter past the psi table's last step), and SRB counts at bins
(64, 64), (32, 48) and (7, 3).  Every artifact is compared byte for byte,
`manifest.json` apart from its `timing_s`, and so are stdout, stderr and
the exit code.  Prints one line per system and exits 1 on any difference.
Below a system, each `.json` artifact that differs gets one more line:
whether the parsed documents are equal (a change of format only) and,
if not, the first key path where they differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LADDER_B2 = ((0.98, 1), (0.75, 1), (0.68, 2), (0.6, 2), (0.55, 3), (0.52, 1))

SYSTEMS = (
    [(f"certify b=6 gamma={g}", ["certify", "--b", "6", "--gamma", str(g), "--qmax", "1"])
     for g in (0.45, 0.6, 0.7)]
    + [(f"certify b=2 gamma={g} q<={q}",
        ["certify", "--b", "2", "--gamma", str(g), "--qmax", str(q)])
       for g, q in LADDER_B2]
    + [(f"certify b={b} gamma={g}",
        ["certify", "--b", str(b), "--gamma", str(g), "--qmax", "1"])
       for b in (6, 8, 12) for g in (0.2, 0.5, 0.9)]
    + [("certify b=2 gamma=0.68 q<=1 (inconclusive)",
        ["certify", "--b", "2", "--gamma", "0.68", "--qmax", "1"]),
       ("certify b=2 gamma=0.7 q<=1 zero psi", ["certify"]),
       ("certify b=6 gamma=0.5 q<=1 --max-nodes 10",
        ["certify", "--b", "6", "--gamma", "0.5", "--qmax", "1", "--max-nodes", "10"]),
       ("certify b=2 gamma=0.68 q<=1 --max-nodes 500",
        ["certify", "--b", "2", "--gamma", "0.68", "--qmax", "1", "--max-nodes", "500"])]
    + [("sweep b=6 gamma=0.3..0.9",
        ["sweep", "--b", "6", "--gamma-start", "0.3", "--gamma-stop", "0.9",
         "--gamma-step", "0.3", "--qmax", "1", "--threads", "2"])]
    + [("measure b=2 gamma=0.7 exact",
        ["measure", "--b", "2", "--gamma", "0.7", "--x", "0.3", "--depth", "12",
         "--grid", "16", "--seed", "3"]),
       ("measure b=2 gamma=0.8 mc --srb",
        ["measure", "--b", "2", "--gamma", "0.8", "--x", "0.3", "--depth", "40",
         "--mode", "mc", "--samples", "20000", "--grid", "8", "--seed", "5", "--srb"])]
    + [(f"boxdim W({lam}, {b}) --local-dim",
        ["boxdim", "--lam", str(lam), "--b", str(b), "--local-dim", "--seed", "7"])
       for lam, b in ((0.7, 2), (0.5, 3))]
    + [("selftest", ["selftest"])]
)

# the --config file of each system that takes one (certify has no --psi flag)
CONFIGS = {
    "certify b=2 gamma=0.7 q<=1 zero psi": {"b": 2, "gamma": 0.7, "qmax": 1, "psi": "zero"},
}

DIGEST = """
import hashlib, random
from skewcert.interval import Interval
from skewcert.series import Chain, SystemParams, TrigPoly

four = TrigPoly.from_floats(cos=[0.3, 0.0, -1.2, 0.05], sin=[0.7, 0.25, 0.0, 0.1])
h = hashlib.sha256()
for b in (2, 3, 6, 12):
    for psi in (None, four):
        params = SystemParams.classical(b, 0.9) if psi is None else SystemParams(b, 0.9, psi)
        rnd = random.Random(b)
        for _ in range(500):
            lo = rnd.uniform(-0.5, 1.0)
            x = Interval(lo, lo + (0.0 if rnd.random() < 0.5 else 10 ** rnd.uniform(-9, 0)))
            w = tuple(rnd.randrange(b) for _ in range(rnd.randrange(0, 21)))
            for value in (True, False):
                c = Chain.root(x, value).walk(params, w)
                p = None if c.p is None else (c.p.lo, c.p.hi)
                h.update(repr((p, c.dp.lo, c.dp.hi, c.z.lo, c.z.hi, c.n)).encode())
            e = params.psi.eval_iv(x)
            h.update(repr((e.lo, e.hi)).encode())
print("chain bits", h.hexdigest())

from skewcert.boxdim import graph_mu_local_dim, sample_graph
from skewcert.measures import sample_mx, srb_sample

lanes = {"graph values": [], "graph log means": [], "fiber atoms": [], "srb counts": []}
radii = [2.0 ** -k for k in range(3, 10)]
for lam, b, phi in ((0.7, 2, None), (0.5, 3, None), (0.45, 5, None), (0.6, 2, four),
                    (0.45, 4, None), (0.4, 6, None)):
    g = sample_graph(lam, b, 14, phi=phi)
    lanes["graph values"].append(g.values)
    lanes["graph log means"].append(graph_mu_local_dim(g, radii, 50, seed=b).log_means)
for b in (2, 3):
    for psi in (None, four):
        params = SystemParams.classical(b, 0.8) if psi is None else SystemParams(b, 0.8, psi)
        lanes["fiber atoms"].append(sample_mx(params, 0.3, 9).locs)
        lanes["fiber atoms"].append(
            sample_mx(params, 0.3, 40, mode="mc", n_samples=5000, seed=b).locs
        )
        for bins in ((64, 64), (32, 48), (7, 3)):
            lanes["srb counts"].append(srb_sample(params, 500, 300, 100, seed=b, bins=bins).counts)
for name, arrays in lanes.items():
    print(name, hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def _run(tree: Path, argv: list[str], where: Path, config: dict | None) -> dict:
    """One CLI run (or the digest, for argv None) in its own directory,
    where `config`, when given, is written and passed as --config."""
    where.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    if argv is None:
        cmd = [sys.executable, "-c", DIGEST]
    else:
        out_flag = [] if argv[0] == "selftest" else ["--out", "out"]
        if config is not None:
            (where / "config.json").write_text(json.dumps(config, sort_keys=True))
            out_flag += ["--config", "config.json"]
        cmd = [sys.executable, "-m", "skewcert.cli", *argv, *out_flag]
    done = subprocess.run(cmd, cwd=where, env=env, capture_output=True)
    out = where / "out"
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("timing_s", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            files[path.name] = data
    return {"rc": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def _differences(a: dict, b: dict) -> list[str]:
    out = [key for key in ("rc", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            out.append(name)
    return out


def _first_difference(a, b, path: str = "$") -> str | None:
    """Key path of the first place where two parsed JSON documents differ."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}"
            if key not in a or key not in b:
                return sub
            found = _first_difference(a[key], b[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b or (a != a and b != b) else path  # NaN equals NaN


def _json_note(a: bytes | None, b: bytes | None) -> str:
    """How two versions of one JSON artifact differ once parsed."""
    if a is None or b is None:
        return f"only in {'change' if a is None else 'parent'}"
    try:
        docs = json.loads(a), json.loads(b)
    except ValueError as exc:
        return f"not JSON: {exc}"
    path = _first_difference(*docs)
    return "parsed equal" if path is None else f"parsed differ at {path}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "skewcert").is_dir():
            ap.error(f"{tree} has no src/skewcert")
    work = Path(tempfile.mkdtemp(prefix="byte_gate_"))
    systems = [*SYSTEMS, ("chain-bits and numpy-lane digest", None)]
    jobs = [
        (i, side, tree, cli_args, CONFIGS.get(name))
        for i, (name, cli_args) in enumerate(systems)
        for side, tree in (("parent", args.parent), ("change", args.change))
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: _run(job[2], job[3], work / f"{job[0]:02d}-{job[1]}", job[4]), jobs
        ))
    failed = 0
    for i, (name, _) in enumerate(systems):
        diff = _differences(results[2 * i], results[2 * i + 1])
        rc = results[2 * i + 1]["rc"]
        print(f"{'DIFF' if diff else 'same'}  {name}  (exit {rc})" + (
            f": {', '.join(diff)}" if diff else ""
        ))
        for artifact in diff:
            if artifact.endswith(".json"):
                files = (results[2 * i]["files"], results[2 * i + 1]["files"])
                print(f"      {artifact}: "
                      f"{_json_note(*(f.get(artifact) for f in files))}")
        failed += bool(diff)
    shutil.rmtree(work, ignore_errors=True)
    print(f"byte gate: {failed} of {len(systems)} systems differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
