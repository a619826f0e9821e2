import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skewcert import cli
from skewcert.certifier import PairGraph
from skewcert.cli import main
from skewcert.sigma import RungReport, SigmaScheme, Verdict


def run_cli(args: list[str]) -> int:
    return main(args)


def test_certify_success_and_artifacts(tmp_path: Path):
    rc = run_cli(
        ["certify", "--b", "6", "--gamma", "0.2", "--qmax", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "verdict.json").read_text())
    assert report["schema_version"] == "2"
    assert report["verdict"]["success"] is True
    assert report["verdict"]["q"] == 1
    assert report["verdict"]["sigma_bound"] < report["verdict"]["target"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"certificates.json", "verdict.json"}


B2_CFG = {"b": 2, "gamma": 0.75, "qmax": 1, "grid_p": 3}


@pytest.fixture(scope="module")
def b2_out(tmp_path_factory) -> Path:
    """The --out of `certify --b 2 --gamma 0.75 --qmax 1 --grid-p 3`."""
    out = tmp_path_factory.mktemp("b2")
    rc = run_cli(
        ["certify", "--b", "2", "--gamma", "0.75", "--qmax", "1", "--grid-p", "3",
         "--out", str(out)]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def b2_certs(b2_out) -> list[dict]:
    return json.loads((b2_out / "certificates.json").read_text())["certificates"]


def _intervals(node):
    """Every dict with lo/hi/lo_hex/hi_hex below a parsed JSON document."""
    if isinstance(node, dict):
        if "lo_hex" in node:
            yield node
        for v in node.values():
            yield from _intervals(v)
    elif isinstance(node, list):
        for v in node:
            yield from _intervals(v)


def test_certificates_json_is_one_bit_exact_line(b2_out):
    text = (b2_out / "certificates.json").read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    v = cli._certify(B2_CFG, keep_graphs=True)
    assert doc == {"schema_version": "2", "certificates": cli._certificates_payload(v)}
    boxes = list(_intervals(doc))
    assert any(len(c["leaves"]) for c in doc["certificates"])
    assert len(boxes) > len(doc["certificates"])
    for box in boxes:
        for key in ("lo", "hi"):
            assert float.fromhex(box[key + "_hex"]) == box[key]
            assert float.hex(box[key]) == box[key + "_hex"]  # sign of zero too


def test_certificates_hex_roundtrip(b2_certs):
    certs = b2_certs
    assert certs
    seen_leaf = False
    for c in certs:
        for key in ("lo", "hi"):
            assert float.fromhex(c["cell"][key + "_hex"]) == c["cell"][key]
        for leaf in c["leaves"]:
            seen_leaf = True
            for box in (leaf["value"], leaf["deriv"]):
                if box is None:
                    continue
                assert float.fromhex(box["lo_hex"]) == box["lo"]
                assert float.fromhex(box["hi_hex"]) == box["hi"]
    assert seen_leaf


def test_certificates_mark_derived_cells(b2_certs):
    # classical psi is odd: the cells j >= 4 of 8 are mirror images of cell 7 - j
    certs = b2_certs
    status = {(c["cell_index"], tuple(map(tuple, c["pair"]))): c["status"] for c in certs}
    derived = [c for c in certs if "derived_from" in c]
    assert {c["cell_index"] for c in derived} == {4, 5, 6, 7}
    for c in certs:
        if c["cell_index"] < 4:
            assert "derived_from" not in c
    for c in derived:
        assert c["derived_from"] == 7 - c["cell_index"]
        k, l = (tuple(1 - d for d in w) for w in c["pair"])
        assert status[(c["derived_from"], (l, k))] == c["status"]


def _hex(box: dict) -> tuple[float, float]:
    return float.fromhex(box["lo_hex"]), float.fromhex(box["hi_hex"])


def _covers(leaves: list, b: int, lo: float, hi: float, ea=(), eb=()) -> bool:
    """Whether the (cell_lo, cell_hi, ext_a, ext_b) leaves cover [lo, hi]
    times every continuation pair of (ea, eb)."""
    n = len(ea)
    live = [
        f for f in leaves
        if f[0] < hi and f[1] > lo and f[2][:n] == ea[: len(f[2])] and f[3][:n] == eb[: len(f[3])]
    ]
    if any(len(f[2]) <= n and f[0] <= lo and f[1] >= hi for f in live):
        return True
    cuts = sorted({x for f in live for x in f[:2] if lo < x < hi})
    if cuts:
        return all(_covers(live, b, c, d, ea, eb) for c, d in zip([lo, *cuts], [*cuts, hi]))
    # every live leaf spans [lo, hi] with a longer extension: split the digits
    return bool(live) and all(
        _covers(live, b, lo, hi, ea + (i,), eb + (j,)) for i in range(b) for j in range(b)
    )


def test_certificates_hold_complete_proofs_only(b2_certs):
    # a transversal entry holds every leaf of its cover, each clearing its
    # margin; an unresolved entry holds none
    transversal = [c for c in b2_certs if c["status"] == "transversal"]
    unresolved = [c for c in b2_certs if c["status"] == "unresolved"]
    assert transversal and unresolved
    for c in transversal:
        leaves = [(*_hex(f["cell"]), *(tuple(w) for w in f["ext"])) for f in c["leaves"]]
        assert _covers(leaves, 2, *_hex(c["cell"])), (c["cell_index"], c["pair"])
        for leaf in c["leaves"]:
            if leaf["margin"] == "value":
                v_lo, v_hi = _hex(leaf["value"])
                assert v_lo > c["eps"] or v_hi < -c["eps"]
            else:
                d_lo, d_hi = _hex(leaf["deriv"])
                assert d_lo > c["delta"] or d_hi < -c["delta"]
    for c in unresolved:
        assert c["leaves"] == []
        assert c["reason"] and c["node_count"] > 0


def test_certify_inconclusive_exit_code(tmp_path: Path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2, "gamma": 0.6, "psi": "zero", "qmax": 1, "grid_p": 2}))
    rc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    # no rung certifies: the headline fields are None, and certificates.json
    # holds the graph of the last rung tried (the smallest eps of the ladder)
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())["verdict"]
    headline = ("q", "scheme", "sigma_bound", "target", "margin", "eps", "delta")
    assert verdict["success"] is False
    assert all(verdict[key] is None for key in headline)
    assert "scheme_regions" not in verdict
    last = verdict["rungs"][-1]
    assert len(verdict["rungs"]) == 3 and not any(r["success"] for r in verdict["rungs"])
    certs = json.loads((tmp_path / "run" / "certificates.json").read_text())["certificates"]
    assert len(certs) == 4  # 4 cells, one off-diagonal pair each
    assert all((c["eps"], c["delta"]) == (last["eps"], last["delta"]) for c in certs)
    assert all(c["status"] == "unresolved" for c in certs)


def test_invalid_config_exit_code(tmp_path: Path):
    rc = run_cli(
        ["certify", "--b", "2", "--gamma", "1.5", "--qmax", "1", "--out", str(tmp_path)]
    )
    assert rc == 1


def test_flags_override_config(tmp_path: Path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 6, "gamma": 0.9, "qmax": 1}))
    out = tmp_path / "run"
    rc = run_cli(
        ["certify", "--config", str(cfg), "--gamma", "0.2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "verdict.json").read_text())
    assert report["config"]["gamma"] == 0.2


def test_measure_artifacts(tmp_path: Path):
    rc = run_cli(
        ["measure", "--b", "2", "--gamma", "0.7", "--x", "0.3", "--depth", "10",
         "--grid", "16", "--srb", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "i_r.csv").open()))
    assert rows and all(float(r["I_r"]) > 0 for r in rows)
    assert (tmp_path / "srb_histogram.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["atoms"]["n"] == 2**10
    assert "bounded_heuristic" in report["i_r"]


def test_measure_zero_psi_single_atom(tmp_path: Path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2, "gamma": 0.7, "psi": "zero", "depth": 6, "grid": 4}))
    rc = run_cli(["measure", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["atoms"]["distinct"] == 1
    assert "error" in report["local_dim"]


def test_boxdim_lambda_equals_one_over_b(tmp_path: Path):
    rc = run_cli(
        ["boxdim", "--lam", "0.5", "--b", "2", "--m", "12", "--scales", "3:8",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["D_theory"] == pytest.approx(1.0, abs=1e-12)
    assert abs(report["D_hat"] - 1.0) < 0.1


def test_boxdim_counts_csv(tmp_path: Path):
    rc = run_cli(
        ["boxdim", "--lam", "0.7", "--b", "2", "--m", "14", "--scales", "3:10",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "counts.csv").open()))
    assert len(rows) == 8
    counts = [float(r["count"]) for r in rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_sweep_empty_grid(tmp_path: Path):
    rc = run_cli(
        ["sweep", "--b", "2", "--gamma-start", "0.1", "--gamma-stop", "0.3",
         "--qmax", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines() == ["gamma,q,scheme,bound,target,success,eps,e_global"]


def test_sweep_rows_and_determinism(tmp_path: Path):
    args = ["sweep", "--b", "6", "--gamma-start", "0.2", "--gamma-stop", "0.4",
            "--gamma-step", "0.2", "--qmax", "1"]
    rc = run_cli(args + ["--threads", "1", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = run_cli(args + ["--threads", "3", "--out", str(tmp_path / "b")])
    assert rc == 0
    a_csv = (tmp_path / "a" / "sweep.csv").read_bytes()
    b_csv = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a_csv == b_csv
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_selftest_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "skewcert.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "selftest: OK" in proc.stdout


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "skewcert.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for sub in ("certify", "sweep", "measure", "boxdim", "selftest"):
        assert sub in proc.stdout


def _stub_verdict(params, **_):
    """A verdict certified at its one rung, whose graph holds no certificates."""
    graph = PairGraph(params.b, 1, 2, 1e-2, 1e-2, [])
    scheme = SigmaScheme("trivial", 1.0)
    rung = RungReport(1, 1e-2, 1e-2, 1, scheme, params.b * params.gamma, 0, graph)
    return Verdict(params.b, params.gamma, 2, [rung])


class _SerialPool:
    """Stands in for a process pool: maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "threads,cpus,expected",
    [(64, 8, [3]), (2, 8, [2]), (64, 2, [2]), (64, 1, []), (1, 8, [])],
)
def test_sweep_worker_count_capped(tmp_path, monkeypatch, threads, cpus, expected):
    # 3 gamma values; the pool gets min(threads, jobs, usable CPUs) workers
    # and is skipped when that is 1
    requested = []

    def pool(max_workers):
        requested.append(max_workers)
        return _SerialPool()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(cli, "certify_main", _stub_verdict)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rc = run_cli(
        ["sweep", "--b", "6", "--gamma-start", "0.3", "--gamma-stop", "0.5",
         "--gamma-step", "0.1", "--qmax", "1", "--threads", str(threads),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert requested == expected
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_error_row_keeps_other_rows(tmp_path, monkeypatch):
    def flaky(params, **kw):
        if params.gamma == 0.4:
            raise RuntimeError("boom")
        return _stub_verdict(params, **kw)

    monkeypatch.setattr(cli, "certify_main", flaky)
    rc = run_cli(
        ["sweep", "--b", "6", "--gamma-start", "0.3", "--gamma-stop", "0.5",
         "--gamma-step", "0.1", "--qmax", "1", "--threads", "1", "--out", str(tmp_path)]
    )
    assert rc == 1
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [r["gamma"] for r in rows] == [0.3, 0.4, 0.5]
    assert [r["success"] for r in rows] == [True, False, True]
    assert rows[1]["error"] == "RuntimeError: boom"
    assert "error" not in rows[0] and "error" not in rows[2]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,q,scheme,bound,target,success,eps,e_global"
    assert len(lines) == 4
    assert lines[2] == "0.4,None,None,None,None,0,None,None"


# every flag of a subcommand, with a value; --out and --threads steer the run
# and are not part of its config
FLAG_RUNS = {
    "certify": (
        ["--b", "6", "--gamma", "0.2", "--qmax", "1", "--grid-p", "1",
         "--max-nodes", "500"],
        {"b": 6, "gamma": 0.2, "qmax": 1, "grid_p": 1, "max_nodes": 500},
    ),
    "sweep": (
        ["--b", "6", "--gamma-start", "0.3", "--gamma-stop", "0.3", "--gamma-step", "0.1",
         "--qmax", "1", "--grid-p", "1", "--max-nodes", "500", "--threads", "1"],
        {"b": 6, "gamma_start": 0.3, "gamma_stop": 0.3, "gamma_step": 0.1, "qmax": 1,
         "grid_p": 1, "max_nodes": 500},
    ),
    "measure": (
        ["--b", "2", "--gamma", "0.7", "--psi", "classical", "--x", "0.3", "--depth", "6",
         "--mode", "exact", "--samples", "100", "--grid", "4", "--seed", "1", "--srb",
         "--r-exponents", "4:5", "--local-dim-exponents", "4,5"],
        {"b": 2, "gamma": 0.7, "psi": "classical", "x": 0.3, "depth": 6, "mode": "exact",
         "samples": 100, "grid": 4, "seed": 1, "srb": True, "r_exponents": [4, 5],
         "local_dim_exponents": [4, 5]},
    ),
    "boxdim": (
        ["--lam", "0.7", "--b", "2", "--m", "14", "--depth", "30", "--scales", "3:5",
         "--local-dim", "--seed", "1"],
        {"lam": 0.7, "b": 2, "m": 14, "depth": 30, "scale_exponents": [3, 4, 5],
         "local_dim": True, "seed": 1},
    ),
}


@pytest.mark.parametrize("command", sorted(FLAG_RUNS))
def test_every_flag_is_echoed_in_config(tmp_path, monkeypatch, capsys, command):
    argv, expected = FLAG_RUNS[command]
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    given = {a for a in argv if a.startswith("--")}
    # certify's --lam stands in for --gamma (test_certify_lam_flag_sets_gamma)
    not_echoed = {"--help", "--config", "--out"} | ({"--lam"} if command == "certify" else set())
    assert listed - not_echoed == given

    monkeypatch.setattr(cli, "certify_main", _stub_verdict)
    rc = run_cli([command, *argv, "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["config"] == expected


def test_certify_lam_flag_sets_gamma(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "certify_main", _stub_verdict)
    rc = run_cli(["certify", "--b", "6", "--lam", "0.5", "--qmax", "1", "--out", str(tmp_path)])
    assert rc == 0
    config = json.loads((tmp_path / "verdict.json").read_text())["config"]
    assert config == {"b": 6, "gamma": 1.0 / 3.0, "qmax": 1}


@pytest.mark.parametrize(
    "argv,missing",
    [
        (["sweep", "--gamma-start", "0.3", "--gamma-stop", "0.5"], "'b'"),
        (["sweep", "--b", "6", "--gamma-stop", "0.5"], "'gamma_start'"),
        (["boxdim", "--b", "2", "--m", "10"], "'lam'"),
        (["certify", "--lam", "0.5"], "'b'"),
    ],
)
def test_missing_key_is_invalid_config(tmp_path, capsys, argv, missing):
    assert run_cli([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"invalid config: {missing}\n"


@pytest.mark.parametrize("content", ["[1, 2]", None])
def test_unusable_config_file_is_invalid_config(tmp_path, capsys, content):
    # a JSON list, or no file at all
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    rc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("invalid config: ")


@pytest.mark.parametrize(
    "cfg",
    [
        {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2, "srb": True, "srb_bins": [0, 64]},
        {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2, "srb": True, "srb_bins": [64.5, 64]},
        {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2, "srb": True, "srb_bins": 64},
        {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2, "srb": True, "srb_iters": 100,
         "srb_burn_in": 100},
        {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2, "srb": True, "mode": "bogus"},
        {"lam": 0.7, "b": 2, "m": -1},
        {"lam": 0.7, "b": 2, "m": 12.5},
    ],
)
def test_bad_srb_bins_or_graph_m_is_invalid_config(tmp_path, capsys, cfg):
    command = "boxdim" if "m" in cfg else "measure"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli([command, "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("invalid config: ")
    # the settings are checked before anything is written (no i_r.csv either)
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("bad", [{"psi": "foo"}, {"psi": [1]}, {"gamma": "0.7"}])
def test_malformed_psi_or_gamma_is_invalid_config(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b": 2, "gamma": 0.7, "qmax": 1, **bad}))
    rc = run_cli(["certify", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad",
    [
        {"psi": {"cos": 5}},
        {"qmax": "1"},
        {"max_nodes": "10"},
        {"eps_ladder": 0.01},
        {"grid_p": "3"},
        {"eps_ladder": [0.01]},
        {"d_max": 14},
        {"x_depth_max": 20},
    ],
)
def test_malformed_certify_value_is_invalid_config(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b": 2, "gamma": 0.7, "qmax": 1, **bad}))
    rc = run_cli(["certify", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [
        {"qmax": "1"},
        {"psi": "foo"},
        {"grid_p": -1},
        {"eps_ladder": [0.01, 0]},
        {"max_nodes": "10"},
        {"gamma_start": "0.3"},
        {"gamma_step": "0.1"},
        {"b": "6"},
        {"eps_ladder": [0.01]},
        {"d_max": 14},
        {"x_depth_max": 20},
    ],
)
def test_sweep_checks_settings_before_any_job(tmp_path, capsys, monkeypatch, bad):
    # a setting that every gamma shares fails once, before any job starts
    monkeypatch.setattr(cli, "_sweep_worker", lambda job: pytest.fail("a job started"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"b": 6, "gamma_start": 0.3, "gamma_stop": 0.5, "gamma_step": 0.1, "qmax": 1, **bad}
    ))
    rc = run_cli(["sweep", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert list((tmp_path / "run").iterdir()) == []


MEASURE_CFG = {"b": 2, "gamma": 0.7, "depth": 6, "grid": 2}
BOXDIM_CFG = {"lam": 0.7, "b": 2, "m": 12, "local_dim": True}


@pytest.mark.parametrize(
    "command,bad",
    [
        ("measure", {"grid": 0}),
        ("measure", {"depth": "6"}),
        ("measure", {"samples": 0, "mode": "mc"}),
        ("measure", {"centers": 1.5}),
        ("measure", {"seed": -1}),
        ("boxdim", {"drop_edges": "1"}),
        ("boxdim", {"depth": "9"}),
        ("boxdim", {"centers": 0}),
        ("boxdim", {"seed": True}),
        ("measure", {"r_exponents": 5}),
        ("measure", {"local_dim_exponents": [4, "5"]}),
        ("measure", {"srb": True, "srb_points": "20"}),
        ("measure", {"srb": True, "srb_burn_in": -1}),
        ("measure", {"x": [0.3]}),
        ("boxdim", {"scale_exponents": 5}),
        ("boxdim", {"local_dim_exponents": [4.0, 5.0]}),
        ("boxdim", {"lam": "0.7"}),
        ("measure", {"srb": True, "mode": "foo"}),
        ("measure", {"srb": True, "mode": "mc"}),
        ("measure", {"srb": "false"}),
        ("boxdim", {"local_dim": 1}),
    ],
)
def test_malformed_measure_or_boxdim_count_is_invalid_config(
    tmp_path, capsys, monkeypatch, command, bad
):
    # a malformed setting fails before any sampling starts
    for name in ("sample_mx", "srb_sample", "sample_graph"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("sampling started"))
    base = MEASURE_CFG if command == "measure" else BOXDIM_CFG
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **bad}))
    rc = run_cli([command, "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert list((tmp_path / "run").iterdir()) == []


def test_measure_checks_the_atom_budget_before_srb_orbits(tmp_path, capsys, monkeypatch):
    # 2^23 exact atoms exceed the budget: refused before any SRB orbit runs
    monkeypatch.setattr(cli, "srb_sample", lambda *a, **k: pytest.fail("SRB orbits ran"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MEASURE_CFG, "depth": 23, "srb": True}))
    rc = run_cli(["measure", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_that_names_a_file_is_an_error(tmp_path, capsys, sub):
    # --out is a regular file, or lies below one
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / sub if sub else afile
    rc = run_cli(["certify", "--b", "6", "--gamma", "0.2", "--qmax", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"skewcert: cannot create output directory {out}: ")
    assert err.count("\n") == 1
    assert afile.read_text() == "keep"


@pytest.mark.parametrize(
    "start,stop,step",
    [("0.1", "0.2", "0"), ("0.1", "0.2", "-0.1"), ("0.1", "inf", "0.1"), ("nan", "0.2", "0.1")],
)
def test_sweep_rejects_unbounded_grid(tmp_path, start, stop, step):
    # each of these gamma grids never ends
    rc = run_cli(
        ["sweep", "--b", "2", "--gamma-start", start, "--gamma-stop", stop,
         "--gamma-step", step, "--out", str(tmp_path)]
    )
    assert rc == 1
    assert not (tmp_path / "sweep.csv").exists()
