"""Benchmark command for skewcert.

    python3 perfbench/run.py --workload certify-b6 --seed 1 --seconds 8 --trace 0

Runs whole rounds of one workload's operations in this process until
--seconds have elapsed (at least one round), then checks every output
against computations made apart from the program and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run makes round 0
under cProfile, untraced and under span wrappers, and prints the
per-layer metrics.  It puts ./src on sys.path itself, needs no
install, and writes artifacts only under ./.perfbench_out/, removed at
exit.  Exit code 0 whenever the run reached its end; an inconclusive
verdict, an invalid config or a failed check is a failed operation.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds since this process started, from its start time in /proc;
    falls back to the time since this module began loading."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


import argparse  # noqa: E402
import cProfile  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("certify-b6", "ladder-b2", "fiber-graph")


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Executed:
    op: object
    round: int
    wall_s: float
    cpu_s: float
    status: str
    record: object = None


@dataclass
class Tally:
    done: list[Executed] = field(default_factory=list)
    first_op_at: float | None = None

    def execute(self, op, rnd: int, profile: cProfile.Profile | None = None) -> Executed:
        """Time one operation; a failure of any kind is recorded, never raised."""
        if self.first_op_at is None:
            self.first_op_at = _since_process_start()
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if profile is not None:
                    profile.enable()
                try:
                    raw = op.run()
                finally:
                    if profile is not None:
                        profile.disable()
            error = None
        except Exception:  # noqa: BLE001 - the run must go on and count it
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - c0
        if error is None:
            try:
                status, record = op.finish(raw)
            except Exception:  # noqa: BLE001
                status, record = "error", None
                error = traceback.format_exc()
        else:
            status, record = "error", None
        if error is not None:
            print(f"[{op.name}] raised:\n{error}", file=sys.stderr)
        print(f"[{op.name}] {status} in {wall:.3f}s", file=sys.stderr)
        ex = Executed(op, rnd, wall, cpu, status, record)
        self.done.append(ex)
        return ex

    def check(self) -> tuple[int, bool]:
        """Run every check; returns (failed operations, all checks passed)."""
        failed = 0
        correct = True
        for ex in self.done:
            if ex.status != "ok":
                failed += 1
                continue
            try:
                problems = ex.op.check(ex.record)
            except Exception:  # noqa: BLE001
                problems = ["check raised:\n" + traceback.format_exc()]
            if problems:
                failed += 1
                correct = False
                for p in problems:
                    print(f"[{ex.op.name}] CHECK FAILED: {p}", file=sys.stderr)
        return failed, correct


def run_round(workload, rnd: int, tally: Tally, profile=None) -> list[Executed]:
    return [tally.execute(op, rnd, profile) for op in workload.round_ops(rnd)]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    rounds: dict[int, list[Executed]] = {}
    for ex in tally.done:
        rounds.setdefault(ex.round, []).append(ex)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(e.wall_s for e in r) for r in rounds.values()), "s"),
        "op_p50_s": (statistics.median(e.wall_s for e in tally.done), "s"),
        "cpu_s": (statistics.median(sum(e.cpu_s for e in r) for r in rounds.values()), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(workload, tally: Tally, tracing) -> dict:
    """Round 0 under cProfile, then untraced, then under span wrappers.

    The profiled pass goes first so that the two passes whose difference is
    `trace.overhead_s` both run after one-time start-up costs are paid."""
    profile = cProfile.Profile()
    run_round(workload, 0, tally, profile)
    base = run_round(workload, 0, tally)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_round(workload, 0, tally)
    values = {**tracer.metrics(), **tracing.profile_metrics(profile)}
    values["trace.overhead_s"] = sum(e.wall_s for e in traced) - sum(e.wall_s for e in base)
    return {name: (v, tracing.unit(name)) for name, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import skewcert from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3

    out_root = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_root)
    tally = Tally()
    try:
        out_root.mkdir(parents=True)
        if args.trace:
            metrics = per_layer(workload, tally, tracing)
        else:
            t_start = time.perf_counter()
            rnd = 0
            while True:
                run_round(workload, rnd, tally)
                rnd += 1
                if time.perf_counter() - t_start >= args.seconds:
                    break
            metrics = end_to_end(tally, tally.first_op_at)
        failed, correct = tally.check()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_root.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {len(tally.done)} attempted, {failed} failed")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(tally.done),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
