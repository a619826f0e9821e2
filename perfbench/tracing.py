"""Per-layer tracing from the benchmark's side of the layer boundaries.

Spans: the tracer swaps the module attributes the program calls through
(`cli.certify_main`, `sigma.tangency_graph`, `sigma.sigma_upper`,
`certifier.certify_pair`, the `measures` and `boxdim` entry points) for
wrappers that record name, start, end and parent span, keeping spans in
memory.  `interval` and `series` are called millions of times per round,
so their self time and call counts, and those of `_build_chain` and
`_find_tangency_witness`, come from a separate stdlib cProfile pass
grouped by source file; those times carry the profiler's own cost.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path

from skewcert import boxdim, certifier, cli, measures, sigma


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _out_bytes(argv) -> int:
    out = Path(argv[argv.index("--out") + 1])
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


def _cli_info(args, kwargs, rc):
    argv = args[0]
    return {"command": argv[0], "bytes": _out_bytes(argv)}


def _graph_info(args, kwargs, graph):
    n_words = graph.b**graph.q
    return {"pairs": graph.n_cells * n_words * (n_words - 1) // 2}


def _verdict_info(args, kwargs, verdict):
    return {"rungs": len(verdict.rungs)}


# (module, attribute, span name, info from (args, kwargs, result))
TARGETS = (
    (cli, "main", "cli.main", _cli_info),
    (cli, "certify_main", "sigma.certify_main", _verdict_info),
    (sigma, "certify_main", "sigma.certify_main", _verdict_info),
    (sigma, "tangency_graph", "certifier.tangency_graph", _graph_info),
    (sigma, "sigma_upper", "sigma.sigma_upper", None),
    (
        certifier,
        "certify_pair",
        "certifier.certify_pair",
        lambda a, k, c: {"nodes": c.node_count, "transversal": c.transversal},
    ),
    (measures, "sample_mx", "measures.sample_mx", lambda a, k, mu: {"atoms": mu.n_atoms}),
    (measures, "i_r_table", "measures.i_r_table", None),
    (measures, "local_dim_regress", "measures.local_dim_regress", None),
    (
        measures,
        "srb_sample",
        "measures.srb_sample",
        lambda a, k, h: {"point_steps": h.n_points * h.n_iter},
    ),
    (boxdim, "sample_graph", "boxdim.sample_graph", lambda a, k, g: {"terms": g.n * g.depth}),
    (boxdim, "box_count_dim", "boxdim.box_count_dim", None),
    (boxdim, "graph_mu_local_dim", "boxdim.graph_mu_local_dim", None),
)


class Tracer:
    """Install with `with tracer:`; spans collect in `tracer.spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, info_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.dur
            if info_fn is not None:
                span.info = info_fn(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name, info_fn in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info_fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def metrics(self) -> dict[str, float]:
        def total(name, key=None):
            return sum(
                (s.info.get(key, 0) if key else s.dur) for s in self.spans if s.name == name
            )

        cli_spans = [s for s in self.spans if s.name == "cli.main"]
        pair_idx = {i for i, s in enumerate(self.spans) if s.name == "certifier.certify_pair"}
        pair_tasks = len(pair_idx)
        tasks_per_graph: dict[int, int] = {}
        for i in pair_idx:
            parent = self.spans[i].parent
            tasks_per_graph[parent] = tasks_per_graph.get(parent, 0) + 1
        inherited = sum(
            s.info["pairs"] - tasks_per_graph.get(i, 0)
            for i, s in enumerate(self.spans)
            if s.name == "certifier.tangency_graph"
        )
        transversal = total("certifier.certify_pair", "transversal")
        return {
            "cli.serialize_s": sum(
                s.dur - s.child_s for s in cli_spans if s.info["command"] == "certify"
            ),
            "cli.artifact_bytes": sum(s.info["bytes"] for s in cli_spans),
            "sigma.certify_main_s": total("sigma.certify_main"),
            "sigma.rungs": total("sigma.certify_main", "rungs"),
            "sigma.scheme_s": total("sigma.sigma_upper"),
            "certifier.graph_s": total("certifier.tangency_graph"),
            "certifier.pair_tasks": pair_tasks,
            "certifier.pair_s": total("certifier.certify_pair"),
            "certifier.nodes": total("certifier.certify_pair", "nodes"),
            "certifier.transversal_ratio": transversal / pair_tasks if pair_tasks else 0.0,
            "certifier.pairs_inherited": inherited,
            "measures.sample_mx_s": total("measures.sample_mx"),
            "measures.atoms": total("measures.sample_mx", "atoms"),
            "measures.i_r_s": total("measures.i_r_table"),
            "measures.local_dim_s": total("measures.local_dim_regress"),
            "measures.srb_s": total("measures.srb_sample"),
            "measures.srb_point_steps": total("measures.srb_sample", "point_steps"),
            "boxdim.sample_graph_s": total("boxdim.sample_graph"),
            "boxdim.graph_terms": total("boxdim.sample_graph", "terms"),
            "boxdim.box_count_s": total("boxdim.box_count_dim"),
            "boxdim.local_dim_s": total("boxdim.graph_mu_local_dim"),
        }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"certifier.transversal_ratio": "ratio", "cli.artifact_bytes": "B"}.get(name, "count")


PROFILE_KEYS = (
    "certifier.witness_calls",
    "certifier.witness_s",
    "certifier.chain_builds",
    "certifier.chain_s",
    "series.self_s",
    "series.eval_iv_calls",
    "interval.self_s",
    "interval.ops",
)


def profile_metrics(profile: cProfile.Profile) -> dict[str, float]:
    """Self time and calls per source file, plus the two certifier helpers.

    `*_s` of a helper is its cumulative time (callees included)."""
    out = dict.fromkeys(PROFILE_KEYS, 0)
    for (path, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in pstats.Stats(
        profile
    ).stats.items():
        src = os.path.basename(path)
        if src == "interval.py":
            out["interval.self_s"] += tottime
            out["interval.ops"] += ncalls
        elif src == "series.py":
            out["series.self_s"] += tottime
            if func == "eval_iv":
                out["series.eval_iv_calls"] += ncalls
        elif src == "certifier.py" and func == "_build_chain":
            out["certifier.chain_builds"] += ncalls
            out["certifier.chain_s"] += cumtime
        elif src == "certifier.py" and func == "_find_tangency_witness":
            out["certifier.witness_calls"] += ncalls
            out["certifier.witness_s"] += cumtime
    return out
