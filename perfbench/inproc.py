#!/usr/bin/env python3
"""Per-layer numbers from one in-process run of a workload's pipeline.

Each stage runs through ``sanctionflow.cli.run`` in this process: once
with every layer's public functions wrapped from outside in spans, then
once plain. Spans are kept in memory and written as JSON lines at the end
(name, start, end, parent, counts). The wrappers are removed afterwards,
and the run fails if any module attribute is not the original again.

Usage: python3 perfbench/inproc.py WORKLOAD EVENTS RUN_DIR TRACE_OUT RESULT_OUT
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

from sanctionflow import cli, community, events, hodge, netbuild, rank, report

from workloads import WORKLOADS, stages

# layer module -> public functions wrapped in spans
LAYERS = {
    events: ("parse_events", "validate_events", "serialize_events"),
    netbuild: ("build_list_network", "build_institution_network",
               "read_network", "write_network", "symmetrize", "write_flow"),
    hodge: ("assemble_laplacian", "solve_potentials", "decompose",
            "write_node_table", "write_pair_table", "write_summary",
            "read_node_table"),
    community: ("louvain", "modularity", "write_partition", "read_partition"),
    rank: ("pagerank", "write_ranks", "read_ranks"),
    report: ("layout", "export_graph", "potential_table",
             "write_potential_table", "scatter_data", "write_scatter"),
}


def _solve_counts(args, result):
    sizes = [len(c) for c in args[0].components]
    return {"n_components": len(sizes), "largest_component": max(sizes),
            "cg_components": sum(s > hodge.DENSE_LIMIT for s in sizes)}


def _network_counts(args, result):
    return {"n_nodes": len(result.nodes), "n_edges": len(result.adjacency)}


# counts taken at a span's boundary from its arguments and result
COUNTS = {
    "events.parse_events": lambda a, r: {"n_events": len(r.events)},
    "netbuild.build_list_network": _network_counts,
    "netbuild.build_institution_network": _network_counts,
    "hodge.solve_potentials": _solve_counts,
    "hodge.decompose": lambda a, r: {"residual": r.residual_norm},
    "community.louvain": lambda a, r: {
        "levels": len(r.pass_modularity),
        "n_communities": len(set(r.assignment.values()))},
    "rank.pagerank": lambda a, r: {"iterations": r.iterations_used},
    "report.layout": lambda a, r: {"layout_steps": len(r.energy_history)},
}

# per-layer metric -> spans whose self time it sums
SELF_TIMES = {
    "events.parse_s": ["events.parse_events"],
    "events.validate_s": ["events.validate_events"],
    "events.serialize_s": ["events.serialize_events"],
    "netbuild.build_s": ["netbuild.build_list_network",
                         "netbuild.build_institution_network"],
    "netbuild.read_network_s": ["netbuild.read_network"],
    "netbuild.write_network_s": ["netbuild.write_network"],
    "netbuild.symmetrize_s": ["netbuild.symmetrize"],
    "netbuild.write_flow_s": ["netbuild.write_flow"],
    "hodge.assemble_s": ["hodge.assemble_laplacian"],
    "hodge.solve_s": ["hodge.solve_potentials"],
    "hodge.decompose_s": ["hodge.decompose"],
    "hodge.write_s": ["hodge.write_node_table", "hodge.write_pair_table",
                      "hodge.write_summary"],
    "hodge.read_node_table_s": ["hodge.read_node_table"],
    "community.louvain_s": ["community.louvain"],
    "community.modularity_s": ["community.modularity"],
    "community.io_s": ["community.write_partition", "community.read_partition"],
    "rank.pagerank_s": ["rank.pagerank"],
    "rank.io_s": ["rank.write_ranks", "rank.read_ranks"],
    "report.layout_s": ["report.layout"],
    "report.export_s": ["report.export_graph"],
    "report.tables_s": ["report.potential_table", "report.write_potential_table",
                        "report.scatter_data", "report.write_scatter"],
}
CALLS = {
    "events.parse_calls": "events.parse_events",
    "netbuild.read_network_calls": "netbuild.read_network",
    "netbuild.symmetrize_calls": "netbuild.symmetrize",
    "hodge.assemble_calls": "hodge.assemble_laplacian",
    "community.modularity_calls": "community.modularity",
}
# count metric -> count key; the first span that records the key wins
FIRST_COUNTS = {
    "events.n_events": "n_events",
    "netbuild.n_nodes": "n_nodes",
    "netbuild.n_edges": "n_edges",
    "hodge.n_components": "n_components",
    "hodge.largest_component": "largest_component",
    "hodge.cg_components": "cg_components",
    "hodge.residual": "residual",
    "community.levels": "levels",
    "community.n_communities": "n_communities",
    "rank.iterations": "iterations",
    "report.layout_steps": "layout_steps",
}
UNITS = {"hodge.residual": "1"}


class Tracer:
    """In-memory spans; each records its parent, so self time is its
    duration minus the time its direct children cover."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        for module, names in LAYERS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                self.originals.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))

    def _wrap(self, span_name: str, fn):
        observe = COUNTS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record["counts"] = observe(args, result)
            return result
        return wrapper

    def restore(self) -> list[str]:
        """Put the originals back; returns the attributes still wrapped."""
        originals, self.originals = self.originals, []
        for module, name, original in originals:
            setattr(module, name, original)
        return [f"{module.__name__}.{name}"
                for module, name, original in originals
                if getattr(module, name) is not original]

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]
                                                        - child)
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, start=s["start"] - t0,
                                         end=s["end"] - t0)) + "\n")


def run_stage(label: str, argv: list[str], failures: list) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        failures.append((label, f"exited {code}"))
    return elapsed


def main() -> int:
    name, events_path, run_dir, trace_out, result_out = sys.argv[1:6]
    pipeline = stages(WORKLOADS[name], Path(events_path), Path(run_dir))
    failures: list[tuple[str, str]] = []  # (label, why), one per stage run
    tracer = Tracer()
    plain = traced = 0.0
    # Each stage runs wrapped, then plain, back to back, so the overhead
    # compares two runs under the same machine load. The traced run goes
    # first so that its spans, like a CLI stage, do not follow a run of the
    # same stage; the plain repeat's warm-up gain then counts as overhead.
    for stage in pipeline:
        label = f"traced {stage.name}"
        tracer.install()
        try:
            with tracer.span(f"cli.{stage.name}") as record:
                run_stage(label, stage.argv, failures)
        finally:
            failures += [(label, f"{attr} still wrapped")
                         for attr in tracer.restore()]
        traced += record["end"] - record["start"]
        plain += run_stage(f"in-process {stage.name}", stage.argv, failures)
    tracer.write(Path(trace_out))

    self_time = tracer.self_times()
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in tracer.spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for key, value in s["counts"].items():
            counts.setdefault(key, value)
    metrics = {
        "cli.self_s": (sum(t for n, t in self_time.items()
                           if n.startswith("cli.")), "s"),
        "trace.overhead_s": (traced - plain, "s"),
    }
    for metric, spans in SELF_TIMES.items():
        metrics[metric] = (sum(self_time.get(s, 0.0) for s in spans), "s")
    for metric, span in CALLS.items():
        metrics[metric] = (calls.get(span, 0), "count")
    for metric, key in FIRST_COUNTS.items():
        metrics[metric] = (counts.get(key, 0), UNITS.get(metric, "count"))
    Path(result_out).write_text(json.dumps({
        "attempted": 2 * len(pipeline), "failures": failures,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
