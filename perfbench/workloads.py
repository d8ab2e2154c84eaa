"""The benchmark's workloads: how each one's events are made from a seed, and
which CLI stages run on them.

Stage seeds (communities, layout) are left at the CLI default, so the
workload seed varies only the events the program receives.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    level: str                 # build --level
    graph_format: str          # report --graph-format
    layout: bool               # whether the layout stage runs
    synth: tuple[int, int, int, float] | None
    """(issuers, entities, lists per issuer, copy-prob) for the `synth`
    subcommand; None means the benchmark's own fragments generator."""


WORKLOADS = {
    # Many entities on few lists: the cost sits in events and netbuild.
    "lists_m": Workload("lists_m", "list", "json_graph", True,
                        (40, 20_000, 5, 0.9)),
    # A 500-node graph: the O(n^2) layout dominates.
    "issuers_500": Workload("issuers_500", "institution", "dot", True,
                            (500, 5_000, 1, 0.9)),
    # ~3500 tiny components: thousands of small solves in hodge. No layout,
    # because the dense layout would need ~0.8 GB per n x n array here.
    "fragments_10k": Workload("fragments_10k", "institution", "edge_table",
                              False, None),
}


def synth_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    issuers, entities, lists, copy_prob = workload.synth
    return ["synth", "--issuers", str(issuers), "--entities", str(entities),
            "--lists-per-issuer", str(lists), "--copy-prob", str(copy_prob),
            "--seed", str(seed), "--out", str(out)]


def write_fragments(out: Path, seed: int) -> int:
    """3500 disjoint clusters of 2-4 institutions with one list each. Every
    cluster has 1-6 entities, each listed by at least two of its members
    within 30 days of each other. Returns the number of event rows."""
    rng = random.Random(seed)
    start = date(2010, 1, 1)
    rows = []
    for c in range(3500):
        members = [f"FRG{c:04d}-{m}" for m in range(rng.randint(2, 4))]
        for e in range(rng.randint(1, 6)):
            base = start + timedelta(days=rng.randrange(365))
            for issuer in rng.sample(members, rng.randint(2, len(members))):
                day = base + timedelta(days=rng.randrange(31))
                rows.append((issuer, f"{issuer}-L0", f"FRG{c:04d}-E{e}",
                             day.isoformat()))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["issuer", "list_id", "entity_id", "date"])
        writer.writerows(rows)
    return len(rows)


@dataclass(frozen=True)
class Stage:
    name: str
    argv: list[str]
    output: str  # file or directory the stage writes, relative to the run dir


def stages(workload: Workload, events: Path, run: Path) -> list[Stage]:
    """The user's pipeline, raw events to report directory, in order."""
    def p(name):
        return str(run / name)

    out = [
        Stage("ingest", ["ingest", "--events", str(events),
                         "--out", p("canonical.csv")], "canonical.csv"),
        Stage("build", ["build", "--level", workload.level,
                        "--events", p("canonical.csv"), "--out", p("net.tsv")],
              "net.tsv"),
        Stage("symmetrize", ["symmetrize", "--net", p("net.tsv"),
                             "--out", p("flow.tsv")], "flow.tsv"),
        Stage("decompose", ["decompose", "--net", p("net.tsv"),
                            "--out", p("hodge")], "hodge"),
        Stage("communities", ["communities", "--net", p("net.tsv"),
                              "--out", p("communities.csv")], "communities.csv"),
        Stage("pagerank", ["pagerank", "--net", p("net.tsv"),
                           "--out", p("pagerank.csv")], "pagerank.csv"),
    ]
    report = ["report", "--net", p("net.tsv"), "--decomp", p("hodge"),
              "--pagerank", p("pagerank.csv"),
              "--partition", p("communities.csv")]
    if workload.layout:
        out.append(Stage("layout", ["layout", "--net", p("net.tsv"),
                                    "--potentials", p("hodge/nodes.csv"),
                                    "--out", p("layout.csv")], "layout.csv"))
        report += ["--layout", p("layout.csv")]
    report += ["--graph-format", workload.graph_format, "--out", p("report")]
    out.append(Stage("report", report, "report"))
    return out


RATIO_STAGES = ("ingest", "build", "decompose")  # raw events to summary.csv
ALL_STAGES = ("ingest", "build", "symmetrize", "decompose", "communities",
              "pagerank", "layout", "report")
