"""Pipeline driver. Stages communicate only through files; each .csv and
.tsv output starts with _header's lines (tool version + the exact flags) so
any artifact can be regenerated from its header. Each ``cmd_*`` imports the
modules its stage runs, so a stage process loads no other (and --version
loads no numpy); any input may start with a UTF-8 byte-order mark."""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from datetime import date as Date
from itertools import chain
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import ConfigError, PipelineError


def _header(args: argparse.Namespace) -> str:
    from .table import _encodable  # every stage that writes has loaded it
    # a value holding a line break, or a lone surrogate (UTF-8 cannot encode
    # one; argv makes one of a byte that is not UTF-8), is written as its
    # repr(), so the provenance line stays one line of UTF-8 text
    values = {k: repr(v) if "\r" in str(v) or "\n" in str(v)
              or not _encodable(str(v)) else v
              for k, v in vars(args).items() if v is not None}
    flags = " ".join(f"--{k.replace('_', '-')}={v}"
                     for k, v in sorted(values.items()))
    return f"# sanctionflow {__version__}\n# {args.command} {flags}\n"


def _write(path: str, head: str, pieces: Iterable[str]) -> None:
    """Write the provenance lines, then a writer's pieces one after
    another, each made as it is written, so no body is held whole."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(pieces)


@contextmanager
def _named(path):
    """Name ``path`` in a decoding or content error met in reading it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise PipelineError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from None


def _read(path, parse, *args):
    """``parse(lines, *args)`` of the lines of a UTF-8 text file, as read.
    The BOM is cut from the first line (utf-8-sig's stream decoder raised
    build's peak RSS on 156k events by 0.2 MB), and a first line that held
    only the BOM is no line."""
    with _named(path), open(path, "r", encoding="utf-8") as fh:
        first = next(fh, "").removeprefix("\ufeff")
        return parse(chain([first] if first else [], fh), *args)


def cmd_ingest(args):
    from . import events
    evs = _read(args.events, events.parse_events, args.format)
    reportv = events.validate_events(evs)
    _write(args.out, _header(args), events.serialize_events(evs))
    print(reportv.summary())
    for warning in reportv.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_synth(args):
    from . import events, synth
    try:
        start = Date.fromisoformat(args.start)
    except ValueError:
        raise ConfigError(f"--start {args.start!r} is not a YYYY-MM-DD "
                          "date") from None
    config = synth.SynthConfig(
        n_issuers=args.issuers, n_entities=args.entities,
        lists_per_issuer=args.lists_per_issuer, copy_prob=args.copy_prob,
        start=start, window_days=args.window_days)
    evs = synth.synth_generate(config, args.seed)
    _write(args.out, _header(args), events.serialize_events(evs))
    print(f"{len(evs)} events, {len(evs.issuer.names)} issuers, "
          f"{len(evs.entity_id.names)} entities")
    return 0


def cmd_build(args):
    from . import events, netbuild, table
    evs = _read(args.events, events.parse_events, args.format)
    selected = None
    if args.category_map or args.label:
        if not (args.category_map and args.label):
            raise PipelineError("--category-map and --label go together")
        mapping = dict(_read(args.category_map, table.read_table,
                             ("list_id", "label"), (str.strip, str.strip)))
        selected = netbuild.filter_by_category(evs, mapping, args.label)
    if args.level == "institution":
        net = netbuild.build_institution_network(evs, selected)
    else:
        if selected is not None:
            raise PipelineError("category filtering applies to the "
                                "institution level")
        net = netbuild.build_list_network(evs)
    _write(args.out, _header(args), netbuild.write_network(net))
    print(f"{len(net.nodes)} nodes, {len(net.src)} edges, "
          f"total count {net.total_count()}")
    return 0


def cmd_symmetrize(args):
    from . import netbuild
    net = _read(args.net, netbuild.read_network)
    flow = netbuild.symmetrize(net, mode=args.mode)
    _write(args.out, _header(args), netbuild.write_flow(flow))
    print(f"{len(flow.nodes)} nodes, {len(flow.lo)} pairs, mode {args.mode}")
    return 0


def cmd_decompose(args):
    from . import hodge, netbuild
    net = _read(args.net, netbuild.read_network)
    flow = netbuild.symmetrize(net, mode=args.mode)
    decomp = hodge.solve(flow, tol=args.tol)
    head = _header(args)
    outdir = Path(args.out)
    _write(str(outdir / "nodes.csv"), head, hodge.write_node_table(decomp))
    _write(str(outdir / "pairs.csv"), head, hodge.write_pair_table(decomp))
    _write(str(outdir / "summary.csv"), head, hodge.write_summary(decomp))
    print(f"{len(flow.nodes)} nodes, {len(flow.lo)} pairs, "
          f"gradient_ratio {decomp.gradient_ratio:.4f}, "
          f"loop_ratio {decomp.loop_ratio:.4f}")
    return 0


def cmd_communities(args):
    from . import community, netbuild
    net = _read(args.net, netbuild.read_network)
    partition = community.louvain(net, resolution=args.resolution,
                                  seed=args.seed)
    _write(args.out, _header(args), community.write_partition(partition))
    n_comm = len(set(partition.assignment.values()))
    print(f"{len(net.nodes)} nodes, {n_comm} communities, "
          f"Q {partition.modularity:.4f}")
    return 0


def cmd_pagerank(args):
    from . import netbuild, rank
    net = _read(args.net, netbuild.read_network)
    ranks = rank.pagerank(net, damping=args.damping, tol=args.tol)
    _write(args.out, _header(args), rank.write_ranks(ranks, net.nodes))
    print(f"{len(net.nodes)} nodes, {ranks.iterations_used} iterations")
    return 0


def cmd_layout(args):
    from . import hodge, netbuild, report
    net = _read(args.net, netbuild.read_network)
    potentials = _read(args.potentials, hodge.read_node_table, net)
    result = report.layout(net, potentials, seed=args.seed, jitter=args.jitter)
    _write(args.out, _header(args), report.write_layout(result, net.nodes))
    print(f"{len(net.nodes)} nodes, {len(result.energy_history)} energy steps")
    return 0


def cmd_report(args):
    from . import community, hodge, netbuild, rank, report
    net = _read(args.net, netbuild.read_network)
    if args.pagerank and not args.decomp:
        raise PipelineError("scatter output needs --decomp")
    if args.highlight is not None and not args.decomp:
        raise PipelineError("--highlight needs --decomp")
    decomp = communities = layout_result = scores = None
    if args.decomp:
        potentials = _read(Path(args.decomp) / "nodes.csv",
                           hodge.read_node_table, net)
        decomp = hodge.decompose(netbuild.symmetrize(net, mode=args.mode),
                                 potentials)
        # bit for bit on the same net and mode: phi round-trips by %.17g
        summary = Path(args.decomp) / "summary.csv"
        stored = _read(summary, hodge.read_summary)
        if stored != [(decomp.gradient_ratio, decomp.loop_ratio,
                       decomp.residual_norm)]:
            raise PipelineError(f"{summary}: not the decomposition of "
                                f"{args.net} at --mode {args.mode}")
    if args.partition:
        communities = _read(args.partition, community.read_partition,
                            net.nodes)
    if args.layout:
        layout_result = _read(args.layout, report.read_layout, net.nodes)
    if args.pagerank:
        scores = _read(args.pagerank, rank.read_ranks, net.nodes)
    head = _header(args)
    outdir = Path(args.out)
    if decomp is not None:
        _write(str(outdir / "potential_table.csv"),
               head, report.write_potential_table(report.potential_table(
                   decomp, highlight=set(args.highlight or []))))
    if scores is not None:
        _write(str(outdir / "scatter.csv"), head, report.write_scatter(
            report.scatter_data(net.nodes, scores, decomp.potentials.phi)))
    ext = {"edge_table": "tsv", "dot": "dot", "json_graph": "json"}[args.graph_format]
    doc = report.export_graph(net, decomp=decomp, communities=communities,
                              layout_result=layout_result,
                              format=args.graph_format)
    # dot and json have no '#' comments, so no provenance lines
    _write(str(outdir / f"graph.{ext}"), head if ext == "tsv" else "", doc)
    print(f"report written to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sanctionflow",
        description="Influence-network pipeline: ingest, build, decompose, "
                    "communities, pagerank, layout, report.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse/validate events, write canonical form")
    p.add_argument("--events", required=True)
    p.add_argument("--format", choices=["delimited", "line_record"],
                   default="delimited")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate synthetic events")
    p.add_argument("--issuers", type=int, required=True)
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--lists-per-issuer", type=int, default=1)
    p.add_argument("--copy-prob", type=float, default=0.5)
    p.add_argument("--start", default="2010-01-01")
    p.add_argument("--window-days", type=int, default=365)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build", help="build an influence network from events")
    p.add_argument("--level", choices=["list", "institution"], required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--format", choices=["delimited", "line_record"],
                   default="delimited")
    p.add_argument("--category-map")
    p.add_argument("--label")
    p.add_argument("--out", required=True)

    p = sub.add_parser("symmetrize", help="net flow + weights per node pair")
    p.add_argument("--net", required=True)
    p.add_argument("--mode", choices=["mean", "unit"], default="mean")
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose", help="potential/circulation flow split")
    p.add_argument("--net", required=True)
    p.add_argument("--mode", choices=["mean", "unit"], default="mean")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="largest accepted normwise backward error of the "
                        "potential solve: max|L phi - f| <= tol * "
                        "(2 max L_ii * max|phi| + max|f|)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("communities", help="Louvain modularity communities")
    p.add_argument("--net", required=True)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pagerank", help="PageRank scores")
    p.add_argument("--net", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", required=True)

    p = sub.add_parser("layout", help="potential-fixed 1-D energy layout")
    p.add_argument("--net", required=True)
    p.add_argument("--potentials", required=True,
                   help="nodes.csv from the decompose stage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="tables, scatter data, graph export")
    p.add_argument("--net", required=True)
    p.add_argument("--mode", choices=["mean", "unit"], default="mean")
    p.add_argument("--decomp", help="directory from the decompose stage")
    p.add_argument("--pagerank")
    p.add_argument("--partition")
    p.add_argument("--layout")
    p.add_argument("--highlight", nargs="*")
    p.add_argument("--graph-format",
                   choices=["edge_table", "dot", "json_graph"],
                   default="edge_table")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the subcommand NAME runs cmd_NAME
        return globals()[f"cmd_{args.command}"](args)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
