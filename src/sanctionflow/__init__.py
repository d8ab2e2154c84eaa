"""Influence-network toolkit: event ingestion, directed network
construction, potential/circulation flow decomposition, communities,
PageRank, and plottable exports. Each name below loads its module on
first use, so a stage process imports only the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "ConfigError ConvergenceError EventParseError PipelineError",
    "events": "EventSet SanctionEvent ValidationReport parse_events "
              "serialize_events validate_events",
    "synth": "SynthConfig synth_generate",
    "netbuild": "FlowNetwork InfluenceNetwork build_institution_network "
                "build_list_network filter_by_category read_network "
                "symmetrize write_flow write_network",
    "hodge": "HodgeDecomposition LaplacianSystem PotentialVector "
             "assemble_laplacian decompose solve solve_potentials",
    "community": "CommunityPartition louvain modularity read_partition "
                 "write_partition",
    "rank": "RankVector pagerank read_ranks write_ranks",
    "report": "LayoutResult ScatterData export_graph layout potential_table "
              "scatter_data write_potential_table write_scatter",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
