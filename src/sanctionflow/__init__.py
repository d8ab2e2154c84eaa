"""Influence-network toolkit: event ingestion, directed network
construction, potential/circulation flow decomposition, communities,
PageRank, and plottable exports."""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, EventParseError,
                     PipelineError)
from .events import (EventSet, SanctionEvent, ValidationReport, parse_events,
                     serialize_events, validate_events)
from .synth import SynthConfig, synth_generate
from .netbuild import (FlowNetwork, InfluenceNetwork, build_institution_network,
                       build_list_network, filter_by_category, read_network,
                       symmetrize, write_flow, write_network)
from .hodge import (HodgeDecomposition, LaplacianSystem, PotentialVector,
                    assemble_laplacian, decompose, solve, solve_potentials)
from .community import (CommunityPartition, louvain, modularity,
                        read_partition, write_partition)
from .rank import RankVector, pagerank, read_ranks, write_ranks
from .report import (LayoutResult, ScatterData, export_graph, layout,
                     potential_table, scatter_data, write_potential_table,
                     write_scatter)
