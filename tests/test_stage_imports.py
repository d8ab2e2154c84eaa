"""Each CLI stage loads only the sanctionflow modules it runs, and the
package's names still resolve, loading their module on first use."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sanctionflow

SRC = Path(__file__).resolve().parents[1] / "src"

# every stage loads the package, cli, errors and table, then these
STAGE_MODULES = {
    "synth": {"events", "synth"},
    "ingest": {"events"},
    "build": {"events", "netbuild"},
    "symmetrize": {"netbuild"},
    "decompose": {"netbuild", "hodge"},
    "communities": {"netbuild", "community"},
    "pagerank": {"netbuild", "rank"},
    "layout": {"netbuild", "hodge", "report"},
    "report": {"netbuild", "hodge", "community", "rank", "report"},
}

STAGES = [
    ("synth", "--issuers", "6", "--entities", "40", "--copy-prob", "0.8",
     "--seed", "1", "--out", "raw.csv"),
    ("ingest", "--events", "raw.csv", "--out", "canonical.csv"),
    ("build", "--level", "institution", "--events", "canonical.csv",
     "--out", "net.tsv"),
    ("symmetrize", "--net", "net.tsv", "--out", "flow.tsv"),
    ("decompose", "--net", "net.tsv", "--out", "hodge"),
    ("communities", "--net", "net.tsv", "--out", "communities.csv"),
    ("pagerank", "--net", "net.tsv", "--out", "pagerank.csv"),
    ("layout", "--net", "net.tsv", "--potentials", "hodge/nodes.csv",
     "--out", "layout.csv"),
    ("report", "--net", "net.tsv", "--decomp", "hodge", "--pagerank",
     "pagerank.csv", "--partition", "communities.csv", "--layout",
     "layout.csv", "--out", "report"),
]

# the package's names as its modules define them
EXPORTS = {
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


@pytest.fixture(scope="module")
def stage_imports(tmp_path_factory):
    """The modules each stage process imported, from ``python -X
    importtime -m sanctionflow``."""
    work = tmp_path_factory.mktemp("pipeline")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = {}
    for stage in STAGES:
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "sanctionflow", *stage],
            cwd=work, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        loaded[stage[0]] = set(re.findall(r"\|\s*([\w.]+)$", done.stderr,
                                          re.M))
    return loaded


@pytest.mark.parametrize("stage", list(STAGE_MODULES))
def test_each_stage_loads_only_its_modules(stage_imports, stage):
    ours = {name.removeprefix("sanctionflow.") for name in
            stage_imports[stage] if name.startswith("sanctionflow.")}
    assert ours == {"cli", "errors", "table"} | STAGE_MODULES[stage]


@pytest.mark.parametrize("stage", list(STAGE_MODULES))
def test_no_stage_loads_numpy_ma(stage_imports, stage):
    # a plain np.unique loads numpy.ma, 10-16 ms of import, in numpy 2.4
    assert "numpy" in stage_imports[stage]
    assert "numpy.ma" not in stage_imports[stage]


@pytest.mark.parametrize("argv, status", [
    (["--version"], 0), (["--help"], 0), (["report", "--net"], 2)],
    ids=["version", "help", "argument error"])
def test_version_help_and_argument_errors_load_no_numpy(tmp_path, argv,
                                                        status):
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sanctionflow", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True)
    assert done.returncode == status, done.stderr[-2000:]
    assert "sanctionflow.cli" in done.stderr
    assert not re.search(r"\|\s*numpy$", done.stderr, re.M)


def test_the_package_resolves_every_name_it_exports():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"sanctionflow.{module}")
        for name in names.split():
            assert getattr(sanctionflow, name) is getattr(home, name), name
            assert name in dir(sanctionflow), name
    assert sanctionflow.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        sanctionflow.no_such_name


def test_the_package_still_imports_its_modules_by_name():
    from sanctionflow import (cli, community, events, hodge, netbuild, rank,
                              report)
    for name, module in [("cli", cli), ("community", community),
                         ("events", events), ("hodge", hodge),
                         ("netbuild", netbuild), ("rank", rank),
                         ("report", report)]:
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == f"sanctionflow.{name}"
