"""Self-tests of the benchmark: its generators, its output checks and its
tracer. Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import checks
import inproc
import run
from workloads import (ALL_STAGES, WORKLOADS, Workload, synth_argv,
                       write_fragments)

TINY = Workload("tiny", "institution", "json_graph", True, (12, 400, 1, 0.7))


def test_fragments_generator_is_byte_stable(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        write_fragments(path, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_synth_generator_is_byte_stable(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"{i}" / "events.csv"
        out.parent.mkdir()
        # the same --out text, since synth writes its flags into the header
        argv = synth_argv(WORKLOADS["lists_m"], 3, Path("events.csv"))
        _, _, code = run.cli(argv, out.parent, tmp_path / "synth.log")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fragments_pass_ingest_with_the_stated_shape(tmp_path):
    rows = write_fragments(tmp_path / "events.csv", 1)
    for argv in (["ingest", "--events", "events.csv", "--out", "canon.csv"],
                 ["build", "--level", "institution", "--events", "canon.csv",
                  "--out", "net.tsv"]):
        assert run.cli(argv, tmp_path, tmp_path / "log")[2] == 0
    net = checks.Net(tmp_path / "net.tsv")
    src = [net.index[a] for a, _ in net.adj]
    dst = [net.index[b] for _, b in net.adj]
    graph = sp.coo_matrix((np.ones(len(src)), (src, dst)),
                          shape=(len(net.nodes),) * 2)
    n_comp = connected_components(graph, directed=False)[0]
    assert rows == pytest.approx(30_600, rel=0.03)
    assert len(net.nodes) == pytest.approx(10_100, rel=0.03)
    assert len(net.adj) == pytest.approx(15_300, rel=0.03)
    assert n_comp == pytest.approx(3_500, rel=0.03)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    events, _ = run.make_events(TINY, 3, work)
    pipe = run.Pipeline(TINY, events, work)
    pipe.once()
    assert pipe.failed == set()
    return pipe.run_dir


def test_checks_pass_on_a_clean_run(tiny_run):
    assert checks.check_run(tiny_run, TINY) == []


def _corrupt(run_dir: Path, tmp_path: Path, name: str, edit) -> Path:
    copy = tmp_path / "work" / "run"
    shutil.copytree(run_dir, copy)
    shutil.copy(run_dir.parent / "events.csv", copy.parent / "events.csv")
    lines = (copy / name).read_text(encoding="utf-8").splitlines(True)
    (copy / name).write_text("".join(edit(lines)), encoding="utf-8")
    return copy


def test_checks_catch_a_perturbed_potential(tiny_run, tmp_path):
    def perturb(lines):
        node, comp, value = lines[-1].strip().split(",")
        return lines[:-1] + [f"{node},{comp},{float(value) + 1e-3!r}\n"]
    bad = _corrupt(tiny_run, tmp_path, "hodge/nodes.csv", perturb)
    stages = {stage for stage, _ in checks.check_run(bad, TINY)}
    assert stages == {"decompose", "layout"}


def test_checks_catch_a_dropped_node(tiny_run, tmp_path):
    bad = _corrupt(tiny_run, tmp_path, "pagerank.csv", lambda l: l[:-1])
    assert [s for s, _ in checks.check_run(bad, TINY)] == ["pagerank"]


def test_tracer_records_counts_and_restores_wrappers(tiny_run):
    events = inproc.events
    original = events.parse_events
    tracer = inproc.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.ingest"):
            evs = events.parse_events((tiny_run / "canonical.csv").read_text())
    finally:
        assert tracer.restore() == []
    assert events.parse_events is original
    assert [s["name"] for s in tracer.spans] == ["cli.ingest",
                                                 "events.parse_events"]
    assert tracer.spans[1]["parent"] == 0
    assert tracer.spans[1]["counts"] == {"n_events": len(evs.events)}
    self_time = tracer.self_times()
    total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert sum(self_time.values()) == pytest.approx(total)


def test_clock_scales_by_the_calibrations_around_a_step(tmp_path,
                                                         monkeypatch):
    times = iter([9.0, 0.4, 0.2, 0.1])  # warm-up, before, after, after
    monkeypatch.setattr(run.Clock, "run", lambda self: next(times))
    clock = run.Clock(tmp_path)
    assert clock.scale() == pytest.approx(run.CAL_REF_S / 0.3)
    assert clock.scale() == pytest.approx(run.CAL_REF_S / 0.15)
    assert clock.samples == [0.4, 0.2, 0.1]


def test_calibration_job_runs_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, "-I", str(run.HERE / "calibrate.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lists_m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_metric_names_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    emitted = ({"cli.startup_s", "cli.self_s", "trace.overhead_s"}
               | {f"cli.{s}_s" for s in ALL_STAGES}
               | {f"cli.{s}.rss_mb" for s in ALL_STAGES}
               | set(inproc.SELF_TIMES) | set(inproc.CALLS)
               | set(inproc.FIRST_COUNTS))
    assert {m["name"] for m in doc["per_layer"]} == emitted
