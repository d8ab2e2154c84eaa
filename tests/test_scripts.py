"""The scripts and the benchmark's in-process tracer run against the
current package."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from sanctionflow import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_planted_hierarchy_experiment_runs(tmp_path):
    out = run_script("planted_hierarchy_experiment.py", "--seeds", "2",
                     cwd=tmp_path)
    assert out.splitlines()[0].split() == ["copy_prob", "mean_tau",
                                           "mean_grad_ratio"]
    assert len(out.splitlines()) == 6


def test_synth_pipeline_script_runs(tmp_path):
    run_script("run_synth_pipeline.py", str(tmp_path / "run"), cwd=tmp_path)
    assert (tmp_path / "run" / "report" / "graph.json").is_file()


def test_stage_rss_runs_a_benchmark_workload(tmp_path):
    out = run_script("stage_rss.py", str(tmp_path / "work"), "--workload",
                     "fragments_10k", "--repeat", "1", cwd=tmp_path)
    result = json.loads(out.splitlines()[-1])
    assert result["workload"] == "fragments_10k"
    assert [row["stage"] for row in result["stages"]] == [
        "ingest", "build", "symmetrize", "decompose", "communities",
        "pagerank", "report"]
    assert all(row["rss_mb"] > 0 for row in result["stages"])
    assert (tmp_path / "work" / "run0" / "report" / "graph.tsv").is_file()


def test_stage_rss_runs_the_named_stages_and_their_inputs(tmp_path):
    out = run_script("stage_rss.py", str(tmp_path / "work"), "--workload",
                     "issuers_500", "--repeat", "1", "--stages",
                     "symmetrize,decompose", cwd=tmp_path)
    result = json.loads(out.splitlines()[-1])
    assert [row["stage"] for row in result["stages"]] == [
        "ingest", "build", "symmetrize", "decompose"]
    run = tmp_path / "work" / "run0"
    assert (run / "hodge" / "summary.csv").is_file()
    assert not (run / "pagerank.csv").exists()


def test_stage_rss_times_synth_for_each_tree(tmp_path):
    # two trees, one package: each writes its own events file, the same
    src = str(ROOT / "src")
    out = run_script("stage_rss.py", str(tmp_path / "work"), "--workload",
                     "issuers_500", "--repeat", "2", "--stages", "synth",
                     "--src", src, "--src", src, cwd=tmp_path)
    assert "synth events files of 2 tree(s): byte-identical" in out
    result = json.loads(out.splitlines()[-1])
    assert result["events_identical"] is True
    assert [(row["stage"], len(row["walls_s"]))
            for row in result["stages"]] == [("synth", 2), ("synth", 2)]
    work = tmp_path / "work"
    assert (work / "run0" / "events.csv").read_bytes() == \
        (work / "run1" / "events.csv").read_bytes()
    assert not (work / "run0" / "canonical.csv").exists()


def test_stage_rss_refuses_a_stage_the_workload_lacks(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "stage_rss.py"),
                           str(tmp_path / "work"), "--workload",
                           "fragments_10k", "--stages", "build,layout"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "fragments_10k runs only ingest,build," in proc.stderr
    assert not (tmp_path / "work").exists()


def test_benchmark_tracer_records_every_count(tmp_path, monkeypatch):
    # imported as scripts/run_bench_artifacts.py does: perfbench on sys.path
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inproc
    from workloads import Workload, stages, synth_argv

    tiny = Workload("tiny", "institution", "json_graph", True,
                    (12, 400, 1, 0.7))
    events = tmp_path / "events.csv"
    codes = {}
    tracer = inproc.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(synth_argv(tiny, 1, events)) == 0
        for stage in stages(tiny, events, tmp_path):
            tracer.install()
            try:
                codes[stage.name] = cli.run(stage.argv)
            finally:
                assert tracer.restore() == []
    assert codes == dict.fromkeys(codes, 0)
    assert "layout" in codes and "report" in codes
    recorded = {key for span in tracer.spans for key in span["counts"]}
    assert [metric for metric, key in inproc.FIRST_COUNTS.items()
            if key not in recorded] == []


def test_src_lines_counts_physical_and_code_lines(tmp_path):
    # blank, comment and docstring lines are not code; a string that is
    # no docstring, and a statement's continuation lines, are
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module\ndocstring."""\n\nimport os  # a comment\n\n\n'
        'def f(x):\n    """One line."""\n    # a comment line\n'
        '    return (x +\n            1)\n')
    (tmp_path / "pkg" / "sub" / "b.py").write_text(
        'class C:\n    """Doc."""\n    text = """not a\ndocstring"""\n')
    out = run_script("src_lines.py", str(tmp_path / "pkg"), cwd=tmp_path)
    assert out.split() == ["physical", "15", "code", "7"]
