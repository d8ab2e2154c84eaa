#!/usr/bin/env python3
"""Median wall time and peak RSS of each pipeline stage on one workload.

``--workload`` is L (the default), P or any benchmark workload of
``perfbench/workloads.py``. L is 3000 issuers x 30k entities x 1 list per
issuer, copy-prob 0.9 (about 299k events; 3000 nodes and 127k edges at the
institution level), with a ``json_graph`` report. P is the paper's scale:
85 issuers x 20k entities x 20 lists per issuer, copy-prob 0.9, built at
the list level (1,700 lists, about 179k events and 438k edges), with a
``json_graph`` report. Each ``--src`` tree has its own run directory in
WORKDIR, ``run0``, ``run1``, ... The script runs the workload's stage
list ``--repeat`` times: ``synth``, which writes the run directory's own
``events.csv``, then ingest through report. fragments_10k has no
``synth`` stage; its events are made once, with
``workloads.write_fragments``, into WORKDIR. ``--stages ingest,build``
runs only the named stages and the stages that make their inputs, so a
comparison of the early stages on L skips its long layout; there a
``synth`` that is only an input runs once per tree, before the repeats,
and is no row of the table. ``--stages synth`` times synth alone. Each
stage is its own ``python -m sanctionflow`` process, run from the run
directory with relative paths, so two trees' artifacts compare byte for
byte, and its wall time and peak RSS come from ``os.wait4``; the table
gives each stage's median wall time with its range, and its median peak
RSS. This process imports only the standard library, because a child's
``ru_maxrss`` starts from its parent's peak at exec time.

Given several ``--src`` trees, the repeats alternate between them (the
first tree first on even repeats, the last first on odd ones), so a
parent/change comparison sees the same machine conditions. For a
``synth`` workload the script then prints whether the trees wrote
byte-identical events files:

    python3 scripts/stage_rss.py /tmp/i500 --workload issuers_500 \
        --stages synth --repeat 10 --src ../parent/src --src src

Each child inherits this process's environment. So a run under
``MALLOC_MMAP_THRESHOLD_=131072`` freezes glibc's mmap threshold in every
stage: a freed large numpy array can no longer raise it and leave later
arrays on the heap. A per-stage peak RSS difference between two trees that
vanishes under that setting is heap layout, not memory in use; one that
stays is memory in use:

    MALLOC_MMAP_THRESHOLD_=131072 python3 scripts/stage_rss.py /tmp/m \\
        --workload lists_m --stages ingest,build --repeat 5 \\
        --src ../parent/src --src src

Usage: python3 scripts/stage_rss.py WORKDIR [--workload NAME] [--seed N]
       [--repeat R] [--stages NAME,...] [--src DIR ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Stage, Workload, stages, synth_argv

L = Workload("L", "institution", "json_graph", True, (3000, 30_000, 1, 0.9))
P = Workload("P", "list", "json_graph", True, (85, 20_000, 20, 0.9))
CHOICES = {"L": L, "P": P, **WORKLOADS}
FRAGMENTS = ("import sys; from workloads import write_fragments; "
             "write_fragments(sys.argv[1], int(sys.argv[2]))")


def run_stage(src: Path, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Run one ``python -m sanctionflow`` child to completion; returns its
    wall time in s and peak RSS in MB, or exits on a failed stage."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    log = cwd / "stage.log"
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sanctionflow", *argv],
                                cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"sanctionflow {' '.join(argv)} exited {proc.returncode}:\n"
                 + log.read_text(encoding="utf-8", errors="replace"))
    return wall, usage.ru_maxrss / 1024.0


def pipeline(workload: Workload, seed: int) -> list[Stage]:
    """The workload's stages, each run from a tree's run directory with
    paths relative to it: ``synth``, when the workload has one, writes
    ``events.csv`` there, then ingest through report. Without ``synth``,
    ingest reads WORKDIR's ``events.csv``."""
    if workload.synth is None:
        return stages(workload, Path("..", "events.csv"), Path("."))
    events = Path("events.csv")
    return [Stage("synth", synth_argv(workload, seed, events), str(events)),
            *stages(workload, events, Path("."))]


def with_inputs(listed, wanted: set[str]) -> list[str]:
    """The names of the ``wanted`` stages of ``listed`` (one pipeline's
    stages, in order, run from "."), and of every stage whose output one of
    them reads, in pipeline order."""
    keep = set(wanted)
    for stage in reversed(listed):  # a stage's inputs are made before it
        if stage.name in keep:
            keep.update(other.name for other in listed
                        if any(arg == other.output
                               or arg.startswith(other.output + "/")
                               for arg in stage.argv))
    return [stage.name for stage in listed if stage.name in keep]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir")
    parser.add_argument("--workload", choices=CHOICES, default="L")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--stages", help="comma-separated stage names "
                        "(default: all); their input stages run too")
    parser.add_argument("--src", action="append", type=Path,
                        help="a tree's src directory (default: this tree's)")
    args = parser.parse_args()
    trees = [p.resolve() for p in args.src or [ROOT / "src"]]
    workload = CHOICES[args.workload]
    listed = pipeline(workload, args.seed)
    names = [stage.name for stage in listed]
    if args.stages is not None:
        wanted = set(args.stages.split(","))
        if not wanted <= set(names):
            parser.error(f"--stages: {workload.name} runs only "
                         f"{','.join(names)}")
        # a synth that is only an input runs once per tree, as no row
        names = [name for name in with_inputs(listed, wanted)
                 if name != "synth" or name in wanted]
    work = Path(args.workdir).resolve()
    runs = [work / f"run{t}" for t in range(len(trees))]
    for run in runs:
        run.mkdir(parents=True, exist_ok=True)

    if workload.synth is None:
        # in a child, so this process's peak stays below every stage's
        env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"))
        subprocess.run([sys.executable, "-c", FRAGMENTS, "events.csv",
                        str(args.seed)], cwd=work, env=env, check=True)
        print("events: workloads.write_fragments", flush=True)
    elif "synth" not in names:
        for t, src in enumerate(trees):
            wall, rss = run_stage(src, listed[0].argv, runs[t])
            print(f"synth run{t}: {wall:.2f} s, {rss:.1f} MB", flush=True)
    measured = {(t, name): [] for t in range(len(trees)) for name in names}
    for r in range(args.repeat):
        order = range(len(trees))
        if r % 2:
            order = reversed(order)
        for t in order:
            for stage in listed:
                if stage.name in names:
                    measured[t, stage.name].append(
                        run_stage(trees[t], stage.argv, runs[t]))
        print(f"repeat {r + 1} of {args.repeat} done", flush=True)
    identical = None
    if workload.synth is not None:
        made = [(run / "events.csv").read_bytes() for run in runs]
        identical = made.count(made[0]) == len(made)
        print(f"synth events files of {len(trees)} tree(s): "
              + ("byte-identical" if identical else "DIFFER"), flush=True)

    result = []
    for t, src in enumerate(trees):
        print(f"\n{src} (medians of {args.repeat})")
        print(f"{'stage':<12}{'wall s':>9}{'min':>8}{'max':>8}"
              f"{'peak RSS MB':>13}")
        for name in names:
            walls = [w for w, _ in measured[t, name]]
            wall = statistics.median(walls)
            rss = statistics.median(m for _, m in measured[t, name])
            print(f"{name:<12}{wall:>9.2f}{min(walls):>8.2f}{max(walls):>8.2f}"
                  f"{rss:>13.1f}")
            result.append({"src": str(src), "stage": name, "wall_s": wall,
                           "walls_s": walls, "rss_mb": rss})
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "repeat": args.repeat, "events_identical": identical,
                      "stages": result}))


if __name__ == "__main__":
    main()
