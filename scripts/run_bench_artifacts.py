#!/usr/bin/env python3
"""Every benchmark workload's artifacts, in one directory tree.

For each workload in ``perfbench/workloads.py`` this makes the events from
the seed exactly as the benchmark does, then runs the workload's stages
in-process through ``sanctionflow.cli.run`` inside ``OUTDIR/<workload>/``,
with paths relative to it. Two trees made from two versions of the package
then compare with one ``diff -r``:

    PYTHONPATH=src python3 scripts/run_bench_artifacts.py before/ --seed 1
    (change the package)
    PYTHONPATH=src python3 scripts/run_bench_artifacts.py after/ --seed 1
    diff -r before/ after/

Usage: python3 scripts/run_bench_artifacts.py OUTDIR [--seed N]
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from sanctionflow.cli import run
from workloads import WORKLOADS, stages, synth_argv, write_fragments


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    for workload in WORKLOADS.values():
        out = Path(args.outdir) / workload.name
        out.mkdir(parents=True, exist_ok=True)
        events = Path("events.csv")
        argvs = [] if workload.synth is None else [
            synth_argv(workload, args.seed, events)]
        argvs += [stage.argv for stage in stages(workload, events, Path("."))]
        with contextlib.chdir(out):
            if workload.synth is None:
                write_fragments(events, args.seed)
            for argv in argvs:
                print(f"{workload.name}: sanctionflow {' '.join(argv)}")
                with contextlib.redirect_stdout(io.StringIO()):
                    status = run(argv)
                if status != 0:
                    sys.exit(status)
    print(f"\nall artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
