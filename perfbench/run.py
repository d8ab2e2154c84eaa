#!/usr/bin/env python3
"""Pipeline benchmark for sanctionflow.

Usage (from the repository root):

    python3 perfbench/run.py --workload lists_m --seed 1 --seconds 32 --trace 0

The workload's events are generated from the seed (the set-up). Then the
pipeline runs the way a user runs it: each stage in its own
``python -m sanctionflow`` process, one after another, repeated for as many
whole passes as fit in ``--seconds`` (at least two). Wall time and peak RSS
come from ``os.wait4`` on each stage process. Every output is checked after
the timed loop, and each repeat must write artifacts byte-identical to the
first.

The shared machine's speed changes by tens of percent within seconds, and
CPU time changes with it. So the run also times ``calibrate.py``, a fixed
job that never imports the program, between every two timed steps (stages
and set-up repeats). Each step's wall time is scaled by ``CAL_REF_S`` over
the mean of the calibrations just before and just after it: seconds at the
machine's reference speed. The raw wall times are printed above the result
line.

With ``--trace 1`` the run instead reports per-layer numbers: one untimed
CLI pass gives each stage's wall time and RSS, and ``inproc.py`` runs the
pipeline in one process with and without spans around each layer.

This process stays small (standard library only) because a child's
``ru_maxrss`` starts from the parent's peak at exec time; numpy and scipy
are loaded only in the child processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (ALL_STAGES, RATIO_STAGES, WORKLOADS, Workload, stages,
                       synth_argv, write_fragments)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # set-ups per run: at least this many,
SETUP_SECONDS = 3.0  # and more while their wall times sum to less than this,
SETUP_MAX = 15  # up to this many
MIN_PASSES = 2
STARTUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run that takes longer is stopped and prints no result
CAL_REF_S = 0.2  # calibrate.py's time at the reference speed


def child_env() -> dict[str, str]:
    """Environment for child processes: the absolute src path first, so a
    stage finds the package whatever its working directory."""
    paths = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(cmd: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall s, peak RSS MB, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the run's time limit, or an interrupt
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    return spawn([sys.executable, "-m", "sanctionflow", *argv], cwd, log)


class Clock:
    """Runs the calibration job between timed steps. scale() after a step
    gives the factor that takes its wall time to the reference speed."""

    def __init__(self, work: Path):
        self.work = work
        self.run()  # warm-up: loads the interpreter and numpy from disk
        self.last = self.run()
        self.samples = [self.last]

    def run(self) -> float:
        log = self.work / "calibrate.log"
        wall, _, code = spawn([sys.executable, str(HERE / "calibrate.py")],
                              self.work, log)
        if code != 0:
            raise SystemExit("calibration job failed:\n"
                             + log.read_text(errors="replace"))
        return wall

    def scale(self) -> float:
        now = self.run()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.samples.append(now)
        return factor


def make_events(workload: Workload, seed: int, work: Path) -> tuple[Path, float]:
    """Generate the workload's events file; returns (path, seconds)."""
    events = work / "events.csv"
    if workload.synth is None:
        t0 = time.perf_counter()
        write_fragments(events, seed)
        return events, time.perf_counter() - t0
    wall, _, code = cli(synth_argv(workload, seed, events), work,
                        work / "synth.log")
    if code != 0:
        raise SystemExit(f"set-up failed: synth exited {code}:\n"
                         + (work / "synth.log").read_text(errors="replace"))
    return events, wall


def digest(path: Path) -> dict[str, str]:
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*")
                                                 if p.is_file())
    return {str(f.relative_to(path.parent)):
            hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


class Pipeline:
    """Runs one workload's stages as CLI processes in a fixed directory, so
    every repeat passes identical flags and must write identical bytes."""

    def __init__(self, workload: Workload, events: Path, work: Path):
        self.workload = workload
        self.run_dir = work / "run"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.stages = stages(workload, events, self.run_dir)
        self.reference: dict[str, dict[str, str]] | None = None
        self.attempted = 0
        self.passes = 0
        self.failed: set[tuple[str, int]] = set()  # (stage, pass)

    def once(self, clock: Clock | None = None
             ) -> dict[str, tuple[float, float, float]]:
        """One pass; returns stage -> (wall s, peak RSS MB, factor to the
        reference speed, 1 without a clock)."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        timings = {}
        for stage in self.stages:
            log = self.logs / f"{stage.name}.log"
            wall, rss, code = cli(stage.argv, self.run_dir, log)
            timings[stage.name] = (wall, rss, clock.scale() if clock else 1.0)
            self.attempted += 1
            if code != 0:
                self.fail(stage.name, self.passes, f"exit {code}: "
                          + log.read_text(errors="replace").strip()[-400:])
        # untimed: compare this repeat's bytes with the first repeat's
        sums = {s.name: digest(self.run_dir / s.output) for s in self.stages
                if (self.run_dir / s.output).exists()}
        if self.reference is None:
            self.reference = sums
        else:
            for name, ref in self.reference.items():
                if sums.get(name) != ref:
                    self.fail(name, self.passes,
                              "artifacts differ from the first repeat")
        self.passes += 1
        return timings

    def fail(self, stage: str, n: int, why: str) -> None:
        self.failed.add((stage, n))
        print(f"FAILED {stage} (pass {n}): {why}", file=sys.stderr)

    def check(self) -> None:
        """Independent output checks on the last repeat's artifacts. Each
        repeat wrote the same bytes, so a failed check fails the stage in
        every repeat."""
        out = self.logs.parent / "checks.json"
        _, _, code = spawn([sys.executable, str(HERE / "checks.py"),
                            str(self.run_dir), self.workload.name, str(out)],
                           self.run_dir, self.logs / "checks.log")
        if code != 0 or not out.exists():
            why = "outputs unchecked: " + (self.logs / "checks.log").read_text(
                errors="replace").strip()[-800:]
            failures = [(s.name, why) for s in self.stages]
        else:
            failures = json.loads(out.read_text())
        for stage, why in failures:
            for n in range(self.passes):
                self.fail(stage, n, why)


def measure(workload: Workload, seed: int, seconds: float, work: Path):
    clock = Clock(work)
    setups = []  # (wall s, factor)
    first = None
    while len(setups) < SETUP_REPEATS or (
            sum(w for w, _ in setups) < SETUP_SECONDS
            and len(setups) < SETUP_MAX):
        events, wall = make_events(workload, seed, work)
        setups.append((wall, clock.scale()))
        data = events.read_bytes()
        if first is not None and data != first:
            raise SystemExit("set-up is not deterministic for one seed")
        first = data
    pipe = Pipeline(workload, events, work)
    # Repeat while the next pass, timed like the last one, ends in time.
    reps = []
    t0 = last = time.perf_counter()
    while (len(reps) < MIN_PASSES
           or 2 * time.perf_counter() - last - t0 <= seconds):
        last = time.perf_counter()
        reps.append(pipe.once(clock))
    pipe.check()

    # Each stage's median over the repeats, then summed, so a burst of load
    # on the shared machine that hits one stage of one repeat weighs less.
    # A slow spell of the machine slows the calibration job around a step as
    # much as the step, so the scaled times cancel it.
    wall = {s.name: statistics.median(r[s.name][0] * r[s.name][2]
                                      for r in reps) for s in pipe.stages}
    raw = {s.name: statistics.median(r[s.name][0] for r in reps)
           for s in pipe.stages}
    rss = {s.name: statistics.median(r[s.name][1] for r in reps)
           for s in pipe.stages}
    metrics = {
        "pipeline_s": (sum(wall.values()), "s"),
        "time_to_ratios_s": (sum(wall[s] for s in RATIO_STAGES), "s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
        "setup_s": (statistics.median(w * f for w, f in setups), "s"),
    }
    print(f"{workload.name} seed {seed}: {len(setups)} set-ups, "
          f"{len(reps)} repeats; calibration "
          f"job median {statistics.median(clock.samples):.4f} s "
          f"(reference {CAL_REF_S} s)")
    for name in wall:
        print(f"  {name:12s} median {wall[name]:8.3f} s (raw wall "
              f"{raw[name]:7.3f} s)  rss {rss[name]:7.1f} MB")
    print(f"  raw wall: pipeline {sum(raw.values()):.6g} s, set-up "
          f"{statistics.median(w for w, _ in setups):.6g} s")
    return pipe, metrics


def traced(workload: Workload, seed: int, work: Path):
    events, _ = make_events(workload, seed, work)
    startup = [cli(["--version"], work, work / "version.log")
               for _ in range(STARTUP_REPEATS)]
    pipe = Pipeline(workload, events, work)
    single = pipe.once()
    pipe.check()
    metrics = {"cli.startup_s": (statistics.median(w for w, _, _ in startup),
                                 "s")}
    pipe.attempted += len(startup)
    for n, (_, _, code) in enumerate(startup):
        if code != 0:
            pipe.fail("--version", n, f"exit {code}")
    for name in ALL_STAGES:
        wall, rss, _ = single.get(name, (0.0, 0.0, 1.0))
        metrics[f"cli.{name}_s"] = (wall, "s")
        metrics[f"cli.{name}.rss_mb"] = (rss, "MB")

    trace_dir = ROOT / ".perfbench_traces"
    trace_dir.mkdir(exist_ok=True)
    result = work / "inproc.json"
    _, _, code = spawn([sys.executable, str(HERE / "inproc.py"),
                        workload.name, str(events), str(work / "inproc"),
                        str(trace_dir / f"{workload.name}.jsonl"), str(result)],
                       work, work / "inproc.log")
    if code != 0 or not result.exists():
        why = (work / "inproc.log").read_text(errors="replace").strip()[-800:]
        for stage in pipe.stages:
            pipe.attempted += 1
            pipe.fail(f"in-process {stage.name}", 0, why)
        return pipe, metrics
    layer = json.loads(result.read_text())
    pipe.attempted += layer["attempted"]
    for stage, why in layer["failures"]:
        pipe.fail(stage, 0, why)
    metrics.update({k: tuple(v) for k, v in layer["metrics"].items()})
    print(f"{workload.name} seed {seed}: trace in {trace_dir.name}/"
          f"{workload.name}.jsonl")
    return pipe, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sanctionflow" / "__init__.py").is_file():
        print(f"error: no sanctionflow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    def out_of_time(signum, frame):
        raise SystemExit(f"error: run exceeded {RUN_LIMIT_S} s")

    def stopped(signum, frame):  # so the running child is killed and reaped
        raise SystemExit(f"error: stopped by signal {signum}")
    signal.signal(signal.SIGALRM, out_of_time)
    signal.signal(signal.SIGTERM, stopped)
    signal.alarm(RUN_LIMIT_S)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            pipe, metrics = traced(workload, args.seed, work)
        else:
            pipe, metrics = measure(workload, args.seed, args.seconds, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    failed = len(pipe.failed)
    attempted = max(pipe.attempted, 1)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failure_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
