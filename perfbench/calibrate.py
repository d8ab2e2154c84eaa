"""A fixed reference job: the benchmark's measure of the machine's speed.

It does in small what a pipeline stage does: start the interpreter, import
numpy, parse CSV rows into a dict and run dense numpy array arithmetic. It
never imports sanctionflow, so no change to the program moves its time.
``run.py`` runs it as a child process before every stage and every set-up
repeat, and scales the run's times by how fast it ran (see ``run.py``).
"""

import csv
import io

import numpy as np


def main() -> None:
    text = "\n".join(f"ISS{i % 97},L{i % 13},E{i % 1000},2010-01-{1 + i % 28:02d}"
                     for i in range(10_000))
    first: dict[tuple[str, str], str] = {}
    for _, list_id, entity, day in csv.reader(io.StringIO(text)):
        key = (list_id, entity)
        if day < first.get(key, "9999"):
            first[key] = day
    x = np.linspace(-1.0, 1.0, 300)
    for _ in range(20):
        dx = x[:, None] - x[None, :]
        x = x - 1e-6 * (dx / (dx * dx + 1.0)).sum(axis=1)
    if len(first) != 10_000 or not np.isfinite(x).all():
        raise SystemExit("calibration job computed a wrong result")


if __name__ == "__main__":
    main()
