"""Synthetic event generation with a planted issuer hierarchy.

Each entity originates at one issuer on a random day; issuers ranked below
the originator copy it with probability ``copy_prob ** rank_gap``, each at
a strictly later date (origin date + rank gap in days). Higher-ranked
issuers therefore list shared entities earlier, so the planted ranking is
recoverable from the influence network's potentials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import ConfigError
from .events import Column, EventSet


@dataclass(frozen=True)
class SynthConfig:
    n_issuers: int
    n_entities: int
    lists_per_issuer: int = 1
    copy_prob: float = 0.5
    ranks: tuple[int, ...] | None = None  # rank of issuer i; 1 = most upstream
    start: Date = Date(2010, 1, 1)
    window_days: int = 365

    def issuer_ranks(self) -> tuple[int, ...]:
        if self.ranks is not None:
            return tuple(self.ranks)
        return tuple(range(1, self.n_issuers + 1))


def synth_generate(config: SynthConfig, seed: int) -> EventSet:
    """Deterministically generate an EventSet with the planted hierarchy."""
    if config.n_issuers <= 0:
        raise ConfigError("need at least one issuer")
    if config.n_entities <= 0:
        raise ConfigError("need at least one entity")
    if config.lists_per_issuer <= 0:
        raise ConfigError("need at least one list per issuer")
    if config.window_days < 1:
        raise ConfigError("window_days must be at least 1")
    if not 0.0 <= config.copy_prob <= 1.0:
        raise ConfigError("copy_prob must lie in [0, 1]")
    ranks = config.issuer_ranks()
    if len(ranks) != config.n_issuers or len(set(ranks)) != config.n_issuers:
        raise ConfigError("ranks must give each issuer its own rank")

    n, k = config.n_issuers, config.lists_per_issuer
    start = config.start.toordinal()
    # the last day: start + (window_days - 1) + the largest gap, n - 1
    if start + config.window_days + n - 2 > Date.max.toordinal():
        raise ConfigError(f"synthetic dates run past {Date.max}")

    rng = random.Random(seed)
    draw, choice = rng.random, rng.choice
    by_rank = sorted(range(n), key=lambda i: ranks[i])
    # each rank position's list codes: issuer i's are i * k .. i * k + k - 1
    lists = [range(i * k, (i + 1) * k) for i in by_rank]
    # the copy threshold of each rank gap 1 .. n - 1; one draw per gap, in
    # rank order, keeps the random stream (and every file) seed for seed
    thresholds = [config.copy_prob ** gap for gap in range(1, n)]
    list_id, entity, day = [], [], []
    for e in range(config.n_entities):
        origin = rng.randrange(n)  # position in rank order
        t0 = start + rng.randrange(config.window_days)
        list_id.append(choice(lists[origin]))
        entity.append(e)
        day.append(t0)
        for pos, limit in zip(range(origin + 1, n), thresholds):
            if draw() < limit:
                list_id.append(choice(lists[pos]))
                entity.append(e)
                day.append(t0 + pos - origin)
    issuers = tuple(f"ISS{i:03d}" for i in range(n))
    return EventSet.from_columns(
        Column(issuers, np.array(list_id, np.int32) // k),
        Column(tuple(f"{i}-L{j}" for i in issuers for j in range(k)), list_id),
        Column(tuple(f"ENT{e:05d}" for e in range(config.n_entities)), entity),
        Column((), np.full(len(day), -1)), day)
