"""Synthetic event generation with a planted issuer hierarchy.

Each entity originates at one issuer on a random day; issuers ranked below
the originator copy it with probability ``copy_prob ** rank_gap``, each at
a strictly later date (origin date + rank gap in days). Higher-ranked
issuers therefore list shared entities earlier, so the planted ranking is
recoverable from the influence network's potentials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date as Date, timedelta

from .errors import ConfigError
from .events import EventSet, SanctionEvent


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
        raise ConfigError("ranks must be a permutation-free assignment, "
                          "one distinct rank per issuer")

    rng = random.Random(seed)
    issuers = [f"ISS{i:03d}" for i in range(config.n_issuers)]
    lists = {iss: [f"{iss}-L{k}" for k in range(config.lists_per_issuer)]
             for iss in issuers}
    by_rank = sorted(range(config.n_issuers), key=lambda i: ranks[i])

    events = []
    for e in range(config.n_entities):
        entity = f"ENT{e:05d}"
        origin_pos = rng.randrange(config.n_issuers)  # position in rank order
        t0 = config.start + timedelta(days=rng.randrange(config.window_days))
        for pos in range(origin_pos, config.n_issuers):
            gap = pos - origin_pos
            if gap > 0 and rng.random() >= config.copy_prob ** gap:
                continue
            iss = issuers[by_rank[pos]]
            events.append(SanctionEvent(
                issuer=iss,
                list_id=rng.choice(lists[iss]),
                entity_id=entity,
                date=t0 + timedelta(days=gap),
            ))
    return EventSet.from_events(events)
