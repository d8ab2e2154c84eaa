from datetime import date

import pytest

from sanctionflow import ConfigError, SynthConfig, synth_generate
from oracles import synth_reference


def shared_fraction(events):
    entity_issuers = {}
    for e in events.events:
        entity_issuers.setdefault(e.entity_id, set()).add(e.issuer)
    shared = sum(1 for s in entity_issuers.values() if len(s) > 1)
    return shared / max(1, len(entity_issuers))


def test_full_copying_with_prob_one():
    config = SynthConfig(n_issuers=3, n_entities=40, copy_prob=1.0)
    events = synth_generate(config, seed=7)
    origin = {}
    for e in events.events:
        cur = origin.get(e.entity_id)
        if cur is None or e.date < cur[1]:
            origin[e.entity_id] = (e.issuer, e.date)
    for entity, (iss, _) in origin.items():
        holders = {e.issuer for e in events.events if e.entity_id == entity}
        if iss == "ISS000":  # top rank: everything propagates all the way down
            assert holders == {"ISS000", "ISS001", "ISS002"}


def test_copies_dated_strictly_later():
    config = SynthConfig(n_issuers=4, n_entities=30, copy_prob=1.0)
    events = synth_generate(config, seed=3)
    for entity in {e.entity_id for e in events.events}:
        dated = sorted((e.date, e.issuer) for e in events.events
                       if e.entity_id == entity)
        assert len({d for d, _ in dated}) == len(dated)


def test_determinism():
    config = SynthConfig(n_issuers=5, n_entities=50, copy_prob=0.5)
    assert synth_generate(config, seed=11) == synth_generate(config, seed=11)


def test_zero_copy_prob_shares_nothing():
    config = SynthConfig(n_issuers=2, n_entities=30, copy_prob=0.0)
    events = synth_generate(config, seed=1)
    assert shared_fraction(events) == 0.0


def test_invalid_configs():
    with pytest.raises(ConfigError):
        synth_generate(SynthConfig(n_issuers=0, n_entities=5), seed=0)
    with pytest.raises(ConfigError):
        synth_generate(SynthConfig(n_issuers=2, n_entities=0), seed=0)
    with pytest.raises(ConfigError):
        synth_generate(SynthConfig(n_issuers=2, n_entities=5, copy_prob=1.5),
                       seed=0)
    for days in (0, -3):
        with pytest.raises(ConfigError, match="window_days"):
            synth_generate(SynthConfig(n_issuers=2, n_entities=5,
                                       window_days=days), seed=0)
    with pytest.raises(ConfigError, match="at least one list per issuer"):
        synth_generate(SynthConfig(n_issuers=2, n_entities=5,
                                   lists_per_issuer=0), seed=0)
    with pytest.raises(ConfigError,
                       match="ranks must give each issuer its own rank"):
        synth_generate(SynthConfig(n_issuers=3, n_entities=5,
                                   ranks=(1, 2, 2)), seed=0)


def test_dates_must_end_by_the_last_date():
    # the latest listing: start + (window_days - 1) + (n_issuers - 1) days
    last = SynthConfig(n_issuers=3, n_entities=5, copy_prob=1.0,
                       start=date(9999, 12, 29), window_days=1)
    assert int(synth_generate(last, seed=0).day.max()) == \
        date.max.toordinal()
    for config in (SynthConfig(n_issuers=4, n_entities=5,
                               start=date(9999, 12, 29), window_days=1),
                   SynthConfig(n_issuers=3, n_entities=5,
                               start=date(9999, 12, 29), window_days=2)):
        with pytest.raises(ConfigError, match="9999-12-31"):
            synth_generate(config, seed=0)


@pytest.mark.parametrize("config", [
    SynthConfig(n_issuers=8, n_entities=300),
    SynthConfig(n_issuers=6, n_entities=120, ranks=(3, 1, 6, 2, 5, 4)),
    SynthConfig(n_issuers=5, n_entities=80, ranks=(5, 4, 3, 2, 1),
                copy_prob=0.9),
    *(SynthConfig(n_issuers=6, n_entities=60, lists_per_issuer=k,
                  copy_prob=0.7) for k in range(1, 6)),
    SynthConfig(n_issuers=5, n_entities=50, lists_per_issuer=2, copy_prob=0.0),
    SynthConfig(n_issuers=5, n_entities=50, lists_per_issuer=3, copy_prob=1.0),
    SynthConfig(n_issuers=7, n_entities=80, lists_per_issuer=2, window_days=1),
    SynthConfig(n_issuers=40, n_entities=500, lists_per_issuer=5,
                copy_prob=0.9, start=date(1999, 2, 28)),
])
@pytest.mark.parametrize("seed", [1, 7])
def test_columns_match_the_object_building_reference(config, seed):
    assert synth_generate(config, seed) == synth_reference(config, seed)


def test_shared_fraction_monotone_in_copy_prob():
    # statistical check across 20 seeds for each probability level
    means = []
    for p in (0.2, 0.5, 0.8):
        config = SynthConfig(n_issuers=4, n_entities=60, copy_prob=p)
        fracs = [shared_fraction(synth_generate(config, seed=s))
                 for s in range(20)]
        means.append(sum(fracs) / len(fracs))
    assert means[0] < means[1] < means[2]
