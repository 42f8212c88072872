"""The draw phase of a fuzz campaign: the generator calls it makes."""

import numpy as np

from orthobound import FuzzConfig, campaign


class CountingGenerator:
    """A ``Generator`` stand-in that counts calls to its methods."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _flat(draws):
    """Every drawn array of (sites, corridor sites), by name."""
    return {
        (store, name, i): part
        for store, named in enumerate(draws)
        for name, site in named.items()
        for i, part in enumerate(site if isinstance(site, tuple) else (site,))
    }


def test_draw_makes_at_most_17_generator_calls_per_bundle():
    config = FuzzConfig(seed=5, count=200)  # complex, all selectors, nothing rejected
    rng = CountingGenerator(config.seed)
    campaign.draw(config, rng, range(config.count), exact=False)
    assert rng.calls <= 17 * config.count


def test_exact_draw_splits_runs_but_keeps_the_stream():
    config = FuzzConfig(seed=6, count=50)
    fast_rng, exact_rng = CountingGenerator(6), CountingGenerator(6)
    fast = _flat(campaign.draw(config, fast_rng, range(config.count), exact=False))
    exact = _flat(campaign.draw(config, exact_rng, range(config.count), exact=True))
    assert exact_rng.calls > fast_rng.calls
    assert fast.keys() == exact.keys()
    assert all(fast[key].tobytes() == exact[key].tobytes() for key in fast)
    assert fast_rng.rng.bit_generator.state == exact_rng.rng.bit_generator.state
