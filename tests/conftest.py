import numpy as np
import pytest
from hypothesis import settings

# property tests draw from a fixed sequence, so a tier-1 run is
# reproducible and its length bounded; no example database is written
settings.register_profile(
    "mmvport", derandomize=True, max_examples=50, deadline=None, database=None
)
settings.load_profile("mmvport")

from mmvport import (
    DiscreteLaw,
    RandomVariable,
    generate_random_market,
    load_packaged_market,
    market_from_dict,
)


@pytest.fixture(scope="session")
def trinomial():
    return load_packaged_market("trinomial")


@pytest.fixture(scope="session")
def binomial():
    return load_packaged_market("binomial")


@pytest.fixture(scope="session")
def trinomial_law():
    law = DiscreteLaw(np.array([0.1, 0.8, 0.1]))
    return RandomVariable(law, np.array([10.0, 1.0, -1.0]))


@pytest.fixture(scope="session")
def flat_tree():
    """One-period market whose single asset never moves."""
    return market_from_dict(
        {
            "assets": 1,
            "periods": 1,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [5.0]},
                {"id": "a", "parent": "r", "t": 1, "p": 0.3, "prices": [5.0]},
                {"id": "b", "parent": "r", "t": 1, "p": 0.7, "prices": [5.0]},
            ],
        }
    )


@pytest.fixture(scope="session")
def arbitrage_tree():
    """One-period market whose single asset can only go up."""
    return market_from_dict(
        {
            "assets": 1,
            "periods": 1,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                {"id": "a", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                {"id": "b", "parent": "r", "t": 1, "p": 0.5, "prices": [1.5]},
            ],
        }
    )


def small_tree(seed, periods=None, branching=None, assets=None):
    """Deterministic random market with mixed shape, keyed by seed."""
    return generate_random_market(
        seed=seed,
        periods=periods if periods is not None else 1 + seed % 3,
        branching=branching if branching is not None else 2 + seed % 3,
        assets=assets if assets is not None else 1 + seed % 2,
    )
