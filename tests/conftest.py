import random

import pytest

# the shared claim checks assert, and keep asserting under python -O
pytest.register_assert_rewrite("claims")

from twodist import gen_planar  # noqa: E402

# Seeds for the shared acceptance corpus: 1000 connected embedded planar
# graphs with maximum degree >= 6 and n <= 200.
CORPUS_SIZE = 1000
CORPUS_MASTER_SEED = 20240601


def corpus_specs(count: int = CORPUS_SIZE) -> list[tuple[int, int]]:
    rng = random.Random(CORPUS_MASTER_SEED)
    return [(rng.randint(14, 200), 1000 + i) for i in range(count)]


@pytest.fixture(scope="session")
def corpus():
    return [gen_planar(n, min_delta=6, seed=s) for (n, s) in corpus_specs()]


@pytest.fixture(scope="session")
def small_corpus():
    """A quick slice for property-style checks in the unit modules."""
    return [gen_planar(n, min_delta=6, seed=s) for (n, s) in corpus_specs(60)]
