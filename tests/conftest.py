import random
import sys
from pathlib import Path

import pytest

# the benchmark's modules, which tests import by name (gen_flip, the tracer)
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
# the shared claim checks assert, and keep asserting under python -O
pytest.register_assert_rewrite("claims")

from claims import checked_applies  # noqa: E402,F401  the one after-apply check
from twodist import gen_planar  # noqa: E402

# Seeds for the shared acceptance corpus: 1000 connected embedded planar
# graphs with maximum degree >= 6 and n <= 200.
CORPUS_SIZE = 1000
CORPUS_MASTER_SEED = 20240601


# The flip triangulations of the engine golden, by size and seed.
FLIP_SIZES = (80, 140, 190, 250)
FLIP_SEEDS = range(101000, 101004)


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
