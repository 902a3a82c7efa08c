import numpy as np
import pytest

import cycleweights as cw
from cycleweights import stats
from cycleweights.oracle import Columns

DESK_N = 20000
DESK_SAMPLES = 5000
DESK_SEED = 7


@pytest.fixture(scope="session")
def poly1():
    return cw.polynomial(1.0)


@pytest.fixture(scope="session")
def htable_2000(poly1):
    return cw.build_h_table(poly1, 2000)


@pytest.fixture(scope="session")
def htable_desk(poly1):
    return cw.build_h_table(poly1, DESK_N)


@pytest.fixture(scope="session")
def desk_saddle(poly1):
    return cw.solve_saddle(poly1, DESK_N)


@pytest.fixture(scope="session")
def desk_batch(poly1, htable_desk):
    cfg = cw.SamplerConfig(n=DESK_N, num_samples=DESK_SAMPLES,
                           seed=DESK_SEED)
    return list(cw.sample_batch(poly1, htable_desk, cfg))


def tail_count(ct, x):
    """The number of cycles of length >= x in one cycle type: the reference
    that stats.tail_counts is compared against."""
    return sum(c for m, c in ct.counts if m >= x)


def joined(batch):
    """The runs of a batch (stats.runs) concatenated into one Columns, its
    rows in batch order."""
    parts = list(stats.runs(batch))
    offsets = np.cumsum([0] + [len(run.m) for run in parts[:-1]])
    return Columns(
        np.concatenate([run.starts + o for run, o in zip(parts, offsets)]
                       ).astype(np.int32),
        np.concatenate([run.m for run in parts]),
        np.concatenate([run.c for run in parts]), parts[0].n)
