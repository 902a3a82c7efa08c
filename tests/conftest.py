import pytest

import cycleweights as cw

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
