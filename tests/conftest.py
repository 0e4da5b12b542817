import numpy as np
import pytest
from hypothesis import settings

from chansounder import pn, pulse, sliding

# property tests draw the same examples on every run, so Tier-1 stays
# reproducible; no example database is kept between runs
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def chips10():
    return pn.generate_glfsr(10)


@pytest.fixture(scope="session")
def rrc_taps():
    config = sliding.SounderConfig()
    return pulse.design_rrc(config.rolloff, config.span_symbols,
                            config.samples_per_symbol)


@pytest.fixture(scope="session")
def sounder_config():
    return sliding.SounderConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
