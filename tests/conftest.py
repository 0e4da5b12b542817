import numpy as np
import pytest
from hypothesis import Phase, settings

from chansounder import pn, pulse, sliding

# property tests draw the same examples on every run, so Tier-1 stays
# reproducible; no example database is kept between runs. A failing draw
# fails once shrunk: the explain phase, which walked the test's source
# for minutes, does not run
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None,
                          phases=[phase for phase in Phase
                                  if phase is not Phase.explain])
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
