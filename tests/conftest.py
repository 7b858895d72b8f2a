import pytest

from ffk.model import build_config
from ffk.verify import ACCEPTANCE_PAIRS


@pytest.fixture(scope="session")
def models():
    """The acceptance configurations, built once per session."""
    return {pm: build_config(*pm) for pm in ACCEPTANCE_PAIRS}


@pytest.fixture(scope="session")
def model53(models):
    return models[(5, 3)]


@pytest.fixture(scope="session")
def model35(models):
    return models[(3, 5)]


@pytest.fixture(scope="session")
def model73(models):
    return models[(7, 3)]


def fiber_edges(cfg):
    """Iterate ((a, b), count) over every edge of cfg, with a < b, read through
    `neighbours`: the edge list the tests edit and rebuild mutants from."""
    return (((a, b), cnt) for a in range(cfg.n_components)
            for b, cnt in cfg.neighbours(a).items() if a < b)
