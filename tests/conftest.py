import numpy as np
import pytest

from brokersim import Exponential, Uniform
from brokersim.verify import run_suite


@pytest.fixture
def u01():
    return Uniform(0.0, 1.0)


@pytest.fixture
def exp1():
    return Exponential(1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def suite_line():
    """Look up one check line of a `verify` suite by its name; each suite
    runs once per session, unpatched."""
    lines = {}

    def line(suite, name):
        if suite not in lines:
            lines[suite] = {c.name: c for c in run_suite(suite)}
        return lines[suite][name]

    return line
