"""Shared fixtures.

The Strichartz system and its cylinder measures are deterministic, so
session scope is safe and saves the repeated construction cost.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from heisriesz import measure
from heisriesz.fractal import cylinder_measure, make_strichartz_ifs, phi_fixed_point


@pytest.fixture(scope="session")
def ifs14():
    return make_strichartz_ifs(1, 0.25)


@pytest.fixture(scope="session")
def mu2(ifs14):
    return cylinder_measure(ifs14, 2)


@pytest.fixture(scope="session")
def mu3(ifs14):
    return cylinder_measure(ifs14, 3)


@pytest.fixture(scope="session")
def mu5(ifs14):
    return cylinder_measure(ifs14, 5)


@pytest.fixture(scope="session")
def phi64():
    return phi_fixed_point(1, 0.25, 64)


@pytest.fixture
def helper_pools(monkeypatch):
    """The helper-thread count of each pool a sweep starts, in order."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(measure, "ThreadPoolExecutor", Recording)
    return sizes
