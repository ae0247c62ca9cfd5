import multiprocessing

import numpy as np
import pytest

from csslab.grid import build_grid


@pytest.fixture(scope="session")
def grid():
    """Default production grid."""
    return build_grid()


@pytest.fixture(scope="session")
def grid_small():
    """Coarser grid for refinement comparisons."""
    return build_grid(n=2048)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Each test ends with no child process running: a run's stepper
    process left behind would hang the interpreter at exit, which joins
    it."""
    yield
    assert multiprocessing.active_children() == []
