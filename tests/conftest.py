import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mrfkit import epg, subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc traced during the call above
    what was traced when it began; tracemalloc traces numpy's data buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, result


@pytest.fixture
def traced_peak():
    """The memory tests' probe: traced_peak(fn, *args) -> (peak bytes, result)."""
    return _traced_peak


@pytest.fixture(scope="session")
def short_schedule():
    return epg.default_schedule(100)


@pytest.fixture(scope="session")
def small_dictionary(short_schedule):
    """3x3 grid, 100 frames; enough structure for matching tests."""
    grid = epg.GridSpec(t1=epg.GridRange(400, 800, 2000), t2=epg.GridRange(40, 80, 200))
    return epg.build_dictionary(grid, short_schedule)


@pytest.fixture(scope="session")
def desk_dictionary():
    """The default experiment's dictionary (79 x 59 atoms, 200 frames)."""
    schedule = epg.default_schedule(200)
    grid = epg.GridSpec(t1=epg.GridRange(100, 50, 4000), t2=epg.GridRange(20, 10, 600))
    return epg.build_dictionary(grid, schedule)


@pytest.fixture(scope="session")
def desk_basis(desk_dictionary):
    return subspace.learn_subspace(desk_dictionary, 5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
