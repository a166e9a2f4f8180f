"""The process-pool map: results equal the serial map, and the forked function is never pickled."""

import multiprocessing
import pickle
from functools import partial

import pytest

from rf_lab import parallel
from rf_lab.parallel import map_cells


def apply_state(state, cell):
    return state["f"](cell)


def ticketed(counter, cell):
    """The cell and the order in which the pool's workers reached it."""
    with counter.get_lock():
        ticket = counter.value
        counter.value += 1
    return cell, ticket


def fail_on_three(cell):
    if cell == 3:
        raise ValueError("cell 3 failed")
    return cell


class TestMapCells:
    def test_pool_runs_an_unpicklable_function(self):
        fn = partial(apply_state, {"f": lambda x: 3 * x + 1})
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(fn)
        cells = list(range(10))
        assert map_cells(fn, cells, 2) == [fn(cell) for cell in cells]
        assert parallel._fn is None

    def test_function_is_reset_when_a_cell_raises(self):
        with pytest.raises(ValueError, match="cell 3 failed"):
            map_cells(fail_on_three, range(6), 2)
        assert parallel._fn is None

    def test_costliest_cells_go_first_and_results_keep_their_order(self):
        counter = multiprocessing.get_context("fork").Value("i", 0)
        cells = list(range(16))
        results = map_cells(partial(ticketed, counter), cells, 2, cost=lambda cell: cell)
        assert [cell for cell, _ in results] == cells
        assert sorted(ticket for _, ticket in results) == cells
        # chunks of ceil(16 / 4 jobs) = 2 cells leave in descending cost, and a
        # worker takes the first or second chunk first
        first = min(results, key=lambda result: result[1])[0]
        assert first in (15, 14, 13, 12)
