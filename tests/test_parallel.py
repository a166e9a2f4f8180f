"""The process-pool map: results equal the serial map, and the forked function is never pickled."""

import pickle
from functools import partial

import pytest

from rf_lab import parallel
from rf_lab.parallel import map_cells


def apply_state(state, cell):
    return state["f"](cell)


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
