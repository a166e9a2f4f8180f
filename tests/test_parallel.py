"""The process-pool map: results equal the serial map, the cell function is
pickled, and no other module starts processes."""

import ast
import concurrent.futures
import os
import pickle
from functools import partial
from pathlib import Path

import pytest

import rf_lab
from rf_lab.parallel import map_cells


def affine(a, b, cell):
    """The cell's image and the process that computed it."""
    return a * cell + b, os.getpid()


def fail_on_three(cell):
    if cell == 3:
        raise ValueError("cell 3 failed")
    return cell


class TestMapCells:
    def test_pool_matches_serial_map(self):
        cells = list(range(10))
        results = map_cells(partial(affine, 3, 1), cells, 2)
        assert [value for value, _ in results] == [3 * cell + 1 for cell in cells]
        assert os.getpid() not in {pid for _, pid in results}

    def test_unpicklable_function_is_refused(self):
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            map_cells(lambda cell: cell, range(4), 2)

    def test_cell_exception_propagates(self):
        with pytest.raises(ValueError, match="cell 3 failed"):
            map_cells(fail_on_three, range(6), 2)

    def test_costliest_cells_go_first_and_results_keep_their_order(self, monkeypatch):
        sent = []
        pool_map = concurrent.futures.ProcessPoolExecutor.map

        def recording(pool, fn, cells, **kwargs):
            sent.extend(cells)
            return pool_map(pool, fn, cells, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", recording)
        cells = [3, 0, 7, 5, 7, 1]
        results = map_cells(partial(affine, 1, 0), cells, 2, cost=lambda cell: cell % 4)
        assert [value for value, _ in results] == cells
        # descending cell % 4, ties in their given order
        assert sent == [3, 7, 7, 5, 1, 0]

    def test_one_job_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert map_cells(partial(affine, 2, 0), [1, 2], 1) == [(2, os.getpid()), (4, os.getpid())]
        assert map_cells(partial(affine, 2, 0), [5], 4) == [(10, os.getpid())]


def test_only_parallel_starts_processes():
    """One parallel-map helper: no other module imports a process or pool API."""
    process_modules = {"concurrent", "multiprocessing"}
    importers = []
    for path in sorted(Path(rf_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in process_modules for name in names):
                importers.append(path.name)
    assert set(importers) == {"parallel.py"}
