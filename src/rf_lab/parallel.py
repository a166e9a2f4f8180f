"""The program's one level of parallelism: independent cells over a process pool.

Every sweep splits its work into cells whose randomness is pre-assigned
(a cell derives its own streams from the root seed and its index), so the
results never depend on how many processes ran them.  BLAS is kept at one
thread per process by the CLI, so ``jobs`` processes use ``jobs`` cores.
"""

from __future__ import annotations

import math
import os


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_cells(fn, cells, jobs: int, initializer=None, initargs=()) -> list:
    """``[fn(cell) for cell in cells]``, over ``jobs`` worker processes.

    ``initializer(*initargs)`` runs once in every process that runs cells
    (in this one when the map is serial) and is the place to build state
    that all cells share.  Workers are forked, so ``initargs`` need not be
    picklable; cells and results must be.  Cells are sent in chunks of
    ``ceil(n / (4 jobs))``: many tiny cells cost a few round trips instead
    of one each, and every worker still gets about four chunks, so cells of
    uneven cost balance.
    """
    cells = list(cells)
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(cell) for cell in cells]
    # imported here so that serial runs and plain imports do not pay for it
    import concurrent.futures
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(fn, cells, chunksize=math.ceil(len(cells) / (4 * jobs))))
