"""The program's one level of parallelism: independent cells over a process pool.

Every sweep splits its work into cells whose randomness is pre-assigned
(a cell derives its own streams from the root seed and its index), so the
results never depend on how many processes ran them.  BLAS is kept at one
thread per process by the CLI, so ``jobs`` processes use ``jobs`` cores.

Workers are forked, and the function they run is installed in a module
global before the fork, so a sweep hands its shared state to the cells as
a ``functools.partial`` over its cell function: nothing but the cells and
their results is pickled.
"""

from __future__ import annotations

import math
import os

# The function the running map's workers call; set only while a pool runs.
_fn = None


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call(cell):
    return _fn(cell)


def map_cells(fn, cells, jobs: int, cost=None) -> list:
    """``[fn(cell) for cell in cells]``, over ``jobs`` worker processes.

    ``fn`` is installed as the module's ``_fn`` before the workers are
    forked and reset once they are done, so it may be any callable (a
    ``partial`` over unpicklable state, a closure) and is never pickled;
    cells and results must be.  Maps do not nest: a cell that ran a map of
    its own would reset ``_fn`` under the worker's later cells.  Cells are
    sent in chunks of ``ceil(n / (4 jobs))``: many tiny cells cost a few
    round trips instead of one each, and every worker still gets about four
    chunks, so cells of uneven cost balance.  With ``cost``, a pool is sent
    the cells in descending ``cost(cell)`` (ties in their given order), so
    the largest start first and the smallest fill in at the end; results
    still come back in the order of ``cells``.
    """
    global _fn
    cells = list(cells)
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        return [fn(cell) for cell in cells]
    order = list(range(len(cells)))
    if cost is not None:
        order.sort(key=lambda i: cost(cells[i]), reverse=True)
    # imported here so that serial runs and plain imports do not pay for it
    import concurrent.futures
    import multiprocessing

    _fn = fn
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            sent = [cells[i] for i in order]
            done = pool.map(_call, sent, chunksize=math.ceil(len(cells) / (4 * jobs)))
            results = [None] * len(cells)
            for i, result in zip(order, done):
                results[i] = result
            return results
    finally:
        _fn = None
