"""The program's one level of parallelism: independent cells over a process pool.

Every sweep that fans out splits its work into cells whose randomness is
pre-assigned (a cell derives its own streams from the root seed and its
index), so the results never depend on how many processes ran them.  BLAS
is kept at one thread per process by the CLI, so ``jobs`` processes use
``jobs`` cores.  Workers are forked; the cell function, the cells and
their results are pickled, so a sweep hands its shared state to the cells
as a ``functools.partial`` over a module-level cell function.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_cells(fn, cells, jobs: int, cost=None) -> list:
    """``[fn(cell) for cell in cells]``, over ``jobs`` worker processes.

    ``fn``, the cells and the results must pickle.  With ``cost``, a pool is
    sent the cells in descending ``cost(cell)`` (ties in their given order),
    so the largest start first and the smallest fill in at the end; results
    still come back in the order of ``cells``.
    """
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

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        results = [None] * len(cells)
        for i, result in zip(order, pool.map(fn, [cells[i] for i in order])):
            results[i] = result
        return results
