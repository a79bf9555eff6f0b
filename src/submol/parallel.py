"""Independent tasks run inline or in forked worker processes."""

from __future__ import annotations

import warnings
from typing import Any, Callable, Sequence


def map_tasks(fn: Callable, tasks: Sequence[tuple], workers: int) -> list[Any]:
    """``[fn(*task) for task in tasks]``, spread over ``workers`` processes.

    With more than one worker (and more than one task) the tasks run in a
    ``fork``-context process pool: ``fn`` must be a module-level function,
    and each task's arguments and result travel pickled.  Results come back
    in task order, and an exception a task raises reaches the caller with
    its type and arguments.  A worker applies the warning filters it
    inherited and records what they let through; the caller then issues
    those warnings again, in task order.  Every worker has exited when this
    returns.  Where the platform cannot fork (Windows), the tasks run inline.

    ``fork`` rather than ``spawn``: a spawned worker imports NumPy, SciPy
    and submol again (about 0.35 s on a 2-core machine, longer than a
    protocol trial).  A forked child runs only the thread that forked: a
    BLAS library that keeps a thread pool (NumPy's OpenBLAS) starts it again
    there, and Python 3.12 and later issue a ``DeprecationWarning`` when a
    process that runs other threads forks.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # Imported here, so a single-process run never loads the pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*task) for task in tasks]
    context = multiprocessing.get_context("fork")
    results = []
    # Under a "default" filter a warning shows once per call, not per task.
    registry: dict = {}
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        for result, caught in pool.map(_recording, [fn] * len(tasks), tasks):
            for message, filename, lineno in caught:
                warnings.warn_explicit(message, type(message), filename, lineno, registry=registry)
            results.append(result)
    return results


def _recording(fn: Callable, task: tuple) -> tuple[Any, list[tuple[Warning, str, int]]]:
    """``fn(*task)``, and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        result = fn(*task)
    return result, [(w.message, w.filename, w.lineno) for w in caught]
