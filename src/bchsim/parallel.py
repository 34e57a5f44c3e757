"""One process-pool map for the independent jobs of ensembles and comparisons."""

from __future__ import annotations

__all__ = ["parallel_map"]


def parallel_map(fn, jobs, workers: int = 1) -> list:
    """``[fn(job) for job in jobs]``, spread over up to ``workers`` processes.

    With one worker or one job everything runs in this process.  Otherwise
    workers are spawned, so ``fn`` must be importable by name and ``jobs``
    and results picklable; an exception raised by ``fn`` propagates.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, jobs))
