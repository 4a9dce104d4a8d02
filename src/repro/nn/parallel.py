"""One process-wide thread pool for the conv walk and serve featurisation.

:class:`repro.core.model.ConvBranch` walks its batch in independent
chunks of :data:`repro.nn.conv.CHUNK` samples, and every step of a
chunk (strided copies, GEMMs, ufuncs) releases the GIL;
:meth:`repro.dsp.features.M2AIFeaturizer.transform_many` featurises
its windows in independent pooled DSP batches.
:func:`run_parts` splits such a list into at most :data:`WIDTH`
contiguous parts: the calling thread runs the first part itself and
one lazily built :class:`~concurrent.futures.ThreadPoolExecutor` runs
the others.  A single core or a single item takes the plain serial
loop, with no pool and no thread hand-off.

:data:`WIDTH` is the number of cores this process may run on.  Nothing
here is configurable: restrict the cores (``taskset -c 0``) to get the
serial walk.  Parts must not submit to the pool themselves, so a pool
thread never waits on the pool and two user threads can share it.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable


def _affinity_width() -> int:
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


WIDTH = _affinity_width()
"""Most parts a chunk list is split into: the cores this process may use."""

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(1, WIDTH - 1), thread_name_prefix="repro-nn"
            )
        return _POOL


def _forget_pool() -> None:
    # A forked child inherits the executor (and maybe a held lock) but
    # none of the threads behind them.
    global _POOL, _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    with _POOL_LOCK:
        _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def parts(n_chunks: int) -> int:
    """How many parts :func:`run_parts` splits ``n_chunks`` chunks into."""
    return max(1, min(WIDTH, n_chunks))


def run_parts(n_chunks: int, part: Callable[[int, int], None]) -> None:
    """Call ``part(lo, hi)`` on contiguous ranges that tile ``range(n_chunks)``.

    The calling thread runs the first range; the pool runs the rest,
    each under a copy of the caller's context (so ``np.errstate`` and
    :func:`~repro.nn.module.inference_mode` carry over).  The caller
    waits for every part, even when its own part raises, and then
    re-raises the first error in range order.  Ranges must write
    disjoint outputs.
    """
    n_parts = parts(n_chunks)
    if n_parts == 1:
        part(0, n_chunks)
        return
    bounds = [n_chunks * i // n_parts for i in range(n_parts + 1)]
    pool = _pool()
    futures: list[Future] = [
        pool.submit(contextvars.copy_context().run, part, lo, hi)
        for lo, hi in zip(bounds[1:-1], bounds[2:])
    ]
    errors: list[BaseException] = []
    try:
        part(bounds[0], bounds[1])
    except BaseException as exc:  # noqa: BLE001 - re-raised after the join
        errors.append(exc)
    wait(futures)
    errors += [exc for exc in (f.exception() for f in futures) if exc is not None]
    if errors:
        raise errors[0]
