"""Bounding for the process-wide, insertion-ordered caches."""

from __future__ import annotations


def evict_oldest(cache: dict, size: int) -> None:
    """Drop the oldest entries until one more fits within ``size``.

    Lock-free on purpose: the caches are shared by service coordinator
    threads whose processes fork workers, and a lock held at fork time
    would stay held in the child.  The key list is copied in one C-level
    step, so a concurrent insertion cannot break the iteration, and
    ``pop`` tolerates a key another thread already evicted.
    """
    while len(cache) >= size:
        keys = list(cache)
        if not keys:
            return
        cache.pop(keys[0], None)
