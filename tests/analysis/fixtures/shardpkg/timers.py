"""Shared-family fixture: a module-level heap written only by heapq."""

import heapq

#: R15: mutated through heapq.heappush below.
_TIMERS = []


def arm(timer):
    heapq.heappush(_TIMERS, timer)
