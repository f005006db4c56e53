"""Temporal seller-buyer matchings under a stock limit.

A matching pairs sellers with strictly later buyers.  With capacity K, no
"temporal cut" may exceed K: for every position t, at most K pairs may have
their seller at or before t and their buyer after t (those items would all
be in stock simultaneously).  ``capacity=None`` means unbounded.

``fifo_match`` is the online single-pass algorithm; ``brute_force_max_matching``
is the independent oracle used to certify that FIFO is maximal: a backward
table over (step, reserved sellers) that tries every reserve/consume choice
and shares nothing with FIFO's queue.
"""

from __future__ import annotations

from collections import deque

from .streams import AgentStream, SELLER

__all__ = ["fifo_match", "brute_force_max_matching", "max_matchable"]

_BRUTE_FORCE_LIMIT = 20


def fifo_match(stream: AgentStream, capacity: int | None = None) -> tuple[tuple[int, int], ...]:
    """The (seller, buyer) index pairs of a single pass: sellers enter a FIFO
    queue while it holds fewer than ``capacity`` items; each buyer pops the
    front if the queue is nonempty."""
    cap = stream.fold_cap(capacity=capacity)
    queue: deque[int] = deque()
    pairs = []
    for t, role in enumerate(stream.roles.tolist()):
        if role == SELLER:
            if len(queue) < cap:
                queue.append(t)
        elif queue:
            pairs.append((queue.popleft(), t))
    return tuple(pairs)


def brute_force_max_matching(stream: AgentStream, capacity: int | None = None) -> int:
    """Maximum matching size by backward induction over (step, reserved).

    ``best[k]`` is the most pairs the rest of the stream can add while k
    sellers are reserved for later buyers; it starts at zero past the last
    step.  Each seller may be reserved or not, each buyer may consume a
    reserved seller or not, so every assignment is tried.  A seller step
    sweeps k upward and a buyer step downward, so each update reads the
    later step's entries.  Refuses streams longer than 20: this is an
    oracle, not a production path.
    """
    n = len(stream)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force oracle is limited to length <= {_BRUTE_FORCE_LIMIT}, got {n}")
    cap = stream.fold_cap(capacity=capacity)
    best = [0] * (cap + 1)
    for role in reversed(stream.roles.tolist()):
        if role == SELLER:
            for k in range(cap):
                best[k] = max(best[k], best[k + 1])
        else:
            for k in range(cap, 0, -1):
                best[k] = max(best[k], 1 + best[k - 1])
    return best[0]


def max_matchable(stream: AgentStream, capacity: int | None = None) -> int:
    """Size of the largest temporal matching (kappa); computed by FIFO."""
    return len(fifo_match(stream, capacity))
