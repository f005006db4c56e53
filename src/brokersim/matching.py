"""Temporal seller-buyer matchings under a stock limit.

A matching pairs sellers with strictly later buyers.  With capacity K, no
"temporal cut" may exceed K: for every position t, at most K pairs may have
their seller at or before t and their buyer after t (those items would all
be in stock simultaneously).  ``capacity=None`` means unbounded.

``fifo_match`` is the online single-pass algorithm; ``brute_force_max_matching``
is the independent exhaustive oracle used to certify that FIFO is maximal.
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
    """Maximum matching size by exhaustive backtracking over assignments.

    At each seller the search branches on reserving it for a later buyer or
    not; at each buyer on consuming a reserved seller or not.  Identical
    (position, reserved-count) subproblems are memoized.  Refuses streams
    longer than 20: this is an oracle, not a production path.
    """
    n = len(stream)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force oracle is limited to length <= {_BRUTE_FORCE_LIMIT}, got {n}")
    cap = stream.fold_cap(capacity=capacity)
    roles = stream.roles.tolist()
    memo: dict[tuple[int, int], int] = {}

    def go(t: int, reserved: int) -> int:
        if t == n:
            return 0
        key = (t, reserved)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = go(t + 1, reserved)
        if roles[t] == SELLER:
            if reserved < cap:
                best = max(best, go(t + 1, reserved + 1))
        elif reserved > 0:
            best = max(best, 1 + go(t + 1, reserved - 1))
        memo[key] = best
        return best

    return go(0, 0)


def max_matchable(stream: AgentStream, capacity: int | None = None) -> int:
    """Size of the largest temporal matching (kappa); computed by FIFO."""
    return len(fifo_match(stream, capacity))
