"""Agent arrival sequences: concrete streams, the pattern language, the
alpha-balance predicate and balanced-stream generators; these three read
one balance walk, +1 per seller and -alpha per buyer (``_balance_walk``).

Patterns follow the grammar ``pattern := term+`` with
``term := atom | atom '^' uint | '(' pattern ')' '^' uint``, ``atom := 'S' | 'B'``
and ``uint`` ASCII digits (whitespace ignored), e.g. ``"(S^2 B)^3"``.
Expansion is capped at 10^8 roles and groups nest at most 100 levels deep;
larger inputs are rejected at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SpecParseError, require_int

__all__ = [
    "SELLER",
    "BUYER",
    "AgentStream",
    "StreamPattern",
    "parse_pattern",
    "expand",
    "is_alpha_balanced",
    "random_alpha_balanced",
    "enumerate_alpha_balanced",
]

SELLER = 0
BUYER = 1
_CHAR_FOR_ROLE = "SB"
_ROLE_FOR_CHAR = {"S": SELLER, "B": BUYER}

MAX_EXPANSION = 10**8
MAX_NESTING = 100


@dataclass(frozen=True)
class StreamPattern:
    """Parsed pattern tree: a sequence of ``(node, count)`` parts, each node a
    role (SELLER or BUYER) or a nested ``StreamPattern`` repeated ``count``
    times; ``expand`` materializes it into an ``AgentStream``."""

    parts: tuple

    def length(self) -> int:
        return sum(count * (node.length() if isinstance(node, StreamPattern) else 1) for node, count in self.parts)

    def materialize(self) -> np.ndarray:
        blocks = [
            np.tile(node.materialize(), count) if isinstance(node, StreamPattern) else np.full(count, node, np.uint8)
            for node, count in self.parts
            if count  # a group repeated 0 times is never built, however long it is
        ]
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint8)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_uint(text: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        raise SpecParseError(f"expected repetition count at position {i} in {text!r}")
    return int(text[i:j]), j


def _parse_seq(text: str, i: int, depth: int) -> tuple[list, int]:
    parts = []
    i = _skip_ws(text, i)
    while i < len(text):
        c = text[i]
        if c == ")":
            if depth == 0:
                raise SpecParseError(f"unbalanced ')' at position {i} in {text!r}")
            break
        if c in _ROLE_FOR_CHAR:
            node, count = _ROLE_FOR_CHAR[c], 1
            i = _skip_ws(text, i + 1)
            if i < len(text) and text[i] == "^":
                count, i = _parse_uint(text, _skip_ws(text, i + 1))
        elif c == "(":
            if depth == MAX_NESTING:
                raise SpecParseError(f"groups nest deeper than {MAX_NESTING} levels at position {i} in {text!r}")
            inner, i = _parse_seq(text, i + 1, depth + 1)
            if i >= len(text) or text[i] != ")":
                raise SpecParseError(f"missing ')' for group opened in {text!r}")
            i = _skip_ws(text, i + 1)
            if i >= len(text) or text[i] != "^":
                raise SpecParseError(f"group must be followed by '^<count>' at position {i} in {text!r}")
            count, i = _parse_uint(text, _skip_ws(text, i + 1))
            node = StreamPattern(tuple(inner))
        else:
            raise SpecParseError(f"unexpected character {c!r} at position {i} in {text!r}")
        parts.append((node, count))
        i = _skip_ws(text, i)
    return parts, i


def parse_pattern(text: str) -> StreamPattern:
    """Parse a stream pattern; rejects syntax errors (with position) and
    patterns whose whole stream exceeds ``MAX_EXPANSION`` roles (the cap
    applies to the root: a group repeated 0 times may be longer)."""
    if not text or not text.strip():
        raise SpecParseError("empty stream pattern")
    parts, _ = _parse_seq(text, 0, depth=0)  # at depth 0 it consumes all of text or raises
    pattern = StreamPattern(tuple(parts))
    if (total := pattern.length()) > MAX_EXPANSION:
        raise SpecParseError(f"pattern expands to {total} roles, above the {MAX_EXPANSION} cap")
    return pattern


class AgentStream:
    """Immutable sequence of SELLER/BUYER roles with cached counts."""

    __slots__ = ("roles", "n_S", "n_B")

    def __init__(self, roles: np.ndarray):
        roles = np.asarray(roles)  # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
        if roles.size and not np.all((roles == SELLER) | (roles == BUYER)):
            raise ValueError("roles must be SELLER (0) or BUYER (1)")
        roles = np.ascontiguousarray(roles, dtype=np.uint8)
        roles.setflags(write=False)
        self.roles = roles
        self.n_S = int(np.count_nonzero(roles == SELLER))
        self.n_B = roles.size - self.n_S

    @classmethod
    def from_pattern(cls, text: str) -> "AgentStream":
        return expand(parse_pattern(text))

    @property
    def text(self) -> str:
        return "".join(_CHAR_FOR_ROLE[r] for r in self.roles)

    def fold_cap(self, **limits: int | None) -> int:
        """The effective stock cap: the tightest of n_S and the named
        ``limits`` (None is no limit), each an integer >= 1 checked by
        ``require_int`` under its own name.  Stock never exceeds n_S, so a
        cap at or above n_S never binds; every scorer reads its cap here."""
        return min([self.n_S, *(require_int(k, v, 1) for k, v in limits.items() if v is not None)])

    def __len__(self):
        return self.roles.size

    def __eq__(self, other):
        return isinstance(other, AgentStream) and np.array_equal(self.roles, other.roles)

    def __hash__(self):
        return hash(self.roles.tobytes())

    def __repr__(self):
        if len(self) <= 32:
            return f"AgentStream({self.text!r})"
        return f"AgentStream(n={len(self)}, n_S={self.n_S}, n_B={self.n_B})"


def expand(pattern: StreamPattern) -> AgentStream:
    return AgentStream(pattern.materialize())


def _balance_walk(roles: np.ndarray, alpha: int) -> np.ndarray:
    """The walk after each role: cumulative sum of +1 per seller and -alpha per buyer."""
    return np.cumsum(np.where(roles == SELLER, 1, -alpha))


def is_alpha_balanced(stream: AgentStream, alpha: int) -> bool:
    """True iff n_S = alpha * n_B and the balance walk never drops below 0."""
    alpha = require_int("alpha", alpha, 1)
    if stream.n_S != alpha * stream.n_B:
        return False
    # counts first: with buyers present alpha <= n_S, so the walk fits int64
    return stream.n_B == 0 or bool(np.all(_balance_walk(stream.roles, alpha) >= 0))


def random_alpha_balanced(alpha: int, m: int, rng: np.random.Generator) -> AgentStream:
    """Uniform random alpha-balanced stream with m buyers, in O(n), at most ``MAX_EXPANSION`` roles.

    Cycle lemma (Dvoretzky-Motzkin): of the rotations of a shuffle of
    alpha*m + 1 sellers and m buyers, exactly one keeps the balance walk
    positive, the one starting just after the walk's last minimum (no
    rotation when that is the final step).  Without its lead seller it is
    alpha-balanced, and every balanced stream comes from equally many shuffles.
    """
    alpha = require_int("alpha", alpha, 1)
    m = require_int("m", m, 0)
    if m == 0:
        return AgentStream(np.zeros(0, dtype=np.uint8))
    if alpha * m + m > MAX_EXPANSION:
        raise ValueError(f"alpha * m + m = {alpha * m + m} roles, above the streams.MAX_EXPANSION cap {MAX_EXPANSION}")
    roles = np.repeat(np.array([SELLER, BUYER], dtype=np.uint8), (alpha * m + 1, m))
    rng.shuffle(roles)
    walk = _balance_walk(roles, alpha)
    start = walk.size - int(np.argmin(walk[::-1]))
    return AgentStream(np.roll(roles, -start)[1:])


def enumerate_alpha_balanced(alpha: int, m: int) -> Iterator[AgentStream]:
    """All alpha-balanced streams with m buyers, lexicographic order; oracle-scale."""
    alpha = require_int("alpha", alpha, 1)
    n_b = require_int("m", m, 0)
    n_s = alpha * n_b
    buf = np.zeros(n_s + n_b, dtype=np.uint8)

    def rec(i, sellers_left, walk):
        if i == buf.size:
            yield AgentStream(buf.copy())
            return
        if sellers_left:
            buf[i] = SELLER
            yield from rec(i + 1, sellers_left - 1, walk + 1)
        if walk >= alpha:
            buf[i] = BUYER
            yield from rec(i + 1, sellers_left, walk - alpha)

    return rec(0, n_s, 0)
