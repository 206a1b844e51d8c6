"""Exact combinatorics of a complete b-ary tree over its leaf indices.

Leaves are labelled 0..n-1 in left-to-right order, so the leaf at index i
corresponds to the length-H base-b digit string of i (most significant digit
= topmost branch).  With this labelling every complete subtree covers a
contiguous index range [root, root + b**h), and all height arithmetic is
integer-only: the height of a pair is the position of the most significant
differing base-b digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

_MAX_N = 2**64 - 1


def check_branching(b) -> int:
    """b, when it is an integer >= 2."""
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"branching factor b must be an integer >= 2, got {b!r}")
    return b


def check_shrink(c) -> float:
    """c as a float, when it is a finite real > 1."""
    value = float(c)
    if not math.isfinite(value) or value <= 1.0:
        raise ValueError(f"shrink factor c must be a finite real > 1, got {c!r}")
    return value


@dataclass(frozen=True)
class TreeParams:
    """Model parameters: branching factor b, tree height H, shrink factor c.

    The leaf count n = b**H is derived exactly (integer power, never via
    floating point) and must fit in 64 bits.
    """

    b: int
    H: int
    c: float

    def __post_init__(self) -> None:
        check_branching(self.b)
        if not isinstance(self.H, int) or self.H < 1:
            raise ValueError(f"tree height H must be an integer >= 1, got {self.H!r}")
        object.__setattr__(self, "c", check_shrink(self.c))
        # b >= 2, so H >= 64 is out of range; testing it first avoids
        # building a huge power from an outsized H
        if self.H >= 64 or self.b ** self.H > _MAX_N:
            raise ValueError(f"leaf count b**H = {self.b}**{self.H} exceeds 64-bit range")

    @property
    def n(self) -> int:
        """Number of leaves, b**H (exact)."""
        return self.b ** self.H

    def check_leaf(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"leaf index {u} out of range [0, {self.n})")


@dataclass(frozen=True)
class VertexSet:
    """A set of leaves with its cached height and enclosing-subtree root.

    `height` is the height of the minimal complete subtree containing all
    members (0 for singletons and for the empty set), and `root` is that
    subtree's leftmost leaf index.  Construct through :meth:`from_leaves` so
    the cached fields stay consistent.
    """

    members: tuple[int, ...]
    height: int
    root: int

    @classmethod
    def from_leaves(cls, leaves: Iterable[int], params: TreeParams) -> "VertexSet":
        members = tuple(sorted(set(leaves)))
        if not members:
            return cls((), 0, 0)
        for u in (members[0], members[-1]):
            params.check_leaf(u)
        h = 0 if len(members) == 1 else pair_height(members[0], members[-1], params)
        block = params.b ** h
        return cls(members, h, (members[0] // block) * block)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, u: int) -> bool:
        return u in self.member_set

    def is_complete(self, params: TreeParams) -> bool:
        """True when the set fills its minimal subtree: |M| = b**height."""
        return len(self.members) == params.b ** self.height


def pair_height(u: int, v: int, params: TreeParams) -> int:
    """Height of the smallest subtree containing both leaves u and v.

    Defined only for distinct leaves; the result lies in [1, H].
    """
    params.check_leaf(u)
    params.check_leaf(v)
    if u == v:
        raise ValueError(f"pair height undefined for identical leaves (u = v = {u})")
    if params.b == 2:
        return (u ^ v).bit_length()
    b = params.b
    h = 0
    while u != v:
        u //= b
        v //= b
        h += 1
    return h


def pairs_at_height(j: int, h: int, params: TreeParams) -> int:
    """Number of unordered leaf pairs at height exactly j inside one
    complete set of height h: b**(h-j) * C(b,2) * b**(2*(j-1)).

    Exact integer arithmetic; requires 1 <= j <= h <= H.
    """
    if not 1 <= j <= h <= params.H:
        raise ValueError(
            f"need 1 <= j <= h <= H, got j={j}, h={h}, H={params.H}"
        )
    b = params.b
    return b ** (h - j) * math.comb(b, 2) * b ** (2 * (j - 1))
