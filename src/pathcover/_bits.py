"""Bitmask helpers for vertex sets, seed mixing and the integer check of the
entry points.

Vertex sets are represented as Python ints (bit i set = vertex i present),
which makes intersection, popcount and subset scans cheap even at n = 600.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

_MASK64 = (1 << 64) - 1


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def nth_bit(mask: int, idx: int) -> int:
    """Position of the idx-th set bit (0-based). idx must be < popcount."""
    if not 0 <= idx < mask.bit_count():
        raise IndexError("bit index out of range")
    # Keep the half of the window that holds the bit: log2(bit_length) steps.
    offset = 0
    while idx:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        c = low.bit_count()
        if idx < c:
            mask = low
        else:
            idx -= c
            mask >>= half
            offset += half
    return offset + (mask & -mask).bit_length() - 1


def mix64(*parts: int) -> int:
    """Deterministic seed derivation (splitmix64 chain over the parts).

    Used instead of hash() so derived seeds are stable across processes
    and Python versions.
    """
    z = 0x9E3779B97F4A7C15
    for p in parts:
        z = (z + (p & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


def int_arg(name: str, value) -> int:
    """`value` as a Python int: ValueError for a bool and for anything that
    `operator.index` refuses (a float, NaN, ±inf); numpy integers pass."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def seed_arg(value) -> int:
    """`int_arg("seed", value)`, which must also lie in [0, 2**64): seeds
    are mixed modulo 2**64, so -1 and 2**64 - 1 would give the same run."""
    seed = int_arg("seed", value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed
