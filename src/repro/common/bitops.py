"""Bit-manipulation helpers shared across the simulator.

The paper's predictors index their history tables with small hashes of the
program counter, the virtual page number, and the physical block address.
All of them are *fold-XOR* hashes: the value is split into ``width``-bit
subblocks which are XOR-ed together (Section V-A: "The hash is computed by
dividing the PC into subblocks and XOR-ing them").
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return a bitmask with the low ``width`` bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def fold_xor(value: int, width: int, input_bits: int = 64) -> int:
    """Fold ``value`` into ``width`` bits by XOR-ing ``width``-bit subblocks.

    This is the hash function used for h(PC), h(VPN) and h(block address)
    throughout the paper's predictor designs.

    ``input_bits`` bounds how much of ``value`` participates; higher bits are
    discarded first (addresses are at most 64 bits here).

    >>> fold_xor(0b1010_0101, 4)
    15
    >>> fold_xor(0, 6)
    0
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    # The masks are inlined: the predictors fold on every fill, and two
    # ``mask()`` calls cost more than the fold itself.
    value &= (1 << input_bits) - 1
    result = 0
    m = (1 << width) - 1
    while value:
        result ^= value & m
        value >>= width
    return result


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two.

    >>> is_power_of_two(8)
    True
    >>> is_power_of_two(12)
    False
    """
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power-of-two ``value``; raise otherwise.

    >>> log2_exact(1024)
    10
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of a power-of-two ``alignment``."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def bits_to_bytes(bits: int) -> float:
    """Convert a bit count to bytes (used by the storage-overhead analysis)."""
    return bits / 8.0
