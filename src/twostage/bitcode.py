"""Prefix-free binary plumbing: Elias gamma integer codes and a bit-exact stream.

A bit string is one integer and a length: the integer's binary digits,
most-significant bit first, left-padded with zeros to the length.  A stream
is just a concatenation of codewords; the reader relies on bit counts, never
on byte padding.
"""

from __future__ import annotations

from dataclasses import dataclass


class TruncatedStreamError(ValueError):
    """Raised when a stream ends in the middle of a codeword."""


@dataclass(frozen=True, slots=True, repr=False)
class BitString:
    """Immutable bit sequence: ``value`` written in ``length`` bits, MSB first."""

    value: int = 0
    length: int = 0

    def __post_init__(self):
        if not 0 <= self.value < 1 << self.length:
            raise ValueError(f"{self.value} does not fit in {self.length} bits")

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:
        return f"BitString('{self}')"

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padding only the final byte."""
        pad = -self.length % 8
        return (self.value << pad).to_bytes((self.length + pad) // 8, "big")


def elias_encode(i: int) -> BitString:
    """Elias gamma codeword of a positive integer.

    Length is exactly 2*floor(log2 i) + 1 bits: a run of floor(log2 i)
    zeros followed by the binary digits of i.
    """
    if i < 1:
        raise ValueError(f"Elias gamma is defined for integers >= 1, got {i}")
    return BitString(i, 2 * i.bit_length() - 1)


class BitReader:
    """Single-threaded cursor over a BitString.  Every read is atomic: one
    that would run past the end raises TruncatedStreamError and leaves the
    cursor where it was."""

    def __init__(self, stream: BitString):
        self.stream = stream
        self.cursor = 0

    def read_bits(self, k: int) -> int:
        """The next k bits as an integer, MSB first."""
        end = self.cursor + k
        if end > len(self.stream):
            raise TruncatedStreamError(
                f"stream ends inside a codeword at bit {self.cursor}")
        self.cursor = end
        return (self.stream.value >> (len(self.stream) - end)) & ((1 << k) - 1)

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_gamma(self) -> int:
        """One Elias gamma codeword: z zeros, then z + 1 bits of value."""
        rest = len(self.stream) - self.cursor
        zeros = rest - (self.stream.value & ((1 << rest) - 1)).bit_length()
        if 2 * zeros + 1 > rest:
            raise TruncatedStreamError(
                f"stream ends inside a gamma codeword at bit {self.cursor}")
        self.cursor += zeros
        return self.read_bits(zeros + 1)
