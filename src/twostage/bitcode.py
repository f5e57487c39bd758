"""Prefix-free binary plumbing: Elias gamma integer codes and a bit-exact stream.

Bit order is most-significant-bit first within each codeword.  A stream is
just a concatenation of codewords; the reader relies on bit counts, never on
byte padding.
"""

from __future__ import annotations


class TruncatedStreamError(ValueError):
    """Raised when a stream ends in the middle of a codeword."""


class BitString:
    """Immutable finite sequence of 0/1 symbols."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        self._bits = bits

    @property
    def bits(self) -> tuple:
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString(self._bits[i])
        return self._bits[i]

    def __add__(self, other: "BitString") -> "BitString":
        out = BitString()
        out._bits = self._bits + other._bits
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, BitString) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self._bits)

    def __repr__(self) -> str:
        return f"BitString('{self}')"

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padding only the final byte."""
        out = bytearray()
        acc, k = 0, 0
        for b in self._bits:
            acc = (acc << 1) | b
            k += 1
            if k == 8:
                out.append(acc)
                acc, k = 0, 0
        if k:
            out.append(acc << (8 - k))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitString":
        if nbits > 8 * len(data):
            raise ValueError("nbits exceeds available data")
        bits = []
        for i in range(nbits):
            byte = data[i // 8]
            bits.append((byte >> (7 - i % 8)) & 1)
        return cls(bits)


def elias_encode(i: int) -> BitString:
    """Elias gamma codeword of a positive integer.

    Length is exactly 2*floor(log2 i) + 1 bits: a run of floor(log2 i)
    zeros followed by the binary digits of i.
    """
    if i < 1:
        raise ValueError(f"Elias gamma is defined for integers >= 1, got {i}")
    payload = [int(c) for c in bin(i)[2:]]
    return BitString([0] * (len(payload) - 1) + payload)


def elias_decode(stream: BitString, cursor: int = 0) -> tuple[int, int]:
    """Decode one gamma codeword starting at ``cursor``.

    Returns (value, new cursor).  Raises TruncatedStreamError if the stream
    ends mid-codeword.
    """
    n = len(stream)
    if cursor < 0 or cursor > n:
        raise ValueError("cursor out of range")
    zeros = 0
    while cursor + zeros < n and stream[cursor + zeros] == 0:
        zeros += 1
    start = cursor + zeros
    end = start + zeros + 1
    if start >= n or end > n:
        raise TruncatedStreamError(
            f"stream ends inside a gamma codeword at bit {cursor}"
        )
    value = 0
    for k in range(start, end):
        value = (value << 1) | stream[k]
    return value, end


class BitReader:
    """Single-threaded cursor over a BitString."""

    def __init__(self, stream: BitString, cursor: int = 0):
        self.stream = stream
        self.cursor = cursor

    def read_bit(self) -> int:
        if self.cursor >= len(self.stream):
            raise TruncatedStreamError("no bits left")
        b = self.stream[self.cursor]
        self.cursor += 1
        return b

    def read_gamma(self) -> int:
        v, self.cursor = elias_decode(self.stream, self.cursor)
        return v
