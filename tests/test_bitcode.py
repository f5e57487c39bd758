import math

import pytest
from hypothesis import given, strategies as st

from conftest import bitstring
from twostage.bitcode import (BitReader, BitString, TruncatedStreamError,
                              elias_encode)


def test_smallest_codeword():
    assert str(elias_encode(1)) == "1"


def test_gamma_construction_five():
    assert str(elias_encode(5)) == "00101"


def test_decode_examples():
    for bits, value in (("1", 1), ("00101", 5), ("0001000", 8)):
        r = BitReader(bitstring(bits))
        assert r.read_gamma() == value
        assert r.cursor == len(bits)


def test_truncated_prefix():
    for bits in ("", "00", "0010", "000"):
        r = BitReader(bitstring(bits))
        with pytest.raises(TruncatedStreamError):
            r.read_gamma()
        assert r.cursor == 0        # a failed read consumes nothing


def test_domain_error():
    with pytest.raises(ValueError):
        elias_encode(0)
    with pytest.raises(ValueError):
        elias_encode(-3)


def test_round_trip_exhaustive():
    for i in range(1, 100_001):
        assert BitReader(elias_encode(i)).read_gamma() == i


def test_length_law():
    for i in range(1, 20_000):
        assert len(elias_encode(i)) == 2 * int(math.log2(i)) + 1


def test_prefix_free_by_sorting():
    words = sorted(str(elias_encode(i)) for i in range(1, 10_001))
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a)


@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=0, max_size=30))
def test_concatenation_round_trip(values):
    stream = sum((elias_encode(v) for v in values), BitString())
    r = BitReader(stream)
    decoded = [r.read_gamma() for _ in values]
    assert decoded == values
    assert r.cursor == len(stream)


def pack_bits(bits) -> bytes:
    """Reference packer: MSB first, one bit at a time, zero-padding only
    the final byte."""
    out = bytearray()
    acc, k = 0, 0
    for b in bits:
        acc, k = (acc << 1) | b, k + 1
        if k == 8:
            out.append(acc)
            acc, k = 0, 0
    if k:
        out.append(acc << (8 - k))
    return bytes(out)


@given(st.lists(st.integers(0, 1), max_size=80))
def test_bitstring_bytes_round_trip(bits):
    s = "".join(map(str, bits))
    bs = BitString(int(s or "0", 2), len(s))
    assert str(bs) == s and len(bs) == len(s)
    assert bs.to_bytes() == pack_bits(bits)


def test_bitstring_checks_its_width():
    assert str(BitString(5, 6)) == "000101"
    assert BitString(1, 3) != BitString(1, 4)
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 3)
    with pytest.raises(AttributeError):
        BitString(1, 1).value = 0


def test_reader_cursor():
    stream = elias_encode(1) + elias_encode(5) + elias_encode(9)
    r = BitReader(stream)
    assert [r.read_gamma() for _ in range(3)] == [1, 5, 9]
    assert r.cursor == len(stream)
    with pytest.raises(TruncatedStreamError):
        r.read_bit()


def test_read_bits_is_atomic():
    r = BitReader(bitstring("1011001"))
    assert r.read_bits(3) == 0b101
    with pytest.raises(TruncatedStreamError):
        r.read_bits(5)
    assert r.cursor == 3
    assert r.read_bits(4) == 0b1001 and r.read_bits(0) == 0
