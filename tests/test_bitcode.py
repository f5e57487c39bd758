import math

import pytest
from hypothesis import given, strategies as st

from twostage.bitcode import (BitReader, BitString, TruncatedStreamError,
                              elias_decode, elias_encode)


def test_smallest_codeword():
    assert str(elias_encode(1)) == "1"


def test_gamma_construction_five():
    assert str(elias_encode(5)) == "00101"


def test_decode_examples():
    assert elias_decode(BitString(map(int, "1"))) == (1, 1)
    assert elias_decode(BitString(map(int, "00101"))) == (5, 5)


def test_truncated_prefix():
    with pytest.raises(TruncatedStreamError):
        elias_decode(BitString(map(int, "00")))
    with pytest.raises(TruncatedStreamError):
        elias_decode(BitString(map(int, "0010")))


def test_domain_error():
    with pytest.raises(ValueError):
        elias_encode(0)
    with pytest.raises(ValueError):
        elias_encode(-3)


def test_round_trip_exhaustive():
    for i in range(1, 100_001):
        assert elias_decode(elias_encode(i))[0] == i


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


def test_bitstring_bytes_round_trip():
    s = BitString(map(int, "101100111010001"))
    assert BitString.from_bytes(s.to_bytes(), len(s)) == s


def test_reader_cursor():
    stream = elias_encode(1) + elias_encode(5) + elias_encode(9)
    r = BitReader(stream)
    assert [r.read_gamma() for _ in range(3)] == [1, 5, 9]
    assert r.cursor == len(stream)
    with pytest.raises(TruncatedStreamError):
        r.read_bit()
