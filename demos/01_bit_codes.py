"""Self-delimiting integer codes: the first-stage wire format.

The waiting time transmitted by the encoder is an unbounded positive
integer, so it is written with an Elias gamma code: a unary length prefix
followed by the binary digits.  No terminator is needed -- the code is
prefix-free -- which is what lets the decoder consume exactly the right
number of bits before the quantizer codeword starts.  A codeword is just
an integer written in a fixed number of bits: gamma(i) is i itself in
2*floor(log2 i) + 1 bits, the leading zeros giving its length.
"""

from twostage.bitcode import BitReader, elias_encode

print("value -> codeword")
for i in (1, 2, 3, 5, 17, 100, 4096):
    c = elias_encode(i)
    print(f"{i:5d} -> {c}  (the integer {c.value} in {len(c)} bits)")

print("\nlength grows as 2*floor(log2 i) + 1:")
for i in (1, 10, 100, 1000, 10_000):
    print(f"  len(gamma({i})) = {len(elias_encode(i))}")

stream = elias_encode(7) + elias_encode(1) + elias_encode(300)
print(f"\nconcatenated stream: {stream}")
reader = BitReader(stream)
out = []
while reader.cursor < len(stream):
    out.append(reader.read_gamma())
print(f"decoded back: {out}")

print(f"as one integer: {stream.value} in {len(stream)} bits")
print(f"as bytes: {stream.to_bytes().hex()} (the last byte zero-padded)")
