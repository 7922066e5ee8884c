// Tests for the batch varint column codec (common/wire.h): a column call
// must decode the same bytes to the same values, leave the cursor at the
// same position, and raise the same WireError text at the same input as a
// loop of single-value reads (WireCursor::read_varint), over randomized
// columns and adversarial encodings (overlong varints, max-length values,
// truncated tails).  On the write side a column call must emit the bytes a
// loop of write_varint() calls would.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/wire.h"

namespace causeway {
namespace {

// Either the values + final cursor position or the thrown error text.
struct ColumnOutcome {
  std::vector<std::uint64_t> values;
  std::size_t position{0};
  bool threw{false};
  std::string error;

  bool operator==(const ColumnOutcome&) const = default;
};

template <typename Decode>
ColumnOutcome run_decode(const std::vector<std::uint8_t>& bytes,
                         std::size_t n, Decode decode) {
  ColumnOutcome out;
  out.values.resize(n);
  WireCursor cursor(bytes.data(), bytes.size());
  try {
    decode(cursor, out.values);
    out.position = cursor.position();
  } catch (const WireError& e) {
    out.threw = true;
    out.error = e.what();
    out.values.clear();
    out.position = 0;
  }
  return out;
}

// Decodes `n` varints from `bytes` with one read_varint_column call.
ColumnOutcome decode_column(const std::vector<std::uint8_t>& bytes,
                            std::size_t n) {
  return run_decode(bytes, n, [n](WireCursor& c, std::vector<std::uint64_t>& v) {
    c.read_varint_column(v.data(), n);
  });
}

// The oracle: n strict single-value decodes.
ColumnOutcome decode_value_loop(const std::vector<std::uint8_t>& bytes,
                                std::size_t n) {
  return run_decode(bytes, n, [n](WireCursor& c, std::vector<std::uint64_t>& v) {
    for (std::size_t i = 0; i < n; ++i) v[i] = c.read_varint();
  });
}

void expect_column_matches_values(const std::vector<std::uint8_t>& bytes,
                                  std::size_t n, const char* label) {
  EXPECT_EQ(decode_column(bytes, n), decode_value_loop(bytes, n)) << label;
}

std::vector<std::uint64_t> random_column(std::mt19937_64& rng,
                                         std::size_t n) {
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) {
    // Mix magnitudes so runs of 1-byte varints, long encodings, and
    // 10-byte maxima all appear within one column.
    switch (rng() % 8) {
      case 0: v = rng() % 2; break;
      case 1: v = rng() % 128; break;
      case 2: v = rng() % 16384; break;
      case 3: v = rng() % (1ull << 21); break;
      case 4: v = rng() % (1ull << 35); break;
      case 5: v = rng() % (1ull << 56); break;
      case 6: v = rng(); break;
      default: v = ~0ull; break;
    }
  }
  return values;
}

TEST(WireColumn, ActiveCodecIsScalar) {
  EXPECT_EQ(active_varint_kernel(), VarintKernel::kScalar);
  EXPECT_EQ(to_string(active_varint_kernel()), "scalar");
}

TEST(WireColumn, RandomizedColumnsMatchValueLoop) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng() % 600;
    const std::vector<std::uint64_t> values = random_column(rng, n);
    WireBuffer buffer;
    for (std::uint64_t v : values) buffer.write_varint(v);
    const std::vector<std::uint8_t>& bytes = buffer.bytes();

    const ColumnOutcome got = decode_column(bytes, n);
    ASSERT_FALSE(got.threw) << "trial " << trial << ": " << got.error;
    EXPECT_EQ(got.values, values) << "trial " << trial;
    EXPECT_EQ(got.position, bytes.size());
    EXPECT_EQ(got, decode_value_loop(bytes, n)) << "trial " << trial;
  }
}

TEST(WireColumn, SingleByteRunsDecodeExactly) {
  std::vector<std::uint64_t> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i % 128;
  WireBuffer buffer;
  for (std::uint64_t v : values) buffer.write_varint(v);
  const ColumnOutcome got = decode_column(buffer.bytes(), values.size());
  ASSERT_FALSE(got.threw);
  EXPECT_EQ(got.values, values);
  EXPECT_EQ(got.position, values.size());
}

TEST(WireColumn, MaxLengthValuesRoundTrip) {
  // Every 10-byte encoding boundary: 2^63, 2^63+1, UINT64_MAX, and the
  // 9-byte maxima around 2^56.
  const std::vector<std::uint64_t> values = {
      (1ull << 63), (1ull << 63) + 1, ~0ull, (1ull << 56) - 1, (1ull << 56),
      (1ull << 62), 0, 1, 127, 128};
  WireBuffer buffer;
  for (std::uint64_t v : values) buffer.write_varint(v);
  expect_column_matches_values(buffer.bytes(), values.size(), "max-length");
  EXPECT_EQ(decode_column(buffer.bytes(), values.size()).values, values);
}

TEST(WireColumn, OverlongElevenByteVarintRejected) {
  // Eleven continuation bytes: more than any 64-bit value can need.
  std::vector<std::uint8_t> bytes(11, 0xff);
  bytes.push_back(0x00);
  expect_column_matches_values(bytes, 1, "11-byte overlong");
  const ColumnOutcome out = decode_column(bytes, 1);
  ASSERT_TRUE(out.threw);
  EXPECT_EQ(out.error, "varint overlong");
}

TEST(WireColumn, TenthByteValueBitsRejected) {
  // Ten bytes whose last carries bits beyond the 64th: overlong, even
  // though the length is legal.
  std::vector<std::uint8_t> bytes(9, 0x80);
  bytes.push_back(0x02);  // shift 63, byte > 1
  expect_column_matches_values(bytes, 1, "10th-byte overflow");
  const ColumnOutcome out = decode_column(bytes, 1);
  ASSERT_TRUE(out.threw);
  EXPECT_EQ(out.error, "varint overlong");
}

TEST(WireColumn, TruncatedTailRejected) {
  // A well-formed prefix, then a varint whose continuation bit runs off
  // the end of the input.
  WireBuffer buffer;
  for (std::uint64_t v : {5ull, 300ull, 1ull << 40}) buffer.write_varint(v);
  std::vector<std::uint8_t> bytes = buffer.bytes();
  bytes.push_back(0x80);
  bytes.push_back(0x80);
  expect_column_matches_values(bytes, 4, "truncated tail");
  const ColumnOutcome out = decode_column(bytes, 4);
  ASSERT_TRUE(out.threw);
  EXPECT_EQ(out.error, "wire underflow");
}

TEST(WireColumn, EmptyInputUnderflows) {
  const std::vector<std::uint8_t> empty;
  expect_column_matches_values(empty, 1, "empty input");
  const ColumnOutcome out = decode_column(empty, 1);
  ASSERT_TRUE(out.threw);
  EXPECT_EQ(out.error, "wire underflow");
  // A zero-length column reads nothing, even from nothing.
  EXPECT_FALSE(decode_column(empty, 0).threw);
}

TEST(WireColumn, TruncationsAtEveryLength) {
  // For every encoded length 1..10, truncate one byte short after a run of
  // short values and require the value loop's underflow.
  for (unsigned len = 1; len <= 10; ++len) {
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 40; ++i) bytes.push_back(0x01);
    for (unsigned b = 0; b + 1 < len; ++b) bytes.push_back(0x80);
    // (len-1 continuation bytes, final byte missing)
    expect_column_matches_values(bytes, 41, "truncation mid-column");
    const ColumnOutcome out = decode_column(bytes, 41);
    ASSERT_TRUE(out.threw) << "len " << len;
    EXPECT_EQ(out.error, "wire underflow") << "len " << len;
  }
}

TEST(WireColumn, SvarintColumnMatchesValueLoop) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng() % 400;
    std::vector<std::int64_t> values(n);
    for (auto& v : values) {
      const std::uint64_t raw = rng();
      switch (rng() % 5) {
        case 0: v = static_cast<std::int64_t>(raw % 7) - 3; break;
        case 1: v = static_cast<std::int64_t>(raw % 100000) - 50000; break;
        case 2: v = static_cast<std::int64_t>(raw); break;
        case 3: v = INT64_MIN; break;
        default: v = INT64_MAX; break;
      }
    }
    WireBuffer buffer;
    for (std::int64_t v : values) buffer.write_svarint(v);

    WireCursor cursor(buffer.bytes().data(), buffer.bytes().size());
    std::vector<std::int64_t> got(n);
    cursor.read_svarint_column(got.data(), n);
    EXPECT_EQ(got, values) << "trial " << trial;
    EXPECT_EQ(cursor.remaining(), 0u);
  }
}

TEST(WireColumn, ColumnMatchesSingleValueReadsMidStream) {
  // A column decode must leave the cursor exactly where n single reads
  // would, so mixed column/scalar parsing (the v4 segment decoder) stays
  // aligned.
  WireBuffer buffer;
  buffer.write_u32(0xcafef00d);
  const std::vector<std::uint64_t> values = {1, 200, 1ull << 30, 7, ~0ull,
                                             0, 65, 1ull << 20};
  for (std::uint64_t v : values) buffer.write_varint(v);
  buffer.write_u32(0xdeadbeef);
  WireCursor cursor(buffer);
  EXPECT_EQ(cursor.read_u32(), 0xcafef00du);
  std::vector<std::uint64_t> got(values.size());
  cursor.read_varint_column(got.data(), got.size());
  EXPECT_EQ(got, values);
  EXPECT_EQ(cursor.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(cursor.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Encode side.  LEB128 is canonical, so a column write must emit exactly
// the bytes of a write_varint loop.

TEST(WireColumn, EncodeColumnMatchesValueLoop) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng() % 700;  // includes n == 0
    const std::vector<std::uint64_t> values = random_column(rng, n);

    WireBuffer reference;
    for (std::uint64_t v : values) reference.write_varint(v);
    WireBuffer column;
    column.write_varint_column(values.data(), values.size());
    EXPECT_EQ(column.bytes(), reference.bytes()) << "trial " << trial;
  }
}

TEST(WireColumn, EncodeDecodeRoundTrip) {
  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng() % 500;
    const std::vector<std::uint64_t> values = random_column(rng, n);
    WireBuffer buffer;
    buffer.write_varint_column(values.data(), values.size());
    const ColumnOutcome got = decode_column(buffer.bytes(), n);
    ASSERT_FALSE(got.threw) << got.error;
    EXPECT_EQ(got.values, values) << "trial " << trial;
    EXPECT_EQ(got.position, buffer.size());
  }
}

TEST(WireColumn, SvarintColumnExtremesRoundTrip) {
  std::vector<std::int64_t> values = {INT64_MIN, INT64_MAX, 0, -1, 1,
                                      INT64_MIN + 1, INT64_MAX - 1, -128,
                                      127, -(1ll << 40), (1ll << 40)};
  for (int i = 0; i < 40; ++i) values.push_back(i % 2 ? INT64_MIN : i);
  WireBuffer buffer;
  buffer.write_svarint_column(values.data(), values.size());

  WireBuffer reference;
  for (std::int64_t v : values) reference.write_svarint(v);
  EXPECT_EQ(buffer.bytes(), reference.bytes());

  WireCursor cursor(buffer);
  std::vector<std::int64_t> got(values.size());
  cursor.read_svarint_column(got.data(), got.size());
  EXPECT_EQ(got, values);
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(WireColumn, WriteColumnAppendsMidStream) {
  // Column writes must compose with scalar writes exactly like a loop of
  // write_varint calls would (the v4 segment encoder interleaves both).
  const std::vector<std::uint64_t> values = {1, 200, 1ull << 30, 7, ~0ull,
                                             0, 65, 1ull << 20, 3};
  const std::vector<std::int64_t> signed_values = {-1, 0, INT64_MIN, 99};
  WireBuffer buffer;
  buffer.write_u32(0xdeadbeef);
  buffer.write_varint_column(values.data(), values.size());
  buffer.write_svarint_column(signed_values.data(), signed_values.size());
  buffer.write_u32(0xfeedface);

  WireBuffer reference;
  reference.write_u32(0xdeadbeef);
  for (std::uint64_t v : values) reference.write_varint(v);
  for (std::int64_t v : signed_values) reference.write_svarint(v);
  reference.write_u32(0xfeedface);
  EXPECT_EQ(buffer.bytes(), reference.bytes());
}

// ---------------------------------------------------------------------------
// Transform passes (zig-zag, delta, prefix-sum) over whole columns must
// match the per-value definitions, including the INT64 edge values.

TEST(WireColumn, ZigZagEncodeColumnMatchesPerValue) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng() % 300;
    std::vector<std::uint64_t> raw(n);
    for (auto& v : raw) v = rng();
    if (n > 2) {
      raw[0] = static_cast<std::uint64_t>(INT64_MIN);
      raw[1] = static_cast<std::uint64_t>(INT64_MAX);
    }
    std::vector<std::uint64_t> expected(raw);
    for (auto& v : expected) {
      v = zigzag_encode(static_cast<std::int64_t>(v));
    }
    zigzag_encode_column(raw.data(), raw.size());
    EXPECT_EQ(raw, expected) << "trial " << trial;
  }
}

TEST(WireColumn, ZigZagDecodeColumnInvertsEncode) {
  std::mt19937_64 rng(100);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng() % 300;
    std::vector<std::int64_t> original(n);
    for (auto& v : original) v = static_cast<std::int64_t>(rng());
    if (n > 2) {
      original[0] = INT64_MIN;
      original[1] = INT64_MAX;
    }
    std::vector<std::uint64_t> encoded(n);
    for (std::size_t i = 0; i < n; ++i) encoded[i] = zigzag_encode(original[i]);
    auto* as_signed = reinterpret_cast<std::int64_t*>(encoded.data());
    zigzag_decode_column(as_signed, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(as_signed[i], original[i])
          << "trial " << trial << " index " << i;
    }
  }
}

TEST(WireColumn, DeltaEncodePrefixSumRoundTrip) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng() % 300;
    std::vector<std::uint64_t> original(n);
    for (auto& v : original) v = rng();

    // delta_encode_column must match the obvious forward definition.
    std::vector<std::uint64_t> deltas(original);
    delta_encode_column(deltas.data(), deltas.size());
    std::vector<std::uint64_t> expected(original);
    for (std::size_t i = 1; i < expected.size(); ++i) {
      expected[i] = original[i] - original[i - 1];
    }
    EXPECT_EQ(deltas, expected) << "trial " << trial;

    // prefix_sum_column over the deltas restores the original column
    // (all arithmetic is wrapping uint64, so this holds for any input).
    prefix_sum_column(reinterpret_cast<std::int64_t*>(deltas.data()),
                      deltas.size());
    EXPECT_EQ(deltas, original) << "trial " << trial;
  }
}

TEST(WireColumn, TransformPassesHandleEmptyAndSingle) {
  zigzag_encode_column(nullptr, 0);
  zigzag_decode_column(nullptr, 0);
  delta_encode_column(nullptr, 0);
  prefix_sum_column(nullptr, 0);
  std::uint64_t one = static_cast<std::uint64_t>(-17);
  zigzag_encode_column(&one, 1);
  EXPECT_EQ(one, zigzag_encode(std::int64_t{-17}));
  std::int64_t zone = static_cast<std::int64_t>(one);
  zigzag_decode_column(&zone, 1);
  EXPECT_EQ(zone, -17);
  std::int64_t sone = 42;
  prefix_sum_column(&sone, 1);
  EXPECT_EQ(sone, 42);
  std::uint64_t done = 9;
  delta_encode_column(&done, 1);
  EXPECT_EQ(done, 9u);
}

}  // namespace
}  // namespace causeway
