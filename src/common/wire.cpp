// Batch varint column codec (see wire.h).
//
// The v4 trace codec stores whole columns of LEB128 varints: seq deltas,
// string ids, ordinals, zig-zag timestamps.  The column calls below are the
// per-value loops: every value decodes through
// wire_detail::decode_varint_strict, so truncation and overlong rejection
// are decided by exactly one piece of code, and every value encodes as the
// canonical write_varint() bytes.  Word-at-a-time and SIMD variants were
// measured end to end and removed: none beat these loops.
#include "common/wire.h"

#include "common/compress.h"

namespace causeway {

std::string_view to_string(VarintKernel kernel) {
  switch (kernel) {
    case VarintKernel::kScalar: return "scalar";
  }
  return "?";
}

VarintKernel active_varint_kernel() { return VarintKernel::kScalar; }

void WireCursor::read_varint_column(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = wire_detail::decode_varint_strict(data_, end_, pos_);
  }
}

void WireCursor::read_svarint_column(std::int64_t* out, std::size_t n) {
  // Decode raw varints in place (int64/uint64 alias legally), then zig-zag
  // in one pass.
  auto* raw = reinterpret_cast<std::uint64_t*>(out);
  read_varint_column(raw, n);
  zigzag_decode_column(out, n);
}

namespace {

constexpr std::size_t kEncodeChunk = 512;  // values per scratch block

// Appends the canonical LEB128 bytes of map(values[i]) for every i.  Each
// block of values is encoded into a stack buffer sized for the 10-byte
// worst case and lands in `bytes` with one insert, which keeps the buffer's
// capacity check off the per-byte path.
template <typename T, typename Map>
void append_varints(std::vector<std::uint8_t>& bytes, const T* values,
                    std::size_t n, Map map) {
  std::uint8_t scratch[kEncodeChunk * 10];
  while (n > 0) {
    const std::size_t take = n < kEncodeChunk ? n : kEncodeChunk;
    std::uint8_t* p = scratch;
    for (std::size_t i = 0; i < take; ++i) {
      std::uint64_t v = map(values[i]);
      while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
      }
      *p++ = static_cast<std::uint8_t>(v);
    }
    bytes.insert(bytes.end(), scratch, p);
    values += take;
    n -= take;
  }
}

}  // namespace

void WireBuffer::write_varint_column(const std::uint64_t* values,
                                     std::size_t n) {
  append_varints(bytes_, values, n, [](std::uint64_t v) { return v; });
}

void WireBuffer::write_svarint_column(const std::int64_t* values,
                                      std::size_t n) {
  append_varints(bytes_, values, n, zigzag_encode);
}

void zigzag_encode_column(std::uint64_t* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = (values[i] << 1) ^ (0ULL - (values[i] >> 63));
  }
}

void zigzag_decode_column(std::int64_t* values, std::size_t n) {
  auto* v = reinterpret_cast<std::uint64_t*>(values);
  for (std::size_t i = 0; i < n; ++i) v[i] = (v[i] >> 1) ^ (0ULL - (v[i] & 1));
}

void delta_encode_column(std::uint64_t* values, std::size_t n) {
  for (std::size_t i = n; i-- > 1;) values[i] -= values[i - 1];
}

void prefix_sum_column(std::int64_t* values, std::size_t n) {
  auto* v = reinterpret_cast<std::uint64_t*>(values);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += v[i];
    v[i] = acc;
  }
}

// --- Column blocks (trace format v5) ---------------------------------------

void write_column_block(WireBuffer& out, std::span<const std::uint8_t> payload,
                        bool try_deflate) {
  // Tiny payloads can't win: deflate's own framing eats the savings, and
  // the attempt itself costs a codec setup per column.
  constexpr std::size_t kDeflateFloor = 64;
  if (try_deflate && payload.size() >= kDeflateFloor) {
    if (auto deflated = deflate_bytes(payload)) {
      out.write_u8(kColumnCodecDeflate);
      out.write_varint(payload.size());
      out.write_varint(deflated->size());
      out.append_raw(*deflated);
      return;
    }
  }
  out.write_u8(kColumnCodecRaw);
  out.write_varint(payload.size());
  out.append_raw(payload);
}

std::span<const std::uint8_t> read_column_block(
    WireCursor& in, std::size_t max_decoded,
    std::vector<std::uint8_t>& scratch) {
  const std::uint8_t codec = in.read_u8();
  if (codec == kColumnCodecRaw) {
    const std::uint64_t len = in.read_varint();
    if (len > max_decoded) throw WireError("column block too large");
    const std::string_view v = in.read_view(static_cast<std::size_t>(len));
    return {reinterpret_cast<const std::uint8_t*>(v.data()), v.size()};
  }
  if (codec != kColumnCodecDeflate) {
    throw WireError("unknown column block codec");
  }
  const std::uint64_t raw_len = in.read_varint();
  const std::uint64_t comp_len = in.read_varint();
  // Reject before allocating: a block cannot legitimately decode to more
  // than the column's structural maximum, and raw deflate tops out around
  // 1032:1, so a huge raw_len over a tiny stream is always hostile.
  if (raw_len > max_decoded) throw WireError("column block too large");
  const std::string_view comp = in.read_view(static_cast<std::size_t>(comp_len));
  try {
    inflate_bytes(
        {reinterpret_cast<const std::uint8_t*>(comp.data()), comp.size()},
        static_cast<std::size_t>(raw_len), scratch);
  } catch (const CompressError& e) {
    throw WireError(e.what());
  }
  return {scratch.data(), scratch.size()};
}

}  // namespace causeway
