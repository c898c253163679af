// Bounded, failure-tolerant byte serialization.
//
// All protocol messages travel as flat byte vectors. Byzantine senders may
// put arbitrary bytes on the wire, so the reader never throws on malformed
// input: it latches a failure flag and yields zeros, and decoders check
// `ok() && at_end()` once at the end. A message that fails to decode is
// treated by every protocol as absent (the paper's nodes simply ignore
// gibberish — Definition 2.2 only guarantees integrity of what was sent).
//
// Every payload is built from little-endian words (u8, u32, u64), the
// masked field-vector codec and raw bitmasks. A vector's length is fixed
// by the protocol's (n, f), so no length prefix travels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"

namespace ssbft {

using Bytes = std::vector<std::uint8_t>;

// Borrowed, read-only run of bytes: a pointer plus a 32-bit length. The
// owner (a Bytes buffer, a PayloadArena — see sim/message.h) must outlive
// every span over it. Packed to 12 bytes with 4-byte alignment so a
// Message (two node ids, a channel and a span) fits in 24 bytes.
#pragma pack(push, 4)
class ByteSpan {
 public:
  ByteSpan() = default;
  ByteSpan(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {
    SSBFT_REQUIRE_MSG(size <= UINT32_MAX, "ByteSpan: payload over 4 GiB");
  }
  // Implicit: every Bytes buffer reads as a span (ByteReader, Outbox).
  ByteSpan(const Bytes& b) : ByteSpan(b.data(), b.size()) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint32_t size_ = 0;
};
#pragma pack(pop)
static_assert(sizeof(ByteSpan) == 12 && alignof(ByteSpan) == 4,
              "ByteSpan must stay 12 bytes so Message packs into 24");

// Little-endian append-only encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  // Compact fixed-length vector codec for sparse field vectors. `len` is
  // known to both sides, so no length prefix travels. Wire layout:
  //
  //   ceil(len/8) mask bytes   bit i (byte i/8, bit i%8) = entry i present;
  //                            bits >= len MUST be zero.
  //   packed values            the present entries in index order, each
  //                            `value_bits` bits, bit-packed LSB-first into
  //                            ceil(popcount * value_bits / 8) bytes;
  //                            padding bits in the last byte MUST be zero.
  //
  // Entries equal to `absent` are masked out and cost 1 bit instead of
  // `value_bits` bits. Every present entry must fit in `value_bits` bits
  // (contract error otherwise, from one OR-reduced check over the present
  // values before anything is packed); callers encoding canonical field
  // elements pass value_bits = bit width of (modulus - 1).
  //
  // At value_bits = 61 (the default field) every 8 present values are a
  // byte-aligned 61-byte block, and both directions work one mask byte at
  // a time through the kernels in support/bitpack61.h: mask bytes are
  // built without branches, a full mask byte at a block boundary packs
  // from (or unpacks into) the caller's array directly, other bytes pass
  // their values through an 8-value stage, and the last partial block is
  // packed zero-padded. The bit layout — and therefore every wire byte —
  // is identical to the scalar window, which -DSSBFT_SIMD=off restores as
  // the single reference path.
  void masked_u64_vec(const std::uint64_t* data, std::size_t len,
                      std::uint64_t absent, unsigned value_bits = 64);

  // Raw fixed-width bitmask: `nbits` bits from bitword storage (bit i =
  // word i/64, bit i%64), as ceil(nbits/8) bytes; padding bits in the last
  // byte MUST be zero (they are taken from the words verbatim, so callers
  // keep bits >= nbits clear — bitword_clear does).
  void bits(const std::uint64_t* words, std::size_t nbits);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  // Drops the content but keeps the buffer's capacity, so a long-lived
  // writer can build payloads beat after beat without reallocating.
  void clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

// Bounds-checked decoder over a borrowed span. The bytes must outlive the
// reader.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();

  // Decodes ByteWriter::masked_u64_vec of a known `len` into dst[0..len):
  // masked-out entries are set to `absent`. Returns true on success. On any
  // malformed input — truncated mask, truncated packed tail, nonzero mask
  // bits >= len, nonzero padding bits — the failure flag latches, dst is
  // untouched and false is returned; decoders keep checking
  // `ok() && at_end()` exactly as after the word reads. An "overlong tail"
  // (extra bytes after the packed values) is not consumed here and
  // therefore fails the caller's at_end() check.
  bool masked_u64_vec_into(std::uint64_t* dst, std::size_t len,
                           std::uint64_t absent, unsigned value_bits = 64);

  // Decodes ByteWriter::bits into bitword storage (the caller provides
  // bitword_count(nbits) words). Rejects nonzero padding bits in the last
  // byte; on failure the words are untouched.
  bool bits_into(std::uint64_t* words, std::size_t nbits);

  // True iff no read has run past the end so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed (and no read failed).
  bool at_end() const { return ok_ && pos_ == buf_.size(); }

 private:
  bool take(std::size_t len, const std::uint8_t** out);

  ByteSpan buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ssbft
