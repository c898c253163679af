#include "support/bytes.h"

#include <cstring>

#include "support/bitpack61.h"
#include "support/check.h"

namespace ssbft {

namespace {

// Little-endian store of the low `width` bytes of v; compilers fold the
// shifts into one store on little-endian targets.
inline void store_le(std::uint8_t* p, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Set bits of a mask byte (no popcnt instruction in the base ISA).
inline std::size_t popcount8(unsigned m) {
  m = m - ((m >> 1) & 0x55u);
  m = (m & 0x33u) + ((m >> 2) & 0x33u);
  return (m + (m >> 4)) & 0x0Fu;
}

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

// The word encoders grow the buffer once per call and store whole words.
void ByteWriter::u32(std::uint32_t v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 4);
  store_le(buf_.data() + at, v, 4);
}

void ByteWriter::u64(std::uint64_t v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 8);
  store_le(buf_.data() + at, v, 8);
}

void ByteWriter::masked_u64_vec(const std::uint64_t* data, std::size_t len,
                                std::uint64_t absent, unsigned value_bits) {
  SSBFT_REQUIRE_MSG(value_bits >= 1 && value_bits <= 64,
                    "masked_u64_vec: value_bits out of range");
  const std::uint64_t max_value =
      value_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << value_bits) - 1;
  // Mask bytes go straight into the buffer, built without branches, and
  // the present values are OR-reduced into one width check, made before
  // any value is packed.
  const std::size_t mask_bytes = (len + 7) / 8;
  const std::size_t start = buf_.size();
  buf_.resize(start + mask_bytes);
  std::uint64_t seen = 0;
  const std::size_t present = bitpack61::presence_mask(
      data, len, absent, buf_.data() + start, &seen);
  SSBFT_REQUIRE_MSG((seen & ~max_value) == 0,
                    "masked_u64_vec: value wider than value_bits");
  // The second resize zero-fills the packed region (the padding bits of
  // its last byte must stay zero, as the decoder requires) plus one
  // block of slack, so the bulk path can pack its last, partial block
  // whole; the slack is cut off again at the end.
  const std::size_t packed_bytes = (present * value_bits + 7) / 8;
  const std::size_t end = start + mask_bytes + packed_bytes;
  buf_.resize(end + bitpack61::kBlockBytes, 0);
  const std::uint8_t* const mask = buf_.data() + start;
  std::uint8_t* out = buf_.data() + start + mask_bytes;
#if !defined(SSBFT_SIMD_DISABLED)
  // Bulk path for the default field width: 8 present values pack to
  // exactly 61 byte-aligned bytes (bitpack61 emits the window's LSB-first
  // layout), so the stream is worked one mask byte at a time. A full byte
  // that starts a block packs from the caller's array directly; any other
  // byte appends its present values to the stage, which packs once it
  // holds a block. The last, partial block packs zero-padded into the
  // slack. -DSSBFT_SIMD=off keeps the window below as the reference for
  // the whole vector.
  if (value_bits == bitpack61::kValueBits) {
    const std::size_t len8 = len / 8;
    constexpr std::size_t kBlock = bitpack61::kBlockValues;
    std::uint64_t stage[2 * kBlock] = {};
    std::size_t staged = 0;
    for (std::size_t b = 0; b < mask_bytes; ++b) {
      const unsigned m = mask[b];
      const std::uint64_t* src = data + 8 * b;
      if (m == 0xFF && staged == 0) {
        bitpack61::pack_block(src, out);
        out += bitpack61::kBlockBytes;
        continue;
      }
      // Branch-free append: every entry is written, only present ones
      // advance the stage.
      const std::size_t count = b < len8 ? 8 : len % 8;
      for (std::size_t k = 0; k < count; ++k) {
        stage[staged] = src[k];
        staged += (m >> k) & 1u;
      }
      // The stage was just written with scalar stores; the portable
      // packer's 8-byte loads forward from them, the vector one's do not.
      if (staged >= kBlock) {
        bitpack61::pack_block_portable(stage, out);
        out += bitpack61::kBlockBytes;
        staged -= kBlock;
        for (std::size_t j = 0; j < staged; ++j) stage[j] = stage[kBlock + j];
      }
    }
    if (staged > 0) {
      for (std::size_t j = staged; j < kBlock; ++j) stage[j] = 0;  // padding
      bitpack61::pack_block_portable(stage, out);
    }
    buf_.resize(end);
    return;
  }
#endif
  // Present values stream LSB-first through a 128-bit window, flushed in
  // 8-byte stores; the flush invariant (flushed*8 + acc_bits = bits
  // produced <= present*value_bits) keeps every store in bounds.
  unsigned __int128 acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if ((mask[i / 8] >> (i % 8) & 1u) == 0) continue;
    acc |= static_cast<unsigned __int128>(data[i]) << acc_bits;
    acc_bits += value_bits;
    if (acc_bits >= 64) {
      const std::uint64_t w = static_cast<std::uint64_t>(acc);
      std::memcpy(out, &w, 8);
      out += 8;
      acc >>= 64;
      acc_bits -= 64;
    }
  }
  while (acc_bits > 0) {
    *out++ = static_cast<std::uint8_t>(acc);
    acc >>= 8;
    acc_bits = acc_bits >= 8 ? acc_bits - 8 : 0;
  }
  buf_.resize(end);
}

void ByteWriter::bits(const std::uint64_t* words, std::size_t nbits) {
  for (std::size_t base = 0; base < nbits; base += 8) {
    buf_.push_back(
        static_cast<std::uint8_t>(words[base / 64] >> (base % 64)));
  }
}

bool ByteReader::take(std::size_t len, const std::uint8_t** out) {
  if (!ok_ || buf_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  *out = buf_.data() + pos_;
  pos_ += len;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint32_t ByteReader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

bool ByteReader::masked_u64_vec_into(std::uint64_t* dst, std::size_t len,
                                     std::uint64_t absent,
                                     unsigned value_bits) {
  if (value_bits < 1 || value_bits > 64) {
    ok_ = false;
    return false;
  }
  const std::size_t mask_bytes = (len + 7) / 8;
  const std::uint8_t* mask = nullptr;
  if (!take(mask_bytes, &mask)) return false;
  // Nonzero mask bits >= len are non-canonical.
  if (len % 8 != 0 && (mask[mask_bytes - 1] >> (len % 8)) != 0) {
    ok_ = false;
    return false;
  }
  std::size_t present = 0;
  for (std::size_t i = 0; i < mask_bytes; ++i) {
    present += popcount8(mask[i]);
  }
  const std::size_t packed_bits = present * value_bits;
  const std::size_t packed_bytes = (packed_bits + 7) / 8;
  const std::uint8_t* packed = nullptr;
  if (!take(packed_bytes, &packed)) return false;
  // Padding bits after the last value must be zero (canonical encoding;
  // also what makes encode(decode(x)) the identity on the wire).
  if (packed_bits % 8 != 0 &&
      (packed[packed_bytes - 1] >> (packed_bits % 8)) != 0) {
    ok_ = false;
    return false;
  }
#if !defined(SSBFT_SIMD_DISABLED)
  // Bulk path mirroring the writer, one mask byte at a time (all failure
  // checks above are shared, so the accept/reject behavior is identical to
  // the window path below). A full byte at a block boundary unpacks
  // straight into dst; any other byte takes its values from the stage,
  // refilled a block at a time. The stream is byte-aligned at every block
  // boundary, and the last, partial block unpacks zero-padded.
  if (value_bits == bitpack61::kValueBits) {
    constexpr std::size_t kBlock = bitpack61::kBlockValues;
    // Unread staged values are stage[rd .. rd + have): at most 7 left over
    // plus one block, so reads (even past the last value) stay inside.
    std::uint64_t stage[2 * kBlock] = {};
    std::size_t rd = 0, have = 0, pos = 0;
    const std::size_t len8 = len / 8;
    for (std::size_t b = 0; b < mask_bytes; ++b) {
      const unsigned m = mask[b];
      std::uint64_t* d = dst + 8 * b;
      if (m == 0xFF && have == 0) {
        bitpack61::unpack_block(packed + pos, d);
        pos += bitpack61::kBlockBytes;
        continue;
      }
      const std::size_t c = popcount8(m);
      if (have < c) {
        for (std::size_t j = 0; j < have; ++j) stage[j] = stage[rd + j];
        rd = 0;
        if (packed_bytes - pos >= bitpack61::kBlockBytes) {
          bitpack61::unpack_block(packed + pos, stage + have);
          pos += bitpack61::kBlockBytes;
        } else {
          std::uint8_t last[bitpack61::kBlockBytes] = {};
          std::memcpy(last, packed + pos, packed_bytes - pos);
          bitpack61::unpack_block_portable(last, stage + have);
          pos = packed_bytes;
        }
        // A tail block's zero padding counts too; the mask never asks
        // for it.
        have += kBlock;
      }
      const std::size_t count = b < len8 ? 8 : len % 8;
      for (std::size_t k = 0; k < count; ++k) {
        const unsigned bit = (m >> k) & 1u;
        d[k] = bit != 0 ? stage[rd] : absent;
        rd += bit;
      }
      have -= c;
    }
    return true;
  }
#endif
  // Values stream out of a 128-bit window refilled with 8-byte loads
  // (falling back to single bytes near the end of the packed region).
  const std::uint64_t value_mask =
      value_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << value_bits) - 1;
  unsigned __int128 acc = 0;
  unsigned acc_bits = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if ((mask[i / 8] >> (i % 8) & 1u) == 0) {
      dst[i] = absent;
      continue;
    }
    while (acc_bits < value_bits) {
      if (acc_bits <= 64 && pos + 8 <= packed_bytes) {
        std::uint64_t w;
        std::memcpy(&w, packed + pos, 8);
        pos += 8;
        acc |= static_cast<unsigned __int128>(w) << acc_bits;
        acc_bits += 64;
      } else {
        acc |= static_cast<unsigned __int128>(packed[pos]) << acc_bits;
        ++pos;
        acc_bits += 8;
      }
    }
    dst[i] = static_cast<std::uint64_t>(acc) & value_mask;
    acc >>= value_bits;
    acc_bits -= value_bits;
  }
  return true;
}

bool ByteReader::bits_into(std::uint64_t* words, std::size_t nbits) {
  const std::size_t nbytes = (nbits + 7) / 8;
  const std::uint8_t* p = nullptr;
  if (!take(nbytes, &p)) return false;
  if (nbits % 8 != 0 && (p[nbytes - 1] >> (nbits % 8)) != 0) {
    ok_ = false;
    return false;
  }
  for (std::size_t w = 0; w * 64 < nbits; ++w) words[w] = 0;
  for (std::size_t base = 0; base < nbits; base += 8) {
    words[base / 64] |=
        static_cast<std::uint64_t>(p[base / 8]) << (base % 64);
  }
  return true;
}

}  // namespace ssbft
