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

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

// The word encoders grow the buffer once per call and store whole words.
void ByteWriter::u16(std::uint16_t v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 2);
  store_le(buf_.data() + at, v, 2);
}

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

void ByteWriter::u64_vec(const std::vector<std::uint64_t>& v) {
  u64_vec(v.data(), v.size());
}

void ByteWriter::u64_vec(const std::uint64_t* data, std::size_t len) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 4 + 8 * len);
  std::uint8_t* p = buf_.data() + at;
  store_le(p, static_cast<std::uint32_t>(len), 4);
  for (std::size_t i = 0; i < len; ++i) store_le(p + 4 + 8 * i, data[i], 8);
}

void ByteWriter::bytes(const Bytes& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::masked_u64_vec(const std::uint64_t* data, std::size_t len,
                                std::uint64_t absent, unsigned value_bits) {
  SSBFT_REQUIRE_MSG(value_bits >= 1 && value_bits <= 64,
                    "masked_u64_vec: value_bits out of range");
  const std::uint64_t max_value =
      value_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << value_bits) - 1;
  const std::size_t mask_bytes = (len + 7) / 8;
  std::size_t present = 0;
  for (std::size_t i = 0; i < len; ++i) present += data[i] != absent;
  const std::size_t packed_bytes = (present * value_bits + 7) / 8;
  // One zero-filling resize sizes mask and packed region exactly; the
  // write below fills in mask bits and whole packed bytes (padding bits in
  // the last byte stay zero, as the decoder requires).
  const std::size_t start = buf_.size();
  buf_.resize(start + mask_bytes + packed_bytes, 0);
  std::uint8_t* const mask = buf_.data() + start;
  std::uint8_t* out = mask + mask_bytes;
#if !defined(SSBFT_SIMD_DISABLED)
  // Bulk path for the default field width: 8 present values pack to
  // exactly 61 byte-aligned bytes, so full blocks bypass the bit window
  // entirely (bitpack61 emits the identical LSB-first layout) and only the
  // sub-block tail streams through it. -DSSBFT_SIMD=off keeps the window
  // below as the reference for the whole vector.
  if (value_bits == bitpack61::kValueBits &&
      present >= bitpack61::kBlockValues) {
    std::uint64_t stage[bitpack61::kBlockValues];
    std::size_t staged = 0;
    for (std::size_t i = 0; i < len; ++i) {
      if (data[i] == absent) continue;
      SSBFT_REQUIRE_MSG(data[i] <= max_value,
                        "masked_u64_vec: value wider than value_bits");
      mask[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
      stage[staged++] = data[i];
      if (staged == bitpack61::kBlockValues) {
        bitpack61::pack_block(stage, out);
        out += bitpack61::kBlockBytes;
        staged = 0;
      }
    }
    unsigned __int128 tail_acc = 0;
    unsigned tail_bits = 0;
    for (std::size_t j = 0; j < staged; ++j) {
      tail_acc |= static_cast<unsigned __int128>(stage[j]) << tail_bits;
      tail_bits += value_bits;
      if (tail_bits >= 64) {
        const std::uint64_t w = static_cast<std::uint64_t>(tail_acc);
        std::memcpy(out, &w, 8);
        out += 8;
        tail_acc >>= 64;
        tail_bits -= 64;
      }
    }
    while (tail_bits > 0) {
      *out++ = static_cast<std::uint8_t>(tail_acc);
      tail_acc >>= 8;
      tail_bits = tail_bits >= 8 ? tail_bits - 8 : 0;
    }
    return;
  }
#endif
  // Present values stream LSB-first through a 128-bit window, flushed in
  // 8-byte stores; the flush invariant (flushed*8 + acc_bits = bits
  // produced <= present*value_bits) keeps every store in bounds.
  unsigned __int128 acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (data[i] == absent) continue;
    SSBFT_REQUIRE_MSG(data[i] <= max_value,
                      "masked_u64_vec: value wider than value_bits");
    mask[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
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

std::uint16_t ByteReader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
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

std::vector<std::uint64_t> ByteReader::u64_vec(std::size_t max_elems) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_elems || remaining() < std::size_t{n} * 8) {
    ok_ = false;
    return {};
  }
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

std::size_t ByteReader::u64_vec_into(std::uint64_t* dst,
                                     std::size_t max_elems) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_elems || remaining() < std::size_t{n} * 8) {
    ok_ = false;
    return 0;
  }
  for (std::uint32_t i = 0; i < n; ++i) dst[i] = u64();
  return n;
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
  // Count the present entries; nonzero mask bits >= len are non-canonical.
  std::size_t present = 0;
  for (std::size_t i = 0; i < mask_bytes; ++i) {
    std::uint8_t m = mask[i];
    if (i + 1 == mask_bytes && len % 8 != 0) {
      if ((m >> (len % 8)) != 0) {
        ok_ = false;
        return false;
      }
    }
    for (; m != 0; m &= static_cast<std::uint8_t>(m - 1)) ++present;
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
  const std::uint64_t value_mask =
      value_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << value_bits) - 1;
#if !defined(SSBFT_SIMD_DISABLED)
  // Bulk path mirroring the writer: every full run of 8 present values is
  // a byte-aligned 61-byte block (all failure checks above are shared, so
  // the accept/reject behavior is identical to the window path below).
  if (value_bits == bitpack61::kValueBits &&
      present >= bitpack61::kBlockValues) {
    std::uint64_t stage[bitpack61::kBlockValues];
    std::size_t avail = 0, next = 0, rem = present, pos = 0;
    for (std::size_t i = 0; i < len; ++i) {
      if ((mask[i / 8] >> (i % 8) & 1u) == 0) {
        dst[i] = absent;
        continue;
      }
      if (next == avail) {
        if (rem >= bitpack61::kBlockValues) {
          bitpack61::unpack_block(packed + pos, stage);
          pos += bitpack61::kBlockBytes;
          avail = bitpack61::kBlockValues;
        } else {
          // Sub-block tail: the stream is byte-aligned here; drain the
          // remaining rem values through the reference window.
          unsigned __int128 acc = 0;
          unsigned acc_bits = 0;
          for (std::size_t j = 0; j < rem; ++j) {
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
            stage[j] = static_cast<std::uint64_t>(acc) & value_mask;
            acc >>= value_bits;
            acc_bits -= value_bits;
          }
          avail = rem;
        }
        next = 0;
      }
      dst[i] = stage[next++];
      --rem;
    }
    return true;
  }
#endif
  // Values stream out of a 128-bit window refilled with 8-byte loads
  // (falling back to single bytes near the end of the packed region).
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

Bytes ByteReader::bytes(std::size_t max_len) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_len || remaining() < n) {
    ok_ = false;
    return {};
  }
  const std::uint8_t* p = nullptr;
  take(n, &p);
  return Bytes(p, p + n);
}

std::string to_hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (std::uint8_t c : b) {
    s.push_back(digits[c >> 4]);
    s.push_back(digits[c & 0xf]);
  }
  return s;
}

}  // namespace ssbft
