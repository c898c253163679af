// Unit tests for the support layer: deterministic RNG and the
// failure-tolerant byte codec (the first line of defense against
// Byzantine payloads).
#include <gtest/gtest.h>

#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>

#include "harness/table.h"
#include "support/bitpack61.h"
#include "support/bitwords.h"
#include "support/bytes.h"
#include "support/check.h"
#include "support/rng.h"

namespace ssbft {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStability) {
  // Splits derive from the origin seed, not generator position: drawing
  // before splitting must not change the split stream.
  Rng a(7), b(7);
  (void)a.next_u64();
  (void)a.next_u64();
  Rng sa = a.split("stream");
  Rng sb = b.split("stream");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sa.next_u64(), sb.next_u64());
}

TEST(Rng, SplitIndependenceAcrossLabels) {
  Rng root(7);
  Rng a = root.split("alpha");
  Rng b = root.split("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, IndexedSplitsDiffer) {
  Rng root(9);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 50; ++i) {
    firsts.insert(root.split("node", i).next_u64());
  }
  EXPECT_EQ(firsts.size(), 50u);
}

TEST(Rng, IndexedSplitStreamsAreIndependent) {
  // Not just distinct first draws: the full streams of split(label, i) and
  // split(label, j) must not collide or shadow each other.
  Rng root(11);
  Rng a = root.split("trial", 3);
  Rng b = root.split("trial", 4);
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, IndexedSplitDisjointFromLabelSplit) {
  // split("x") and split("x", i) are different streams for every i,
  // including the tempting i = 0 collision.
  Rng root(13);
  Rng plain = root.split("x");
  Rng indexed = root.split("x", 0);
  int same = 0;
  for (int i = 0; i < 128; ++i) {
    if (plain.next_u64() == indexed.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, IndexedSplitStability) {
  // Indexed splits derive from the origin seed: consuming draws or making
  // other splits first must not perturb the (label, index) stream.
  Rng a(21), b(21);
  (void)a.next_u64();
  (void)a.split("other");
  (void)a.split("node", 5);
  Rng sa = a.split("node", 3);
  Rng sb = b.split("node", 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sa.next_u64(), sb.next_u64());
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroIsContractError) {
  Rng r(3);
  EXPECT_THROW(r.next_below(0), contract_error);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(r.next_bernoulli(0.0));
    EXPECT_TRUE(r.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (r.next_bernoulli(0.3)) ++hits;
  }
  const double p = static_cast<double>(hits) / trials;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, BoolRoughlyFair) {
  Rng r(13);
  int ones = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (r.next_bool()) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.02);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, TruncatedReadLatchesFailure) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u64(), 0u);  // past end
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.at_end());
  // Subsequent reads stay failed, never throw.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, AtEndRequiresFullConsumption) {
  ByteWriter w;
  w.u8(7);
  w.u8(0);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.at_end());  // one byte left over: trailing garbage
}

// --- Masked field-vector codec (ByteWriter::masked_u64_vec) ---------------

// Encode then decode through the masked codec, for the round-trip property
// tests: it must carry exactly the same logical vector (sentinels
// included), in fewer bytes than plain words.
std::vector<std::uint64_t> masked_round_trip(
    const std::vector<std::uint64_t>& v, std::uint64_t absent,
    unsigned value_bits) {
  ByteWriter w;
  w.masked_u64_vec(v.data(), v.size(), absent, value_bits);
  ByteReader r(w.data());
  std::vector<std::uint64_t> out(v.size(), ~std::uint64_t{0});
  EXPECT_TRUE(r.masked_u64_vec_into(out.data(), out.size(), absent,
                                    value_bits));
  EXPECT_TRUE(r.at_end());
  return out;
}

TEST(MaskedCodec, RoundTripPropertyVsPlainReference) {
  Rng rng(71);
  const std::uint64_t absent = (std::uint64_t{1} << 61) - 1;  // 2^61 - 1
  for (unsigned value_bits : {61u, 64u, 13u, 1u}) {
    const std::uint64_t value_bound =
        value_bits >= 61 ? absent : (std::uint64_t{1} << value_bits);
    for (int iter = 0; iter < 50; ++iter) {
      const std::size_t len = rng.next_below(40);
      std::vector<std::uint64_t> v(len);
      for (auto& x : v) {
        x = rng.next_bernoulli(0.3) ? absent : rng.next_below(value_bound);
      }
      EXPECT_EQ(masked_round_trip(v, absent, value_bits), v);
      // And in fewer bytes than a u32 length word plus len u64 words
      // whenever values pack below 64 bits: absent entries cost 1 bit
      // instead of value_bits, and sub-64-bit values pack tighter even
      // when all are present. (At value_bits = 64 an all-present vector
      // longer than 32 can spend more on mask bytes than the length word
      // it drops, so no strict inequality holds there.)
      ByteWriter masked;
      masked.masked_u64_vec(v.data(), v.size(), absent, value_bits);
      if (len > 0 && value_bits < 64) {
        EXPECT_LT(masked.size(), 4 + 8 * len);
      }
    }
  }
}

TEST(MaskedCodec, EmptyVectorIsZeroBytes) {
  ByteWriter w;
  w.masked_u64_vec(nullptr, 0, 7, 61);
  EXPECT_EQ(w.size(), 0u);
  ByteReader r(w.data());
  EXPECT_TRUE(r.masked_u64_vec_into(nullptr, 0, 7, 61));
  EXPECT_TRUE(r.at_end());
}

TEST(MaskedCodec, TruncatedMaskRejected) {
  ByteWriter w;
  w.u8(0xff);  // 13-entry vector needs 2 mask bytes; provide 1
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(13, 42);
  EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), 13, 0, 61));
  EXPECT_FALSE(r.ok());
  for (auto x : dst) EXPECT_EQ(x, 42u);  // dst untouched on failure
}

TEST(MaskedCodec, TruncatedPackedTailRejected) {
  ByteWriter w;
  w.u8(0x07);  // 3 of 8 entries present -> needs ceil(3*61/8) = 23 bytes
  w.u64(1);    // only 8 provided
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(8, 42);
  EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), 8, 0, 61));
  EXPECT_FALSE(r.ok());
  for (auto x : dst) EXPECT_EQ(x, 42u);
}

TEST(MaskedCodec, OverlongTailFailsAtEnd) {
  // Trailing bytes after the packed values are not consumed: the decode
  // itself succeeds but the caller's at_end() contract rejects the
  // payload, exactly like trailing garbage after any other read.
  std::vector<std::uint64_t> v{5, 6};
  ByteWriter w;
  w.masked_u64_vec(v.data(), v.size(), 7, 61);
  w.u8(0xcc);
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(2);
  EXPECT_TRUE(r.masked_u64_vec_into(dst.data(), 2, 7, 61));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.at_end());
}

TEST(MaskedCodec, MaskBitsBeyondLengthRejected) {
  ByteWriter w;
  w.u8(0xff);  // 5-entry vector: bits 5..7 must be zero
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(5, 42);
  EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), 5, 0, 61));
  EXPECT_FALSE(r.ok());
  for (auto x : dst) EXPECT_EQ(x, 42u);
}

TEST(MaskedCodec, NonzeroPaddingBitsRejected) {
  // One present 61-bit value packs into 8 bytes with 3 padding bits; set
  // one of them.
  ByteWriter w;
  w.u8(0x01);
  w.u64((std::uint64_t{1} << 61) | 123);  // bit 61 is padding
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(1, 42);
  EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), 1, 0, 61));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(dst[0], 42u);
}

TEST(MaskedCodec, SentinelSmugglingDecodesToTheSentinel) {
  // A Byzantine encoder can mark an entry present and pack the sentinel
  // value itself (it fits in 61 bits for the Mersenne prime). The decode
  // must yield exactly the sentinel — indistinguishable from a masked-out
  // entry to the caller's validity check — never some aliased value.
  const std::uint64_t sentinel = (std::uint64_t{1} << 61) - 1;
  ByteWriter w;
  w.u8(0x01);
  w.u64(sentinel);  // 61 value bits + 3 zero padding bits = 8 bytes
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(1, 0);
  EXPECT_TRUE(r.masked_u64_vec_into(dst.data(), 1, sentinel, 61));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(dst[0], sentinel);
}

TEST(MaskedCodec, WriterRejectsValuesWiderThanValueBits) {
  const std::uint64_t v = std::uint64_t{1} << 13;
  ByteWriter w;
  EXPECT_THROW(w.masked_u64_vec(&v, 1, 0, 13), contract_error);
  EXPECT_THROW(w.masked_u64_vec(&v, 1, 0, 0), contract_error);
  EXPECT_THROW(w.masked_u64_vec(&v, 1, 0, 65), contract_error);
}

TEST(MaskedCodec, SixtyFourBitValuesSupported) {
  std::vector<std::uint64_t> v{~std::uint64_t{0} - 1, 3,
                               ~std::uint64_t{0} - 1};
  EXPECT_EQ(masked_round_trip(v, 3, 64),
            (std::vector<std::uint64_t>{~std::uint64_t{0} - 1, 3,
                                        ~std::uint64_t{0} - 1}));
}

// --- 61-bit block kernels behind the masked codec -------------------------
//
// At value_bits = 61 full runs of 8 present values travel through the bulk
// block packer in support/bitpack61.h. The wire layout is defined by the
// scalar bit-window, so these tests pin (a) the block kernels against a
// bit-by-bit reference, vector backend against the portable one, and (b)
// the full codec against itself across every mask shape that straddles the
// block boundary — wire bytes must be identical no matter which path ran.

TEST(Bitpack61, BlockMatchesBitByBitReference) {
  Rng rng(611);
  const std::uint64_t mask61 = (std::uint64_t{1} << 61) - 1;
  for (int iter = 0; iter < 200; ++iter) {
    std::uint64_t v[8];
    for (auto& x : v) x = rng.next_u64() & mask61;
    if (iter == 0) for (auto& x : v) x = mask61;  // all-ones edge
    if (iter == 1) for (auto& x : v) x = 0;
    std::uint8_t got[bitpack61::kBlockBytes];
    bitpack61::pack_block(v, got);
    // Reference: place bit b of value k at packed bit 61k + b.
    std::uint8_t want[bitpack61::kBlockBytes] = {0};
    for (int k = 0; k < 8; ++k) {
      for (int b = 0; b < 61; ++b) {
        const std::size_t bit = 61 * k + b;
        if ((v[k] >> b) & 1) want[bit / 8] |= std::uint8_t(1u << (bit % 8));
      }
    }
    ASSERT_EQ(std::memcmp(got, want, sizeof want), 0) << "iter " << iter;
    std::uint64_t back[8];
    bitpack61::unpack_block(got, back);
    for (int k = 0; k < 8; ++k) ASSERT_EQ(back[k], v[k]);
  }
}

TEST(Bitpack61, DispatchedKernelsMatchPortable) {
  Rng rng(612);
  const std::uint64_t mask61 = (std::uint64_t{1} << 61) - 1;
  for (int iter = 0; iter < 100; ++iter) {
    std::uint64_t v[8];
    for (auto& x : v) x = rng.next_u64() & mask61;
    std::uint8_t a[bitpack61::kBlockBytes], b[bitpack61::kBlockBytes];
    bitpack61::pack_block(v, a);
    bitpack61::pack_block_portable(v, b);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0);
    std::uint64_t va[8], vb[8];
    bitpack61::unpack_block(a, va);
    bitpack61::unpack_block_portable(a, vb);
    for (int k = 0; k < 8; ++k) {
      ASSERT_EQ(va[k], v[k]);
      ASSERT_EQ(vb[k], v[k]);
    }
  }
}

TEST(MaskedCodec, BlockPathMaskShapesRoundTrip) {
  // Lengths and masks chosen to hit: all-present multi-block runs, a
  // sub-block tail (present % 8 != 0), alternating masks (block path never
  // engages), all-absent, and single-value slack around the 8-value
  // threshold.
  Rng rng(613);
  const std::uint64_t absent = (std::uint64_t{1} << 61) - 1;
  for (std::size_t len : {std::size_t{7}, std::size_t{8}, std::size_t{9},
                          std::size_t{15}, std::size_t{16}, std::size_t{17},
                          std::size_t{64}, std::size_t{129}}) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<std::uint64_t> v(len);
      for (std::size_t i = 0; i < len; ++i) {
        const bool present = shape == 0   ? true
                             : shape == 1 ? false
                             : shape == 2 ? (i % 2 == 0)
                                          : !rng.next_bernoulli(0.25);
        v[i] = present ? rng.next_u64() % absent : absent;
      }
      EXPECT_EQ(masked_round_trip(v, absent, 61), v)
          << "len=" << len << " shape=" << shape;
    }
  }
}

TEST(MaskedCodec, BlockAndWindowEncodersAgreeByteForByte) {
  // Force the scalar window by using value_bits = 60 (no block path) on
  // 61-bit-shaped data... that changes the wire format, so instead compare
  // the 61-bit encoding of an all-present vector against an independent
  // bit-by-bit packer: every byte must match the layout contract.
  Rng rng(614);
  const std::uint64_t mask61 = (std::uint64_t{1} << 61) - 1;
  const std::size_t len = 19;  // 2 full blocks + 3-value tail
  std::vector<std::uint64_t> v(len);
  for (auto& x : v) x = rng.next_u64() & (mask61 - 1);  // never the sentinel
  ByteWriter w;
  w.masked_u64_vec(v.data(), len, mask61, 61);
  const std::size_t mask_bytes = (len + 7) / 8;
  const std::size_t packed_bytes = (len * 61 + 7) / 8;
  ASSERT_EQ(w.size(), mask_bytes + packed_bytes);
  std::vector<std::uint8_t> want(packed_bytes, 0);
  for (std::size_t k = 0; k < len; ++k) {
    for (int b = 0; b < 61; ++b) {
      const std::size_t bit = 61 * k + b;
      if ((v[k] >> b) & 1) want[bit / 8] |= std::uint8_t(1u << (bit % 8));
    }
  }
  ASSERT_EQ(std::memcmp(w.data().data() + mask_bytes, want.data(),
                        packed_bytes),
            0);
}

TEST(MaskedCodec, BlockPathSentinelSmuggling) {
  // Same Byzantine trick as SentinelSmugglingDecodesToTheSentinel but with
  // enough present values (>= 8) that the bulk decode path runs: a packed
  // sentinel must still come out as exactly the sentinel.
  const std::uint64_t sentinel = (std::uint64_t{1} << 61) - 1;
  std::uint64_t block[8] = {1, 2, sentinel, 4, 5, sentinel, 7, 8};
  ByteWriter w;
  w.u8(0xff);  // all 8 present
  std::uint8_t packed[bitpack61::kBlockBytes];
  bitpack61::pack_block_portable(block, packed);
  for (auto byte : packed) w.u8(byte);
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(8, 0);
  EXPECT_TRUE(r.masked_u64_vec_into(dst.data(), 8, sentinel, 61));
  EXPECT_TRUE(r.at_end());
  for (int k = 0; k < 8; ++k) EXPECT_EQ(dst[k], block[k]);
}

TEST(MaskedCodec, BlockPathStrictnessPreserved) {
  // The bulk path shares the window path's failure checks; a truncated
  // packed region under an all-present 16-entry mask must still latch.
  ByteWriter w;
  w.u8(0xff);
  w.u8(0xff);  // 16 present -> needs 122 bytes; provide 61
  for (int i = 0; i < 61; ++i) w.u8(0xaa);
  ByteReader r(w.data());
  std::vector<std::uint64_t> dst(16, 42);
  EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), 16, 0, 61));
  EXPECT_FALSE(r.ok());
  for (auto x : dst) EXPECT_EQ(x, 42u);
}

// --- Byte-at-a-time bulk path ---------------------------------------------
//
// The 61-bit codec works one mask byte at a time: a full byte at a block
// boundary packs straight from (or unpacks straight into) the caller's
// array, other bytes go through a stage. The reference below is the wire
// contract written out bit by bit. The masks put a full byte behind every
// staging phase 0..7 (byte 0 carries `phase` present entries, byte 1 is
// full), then mix full, partial and empty bytes, so staged values and
// direct blocks interleave at every offset.

Bytes reference_masked_encoding(const std::vector<std::uint64_t>& v,
                                std::uint64_t absent, unsigned value_bits) {
  Bytes out((v.size() + 7) / 8, 0);
  std::vector<bool> bits;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == absent) continue;
    out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    for (unsigned b = 0; b < value_bits; ++b) bits.push_back((v[i] >> b) & 1);
  }
  const std::size_t mask_bytes = out.size();
  out.resize(mask_bytes + (bits.size() + 7) / 8, 0);
  for (std::size_t b = 0; b < bits.size(); ++b) {
    if (bits[b]) out[mask_bytes + b / 8] |= std::uint8_t(1u << (b % 8));
  }
  return out;
}

std::vector<std::uint64_t> phase_shaped_vector(std::size_t len,
                                               std::size_t phase,
                                               std::uint64_t absent,
                                               Rng& rng) {
  std::vector<std::uint64_t> v(len, absent);
  for (std::size_t byte = 0; byte * 8 < len; ++byte) {
    // Byte 0 stages `phase` values and byte 1 is full behind them; later
    // bytes are full, empty or partial, biased toward full runs.
    const std::uint64_t kind =
        byte == 0 ? 4 : byte == 1 ? 0 : rng.next_below(4);
    for (std::size_t i = 8 * byte; i < len && i < 8 * byte + 8; ++i) {
      const bool present = kind <= 1   ? true
                           : kind == 2 ? false
                           : kind == 4 ? i % 8 < phase
                                       : rng.next_bool();
      if (present) v[i] = rng.next_u64() % absent;  // never the sentinel
    }
  }
  return v;
}

TEST(MaskedCodec, ByteAtATimeMatchesReferenceAtEveryStagingPhase) {
  Rng rng(615);
  const std::uint64_t absent = (std::uint64_t{1} << 61) - 1;
  for (std::size_t len = 1; len <= 130; ++len) {
    for (std::size_t phase = 0; phase < 8; ++phase) {
      const auto v = phase_shaped_vector(len, phase, absent, rng);
      const Bytes want = reference_masked_encoding(v, absent, 61);
      ByteWriter w;
      w.u8(0x5a);  // the codec appends: an earlier field must stay intact
      w.masked_u64_vec(v.data(), len, absent, 61);
      ASSERT_EQ(w.size(), 1 + want.size()) << "len=" << len
                                           << " phase=" << phase;
      ASSERT_EQ(w.data()[0], 0x5a);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), w.data().begin() + 1))
          << "len=" << len << " phase=" << phase;
      // Decode the reference bytes: the exact vector, every byte consumed.
      ByteReader r(want);
      std::vector<std::uint64_t> got(len, 42);
      ASSERT_TRUE(r.masked_u64_vec_into(got.data(), len, absent, 61));
      ASSERT_TRUE(r.at_end());
      ASSERT_EQ(got, v) << "len=" << len << " phase=" << phase;
    }
  }
}

TEST(MaskedCodec, ByteAtATimeRejectsLikeTheWindow) {
  // Truncating the packed tail, a trailing byte and a set padding bit are
  // rejected on every shape, with dst untouched on the decode failures.
  Rng rng(616);
  const std::uint64_t absent = (std::uint64_t{1} << 61) - 1;
  for (std::size_t len = 1; len <= 130; len += 3) {
    for (std::size_t phase = 0; phase < 8; ++phase) {
      const auto v = phase_shaped_vector(len, phase, absent, rng);
      const Bytes good = reference_masked_encoding(v, absent, 61);
      const std::size_t mask_bytes = (len + 7) / 8;
      const std::vector<std::uint64_t> untouched(len, 42);
      if (good.size() > mask_bytes) {
        Bytes cut(good.begin(), good.end() - 1);
        ByteReader r(cut);
        std::vector<std::uint64_t> dst = untouched;
        EXPECT_FALSE(r.masked_u64_vec_into(dst.data(), len, absent, 61));
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(dst, untouched) << "len=" << len << " phase=" << phase;
      }
      Bytes longer = good;
      longer.push_back(0);
      ByteReader lr(longer);
      std::vector<std::uint64_t> dst(len);
      EXPECT_TRUE(lr.masked_u64_vec_into(dst.data(), len, absent, 61));
      EXPECT_FALSE(lr.at_end());
      const std::size_t packed_bits = (good.size() - mask_bytes) * 8;
      std::size_t present = 0;
      for (auto x : v) present += x != absent;
      if (present * 61 < packed_bits) {
        Bytes padded = good;
        padded.back() |= 0x80;
        ByteReader pr(padded);
        std::vector<std::uint64_t> pd = untouched;
        EXPECT_FALSE(pr.masked_u64_vec_into(pd.data(), len, absent, 61));
        EXPECT_EQ(pd, untouched) << "len=" << len << " phase=" << phase;
      }
    }
  }
}

TEST(MaskedCodec, OneWidthCheckCoversEveryPresentValue) {
  // A too-wide value anywhere (a direct block, the stage, the tail) is the
  // same contract error; a too-wide *absent* value is never checked.
  const std::uint64_t absent = (std::uint64_t{1} << 61) - 1;
  for (const std::size_t at : {0, 7, 8, 13, 16, 20}) {
    std::vector<std::uint64_t> v(21, 5);
    v[3] = absent;
    v[at] = std::uint64_t{1} << 61;
    ByteWriter w;
    EXPECT_THROW(w.masked_u64_vec(v.data(), v.size(), absent, 61),
                 contract_error)
        << "at=" << at;
  }
  std::vector<std::uint64_t> v(9, ~std::uint64_t{0});
  v[2] = 1;
  ByteWriter w;
  EXPECT_NO_THROW(w.masked_u64_vec(v.data(), v.size(), ~std::uint64_t{0}, 61));
}

// --- Raw bitmask codec (ByteWriter::bits) ---------------------------------

TEST(BitsCodec, RoundTripAcrossWordBoundary) {
  for (std::size_t nbits : {std::size_t{1}, std::size_t{8}, std::size_t{13},
                            std::size_t{64}, std::size_t{70}}) {
    std::vector<std::uint64_t> words(bitword_count(nbits), 0);
    Rng rng(5 + nbits);
    for (std::size_t i = 0; i < nbits; ++i) {
      bitword_set(words.data(), i, rng.next_bool());
    }
    ByteWriter w;
    w.bits(words.data(), nbits);
    EXPECT_EQ(w.size(), (nbits + 7) / 8);
    std::vector<std::uint64_t> out(words.size(), ~std::uint64_t{0});
    ByteReader r(w.data());
    EXPECT_TRUE(r.bits_into(out.data(), nbits));
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(out, words);
  }
}

TEST(BitsCodec, PaddingBitsRejected) {
  ByteWriter w;
  w.u8(0xff);
  w.u8(0xff);  // 13-bit mask: bits 13..15 must be zero
  ByteReader r(w.data());
  std::uint64_t out = 42;
  EXPECT_FALSE(r.bits_into(&out, 13));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(out, 42u);  // untouched on failure
}

TEST(BitsCodec, TruncatedRejected) {
  ByteWriter w;
  w.u8(0x11);
  ByteReader r(w.data());
  std::uint64_t out = 42;
  EXPECT_FALSE(r.bits_into(&out, 13));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(out, 42u);
}

TEST(Bitwords, GetSetRoundTripAcrossWordBoundaries) {
  std::uint64_t words[3] = {0, 0, 0};
  ASSERT_EQ(bitword_count(130), 3u);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{127},
                        std::size_t{128}, std::size_t{129}}) {
    EXPECT_FALSE(bitword_get(words, i));
    bitword_set(words, i, true);
    EXPECT_TRUE(bitword_get(words, i)) << i;
  }
  bitword_set(words, 64, false);
  EXPECT_FALSE(bitword_get(words, 64));
  EXPECT_TRUE(bitword_get(words, 63));
  EXPECT_TRUE(bitword_get(words, 65));
  bitword_clear(words, 130);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(bitword_get(words, i));
}

TEST(Bitwords, LayoutMatchesWireFormat) {
  // Bit i in word i/64 at position i%64 — the vote-mask wire layout.
  std::uint64_t words[2] = {0, 0};
  bitword_set(words, 0, true);
  bitword_set(words, 5, true);
  bitword_set(words, 64, true);
  EXPECT_EQ(words[0], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5));
  EXPECT_EQ(words[1], std::uint64_t{1});
}

TEST(Check, MacrosThrowContractErrors) {
  EXPECT_THROW(SSBFT_CHECK(false), contract_error);
  EXPECT_THROW(SSBFT_REQUIRE(1 == 2), contract_error);
  EXPECT_NO_THROW(SSBFT_CHECK(true));
  try {
    SSBFT_REQUIRE_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("3.5 (p90 8)"), "3.5 (p90 8)");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rcell"), "\"cr\rcell\"");
}

TEST(AsciiTable, WideRowsAlignAndWidthsFitContent) {
  // The large-n scaling grid produces cells far wider than their headers
  // (n=128 scenario labels, 6+ digit ns/beat values). Every rendered line —
  // rules, header, rows — must have identical length, with columns sized to
  // the widest cell.
  AsciiTable t({"n", "ns/beat"});
  t.add_row({"128", "12345678.9"});
  t.add_row({"scaling-large/fm/n128/gallery", "7"});
  std::ostringstream os;
  t.print(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t expect = 0;
  int count = 0;
  while (std::getline(lines, line)) {
    if (expect == 0) expect = line.size();
    EXPECT_EQ(line.size(), expect) << "line: " << line;
    ++count;
  }
  EXPECT_EQ(count, 6);  // rule, header, rule, 2 rows, rule
  EXPECT_NE(os.str().find("| scaling-large/fm/n128/gallery | 7          |"),
            std::string::npos)
      << os.str();
}

TEST(AsciiTable, PrintIgnoresAmbientStreamFormattingState) {
  // Reports interleave tables with code that sets fill/adjustfield on the
  // shared stream; the table must pad with spaces regardless, and must not
  // leak formatting flags back to the caller.
  AsciiTable t({"name", "value"});
  t.add_row({"x", "123456"});
  std::ostringstream os;
  os.fill('0');
  os.setf(std::ios::right, std::ios::adjustfield);
  os << std::setw(0);
  t.print(os);
  EXPECT_EQ(os.str().find('0'), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("| x    | 123456 |"), std::string::npos) << os.str();
  EXPECT_EQ(os.fill(), '0');
  EXPECT_EQ(os.flags() & std::ios::adjustfield, std::ios::right);
}

TEST(AsciiTable, CsvEscapesCommaQuoteAndNewline) {
  AsciiTable t({"configuration", "note, quoted"});
  t.add_row({"4-clock, two pipelines", "plain"});
  t.add_row({"he said \"go\"", "multi\nline"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(),
            "configuration,\"note, quoted\"\n"
            "\"4-clock, two pipelines\",plain\n"
            "\"he said \"\"go\"\"\",\"multi\nline\"\n");
}

}  // namespace
}  // namespace ssbft
