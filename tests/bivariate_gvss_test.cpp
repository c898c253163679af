// Tests for symmetric bivariate dealings and the graded-VSS building
// blocks: the share/decide/recover facts Observation 2.1 relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "coin/gvss.h"
#include "field/bivariate.h"
#include "support/bitwords.h"

namespace ssbft {
namespace {

TEST(Bivariate, SymmetryHolds) {
  PrimeField F(2305843009213693951ULL);
  Rng rng(1);
  auto B = SymmetricBivariate::sample(F, 3, 12345, rng);
  for (std::uint64_t x = 0; x < 6; ++x) {
    for (std::uint64_t y = 0; y < 6; ++y) {
      EXPECT_EQ(B.eval(F, x, y), B.eval(F, y, x));
    }
  }
}

TEST(Bivariate, SecretIsConstantTerm) {
  PrimeField F(101);
  Rng rng(2);
  auto B = SymmetricBivariate::sample(F, 2, 77, rng);
  EXPECT_EQ(B.secret(), 77u);
  EXPECT_EQ(B.eval(F, 0, 0), 77u);
}

TEST(Bivariate, RowMatchesEvaluation) {
  PrimeField F(65537);
  Rng rng(3);
  auto B = SymmetricBivariate::sample(F, 4, 9, rng);
  for (std::uint64_t x = 1; x <= 5; ++x) {
    Poly row = B.row(F, x);
    EXPECT_LE(row.degree(), 4);
    for (std::uint64_t y = 0; y <= 6; ++y) {
      EXPECT_EQ(row.eval(F, y), B.eval(F, x, y));
    }
  }
}

TEST(Bivariate, CrossCheckConsistency) {
  // The round-2 identity: f_i(j) == f_j(i) for every pair.
  PrimeField F(2305843009213693951ULL);
  Rng rng(4);
  auto B = SymmetricBivariate::sample(F, 3, 0, rng);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_EQ(B.row(F, node_point(i)).eval(F, node_point(j)),
                B.row(F, node_point(j)).eval(F, node_point(i)));
    }
  }
}

TEST(Bivariate, SharesLieOnDegreeFPolynomial) {
  // Recover-phase structure: g(x) = F(x, 0) has degree <= f and
  // g(x_i) = row_i(0).
  PrimeField F(2305843009213693951ULL);
  Rng rng(5);
  const int f = 3;
  auto B = SymmetricBivariate::sample(F, f, 4242, rng);
  std::vector<std::uint64_t> xs, ys;
  for (NodeId i = 0; i < static_cast<NodeId>(f + 1); ++i) {
    xs.push_back(node_point(i));
    ys.push_back(B.row(F, node_point(i)).eval(F, 0));
  }
  Poly g = lagrange_interpolate(F, xs, ys);
  EXPECT_LE(g.degree(), f);
  EXPECT_EQ(g.eval(F, 0), 4242u);
}

TEST(Gvss, ValidateRowAcceptsDealerOutput) {
  PrimeField F(2305843009213693951ULL);
  Rng rng(6);
  const std::uint32_t f = 2;
  auto dealing = GvssDealing::sample(F, f, rng);
  for (NodeId i = 0; i < 7; ++i) {
    auto row = validate_row(F, f, dealing.row_for(F, i));
    ASSERT_TRUE(row.has_value());
    EXPECT_LE(row->degree(), static_cast<int>(f));
  }
}

TEST(Gvss, ValidateRowRejectsWrongWidth) {
  PrimeField F(101);
  EXPECT_FALSE(validate_row(F, 2, {1, 2}).has_value());        // too short
  EXPECT_FALSE(validate_row(F, 2, {1, 2, 3, 4}).has_value());  // too long
}

TEST(Gvss, ValidateRowRejectsNonCanonicalElements) {
  PrimeField F(101);
  EXPECT_FALSE(validate_row(F, 1, {5, 101}).has_value());
  EXPECT_FALSE(validate_row(F, 1, {5, ~std::uint64_t{0}}).has_value());
  EXPECT_TRUE(validate_row(F, 1, {5, 100}).has_value());
}

TEST(Gvss, HappyThreshold) {
  // n=7, f=2: happy needs a valid row and >= 5 matches.
  EXPECT_TRUE(gvss_happy(7, 2, true, 5));
  EXPECT_TRUE(gvss_happy(7, 2, true, 7));
  EXPECT_FALSE(gvss_happy(7, 2, true, 4));
  EXPECT_FALSE(gvss_happy(7, 2, false, 7));
}

TEST(Gvss, GradeThresholds) {
  // n=7, f=2: grade 2 at >= 5 votes, grade 1 at >= 3, else 0.
  EXPECT_EQ(gvss_grade(7, 2, 7), GvssGrade::kHigh);
  EXPECT_EQ(gvss_grade(7, 2, 5), GvssGrade::kHigh);
  EXPECT_EQ(gvss_grade(7, 2, 4), GvssGrade::kLow);
  EXPECT_EQ(gvss_grade(7, 2, 3), GvssGrade::kLow);
  EXPECT_EQ(gvss_grade(7, 2, 2), GvssGrade::kNone);
  EXPECT_EQ(gvss_grade(7, 2, 0), GvssGrade::kNone);
}

TEST(Gvss, GradePropagationInvariant) {
  // If any correct node sees grade 2 (>= n-f votes), every correct node —
  // seeing at least the same correct votes, i.e. at most f fewer — grades
  // >= 1. Check the arithmetic across the (n, f) sweep.
  for (std::uint32_t f = 1; f <= 8; ++f) {
    const std::uint32_t n = 3 * f + 1;
    for (std::uint32_t votes = n - f; votes <= n; ++votes) {
      EXPECT_EQ(gvss_grade(n, f, votes), GvssGrade::kHigh);
      EXPECT_NE(gvss_grade(n, f, votes - f), GvssGrade::kNone)
          << "n=" << n << " f=" << f << " votes=" << votes;
    }
  }
}

struct RecoverParam {
  std::uint32_t n;
  std::uint32_t f;
};

class GvssRecoverTest : public ::testing::TestWithParam<RecoverParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, GvssRecoverTest,
                         ::testing::Values(RecoverParam{4, 1},
                                           RecoverParam{7, 2},
                                           RecoverParam{10, 3},
                                           RecoverParam{13, 4}));

TEST_P(GvssRecoverTest, RecoversWithAllHonestShares) {
  const auto [n, f] = GetParam();
  PrimeField F(2305843009213693951ULL);
  Rng rng(n * 31 + f);
  for (int trial = 0; trial < 10; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      shares.push_back({node_point(i), row.eval(F, 0)});
    }
    auto s = gvss_recover(F, f, shares);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, dealing.secret());
  }
}

TEST_P(GvssRecoverTest, RecoversWithFByzantineLies) {
  const auto [n, f] = GetParam();
  PrimeField F(2305843009213693951ULL);
  Rng rng(n * 37 + f);
  for (int trial = 0; trial < 10; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      std::uint64_t y = row.eval(F, 0);
      if (i >= n - f) y = F.uniform(rng);  // the last f senders lie
      shares.push_back({node_point(i), y});
    }
    auto s = gvss_recover(F, f, shares);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, dealing.secret());
  }
}

TEST_P(GvssRecoverTest, RecoversWithSilentByzantine) {
  // f Byzantine senders say nothing: n-f honest shares still decode.
  const auto [n, f] = GetParam();
  PrimeField F(2305843009213693951ULL);
  Rng rng(n * 41 + f);
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n - f; ++i) {
    Poly row(dealing.row_for(F, i));
    shares.push_back({node_point(i), row.eval(F, 0)});
  }
  auto s = gvss_recover(F, f, shares);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, dealing.secret());
}

TEST_P(GvssRecoverTest, TableFastPathMatchesClassicInterpolation) {
  // The barycentric prefix table must be observationally equivalent to the
  // classic lagrange_interpolate fast path for every share pattern: clean,
  // with up to f injected Byzantine lies (inside and outside the prefix),
  // and with subsets where the table does not apply and recovery falls
  // back to the generic route.
  const auto [n, f] = GetParam();
  PrimeField F(2305843009213693951ULL);
  GvssRecoverTable table(F, n, f);
  Rng rng(n * 43 + f);
  for (int trial = 0; trial < 20; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      shares.push_back({node_point(i), row.eval(F, 0)});
    }
    // Inject 0..f lies at random positions (prefix positions included, so
    // the candidate itself can be poisoned).
    const auto lies = rng.next_below(f + 1);
    for (std::uint64_t l = 0; l < lies; ++l) {
      shares[rng.next_below(n)].y = F.uniform(rng);
    }
    const auto with_table = gvss_recover(F, f, shares, &table);
    const auto without = gvss_recover(F, f, shares);
    ASSERT_EQ(with_table.has_value(), without.has_value()) << "trial " << trial;
    if (with_table) EXPECT_EQ(*with_table, *without) << "trial " << trial;
    // Non-canonical subset (first sender missing): the table cannot apply;
    // both routes must still agree.
    std::vector<RsPoint> tail(shares.begin() + 1, shares.end());
    const auto tail_with = gvss_recover(F, f, tail, &table);
    const auto tail_without = gvss_recover(F, f, tail);
    ASSERT_EQ(tail_with.has_value(), tail_without.has_value());
    if (tail_with) EXPECT_EQ(*tail_with, *tail_without);
  }
}

// One dealing per dealer and the sender-major share matrix of a round-4
// recovery, plus the per-sender inputs gvss_recover_batch reads. Starts
// clean: every sender counts, voted for every dealer and holds its true
// share.
struct ShareRound {
  ShareRound(const PrimeField& F, std::uint32_t n, std::uint32_t f, Rng& rng)
      : n(n),
        words(bitword_count(n)),
        shares(std::size_t{n} * n),
        sender_ok(n, 1),
        votes(std::size_t{n} * words, 0),
        grades(n, GvssGrade::kHigh) {
    for (NodeId d = 0; d < n; ++d) {
      auto dealing = GvssDealing::sample(F, f, rng);
      for (NodeId j = 0; j < n; ++j) {
        shares[std::size_t{j} * n + d] = Poly(dealing.row_for(F, j)).eval(F, 0);
      }
    }
    for (NodeId j = 0; j < n; ++j) {
      for (NodeId d = 0; d < n; ++d) {
        bitword_set(votes.data() + std::size_t{j} * words, d, true);
      }
    }
  }

  std::uint64_t& share(NodeId j, NodeId d) {
    return shares[std::size_t{j} * n + d];
  }
  void vote(NodeId j, NodeId d, bool v) {
    bitword_set(votes.data() + std::size_t{j} * words, d, v);
  }

  // The per-dealer rule the batch must reproduce.
  std::uint64_t per_dealer(const PrimeField& F, std::uint32_t f,
                           const GvssRecoverTable& table, NodeId d) const {
    if (grades[d] == GvssGrade::kNone) return 0;
    std::vector<RsPoint> pts;
    for (NodeId j = 0; j < n; ++j) {
      if (!sender_ok[j]) continue;
      if (!bitword_get(votes.data() + std::size_t{j} * words, d)) continue;
      const std::uint64_t y = shares[std::size_t{j} * n + d];
      if (!F.valid(y)) continue;
      pts.push_back({node_point(j), y});
    }
    return gvss_recover(F, f, pts, &table).value_or(0);
  }

  std::uint32_t n;
  std::size_t words;
  std::vector<std::uint64_t> shares;
  std::vector<std::uint8_t> sender_ok;
  std::vector<std::uint64_t> votes;
  std::vector<GvssGrade> grades;
};

TEST_P(GvssRecoverTest, BatchMatchesPerDealerRecover) {
  // gvss_recover_batch against the per-dealer rule on random share
  // matrices: clean rounds, up to f lying senders (inside and outside the
  // prefix), missing votes, sentinel shares, ungraded dealers, senders that
  // do not count, base sets without id 0 (no canonical prefix, so nothing
  // batches) and base sets of just the prefix. Over the Mersenne prime and
  // a generic one.
  const auto [n, f] = GetParam();
  for (const std::uint64_t p :
       {PrimeField::kDefaultPrime, std::uint64_t{65537}}) {
    PrimeField F(p);
    const auto table = GvssRecoverTable::shared(F, n, f);
    GvssBatchScratch scratch;
    scratch.resize(n, f);
    Rng rng(n * 47 + f + p % 1000);
    for (int trial = 0; trial < 42; ++trial) {
      ShareRound round(F, n, f, rng);
      const int mode = trial % 7;  // 0 = clean
      if (mode == 1 || mode == 5) {
        const auto liars = rng.next_below(f + 1);
        for (std::uint64_t l = 0; l < liars; ++l) {
          const auto j = static_cast<NodeId>(rng.next_below(n));
          for (NodeId d = 0; d < n; ++d) {
            if (rng.next_bool()) round.share(j, d) = F.uniform(rng);
          }
        }
      }
      if (mode == 2 || mode == 5) {
        for (int k = 0; k < static_cast<int>(n); ++k) {
          round.vote(static_cast<NodeId>(rng.next_below(n)),
                     static_cast<NodeId>(rng.next_below(n)), false);
        }
      }
      if (mode == 3 || mode == 5) {
        for (int k = 0; k < static_cast<int>(n); ++k) {
          round.share(static_cast<NodeId>(rng.next_below(n)),
                      static_cast<NodeId>(rng.next_below(n))) = p;
        }
        round.sender_ok[rng.next_below(n)] = 0;
        round.grades[rng.next_below(n)] = GvssGrade::kNone;
        round.grades[rng.next_below(n)] = GvssGrade::kLow;
      }
      if (mode == 4) round.sender_ok[0] = 0;
      if (mode == 6) {
        // Only the prefix counts (no further sender to check against),
        // and one prefix share is the sentinel: that dealer has f points.
        for (NodeId j = f + 1; j < n; ++j) round.sender_ok[j] = 0;
        round.share(static_cast<NodeId>(rng.next_below(f + 1)),
                    static_cast<NodeId>(rng.next_below(n))) = p;
      }
      std::vector<std::uint64_t> secrets(n, 99);
      gvss_recover_batch(F, *table, round.shares.data(),
                         round.sender_ok.data(), round.votes.data(),
                         round.words, round.grades.data(), secrets.data(),
                         scratch);
      // Clean rounds batch every dealer; without sender 0 none batches.
      if (mode == 0) {
        EXPECT_EQ(scratch.dealers.size(), n);
      }
      if (mode == 4) {
        EXPECT_TRUE(scratch.dealers.empty());
      }
      for (NodeId d = 0; d < n; ++d) {
        ASSERT_EQ(secrets[d], round.per_dealer(F, f, *table, d))
            << "p=" << p << " trial " << trial << " dealer " << d;
      }
    }
  }
}

TEST(Gvss, SharedTablesArePerShape) {
  PrimeField F(2305843009213693951ULL);
  const auto a = GvssRecoverTable::shared(F, 7, 2);
  const auto b = GvssRecoverTable::shared(F, 7, 2);
  const auto c = GvssRecoverTable::shared(F, 7, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, GvssRecoverTable::shared(PrimeField(65537), 7, 2));
}

TEST(Gvss, RowsIntoMatchesRowFor) {
  // All n rows in one eval_points call equal the rows dealt one at a time.
  PrimeField F(2305843009213693951ULL);
  Rng rng(61);
  const std::uint32_t n = 10, f = 3;
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<std::uint64_t> rows(std::size_t{n} * (f + 1));
  dealing.rows_into(F, n, rows.data());
  for (NodeId j = 0; j < n; ++j) {
    const std::vector<std::uint64_t> want = dealing.row_for(F, j);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           rows.begin() + std::size_t{j} * (f + 1)))
        << "node " << j;
  }
}

TEST(Gvss, DealingResampleMatchesSample) {
  // resample() must make the same draws as sample() so pipeline recycling
  // is replay-identical to per-beat construction.
  PrimeField F(2305843009213693951ULL);
  Rng rng_a(123), rng_b(123);
  auto fresh = GvssDealing::sample(F, 3, rng_a);
  auto recycled = GvssDealing::sample(F, 3, rng_b);
  // Warm `recycled` with different state, then re-deal from a synced rng.
  Rng rng_c(456);
  recycled.resample(F, 3, rng_c);
  Rng rng_d(123);
  recycled.resample(F, 3, rng_d);
  EXPECT_EQ(recycled.secret(), fresh.secret());
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(recycled.row_for(F, i), fresh.row_for(F, i));
  }
}

TEST(Gvss, RecoverFailsWithTooFewShares) {
  PrimeField F(101);
  EXPECT_FALSE(gvss_recover(F, 2, {{1, 5}, {2, 9}}).has_value());
  EXPECT_FALSE(gvss_recover(F, 2, {}).has_value());
}

TEST(Gvss, DegreeFSecrecy) {
  // f rows determine nothing about the secret: for any f rows there exist
  // dealings with those rows and *any* secret. Verified constructively for
  // f=1, n=4: enumerate two dealings sharing node 0's row but with
  // different secrets.
  PrimeField F(101);
  Rng rng(77);
  auto B1 = SymmetricBivariate::sample(F, 1, 10, rng);
  Poly row0 = B1.row(F, node_point(0));
  // Build B2 with secret 55 and the same row for node 0:
  // F2(x,y) = c00 + c01(x+y) + c11 xy with F2(1,y) = row0(y).
  // row0(y) = (c00 + c01) + (c01 + c11) y  =>  c01 = row0[0] - 55,
  // c11 = row0[1] - c01.
  const std::uint64_t c00 = 55;
  const std::uint64_t c01 = F.sub(row0.coeff(0), c00);
  const std::uint64_t c11 = F.sub(row0.coeff(1), c01);
  // Check: the reconstructed row matches node 0's view exactly.
  const std::uint64_t r0 = F.add(c00, c01);
  const std::uint64_t r1 = F.add(c01, c11);
  EXPECT_EQ(r0, row0.coeff(0));
  EXPECT_EQ(r1, row0.coeff(1));
  EXPECT_NE(c00, B1.secret());  // same view, different secret: zero leakage
}

}  // namespace
}  // namespace ssbft
