#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/image.h"
#include "dataset/words.h"
#include "metric/counting.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"

namespace mvp::metric {
namespace {

TEST(LpTest, L2HandComputed) {
  L2 d;
  EXPECT_DOUBLE_EQ(d({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(d({1, 1, 1}, {1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(d({-1, 0}, {1, 0}), 2.0);
}

TEST(LpTest, L1HandComputed) {
  L1 d;
  EXPECT_DOUBLE_EQ(d({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(d({-1, -2}, {1, 2}), 6.0);
}

TEST(LpTest, LInfHandComputed) {
  LInf d;
  EXPECT_DOUBLE_EQ(d({0, 0}, {3, 4}), 4.0);
  EXPECT_DOUBLE_EQ(d({5, 1}, {1, 2}), 4.0);
}

TEST(LpTest, GeneralLpMatchesSpecializations) {
  const Vector a{0.3, -1.2, 4.0, 0.0};
  const Vector b{1.1, 2.2, -0.5, 3.3};
  EXPECT_NEAR(Lp(1.0)(a, b), L1()(a, b), 1e-12);
  EXPECT_NEAR(Lp(2.0)(a, b), L2()(a, b), 1e-12);
  // Large p approaches LInf from above.
  EXPECT_NEAR(Lp(64.0)(a, b), LInf()(a, b), 0.2);
  EXPECT_GE(Lp(64.0)(a, b), LInf()(a, b));
}

// The integer-exponent fast path: Lp(1) and Lp(2) must be BIT-identical to
// the L1/L2 specializations (not merely near) — snapshots built under one
// spelling of the metric are served under the other, and the flat layouts
// byte-compare path distances. Exact equality of every result is the
// contract; EXPECT_EQ on doubles checks the bits here (no NaNs involved).
TEST(LpTest, IntegerExponentFastPathBitIdenticalToSpecializations) {
  Rng rng(20260809);
  const Lp lp1(1.0);
  const Lp lp2(2.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dim = 1 + rng.NextBounded(33);
    Vector a(dim), b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      a[i] = std::ldexp(rng.NextDouble() - 0.5,
                        static_cast<int>(rng.NextBounded(41)) - 20);
      b[i] = std::ldexp(rng.NextDouble() - 0.5,
                        static_cast<int>(rng.NextBounded(41)) - 20);
    }
    EXPECT_EQ(lp1(a, b), L1()(a, b));
    EXPECT_EQ(lp2(a, b), L2()(a, b));
  }
}

TEST(LpTest, WeightedLpIntegerExponentMatchesDirectEvaluation) {
  Rng rng(97);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t dim = 1 + rng.NextBounded(17);
    Vector a(dim), b(dim), w(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      a[i] = rng.NextDouble() * 4.0 - 2.0;
      b[i] = rng.NextDouble() * 4.0 - 2.0;
      w[i] = rng.NextDouble();
    }
    // p = 1: sum of weighted absolute differences, summed left to right —
    // the same order the fast path must use.
    double sum1 = 0.0;
    double sum2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double term = w[i] * std::fabs(a[i] - b[i]);
      sum1 += term;
      sum2 += term * term;
    }
    EXPECT_EQ(WeightedLp(1.0, w)(a, b), sum1);
    EXPECT_EQ(WeightedLp(2.0, w)(a, b), std::sqrt(sum2));
  }
}

// Integral p >= 3 has no bit-identity pin to pow() (PowInt's multiply chain
// is not correctly rounded), but it must stay deterministic and close.
TEST(LpTest, LargerIntegerExponentsNearPowEvaluation) {
  const Vector a{0.3, -1.2, 4.0, 0.0, 2.5};
  const Vector b{1.1, 2.2, -0.5, 3.3, -0.25};
  for (const double p : {3.0, 4.0, 5.0, 8.0}) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum += std::pow(std::fabs(a[i] - b[i]), p);
    }
    const double want = std::pow(sum, 1.0 / p);
    EXPECT_NEAR(Lp(p)(a, b), want, 1e-12 * want);
    EXPECT_EQ(Lp(p)(a, b), Lp(p)(a, b));
  }
}

TEST(LpTest, LpMonotoneNonincreasingInP) {
  const Vector a{0.0, 0.0, 0.0};
  const Vector b{1.0, 2.0, 3.0};
  double prev = Lp(1.0)(a, b);
  for (double p = 1.5; p <= 8.0; p += 0.5) {
    const double cur = Lp(p)(a, b);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(LpTest, WeightedLpZeroWeightsIgnoreDimensions) {
  WeightedLp d(2.0, {1.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(d({0, 100, 0}, {3, -100, 4}), 5.0);
}

TEST(LpTest, WeightedLpUniformWeightsScale) {
  WeightedLp d(2.0, {2.0, 2.0});
  EXPECT_DOUBLE_EQ(d({0, 0}, {3, 4}), 10.0);
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
  EXPECT_EQ(EditDistance("a", "b"), 1u);
}

TEST(EditDistanceTest, SymmetricOnAsymmetricLengths) {
  EXPECT_EQ(EditDistance("short", "a much longer string"),
            EditDistance("a much longer string", "short"));
}

TEST(BoundedEditDistanceTest, ExactWithinBound) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 5), 3u);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 0), 0u);
}

TEST(BoundedEditDistanceTest, ExceedsBoundReportsOverflow) {
  EXPECT_GT(BoundedEditDistance("kitten", "sitting", 2), 2u);
  EXPECT_GT(BoundedEditDistance("", "abcdef", 3), 3u);
}

TEST(BoundedEditDistanceTest, AgreesWithExactOnRandomPairs) {
  // Deterministic mini-fuzz across short strings.
  const std::vector<std::string> words{"",      "a",     "ab",    "abc",
                                       "abcd",  "axcd",  "bacd",  "dcba",
                                       "aabb",  "abab",  "hello", "hallo",
                                       "world", "wordl", "wrld",  "w"};
  for (const auto& x : words) {
    for (const auto& y : words) {
      const unsigned exact = EditDistance(x, y);
      for (unsigned bound = 0; bound <= 6; ++bound) {
        const unsigned bounded = BoundedEditDistance(x, y, bound);
        if (exact <= bound) {
          EXPECT_EQ(bounded, exact) << x << " vs " << y << " bound " << bound;
        } else {
          EXPECT_GT(bounded, bound) << x << " vs " << y << " bound " << bound;
        }
      }
    }
  }
}

// The textbook O(|a|*|b|) dynamic program, kept here as the oracle for the
// bit-parallel kernel: D[i][j] = min(D[i-1][j] + 1, D[i][j-1] + 1,
// D[i-1][j-1] + [a[i-1] != b[j-1]]), one row at a time.
unsigned ReferenceEditDistance(const std::string& a, const std::string& b) {
  std::vector<unsigned> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<unsigned>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    unsigned diag = row[0];
    row[0] = static_cast<unsigned>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const unsigned up = row[j];
      row[j] = std::min({row[j - 1] + 1, up + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0u : 1u)});
      diag = up;
    }
  }
  return row[b.size()];
}

// Checks EditDistance in both argument orders and BoundedEditDistance at
// bounds 0..8 against the reference DP.
void ExpectMatchesReference(const std::string& a, const std::string& b) {
  const unsigned expected = ReferenceEditDistance(a, b);
  EXPECT_EQ(EditDistance(a, b), expected)
      << "|a|=" << a.size() << " |b|=" << b.size();
  EXPECT_EQ(EditDistance(b, a), expected)
      << "|a|=" << a.size() << " |b|=" << b.size();
  for (unsigned bound = 0; bound <= 8; ++bound) {
    const unsigned bounded = BoundedEditDistance(a, b, bound);
    if (expected <= bound) {
      EXPECT_EQ(bounded, expected) << "bound " << bound;
    } else {
      EXPECT_GT(bounded, bound) << "bound " << bound;
    }
  }
}

// Bytes drawn from `alphabet`: the two-letter one is {'\0', '\xff'}, so
// both an embedded NUL and a byte >= 0x80 appear; 256 covers every byte.
std::string RandomBytes(Rng& rng, std::size_t len, unsigned alphabet) {
  std::string s(len, '\0');
  for (char& c : s) {
    const auto v = static_cast<unsigned char>(rng.NextBounded(alphabet));
    c = static_cast<char>(alphabet == 2 ? v * 0xff : v);
  }
  return s;
}

// `edits` random substitutions, insertions and deletions of `s`, so long
// strings also get pairs at small distances.
std::string NearCopy(Rng& rng, std::string s, unsigned edits,
                     unsigned alphabet) {
  for (unsigned e = 0; e < edits; ++e) {
    const char c = RandomBytes(rng, 1, alphabet)[0];
    const std::size_t op = s.empty() ? 0 : rng.NextBounded(3);
    const auto pos = static_cast<std::ptrdiff_t>(rng.NextBounded(s.size() + 1));
    if (op == 0) {
      s.insert(s.begin() + pos, c);
    } else if (op == 1) {
      s.erase(s.begin() + pos % static_cast<std::ptrdiff_t>(s.size()));
    } else {
      s[rng.NextBounded(s.size())] = c;
    }
  }
  return s;
}

// Lengths on both sides of the one-word (<= 64) and blocked paths and of
// each block boundary.
constexpr std::size_t kEditLengths[] = {0,  1,   2,   31,  32,  63,
                                        64, 65, 127, 128, 129, 200};

TEST(EditDistanceTest, MatchesReferenceOnRandomStrings) {
  Rng rng(20261020);
  for (const unsigned alphabet : {2u, 256u}) {
    for (const std::size_t la : kEditLengths) {
      for (const std::size_t lb : kEditLengths) {
        for (int rep = 0; rep < 3; ++rep) {
          ExpectMatchesReference(RandomBytes(rng, la, alphabet),
                                 RandomBytes(rng, lb, alphabet));
        }
      }
    }
  }
}

TEST(EditDistanceTest, MatchesReferenceOnIdenticalAndNearStrings) {
  Rng rng(7);
  for (const unsigned alphabet : {2u, 256u}) {
    for (const std::size_t len : kEditLengths) {
      const std::string s = RandomBytes(rng, len, alphabet);
      EXPECT_EQ(EditDistance(s, s), 0u);
      EXPECT_EQ(BoundedEditDistance(s, s, 0), 0u);
      for (unsigned edits = 1; edits <= 10; ++edits) {
        ExpectMatchesReference(s, NearCopy(rng, s, edits, alphabet));
      }
    }
  }
}

TEST(EditDistanceTest, MatchesReferenceOnMutatedWords) {
  const auto words = dataset::SyntheticWords(50000, 15);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string mutated =
        dataset::MutateWord(words[i], static_cast<unsigned>(i % 6), i);
    ExpectMatchesReference(words[i], mutated);
  }
}

TEST(HammingTest, CountsDifferingPositions) {
  Hamming d;
  EXPECT_DOUBLE_EQ(d("karolin", "kathrin"), 3.0);
  EXPECT_DOUBLE_EQ(d("", ""), 0.0);
  EXPECT_DOUBLE_EQ(d("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(d("000", "111"), 3.0);
}

TEST(CountingMetricTest, CountsEveryInvocation) {
  DistanceCounter counter;
  auto counted = MakeCounting(L2(), counter);
  const Vector a{0, 0}, b{1, 1};
  EXPECT_EQ(counter.count(), 0u);
  counted(a, b);
  counted(a, b);
  counted(b, a);
  EXPECT_EQ(counter.count(), 3u);
  counter.Reset();
  EXPECT_EQ(counter.count(), 0u);
}

TEST(CountingMetricTest, CopiesShareTheCounter) {
  DistanceCounter counter;
  auto counted = MakeCounting(L2(), counter);
  auto copy = counted;  // indexes store metrics by value
  const Vector a{0, 0}, b{1, 1};
  counted(a, b);
  copy(a, b);
  EXPECT_EQ(counter.count(), 2u);
}

TEST(CountingMetricTest, PreservesDistanceValues) {
  DistanceCounter counter;
  auto counted = MakeCounting(L2(), counter);
  const Vector a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(counted(a, b), 5.0);
}

TEST(ImageMetricTest, IdenticalImagesAreAtDistanceZero) {
  dataset::Image img;
  img.width = 4;
  img.height = 4;
  img.pixels.assign(16, 100);
  EXPECT_DOUBLE_EQ(dataset::ImageL1()(img, img), 0.0);
  EXPECT_DOUBLE_EQ(dataset::ImageL2()(img, img), 0.0);
}

TEST(ImageMetricTest, NormalizationMatchesPaperAt256) {
  // At the paper's 256x256 resolution the normalizers are exactly the
  // paper's constants: 10000 for L1 and 100 for L2.
  EXPECT_DOUBLE_EQ(dataset::ImageL1Normalizer(65536), 10000.0);
  EXPECT_DOUBLE_EQ(dataset::ImageL2Normalizer(65536), 100.0);
}

TEST(ImageMetricTest, HandComputedDistances) {
  dataset::Image a, b;
  a.width = b.width = 2;
  a.height = b.height = 2;
  a.pixels = {0, 0, 0, 0};
  b.pixels = {10, 0, 0, 0};
  // L1: raw 10, normalizer 10000*4/65536.
  EXPECT_NEAR(dataset::ImageL1()(a, b), 10.0 / (10000.0 * 4 / 65536.0), 1e-9);
  // L2: raw 10, normalizer 100*sqrt(4/65536).
  EXPECT_NEAR(dataset::ImageL2()(a, b),
              10.0 / (100.0 * std::sqrt(4.0 / 65536.0)), 1e-9);
}

TEST(ImageMetricTest, ResolutionInvarianceOfNormalizedDistance) {
  // A constant intensity offset produces the same normalized L1 distance at
  // any resolution — the point of generalizing the paper's constants.
  auto make = [](std::uint16_t side, std::uint8_t level) {
    dataset::Image img;
    img.width = img.height = side;
    img.pixels.assign(static_cast<std::size_t>(side) * side, level);
    return img;
  };
  const double d64 = dataset::ImageL1()(make(64, 10), make(64, 30));
  const double d256 = dataset::ImageL1()(make(256, 10), make(256, 30));
  EXPECT_NEAR(d64, d256, 1e-9);
}

}  // namespace
}  // namespace mvp::metric
