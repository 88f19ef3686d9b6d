// Distribution invariants: every global index has exactly one owner, the
// owner/local/global mappings round-trip, counts are consistent, and each
// HPF kind matches its specification.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/util/error.hpp"

using hpfcg::hpf::Distribution;

namespace {

/// Exhaustive consistency sweep every distribution must satisfy.
void check_invariants(const Distribution& d) {
  const std::size_t n = d.size();
  const int np = d.nprocs();

  // counts sum to n.
  std::size_t total = 0;
  for (int r = 0; r < np; ++r) total += d.local_count(r);
  EXPECT_EQ(total, n);
  EXPECT_EQ(d.counts().size(), static_cast<std::size_t>(np));

  // owner/local_index/global_index round-trip for every element.
  for (std::size_t i = 0; i < n; ++i) {
    const int r = d.owner(i);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, np);
    const std::size_t li = d.local_index(i);
    ASSERT_LT(li, d.local_count(r));
    EXPECT_EQ(d.global_index(r, li), i);
  }

  // Every (rank, local) slot maps to a distinct global index owned by rank.
  std::vector<bool> seen(n, false);
  for (int r = 0; r < np; ++r) {
    std::size_t prev_global = 0;
    for (std::size_t li = 0; li < d.local_count(r); ++li) {
      const std::size_t g = d.global_index(r, li);
      ASSERT_LT(g, n);
      EXPECT_FALSE(seen[g]);
      seen[g] = true;
      EXPECT_EQ(d.owner(g), r);
      EXPECT_EQ(d.local_index(g), li);
      if (li > 0) {
        EXPECT_GT(g, prev_global);  // local order = global order
      }
      prev_global = g;
    }
  }

  if (d.contiguous()) {
    for (int r = 0; r < np; ++r) {
      const auto [lo, hi] = d.local_range(r);
      EXPECT_EQ(hi - lo, d.local_count(r));
      for (std::size_t i = lo; i < hi; ++i) EXPECT_EQ(d.owner(i), r);
    }
  }
}

class DistributionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DistributionSweep, Block) {
  const auto [n, np] = GetParam();
  check_invariants(Distribution::block(n, np));
}

TEST_P(DistributionSweep, Cyclic) {
  const auto [n, np] = GetParam();
  check_invariants(Distribution::cyclic(n, np));
}

TEST_P(DistributionSweep, BlockK) {
  const auto [n, np] = GetParam();
  const std::size_t k =
      n == 0 ? 1 : (n + static_cast<std::size_t>(np) - 1) /
                       static_cast<std::size_t>(np);
  check_invariants(Distribution::block_size(n, np, k));
}

TEST_P(DistributionSweep, CyclicK) {
  const auto [n, np] = GetParam();
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    check_invariants(Distribution::cyclic_size(n, np, k));
  }
}

TEST_P(DistributionSweep, Cuts) {
  const auto [n, np] = GetParam();
  // Skewed cut points: rank r gets roughly r-proportional share.
  std::vector<std::size_t> cuts(static_cast<std::size_t>(np) + 1, 0);
  const std::size_t denom = static_cast<std::size_t>(np) *
                            (static_cast<std::size_t>(np) + 1) / 2;
  std::size_t acc = 0;
  for (int r = 0; r < np; ++r) {
    acc += n * static_cast<std::size_t>(r + 1) / denom;
    cuts[static_cast<std::size_t>(r) + 1] = std::min(acc, n);
  }
  cuts.back() = n;
  check_invariants(Distribution::from_cuts(n, cuts));
}

TEST_P(DistributionSweep, Indirect) {
  const auto [n, np] = GetParam();
  std::vector<int> owner(n);
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = static_cast<int>((i * 7 + 3) % static_cast<std::size_t>(np));
  }
  check_invariants(Distribution::indirect(np, owner));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DistributionSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 16, 17, 100,
                                                      257),
                       ::testing::Values(1, 2, 3, 4, 7, 8)));

TEST(Distribution, BlockMatchesHpfDefinition) {
  // HPF BLOCK over n=10, np=4: blocks of ceil(10/4)=3 -> 3,3,3,1.
  const auto d = Distribution::block(10, 4);
  EXPECT_EQ(d.local_count(0), 3u);
  EXPECT_EQ(d.local_count(1), 3u);
  EXPECT_EQ(d.local_count(2), 3u);
  EXPECT_EQ(d.local_count(3), 1u);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(9), 3);
  EXPECT_EQ(d.name(), "BLOCK");
}

TEST(Distribution, BlockKPlacesLastElementOnLastProcessor) {
  // The paper's BLOCK((n+NP-1)/NP) idiom "to ensure that the (n+1)'th
  // element of row is placed in the last processor": n+1 pointer entries
  // over NP ranks.
  const std::size_t n = 12;  // 13 pointer entries
  const int np = 4;
  const std::size_t k = (n + 1 + np - 1) / np;  // ceil(13/4) = 4
  const auto d = Distribution::block_size(n + 1, np, k);
  EXPECT_EQ(d.owner(n), np - 1);  // last pointer entry on last rank
  EXPECT_EQ(d.name(), "BLOCK(4)");
}

TEST(Distribution, CyclicDealsRoundRobin) {
  const auto d = Distribution::cyclic(10, 3);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(1), 1);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.local_index(3), 1u);
  EXPECT_EQ(d.local_count(0), 4u);
  EXPECT_EQ(d.local_count(1), 3u);
  EXPECT_FALSE(d.contiguous());
}

TEST(Distribution, CyclicKDealsBlocks) {
  const auto d = Distribution::cyclic_size(10, 2, 3);
  // Blocks [0,3) r0, [3,6) r1, [6,9) r0, [9,10) r1.
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(6), 0);
  EXPECT_EQ(d.owner(9), 1);
  EXPECT_EQ(d.local_count(0), 6u);
  EXPECT_EQ(d.local_count(1), 4u);
  EXPECT_EQ(d.local_index(7), 4u);  // second local block, offset 1
}

TEST(Distribution, CutsExposeCutArray) {
  const auto d = Distribution::from_cuts(10, {0, 2, 2, 10});
  EXPECT_EQ(d.nprocs(), 3);
  EXPECT_EQ(d.local_count(1), 0u);  // empty middle rank
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.cuts().size(), 4u);
}

TEST(Distribution, EqualityComparesMappings) {
  const auto a = Distribution::block(12, 4);
  const auto b = Distribution::block_size(12, 4, 3);  // same mapping
  const auto c = Distribution::cyclic(12, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  // from_cuts with block boundaries equals block too.
  const auto d = Distribution::from_cuts(12, {0, 3, 6, 9, 12});
  EXPECT_TRUE(a == d);
}

/// Element-wise reference for operator==: same n, same NP, and every
/// index has the same owner and local slot.
bool same_mapping(const Distribution& a, const Distribution& b) {
  if (a.size() != b.size() || a.nprocs() != b.nprocs()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.owner(i) != b.owner(i) || a.local_index(i) != b.local_index(i)) {
      return false;
    }
  }
  return true;
}

/// Every kind over (n, np), with block sizes that tie kinds together
/// (BLOCK(k) = BLOCK, CYCLIC(1) = CYCLIC, degenerate CYCLIC(k >= n)), cut
/// points with empty ranks, and indirect maps copying regular ones.
std::vector<Distribution> kind_table(std::size_t n, int np) {
  const auto unp = static_cast<std::size_t>(np);
  const std::size_t min_k = n == 0 ? 1 : (n + unp - 1) / unp;
  std::vector<Distribution> t;
  t.push_back(Distribution::block(n, np));
  t.push_back(Distribution::block_size(n, np, min_k));
  t.push_back(Distribution::block_size(n, np, min_k + 1));
  t.push_back(Distribution::cyclic(n, np));
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, n, n + 3}) {
    if (k >= 1) t.push_back(Distribution::cyclic_size(n, np, k));
  }
  std::vector<std::size_t> even(unp + 1), front(unp + 1, n), back(unp + 1, 0);
  for (std::size_t r = 0; r <= unp; ++r) even[r] = std::min(n, r * min_k);
  front[0] = 0;  // rank 0 owns everything, the rest are empty
  back[unp] = n;  // the last rank owns everything
  t.push_back(Distribution::from_cuts(n, even));
  t.push_back(Distribution::from_cuts(n, front));
  t.push_back(Distribution::from_cuts(n, back));
  const auto owners_of = [n](const Distribution& d) {
    std::vector<int> own(n);
    for (std::size_t i = 0; i < n; ++i) own[i] = d.owner(i);
    return own;
  };
  t.push_back(Distribution::indirect(np, owners_of(t[0])));  // = BLOCK
  t.push_back(Distribution::indirect(np, owners_of(t[3])));  // = CYCLIC
  std::vector<int> scattered(n);
  for (std::size_t i = 0; i < n; ++i) {
    scattered[i] = static_cast<int>((i * 7 + i / 3) % unp);
  }
  t.push_back(Distribution::indirect(np, scattered));
  return t;
}

TEST(Distribution, EqualityMatchesElementwiseReferenceOverKindTable) {
  std::size_t cross_kind_equal = 0;
  std::size_t same_kind_unequal = 0;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 7u, 12u}) {
    std::vector<Distribution> all;
    for (int np = 1; np <= 4; ++np) {
      for (auto& d : kind_table(n, np)) all.push_back(std::move(d));
    }
    for (const auto& a : all) {
      EXPECT_TRUE(a == a);
      for (const auto& b : all) {
        const bool ref = same_mapping(a, b);
        ASSERT_EQ(a == b, ref)
            << a.name() << " vs " << b.name() << " over n=" << n
            << ", NP=" << a.nprocs() << "/" << b.nprocs();
        if (ref && a.kind() != b.kind()) ++cross_kind_equal;
        if (!ref && a.kind() == b.kind() && a.nprocs() == b.nprocs()) {
          ++same_kind_unequal;
        }
      }
    }
  }
  // The table exercises both shortcut directions, not just trivial pairs.
  EXPECT_GT(cross_kind_equal, 0u);
  EXPECT_GT(same_kind_unequal, 0u);
}

TEST(Distribution, HugeBlockSizeDoesNotOverflow) {
  // Regression: the coverage check was written `k * np >= n`, which wraps
  // for huge k — BLOCK(2^61) over 8 ranks computed 2^64 ≡ 0 < 12 and was
  // falsely rejected even though rank 0 trivially holds all 12 elements.
  const std::size_t huge = std::size_t{1} << 61;
  Distribution d = Distribution::block_size(12, 8, huge);
  EXPECT_EQ(d.local_count(0), 12u);
  std::size_t total = 0;
  for (int r = 0; r < 8; ++r) total += d.local_count(r);
  EXPECT_EQ(total, 12u);  // counts built with r*k wrapped to garbage before
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(d.owner(i), 0);
  EXPECT_EQ(d.local_range(0).second, 12u);
}

TEST(Distribution, HugeCyclicBlockRejectedNotWrapped) {
  // Regression: CYCLIC(k) computed the cycle length k*np without an
  // overflow guard; with k near SIZE_MAX/np the wrapped cycle credited
  // phantom rounds, so local_count disagreed with owner().  Now an
  // overflow in the cycle length is a typed error naming k and NP.
  const std::size_t k = std::numeric_limits<std::size_t>::max() / 4 + 2;
  try {
    (void)Distribution::cyclic_size(10, 4, k);
    FAIL() << "CYCLIC(k) with k*NP overflow must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NP=4"), std::string::npos);
  }
  // Large-but-safe k is still fine (one giant block on rank 0).
  check_invariants(
      Distribution::cyclic_size(10, 4, std::size_t{1} << 60));
}

TEST(Distribution, ZeroBlockFactorsNamedInError) {
  try {
    (void)Distribution::block_size(10, 2, 0);
    FAIL() << "BLOCK(0) must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("k=0"), std::string::npos);
  }
  try {
    (void)Distribution::cyclic_size(10, 2, 0);
    FAIL() << "CYCLIC(0) must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("k=0"), std::string::npos);
  }
}

TEST(Distribution, Validation) {
  EXPECT_THROW(Distribution::block(10, 0), hpfcg::util::Error);
  EXPECT_THROW(Distribution::block_size(10, 2, 4),
               hpfcg::util::Error);  // 2*4 < 10
  EXPECT_THROW(Distribution::from_cuts(10, {0, 5}), hpfcg::util::Error);
  EXPECT_THROW(Distribution::from_cuts(10, {0, 7, 5, 10}),
               hpfcg::util::Error);
  EXPECT_THROW(Distribution::indirect(2, {0, 1, 2}), hpfcg::util::Error);
  const auto d = Distribution::block(10, 2);
  EXPECT_THROW((void)d.owner(10), hpfcg::util::Error);
  EXPECT_THROW((void)d.local_count(2), hpfcg::util::Error);
  EXPECT_THROW((void)Distribution::cyclic(10, 2).local_range(0),
               hpfcg::util::Error);
}

}  // namespace
