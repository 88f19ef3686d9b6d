// Distributed sparse matrices: every matvec variant must match the serial
// kernels for all machine sizes, distributions, and alignment choices; the
// inspector/executor must fetch exactly the misaligned entries and nothing
// when atom-aligned.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "hpfcg/sparse/convert.hpp"
#include "hpfcg/sparse/dist_csc.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/nnz_exchange.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::sparse::DistCsc;
using hpfcg::sparse::DistCsr;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

double pval(std::size_t g) { return 0.25 * static_cast<double>(g % 9) - 1.0; }

class DistSparseTest : public ::testing::TestWithParam<int> {};

TEST_P(DistSparseTest, CsrRowAlignedMatchesSerial) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::laplacian_2d(9, 7);
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);

  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    EXPECT_EQ(mat.remote_nnz(), 0u);  // atom alignment: nothing to fetch
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST_P(DistSparseTest, CsrFlatNnzBlockMatchesSerialButFetches) {
  // HPF-1 semantics: nnz arrays distributed BLOCK over the nnz index space
  // regardless of row boundaries — correct, but rows straddling a cut must
  // fetch missing elements (the paper's "additional communication").
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(80, 6, 3);
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);

  std::atomic<std::size_t> remote{0};
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto nnz_dist = share(Distribution::block(a.nnz(), proc.nprocs()));
    DistCsr<double> mat(proc, a, row_dist, nnz_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
    remote += mat.remote_nnz();
  });
  if (np > 1) {
    EXPECT_GT(remote, 0u) << "flat BLOCK should split rows and need fetches";
  } else {
    EXPECT_EQ(remote, 0u);
  }
}

TEST_P(DistSparseTest, CsrCachingFetchesOnlyOnce) {
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "no remote entries on one processor";
  const auto a = hpfcg::sparse::random_spd(60, 5, 11);
  const std::size_t n = a.n_rows();

  const auto run_sweeps = [&](bool cached) {
    auto rt = run_spmd(np, [&](Process& proc) {
      auto row_dist = share(Distribution::block(n, proc.nprocs()));
      auto nnz_dist = share(Distribution::block(a.nnz(), proc.nprocs()));
      DistCsr<double> mat(proc, a, row_dist, nnz_dist);
      if (cached) mat.enable_caching();
      DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
      p.set_from(pval);
      for (int sweep = 0; sweep < 4; ++sweep) mat.matvec(p, q);
    });
    return rt->total_stats().bytes_sent;
  };
  const auto uncached = run_sweeps(false);
  const auto cached = run_sweeps(true);
  EXPECT_LT(cached, uncached);
}

TEST_P(DistSparseTest, AlignedWindowIsTheOwnedSlice) {
  // ATOM:BLOCK layouts store (col, a) once: every build path that yields a
  // row-aligned matrix sweeps straight out of its owned slice, and sweeps
  // never move or copy it.
  const int np = GetParam();
  const auto a = hpfcg::sparse::laplacian_2d(9, 7);
  const std::size_t n = a.n_rows();
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto aligned = DistCsr<double>::row_aligned(proc, a, row_dist);
    auto scattered = DistCsr<double>::scatter_from_root(proc, 0, a, row_dist);
    for (DistCsr<double>* mat : {&aligned, &scattered}) {
      const auto [own_col, own_val] = mat->owned_entries();
      const auto [col, val] = mat->assembled_window();
      EXPECT_EQ(col.data(), own_col.data());
      EXPECT_EQ(val.data(), own_val.data());
      EXPECT_EQ(val.size(), mat->local_nnz());
      DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
      p.set_from(pval);
      for (int sweep = 0; sweep < 3; ++sweep) {
        mat->matvec(p, q);
        mat->matvec_transpose(p, q);
        mat->gs_half_sweep(p, q, /*forward=*/true, /*exact=*/true);
        EXPECT_EQ(mat->assembled_window().first.data(), own_col.data());
        EXPECT_EQ(mat->assembled_window().second.data(), own_val.data());
      }
    }
  });
}

TEST_P(DistSparseTest, UncachedHpf1BlockRefetchesEverySweep) {
  // Without the descriptor's caching a flat BLOCK nnz layout pays the same
  // fetch on every sweep — the HPF-1 cost the aligned layout removes.
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "no remote entries on one processor";
  const auto a = hpfcg::sparse::random_spd(60, 5, 11);
  const std::size_t n = a.n_rows();
  hpfcg::sparse::halo::ScopedEnable halo_on;  // only the fetch is non-halo
  constexpr int kSweeps = 4;
  std::atomic<std::size_t> remote{0};
  std::vector<std::atomic<std::uint64_t>> fetch_bytes(kSweeps);
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto nnz_dist = share(Distribution::block(a.nnz(), proc.nprocs()));
    DistCsr<double> mat(proc, a, row_dist, nnz_dist);
    mat.prepare_halo();  // the one-time inspector traffic stays out
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    std::vector<std::uint64_t> sent;
    std::vector<std::uint64_t> bytes;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      const auto before = proc.stats();
      mat.matvec(p, q);
      const auto& after = proc.stats();
      sent.push_back(after.messages_sent - before.messages_sent);
      bytes.push_back(after.bytes_sent - before.bytes_sent);
      fetch_bytes[static_cast<std::size_t>(sweep)] +=
          bytes.back() - (after.halo_bytes - before.halo_bytes);
    }
    for (int sweep = 1; sweep < kSweeps; ++sweep) {
      EXPECT_EQ(sent[sweep], sent[0]) << "sweep " << sweep;
      EXPECT_EQ(bytes[sweep], bytes[0]) << "sweep " << sweep;
    }
    remote += mat.remote_nnz();
  });
  // Every sweep ships each remote (col, a) entry once, beyond the halo.
  ASSERT_GT(remote.load(), 0u);
  for (auto& b : fetch_bytes) {
    EXPECT_EQ(b.load(), remote.load() * (sizeof(std::size_t) + sizeof(double)));
  }
}

TEST_P(DistSparseTest, CsrTransposeMatchesSerial) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::figure1_matrix();  // asymmetric pattern
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g) + 1.0;
  a.matvec_transpose(p_full, q_ref);

  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from([](std::size_t g) { return pval(g) + 1.0; });
    mat.matvec_transpose(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST_P(DistSparseTest, CscPrivateMergeMatchesSerial) {
  const int np = GetParam();
  const auto csr = hpfcg::sparse::laplacian_2d(8, 8);
  const auto csc = hpfcg::sparse::csr_to_csc(csr);
  const std::size_t n = csc.n_cols();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  csc.matvec(p_full, q_ref);

  run_spmd(np, [&](Process& proc) {
    auto col_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsc<double>::col_aligned(proc, csc, col_dist);
    EXPECT_EQ(mat.remote_nnz(), 0u);
    DistributedVector<double> p(proc, col_dist), q(proc, col_dist);
    p.set_from(pval);
    mat.matvec_private(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST_P(DistSparseTest, CscSerialMatchesSerialAndBooksWait) {
  const int np = GetParam();
  const auto csr = hpfcg::sparse::random_spd(50, 5, 21);
  const auto csc = hpfcg::sparse::csr_to_csc(csr);
  const std::size_t n = csc.n_cols();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  csc.matvec(p_full, q_ref);

  auto rt = run_spmd(np, [&](Process& proc) {
    auto col_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsc<double>::col_aligned(proc, csc, col_dist);
    DistributedVector<double> p(proc, col_dist), q(proc, col_dist);
    p.set_from(pval);
    mat.matvec_serial(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
  if (np > 1) {
    EXPECT_GT(rt->stats(np - 1).modeled_wait_seconds, 0.0);
  }
}

TEST_P(DistSparseTest, CscFlatNnzBlockStillCorrect) {
  const int np = GetParam();
  const auto csr = hpfcg::sparse::random_spd(40, 6, 31);
  const auto csc = hpfcg::sparse::csr_to_csc(csr);
  const std::size_t n = csc.n_cols();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  csc.matvec(p_full, q_ref);

  run_spmd(np, [&](Process& proc) {
    auto col_dist = share(Distribution::block(n, proc.nprocs()));
    auto nnz_dist = share(Distribution::block(csc.nnz(), proc.nprocs()));
    DistCsc<double> mat(proc, csc, col_dist, nnz_dist);
    DistributedVector<double> p(proc, col_dist), q(proc, col_dist);
    p.set_from(pval);
    mat.matvec_private(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, DistSparseTest,
                         ::testing::ValuesIn(test_machine_sizes()));

TEST(NnzExchangePlan, AlignedPlanIsEmpty) {
  const auto a = hpfcg::sparse::laplacian_2d(6, 6);
  run_spmd(4, [&](Process& proc) {
    const auto row_dist = Distribution::block(a.n_rows(), 4);
    std::vector<std::size_t> cuts(5);
    for (int r = 0; r < 4; ++r) {
      cuts[static_cast<std::size_t>(r)] =
          a.row_ptr()[row_dist.local_range(r).first];
    }
    cuts[4] = a.nnz();
    const auto nnz_dist = Distribution::from_cuts(a.nnz(), cuts);
    hpfcg::sparse::NnzExchangePlan plan(proc, a.row_ptr(), row_dist, nnz_dist);
    EXPECT_EQ(plan.remote_nnz(), 0u);
    for (const auto& seg : plan.recv_segments()) EXPECT_TRUE(seg.empty());
  });
}

TEST(NnzWindow, AlignedWindowAliasesOwnedSliceAndSkipsTheExecutor) {
  auto rt = run_spmd(2, [&](Process& proc) {
    const std::size_t lo = proc.rank() == 0 ? 0 : 5;
    const std::size_t hi = proc.rank() == 0 ? 5 : 8;
    hpfcg::sparse::NnzWindow<double> w(
        hpfcg::sparse::NnzExchangePlan::aligned(2, {lo, hi}));
    w.set_owned(std::vector<std::size_t>(hi - lo, 1),
                std::vector<double>(hi - lo, 2.0));
    EXPECT_TRUE(w.aligned());
    EXPECT_FALSE(w.assemble(proc));
    EXPECT_EQ(w.idx().data(), w.owned_idx().data());
    EXPECT_EQ(w.val().data(), w.owned_val().data());
  });
  EXPECT_EQ(rt->total_stats().messages_sent, 0u);
}

TEST(NnzExchangePlan, MisalignedPlanCoversExactlyTheGap) {
  // Two ranks, 4 atoms with weights 3,1,1,3: row cut at atom 2 => need
  // ranges [0,4) and [4,8); flat nnz BLOCK owns [0,4) and [4,8) — aligned.
  // Shift the nnz cut to 5 to create a 1-element gap.
  run_spmd(2, [&](Process& proc) {
    const std::vector<std::size_t> ptr = {0, 3, 4, 5, 8};
    const auto atom_dist = Distribution::block(4, 2);  // atoms {0,1} | {2,3}
    const auto nnz_dist = Distribution::from_cuts(8, {0, 5, 8});
    hpfcg::sparse::NnzExchangePlan plan(proc, ptr, atom_dist, nnz_dist);
    if (proc.rank() == 0) {
      EXPECT_EQ(plan.remote_nnz(), 0u);  // needs [0,4), owns [0,5)
    } else {
      EXPECT_EQ(plan.remote_nnz(), 1u);  // needs [4,8), owns [5,8): misses k=4
    }
    // Execute and verify the assembled window.
    std::vector<int> owned(plan.owned().size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      owned[i] = static_cast<int>(plan.owned().begin + i);
    }
    std::vector<int> work(plan.needed().size());
    plan.execute<int>(proc, owned, work);
    for (std::size_t i = 0; i < work.size(); ++i) {
      EXPECT_EQ(work[i], static_cast<int>(plan.needed().begin + i));
    }
  });
}

}  // namespace
