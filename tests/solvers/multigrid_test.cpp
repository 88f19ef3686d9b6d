// Geometric multigrid V-cycle preconditioner (the HPCG-class workload):
// hierarchy construction, grid-transfer round trips, V-cycle PCG
// convergence vs Jacobi-PCG, exact-smoother NP-invariance under repro
// mode (including across a mid-solve rebalance that migrates the cached
// hierarchy), preconditioner-symmetry property probes for Jacobi / SSOR /
// V-cycle, and the smoother's named zero-diagonal diagnostic.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/solvers/multigrid.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "spmd_test_util.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

constexpr std::array<std::size_t, 3> kDims{16, 8, 8};  // 1024 rows

/// Runs MG-PCG on the 27-point stencil and returns the residual history
/// (rank 0's copy) plus the solution.
struct MgRun {
  std::vector<double> history;
  std::vector<double> x_full;
  sv::SolveResult res;
  bool exact = false;
};

MgRun run_mg_pcg(int np, const sv::MgOptions& mg_opts,
                 std::size_t rebalance_every = 0,
                 bool skewed_start = false) {
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 71);
  MgRun out;
  run_spmd(np, [&](Process& proc) {
    hpfcg::hpf::DistPtr dist;
    if (skewed_start && proc.nprocs() > 1) {
      // Deliberately unbalanced cuts so the first rebalance must migrate.
      std::vector<std::size_t> cuts(
          static_cast<std::size_t>(proc.nprocs()) + 1, n);
      cuts[0] = 0;
      for (int r = 1; r < proc.nprocs(); ++r) {
        cuts[static_cast<std::size_t>(r)] =
            n / 2 + static_cast<std::size_t>(r - 1) * (n / 2) /
                        static_cast<std::size_t>(proc.nprocs());
      }
      dist = share(Distribution::from_cuts(n, std::move(cuts)));
    } else {
      dist = share(Distribution::block(n, proc.nprocs()));
    }
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    mat.enable_caching();
    mat.prepare_halo();
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    sv::MgPreconditioner mg(proc, mat, kDims, mg_opts);
    if (proc.rank() == 0) out.exact = mg.exact_smoother();
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    sv::RebalanceHook hook;
    if (rebalance_every > 0) {
      hook = sv::make_csr_rebalancer<double>(
          mat, [&](const hpfcg::hpf::DistPtr& nd) { mg.migrate_fine(nd); });
    }
    const auto res = sv::pcg_dist<double>(
        op, mg.prec(), b, x,
        {.max_iterations = 200,
         .rel_tolerance = 1e-10,
         .track_residuals = true,
         .rebalance_every = rebalance_every},
        hook);
    const auto full = x.to_global();
    if (proc.rank() == 0) {
      out.history = res.residual_history;
      out.x_full = full;
      out.res = res;
    }
  });
  return out;
}

TEST(MgHierarchy, CoarsensUntilOddOrSmall) {
  run_spmd(2, [&](Process& proc) {
    const auto a = sp::stencil27_3d(16, 8, 8);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    sv::MgPreconditioner mg(proc, mat, {16, 8, 8},
                            {.max_levels = 8, .min_coarse_rows = 8});
    // 16x8x8 (1024) -> 8x4x4 (128) -> 4x2x2 (16) -> stop: 2x1x1 has odd
    // extents.
    ASSERT_EQ(mg.n_levels(), 3u);
    EXPECT_EQ(mg.level_dims(1), (std::array<std::size_t, 3>{8, 4, 4}));
    EXPECT_EQ(mg.level_op(1).n(), 128u);
    EXPECT_EQ(mg.level_op(2).n(), 16u);
    // min_coarse_rows stops earlier when asked.
    sv::MgPreconditioner shallow(proc, mat, {16, 8, 8},
                                 {.max_levels = 8, .min_coarse_rows = 100});
    EXPECT_EQ(shallow.n_levels(), 2u);
  });
}

TEST(MgHierarchy, RejectsMismatchedDims) {
  run_spmd(1, [&](Process& proc) {
    const auto a = sp::stencil27_3d(4, 4, 4);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    EXPECT_THROW(sv::MgPreconditioner(proc, mat, {4, 4, 8}),
                 hpfcg::util::Error);
  });
}

/// Grid-transfer oracle: restriction is serial injection and prolongation
/// its serial transpose scatter-add, bit for bit, on block maps and on
/// uneven cut maps skewed in opposite directions (fine rows front-light,
/// coarse rows front-heavy) so most coarse rows inject from another rank.
class GridTransferTest : public ::testing::TestWithParam<int> {};

constexpr std::array<std::size_t, 3> kTransferFine{8, 6, 4};
constexpr std::array<std::size_t, 3> kTransferCoarse{4, 3, 2};

std::size_t injected_fine_gid(std::size_t ic) {
  const std::size_t cx = kTransferCoarse[0], cy = kTransferCoarse[1];
  const std::size_t xc = ic % cx, yc = (ic / cx) % cy, zc = ic / (cx * cy);
  return (2 * zc * kTransferFine[1] + 2 * yc) * kTransferFine[0] + 2 * xc;
}

/// Cut points r²/np² of n (front-light) or, mirrored, front-heavy.
Distribution skewed_cuts(std::size_t n, int np, bool front_heavy) {
  const auto unp = static_cast<std::size_t>(np);
  std::vector<std::size_t> cuts(unp + 1);
  for (std::size_t r = 0; r <= unp; ++r) {
    cuts[r] = front_heavy ? n - n * (unp - r) * (unp - r) / (unp * unp)
                          : n * r * r / (unp * unp);
  }
  return Distribution::from_cuts(n, std::move(cuts));
}

void check_transfer(int np, bool uneven) {
  const std::size_t nf = kTransferFine[0] * kTransferFine[1] *
                         kTransferFine[2];
  const std::size_t nc = kTransferCoarse[0] * kTransferCoarse[1] *
                         kTransferCoarse[2];
  const auto fine_val = [](std::size_t g) {
    return 0.1 * static_cast<double>(g) + 1.0 / static_cast<double>(g + 3);
  };
  const auto coarse_val = [](std::size_t g) {
    return 1.0 / 7.0 - 0.3 * static_cast<double>(g);
  };
  std::vector<double> coarse_ref(nc), fine_ref(nf);
  for (std::size_t g = 0; g < nf; ++g) fine_ref[g] = fine_val(g);
  for (std::size_t ic = 0; ic < nc; ++ic) {
    coarse_ref[ic] = fine_val(injected_fine_gid(ic));
    fine_ref[injected_fine_gid(ic)] += coarse_val(ic);
  }

  const auto fine_dist = share(uneven ? skewed_cuts(nf, np, false)
                                      : Distribution::block(nf, np));
  const auto coarse_dist = share(uneven ? skewed_cuts(nc, np, true)
                                        : Distribution::block(nc, np));
  std::size_t remote_rows = 0;
  for (std::size_t ic = 0; ic < nc; ++ic) {
    if (fine_dist->owner(injected_fine_gid(ic)) != coarse_dist->owner(ic)) {
      ++remote_rows;
    }
  }
  if (np > 1 && uneven) {
    EXPECT_GT(remote_rows, 0u) << "np=" << np;
  }

  run_spmd(np, [&](Process& proc) {
    sv::GridTransfer t;
    t.build(proc, kTransferFine, *fine_dist, kTransferCoarse, *coarse_dist);
    DistributedVector<double> fine(proc, fine_dist), coarse(proc, coarse_dist);
    fine.set_from(fine_val);
    t.restrict_to(proc, fine.local(), coarse.local());
    const auto restricted = coarse.to_global();
    coarse.set_from(coarse_val);
    t.prolong_add(proc, coarse.local(), fine.local());
    const auto prolonged = fine.to_global();
    for (std::size_t i = 0; i < nc; ++i) {
      EXPECT_EQ(restricted[i], coarse_ref[i])
          << "restrict np=" << np << " uneven=" << uneven << " row " << i;
    }
    for (std::size_t i = 0; i < nf; ++i) {
      EXPECT_EQ(prolonged[i], fine_ref[i])
          << "prolong np=" << np << " uneven=" << uneven << " row " << i;
    }
  });
}

TEST_P(GridTransferTest, BlockMapsMatchSerialInjectionAndTranspose) {
  check_transfer(GetParam(), /*uneven=*/false);
}

TEST_P(GridTransferTest, UnevenCutMapsMatchSerialInjectionAndTranspose) {
  check_transfer(GetParam(), /*uneven=*/true);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, GridTransferTest,
                         ::testing::Values(1, 2, 3, 4, 8));

class MultigridTest : public ::testing::TestWithParam<int> {};

TEST_P(MultigridTest, VcyclePcgMatchesSerialCgAndBeatsJacobiPcg) {
  const int np = GetParam();
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 71);
  std::vector<double> x_ref(n, 0.0);
  const auto ref = sv::cg(a, b_full, x_ref, {.rel_tolerance = 1e-10});
  ASSERT_TRUE(ref.converged);

  const auto mg = run_mg_pcg(np, {});
  ASSERT_TRUE(mg.res.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mg.x_full[i], x_ref[i], 1e-6 * (1.0 + std::abs(x_ref[i])));
  }

  // Jacobi-PCG on the same system, same machine.  This grid is small, so
  // the gap is modest; bench_hpcg gates the full MG <= 1/3 Jacobi bar on
  // the HPCG-sized grid where the hierarchy pays off.
  std::size_t jacobi_iters = 0;
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res = sv::pcg_dist<double>(
        op, sv::jacobi_dist<double>(inv_diag), b, x,
        {.max_iterations = 500, .rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    if (proc.rank() == 0) jacobi_iters = res.iterations;
  });
  EXPECT_LE(2 * mg.res.iterations, jacobi_iters)
      << "MG-PCG took " << mg.res.iterations << " iterations vs Jacobi-PCG "
      << jacobi_iters;
}

TEST_P(MultigridTest, HybridSmootherAlsoConverges) {
  const int np = GetParam();
  const auto mg =
      run_mg_pcg(np, {.smoother = sv::MgSmoother::kHybridSymGs});
  EXPECT_FALSE(mg.exact);
  EXPECT_TRUE(mg.res.converged);
  EXPECT_LE(mg.res.relative_residual, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, MultigridTest,
                         ::testing::ValuesIn(test_machine_sizes()));

TEST(MultigridRepro, ExactSmootherHistoriesBitIdenticalAcrossNp) {
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "HPFCG_REPRO compiled out";
  hpfcg::repro::ScopedEnable on;
  const auto ref = run_mg_pcg(1, {});
  ASSERT_TRUE(ref.res.converged);
  EXPECT_TRUE(ref.exact);  // kAuto samples the repro flag at setup
  for (const int np : {2, 4, 8}) {
    const auto got = run_mg_pcg(np, {});
    EXPECT_TRUE(got.exact);
    ASSERT_EQ(got.history.size(), ref.history.size()) << "np=" << np;
    for (std::size_t k = 0; k < ref.history.size(); ++k) {
      EXPECT_EQ(got.history[k], ref.history[k]) << "np=" << np << " k=" << k;
    }
    ASSERT_EQ(got.x_full.size(), ref.x_full.size());
    for (std::size_t i = 0; i < ref.x_full.size(); ++i) {
      EXPECT_EQ(got.x_full[i], ref.x_full[i]) << "np=" << np << " i=" << i;
    }
  }
}

TEST(MultigridRepro, RebalanceMigratesHierarchyBitIdentically) {
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "HPFCG_REPRO compiled out";
  hpfcg::repro::ScopedEnable on;
  const auto ref = run_mg_pcg(1, {});
  ASSERT_TRUE(ref.res.converged);
  // Skewed initial cuts force the first rebalance to migrate the fine
  // matrix; migrate_fine() re-wires the cached hierarchy.  Exact smoother +
  // exact reductions make the whole history partition-invariant, so even a
  // run whose cuts CHANGE mid-solve reproduces the serial bits.
  for (const int np : {2, 4, 8}) {
    const auto got = run_mg_pcg(np, {}, /*rebalance_every=*/3,
                                /*skewed_start=*/true);
    ASSERT_TRUE(got.res.converged) << "np=" << np;
    ASSERT_EQ(got.history.size(), ref.history.size()) << "np=" << np;
    for (std::size_t k = 0; k < ref.history.size(); ++k) {
      EXPECT_EQ(got.history[k], ref.history[k]) << "np=" << np << " k=" << k;
    }
  }
}

/// r1·(M r2) == r2·(M r1): the self-adjointness PCG requires of its
/// preconditioner, probed with deterministic pseudo-random vectors.
class PrecSymmetryTest : public ::testing::TestWithParam<int> {};

TEST_P(PrecSymmetryTest, JacobiAndVcycleAreSelfAdjoint) {
  const int np = GetParam();
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto r1_full = sp::random_rhs(n, 201);
  const auto r2_full = sp::random_rhs(n, 202);

  for (const auto smoother :
       {sv::MgSmoother::kExactSymGs, sv::MgSmoother::kHybridSymGs}) {
    run_spmd(np, [&](Process& proc) {
      auto dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
      mat.prepare_halo();
      DistributedVector<double> r1(proc, dist), r2(proc, dist),
          z1(proc, dist), z2(proc, dist);
      r1.from_global(r1_full);
      r2.from_global(r2_full);

      sv::MgPreconditioner mg(proc, mat, kDims, {.smoother = smoother});
      mg.apply(r2, z2);  // z2 = M^{-1} r2
      mg.apply(r1, z1);  // z1 = M^{-1} r1
      const double d12 = hpfcg::hpf::dot_product(r1, z2);
      const double d21 = hpfcg::hpf::dot_product(r2, z1);
      if (proc.rank() == 0) {
        EXPECT_NEAR(d12, d21, 1e-10 * (std::abs(d12) + std::abs(d21)))
            << "V-cycle (" << (mg.exact_smoother() ? "exact" : "hybrid")
            << " smoother) not self-adjoint at np=" << proc.nprocs();
      }

      // Jacobi for contrast: diagonal, so exactly self-adjoint.
      DistributedVector<double> inv_diag(proc, dist);
      inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
      const auto jac = sv::jacobi_dist<double>(inv_diag);
      jac(r2, z2);
      jac(r1, z1);
      const double j12 = hpfcg::hpf::dot_product(r1, z2);
      const double j21 = hpfcg::hpf::dot_product(r2, z1);
      if (proc.rank() == 0) {
        EXPECT_NEAR(j12, j21, 1e-12 * (std::abs(j12) + std::abs(j21)));
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, PrecSymmetryTest,
                         ::testing::ValuesIn(test_machine_sizes()));

TEST(PrecSymmetry, SerialSsorIsSelfAdjoint) {
  const auto a = sp::laplacian_3d(6, 6, 6);
  const std::size_t n = a.n_rows();
  const auto r1 = sp::random_rhs(n, 203);
  const auto r2 = sp::random_rhs(n, 204);
  std::vector<double> z1(n), z2(n);
  const auto ssor = sv::ssor_preconditioner(a, 1.4);
  ssor(r1, z1);
  ssor(r2, z2);
  double d12 = 0.0, d21 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d12 += r1[i] * z2[i];
    d21 += r2[i] * z1[i];
  }
  EXPECT_NEAR(d12, d21, 1e-12 * (std::abs(d12) + std::abs(d21)));
}

TEST(GsHalfSweep, MatchesSerialGaussSeidelSweep) {
  const auto a = sp::stencil27_3d(8, 4, 4);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 61);
  // Serial reference: one forward + one backward in-place sweep.
  std::vector<double> x_ref(n, 0.0);
  const auto serial_relax = [&](std::size_t i) {
    double acc = b_full[i];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i) acc -= vals[k] * x_ref[cols[k]];
    }
    x_ref[i] = acc / a.at(i, i);
  };
  for (std::size_t i = 0; i < n; ++i) serial_relax(i);
  for (std::size_t i = n; i-- > 0;) serial_relax(i);

  for (const int np : test_machine_sizes()) {
    run_spmd(np, [&](Process& proc) {
      auto dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
      mat.prepare_halo();
      DistributedVector<double> b(proc, dist), x(proc, dist);
      b.from_global(b_full);
      mat.gs_half_sweep(b, x, /*forward=*/true, /*exact=*/true);
      mat.gs_half_sweep(b, x, /*forward=*/false, /*exact=*/true);
      const auto full = x.to_global();
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(full[i], x_ref[i]) << "np=" << np << " row " << i;
      }
    });
  }
}

TEST(GsHalfSweep, ZeroDiagonalNamesTheRow) {
  // 3x3 system whose middle row has no diagonal entry.
  const std::vector<double> dense = {2.0, -1.0, 0.0,   //
                                     -1.0, 0.0, -1.0,  //
                                     0.0, -1.0, 2.0};
  const auto a = sp::Csr<double>::from_dense(3, 3, dense);
  run_spmd(1, [&](Process& proc) {
    auto dist = share(Distribution::block(3, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    try {
      mat.gs_half_sweep(b, x, true, true);
      FAIL() << "expected a zero-diagonal diagnostic";
    } catch (const hpfcg::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "gs_half_sweep: zero or missing diagonal in global row 1"),
                std::string::npos)
          << e.what();
    }
  });
}

}  // namespace
