// The headline bugfix property: with HPFCG_REPRO on, the fused CG / PCG
// residual histories are bit-identical across machine sizes AND across
// rebalance schedules — the NP-dependent rounding drift the mode exists to
// remove.  The matvec is row-wise (each row dots its entries in fixed k
// order on whichever rank owns it), so once the reductions are exact the
// whole trajectory is a pure function of the problem.  The same holds for
// every other distributed method (ReproNpInvarianceTest).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/solvers/dist_gmres.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "spmd_test_util.hpp"

namespace repro = hpfcg::repro;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

/// Skewed workload so mid-solve rebalancing actually migrates.
sp::Csr<double> skewed_matrix() { return sp::powerlaw_spd(96, 3, 5, 48, 13); }

/// Run cg_fused_dist on `np` ranks and return rank 0's residual signature.
std::uint64_t cg_fused_signature(int np, const sp::Csr<double>& a,
                                 const std::vector<double>& b_full,
                                 std::size_t rebalance_every) {
  std::uint64_t sig = 0;
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto hook = sv::make_csr_rebalancer<double>(mat);
    const auto res = sv::cg_fused_dist<double>(
        op, b, x,
        {.rel_tolerance = 1e-10,
         .track_residuals = true,
         .rebalance_every = rebalance_every},
        rebalance_every == 0 ? sv::RebalanceHook{} : hook);
    if (proc.rank() == 0) sig = res.residual_signature();
  });
  return sig;
}

/// Same for pcg_fused_dist with a Jacobi preconditioner whose diagonal
/// migrates through the rebalancer's on_migrate callback.
std::uint64_t pcg_fused_signature(int np, const sp::Csr<double>& a,
                                  const std::vector<double>& b_full,
                                  std::size_t rebalance_every) {
  std::uint64_t sig = 0;
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const sv::DistPrec<double> prec =
        [&inv_diag](const DistributedVector<double>& r,
                    DistributedVector<double>& z) {
          hpfcg::hpf::hadamard(inv_diag, r, z);
        };
    const auto hook = sv::make_csr_rebalancer<double>(
        mat, [&](const hpfcg::hpf::DistPtr& nd) {
          inv_diag = hpfcg::hpf::redistribute(inv_diag, nd);
        });
    const auto res = sv::pcg_fused_dist<double>(
        op, prec, b, x,
        {.rel_tolerance = 1e-10,
         .track_residuals = true,
         .rebalance_every = rebalance_every},
        rebalance_every == 0 ? sv::RebalanceHook{} : hook);
    if (proc.rank() == 0) sig = res.residual_signature();
  });
  return sig;
}

class ReproSolversTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  }
};

TEST_F(ReproSolversTest, CgFusedResidualHistoryIsNpInvariant) {
  const auto a = sp::laplacian_2d(9, 7);
  const auto b_full = sp::random_rhs(a.n_rows(), 17);
  repro::ScopedEnable on;
  const std::uint64_t ref = cg_fused_signature(1, a, b_full, 0);
  for (const int np : {2, 3, 4, 7, 8}) {
    EXPECT_EQ(cg_fused_signature(np, a, b_full, 0), ref) << "np=" << np;
  }
}

TEST_F(ReproSolversTest, PcgFusedResidualHistoryIsNpInvariant) {
  const auto a = sp::random_spd(48, 5, 91);
  const auto b_full = sp::random_rhs(a.n_rows(), 37);
  repro::ScopedEnable on;
  const std::uint64_t ref = pcg_fused_signature(1, a, b_full, 0);
  for (const int np : {2, 4, 8}) {
    EXPECT_EQ(pcg_fused_signature(np, a, b_full, 0), ref) << "np=" << np;
  }
}

TEST_F(ReproSolversTest, CgFusedSurvivesRebalanceSchedules) {
  // The drift scenario from the issue: the same solve with and without
  // mid-solve redistribution (and at different cadences) must produce
  // bit-identical residual histories once reductions are exact.
  const auto a = skewed_matrix();
  const auto b_full = sp::random_rhs(a.n_rows(), 5);
  repro::ScopedEnable on;
  const int np = 4;
  const std::uint64_t never = cg_fused_signature(np, a, b_full, 0);
  EXPECT_EQ(cg_fused_signature(np, a, b_full, 3), never) << "every 3";
  EXPECT_EQ(cg_fused_signature(np, a, b_full, 5), never) << "every 5";
  // And the rebalanced runs still match every other machine size.
  EXPECT_EQ(cg_fused_signature(2, a, b_full, 4), never);
  EXPECT_EQ(cg_fused_signature(8, a, b_full, 4), never);
}

TEST_F(ReproSolversTest, PcgFusedSurvivesRebalanceSchedules) {
  const auto a = skewed_matrix();
  const auto b_full = sp::random_rhs(a.n_rows(), 33);
  repro::ScopedEnable on;
  const int np = 4;
  const std::uint64_t never = pcg_fused_signature(np, a, b_full, 0);
  EXPECT_EQ(pcg_fused_signature(np, a, b_full, 3), never) << "every 3";
  EXPECT_EQ(pcg_fused_signature(2, a, b_full, 4), never) << "np=2 every 4";
}

TEST_F(ReproSolversTest, RebalanceHookStillMigratesAndConverges) {
  // Guard against the hook param being wired but dead: with a skewed
  // matrix the pcg_fused rebalance must actually migrate, and the solve
  // must still converge against the operator.
  const auto a = skewed_matrix();
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 41);
  repro::ScopedEnable on;
  std::atomic<std::size_t> migrations{0};
  run_spmd(4, [&](Process& proc) {
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
    const sv::DistPrec<double> prec =
        [&inv_diag](const DistributedVector<double>& r,
                    DistributedVector<double>& z) {
          hpfcg::hpf::hadamard(inv_diag, r, z);
        };
    const auto hook = sv::make_csr_rebalancer<double>(
        mat, [&](const hpfcg::hpf::DistPtr& nd) {
          inv_diag = hpfcg::hpf::redistribute(inv_diag, nd);
          if (proc.rank() == 0) ++migrations;
        });
    const auto res = sv::pcg_fused_dist<double>(
        op, prec, b, x,
        {.rel_tolerance = 1e-10, .track_residuals = true,
         .rebalance_every = 3},
        hook);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.relative_residual, 1e-10);
  });
  EXPECT_GE(migrations.load(), 1u);
}

/// Nonsymmetric upwind-convection matrix (the GMRES test system).
sp::Csr<double> upwind_matrix() {
  const std::size_t n = 80;
  sp::Coo<double> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
    if (i > 0) coo.add(i, i - 1, -2.5);
  }
  return sp::Csr<double>::from_coo(std::move(coo));
}

sp::Csr<double> spd_matrix() { return sp::random_spd(48, 5, 91); }

/// One distributed method run over a row-wise DistCsr operator `a` and a
/// Jacobi preconditioner `m`.
struct DistMethod {
  const char* name;
  sp::Csr<double> (*matrix)();
  std::function<sv::SolveResult(const sv::DistOp<double>& a,
                                const sv::DistPrec<double>& m,
                                const DistributedVector<double>& b,
                                DistributedVector<double>& x,
                                const sv::SolveOptions& opts)>
      solve;
  // Printed as the parameter, so ctest names the case after the method.
  friend void PrintTo(const DistMethod& m, std::ostream* os) {
    *os << m.name;
  }
};

std::vector<DistMethod> dist_methods() {
  using Op = const sv::DistOp<double>&;
  using B = const DistributedVector<double>&;
  using X = DistributedVector<double>&;
  using O = const sv::SolveOptions&;
  return {
      {"cg", spd_matrix,
       [](Op a, Op, B b, X x, O o) { return sv::cg_dist<double>(a, b, x, o); }},
      {"pcg", spd_matrix,
       [](Op a, Op m, B b, X x, O o) {
         return sv::pcg_dist<double>(a, m, b, x, o);
       }},
      // The transpose accumulate sums partial products in an NP-dependent
      // order, so BiCG runs on a symmetric A with the row-wise A as A^T.
      {"bicg", spd_matrix,
       [](Op a, Op, B b, X x, O o) {
         return sv::bicg_dist<double>(a, a, b, x, o);
       }},
      {"cgs", upwind_matrix,
       [](Op a, Op, B b, X x, O o) { return sv::cgs_dist<double>(a, b, x, o); }},
      {"bicgstab", upwind_matrix,
       [](Op a, Op, B b, X x, O o) {
         return sv::bicgstab_dist<double>(a, b, x, o);
       }},
      {"bicgstab_fused", upwind_matrix,
       [](Op a, Op, B b, X x, O o) {
         return sv::bicgstab_fused_dist<double>(a, b, x, o);
       }},
      {"gmres", upwind_matrix,
       [](Op a, Op, B b, X x, O o) {
         return sv::gmres_dist<double>(a, b, x, {.base = o, .restart = 20});
       }},
  };
}

/// Rank 0's result of `m` on `np` ranks.
sv::SolveResult dist_solve(int np, const DistMethod& m,
                           const sp::Csr<double>& a,
                           const std::vector<double>& b_full) {
  sv::SolveResult out;
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res = m.solve(op, sv::jacobi_dist<double>(inv_diag), b, x,
                             {.max_iterations = 400,
                              .rel_tolerance = 1e-10,
                              .track_residuals = true});
    if (proc.rank() == 0) out = res;
  });
  return out;
}

class ReproNpInvarianceTest : public ::testing::TestWithParam<DistMethod> {
 protected:
  void SetUp() override {
    if (!repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  }
};

TEST_P(ReproNpInvarianceTest, ResidualHistoryIsNpInvariant) {
  const DistMethod& m = GetParam();
  const auto a = m.matrix();
  const auto b_full = sp::random_rhs(a.n_rows(), 23);
  repro::ScopedEnable on;
  const sv::SolveResult ref = dist_solve(1, m, a, b_full);
  ASSERT_TRUE(ref.converged);
  for (const int np : {2, 4, 8}) {
    EXPECT_EQ(dist_solve(np, m, a, b_full).residual_signature(),
              ref.residual_signature())
        << "np=" << np;
  }
}

INSTANTIATE_TEST_SUITE_P(Solvers, ReproNpInvarianceTest,
                         ::testing::ValuesIn(dist_methods()));

}  // namespace
