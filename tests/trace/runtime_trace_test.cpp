// Integration tests for tracing woven into the msg runtime: Session
// lifetime mirrors check::Harness, spans carry kind/width/depth/envelope
// path, the solver metrics channel publishes residuals, every distributed
// solver traces its iterations, and — the contract the whole subsystem
// hangs on — Stats are bit-identical with tracing off, on, or compiled out.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/solvers/dist_gmres.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/trace/trace.hpp"
#include "spmd_test_util.hpp"

namespace trace = hpfcg::trace;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;
using hpfcg_test::run_spmd;

namespace {

std::vector<trace::Span> spans_of_kind(const trace::RankTrace& t,
                                       trace::SpanKind kind) {
  std::vector<trace::Span> out;
  for (const auto& s : t.spans()) {
    if (s.kind == kind) out.push_back(s);
  }
  return out;
}

TEST(RuntimeTrace, SessionExistsOnlyWhenEnabled) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  {
    trace::ScopedEnable off(false);
    hpfcg::msg::Runtime rt(2);
    EXPECT_EQ(rt.tracer(), nullptr);
  }
  {
    trace::ScopedEnable on(true);
    hpfcg::msg::Runtime rt(2);
    ASSERT_NE(rt.tracer(), nullptr);
    EXPECT_EQ(rt.tracer()->nprocs(), 2);
  }
}

TEST(RuntimeTrace, CollectiveSpansCarryKindWidthAndDepth) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  for (const int np : hpfcg_test::test_machine_sizes()) {
    auto rt = run_spmd(np, [](Process& p) {
      std::vector<double> vals(3, static_cast<double>(p.rank()));
      p.allreduce_batch(std::span<double>(vals));
      p.barrier();
    });
    ASSERT_NE(rt->tracer(), nullptr);
    for (int r = 0; r < np; ++r) {
      const auto batches = spans_of_kind(rt->tracer()->rank(r),
                                         trace::SpanKind::kAllreduceBatch);
      ASSERT_EQ(batches.size(), 1u) << "np=" << np << " rank=" << r;
      EXPECT_EQ(batches[0].a, 3u);
      EXPECT_EQ(batches[0].bytes, 3 * sizeof(double));
      // depth = ceil(log2 np)
      int d = 0;
      while ((1 << d) < np) ++d;
      EXPECT_EQ(batches[0].depth, d) << "np=" << np;
      const auto barriers =
          spans_of_kind(rt->tracer()->rank(r), trace::SpanKind::kBarrier);
      EXPECT_EQ(barriers.size(), 1u);
    }
  }
}

TEST(RuntimeTrace, SendRecvSpansCarryPeerAndEnvelopePath) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  auto rt = run_spmd(2, [](Process& p) {
    const std::vector<double> big(64, 1.0);  // 512 B: heap envelope
    const double small = 2.0;                // 8 B: inline envelope
    if (p.rank() == 0) {
      p.send_value(1, 7, small);
      p.send(1, 8, std::span<const double>(big.data(), big.size()));
    } else {
      (void)p.recv_value<double>(0, 7);
      (void)p.recv<double>(0, 8);
    }
  });
  ASSERT_NE(rt->tracer(), nullptr);
  const auto sends =
      spans_of_kind(rt->tracer()->rank(0), trace::SpanKind::kSend);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].a, 1u);
  EXPECT_EQ(sends[0].bytes, sizeof(double));
  EXPECT_EQ(sends[0].aux,
            static_cast<std::uint8_t>(trace::EnvelopePath::kInline));
  EXPECT_EQ(sends[1].bytes, 64 * sizeof(double));
  EXPECT_NE(sends[1].aux,
            static_cast<std::uint8_t>(trace::EnvelopePath::kInline));
  const auto recvs =
      spans_of_kind(rt->tracer()->rank(1), trace::SpanKind::kRecv);
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(recvs[0].a, 0u);  // actual sender patched in
  EXPECT_EQ(recvs[0].bytes, sizeof(double));
}

TEST(RuntimeTrace, IterationMetricsChannelPublishesResiduals) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  auto rt = run_spmd(2, [](Process& p) {
    for (int k = 0; k < 3; ++k) {
      double v = 1.0;
      p.allreduce(v);
      p.trace_iteration(static_cast<std::uint64_t>(k),
                        1.0 / static_cast<double>(k + 1));
    }
  });
  ASSERT_NE(rt->tracer(), nullptr);
  const auto iters = rt->tracer()->rank(0).iterations();
  ASSERT_EQ(iters.size(), 3u);
  EXPECT_EQ(iters[2].iteration, 2u);
  EXPECT_DOUBLE_EQ(iters[2].residual, 1.0 / 3.0);
  // Cumulative counters are nondecreasing along the channel.
  EXPECT_GE(iters[2].reductions, iters[0].reductions);
  EXPECT_GE(iters[2].bytes_moved, iters[0].bytes_moved);
  EXPECT_GT(iters[2].reductions, 0u);
}

TEST(RuntimeTrace, EveryDistributedSolverTracesEachIteration) {
  // Each distributed solver records one kIteration span per iteration,
  // a kMatvec span inside every one of them, and one metrics-channel
  // sample per iteration plus the initial residual.
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  using DV = DistributedVector<double>;
  using Op = const sv::DistOp<double>&;
  using Solve = std::function<sv::SolveResult(Op, Op, const DV&, DV&)>;
  const std::vector<std::pair<const char*, Solve>> solvers = {
      {"cg", [](Op a, Op, const DV& b, DV& x) {
         return sv::cg_dist<double>(a, b, x);
       }},
      {"cg_fused", [](Op a, Op, const DV& b, DV& x) {
         return sv::cg_fused_dist<double>(a, b, x);
       }},
      {"pcg", [](Op a, Op m, const DV& b, DV& x) {
         return sv::pcg_dist<double>(a, m, b, x);
       }},
      {"pcg_fused", [](Op a, Op m, const DV& b, DV& x) {
         return sv::pcg_fused_dist<double>(a, m, b, x);
       }},
      {"bicg", [](Op a, Op, const DV& b, DV& x) {
         return sv::bicg_dist<double>(a, a, b, x);  // A is symmetric
       }},
      {"cgs", [](Op a, Op, const DV& b, DV& x) {
         return sv::cgs_dist<double>(a, b, x);
       }},
      {"bicgstab", [](Op a, Op, const DV& b, DV& x) {
         return sv::bicgstab_dist<double>(a, b, x);
       }},
      {"bicgstab_fused", [](Op a, Op, const DV& b, DV& x) {
         return sv::bicgstab_fused_dist<double>(a, b, x);
       }},
      {"gmres", [](Op a, Op, const DV& b, DV& x) {
         return sv::gmres_dist<double>(a, b, x, {.restart = 10});
       }},
  };
  const auto a = sp::random_spd(40, 5, 3);
  const auto b_full = sp::random_rhs(a.n_rows(), 4);
  const int np = 2;
  for (const auto& [name, solve] : solvers) {
    std::vector<std::size_t> iterations(np, 0);
    auto rt = run_spmd(np, [&](Process& p) {
      auto dist = std::make_shared<const Distribution>(
          Distribution::block(a.n_rows(), p.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
      DV b(p, dist), x(p, dist), inv_diag(p, dist);
      b.from_global(b_full);
      inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
      const sv::DistOp<double> op = [&](const DV& in, DV& out) {
        mat.matvec(in, out);
      };
      const auto res = solve(op, sv::jacobi_dist<double>(inv_diag), b, x);
      EXPECT_TRUE(res.converged) << name;
      iterations[static_cast<std::size_t>(p.rank())] = res.iterations;
    });
    ASSERT_NE(rt->tracer(), nullptr);
    for (int r = 0; r < np; ++r) {
      const auto& t = rt->tracer()->rank(r);
      ASSERT_EQ(t.dropped(), 0u) << name;
      const std::size_t iters = iterations[static_cast<std::size_t>(r)];
      ASSERT_GT(iters, 0u) << name;
      const auto its = spans_of_kind(t, trace::SpanKind::kIteration);
      EXPECT_EQ(its.size(), iters) << name << " rank=" << r;
      const auto matvecs = spans_of_kind(t, trace::SpanKind::kMatvec);
      for (const auto& it : its) {
        EXPECT_TRUE(std::any_of(matvecs.begin(), matvecs.end(),
                                [&](const trace::Span& mv) {
                                  return mv.t0_ns >= it.t0_ns &&
                                         mv.t1_ns <= it.t1_ns;
                                }))
            << name << " rank=" << r << " iteration " << it.a;
      }
      EXPECT_EQ(t.iterations().size(), iters + 1) << name << " rank=" << r;
    }
  }
}

/// The tentpole contract: tracing must never perturb the machine's
/// observable behavior.  Same workload, tracing off vs on — every Stats
/// field must match bit for bit.
TEST(RuntimeTrace, StatsBitIdenticalWithTracingOnAndOff) {
  const auto workload = [](Process& p) {
    std::vector<double> vals(4, static_cast<double>(p.rank() + 1));
    p.allreduce_batch(std::span<double>(vals));
    p.barrier();
    std::vector<double> buf(10, p.rank() == 0 ? 3.0 : 0.0);
    p.broadcast(0, buf);
    const double m = p.reduce(0, static_cast<double>(p.rank()));
    (void)m;
  };
  std::vector<Stats> off_stats, on_stats;
  for (const int np : hpfcg_test::test_machine_sizes()) {
    {
      trace::ScopedEnable off(false);
      auto rt = run_spmd(np, workload);
      off_stats.push_back(rt->total_stats());
    }
    {
      trace::ScopedEnable on(true);
      auto rt = run_spmd(np, workload);
      on_stats.push_back(rt->total_stats());
    }
  }
  ASSERT_EQ(off_stats.size(), on_stats.size());
  for (std::size_t i = 0; i < off_stats.size(); ++i) {
    const Stats& a = off_stats[i];
    const Stats& b = on_stats[i];
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "i=" << i;
    EXPECT_EQ(a.messages_received, b.messages_received) << "i=" << i;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "i=" << i;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "i=" << i;
    EXPECT_EQ(a.flops, b.flops) << "i=" << i;
    EXPECT_EQ(a.barriers, b.barriers) << "i=" << i;
    EXPECT_EQ(a.collectives, b.collectives) << "i=" << i;
    EXPECT_EQ(a.reductions, b.reductions) << "i=" << i;
    EXPECT_EQ(a.reduction_values, b.reduction_values) << "i=" << i;
    EXPECT_EQ(a.envelopes_inline, b.envelopes_inline) << "i=" << i;
    // The pooled/heap split races recycle against the next draw; only the
    // sum is deterministic across runs.
    EXPECT_EQ(a.envelopes_pooled + a.envelopes_heap,
              b.envelopes_pooled + b.envelopes_heap)
        << "i=" << i;
    EXPECT_EQ(a.modeled_comm_seconds, b.modeled_comm_seconds) << "i=" << i;
    EXPECT_EQ(a.modeled_compute_seconds, b.modeled_compute_seconds)
        << "i=" << i;
    EXPECT_EQ(a.modeled_wait_seconds, b.modeled_wait_seconds) << "i=" << i;
  }
}

TEST(RuntimeTrace, RingCapacityIsRespectedAndDropsAreCounted) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  hpfcg::util::ScopedKnob<trace::capacity_knob> small_ring(8);
  auto rt = run_spmd(2, [](Process& p) {
    for (int i = 0; i < 100; ++i) p.barrier();
  });
  ASSERT_NE(rt->tracer(), nullptr);
  const auto& t = rt->tracer()->rank(0);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.spans().size(), 8u);
  EXPECT_EQ(t.recorded(), 100u);
  EXPECT_EQ(t.dropped(), 92u);
}

}  // namespace
