// Layer probes at the workload's NP and the same-process reference kernels
// the per-layer ratios divide by.

#include <unistd.h>

#include <algorithm>
#include <array>

#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "wallbench.hpp"

namespace wallbench {

namespace {

constexpr int kPingTag = 0x7701;  // clear of every library tag
constexpr int kScalarReps = 1000;
constexpr int kVectorReps = 200;

/// Keeps probed results observable so no call can be optimized away; one
/// per rank thread.
thread_local volatile double g_sink = 0.0;

/// `reps` calls of `call` on every rank, each after a barrier and inside
/// a span of `kind`.
template <class F>
void probe(msg::Process& proc, SpanLog* log, Kind kind, int reps, F&& call) {
  for (int i = 0; i < reps; ++i) {
    proc.barrier();
    SpanLog::Scope span(log, kind);
    call();
  }
}

/// Wall microseconds of `f()`: the median of at least `min_reps` calls
/// and of as many as fit in `min_seconds`.
template <class F>
double time_us(F&& f, int min_reps = 5, double min_seconds = 0.3) {
  std::vector<double> us;
  const std::int64_t start = now_ns();
  while (static_cast<int>(us.size()) < min_reps ||
         static_cast<double>(now_ns() - start) * 1e-9 < min_seconds) {
    const std::int64_t t0 = now_ns();
    f();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

}  // namespace

void probe_layers(System& sys, SpanLog* log) {
  msg::Process& proc = sys.proc();
  auto& x = sys.x();
  auto& b = sys.b();

  probe(proc, log, Kind::kAllreduce, kScalarReps,
        [&] { g_sink = g_sink + proc.allreduce(1.0); });
  probe(proc, log, Kind::kAllreduceBatch, kScalarReps, [&] {
    std::array<double, 3> v{1.0, 2.0, 3.0};
    proc.allreduce_batch(std::span<double>(v));
    g_sink = g_sink + v[0];
  });
  probe(proc, log, Kind::kPingpong, kScalarReps, [&] {
    if (proc.rank() == 0) {
      proc.send_value(1, kPingTag, 1.0);
      g_sink = g_sink + proc.recv_value<double>(1, kPingTag);
    } else if (proc.rank() == 1) {
      proc.send_value(0, kPingTag, proc.recv_value<double>(0, kPingTag));
    }
  });

  // A plan of the benchmark's own over the matrix's owned columns: the
  // same schedule the matvec replays, timed without the local sweep.
  sparse::HaloPlan plan;
  plan.build(proc, sys.mat().assembled_window().first, *sys.dist());
  std::vector<double> ghosts(plan.n_ghosts());
  std::vector<double> pack;
  probe(proc, log, Kind::kHaloExchange, kScalarReps, [&] {
    plan.exchange<double>(proc, x.local(), ghosts, pack);
  });

  probe(proc, log, Kind::kDot, kVectorReps,
        [&] { g_sink = g_sink + hpf::dot_product(x, b); });
  probe(proc, log, Kind::kDotProducts, kVectorReps, [&] {
    g_sink = g_sink + hpf::dot_products(x, x, b, x)[0];
  });
  probe(proc, log, Kind::kAxpy, kVectorReps,
        [&] { hpf::axpy(1e-3, b, x); });
}

SingleRankRefs single_rank_refs(const Workload& w, const Inputs& in) {
  SingleRankRefs refs;
  // The Krylov body each workload runs, without its preconditioner: the
  // per-iteration ratio compares the two implementations of one method.
  solvers::SolveOptions capped = solve_options();
  capped.max_iterations = 60;
  const bool plain_cg = w.solver == Solver::kCg;

  msg::Runtime rt(1);
  rt.run([&](msg::Process& proc) {
    const auto dist = hpf::make_block(in.a.n_rows(), 1);
    auto mat = sparse::DistCsr<double>::row_aligned(proc, in.a, dist);
    mat.prepare_halo();
    hpf::DistributedVector<double> p(proc, dist), q(proc, dist),
        x(proc, dist);
    p.from_global(in.b);
    refs.dist_matvec_us = time_us([&] { mat.matvec(p, q); });
    refs.dist_dot_us =
        time_us([&] { g_sink = g_sink + hpf::dot_product(p, q); });
    const solvers::DistOp<double> op =
        [&](const hpf::DistributedVector<double>& in_v,
            hpf::DistributedVector<double>& out_v) { mat.matvec(in_v, out_v); };
    std::size_t iters = 1;
    const double solve_us = time_us(
        [&] {
          hpf::fill(x, 0.0);
          const auto res = plain_cg
                               ? solvers::cg_dist<double>(op, p, x, capped)
                               : solvers::cg_fused_dist<double>(op, p, x,
                                                                capped);
          iters = std::max<std::size_t>(res.iterations, 1);
        },
        3);
    refs.dist_iter_us = solve_us / static_cast<double>(iters);
  });

  std::vector<double> y(in.b.size());
  refs.csr_matvec_us = time_us([&] { in.a.matvec(in.b, y); });
  refs.serial_dot_us = time_us([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += in.b[i] * y[i];
    g_sink = g_sink + acc;
  });
  std::vector<double> x(in.b.size());
  std::size_t iters = 1;
  const double solve_us = time_us(
      [&] {
        std::fill(x.begin(), x.end(), 0.0);
        const auto res = plain_cg ? solvers::cg(in.a, in.b, x, capped)
                                  : solvers::cg_fused(in.a, in.b, x, capped);
        iters = std::max<std::size_t>(res.iterations, 1);
      },
      3);
  refs.serial_iter_us = solve_us / static_cast<double>(iters);
  return refs;
}

Triad triad_reference(std::size_t llc) {
  Triad t;
  const std::size_t n = (4 * llc + sizeof(double) - 1) / sizeof(double);
  t.array_bytes = n * sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  const double us = time_us(
      [&] {
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
        g_sink = g_sink + a[n / 2];
      },
      5, 0.0);
  t.gbs = 3.0 * static_cast<double>(t.array_bytes) / (us * 1e3);
  return t;
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

}  // namespace wallbench
