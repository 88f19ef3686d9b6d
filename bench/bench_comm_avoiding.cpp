// Experiment CA — communication-avoiding CG.
//
// The paper's cost analysis makes each DOT_PRODUCT merge cost
// t_startup * log NP regardless of payload, so the reductions-per-iteration
// count IS the latency bill of a solver.  This bench measures that bill for
// three CG formulations across n and NP sweeps:
//   naive    — Figure 2 transcribed literally: 3 merges/iteration (rho,
//              alpha denominator, stop criterion);
//   baseline — cg_dist: the stop-criterion merge reused as next rho,
//              2 merges/iteration;
//   fused    — cg_fused_dist (Chronopoulos–Gear): ONE two-wide batched
//              merge/iteration.
// plus the fused PCG and BiCGSTAB variants.  Per-iteration numbers are
// isolated by differencing two runs with different fixed iteration counts,
// so setup costs cancel exactly (counters are deterministic).
//
// Exit status is the CI gate: nonzero if any variant's measured
// reductions/iteration disagrees with its advertised count, or if fusing
// fails to cut the modeled merge start-up by >= 2x for NP > 1.
//
//   ./bench_comm_avoiding [--json out.json]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/util/cli.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;

namespace {

enum class Variant { kNaive, kBaseline, kFused, kPcg, kPcgFused,
                     kBicgstab, kBicgstabFused };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNaive: return "cg/naive";
    case Variant::kBaseline: return "cg/baseline";
    case Variant::kFused: return "cg/fused";
    case Variant::kPcg: return "pcg/baseline";
    case Variant::kPcgFused: return "pcg/fused";
    case Variant::kBicgstab: return "bicgstab/baseline";
    case Variant::kBicgstabFused: return "bicgstab/fused";
  }
  return "?";
}

/// Figure 2 transcribed literally: the stop criterion re-merges (r,r) every
/// iteration, so the loop pays THREE DOT_PRODUCT merges.  Runs exactly
/// `iters` loop iterations (tolerance 0 so the exit never fires).
void cg_naive_iters(const sv::DistOp<double>& op,
                    const DistributedVector<double>& b,
                    DistributedVector<double>& x, std::size_t iters) {
  auto r = DistributedVector<double>::aligned_like(b);
  auto p = DistributedVector<double>::aligned_like(b);
  auto q = DistributedVector<double>::aligned_like(b);
  hpfcg::hpf::assign(b, r);
  hpfcg::hpf::assign(r, p);
  op(p, q);
  double rho = hpfcg::hpf::dot_product(r, r);
  double alpha = rho / hpfcg::hpf::dot_product(p, q);
  hpfcg::hpf::axpy(alpha, p, x);
  hpfcg::hpf::axpy(-alpha, q, r);
  for (std::size_t k = 0; k < iters; ++k) {
    const double rho0 = rho;
    rho = hpfcg::hpf::dot_product(r, r);               // merge 1
    hpfcg::hpf::aypx(rho / rho0, r, p);
    op(p, q);
    alpha = rho / hpfcg::hpf::dot_product(p, q);       // merge 2
    hpfcg::hpf::axpy(alpha, p, x);
    hpfcg::hpf::axpy(-alpha, q, r);
    if (std::sqrt(hpfcg::hpf::dot_product(r, r)) <= 0.0) break;  // merge 3
  }
}

struct Measurement {
  double red_per_iter = 0.0;       ///< reductions per iteration (per rank)
  double msgs_per_iter = 0.0;      ///< machine-wide messages per iteration
  double startup_us = 0.0;         ///< machine-wide t_startup bill / iter
  double bandwidth_us = 0.0;       ///< machine-wide byte bill / iter
  double flop_us = 0.0;            ///< machine-wide flop bill / iter
  double makespan_us = 0.0;        ///< modeled critical path / iter
  double wall_us = 0.0;            ///< host wall-clock / iter
};

/// Run `variant` for a fixed iteration count and report the totals.
struct RunTotals {
  Stats stats;
  double makespan = 0.0;
  double wall_us = 0.0;
};

RunTotals run_once(Variant variant, std::size_t n, int np,
                   std::size_t iters) {
  const auto a = sp::tridiagonal(n, 2.0, -1.0);
  const auto b_full = sp::random_rhs(n, 1996);
  const auto diag = a.diagonal();
  const auto t0 = std::chrono::steady_clock::now();
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const sv::SolveOptions opts{.max_iterations = iters,
                                .rel_tolerance = 1e-30};
    switch (variant) {
      case Variant::kNaive:
        cg_naive_iters(op, b, x, iters);
        break;
      case Variant::kBaseline:
        (void)sv::cg_dist<double>(op, b, x, opts);
        break;
      case Variant::kFused:
        (void)sv::cg_fused_dist<double>(op, b, x, opts);
        break;
      case Variant::kPcg:
        (void)sv::pcg_dist<double>(op, sv::jacobi_dist(inv_diag), b, x, opts);
        break;
      case Variant::kPcgFused:
        (void)sv::pcg_fused_dist<double>(op, sv::jacobi_dist(inv_diag), b, x,
                                         opts);
        break;
      case Variant::kBicgstab:
        (void)sv::bicgstab_dist<double>(op, b, x, opts);
        break;
      case Variant::kBicgstabFused:
        (void)sv::bicgstab_fused_dist<double>(op, b, x, opts);
        break;
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  RunTotals totals;
  totals.stats = rt->total_stats();
  totals.stats.reductions = rt->stats(0).reductions;  // per-rank currency
  totals.makespan = rt->modeled_makespan();
  totals.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return totals;
}

/// Difference two fixed-iteration runs so setup cancels exactly.
Measurement measure(Variant variant, std::size_t n, int np) {
  const std::size_t lo = 10, hi = 30;
  const auto a = run_once(variant, n, np, lo);
  const auto b = run_once(variant, n, np, hi);
  const double span = static_cast<double>(hi - lo);
  const hpfcg::msg::CostParams params;  // the model the machine ran under
  Measurement m;
  m.red_per_iter =
      static_cast<double>(b.stats.reductions - a.stats.reductions) / span;
  m.msgs_per_iter =
      static_cast<double>(b.stats.messages_sent - a.stats.messages_sent) /
      span;
  m.startup_us = m.msgs_per_iter * params.t_startup * 1e6;
  m.bandwidth_us =
      static_cast<double>(b.stats.bytes_sent - a.stats.bytes_sent) / span *
      params.t_comm * 1e6;
  m.flop_us = static_cast<double>(b.stats.flops - a.stats.flops) / span *
              params.t_flop * 1e6;
  m.makespan_us = (b.makespan - a.makespan) / span * 1e6;
  m.wall_us = (b.wall_us - a.wall_us) / span;
  return m;
}

struct Row {
  std::string variant;
  std::size_t n = 0;
  int np = 0;
  Measurement m;
};

void append_json(std::ostringstream& os, const Row& row, bool first) {
  if (!first) os << ",\n";
  os << "  {\"variant\": \"" << row.variant << "\", \"n\": " << row.n
     << ", \"np\": " << row.np
     << ", \"reductions_per_iter\": " << row.m.red_per_iter
     << ", \"messages_per_iter\": " << row.m.msgs_per_iter
     << ", \"startup_us\": " << row.m.startup_us
     << ", \"bandwidth_us\": " << row.m.bandwidth_us
     << ", \"flop_us\": " << row.m.flop_us
     << ", \"makespan_us\": " << row.m.makespan_us
     << ", \"wall_us\": " << row.m.wall_us << "}";
}

}  // namespace

int main(int argc, char** argv) {
  hpfcg::util::Cli cli(argc, argv);
  const std::string json_path =
      cli.get("json", "", "write rows as JSON to this path");
  if (cli.help_requested()) {
    std::cout << cli.help_text("bench_comm_avoiding");
    return 0;
  }
  cli.finish();

  std::vector<Row> rows;
  bool ok = true;
  const hpfcg::msg::CostParams params;

  // ---- CG: naive vs baseline vs fused, n and NP sweeps ------------------
  hpfcg::util::Table cg_table(
      "CA1 — CG merges per iteration: Figure-2-literal vs cg_dist vs "
      "Chronopoulos-Gear fused (tridiagonal, per-iteration bills are "
      "machine-wide)",
      {"variant", "n", "NP", "red/iter", "msgs/iter", "startup[us]",
       "bw[us]", "flop[us]", "makespan[us]", "wall[us]"});
  const double expected_cg[] = {3.0, 2.0, 1.0};
  for (const std::size_t n : {std::size_t{1024}, std::size_t{8192}}) {
    for (const int np : hpfcg_bench::np_sweep()) {
      double merge_startup[3] = {0.0, 0.0, 0.0};
      int vi = 0;
      for (const Variant v :
           {Variant::kNaive, Variant::kBaseline, Variant::kFused}) {
        const Measurement m = measure(v, n, np);
        rows.push_back({variant_name(v), n, np, m});
        cg_table.add_row(
            {variant_name(v), std::to_string(n), std::to_string(np),
             hpfcg::util::fmt(m.red_per_iter, 3),
             hpfcg::util::fmt(m.msgs_per_iter, 4),
             hpfcg::util::fmt(m.startup_us, 4),
             hpfcg::util::fmt(m.bandwidth_us, 2),
             hpfcg::util::fmt(m.flop_us, 2),
             hpfcg::util::fmt(m.makespan_us, 4),
             hpfcg::util::fmt(m.wall_us, 4)});
        if (m.red_per_iter != expected_cg[vi]) {
          std::cerr << variant_name(v) << " n=" << n << " NP=" << np
                    << ": expected " << expected_cg[vi]
                    << " reductions/iter, measured " << m.red_per_iter
                    << "\n";
          ok = false;
        }
        // Modeled merge start-up on the critical path: each reduction is a
        // full tree walk of 2*ceil(log2 NP) latency-bound steps.
        const int logp = static_cast<int>(std::ceil(std::log2(np)));
        merge_startup[vi] =
            m.red_per_iter * 2.0 * logp * params.t_startup * 1e6;
        ++vi;
      }
      if (np > 1) {
        // Acceptance gate: fusing must cut the merge start-up >= 2x vs the
        // 2-merge baseline (and 3x vs the literal Figure 2 loop).
        if (merge_startup[1] < 2.0 * merge_startup[2] - 1e-9 ||
            merge_startup[0] < 3.0 * merge_startup[2] - 1e-9) {
          std::cerr << "merge start-up not reduced as required at n=" << n
                    << " NP=" << np << "\n";
          ok = false;
        }
      }
    }
  }
  cg_table.print(std::cout);

  // ---- Fused PCG / BiCGSTAB: reduction bills ----------------------------
  hpfcg::util::Table fam_table(
      "CA2 — fused variants across the solver family (n=2048): merges per "
      "iteration and modeled merge start-up on the critical path",
      {"variant", "NP", "red/iter", "merge startup[us]", "saved[us]/iter"});
  const struct {
    Variant base, fused;
    double expect_base, expect_fused;
  } pairs[] = {
      {Variant::kPcg, Variant::kPcgFused, 3.0, 1.0},
      {Variant::kBicgstab, Variant::kBicgstabFused, 6.0, 3.0},
  };
  for (const auto& pair : pairs) {
    for (const int np : {2, 4, 8, 16}) {
      const int logp = static_cast<int>(std::ceil(std::log2(np)));
      const double per_merge = 2.0 * logp * params.t_startup * 1e6;
      const Measurement mb = measure(pair.base, 2048, np);
      const Measurement mf = measure(pair.fused, 2048, np);
      rows.push_back({variant_name(pair.base), 2048, np, mb});
      rows.push_back({variant_name(pair.fused), 2048, np, mf});
      fam_table.add_row({variant_name(pair.base), std::to_string(np),
                         hpfcg::util::fmt(mb.red_per_iter, 3),
                         hpfcg::util::fmt(mb.red_per_iter * per_merge, 4),
                         "-"});
      fam_table.add_row(
          {variant_name(pair.fused), std::to_string(np),
           hpfcg::util::fmt(mf.red_per_iter, 3),
           hpfcg::util::fmt(mf.red_per_iter * per_merge, 4),
           hpfcg::util::fmt((mb.red_per_iter - mf.red_per_iter) * per_merge,
                            4)});
      if (mb.red_per_iter != pair.expect_base ||
          mf.red_per_iter != pair.expect_fused) {
        std::cerr << variant_name(pair.fused) << " NP=" << np
                  << ": reduction counts off (base " << mb.red_per_iter
                  << ", fused " << mf.red_per_iter << ")\n";
        ok = false;
      }
    }
  }
  fam_table.print(std::cout);

  std::cout << "\nReading: fusing CG's merges into one dot_products batch\n"
               "cuts the latency-bound term from 2 (or Figure 2's literal\n"
               "3) tree walks per iteration to one — the t_startup*log NP\n"
               "bill the paper identifies as CG's scaling limit.  Bandwidth\n"
               "and flop bills are unchanged: only message COUNT drops.\n";

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      append_json(os, rows[i], i == 0);
    }
    os << "\n]\n";
    std::ofstream out(json_path);
    out << os.str();
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
