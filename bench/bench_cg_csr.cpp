// Experiment F2 (Figure 2): the full sparse-CSR CG solver.
//
// Per-iteration decomposition of the paper's Figure-2 loop: one sparse
// matvec (ghost exchange of p + local sweep), two DOT_PRODUCT merges, three
// local SAXPY-class updates.  The table reports, per n and NP:
// iterations to tolerance, flops / bytes / messages per iteration, modeled
// time per iteration, and the modeled compute:communication ratio — the
// quantity the owner-computes rule is meant to maximize.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/timer.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
namespace sv = hpfcg::solvers;

int main() {
  hpfcg::util::Table table(
      "F2 — distributed CG over CSR (2-D Laplacian), per-iteration costs",
      {"n", "NP", "iters", "flops/it/rank", "bytes/it", "msgs/it",
       "modeled[ms]/it", "comp:comm", "wall[ms]"});

  // bytes/it as a fraction of n*8 (one full copy of p), over all rows.
  double min_frac = 1e300, max_frac = 0.0;
  for (const std::size_t side : {std::size_t{32}, std::size_t{64}}) {
    const auto a = hpfcg::sparse::laplacian_2d(side, side);
    const std::size_t n = a.n_rows();
    const auto b_full = hpfcg::sparse::random_rhs(n, 404);

    for (const int np : hpfcg_bench::np_sweep()) {
      sv::SolveResult result;
      hpfcg::util::Timer wall;
      auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
        auto dist =
            std::make_shared<const Distribution>(Distribution::block(n, np));
        auto mat = hpfcg::sparse::DistCsr<double>::row_aligned(proc, a, dist);
        DistributedVector<double> b(proc, dist), x(proc, dist);
        b.from_global(b_full);
        const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                          DistributedVector<double>& q) {
          mat.matvec(p, q);
        };
        const auto res =
            sv::cg_dist<double>(op, b, x, {.rel_tolerance = 1e-8});
        if (proc.rank() == 0) result = res;
      });
      const double iters = std::max<std::size_t>(result.iterations, 1);
      const auto total = rt->total_stats();
      double max_flops = 0.0;
      double comp = 0.0, comm = 0.0;
      for (int r = 0; r < np; ++r) {
        max_flops =
            std::max(max_flops, static_cast<double>(rt->stats(r).flops));
        comp += rt->stats(r).modeled_compute_seconds;
        comm += rt->stats(r).modeled_comm_seconds;
      }
      if (np > 1) {
        const double frac = static_cast<double>(total.bytes_sent) / iters /
                            (8.0 * static_cast<double>(n));
        min_frac = std::min(min_frac, frac);
        max_frac = std::max(max_frac, frac);
      }
      table.add_row(
          {std::to_string(n), std::to_string(np),
           std::to_string(result.iterations),
           hpfcg::util::fmt(max_flops / iters, 4),
           hpfcg::util::fmt(static_cast<double>(total.bytes_sent) / iters, 4),
           hpfcg::util::fmt(static_cast<double>(total.messages_sent) / iters,
                            4),
           hpfcg::util::fmt(rt->modeled_makespan() * 1e3 / iters, 4),
           comm > 0.0 ? hpfcg::util::fmt(comp / comm, 3) : "inf",
           hpfcg::util::fmt(wall.millis(), 4)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: per-iteration flops per rank fall as 1/NP.  Bytes per\n"
         "iteration (NP > 1) range from "
      << hpfcg::util::fmt(min_frac, 3) << "x to "
      << hpfcg::util::fmt(max_frac, 3) << "x n*8\n("
      << (hpfcg::sparse::halo::enabled()
              ? "the halo executor ships only block boundaries plus the\n"
                "dot-merge scalars; HPFCG_HALO=0 restores the p-broadcast"
              : "the p-broadcast")
      << "),\nand messages grow with NP — so the compute:communication\n"
         "ratio degrades as NP grows at fixed n and recovers with larger n,\n"
         "the scaling the paper's Section 4 analysis predicts for Figure 2's\n"
         "CG.\n";
  return 0;
}
