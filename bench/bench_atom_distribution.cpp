// Experiment A4 (Section 5.2.1): flat HPF-1 BLOCK over the nnz arrays vs
// the proposed ATOM:BLOCK distribution.
//
// With `DISTRIBUTE col(BLOCK)` the cut points ignore row boundaries, so
// rows straddling a cut must fetch their missing (col, a) elements every
// sweep — the paper's "additional communication ... to bring in those
// missing elements".  ATOM:BLOCK moves the cuts to row boundaries and the
// fetches disappear; the SPARSE_MATRIX descriptor alternatively lets the
// fetched entries be cached.

#include <atomic>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/ext/atom_partition.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/util/timer.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;

int main() {
  // Wide spread of row lengths makes the misalignment visible.
  const auto a = hpfcg::sparse::powerlaw_spd(1200, 4, 8, 120, 61);
  const std::size_t n = a.n_rows();
  const int sweeps = 10;

  hpfcg::util::Table table(
      "A4 — nnz-array distribution vs ATOM:BLOCK (" + std::to_string(sweeps) +
          " matvec sweeps, powerlaw matrix n=" + std::to_string(n) +
          ", nnz=" + std::to_string(a.nnz()) + ")",
      {"nnz distribution", "NP", "split rows", "remote nnz/sweep",
       "extra bytes total", "modeled[ms]", "wall[ms]"});

  enum class Mode { kFlat, kFlatCached, kAtom };
  for (const int np : {2, 4, 8, 16}) {
    // Baseline bytes: the aligned variant's traffic (its p exchanges only;
    // the flat variants run the same exchanges plus their nnz fetches).
    unsigned long long aligned_bytes = 0;

    for (const auto mode : {Mode::kAtom, Mode::kFlat, Mode::kFlatCached}) {
      std::atomic<std::size_t> remote{0};
      hpfcg::util::Timer wall;
      auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
        auto row_dist =
            std::make_shared<const Distribution>(Distribution::block(n, np));
        auto mat = [&] {
          if (mode == Mode::kAtom) {
            return hpfcg::sparse::DistCsr<double>::row_aligned(proc, a,
                                                               row_dist);
          }
          auto nnz_dist = std::make_shared<const Distribution>(
              Distribution::block(a.nnz(), np));
          return hpfcg::sparse::DistCsr<double>(proc, a, row_dist, nnz_dist);
        }();
        if (mode == Mode::kFlatCached) mat.enable_caching();
        DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
        p.set_from([](std::size_t g) { return static_cast<double>(g % 3); });
        for (int s = 0; s < sweeps; ++s) mat.matvec(p, q);
        remote += mat.remote_nnz();
      });
      if (mode == Mode::kAtom) aligned_bytes = rt->total_stats().bytes_sent;

      const auto flat_nnz = Distribution::block(a.nnz(), np);
      const std::size_t splits =
          mode == Mode::kAtom
              ? 0
              : hpfcg::ext::count_split_atoms(a.row_ptr(), flat_nnz);
      static const char* names[] = {"HPF-1 BLOCK (per sweep fetch)",
                                    "HPF-1 BLOCK + descriptor cache",
                                    "ATOM:BLOCK (proposed)"};
      const char* name = mode == Mode::kFlat
                             ? names[0]
                             : (mode == Mode::kFlatCached ? names[1]
                                                          : names[2]);
      const unsigned long long extra =
          rt->total_stats().bytes_sent - aligned_bytes;
      table.add_row({name, std::to_string(np), std::to_string(splits),
                     hpfcg::util::fmt_count(remote.load()),
                     hpfcg::util::fmt_count(extra),
                     hpfcg::util::fmt(rt->modeled_makespan() * 1e3, 4),
                     hpfcg::util::fmt(wall.millis(), 4)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: the flat BLOCK distribution splits rows at every cut\n"
         "and pays remote-nnz fetches each sweep; the descriptor's cache\n"
         "pays them once; ATOM:BLOCK never pays them, at the cost of one\n"
         "replicated NP+1-entry cut array — the Section 5.2.1 proposal.\n";
  return 0;
}
