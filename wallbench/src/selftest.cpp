// The benchmark's own tests (wallbench --selftest), on the real workloads:
//   1. the residual check accepts a solved x and rejects a perturbed one;
//   2. the seed changes the RHS and leaves the matrix unchanged;
//   3. a traced and an untraced solve of one system give identical
//      residual signatures and identical per-rank message, byte and
//      reduction counts — and count_failures flags a run where they differ.
// wallbench/test_wallbench.py runs this, then every workload through run.py.

#include <iostream>
#include <utility>

#include "wallbench.hpp"

namespace wallbench {

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++g_failed;
}

void residual_check_rejects_perturbed_x() {
  const Workload& w = *find_workload("lap2d-cg-latency");
  const Inputs in = make_inputs(w, 7);
  std::vector<double> x;
  episode(w, in, nullptr, [&](System& sys, SpanLog*) {
    sys.solve(nullptr);
    auto gathered = sys.x().to_root(0);
    if (sys.proc().rank() == 0) x = std::move(gathered);
  });
  expect(residual_ok(true_relative_residual(in.a, in.b, x)),
         "residual check accepts the solved x");
  x[x.size() / 2] += 1e-3;
  expect(!residual_ok(true_relative_residual(in.a, in.b, x)),
         "residual check rejects x perturbed by 1e-3 in one entry");
}

void seed_changes_rhs_only() {
  for (const Workload& w : workloads()) {
    const Inputs s1 = make_inputs(w, 1);
    const Inputs s1_again = make_inputs(w, 1);
    const Inputs s2 = make_inputs(w, 2);
    const std::string name(w.name);
    expect(s1.a.row_ptr() == s2.a.row_ptr() &&
               s1.a.col_idx() == s2.a.col_idx() &&
               s1.a.values() == s2.a.values(),
           name + ": seed leaves the matrix unchanged");
    expect(s1.b != s2.b, name + ": seed changes the RHS");
    expect(s1.b == s1_again.b, name + ": same seed, same RHS");
  }
}

void traced_matches_untraced() {
  for (const Workload& w : workloads()) {
    const std::string name(w.name);
    const Inputs in = make_inputs(w, 3);
    std::vector<SpanLog> logs(static_cast<std::size_t>(w.np));
    SolveLog log(w.np);
    episode(w, in, &logs, [&](System& sys, SpanLog* span_log) {
      solve_loop(sys, in, nullptr, 0.0, 1, 1, log);
      solve_loop(sys, in, span_log, 0.0, 1, 1, log);
    });
    const bool two = log.records.size() == 2;
    expect(two && !log.records[0].traced && log.records[1].traced,
           name + ": one untraced and one traced solve");
    if (!two) continue;
    expect(log.records[0].signature == log.records[1].signature,
           name + ": traced and untraced residual signatures identical");
    bool counts_equal = true;
    bool counted = false;
    for (const auto& per_rank : log.counts) {
      counts_equal = counts_equal && per_rank[0] == per_rank[1];
      counted = counted || per_rank[0].messages > 0;
    }
    expect(counts_equal && counted,
           name + ": traced and untraced message/byte/reduction counts "
                  "identical");
    expect(!logs[0].durations(Kind::kMatvec).empty(),
           name + ": traced solve recorded matvec spans");
    expect(count_failures(log) == 0, name + ": no failed solve");

    SolveLog bad_signature = log;
    bad_signature.records[1].signature ^= 1;
    expect(count_failures(bad_signature) == 1,
           name + ": a differing signature is a failed solve");
    SolveLog bad_counts = log;
    bad_counts.counts.back()[1].messages += 1;
    expect(count_failures(bad_counts) == 1,
           name + ": differing counts on one rank are a failed solve");
  }
}

}  // namespace

int selftest() {
  residual_check_rejects_perturbed_x();
  seed_changes_rhs_only();
  traced_matches_untraced();
  return g_failed;
}

}  // namespace wallbench
