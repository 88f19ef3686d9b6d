// The two run modes: untraced (end-to-end metrics) and traced (per-layer
// metrics), plus the solve loop and machine episodes they share.

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>

#include "wallbench.hpp"

namespace wallbench {

Counts Counts::of(const msg::Stats& s) {
  return {s.messages_sent, s.bytes_sent,  s.reductions,
          s.halo_bytes,    s.mg_vcycles, s.mg_level_sweeps};
}

Counts Counts::operator-(const Counts& o) const {
  return {messages - o.messages,     bytes - o.bytes,
          reductions - o.reductions, halo_bytes - o.halo_bytes,
          mg_vcycles - o.mg_vcycles, mg_level_sweeps - o.mg_level_sweeps};
}

void solve_loop(System& sys, const Inputs& in, SpanLog* log, double budget_s,
                std::size_t min_solves, std::size_t max_solves,
                SolveLog& out) {
  msg::Process& proc = sys.proc();
  auto& my_counts = out.counts[static_cast<std::size_t>(proc.rank())];
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    proc.barrier();
    const Counts before = Counts::of(proc.stats());
    const std::int64_t t0 = now_ns();
    const solvers::SolveResult res = sys.solve(log);
    const std::int64_t t1 = now_ns();
    my_counts.push_back(Counts::of(proc.stats()) - before);
    const std::vector<double> x = sys.x().to_root(0);
    int more = 0;
    if (proc.rank() == 0) {
      const double seconds = static_cast<double>(t1 - t0) * 1e-9;
      out.records.push_back({seconds, res.residual_signature(),
                             res.iterations, res.converged,
                             true_relative_residual(in.a, in.b, x),
                             log != nullptr});
      // Stop before a solve that would overrun the budget.
      const double spent = static_cast<double>(now_ns() - start) * 1e-9;
      more = i + 1 < min_solves ||
             (i + 1 < max_solves && spent + seconds <= budget_s);
    }
    if (proc.broadcast_value(0, more) == 0) break;
  }
}

double episode(const Workload& w, const Inputs& in, std::vector<SpanLog>* logs,
               const std::function<void(System&, SpanLog*)>& after,
               double* runtime_s) {
  const std::int64_t t0 = now_ns();
  msg::Runtime rt(w.np);
  if (runtime_s != nullptr) {
    *runtime_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  double setup = 0.0;
  rt.run([&](msg::Process& proc) {
    SpanLog* log = logs != nullptr
                       ? &(*logs)[static_cast<std::size_t>(proc.rank())]
                       : nullptr;
    System sys(proc, w, in, log);
    proc.barrier();
    if (proc.rank() == 0) setup = static_cast<double>(now_ns() - t0) * 1e-9;
    after(sys, log);
  });
  return setup;
}

std::uint64_t count_failures(const SolveLog& log) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const SolveRecord& r = log.records[i];
    bool ok = r.converged && residual_ok(r.true_rel) &&
              r.signature == log.records.front().signature;
    for (const auto& per_rank : log.counts) {
      ok = ok && per_rank[i] == per_rank.front();
    }
    if (!ok) {
      ++failed;
      std::cerr << "wallbench: solve " << i << (r.traced ? " (traced)" : "")
                << " failed: converged=" << r.converged
                << " true_rel=" << r.true_rel << " signature=" << r.signature
                << " first=" << log.records.front().signature << "\n";
    }
  }
  return failed;
}

namespace {

std::vector<double> seconds_of(const SolveLog& log, bool traced) {
  std::vector<double> out;
  for (const SolveRecord& r : log.records) {
    if (r.traced == traced) out.push_back(r.seconds);
  }
  return out;
}

/// Highest percentile of {50, 90, 99, 99.9} with at least ten of `n`
/// samples beyond it.
double tail_fraction(std::size_t n) {
  double best = 0.5;
  for (const double p : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

/// Sample details for the reader; not part of the result line.  `extra`
/// is appended to the object (", \"key\": value" pairs).
void print_details(const SolveLog& log, bool traced,
                   const std::string& extra = "") {
  const auto s = seconds_of(log, traced);
  double worst_rel = 0.0;
  for (const SolveRecord& r : log.records) {
    worst_rel = std::max(worst_rel, r.true_rel);
  }
  const double tail = tail_fraction(s.size());
  std::cout << "{\"details\": {\"solves\": " << s.size()
            << ", \"solve_s_median\": " << json_number(median(s))
            << ", \"solve_s_tail_pct\": " << json_number(100.0 * tail)
            << ", \"solve_s_tail\": " << json_number(quantile(s, tail))
            << ", \"iterations\": " << log.records.front().iterations
            << ", \"worst_true_rel\": " << json_number(worst_rel)
            << ", \"residual_bound\": "
            << json_number(kResidualSlack * kRelTolerance) << extra
            << "}}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Solve time per machine in an untraced run (at least one solve each).
constexpr double kMachineSeconds = 0.5;

double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Per call of `kind` (every rank makes the same calls, in order): the
/// slowest rank's duration in us — a collective is done when its last
/// rank is.  Each rank's calls are taken from span index from[rank] on.
std::vector<double> slowest_rank_us(const std::vector<SpanLog>& logs, Kind kind,
                                    const std::vector<std::size_t>& from) {
  std::vector<double> out;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto d = logs[r].durations(kind, from[r]);
    out.resize(std::max(out.size(), d.size()), 0.0);
    for (std::size_t i = 0; i < d.size(); ++i) out[i] = std::max(out[i], d[i]);
  }
  return out;
}

/// Intervals (ms) between successive matvec calls within each traced
/// solve on one rank, skipping each solve's first interval (start-up
/// matvecs are not an iteration).
std::vector<double> iteration_intervals_ms(const SpanLog& log,
                                           std::size_t from) {
  std::vector<double> out;
  const auto& spans = log.spans();
  std::int32_t solve = -1;
  std::int64_t last = 0;
  int seen = 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == Kind::kSolve) {
      solve = static_cast<std::int32_t>(i);
      seen = 0;
    } else if (s.kind == Kind::kMatvec && s.parent == solve) {
      if (seen >= 2) out.push_back(static_cast<double>(s.t0_ns - last) * 1e-6);
      last = s.t0_ns;
      ++seen;
    }
  }
  return out;
}

/// Chrome trace-event JSON of every rank's spans (Perfetto loads it).
void write_trace(const std::string& path, const std::vector<SpanLog>& logs,
                 const std::string& manifest) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "wallbench: cannot write trace file " << path << "\n";
    return;
  }
  std::int64_t base = INT64_MAX;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) base = std::min(base, s.t0_ns);
  }
  f << "{\"otherData\": " << manifest << ",\n\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto& spans = logs[r].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (first ? "" : ",\n") << "{\"name\": \"" << kind_name(s.kind)
        << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << r
        << ", \"ts\": " << json_number(static_cast<double>(s.t0_ns - base) * 1e-3)
        << ", \"dur\": " << json_number(s.us()) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  f << "\n]}\n";
}

}  // namespace

Outcome run_untraced(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  const Inputs in = make_inputs(w, cfg.seed);
  const std::int64_t start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };

  // Many short-lived machines.  Consecutive solves on one machine take
  // nearly the same time, but that time moves from one machine to the
  // next, so a run samples many machines.  Every machine's setup is a
  // setup_s sample.
  std::vector<double> setup_s;
  SolveLog log(w.np);
  double last = 0.0;
  while (log.records.size() < 3 || elapsed() + last <= cfg.seconds) {
    const double begin = elapsed();
    setup_s.push_back(episode(w, in, nullptr, [&](System& sys, SpanLog*) {
      solve_loop(sys, in, nullptr, kMachineSeconds, 1, 1000000, log);
    }));
    last = elapsed() - begin;
  }

  Outcome out;
  out.attempted = log.records.size();
  out.failed = count_failures(log);
  out.metrics.set("solve_s", median(seconds_of(log, false)), "s");
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  print_details(log, false);
  return out;
}

Outcome run_traced(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  const auto np = static_cast<std::size_t>(w.np);
  const std::int64_t g0 = now_ns();
  const Inputs in = make_inputs(w, cfg.seed);
  const double gen_s = static_cast<double>(now_ns() - g0) * 1e-9;

  // Setup phases: three setup-only machines plus the one that solves.
  std::vector<SpanLog> logs(np);
  std::vector<double> runtime_s(4);
  for (int i = 0; i < 3; ++i) {
    episode(w, in, &logs, [](System&, SpanLog*) {}, &runtime_s[i]);
  }

  // Untraced and traced solves alternate on one system, so drift on the
  // machine hits both alike; then the layer probes.  `mark`/`probe_mark`
  // are each rank's first span index of the solves and of the probes.
  SolveLog solves(w.np);
  std::vector<std::size_t> mark(np), probe_mark(np);
  std::vector<std::uint64_t> ghosts(np);
  episode(
      w, in, &logs,
      [&](System& sys, SpanLog* log) {
        msg::Process& proc = sys.proc();
        const auto r = static_cast<std::size_t>(proc.rank());
        ghosts[r] = proc.stats().ghost_entries;
        mark[r] = log->size();
        const std::int64_t start = now_ns();
        for (std::size_t pairs = 1;; ++pairs) {
          solve_loop(sys, in, nullptr, 0.0, 1, 1, solves);
          solve_loop(sys, in, log, 0.0, 1, 1, solves);
          int more = 0;
          if (r == 0) {
            const double spent = static_cast<double>(now_ns() - start) * 1e-9;
            const double pair = spent / static_cast<double>(pairs);
            more = pairs < 2 || (pairs < 50 && spent + pair <= cfg.seconds);
          }
          if (proc.broadcast_value(0, more) == 0) break;
        }
        probe_mark[r] = log->size();
        probe_layers(sys, log);
      },
      &runtime_s[3]);

  const SingleRankRefs refs = single_rank_refs(w, in);
  const std::size_t llc = llc_bytes();
  const Triad triad = triad_reference(llc);

  // Solve breakdown: matvec/precond shares and the solver's self time
  // are averaged over ranks; a call's latency is its slowest rank's.
  std::size_t iterations = 0;
  std::size_t traced_iterations = 0;
  Counts machine;  // summed over ranks and traced solves
  Counts rank0;
  for (std::size_t i = 0; i < solves.records.size(); ++i) {
    if (!solves.records[i].traced) continue;
    iterations = solves.records[i].iterations;
    traced_iterations += solves.records[i].iterations;
    for (std::size_t r = 0; r < np; ++r) {
      const Counts& c = solves.counts[r][i];
      machine.messages += c.messages;
      machine.bytes += c.bytes;
      machine.halo_bytes += c.halo_bytes;
    }
    const Counts& c = solves.counts[0][i];
    rank0.reductions += c.reductions;
    rank0.mg_vcycles += c.mg_vcycles;
    rank0.mg_level_sweeps += c.mg_level_sweeps;
  }
  const auto iters = static_cast<double>(traced_iterations);
  const auto nranks = static_cast<double>(np);

  double matvec_share = 0.0;
  double precond_share = 0.0;
  double self_us = 0.0;
  double mv_max = 0.0;
  double mv_sum = 0.0;
  for (std::size_t r = 0; r < np; ++r) {
    const double solve = sum(logs[r].durations(Kind::kSolve, mark[r]));
    const double mv = sum(logs[r].durations(Kind::kMatvec, mark[r]));
    const double pc = sum(logs[r].durations(Kind::kPrecond, mark[r]));
    matvec_share += safe_ratio(mv, solve) / nranks;
    precond_share += safe_ratio(pc, solve) / nranks;
    self_us += safe_ratio(solve - mv - pc, iters) / nranks;
    mv_max = std::max(mv_max, mv);
    mv_sum += mv;
  }
  const auto intervals = iteration_intervals_ms(logs[0], mark[0]);
  const double tail = tail_fraction(intervals.size());
  const auto slowest = [&](Kind k, const std::vector<std::size_t>& from) {
    return median(slowest_rank_us(logs, k, from));
  };
  const auto probe = [&](Kind k) { return slowest(k, probe_mark); };
  const auto setup_phase_s = [&](Kind k) {
    return median(logs[0].durations(k)) * 1e-6;
  };
  const double matvec_us = slowest(Kind::kMatvec, mark);
  // Computed CSR traffic of one matvec: value + column index per nonzero;
  // row pointer, x read and y write per row (8-byte words throughout).
  const double matvec_bytes = 16.0 * static_cast<double>(in.a.nnz()) +
                              24.0 * static_cast<double>(in.a.n_rows());

  Outcome out;
  out.attempted = solves.records.size();
  out.failed = count_failures(solves);
  Metrics& m = out.metrics;
  m.set("sparse.matvec_us", matvec_us, "us");
  m.set("sparse.matvec_share", matvec_share, "ratio");
  m.set("sparse.matvec_gbs", safe_ratio(matvec_bytes, matvec_us * 1e3),
        "GB/s");
  m.set("sparse.matvec_vs_csr",
        safe_ratio(refs.dist_matvec_us, refs.csr_matvec_us), "ratio");
  m.set("sparse.halo_exchange_us", probe(Kind::kHaloExchange), "us");
  m.set("sparse.halo_bytes_per_iter",
        safe_ratio(static_cast<double>(machine.halo_bytes), iters), "B");
  double ghost_total = 0.0;
  for (const std::uint64_t g : ghosts) ghost_total += static_cast<double>(g);
  m.set("sparse.ghost_entries", ghost_total, "count");
  m.set("sparse.matvec_imbalance",
        safe_ratio(mv_max, mv_sum / nranks), "ratio");
  m.set("msg.allreduce_us", probe(Kind::kAllreduce), "us");
  m.set("msg.allreduce_batch_us", probe(Kind::kAllreduceBatch), "us");
  m.set("msg.pingpong_us", probe(Kind::kPingpong), "us");
  m.set("msg.messages_per_iter",
        safe_ratio(static_cast<double>(machine.messages), iters), "count");
  m.set("msg.bytes_per_iter",
        safe_ratio(static_cast<double>(machine.bytes), iters), "B");
  m.set("msg.reductions_per_iter",
        safe_ratio(static_cast<double>(rank0.reductions), iters), "count");
  m.set("hpf.dot_us", probe(Kind::kDot), "us");
  m.set("hpf.dot_products_us", probe(Kind::kDotProducts), "us");
  m.set("hpf.axpy_us", probe(Kind::kAxpy), "us");
  m.set("hpf.dot_local_vs_serial",
        safe_ratio(refs.dist_dot_us, refs.serial_dot_us), "ratio");
  m.set("solvers.iterations", static_cast<double>(iterations), "count");
  m.set("solvers.iter_ms", median(intervals), "ms");
  m.set("solvers.iter_ms_tail", quantile(intervals, tail), "ms");
  m.set("solvers.iter_samples", static_cast<double>(intervals.size()),
        "count");
  m.set("solvers.precond_us", slowest(Kind::kPrecond, mark), "us");
  m.set("solvers.precond_share", precond_share, "ratio");
  m.set("solvers.krylov_self_us", self_us, "us");
  m.set("solvers.dist_vs_serial",
        safe_ratio(refs.dist_iter_us, refs.serial_iter_us), "ratio");
  m.set("solvers.mg_setup_s", setup_phase_s(Kind::kSetupMg), "s");
  m.set("solvers.mg_sweeps_per_vcycle",
        safe_ratio(static_cast<double>(rank0.mg_level_sweeps),
                   static_cast<double>(rank0.mg_vcycles)),
        "count");
  m.set("setup.runtime_s", median(runtime_s), "s");
  m.set("setup.distribute_s", setup_phase_s(Kind::kSetupDistribute), "s");
  m.set("setup.halo_plan_s", setup_phase_s(Kind::kSetupHaloPlan), "s");
  m.set("setup.vectors_s", setup_phase_s(Kind::kSetupVectors), "s");
  m.set("input.gen_s", gen_s, "s");
  m.set("ref.csr_matvec_us", refs.csr_matvec_us, "us");
  m.set("ref.serial_dot_us", refs.serial_dot_us, "us");
  m.set("ref.triad_gbs", triad.gbs, "GB/s");
  m.set("trace.overhead",
        safe_ratio(median(seconds_of(solves, true)),
                   median(seconds_of(solves, false))),
        "ratio");
  print_details(solves, true,
                ", \"iter_ms_tail_pct\": " + json_number(100.0 * tail) +
                    ", \"triad_array_bytes\": " +
                    std::to_string(triad.array_bytes) +
                    ", \"llc_bytes\": " + std::to_string(llc));
  if (!cfg.trace_out.empty()) {
    write_trace(cfg.trace_out, logs, manifest_json(cfg));
  }
  return out;
}

}  // namespace wallbench
