// Experiment A3: the runtime's collectives must track the closed-form
// topology formulas the paper's analysis is written in —
//   broadcast/reduce:  ceil(log2 NP) * (t_s + m*t_c)
//   allgather (the "all-to-all broadcast"):  t_s*logNP + t_c*total  on a
//   hypercube, (NP-1)*(t_s + m*t_c) on a ring.
// Table: modeled makespan (from instrumented messages) vs the prediction,
// per collective, NP and topology.

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/msg/mailbox.hpp"
#include "hpfcg/msg/process.hpp"

using hpfcg::msg::CostParams;
using hpfcg::msg::Process;
using hpfcg::msg::Topology;

namespace {

void bench_topology(Topology topo) {
  const CostParams params;
  const std::size_t elems = 4096;  // payload elements per collective
  hpfcg::util::Table table(
      "A3 — collectives on " + hpfcg::msg::topology_name(topo) +
          " (modeled vs closed form), payload " + std::to_string(elems) +
          " doubles",
      {"collective", "NP", "msgs total", "bytes total", "modeled[us]",
       "predicted[us]"});

  for (const int np : {2, 4, 8, 16}) {
    // --- broadcast ---
    auto rt = hpfcg_bench::run_machine(
        np,
        [&](Process& p) {
          std::vector<double> buf(elems, 1.0);
          p.broadcast_into<double>(0, buf);
        },
        params, topo);
    table.add_row(
        {"broadcast", std::to_string(np),
         hpfcg::util::fmt_count(rt->total_stats().messages_sent),
         hpfcg::util::fmt_count(rt->total_stats().bytes_sent),
         hpfcg::util::fmt(rt->modeled_makespan() * 1e6, 4),
         hpfcg::util::fmt(rt->cost().broadcast_time(elems * 8) * 1e6, 4)});

    // --- allreduce (scalar merge of DOT_PRODUCT) ---
    auto rt2 = hpfcg_bench::run_machine(
        np, [&](Process& p) { (void)p.allreduce(1.0); }, params, topo);
    table.add_row(
        {"allreduce(1)", std::to_string(np),
         hpfcg::util::fmt_count(rt2->total_stats().messages_sent),
         hpfcg::util::fmt_count(rt2->total_stats().bytes_sent),
         hpfcg::util::fmt(rt2->modeled_makespan() * 1e6, 4),
         hpfcg::util::fmt(rt2->cost().allreduce_time(8) * 1e6, 4)});

    // --- allgather (the paper's all-to-all broadcast) ---
    const std::size_t per_rank = elems / static_cast<std::size_t>(np);
    auto rt3 = hpfcg_bench::run_machine(
        np,
        [&](Process& p) {
          std::vector<std::size_t> counts(static_cast<std::size_t>(np),
                                          per_rank);
          std::vector<double> local(per_rank, 2.0);
          std::vector<double> out;
          p.allgatherv<double>(local, out, counts);
        },
        params, topo);
    table.add_row(
        {"allgather", std::to_string(np),
         hpfcg::util::fmt_count(rt3->total_stats().messages_sent),
         hpfcg::util::fmt_count(rt3->total_stats().bytes_sent),
         hpfcg::util::fmt(rt3->modeled_makespan() * 1e6, 4),
         hpfcg::util::fmt(rt3->cost().allgather_time(per_rank * 8) * 1e6, 4)});

    // --- vector allreduce (the PRIVATE ... MERGE(+) primitive) ---
    auto rt4 = hpfcg_bench::run_machine(
        np,
        [&](Process& p) {
          std::vector<double> buf(elems, 1.0);
          p.allreduce_vec(buf);
        },
        params, topo);
    table.add_row(
        {"merge(+)", std::to_string(np),
         hpfcg::util::fmt_count(rt4->total_stats().messages_sent),
         hpfcg::util::fmt_count(rt4->total_stats().bytes_sent),
         hpfcg::util::fmt(rt4->modeled_makespan() * 1e6, 4),
         hpfcg::util::fmt(rt4->cost().allreduce_time(elems * 8) * 1e6, 4)});
  }
  table.print(std::cout);
}

/// Wall-clock of `reps` small-message collectives (the simulation's own
/// start-up cost), with the mailbox fast paths on vs off.  Small messages
/// are where the inline/pooled machinery matters: a scalar allreduce moves
/// 8-byte payloads that the fast path never heap-allocates.  The ping-pong
/// row prices one mailbox hop; its "op" is a hop, two per round trip.
struct FastPathQuotes {
  double hop_us = 0.0;           ///< NP=2 ping-pong, per hop, fast paths on
  double allreduce_np4_us = 0.0; ///< scalar allreduce at NP=4, fast paths on
};

FastPathQuotes bench_mailbox_fastpath() {
  hpfcg::util::Table table(
      "A3b — mailbox fast path on small messages (wall-clock, host time)",
      {"workload", "NP", "fast paths", "wall[us]", "per op[us]"});
  FastPathQuotes quotes;
  const int reps = 2000;
  // The 8-byte scalar workloads exercise inline envelope storage; the
  // 512-byte vector merge exceeds the inline bound and exercises the
  // per-mailbox buffer pool.
  struct Workload {
    const char* name;
    std::vector<int> nps;
    int ops_per_rep;
    std::function<void(Process&)> body;
    double* quote;  ///< receives the fast-path per-op time (or null) ...
    int quote_np;   ///< ... at this NP
  };
  const Workload workloads[] = {
      // One value bounced between two ranks: every receive waits for the
      // message, so per hop this is the mailbox's wake-up latency.
      {"ping-pong(1) x2000, per hop",
       {2},
       2,
       [reps](Process& p) {
         const int kTag = 9;
         const int peer = 1 - p.rank();
         double v = 0.0;
         for (int i = 0; i < reps; ++i) {
           if (p.rank() == 0) p.send_value<double>(peer, kTag, v);
           v = p.recv_value<double>(peer, kTag);
           if (p.rank() == 1) p.send_value<double>(peer, kTag, v + 1.0);
         }
       },
       &quotes.hop_us,
       2},
      // Burst send/recv isolates the message path from collective
      // lockstep: the receiver's queue is never empty after the first
      // message, so wall-clock tracks envelope construction — the part
      // the inline fast path deletes the allocation from.
      {"burst send(4) x2000",
       {2},
       1,
       [reps](Process& p) {
         const int kTag = 7;
         std::vector<double> payload(4, 1.0);
         if (p.rank() == 0) {
           for (int i = 0; i < reps; ++i) {
             p.send<double>(1, kTag, payload);
           }
         } else {
           std::vector<double> in(4);
           for (int i = 0; i < reps; ++i) {
             p.recv_into<double>(0, kTag, in);
           }
         }
       },
       nullptr,
       0},
      {"allreduce(1) x2000",
       {2, 4, 8},
       1,
       [reps](Process& p) {
         double acc = 0.0;
         for (int i = 0; i < reps; ++i) acc = p.allreduce(acc + 1.0);
         (void)acc;
       },
       &quotes.allreduce_np4_us,
       4},
      {"merge(64) x2000",
       {2, 4, 8},
       1,
       [reps](Process& p) {
         std::vector<double> buf(64, 1.0);
         for (int i = 0; i < reps; ++i) p.allreduce_vec(buf);
       },
       nullptr,
       0},
  };
  for (const auto& w : workloads) {
    for (const int np : w.nps) {
      for (const bool fast : {false, true}) {
        hpfcg::msg::set_buffer_pooling(fast);
        hpfcg::msg::set_inline_payloads(fast);
        // Best of 5 trials: scheduler noise at these wall times swamps a
        // single run, while the minimum tracks the achievable path cost.
        double us = 0.0;
        for (int trial = 0; trial < 5; ++trial) {
          const auto t0 = std::chrono::steady_clock::now();
          hpfcg_bench::run_machine(np, w.body);
          const auto t1 = std::chrono::steady_clock::now();
          const double trial_us =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
          us = (trial == 0) ? trial_us : std::min(us, trial_us);
        }
        const double per_op = us / (reps * w.ops_per_rep);
        if (fast && w.quote != nullptr && np == w.quote_np) *w.quote = per_op;
        table.add_row({w.name, std::to_string(np), fast ? "on" : "off",
                       hpfcg::util::fmt_fixed(us),
                       hpfcg::util::fmt(per_op, 2)});
      }
    }
  }
  hpfcg::msg::set_buffer_pooling(true);
  hpfcg::msg::set_inline_payloads(true);
  table.print(std::cout);
  return quotes;
}

}  // namespace

int main() {
  for (const auto topo : {Topology::kHypercube, Topology::kRing,
                          Topology::kMesh2D, Topology::kFullyConnected}) {
    bench_topology(topo);
  }
  const FastPathQuotes q = bench_mailbox_fastpath();
  std::cout << "\nReading: modeled times stay within a small factor of the\n"
               "closed forms on every topology; the ring pays (NP-1)\n"
               "start-ups for the allgather where the hypercube pays logNP\n"
               "— exactly the distinction the paper's Section 4 draws.\n"
            << "A3b: one mailbox hop costs " << hpfcg::util::fmt(q.hop_us, 2)
            << " us (NP=2 ping-pong) and a scalar\nallreduce at NP=4 costs "
            << hpfcg::util::fmt(q.allreduce_np4_us, 2) << " us, "
            << hpfcg::util::fmt(q.hop_us > 0.0 ? q.allreduce_np4_us / q.hop_us
                                               : 0.0,
                                2)
            << " hops' worth; its reduce +\nbroadcast tree runs "
               "2*log2(4) = 4 hops in sequence — the\npaper's "
               "t_startup*logNP merge, paid here in host wake-up latency.\n";
  return 0;
}
