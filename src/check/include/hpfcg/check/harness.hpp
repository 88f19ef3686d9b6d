#pragma once
// Per-machine verification harness: owns the collective ledger, the
// wait-for registry the deadlock watchdog reads, and the violation list the
// teardown audit reports.  One instance per msg::Runtime, created when
// checking is enabled at Runtime construction; every hook is a
// side-channel (no simulated messages, no Stats mutation).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hpfcg/check/collective_ledger.hpp"

namespace hpfcg::check {

/// What a rank is blocked on right now (for the watchdog's wait-for dump).
enum class WaitKind : std::uint8_t { kNone, kRecv, kBarrier };

struct WaitState {
  WaitKind kind = WaitKind::kNone;
  int src = 0;  ///< recv: source rank (kAnySource = -1)
  int tag = 0;  ///< recv: tag
};

class Harness {
 public:
  explicit Harness(int nprocs)
      : nprocs_(nprocs), ledger_(nprocs), waits_(static_cast<std::size_t>(nprocs)) {}

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // ---- collective conformance -----------------------------------------
  /// Throws util::Error naming the divergent rank on mismatch.
  void on_collective(int rank, std::uint64_t seq, const CollectiveRecord& rec) {
    if (nprocs_ > 1) ledger_.post(rank, seq, rec);
    note_progress();
  }

  /// The first collective conformance violation raised ("" when none).
  [[nodiscard]] std::string conformance_diagnosis() const {
    return ledger_.diagnosis();
  }

  // ---- wait-for registry / progress ------------------------------------
  void begin_wait(int rank, WaitKind kind, int src = 0, int tag = 0) {
    std::lock_guard<std::mutex> lock(wait_mu_);
    waits_[static_cast<std::size_t>(rank)] = WaitState{kind, src, tag};
  }

  void end_wait(int rank) {
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      waits_[static_cast<std::size_t>(rank)] = WaitState{};
    }
    note_progress();
  }

  /// Any observable step (send, receive completion, collective entry).
  void note_progress() { epoch_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// True if at least one rank is currently blocked.
  [[nodiscard]] bool anyone_waiting() const;

  /// Human-readable per-rank wait-for table for the watchdog diagnostic.
  [[nodiscard]] std::string dump_wait_state() const;

  // ---- non-throwing violation reports (surfaced by the teardown audit) --
  void report_violation(std::string msg);
  [[nodiscard]] std::vector<std::string> violations() const;

 private:
  int nprocs_;
  CollectiveLedger ledger_;

  mutable std::mutex wait_mu_;
  std::vector<WaitState> waits_;
  std::atomic<std::uint64_t> epoch_{0};

  mutable std::mutex viol_mu_;
  std::vector<std::string> violations_;
};

}  // namespace hpfcg::check
