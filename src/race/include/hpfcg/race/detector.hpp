#pragma once
// Per-machine race detector: owns the per-rank vector clocks, the race
// ledger, the barrier join, the region table, and the replay RNGs.  One
// instance per msg::Runtime, created when detection or replay is enabled at
// Runtime construction; every hook is a side channel (no simulated
// messages, no Stats mutation).
//
// Threading contract: rank r's clock and its last any-source matches are
// touched only by rank r's thread (send / receive-completion ticks, barrier
// adoption, region snapshots, wildcard matching), so they need no lock.  The join map, the race ledger, and the
// region table have their own mutexes; choose_wildcard() runs under the
// receiving mailbox's lock and takes at most the ledger mutex (lock order:
// mailbox -> ledger, never the reverse).

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpfcg/race/clock.hpp"
#include "hpfcg/util/rng.hpp"

namespace hpfcg::check {
class Harness;
}

namespace hpfcg::race {

/// What kind of match-order race a record describes.
enum class RaceKind : std::uint8_t {
  kWildcard = 0,    ///< two concurrent sends both eligible for one recv_any
  kRegion = 1,      ///< unordered conflicting accesses to a shared region
  kFenceOrder = 2,  ///< pending p2p message not dominated by a fence's clock
};

[[nodiscard]] const char* to_string(RaceKind kind);

/// One flagged race.  `rank` is where it was observed (the receiver, the
/// fence enterer, or the later region accessor); src_a/src_b name the two
/// racing participants, diagnostics-style (the check layer's convention of
/// naming the offending ranks).
struct RaceRecord {
  RaceKind kind = RaceKind::kWildcard;
  int rank = 0;
  int src_a = 0;
  int src_b = 0;
  int tag = 0;
  std::string site;    ///< receive call-site label (SiteScope), if any
  std::string detail;  ///< human-readable one-liner
};

/// Sharing discipline of a registered region.
enum class RegionKind : std::uint8_t {
  /// Per-rank copies (the paper's PRIVATE): concurrent writes are the
  /// normal case; only a write unordered with another rank's publish
  /// (merge) is harmful.
  kPrivate = 0,
  /// Every rank holds a copy assumed identical: any two cross-rank
  /// accesses, at least one a write, must be clock-ordered.
  kReplicated = 1,
};

class Detector {
 public:
  /// `ledger` (may be null) is the hpfcg::check harness: every race is
  /// mirrored into its violation list, so with both layers on a flagged
  /// race fails the runtime's teardown audit instead of passing silently.
  Detector(int nprocs, bool detect, std::uint64_t replay_seed,
           check::Harness* ledger);

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  [[nodiscard]] bool detecting() const { return detect_; }
  [[nodiscard]] bool replaying() const { return replay_seed_ != 0; }
  [[nodiscard]] int nprocs() const { return nprocs_; }

  // ---- clock hooks (called by the owning rank's thread) -----------------
  /// A send by `src`: tick its clock and write the stamp the envelope will
  /// carry.  No-op (stamp left empty) when detection is off.
  void on_send(int src, Stamp& stamp_out);

  /// A receive completed on `rank` for a message from `src` carrying
  /// `stamp`: merge then tick.
  void on_receive(int rank, int src, std::span<const std::uint32_t> stamp);

  /// Barrier protocol: every rank posts its clock before entering the
  /// runtime barrier and adopts the join (plus a tick) after leaving it.
  /// The runtime barrier guarantees all posts of a generation precede any
  /// adopt of that generation.
  void barrier_post(int rank);
  void barrier_adopt(int rank);

  // ---- wildcard matching (called under the receiving mailbox's lock) ----
  /// One eligible shard head during an any-source match.
  struct Candidate {
    int src = 0;
    std::uint64_t seq = 0;       ///< mailbox arrival stamp
    const Stamp* stamp = nullptr;
  };

  /// Pick which candidate an any-source receive matches and, when
  /// detecting, flag every candidate concurrent with the chosen one as a
  /// wildcard race.  The chosen message is also checked against the
  /// previous any-source match on this (rank, tag): if their sends are
  /// concurrent, the earlier receive could have taken it (the
  /// Netzer–Miller message-race condition), so the pair is flagged even
  /// when the message had not arrived yet.  The verdict thus follows the
  /// happens-before graph, not arrival timing.  Without replay the choice
  /// is the oldest arrival — bit-identical to the detector-free mailbox;
  /// with replay it is drawn from this rank's seeded RNG.  `cands` is
  /// nonempty and sorted by shard (source) order.  Called on `rank`'s own
  /// thread.
  [[nodiscard]] std::size_t choose_wildcard(int rank, int tag,
                                            std::span<const Candidate> cands);

  // ---- fence ordering ---------------------------------------------------
  /// Rank entered a fence-class collective (`what`) with `pending`
  /// unreceived point-to-point messages in its mailbox.  Any of them whose
  /// stamp is concurrent with the rank's current clock is a match the
  /// fence will not order — flagged once per (rank, src, tag).
  void on_fence(int rank, const char* what,
                std::span<const StampedMessage> pending);

  // ---- regions ----------------------------------------------------------
  /// Register a shared region.  SPMD discipline means every rank registers
  /// its regions in the same program order, so the per-rank ordinal is the
  /// machine-wide identity; ranks disagreeing on `kind` for one ordinal is
  /// itself reported.  Returns the region id.
  std::uint64_t register_region(int rank, RegionKind kind, std::string name);

  /// Record an access on `rank` at its current clock.  For kReplicated,
  /// a write concurrent with any other rank's recorded access (or any
  /// access concurrent with another rank's write) is flagged.
  void on_region_write(int rank, std::uint64_t region);
  void on_region_read(int rank, std::uint64_t region);

  /// A publish (merge) of a kPrivate region completed on `rank`: every
  /// other rank's recorded write must now be dominated by this rank's
  /// clock — the merge collective ordered it — or it raced the merge.
  void on_region_publish(int rank, std::uint64_t region);

  // ---- ledger -----------------------------------------------------------
  [[nodiscard]] std::size_t race_count() const;
  [[nodiscard]] std::vector<RaceRecord> records() const;
  /// Human-readable multi-line report (empty string when no races).
  [[nodiscard]] std::string report() const;
  /// Machine-readable report: {"nprocs":…, "races":[{…}…]}.
  void write_json(std::ostream& os) const;
  void clear();

  /// Test hook: rank's current clock.  Only meaningful from the rank's own
  /// thread or after the machine quiesced (run() joined).
  [[nodiscard]] std::span<const std::uint32_t> clock_view(int rank) const {
    return clocks_[static_cast<std::size_t>(rank)].view();
  }

 private:
  struct BarrierJoin {
    VectorClock join;
    int posted = 0;
    int adopted = 0;
  };

  struct RegionAccess {
    Stamp clock;
    bool valid = false;
  };

  struct Region {
    RegionKind kind = RegionKind::kPrivate;
    std::string name;
    std::vector<RegionAccess> writes;  ///< last write per rank
    std::vector<RegionAccess> reads;   ///< last read per rank
  };

  /// The last any-source match on one (rank, tag): its source and send
  /// stamp (empty before the first match).
  struct WildcardMatch {
    int src = 0;
    Stamp send;
  };

  void record(RaceRecord rec);
  void record_wildcard(int rank, int tag, int src_x, int src_y);
  void region_access(int rank, std::uint64_t region, bool write);

  int nprocs_;
  bool detect_;
  std::uint64_t replay_seed_;
  check::Harness* ledger_;

  std::vector<VectorClock> clocks_;
  /// Replay RNG per rank; rank r's stream is drawn only under rank r's
  /// mailbox lock, so no extra synchronization is needed.
  std::vector<util::Xoshiro256> rngs_;
  /// Per rank, tag -> last any-source match; touched only by that rank's
  /// thread, like its clock.
  std::vector<std::unordered_map<int, WildcardMatch>> last_wildcard_;

  mutable std::mutex join_mu_;
  std::unordered_map<std::uint64_t, BarrierJoin> joins_;
  std::vector<std::uint64_t> post_gen_;
  std::vector<std::uint64_t> adopt_gen_;

  mutable std::mutex region_mu_;
  std::vector<Region> regions_;
  std::vector<std::uint64_t> region_ordinal_;  ///< per-rank registration count

  mutable std::mutex ledger_mu_;
  std::vector<RaceRecord> races_;
  /// Dedup key: (kind, rank, tag, lo(src), hi(src)) — a racing pair is
  /// reported once, not once per retry of the same receive loop.
  std::set<std::tuple<int, int, int, int, int>> seen_;
};

/// Thread-local receive-site label, attached to wildcard-race reports so a
/// diagnostic names the receive that raced, not just its tag.  Scope one
/// around a receive region: `race::SiteScope site("pcg halo recv");`.
class SiteScope {
 public:
  explicit SiteScope(const char* label);
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;
  ~SiteScope();

 private:
  const char* prev_;
};

/// The innermost SiteScope label on this thread ("" when none).
[[nodiscard]] const char* current_site();

}  // namespace hpfcg::race
