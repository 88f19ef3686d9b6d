#include "hpfcg/race/detector.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "hpfcg/check/harness.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::race {

namespace {

thread_local const char* t_site = "";

/// JSON string escaping for the report (labels and details only).
void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u0020";  // control chars never appear; keep it valid
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

const char* to_string(RaceKind kind) {
  switch (kind) {
    case RaceKind::kWildcard: return "wildcard-receive";
    case RaceKind::kRegion: return "region";
    case RaceKind::kFenceOrder: return "fence-order";
  }
  return "?";
}

SiteScope::SiteScope(const char* label) : prev_(t_site) { t_site = label; }
SiteScope::~SiteScope() { t_site = prev_; }
const char* current_site() { return t_site; }

Detector::Detector(int nprocs, bool detect, std::uint64_t replay_seed,
                   check::Harness* ledger)
    : nprocs_(nprocs),
      detect_(detect),
      replay_seed_(replay_seed),
      ledger_(ledger),
      last_wildcard_(static_cast<std::size_t>(nprocs)),
      post_gen_(static_cast<std::size_t>(nprocs), 0),
      adopt_gen_(static_cast<std::size_t>(nprocs), 0),
      region_ordinal_(static_cast<std::size_t>(nprocs), 0) {
  HPFCG_REQUIRE(nprocs >= 1, "race::Detector needs at least one rank");
  clocks_.reserve(static_cast<std::size_t>(nprocs));
  rngs_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    clocks_.emplace_back(nprocs);
    // Distinct, deterministic stream per receiving rank.
    rngs_.emplace_back(replay_seed ^ (0x9e3779b97f4a7c15ULL *
                                      static_cast<std::uint64_t>(r + 1)));
  }
}

void Detector::on_send(int src, Stamp& stamp_out) {
  if (!detect_) return;
  auto& c = clocks_[static_cast<std::size_t>(src)];
  c.tick(src);
  stamp_out = c.snapshot();
}

void Detector::on_receive(int rank, int /*src*/,
                          std::span<const std::uint32_t> stamp) {
  if (!detect_) return;
  auto& c = clocks_[static_cast<std::size_t>(rank)];
  c.merge(stamp);
  c.tick(rank);
}

void Detector::barrier_post(int rank) {
  if (!detect_) return;
  std::lock_guard<std::mutex> lock(join_mu_);
  const std::uint64_t gen = post_gen_[static_cast<std::size_t>(rank)]++;
  BarrierJoin& j = joins_[gen];
  if (j.join.size() == 0) j.join = VectorClock(nprocs_);
  j.join.merge(clocks_[static_cast<std::size_t>(rank)].view());
  ++j.posted;
}

void Detector::barrier_adopt(int rank) {
  if (!detect_) return;
  std::lock_guard<std::mutex> lock(join_mu_);
  const std::uint64_t gen = adopt_gen_[static_cast<std::size_t>(rank)]++;
  auto it = joins_.find(gen);
  // The runtime barrier orders every post of a generation before any adopt
  // of it, so the join is complete here by construction.
  HPFCG_REQUIRE(it != joins_.end() && it->second.posted == nprocs_,
                "race: barrier join incomplete — barrier hook out of order");
  auto& c = clocks_[static_cast<std::size_t>(rank)];
  c.adopt(it->second.join);
  c.tick(rank);
  if (++it->second.adopted == nprocs_) joins_.erase(it);
}

std::size_t Detector::choose_wildcard(int rank, int tag,
                                      std::span<const Candidate> cands) {
  // Delivery choice first: oldest arrival unless replay perturbs it.
  std::size_t chosen = 0;
  if (replaying() && cands.size() > 1) {
    chosen = static_cast<std::size_t>(
        rngs_[static_cast<std::size_t>(rank)].below(cands.size()));
  } else {
    for (std::size_t i = 1; i < cands.size(); ++i) {
      if (cands[i].seq < cands[chosen].seq) chosen = i;
    }
  }
  if (!detect_) return chosen;
  const Candidate& pick = cands[chosen];

  // Any candidate concurrent with the chosen one could equally have been
  // delivered to this receive: a match-order race.  (Pairs not involving
  // the chosen message will surface when one of them is chosen by a later
  // receive of the same loop.)
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (i == chosen) continue;
    if (!concurrent(*cands[i].stamp, *pick.stamp)) continue;
    record_wildcard(rank, tag, cands[i].src, pick.src);
  }

  // A message not yet queued races too: the previous any-source receive on
  // this tag could have matched it unless its send happens after that
  // receive — and a send that did would also happen after the message that
  // receive took, so concurrent sends are exactly the racing ones.
  WildcardMatch& last = last_wildcard_[static_cast<std::size_t>(rank)][tag];
  if (!last.send.empty() && last.src != pick.src &&
      concurrent(last.send, *pick.stamp)) {
    record_wildcard(rank, tag, last.src, pick.src);
  }
  last.src = pick.src;
  last.send = *pick.stamp;
  return chosen;
}

void Detector::record_wildcard(int rank, int tag, int src_x, int src_y) {
  RaceRecord rec;
  rec.kind = RaceKind::kWildcard;
  rec.rank = rank;
  rec.src_a = std::min(src_x, src_y);
  rec.src_b = std::max(src_x, src_y);
  rec.tag = tag;
  rec.site = current_site();
  std::ostringstream os;
  os << "wildcard-receive race: any-source receive on rank " << rank
     << " (tag " << tag << (rec.site.empty() ? "" : ", site \"") << rec.site
     << (rec.site.empty() ? "" : "\"")
     << ") has concurrently-in-flight matches from rank " << rec.src_a
     << " and rank " << rec.src_b
     << " — delivery order is not fixed by any happens-before edge";
  rec.detail = os.str();
  record(std::move(rec));
}

void Detector::on_fence(int rank, const char* what,
                        std::span<const StampedMessage> pending) {
  if (!detect_) return;
  const auto my = clocks_[static_cast<std::size_t>(rank)].view();
  for (const StampedMessage& m : pending) {
    if (dominated(m.stamp, my)) continue;  // ordered before the fence
    // Sent strictly after the sender passed this fence (its own component
    // outruns everything we could have joined): delivery after the fence
    // is the only possibility — not a race.
    RaceRecord rec;
    rec.kind = RaceKind::kFenceOrder;
    rec.rank = rank;
    rec.src_a = m.src;
    rec.src_b = rank;
    rec.tag = m.tag;
    rec.site = current_site();
    std::ostringstream os;
    os << "fence-order hazard: rank " << rank << " entered " << what
       << " with a pending message from rank " << m.src << " (tag " << m.tag
       << ") whose send the collective's clock does not dominate — a "
          "receive after the fence may or may not be ordered with it";
    rec.detail = os.str();
    record(std::move(rec));
  }
}

std::uint64_t Detector::register_region(int rank, RegionKind kind,
                                        std::string name) {
  std::lock_guard<std::mutex> lock(region_mu_);
  const std::uint64_t id = region_ordinal_[static_cast<std::size_t>(rank)]++;
  if (id >= regions_.size()) {
    regions_.resize(id + 1);
  }
  Region& reg = regions_[id];
  if (reg.writes.empty()) {
    reg.kind = kind;
    reg.name = std::move(name);
    reg.writes.resize(static_cast<std::size_t>(nprocs_));
    reg.reads.resize(static_cast<std::size_t>(nprocs_));
  } else if (reg.kind != kind) {
    RaceRecord rec;
    rec.kind = RaceKind::kRegion;
    rec.rank = rank;
    rec.src_a = rank;
    rec.src_b = rank;
    rec.detail = "region \"" + reg.name + "\" (#" + std::to_string(id) +
                 ") registered with divergent sharing kinds across ranks — "
                 "SPMD region registration order diverged";
    record(std::move(rec));
  }
  return id;
}

void Detector::region_access(int rank, std::uint64_t region, bool write) {
  if (!detect_) return;
  const Stamp now = clocks_[static_cast<std::size_t>(rank)].snapshot();
  std::lock_guard<std::mutex> lock(region_mu_);
  HPFCG_REQUIRE(region < regions_.size(), "race: unknown region id");
  Region& reg = regions_[region];
  if (reg.kind == RegionKind::kReplicated) {
    // Conflicting = cross-rank pair with at least one write, unordered.
    for (int r = 0; r < nprocs_; ++r) {
      if (r == rank) continue;
      const auto ur = static_cast<std::size_t>(r);
      const RegionAccess& w = reg.writes[ur];
      const bool vs_write =
          w.valid && concurrent(w.clock, now);
      const RegionAccess& rd = reg.reads[ur];
      const bool vs_read =
          write && rd.valid && concurrent(rd.clock, now);
      if (!vs_write && !vs_read) continue;
      RaceRecord rec;
      rec.kind = RaceKind::kRegion;
      rec.rank = rank;
      rec.src_a = std::min(rank, r);
      rec.src_b = std::max(rank, r);
      std::ostringstream os;
      os << "region race: rank " << rank << (write ? " wrote" : " read")
         << " replicated region \"" << reg.name << "\" (#" << region
         << ") unordered with rank " << r << "'s "
         << (vs_write ? "write" : "read")
         << " — the replicated copies can diverge";
      rec.detail = os.str();
      record(std::move(rec));
    }
  }
  auto& slot = write ? reg.writes[static_cast<std::size_t>(rank)]
                     : reg.reads[static_cast<std::size_t>(rank)];
  slot.clock = now;
  slot.valid = true;
}

void Detector::on_region_write(int rank, std::uint64_t region) {
  region_access(rank, region, true);
}

void Detector::on_region_read(int rank, std::uint64_t region) {
  region_access(rank, region, false);
}

void Detector::on_region_publish(int rank, std::uint64_t region) {
  if (!detect_) return;
  const auto my = clocks_[static_cast<std::size_t>(rank)].view();
  std::lock_guard<std::mutex> lock(region_mu_);
  HPFCG_REQUIRE(region < regions_.size(), "race: unknown region id");
  Region& reg = regions_[region];
  for (int r = 0; r < nprocs_; ++r) {
    if (r == rank) continue;
    const RegionAccess& w = reg.writes[static_cast<std::size_t>(r)];
    if (!w.valid || dominated(w.clock, my)) continue;
    RaceRecord rec;
    rec.kind = RaceKind::kRegion;
    rec.rank = rank;
    rec.src_a = std::min(rank, r);
    rec.src_b = std::max(rank, r);
    std::ostringstream os;
    os << "region race: rank " << rank << "'s merge of private region \""
       << reg.name << "\" (#" << region << ") completed without ordering "
       << "rank " << r
       << "'s write — that update may or may not be in the merged result";
    rec.detail = os.str();
    record(std::move(rec));
  }
}

void Detector::record(RaceRecord rec) {
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    const auto key =
        std::make_tuple(static_cast<int>(rec.kind), rec.rank, rec.tag,
                        rec.src_a, rec.src_b);
    if (!seen_.insert(key).second) return;
    races_.push_back(rec);
  }
  // Mirror into the check violation ledger (non-throwing): with both layers
  // on, the runtime's teardown audit turns the race into a hard failure.
  if (ledger_ != nullptr) {
    ledger_->report_violation("hpfcg::race: " + rec.detail);
  }
}

std::size_t Detector::race_count() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return races_.size();
}

std::vector<RaceRecord> Detector::records() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return races_;
}

std::string Detector::report() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  if (races_.empty()) return {};
  std::ostringstream os;
  os << "hpfcg::race: " << races_.size() << " race(s) detected:\n";
  for (const RaceRecord& r : races_) {
    os << "  [" << to_string(r.kind) << "] " << r.detail << '\n';
  }
  return os.str();
}

void Detector::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  os << "{\"nprocs\": " << nprocs_ << ", \"replay_seed\": " << replay_seed_
     << ", \"races\": [";
  bool first = true;
  for (const RaceRecord& r : races_) {
    if (!first) os << ", ";
    first = false;
    os << "{\"kind\": \"" << to_string(r.kind) << "\", \"rank\": " << r.rank
       << ", \"src_a\": " << r.src_a << ", \"src_b\": " << r.src_b
       << ", \"tag\": " << r.tag << ", \"site\": ";
    json_escape(os, r.site);
    os << ", \"detail\": ";
    json_escape(os, r.detail);
    os << "}";
  }
  os << "]}";
}

void Detector::clear() {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  races_.clear();
  seen_.clear();
}

}  // namespace hpfcg::race
