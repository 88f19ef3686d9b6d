#pragma once
// Inspector/executor machinery for distributed compressed sparse storage.
//
// Section 4 of the paper observes that when the nonzero arrays (a, col) of
// a CSR matrix are distributed with HPF's flat BLOCK over the nnz index
// space, "a processor that is responsible from a specific row may not have
// all the actual data elements (i.e., col and a) on that row.  Therefore,
// additional communication is needed to bring in those missing elements."
//
// This header computes and executes that communication: given a contiguous
// distribution of the atoms (rows for CSR, columns for CSC) and a
// contiguous distribution of the nnz arrays, each rank derives which
// foreign nnz segments its atoms reference (the *inspector*, built once —
// the "communication schedule reuse" of Ponnusamy et al., which the paper
// cites) and ships them per sweep (the *executor*).  When the two
// distributions are atom-aligned (the paper's proposed ATOM:BLOCK
// semantics), every segment is empty and the executor is free.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

/// Half-open global nnz-index range.
struct NnzSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Inverted ranges (from empty intersections) count as empty.
  [[nodiscard]] std::size_t size() const {
    return begin < end ? end - begin : 0;
  }
  [[nodiscard]] bool empty() const { return begin >= end; }
};

inline NnzSegment intersect(NnzSegment a, NnzSegment b) {
  return {std::max(a.begin, b.begin), std::min(a.end, b.end)};
}

/// ATOM:BLOCK: the nnz distribution whose cut points follow the atom cuts
/// of the contiguous `atom_dist` through the global pointer array `ptr`
/// (atom cut c maps to nnz cut ptr[c]), so each atom's entries live with
/// its owner and the exchange plan is empty.
inline hpf::DistPtr atom_aligned_nnz_dist(const std::vector<std::size_t>& ptr,
                                          const hpf::Distribution& atom_dist) {
  HPFCG_REQUIRE(atom_dist.contiguous(),
                "atom-aligned nnz: atom distribution must be contiguous");
  const auto np = static_cast<std::size_t>(atom_dist.nprocs());
  std::vector<std::size_t> cuts(np + 1, ptr.back());
  for (std::size_t r = 0; r < np; ++r) {
    cuts[r] = ptr[atom_dist.local_range(static_cast<int>(r)).first];
  }
  return std::make_shared<const hpf::Distribution>(
      hpf::Distribution::from_cuts(ptr.back(), std::move(cuts)));
}

/// The reusable communication schedule for one (atom_dist, nnz_dist) pair.
class NnzExchangePlan {
 public:
  /// Trivial plan for a perfectly atom-aligned layout: this rank needs
  /// exactly what it owns and nothing moves.  Used by construction paths
  /// that guarantee alignment without holding the replicated pointer array
  /// (e.g. root-scatter assembly).
  static NnzExchangePlan aligned(int nprocs, NnzSegment owned_range) {
    NnzExchangePlan plan;
    plan.need_ = owned_range;
    plan.own_ = owned_range;
    plan.recv_from_.assign(static_cast<std::size_t>(nprocs), NnzSegment{});
    plan.send_to_.assign(static_cast<std::size_t>(nprocs), NnzSegment{});
    return plan;
  }

  /// `ptr` is the *global* compressed pointer array (row_ptr or col_ptr),
  /// replicated — the inspector reads it to derive every rank's needs.
  NnzExchangePlan(msg::Process& proc, const std::vector<std::size_t>& ptr,
                  const hpf::Distribution& atom_dist,
                  const hpf::Distribution& nnz_dist) {
    HPFCG_REQUIRE(atom_dist.contiguous(),
                  "nnz exchange: atom distribution must be contiguous");
    HPFCG_REQUIRE(nnz_dist.contiguous(),
                  "nnz exchange: nnz distribution must be contiguous");
    HPFCG_REQUIRE(ptr.size() == atom_dist.size() + 1,
                  "nnz exchange: pointer array must have one entry per atom "
                  "plus the terminator");
    const int np = proc.nprocs();
    const int me = proc.rank();

    const auto need_of = [&](int r) -> NnzSegment {
      const auto [lo, hi] = atom_dist.local_range(r);
      return {ptr[lo], ptr[hi]};
    };
    const auto own_of = [&](int r) -> NnzSegment {
      const auto [lo, hi] = nnz_dist.local_range(r);
      return {lo, hi};
    };

    need_ = need_of(me);
    own_ = own_of(me);
    recv_from_.resize(static_cast<std::size_t>(np));
    send_to_.resize(static_cast<std::size_t>(np));
    for (int r = 0; r < np; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      if (r != me) {
        recv_from_[ur] = intersect(need_, own_of(r));
        send_to_[ur] = intersect(own_, need_of(r));
        remote_nnz_ += recv_from_[ur].size();
      } else {
        recv_from_[ur] = {0, 0};
        send_to_[ur] = {0, 0};
      }
    }
  }

  /// Global nnz range this rank's atoms reference.
  [[nodiscard]] NnzSegment needed() const { return need_; }
  /// Global nnz range this rank stores.
  [[nodiscard]] NnzSegment owned() const { return own_; }
  /// Entries that must be fetched from other ranks per executor run.
  [[nodiscard]] std::size_t remote_nnz() const { return remote_nnz_; }

  [[nodiscard]] const std::vector<NnzSegment>& recv_segments() const {
    return recv_from_;
  }
  [[nodiscard]] const std::vector<NnzSegment>& send_segments() const {
    return send_to_;
  }

  /// Executor: assemble this rank's needed window of a global array.
  ///
  /// `owned` holds this rank's slice (global range owned()); on return
  /// `work` (sized needed().size()) holds the full needed window, local
  /// entries copied and remote entries fetched point-to-point — exactly one
  /// message per nonempty segment, so an atom-aligned plan sends nothing.
  template <class T>
  void execute(msg::Process& proc, std::span<const T> owned,
               std::span<T> work) const {
    HPFCG_REQUIRE(owned.size() == own_.size(),
                  "nnz exchange: owned slice has wrong length");
    HPFCG_REQUIRE(work.size() == need_.size(),
                  "nnz exchange: work window has wrong length");
    // Local overlap copies straight across.
    const NnzSegment local = intersect(need_, own_);
    if (!local.empty()) {
      std::copy_n(owned.data() + (local.begin - own_.begin), local.size(),
                  work.data() + (local.begin - need_.begin));
    }
    const int np = proc.nprocs();
    const int me = proc.rank();
    // FIFO matching per (src, tag) keeps back-to-back executor runs
    // correctly paired even with a fixed tag.
    constexpr int kTag = 0x2001;
    for (int r = 0; r < np; ++r) {
      const auto seg = send_to_[static_cast<std::size_t>(r)];
      if (r == me || seg.empty()) continue;
      proc.send<T>(r, kTag,
                   std::span<const T>(owned.data() + (seg.begin - own_.begin),
                                      seg.size()));
    }
    for (int r = 0; r < np; ++r) {
      const auto seg = recv_from_[static_cast<std::size_t>(r)];
      if (r == me || seg.empty()) continue;
      proc.recv_into<T>(
          r, kTag,
          std::span<T>(work.data() + (seg.begin - need_.begin), seg.size()));
    }
  }

 private:
  NnzExchangePlan() = default;

  NnzSegment need_{};
  NnzSegment own_{};
  std::size_t remote_nnz_ = 0;
  std::vector<NnzSegment> recv_from_;
  std::vector<NnzSegment> send_to_;
};

/// One rank's share of a distributed compressed matrix's nnz arrays (index
/// array col/row, values a): the owned slice, and the window its atoms
/// sweep.  On an atom-aligned plan (needed() == owned()) the owned slice IS
/// the window: it is stored once and assemble() is free — the ATOM:BLOCK
/// claim that an aligned layout needs no fetch at all.  Otherwise the
/// window has its own storage, which the plan's executor refills at every
/// assemble() unless caching is on (the SPARSE_MATRIX descriptor declares
/// the arrays immutable, so one fetch serves every later sweep).
///
/// The skip is collective-safe: the atoms' needed ranges are disjoint, so a
/// rank whose window is its owned slice has no segment to send or receive.
template <class T>
class NnzWindow {
 public:
  explicit NnzWindow(NnzExchangePlan plan) : plan_(std::move(plan)) {}

  /// Install this rank's owned slice (global range plan().owned()).
  void set_owned(std::vector<std::size_t> idx, std::vector<T> val) {
    HPFCG_REQUIRE(
        idx.size() == plan_.owned().size() && val.size() == idx.size(),
        "nnz window: owned slice has wrong length");
    idx_o_ = std::move(idx);
    val_o_ = std::move(val);
  }

  /// Install the owned slice of the replicated global arrays.
  void set_owned_from(std::span<const std::size_t> idx,
                      std::span<const T> val) {
    const auto own = plan_.owned();
    const auto i = idx.subspan(own.begin, own.size());
    const auto v = val.subspan(own.begin, own.size());
    set_owned({i.begin(), i.end()}, {v.begin(), v.end()});
  }

  [[nodiscard]] const NnzExchangePlan& plan() const { return plan_; }
  [[nodiscard]] bool aligned() const {
    return plan_.needed().begin == plan_.owned().begin &&
           plan_.needed().end == plan_.owned().end;
  }

  /// Keep the first fetched window for every later sweep.
  void enable_caching() { caching_ = true; }

  /// Bring the window up to date: run the executor (collective) unless the
  /// layout is aligned or the cache holds the window.  True when the window
  /// was refilled.
  bool assemble(msg::Process& proc) {
    if (aligned() || (caching_ && assembled_)) return false;
    idx_w_.resize(plan_.needed().size());
    val_w_.resize(plan_.needed().size());
    plan_.execute<std::size_t>(proc, std::span<const std::size_t>(idx_o_),
                               std::span<std::size_t>(idx_w_));
    plan_.execute<T>(proc, std::span<const T>(val_o_), std::span<T>(val_w_));
    assembled_ = true;
    return true;
  }

  /// The window (valid after assemble()): global nnz index k sits at
  /// k - plan().needed().begin.
  [[nodiscard]] std::span<const std::size_t> idx() const {
    return aligned() ? std::span<const std::size_t>(idx_o_)
                     : std::span<const std::size_t>(idx_w_);
  }
  [[nodiscard]] std::span<const T> val() const {
    return aligned() ? std::span<const T>(val_o_) : std::span<const T>(val_w_);
  }

  /// The owned slice: global nnz index k sits at k - plan().owned().begin.
  [[nodiscard]] std::span<const std::size_t> owned_idx() const {
    return idx_o_;
  }
  [[nodiscard]] std::span<const T> owned_val() const { return val_o_; }

 private:
  NnzExchangePlan plan_;
  std::vector<std::size_t> idx_o_;  ///< owned slice of the index array
  std::vector<T> val_o_;            ///< owned slice of the values
  std::vector<std::size_t> idx_w_;  ///< unaligned only: assembled window
  std::vector<T> val_w_;            ///< unaligned only: assembled window
  bool caching_ = false;
  bool assembled_ = false;
};

}  // namespace hpfcg::sparse
