#pragma once
// Distributed CSR matrix — the paper's Scenario 1 (row-wise partitioning)
// for sparse storage, Figure 2 / Section 4.
//
// Rows are distributed by `row_dist` (the alignment target of the q vector)
// and the nnz arrays (a, col) by `nnz_dist`.  HPF-1 can only express
// regular distributions of the nnz arrays, e.g. `DISTRIBUTE col(BLOCK)`,
// whose boundaries ignore row structure — rows straddling a cut need their
// missing (col, a) elements fetched every sweep (NnzExchangePlan).  The
// paper's proposed ATOM:BLOCK distribution (ext/atom_partition.hpp) makes
// the two distributions row-aligned so the fetch disappears; its proposed
// SPARSE_MATRIX descriptor lets the compiler cache the fetched entries
// (enable_caching()), since the trio is known immutable.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/sparse/nnz_exchange.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

template <class T>
class DistCsr {
 public:
  /// Collective build from a replicated matrix: each rank keeps only its
  /// owned rows' pointers and its owned nnz slice.
  DistCsr(msg::Process& proc, const Csr<T>& a, hpf::DistPtr row_dist,
          hpf::DistPtr nnz_dist)
      : proc_(&proc),
        row_dist_(std::move(row_dist)),
        nnz_dist_(std::move(nnz_dist)),
        n_(a.n_rows()),
        nnz_(NnzExchangePlan(proc, a.row_ptr(), *row_dist_, *nnz_dist_)) {
    HPFCG_REQUIRE(a.n_rows() == a.n_cols(),
                  "DistCsr: square matrices only (CG context)");
    HPFCG_REQUIRE(row_dist_->size() == n_, "DistCsr: row dist size mismatch");
    HPFCG_REQUIRE(nnz_dist_->size() == a.nnz(),
                  "DistCsr: nnz dist size mismatch");

    // Checking only: every rank builds `a` locally, so rank-divergent
    // assembly (an SPMD bug) silently computes with different matrices.
    // Conform a content fingerprint so the divergent rank is named instead.
    if (proc.checking_active()) {
      proc.conform_replicated(structure_fingerprint(a));
    }

    const auto [row_lo, row_hi] = row_dist_->local_range(proc.rank());
    row_lo_ = row_lo;
    row_ptr_.assign(a.row_ptr().begin() + static_cast<std::ptrdiff_t>(row_lo),
                    a.row_ptr().begin() + static_cast<std::ptrdiff_t>(row_hi) +
                        1);

    nnz_.set_owned_from(a.col_idx(), a.values());
  }

  /// Atom-aligned build: nnz cut points derived from the row cut points, so
  /// each row's entries live with its owner — the ATOM:BLOCK semantics.
  static DistCsr row_aligned(msg::Process& proc, const Csr<T>& a,
                             hpf::DistPtr row_dist) {
    auto nnz_dist = atom_aligned_nnz_dist(a.row_ptr(), *row_dist);
    return DistCsr(proc, a, std::move(row_dist), std::move(nnz_dist));
  }

  /// Collective build where only `root` holds the assembled matrix (the
  /// realistic I/O path: root parses a file, slices travel once).  Always
  /// row-aligned.  `a` is read only on root; other ranks may pass any
  /// matrix (ignored).  `row_dist` must be contiguous.
  static DistCsr scatter_from_root(msg::Process& proc, int root,
                                   const Csr<T>& a, hpf::DistPtr row_dist) {
    HPFCG_REQUIRE(row_dist->contiguous(),
                  "scatter_from_root: row distribution must be contiguous");
    const int np = proc.nprocs();
    constexpr int kTag = 0x2300;

    // Root derives and broadcasts the nnz cut points (the replicated
    // "small array in the size of the number of processors").
    std::vector<std::size_t> cuts(static_cast<std::size_t>(np) + 1, 0);
    if (proc.rank() == root) {
      HPFCG_REQUIRE(a.n_rows() == row_dist->size(),
                    "scatter_from_root: matrix and distribution disagree");
      cuts = atom_aligned_nnz_dist(a.row_ptr(), *row_dist)->cuts();
    }
    proc.broadcast_into<std::size_t>(root,
                                     std::span<std::size_t>(cuts));

    DistCsr out(proc, std::move(row_dist),
                hpf::Distribution::from_cuts(cuts.back(), cuts));

    // Ship each rank its slices: row_ptr (global k values), col, a.
    if (proc.rank() == root) {
      for (int r = 0; r < np; ++r) {
        const auto [lo, hi] = out.row_dist_->local_range(r);
        const auto ur = static_cast<std::size_t>(r);
        const std::span<const std::size_t> rp(a.row_ptr().data() + lo,
                                              hi - lo + 1);
        const std::span<const std::size_t> cols(
            a.col_idx().data() + cuts[ur], cuts[ur + 1] - cuts[ur]);
        const std::span<const T> vals(a.values().data() + cuts[ur],
                                      cuts[ur + 1] - cuts[ur]);
        if (r == root) {
          out.row_ptr_.assign(rp.begin(), rp.end());
          out.nnz_.set_owned({cols.begin(), cols.end()},
                             {vals.begin(), vals.end()});
        } else {
          proc.send<std::size_t>(r, kTag, rp);
          proc.send<std::size_t>(r, kTag + 1, cols);
          proc.send<T>(r, kTag + 2, vals);
        }
      }
    } else {
      out.row_ptr_ = proc.recv<std::size_t>(root, kTag);
      auto cols = proc.recv<std::size_t>(root, kTag + 1);
      out.nnz_.set_owned(std::move(cols), proc.recv<T>(root, kTag + 2));
    }
    return out;
  }

  /// Collective build from per-rank row slices — the migration path of
  /// REDISTRIBUTE (sparse/redistribute.hpp).  Each rank passes the lengths
  /// of its `row_dist->local_count()` rows plus their concatenated (col, a)
  /// entries; the nnz cut points are derived with one allgatherv and the
  /// result is row-aligned.  The new ownership map is
  /// registered with the check ledger (a rank that migrated a different
  /// layout is named instead of silently computing on skewed cuts).
  static DistCsr from_local_rows(msg::Process& proc, hpf::DistPtr row_dist,
                                 const std::vector<std::size_t>& row_lens,
                                 std::vector<std::size_t> col,
                                 std::vector<T> val) {
    HPFCG_REQUIRE(row_dist->contiguous(),
                  "from_local_rows: row distribution must be contiguous");
    const int np = proc.nprocs();
    const int me = proc.rank();
    HPFCG_REQUIRE(row_lens.size() == row_dist->local_count(me),
                  "from_local_rows: need one length per owned row on rank " +
                      std::to_string(me));
    std::size_t mine = 0;
    for (const std::size_t len : row_lens) mine += len;
    HPFCG_REQUIRE(mine == col.size() && col.size() == val.size(),
                  "from_local_rows: row lengths disagree with entry arrays "
                  "on rank " + std::to_string(me));

    // Replicate per-rank nnz counts, then prefix-sum into the new nnz cut
    // points (the "small array in the size of the number of processors").
    std::vector<std::size_t> per_rank;
    proc.allgatherv<std::size_t>(
        std::span<const std::size_t>(&mine, 1), per_rank,
        std::vector<std::size_t>(static_cast<std::size_t>(np), 1));
    std::vector<std::size_t> nnz_cuts(static_cast<std::size_t>(np) + 1, 0);
    std::partial_sum(per_rank.begin(), per_rank.end(), nnz_cuts.begin() + 1);

    DistCsr out(proc, std::move(row_dist),
                hpf::Distribution::from_cuts(nnz_cuts.back(), nnz_cuts));
    out.row_ptr_.resize(row_lens.size() + 1);
    out.row_ptr_[0] = nnz_cuts[static_cast<std::size_t>(me)];
    for (std::size_t lr = 0; lr < row_lens.size(); ++lr) {
      out.row_ptr_[lr + 1] = out.row_ptr_[lr] + row_lens[lr];
    }
    out.nnz_.set_owned(std::move(col), std::move(val));

    if (proc.checking_active()) {
      proc.conform_replicated(
          ownership_fingerprint(out.row_dist(), nnz_cuts));
    }
    return out;
  }

  [[nodiscard]] msg::Process& proc() const { return *proc_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const hpf::Distribution& row_dist() const {
    return *row_dist_;
  }
  [[nodiscard]] const hpf::DistPtr& row_dist_ptr() const { return row_dist_; }
  [[nodiscard]] const hpf::Distribution& nnz_dist() const {
    return *nnz_dist_;
  }
  [[nodiscard]] const hpf::DistPtr& nnz_dist_ptr() const { return nnz_dist_; }

  /// My rows' pointer slice — local_rows()+1 global k values.
  [[nodiscard]] std::span<const std::size_t> local_row_ptr() const {
    return {row_ptr_.data(), row_ptr_.size()};
  }

  /// The (col, a) window covering exactly this rank's rows, assembling it
  /// first if stale (collective in that case — call on every rank).  Entries
  /// of local row lr sit at [row_ptr[lr] - row_ptr[0], row_ptr[lr+1] -
  /// row_ptr[0]) within the spans.  On a row-aligned layout the window is
  /// the owned slice itself (owned_entries()).
  std::pair<std::span<const std::size_t>, std::span<const T>>
  assembled_window() {
    assemble();
    return {nnz_.idx(), nnz_.val()};
  }
  /// This rank's stored slice of (col, a) — the nnz_dist() share.
  [[nodiscard]] std::pair<std::span<const std::size_t>, std::span<const T>>
  owned_entries() const {
    return {nnz_.owned_idx(), nnz_.owned_val()};
  }
  [[nodiscard]] std::size_t local_rows() const {
    return row_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t local_nnz() const {
    return nnz_.owned_val().size();
  }

  /// Entries fetched from other ranks per (uncached) sweep.
  [[nodiscard]] std::size_t remote_nnz() const {
    return nnz_.plan().remote_nnz();
  }

  /// SPARSE_MATRIX-descriptor semantics: the trio is declared immutable, so
  /// fetched entries are cached after the first sweep instead of re-fetched
  /// every time.  (A row-aligned layout fetches nothing either way.)
  void enable_caching() { nnz_.enable_caching(); }

  /// q = A * p.  Both vectors must be distributed like the rows.
  /// Default path (HPFCG_HALO on): the cached HaloPlan executor — exchange
  /// only the O(boundary) ghost entries this rank's columns touch, then
  /// sweep through the [owned | ghost] compact numbering.  Legacy path
  /// (HPFCG_HALO=0): one all-to-all broadcast of p (Scenario 1 as HPF-1
  /// lowers it).  Both paths accumulate each row's entries in identical k
  /// order, so their results are bit-identical.
  void matvec(const hpf::DistributedVector<T>& p,
              hpf::DistributedVector<T>& q) {
    check_vectors(p, q);
    if (use_halo()) {
      assemble();
      audit_structure();
      ensure_halo();
      const std::size_t nl = local_rows();
      x_halo_.resize(nl + halo_.n_ghosts());
      std::copy(p.local().begin(), p.local().end(), x_halo_.begin());
      halo_.exchange<T>(*proc_, p.local(),
                        std::span<T>(x_halo_).subspan(nl), halo_pack_);
      const std::size_t base = nnz_.plan().needed().begin;
      const auto val = nnz_.val();
      auto ql = q.local();
      std::size_t flops = 0;
      for (std::size_t lr = 0; lr < nl; ++lr) {
        T acc{};
        const std::size_t lo = row_ptr_[lr];
        const std::size_t hi = row_ptr_[lr + 1];
        for (std::size_t k = lo; k < hi; ++k) {
          acc += val[k - base] * x_halo_[col_local_[k - base]];
        }
        ql[lr] = acc;
        flops += 2 * (hi - lo);
      }
      proc_->add_flops(flops);
      return;
    }
    const std::vector<T> full_p = p.to_global();
    assemble();
    audit_structure();
    const std::size_t base = nnz_.plan().needed().begin;
    const auto col = nnz_.idx();
    const auto val = nnz_.val();
    auto ql = q.local();
    std::size_t flops = 0;
    for (std::size_t lr = 0; lr < local_rows(); ++lr) {
      T acc{};
      const std::size_t lo = row_ptr_[lr];
      const std::size_t hi = row_ptr_[lr + 1];
      for (std::size_t k = lo; k < hi; ++k) {
        acc += val[k - base] * full_p[col[k - base]];
      }
      ql[lr] = acc;
      flops += 2 * (hi - lo);
    }
    proc_->add_flops(flops);
  }

  /// q = A^T * p.  With row-wise storage the transpose product is a
  /// many-to-one accumulation (each local row scatters into q's columns) —
  /// the merge pattern of Scenario 2.  This is the operation that makes
  /// BiCG "negate" row-storage optimisations (Section 2.1).  The halo path
  /// accumulates into the compact [owned | ghost] scratch and ships only
  /// the ghost *partials* back to their owners (an owner-targeted
  /// scatter/accumulate); the legacy path pays the full n-length merge.
  void matvec_transpose(const hpf::DistributedVector<T>& p,
                        hpf::DistributedVector<T>& q) {
    check_vectors(p, q);
    assemble();
    audit_structure();
    const std::size_t base = nnz_.plan().needed().begin;
    const auto val = nnz_.val();
    auto ql = q.local();
    if (use_halo()) {
      ensure_halo();
      const std::size_t nl = local_rows();
      zero_scratch(transpose_scratch_, nl + halo_.n_ghosts());
      std::size_t flops = 0;
      for (std::size_t lr = 0; lr < nl; ++lr) {
        const T pi = p.local()[lr];
        const std::size_t lo = row_ptr_[lr];
        const std::size_t hi = row_ptr_[lr + 1];
        for (std::size_t k = lo; k < hi; ++k) {
          transpose_scratch_[col_local_[k - base]] += val[k - base] * pi;
        }
        flops += 2 * (hi - lo);
      }
      proc_->add_flops(flops);
      const std::span<T> scratch(transpose_scratch_.data(),
                                 nl + halo_.n_ghosts());
      halo_.accumulate<T>(*proc_, scratch.subspan(nl), scratch.first(nl),
                          halo_pack_);
      std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(
                                                       ql.size()),
                ql.begin());
      return;
    }
    zero_scratch(transpose_scratch_, n_);
    const auto col = nnz_.idx();
    std::size_t flops = 0;
    for (std::size_t lr = 0; lr < local_rows(); ++lr) {
      const T pi = p.local()[lr];
      const std::size_t lo = row_ptr_[lr];
      const std::size_t hi = row_ptr_[lr + 1];
      for (std::size_t k = lo; k < hi; ++k) {
        transpose_scratch_[col[k - base]] += val[k - base] * pi;
      }
      flops += 2 * (hi - lo);
    }
    proc_->add_flops(flops);
    proc_->allreduce_vec(transpose_scratch_);
    for (std::size_t l = 0; l < ql.size(); ++l) {
      ql[l] = transpose_scratch_[q.global_of(l)];
    }
  }

  /// In-place Gauss–Seidel half sweep over this rank's rows:
  ///   x_i = (b_i - sum_{j != i} a_ij x_j) / a_ii
  /// in ascending (`forward`) or descending global row order — the smoother
  /// kernel of the multigrid preconditioner.  Collective.  `exact` selects
  /// the pipelined executor: ghost columns owned by ranks the sweep already
  /// visited carry *updated* values, so the result is bit-identical to a
  /// serial sweep for any NP (the Scenario 2 sequential dependency, paid as
  /// pipeline wait).  Otherwise ghost values are frozen for the half sweep,
  /// so boundary couplings relax Jacobi-style and every rank sweeps
  /// concurrently — the hybrid smoother.  Requires a contiguous row
  /// distribution (rank order must be global row order) and a nonzero
  /// diagonal in every row.
  void gs_half_sweep(const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x, bool forward, bool exact) {
    HPFCG_REQUIRE(b.size() == n_ && x.size() == n_,
                  "gs_half_sweep: dimension mismatch");
    HPFCG_REQUIRE(
        hpf::is_aligned(b, row_dist_) && hpf::is_aligned(x, row_dist_),
        "gs_half_sweep: vectors must be aligned with the rows");
    HPFCG_REQUIRE(row_dist_->contiguous(),
                  "gs_half_sweep: contiguous row distribution required");
    assemble();
    audit_structure();
    ensure_gs_diag();
    const std::size_t nl = local_rows();
    const std::size_t base = nnz_.plan().needed().begin;
    const auto val = nnz_.val();
    auto xl = x.local();
    const auto bl = b.local();
    std::size_t flops = 0;

    if (use_halo()) {
      ensure_halo();
      x_halo_.resize(nl + halo_.n_ghosts());
      std::copy(xl.begin(), xl.end(), x_halo_.begin());
      const auto ghosts = std::span<T>(x_halo_).subspan(nl);
      const std::span<const T> owned(xl.data(), xl.size());
      if (exact) {
        halo_.sweep_pre<T>(*proc_, owned, ghosts, halo_pack_, forward);
      } else {
        halo_.exchange<T>(*proc_, owned, ghosts, halo_pack_);
      }
      const auto relax = [&](std::size_t lr) {
        const std::size_t lo = row_ptr_[lr];
        const std::size_t hi = row_ptr_[lr + 1];
        T acc = bl[lr];
        for (std::size_t k = lo; k < hi; ++k) {
          const std::size_t c = col_local_[k - base];
          if (c == lr) continue;
          acc -= val[k - base] * x_halo_[c];
        }
        const T xi = acc / gs_diag_[lr];
        x_halo_[lr] = xi;
        xl[lr] = xi;
        flops += 2 * (hi - lo) + 1;
      };
      if (forward) {
        for (std::size_t lr = 0; lr < nl; ++lr) relax(lr);
      } else {
        for (std::size_t lr = nl; lr-- > 0;) relax(lr);
      }
      if (exact) halo_.sweep_post<T>(*proc_, owned, halo_pack_, forward);
      proc_->add_flops(flops);
      return;
    }

    // Legacy gather path: materialize the full vector, then (exact mode)
    // chain the ranks in sweep order — each predecessor ships the vector
    // with all of its rows updated, so the sweep is still bit-identical to
    // the serial pass (at O(n) bytes per hop, matching this path's matvec).
    std::vector<T> full = x.to_global();
    constexpr int kChainTag = 0x2320;
    const int np = proc_->nprocs();
    const int me = proc_->rank();
    const int prev = forward ? me - 1 : me + 1;
    const int next = forward ? me + 1 : me - 1;
    if (exact && prev >= 0 && prev < np) {
      proc_->recv_into<T>(prev, kChainTag, std::span<T>(full));
    }
    const auto col = nnz_.idx();
    const auto relax = [&](std::size_t lr) {
      const std::size_t lo = row_ptr_[lr];
      const std::size_t hi = row_ptr_[lr + 1];
      const std::size_t g = row_lo_ + lr;
      T acc = bl[lr];
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t c = col[k - base];
        if (c == g) continue;
        acc -= val[k - base] * full[c];
      }
      const T xi = acc / gs_diag_[lr];
      full[g] = xi;
      xl[lr] = xi;
      flops += 2 * (hi - lo) + 1;
    };
    if (forward) {
      for (std::size_t lr = 0; lr < nl; ++lr) relax(lr);
    } else {
      for (std::size_t lr = nl; lr-- > 0;) relax(lr);
    }
    if (exact && next >= 0 && next < np) {
      proc_->send<T>(next, kChainTag, std::span<const T>(full));
    }
    proc_->add_flops(flops);
  }

  /// The cached ghost-exchange schedule (empty until the first halo sweep).
  [[nodiscard]] const HaloPlan& halo_plan() const { return halo_; }

  /// True when this matrix's sweeps run the halo executor.  The toggle is
  /// sampled once per matrix, at the first sweep, so a matrix never mixes
  /// half-built halo state with gather sweeps.
  [[nodiscard]] bool halo_active() {
    return use_halo();
  }

  /// Collective warm build of the halo plan (no-op when already built or
  /// when the executor is off).  The rebalance hook calls this right after
  /// a migration so the rebuild lands inside the rebalance step instead of
  /// silently extending the next matvec.
  void prepare_halo() {
    if (!use_halo()) return;
    assemble();
    ensure_halo();
  }

  /// Drop the cached plan and re-sample the toggle; the plan is rebuilt
  /// collectively at the next sweep.  Migration paths get this for free
  /// (they construct a fresh matrix); tests use it for A/B switching.
  void invalidate_halo() {
    halo_.invalidate();
    col_local_.clear();
    halo_mode_ = -1;
  }

  /// Times the transpose scratch grew (tests pin this to 1 across repeated
  /// sweeps — the buffer is hoisted, not reallocated per call).
  [[nodiscard]] std::uint64_t transpose_scratch_allocations() const {
    return scratch_allocations_;
  }

 private:
  /// Shell constructor for scatter_from_root: aligned plan, storage filled
  /// by the caller.
  DistCsr(msg::Process& proc, hpf::DistPtr row_dist,
          hpf::Distribution nnz_dist)
      : proc_(&proc),
        row_dist_(std::move(row_dist)),
        nnz_dist_(std::make_shared<const hpf::Distribution>(
            std::move(nnz_dist))),
        n_(row_dist_->size()),
        nnz_(NnzExchangePlan::aligned(
            proc.nprocs(),
            {nnz_dist_->local_range(proc.rank()).first,
             nnz_dist_->local_range(proc.rank()).second})) {
    row_lo_ = row_dist_->local_range(proc.rank()).first;
  }

  /// FNV-1a over the replicated ownership map (row cuts + nnz cuts) — the
  /// conformance record posted after a migration.
  static std::size_t ownership_fingerprint(
      const hpf::Distribution& row_dist,
      const std::vector<std::size_t>& nnz_cuts) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(row_dist.size());
    for (int r = 0; r < row_dist.nprocs(); ++r) {
      mix(row_dist.local_range(r).first);
    }
    for (const std::size_t c : nnz_cuts) mix(c);
    return static_cast<std::size_t>(h);
  }

  /// FNV-1a over the trio's content — cheap relative to a build, computed
  /// only when checking is active.
  static std::size_t structure_fingerprint(const Csr<T>& a) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(a.n_rows());
    for (const std::size_t r : a.row_ptr()) mix(r);
    for (const std::size_t c : a.col_idx()) mix(c);
    for (const T& v : a.values()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, std::min(sizeof(T), sizeof(bits)));
      mix(bits);
    }
    return static_cast<std::size_t>(h);
  }

  void check_vectors(const hpf::DistributedVector<T>& p,
                     const hpf::DistributedVector<T>& q) const {
    HPFCG_REQUIRE(p.size() == n_ && q.size() == n_,
                  "DistCsr::matvec: dimension mismatch");
    HPFCG_REQUIRE(
        hpf::is_aligned(p, row_dist_) && hpf::is_aligned(q, row_dist_),
        "DistCsr::matvec: vectors must be aligned with the rows");
  }

  /// Sample the halo toggle once per matrix (first sweep decides).
  [[nodiscard]] bool use_halo() {
    if (halo_mode_ < 0) halo_mode_ = halo::enabled() ? 1 : 0;
    return halo_mode_ == 1;
  }

  /// Collective lazy build: run the inspector over the assembled column
  /// window and remap it into the compact [owned | ghost] numbering (32-bit:
  /// the build rejects a rank whose owned + ghost count does not fit).  All
  /// ranks reach the first sweep together, so the collective is aligned.
  /// Requires assemble() to have run (its column values are immutable
  /// across re-fetches, so the remap stays valid even for uncached HPF-1
  /// layouts).
  void ensure_halo() {
    if (halo_.built()) return;
    const auto col = nnz_.idx();
    halo_.build(*proc_, col, *row_dist_);
    col_local_.resize(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      col_local_[i] =
          static_cast<halo::CompactIndex>(halo_.local_index(col[i]));
    }
  }

  /// Cache each owned row's diagonal for the Gauss–Seidel sweeps, naming
  /// the offending global row and rank when one is zero or missing — the
  /// same diagnostic contract as jacobi_preconditioner, so a singular
  /// smoother fails loudly instead of propagating NaN.  The values are
  /// immutable per matrix object (migration builds a fresh one), so the
  /// scan runs once.
  void ensure_gs_diag() {
    if (gs_diag_built_) return;
    const std::size_t base = nnz_.plan().needed().begin;
    const auto col = nnz_.idx();
    const auto val = nnz_.val();
    gs_diag_.assign(local_rows(), T{});
    for (std::size_t lr = 0; lr < local_rows(); ++lr) {
      const std::size_t g = row_lo_ + lr;
      T d{};
      for (std::size_t k = row_ptr_[lr]; k < row_ptr_[lr + 1]; ++k) {
        if (col[k - base] == g) {
          d = val[k - base];
          break;
        }
      }
      HPFCG_REQUIRE(d != T{},
                    "gs_half_sweep: zero or missing diagonal in global row " +
                        std::to_string(g) + " on rank " +
                        std::to_string(proc_->rank()));
      gs_diag_[lr] = d;
    }
    gs_diag_built_ = true;
  }

  /// Zero `buf` to exactly `m` elements, growing at most once over the
  /// matrix's lifetime (counted, so tests can pin the allocation count).
  void zero_scratch(std::vector<T>& buf, std::size_t m) {
    if (buf.capacity() < m) ++scratch_allocations_;
    buf.assign(m, T{});
  }

  /// Refresh the window (see NnzWindow::assemble); a refill re-arms the
  /// structure audit.
  void assemble() {
    if (nnz_.assemble(*proc_)) audited_ = false;
  }

  /// Checking only: validate the assembled trio before the sweep indexes
  /// through it.  A column index ≥ n means the sweep would read (or, in the
  /// transpose, accumulate into) memory outside every rank's shard — the
  /// out-of-shard hazard the descriptor's immutability contract is supposed
  /// to rule out.  Runs once per assembly.
  void audit_structure() {
    if (!(check::kCompiled && check::enabled()) || audited_) return;
    const std::size_t base = nnz_.plan().needed().begin;
    const auto col = nnz_.idx();
    for (std::size_t lr = 0; lr < local_rows(); ++lr) {
      HPFCG_REQUIRE(row_ptr_[lr] <= row_ptr_[lr + 1],
                    "DistCsr: row pointers not monotone on rank " +
                        std::to_string(proc_->rank()));
      for (std::size_t k = row_ptr_[lr]; k < row_ptr_[lr + 1]; ++k) {
        const std::size_t c = col[k - base];
        if (c >= n_) {
          throw util::Error(
              "hpfcg::check: out-of-shard index: rank " +
              std::to_string(proc_->rank()) + " holds column index " +
              std::to_string(c) + " >= n=" + std::to_string(n_) +
              " in global row " + std::to_string(row_lo_ + lr) +
              " — the sweep would touch memory outside every rank's shard");
        }
      }
    }
    audited_ = true;
  }

  msg::Process* proc_;
  hpf::DistPtr row_dist_;
  hpf::DistPtr nnz_dist_;
  std::size_t n_ = 0;
  std::size_t row_lo_ = 0;
  NnzWindow<T> nnz_;                  ///< owned (col, a) slice + sweep window
  std::vector<std::size_t> row_ptr_;  ///< my rows' pointers (global k values)
  bool audited_ = false;  ///< hpfcg::check: window validated since assembly
  std::vector<T> gs_diag_;      ///< owned diagonals for the GS sweeps
  bool gs_diag_built_ = false;  ///< diag scan (with zero check) done

  // Halo-executor state.  Plain values: the rebalance hook copy-assigns
  // matrices, and a copied plan stays valid while the ownership map does
  // (a real migration builds a fresh object, so the plan resets there).
  HaloPlan halo_;
  int halo_mode_ = -1;  ///< -1 undecided, 0 gather, 1 halo (set at 1st sweep)
  std::vector<halo::CompactIndex> col_local_;  ///< window cols, [owned | ghost]
  std::vector<T> x_halo_;               ///< [owned | ghost] sweep buffer
  std::vector<T> halo_pack_;            ///< executor pack/unpack scratch
  std::vector<T> transpose_scratch_;    ///< hoisted transpose accumulator
  std::uint64_t scratch_allocations_ = 0;
};

}  // namespace hpfcg::sparse
