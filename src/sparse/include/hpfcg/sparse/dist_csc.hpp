#pragma once
// Distributed CSC matrix — the paper's Scenario 2 (column-wise
// partitioning) for sparse storage, Sections 4-5.
//
// Columns are distributed by `col_dist` (aligned with p, so the
// element-wise multiply is local) and the nnz arrays (a, row) by
// `nnz_dist`.  The accumulation q(row(k)) += a(k)*pj is many-to-one: HPF-1
// cannot express the sweep in parallel (FORALL forbids accumulation,
// INDEPENDENT is violated by the write-after-write dependency), so the
// faithful lowering is the rank-serialized matvec_serial().  The paper's
// proposed PRIVATE ... WITH MERGE(+) extension privatizes q per processor
// and merges once — matvec_private() — turning the sweep parallel again.

#include <span>
#include <utility>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csc.hpp"
#include "hpfcg/sparse/nnz_exchange.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

template <class T>
class DistCsc {
 public:
  /// Collective build from a replicated matrix.
  DistCsc(msg::Process& proc, const Csc<T>& a, hpf::DistPtr col_dist,
          hpf::DistPtr nnz_dist)
      : proc_(&proc),
        col_dist_(std::move(col_dist)),
        nnz_dist_(std::move(nnz_dist)),
        n_(a.n_cols()),
        nnz_(NnzExchangePlan(proc, a.col_ptr(), *col_dist_, *nnz_dist_)) {
    HPFCG_REQUIRE(a.n_rows() == a.n_cols(),
                  "DistCsc: square matrices only (CG context)");
    HPFCG_REQUIRE(col_dist_->size() == n_, "DistCsc: col dist size mismatch");
    HPFCG_REQUIRE(nnz_dist_->size() == a.nnz(),
                  "DistCsc: nnz dist size mismatch");

    const auto [col_lo, col_hi] = col_dist_->local_range(proc.rank());
    col_ptr_.assign(a.col_ptr().begin() + static_cast<std::ptrdiff_t>(col_lo),
                    a.col_ptr().begin() + static_cast<std::ptrdiff_t>(col_hi) +
                        1);

    nnz_.set_owned_from(a.row_idx(), a.values());
  }

  /// Atom-aligned build (ATOM:BLOCK over columns): nnz cuts follow the
  /// column cuts, every column lives wholly with its owner.
  static DistCsc col_aligned(msg::Process& proc, const Csc<T>& a,
                             hpf::DistPtr col_dist) {
    auto nnz_dist = atom_aligned_nnz_dist(a.col_ptr(), *col_dist);
    return DistCsc(proc, a, std::move(col_dist), std::move(nnz_dist));
  }

  [[nodiscard]] msg::Process& proc() const { return *proc_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const hpf::Distribution& col_dist() const {
    return *col_dist_;
  }
  [[nodiscard]] const hpf::DistPtr& col_dist_ptr() const { return col_dist_; }
  [[nodiscard]] std::size_t local_cols() const { return col_ptr_.size() - 1; }
  [[nodiscard]] std::size_t local_nnz() const {
    return nnz_.owned_val().size();
  }
  [[nodiscard]] std::size_t remote_nnz() const {
    return nnz_.plan().remote_nnz();
  }

  void enable_caching() { nnz_.enable_caching(); }

  /// q = A * p with the paper's PRIVATE(q) WITH MERGE(+) semantics: every
  /// rank sweeps its own columns into a private full-length q, one SUM
  /// merge combines them, and each rank keeps its owned block.  Fully
  /// parallel; communication equals Scenario 1's broadcast volume.
  void matvec_private(const hpf::DistributedVector<T>& p,
                      hpf::DistributedVector<T>& q) {
    check_vectors(p, q);
    nnz_.assemble(*proc_);
    const std::size_t base = nnz_.plan().needed().begin;
    const auto row = nnz_.idx();
    const auto val = nnz_.val();
    std::vector<T> q_priv(n_, T{});
    std::size_t flops = 0;
    for (std::size_t lc = 0; lc < local_cols(); ++lc) {
      const T pj = p.local()[lc];
      const std::size_t lo = col_ptr_[lc];
      const std::size_t hi = col_ptr_[lc + 1];
      for (std::size_t k = lo; k < hi; ++k) {
        q_priv[row[k - base]] += val[k - base] * pj;
      }
      flops += 2 * (hi - lo);
    }
    proc_->add_flops(flops);
    proc_->allreduce_vec(q_priv);  // MERGE(+)
    auto ql = q.local();
    for (std::size_t l = 0; l < ql.size(); ++l) ql[l] = q_priv[q.global_of(l)];
  }

  /// q = A * p with faithful HPF-1 semantics: the many-to-one updates
  /// serialize the ranks (token chain); every cross-owner contribution is
  /// shipped to its owner, which applies it before the next rank runs.
  /// The cost model books the serialization as wait time.
  void matvec_serial(const hpf::DistributedVector<T>& p,
                     hpf::DistributedVector<T>& q) {
    check_vectors(p, q);
    nnz_.assemble(*proc_);
    const std::size_t base = nnz_.plan().needed().begin;
    const auto row = nnz_.idx();
    const auto val = nnz_.val();
    msg::Process& proc = *proc_;
    const int np = proc.nprocs();
    const int me = proc.rank();
    constexpr int kTag = 0x2101;

    for (auto& v : q.local()) v = T{};
    std::vector<T> partial(n_, T{});

    proc.sequential([&] {
      std::size_t flops = 0;
      for (std::size_t lc = 0; lc < local_cols(); ++lc) {
        const T pj = p.local()[lc];
        const std::size_t lo = col_ptr_[lc];
        const std::size_t hi = col_ptr_[lc + 1];
        for (std::size_t k = lo; k < hi; ++k) {
          partial[row[k - base]] += val[k - base] * pj;
        }
        flops += 2 * (hi - lo);
      }
      proc.add_flops(flops);
      for (int r = 0; r < np; ++r) {
        if (r == me) continue;
        std::vector<T> chunk(q.dist().local_count(r));
        for (std::size_t l = 0; l < chunk.size(); ++l) {
          chunk[l] = partial[q.dist().global_index(r, l)];
        }
        proc.send<T>(r, kTag, std::span<const T>(chunk.data(), chunk.size()));
      }
      auto ql = q.local();
      for (std::size_t l = 0; l < ql.size(); ++l) {
        ql[l] += partial[q.global_of(l)];
      }
      proc.add_flops(ql.size());
    });

    auto ql = q.local();
    for (int r = 0; r < np; ++r) {
      if (r == me) continue;
      std::vector<T> chunk(ql.size());
      proc.recv_into<T>(r, kTag, std::span<T>(chunk.data(), chunk.size()));
      for (std::size_t l = 0; l < ql.size(); ++l) ql[l] += chunk[l];
      proc.add_flops(ql.size());
    }
  }

 private:
  void check_vectors(const hpf::DistributedVector<T>& p,
                     const hpf::DistributedVector<T>& q) const {
    HPFCG_REQUIRE(p.size() == n_ && q.size() == n_,
                  "DistCsc::matvec: dimension mismatch");
    HPFCG_REQUIRE(
        hpf::is_aligned(p, col_dist_) && hpf::is_aligned(q, col_dist_),
        "DistCsc::matvec: vectors must be aligned with the columns");
  }

  msg::Process* proc_;
  hpf::DistPtr col_dist_;
  hpf::DistPtr nnz_dist_;
  std::size_t n_ = 0;
  NnzWindow<T> nnz_;                  ///< owned (row, a) slice + sweep window
  std::vector<std::size_t> col_ptr_;  ///< my columns' pointers (global k)
};

}  // namespace hpfcg::sparse
