#pragma once
// The SPARSE_MATRIX descriptor extension (Section 5.2.2).
//
//   !HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
//
// The descriptor tells the compiler (1) which storage scheme the trio uses
// and (2) that the three arrays form one logical object.  Consequences the
// paper derives, which this class implements:
//   * tight binding — "whenever any one's distribution is changed, the
//     other two should be aligned accordingly": redistribute_using()
//     repartitions rows, nnz arrays and the aligned vectors together;
//   * locality rule — accessing row i implies accessing its (col, a)
//     entries, so fetched remote entries may be cached rather than
//     re-communicated every sweep (caching enabled on the wrapped matrix);
//   * partitioner hook — REDISTRIBUTE smA USING <partitioner>.

#include <memory>
#include <utility>

#include "hpfcg/ext/balanced_partition.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/redistribute.hpp"

namespace hpfcg::ext {

/// CSR sparse-matrix descriptor: owns the distributed matrix and the
/// knowledge of how it is partitioned, and keeps the trio's distributions
/// consistent across redistributions.
template <class T>
class SparseMatrixCsr {
 public:
  /// Declare the descriptor over a (replicated) assembled matrix, initially
  /// partitioned by `initial` (default: uniform ATOM:BLOCK — the paper's
  /// "initially distributed using HPF's regular distribution primitives").
  SparseMatrixCsr(msg::Process& proc, sparse::Csr<T> matrix,
                  Partitioner initial = Partitioner::kUniformAtomBlock)
      : proc_(&proc), global_(std::move(matrix)) {
    apply(initial);
  }

  [[nodiscard]] msg::Process& proc() const { return *proc_; }
  [[nodiscard]] const sparse::Csr<T>& global() const { return global_; }
  [[nodiscard]] sparse::DistCsr<T>& dist() { return *dist_; }
  [[nodiscard]] const sparse::DistCsr<T>& dist() const { return *dist_; }
  [[nodiscard]] const hpf::DistPtr& row_dist() const {
    return part_.atom_dist;
  }
  [[nodiscard]] Partitioner active_partitioner() const { return active_; }

  /// !EXT$ REDISTRIBUTE smA USING <which> — move the trio onto the named
  /// partitioner's cut points by migrating whole rows between ranks
  /// (sparse::redistribute), not by re-slicing the replicated matrix: only
  /// rows whose owner changes travel, in one personalized all-to-all.
  /// Stats of the last migration are kept for cost reporting.
  void redistribute_using(Partitioner which) {
    part_ = partition(global_.row_ptr(), proc_->nprocs(), which);
    auto migrated = sparse::redistribute(*dist_, part_.atom_dist->cuts(),
                                         &last_migration_);
    dist_ = std::make_unique<sparse::DistCsr<T>>(std::move(migrated));
    part_.atom_dist = dist_->row_dist_ptr();
    part_.nnz_dist = dist_->nnz_dist_ptr();
    active_ = which;
  }

  /// Send-side stats of the last redistribute_using on this rank.
  [[nodiscard]] const sparse::RedistributeStats& last_migration() const {
    return last_migration_;
  }

  /// Redistribute an aligned vector to follow the descriptor's current row
  /// distribution (the "arranging all dependent vectors" the paper
  /// requires of the compiler).
  [[nodiscard]] hpf::DistributedVector<T> align_vector(
      const hpf::DistributedVector<T>& v) const {
    return hpf::redistribute(v, part_.atom_dist);
  }

  /// Fresh zero vector aligned with the rows.
  [[nodiscard]] hpf::DistributedVector<T> make_vector() const {
    return hpf::DistributedVector<T>(*proc_, part_.atom_dist);
  }

 private:
  void apply(Partitioner which) {
    part_ = partition(global_.row_ptr(), proc_->nprocs(), which);
    dist_ = std::make_unique<sparse::DistCsr<T>>(*proc_, global_,
                                                 part_.atom_dist,
                                                 part_.nnz_dist);
    // The descriptor makes the trio's immutability known to the "compiler",
    // so remote entries (none for atom partitions, some for exotic layouts)
    // are fetched once and cached.
    dist_->enable_caching();
    active_ = which;
  }

  msg::Process* proc_;
  sparse::Csr<T> global_;
  AtomPartition part_;
  std::unique_ptr<sparse::DistCsr<T>> dist_;
  Partitioner active_ = Partitioner::kUniformAtomBlock;
  sparse::RedistributeStats last_migration_{};
};

}  // namespace hpfcg::ext
