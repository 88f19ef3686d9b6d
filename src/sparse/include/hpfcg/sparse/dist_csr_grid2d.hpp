#pragma once
// Sparse CSR matrix on a 2-D processor grid — the sparse counterpart of
// hpf::DenseGrid2DMatrix (ablation B1 extended to the paper's own setting).
//
// Rank (i, j) stores the tile rows(i) × cols(j) of A as a local CSR with
// columns rebased to the tile; the matvec gathers p only within grid
// columns (n/pc elements) and reduce-scatters partials within grid rows
// (n/pr) — O(n/sqrt(P)) communication per sweep where the paper's 1-D
// stripes move O(n).  For very sparse tiles the win shrinks (tiles hold
// ~nnz/P entries but the vector traffic still scales with n), which is
// exactly the regular-vs-irregular trade-off the bench quantifies.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/grid2d.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

template <class T>
class DistCsrGrid2D {
 public:
  /// Collective build from a replicated matrix: each rank keeps its tile.
  DistCsrGrid2D(msg::Process& proc, const Csr<T>& a, hpf::Grid2D grid)
      : proc_(&proc), grid_(grid), n_(a.n_rows()) {
    HPFCG_REQUIRE(a.n_rows() == a.n_cols(),
                  "DistCsrGrid2D: square matrices only");
    HPFCG_REQUIRE(grid.np() == proc.nprocs(),
                  "DistCsrGrid2D: grid must cover the machine");
    const auto row_blocks = hpf::Distribution::block(n_, grid.pr());
    const auto col_blocks = hpf::Distribution::block(n_, grid.pc());
    std::tie(rlo_, rhi_) = row_blocks.local_range(grid.row_of(proc.rank()));
    std::tie(clo_, chi_) = col_blocks.local_range(grid.col_of(proc.rank()));

    // Extract the tile: my rows restricted to my column range, columns
    // rebased to the tile.
    tile_ptr_.assign(rhi_ - rlo_ + 1, 0);
    for (std::size_t i = rlo_; i < rhi_; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] >= clo_ && cols[k] < chi_) {
          tile_col_.push_back(cols[k] - clo_);
          tile_val_.push_back(vals[k]);
        }
      }
      tile_ptr_[i - rlo_ + 1] = tile_col_.size();
    }
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const hpf::Grid2D& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_nnz() const { return tile_val_.size(); }

  /// Vector distributions (see DenseGrid2DMatrix for the layout logic).
  [[nodiscard]] hpf::DistPtr vector_dist() const {
    const auto col_blocks = hpf::Distribution::block(n_, grid_.pc());
    std::vector<int> owner(n_);
    for (int j = 0; j < grid_.pc(); ++j) {
      const auto [lo, hi] = col_blocks.local_range(j);
      const auto piece = hpf::Distribution::block(hi - lo, grid_.pr());
      for (std::size_t g = lo; g < hi; ++g) {
        owner[g] = grid_.rank_of(piece.owner(g - lo), j);
      }
    }
    return std::make_shared<const hpf::Distribution>(
        hpf::Distribution::indirect(grid_.np(), std::move(owner)));
  }

  [[nodiscard]] hpf::DistPtr result_dist() const {
    const auto row_blocks = hpf::Distribution::block(n_, grid_.pr());
    std::vector<int> owner(n_);
    for (int i = 0; i < grid_.pr(); ++i) {
      const auto [lo, hi] = row_blocks.local_range(i);
      const auto piece = hpf::Distribution::block(hi - lo, grid_.pc());
      for (std::size_t g = lo; g < hi; ++g) {
        owner[g] = grid_.rank_of(i, piece.owner(g - lo));
      }
    }
    return std::make_shared<const hpf::Distribution>(
        hpf::Distribution::indirect(grid_.np(), std::move(owner)));
  }

  /// q = A p: p in vector_dist(), q in result_dist().
  void matvec(const hpf::DistributedVector<T>& p,
              hpf::DistributedVector<T>& q) {
    HPFCG_REQUIRE(p.size() == n_ && q.size() == n_,
                  "grid2d sparse matvec: dimension mismatch");
    msg::Process& proc = *proc_;
    const int gr = grid_.row_of(proc.rank());
    const int gc = grid_.col_of(proc.rank());

    // (1) gather my column segment of p within the grid column.
    const bool halo = use_halo();
    if (halo) {
      // Inspector/executor variant of (1): one HaloPlan over p's
      // distribution exchanges only the segment entries this tile's
      // columns touch, and the sweep reads them through the remapped
      // columns — the same values the gather delivers, so results are
      // bit-identical.
      ensure_halo(p.dist());
      const std::size_t nl = halo_.n_owned();
      x_halo_.resize(nl + halo_.n_ghosts());
      std::copy(p.local().begin(), p.local().end(), x_halo_.begin());
      halo_.exchange<T>(proc, p.local(), std::span<T>(x_halo_).subspan(nl),
                        pack_);
    } else {
      const auto col_members = grid_.col_group(gc);
      std::vector<std::size_t> piece_counts(col_members.size());
      const auto piece = hpf::Distribution::block(chi_ - clo_, grid_.pr());
      for (int i = 0; i < grid_.pr(); ++i) {
        piece_counts[static_cast<std::size_t>(i)] = piece.local_count(i);
      }
      hpf::group_allgatherv<T>(proc, col_members, p.local(), x_seg_,
                               piece_counts, 0x3400);
    }
    const std::vector<T>& x = halo ? x_halo_ : x_seg_;
    const std::vector<std::size_t>& cols = halo ? tile_local_ : tile_col_;

    // (2) local sparse tile SpMV.
    const std::size_t tr = rhi_ - rlo_;
    std::vector<T> partial(tr, T{});
    std::size_t flops = 0;
    for (std::size_t i = 0; i < tr; ++i) {
      T acc{};
      for (std::size_t k = tile_ptr_[i]; k < tile_ptr_[i + 1]; ++k) {
        acc += tile_val_[k] * x[cols[k]];
      }
      partial[i] = acc;
      flops += 2 * (tile_ptr_[i + 1] - tile_ptr_[i]);
    }
    proc.add_flops(flops);

    // (3) reduce-scatter within the grid row.
    const auto row_members = grid_.row_group(gr);
    std::vector<std::size_t> out_counts(row_members.size());
    {
      const auto piece = hpf::Distribution::block(tr, grid_.pc());
      for (int j = 0; j < grid_.pc(); ++j) {
        out_counts[static_cast<std::size_t>(j)] = piece.local_count(j);
      }
    }
    HPFCG_REQUIRE(q.local().size() ==
                      out_counts[static_cast<std::size_t>(gc)],
                  "grid2d sparse matvec: q not distributed by result_dist()");
    hpf::group_reduce_scatter<T>(proc, row_members, partial, q.local(),
                                 out_counts, 0x3600);
  }

  /// Segment entries the inspector found touched but foreign (0 until the
  /// first halo sweep; used by tests and the bench table).
  [[nodiscard]] std::size_t ghost_entries() const { return halo_.n_ghosts(); }

 private:
  [[nodiscard]] bool use_halo() {
    if (halo_mode_ < 0) halo_mode_ = halo::enabled() ? 1 : 0;
    return halo_mode_ == 1;
  }

  /// Collective lazy inspector, run at the first halo sweep: build the plan
  /// over the tile's global columns and remap them into the compact
  /// [owned | ghost] numbering.
  void ensure_halo(const hpf::Distribution& p_dist) {
    if (halo_.built()) return;
    std::vector<std::size_t> gcols(tile_col_.size());
    for (std::size_t k = 0; k < gcols.size(); ++k) {
      gcols[k] = clo_ + tile_col_[k];
    }
    halo_.build(*proc_, gcols, p_dist);
    tile_local_.resize(gcols.size());
    for (std::size_t k = 0; k < gcols.size(); ++k) {
      tile_local_[k] = halo_.local_index(gcols[k]);
    }
  }

  msg::Process* proc_;
  hpf::Grid2D grid_;
  std::size_t n_;
  std::size_t rlo_ = 0, rhi_ = 0, clo_ = 0, chi_ = 0;
  std::vector<std::size_t> tile_ptr_;    ///< local CSR over tile rows
  std::vector<std::size_t> tile_col_;    ///< rebased to [0, chi-clo)
  std::vector<std::size_t> tile_local_;  ///< tile_col_ in [owned | ghost]
  std::vector<T> tile_val_;

  int halo_mode_ = -1;    ///< -1 undecided, 0 gather, 1 halo
  HaloPlan halo_;         ///< built lazily at the first halo sweep
  std::vector<T> x_halo_;  ///< [owned | ghost] sweep buffer
  std::vector<T> x_seg_;   ///< gathered column segment (gather path)
  std::vector<T> pack_;    ///< executor scratch
};

}  // namespace hpfcg::sparse
