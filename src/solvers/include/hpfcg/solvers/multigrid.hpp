#pragma once
// Geometric multigrid V-cycle preconditioner — the HPCG-class workload.
//
// The hierarchy is the HPCG one: the 27-point stencil on an nx×ny×nz grid,
// coarsened by halving every extent while they stay even, with injection
// restriction (each coarse point copies its co-located fine point) and its
// transpose scatter as prolongation (P = Rᵀ, which keeps the preconditioner
// symmetric), and a symmetric Gauss–Seidel smoother on every level.  Coarse
// operators are regenerated geometrically — the 27-point stencil on the
// halved grid — so setup needs no Galerkin triple product.
//
// Smoother parallelization (the choice ROADMAP item 2 asks for):
//   * kHybridSymGs — every rank sweeps its rows concurrently with ghost
//     values frozen for the half sweep, so cross-rank couplings relax
//     Jacobi-style.  Rank-parallel (no serialization on halo dependencies)
//     but the iterates depend on the partition.
//   * kExactSymGs — the pipelined true Gauss–Seidel: ranks relax in global
//     row order, each receiving updated boundary values from the ranks the
//     sweep already visited (the paper's Scenario 2 sequential dependency).
//     Bit-identical to a serial sweep for any NP and any contiguous
//     partition — the smoother behind the NP-invariance guarantees of
//     bench_hpcg under HPFCG_REPRO.
//   * kAuto (default) — exact when the reproducible mode is active at
//     setup, hybrid otherwise.
// Both variants are symmetric operators (the hybrid because the local
// lower/upper triangles are transposes of each other when A is symmetric),
// so PCG theory applies either way; the preconditioner-symmetry property
// tests probe r1·(M r2) == r2·(M r1) for both.
//
// Setup builds and caches everything the solve reuses — coarse operators,
// halo plans, smoother diagonals, grid-transfer schedules, level scratch
// vectors — and the whole object survives a mid-solve rebalance: wire
// migrate_fine() into make_csr_rebalancer's on_migrate callback and only
// the fine-level boundary state (transfer plan, scratch) is rebuilt, while
// the coarse hierarchy migrates untouched.

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/halo.hpp"

namespace hpfcg::solvers {

/// Which symmetric Gauss–Seidel variant smooths each level.
enum class MgSmoother {
  kAuto,         ///< exact when HPFCG_REPRO is active at setup, else hybrid
  kExactSymGs,   ///< pipelined true symGS — NP-invariant bit for bit
  kHybridSymGs,  ///< rank-parallel symGS, boundary couplings Jacobi-frozen
};

struct MgOptions {
  std::size_t max_levels = 4;        ///< hierarchy depth cap (incl. finest)
  std::size_t min_coarse_rows = 32;  ///< stop coarsening below this
  std::size_t pre_sweeps = 1;        ///< symGS applies before restriction
  std::size_t post_sweeps = 1;       ///< symGS applies after prolongation
  std::size_t coarse_sweeps = 4;     ///< symGS applies at the bottom level
  MgSmoother smoother = MgSmoother::kAuto;
};

/// Transfer schedule between one grid level and its coarsening, replayed
/// through one sparse::HaloPlan over the fine distribution.  Restriction is
/// injection — coarse point (xc,yc,zc) copies fine point (2xc,2yc,2zc) —
/// and prolongation is its transpose scatter-add, so each fine point
/// receives at most one coarse contribution and the apply is bitwise
/// partition-invariant.  The plan's footprint is the fine point co-located
/// with each coarse row this rank owns: co-owned points copy locally, and
/// by injectivity each ghost slot serves exactly one remote coarse row.
class GridTransfer {
 public:
  /// Collective: every rank calls together (one HaloPlan build).
  void build(msg::Process& proc, std::array<std::size_t, 3> fine_dims,
             const hpf::Distribution& fine_dist,
             std::array<std::size_t, 3> coarse_dims,
             const hpf::Distribution& coarse_dist);

  /// coarse = R fine (collective): exchange, then scatter the ghosts into
  /// their coarse rows, then the co-owned copies.
  void restrict_to(msg::Process& proc, std::span<const double> fine,
                   std::span<double> coarse) const;

  /// fine += Rᵀ coarse (collective): pack the remote rows' values into the
  /// ghost slots, accumulate them at their owners, then the co-owned adds.
  void prolong_add(msg::Process& proc, std::span<const double> coarse,
                   std::span<double> fine) const;

  [[nodiscard]] bool built() const { return plan_.built(); }

 private:
  sparse::HaloPlan plan_;
  std::vector<std::size_t> ghost_coarse_;  ///< coarse local row per ghost
  std::vector<std::size_t> self_coarse_;   ///< co-owned: coarse local index
  std::vector<std::size_t> self_fine_;     ///< co-owned: fine local index
  mutable std::vector<double> ghosts_;     ///< ghost-slot values
  mutable std::vector<double> pack_;       ///< executor scratch
};

/// V-cycle geometric multigrid over a 27-point stencil DistCsr, pluggable
/// into pcg_dist / pcg_fused_dist via prec().  Holds a non-owning pointer
/// to the fine matrix — the same object make_csr_rebalancer reassigns in
/// place, so after a migration only migrate_fine() is needed.
class MgPreconditioner {
 public:
  /// Collective setup: builds the level hierarchy (row-aligned coarse
  /// operators with warm halo plans, smoother diagonals, transfer
  /// schedules, scratch).  `fine_dims` are the grid extents with
  /// fine.n() == nx*ny*nz; the fine distribution must be contiguous.
  MgPreconditioner(msg::Process& proc, sparse::DistCsr<double>& fine,
                   std::array<std::size_t, 3> fine_dims,
                   const MgOptions& opts = {});

  /// z = M⁻¹ r: one V(pre,post) cycle from a zero initial guess
  /// (collective).  Emits one kMgLevel span per level visit and counts
  /// Stats::mg_vcycles / mg_level_sweeps.
  void apply(const hpf::DistributedVector<double>& r,
             hpf::DistributedVector<double>& z);

  /// The std::function form the distributed PCG solvers take.
  [[nodiscard]] DistPrec<double> prec();

  /// Collective: re-wire the fine level after the rebalance hook migrated
  /// the matrix onto `new_dist` (fresh halo plan and diagonals come with
  /// the migrated matrix object; this rebuilds the fine transfer schedule
  /// and scratch).  The coarse hierarchy is reused as cached.
  void migrate_fine(const hpf::DistPtr& new_dist);

  [[nodiscard]] std::size_t n_levels() const { return levels_.size(); }
  [[nodiscard]] std::array<std::size_t, 3> level_dims(std::size_t l) const {
    return levels_[l].dims;
  }
  [[nodiscard]] const sparse::DistCsr<double>& level_op(std::size_t l) const {
    return *levels_[l].op;
  }
  /// True when the pipelined exact symGS smooths (NP-invariant mode).
  [[nodiscard]] bool exact_smoother() const { return exact_; }

 private:
  struct Level {
    std::array<std::size_t, 3> dims{};
    hpf::DistPtr dist;
    std::unique_ptr<sparse::DistCsr<double>> owned_op;  ///< null on level 0
    sparse::DistCsr<double>* op = nullptr;
    std::unique_ptr<hpf::DistributedVector<double>> r, z, scratch;
    GridTransfer to_coarse;  ///< towards level l+1 (unused on the last)
  };

  void vcycle(std::size_t l, const hpf::DistributedVector<double>& r,
              hpf::DistributedVector<double>& z);
  void symgs(std::size_t l, const hpf::DistributedVector<double>& rhs,
             hpf::DistributedVector<double>& z, std::size_t sweeps);

  msg::Process* proc_;
  sparse::DistCsr<double>* fine_;
  MgOptions opts_;
  bool exact_ = false;
  std::vector<Level> levels_;
};

}  // namespace hpfcg::solvers
