#pragma once
// Serial entry points of the Section 2 solver family.
//
// Each method's recurrence is written once (krylov.hpp); these entry points
// run it on spans, and the distributed ones (dist_solvers.hpp) run the same
// body on distributed vectors.  They are the single-processor baselines of
// the benchmarks and the comparison side of the distributed tests; the
// independent oracle for both is the dense direct solve (dense_direct.hpp):
//   cg        — classic non-preconditioned Conjugate Gradient (the paper's
//               Section 2 pseudo-code);
//   pcg       — preconditioned CG (Jacobi or SSOR, preconditioner.hpp);
//   bicg      — Bi-Conjugate Gradient (two matvecs, one with A^T);
//   cgs       — Conjugate Gradient Squared (avoids A^T; can diverge);
//   bicgstab  — Stabilized BiCG (avoids A^T, four inner products).

#include <functional>
#include <span>

#include "hpfcg/solvers/options.hpp"
#include "hpfcg/sparse/csr.hpp"

namespace hpfcg::solvers {

/// y = A*x callback used by the matrix-free solver entry points.
using MatVec = std::function<void(std::span<const double>, std::span<double>)>;

/// z = M^{-1}*r preconditioner application.
using PrecApply =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Matrix-free CG: solves A x = b for SPD A given y=Ax.  x holds the
/// initial guess on entry and the solution on exit.
SolveResult cg(const MatVec& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts = {});

/// CG on an assembled CSR matrix.
SolveResult cg(const sparse::Csr<double>& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts = {});

/// Chronopoulos–Gear single-reduction CG: algebraically equivalent to cg()
/// but restructured so the two inner products of an iteration — (r,r) and
/// (w,r) with w = A r — are computed back to back and can be merged in ONE
/// collective in the distributed version (cg_fused_dist).  alpha is updated
/// by recurrence instead of from (p, A p); the price is one extra matvec at
/// start-up and one extra recurrence vector s = A p.  cg_fused_dist runs
/// the same body; only the merge's reduction order differs.
SolveResult cg_fused(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});
SolveResult cg_fused(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});

/// Preconditioned CG.
SolveResult pcg(const MatVec& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts = {});
SolveResult pcg(const sparse::Csr<double>& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts = {});

/// Chronopoulos–Gear preconditioned CG: one fused group of three inner
/// products — (r,u), (w,u), (r,r) with u = M^{-1} r, w = A u — per
/// iteration, against pcg()'s three separate merges (the body of
/// pcg_fused_dist too).
SolveResult pcg_fused(const MatVec& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts = {});
SolveResult pcg_fused(const sparse::Csr<double>& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts = {});

/// BiCG: needs A and A^T products.  For symmetric A it produces the same
/// iterates as CG (a test invariant).
SolveResult bicg(const MatVec& a, const MatVec& a_transpose,
                 std::span<const double> b, std::span<double> x,
                 const SolveOptions& opts = {});
SolveResult bicg(const sparse::Csr<double>& a, std::span<const double> b,
                 std::span<double> x, const SolveOptions& opts = {});

/// CGS.
SolveResult cgs(const MatVec& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts = {});
SolveResult cgs(const sparse::Csr<double>& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts = {});

/// BiCGSTAB.
SolveResult bicgstab(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});
SolveResult bicgstab(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});

/// Fused-reduction BiCGSTAB: the six inner products of an iteration are
/// regrouped into three merge points — (rt,v) alone, then {(t,s), (t,t),
/// (s,s)} after the second matvec, then {(r,r), (rt,r)} where the shadow
/// product for the NEXT iteration rides along with the convergence norm.
/// The s-norm early exit moves after the second matvec (one extra matvec
/// in the final iteration only); iterates are otherwise identical to
/// bicgstab() (the body of bicgstab_fused_dist too).
SolveResult bicgstab_fused(const MatVec& a, std::span<const double> b,
                           std::span<double> x, const SolveOptions& opts = {});
SolveResult bicgstab_fused(const sparse::Csr<double>& a,
                           std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts = {});

}  // namespace hpfcg::solvers
