#pragma once
// Distributed solver family over the HPF layer — the lowered form of the
// paper's Figure 2 CG code and its Section 2.1 relatives.
//
// Every solver is matrix-format agnostic: it takes the matrix as a
// distributed linear operator (a callable computing q = A*p on aligned
// distributed vectors), so the same solver text runs over dense row-wise,
// dense column-wise, CSR and CSC matvec kernels — which is exactly the
// benchmark axis of the paper (which storage/partitioning feeds CG best).
// The solver text itself is krylov.hpp, shared with the serial solvers;
// this header holds the distributed policy and the entry points.
//
// Communication per iteration (reproducing the paper's Section 4 count):
//   CG:        1 matvec + 2 DOT_PRODUCT merges; SAXPYs are local.
//   BiCG:      2 matvecs (one with A^T) + 2 merges.
//   BiCGSTAB:  2 matvecs + 4 merges ("greater demand for an efficient
//              intrinsic", Section 2.1).
//
// The *_fused_* variants below are the communication-avoiding forms: the
// recurrences are regrouped (Chronopoulos–Gear for CG/PCG) so the inner
// products of an iteration land back to back and merge through ONE
// hpf::dot_products batch — each merge costs t_startup*log(N_P) regardless
// of how many scalars ride it, so fusing k dots recovers
// (k-1)*2*ceil(log2 N_P)*t_startup per iteration:
//   cg_fused_dist:        1 matvec + 1 merge   (batch {(r,r),(w,r)})
//   pcg_fused_dist:       1 matvec + 1 merge   (batch {(r,u),(w,u),(r,r)})
//   bicgstab_fused_dist:  2 matvecs + 3 merges (vs bicgstab_dist's 6).

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/solvers/krylov.hpp"
#include "hpfcg/solvers/options.hpp"
#include "hpfcg/trace/span.hpp"

namespace hpfcg::solvers {

/// Distributed linear operator: q = A * p (collective call).
template <class T>
using DistOp = std::function<void(const hpf::DistributedVector<T>&,
                                  hpf::DistributedVector<T>&)>;

/// Distributed preconditioner application: z = M^{-1} r (collective call).
template <class T>
using DistPrec = DistOp<T>;

/// Mid-solve rebalance hook (collective call).  Invoked every
/// SolveOptions::rebalance_every iterations; migrates whatever backs the
/// operator (matrix, preconditioner state) onto new cut points and returns
/// the new row distribution — or nullptr to decline (cuts unchanged).  The
/// decision must be replicated: every rank returns the same answer.
/// solvers/rebalance.hpp builds the canonical hook over a DistCsr.
using RebalanceHook = std::function<hpf::DistPtr()>;

namespace detail {

/// The distributed vector-space policy for the Krylov bodies (krylov.hpp):
/// DistributedVector workspaces aligned with b, the HPF intrinsics, a
/// kMatvec / kPrecond span around every operator application, a
/// kIteration span around every iteration, the per-iteration metrics
/// channel, and the optional rebalance hook.
template <class T>
class DistSpace {
 public:
  using Scalar = T;
  using Vec = hpf::DistributedVector<T>;
  using In = Vec;
  using Out = Vec;
  using Op = DistOp<T>;

  explicit DistSpace(const Vec& b, const RebalanceHook* hook = nullptr)
      : proc_(&b.proc()), trc_(b.proc().tracer_rank()), hook_(hook) {}

  static Vec like(const Vec& v) { return Vec::aligned_like(v); }
  static T dot(const Vec& x, const Vec& y) { return hpf::dot_product(x, y); }
  static std::array<T, 2> dots(const Vec& x1, const Vec& y1, const Vec& x2,
                               const Vec& y2) {
    return hpf::dot_products(x1, y1, x2, y2);
  }
  static std::array<T, 3> dots(const Vec& x1, const Vec& y1, const Vec& x2,
                               const Vec& y2, const Vec& x3, const Vec& y3) {
    return hpf::dot_products(x1, y1, x2, y2, x3, y3);
  }
  static void axpy(T a, const Vec& x, Vec& y) { hpf::axpy<T>(a, x, y); }
  static void aypx(T a, const Vec& x, Vec& y) { hpf::aypx<T>(a, x, y); }
  static void assign(const Vec& src, Vec& dst) { hpf::assign(src, dst); }
  static void scale(T a, Vec& x) { hpf::scale<T>(a, x); }

  void matvec(const Op& a, const Vec& in, Vec& out) const {
    apply(trace::SpanKind::kMatvec, a, in, out);
  }
  void precond(const Op& m, const Vec& in, Vec& out) const {
    apply(trace::SpanKind::kPrecond, m, in, out);
  }

  [[nodiscard]] trace::SpanScope iteration(std::size_t k) const {
    return {trc_, trace::SpanKind::kIteration, static_cast<std::uint32_t>(k)};
  }

  /// Publish a residual evaluation on the trace metrics channel.
  void record(std::size_t iterations, double rnorm) const {
    proc_->trace_iteration(iterations, rnorm);
  }

  /// At a rebalance point (iteration k about to end), invoke the hook and,
  /// when it migrated, move the live iteration vectors onto the new
  /// distribution.  Dead scratch vectors are the caller's problem (rebuilt
  /// empty on the new cuts).  True when the vectors moved.
  template <class... Live>
  bool rebalance(const SolveOptions& opts, std::size_t k,
                 Live&... live) const {
    if (opts.rebalance_every == 0 || hook_ == nullptr || !*hook_ ||
        (k + 1) % opts.rebalance_every != 0) {
      return false;
    }
    const hpf::DistPtr nd = (*hook_)();
    if (nd == nullptr) return false;
    ((live = hpf::redistribute(live, nd)), ...);
    return true;
  }

 private:
  void apply(trace::SpanKind kind, const Op& op, const Vec& in,
             Vec& out) const {
    trace::SpanScope span(trc_, kind, 0, in.local().size() * sizeof(T));
    op(in, out);
  }

  msg::Process* proc_;
  trace::RankTrace* trc_;
  const RebalanceHook* hook_;
};

}  // namespace detail

/// Distributed CG (Figure 2).  x holds the initial guess; all vectors must
/// be mutually aligned.
template <class T>
SolveResult cg_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                    hpf::DistributedVector<T>& x,
                    const SolveOptions& opts = {},
                    const RebalanceHook& rebalance = {}) {
  return krylov::cg(detail::DistSpace<T>(b, &rebalance), a, b, x, opts);
}

/// Communication-avoiding CG (Chronopoulos–Gear single-reduction form):
/// one matvec and ONE two-wide dot_products merge per iteration, against
/// cg_dist's two scalar merges.  alpha comes from the recurrence
/// alpha = gamma_new / (delta - beta*gamma_new/alpha) instead of (p, A p),
/// at the price of one extra matvec at start-up and one extra vector
/// s = A p maintained by saypx.  Iterates match the serial cg_fused()
/// (same body; only the merge's reduction order differs).
template <class T>
SolveResult cg_fused_dist(const DistOp<T>& a,
                          const hpf::DistributedVector<T>& b,
                          hpf::DistributedVector<T>& x,
                          const SolveOptions& opts = {},
                          const RebalanceHook& rebalance = {}) {
  return krylov::cg_fused(detail::DistSpace<T>(b, &rebalance), a, b, x,
                          opts);
}

/// Distributed preconditioned CG.
template <class T>
SolveResult pcg_dist(const DistOp<T>& a, const DistPrec<T>& m_inv,
                     const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {},
                     const RebalanceHook& rebalance = {}) {
  return krylov::pcg(detail::DistSpace<T>(b, &rebalance), a, m_inv, b, x,
                     opts);
}

/// Communication-avoiding preconditioned CG: ONE three-wide merge per
/// iteration — {(r,u), (w,u), (r,r)} with u = M^{-1} r, w = A u — against
/// pcg_dist's three scalar merges.  The (r,r) convergence norm rides the
/// batch for free.  Iterates match the serial pcg_fused().
template <class T>
SolveResult pcg_fused_dist(const DistOp<T>& a, const DistPrec<T>& m_inv,
                           const hpf::DistributedVector<T>& b,
                           hpf::DistributedVector<T>& x,
                           const SolveOptions& opts = {},
                           const RebalanceHook& rebalance = {}) {
  return krylov::pcg_fused(detail::DistSpace<T>(b, &rebalance), a, m_inv, b,
                           x, opts);
}

/// Distributed BiCG: needs both q = A p and qt = A^T pt.
template <class T>
SolveResult bicg_dist(const DistOp<T>& a, const DistOp<T>& a_transpose,
                      const hpf::DistributedVector<T>& b,
                      hpf::DistributedVector<T>& x,
                      const SolveOptions& opts = {}) {
  return krylov::bicg(detail::DistSpace<T>(b), a, a_transpose, b, x, opts);
}

/// Distributed BiCGSTAB — avoids A^T, pays four DOT_PRODUCT merges.
template <class T>
SolveResult bicgstab_dist(const DistOp<T>& a,
                          const hpf::DistributedVector<T>& b,
                          hpf::DistributedVector<T>& x,
                          const SolveOptions& opts = {}) {
  return krylov::bicgstab(detail::DistSpace<T>(b), a, b, x, opts);
}

/// Fused-reduction BiCGSTAB: three merge points per iteration against
/// bicgstab_dist's six (see krylov::bicgstab_fused).  Iterates match the
/// serial bicgstab_fused().
template <class T>
SolveResult bicgstab_fused_dist(const DistOp<T>& a,
                                const hpf::DistributedVector<T>& b,
                                hpf::DistributedVector<T>& x,
                                const SolveOptions& opts = {}) {
  return krylov::bicgstab_fused(detail::DistSpace<T>(b), a, b, x, opts);
}

/// Distributed CGS — Section 2.1's Conjugate Gradient Squared (see
/// krylov::cgs for its divergence reporting).
template <class T>
SolveResult cgs_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {}) {
  return krylov::cgs(detail::DistSpace<T>(b), a, b, x, opts);
}

/// Distributed Jacobi preconditioner: the inverse diagonal is distributed
/// aligned with the vectors, so each application is a local Hadamard
/// product — zero communication.
template <class T>
DistPrec<T> jacobi_dist(hpf::DistributedVector<T> inv_diag) {
  return [inv_diag = std::move(inv_diag)](const hpf::DistributedVector<T>& r,
                                          hpf::DistributedVector<T>& z) {
    hpf::hadamard(inv_diag, r, z);
  };
}

}  // namespace hpfcg::solvers
