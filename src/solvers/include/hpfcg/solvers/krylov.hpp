#pragma once
// The Section 2.1 Krylov family, each recurrence written exactly once.
//
// Figure 2's CG is one program text: the same DOT_PRODUCT / SAXPY / matvec
// code runs serial or distributed, and the DISTRIBUTE directives decide
// which.  These bodies keep that shape.  Each one is a template over a
// vector-space policy VS that supplies the types and the vector operations:
//
//   Scalar, Vec (workspace), In (right-hand side), Out (solution), Op
//   like(v)                      new workspace vector laid out like v
//   dot(x, y)                    one inner product (one merge)
//   dots(x1,y1,x2,y2[,x3,y3])    two or three inner products, ONE merge
//   axpy(a, x, y)   y += a x     aypx(a, x, y)   y = a y + x
//   assign(src, dst)             scale(a, x)     x *= a
//   matvec(op, in, out)          precond(op, in, out)
//   iteration(k)                 scope object covering iteration k
//   record(k, rnorm)             per-iteration residual observer
//   rebalance(opts, k, live...)  true when the live vectors migrated
//
// Two policies exist: the serial one (std::vector workspaces, span kernels;
// no spans, no observer, no hook) and the distributed one in
// dist_solvers.hpp (DistributedVector + HPF intrinsics, trace spans, the
// metrics channel and the rebalance hook).  A body never asks which policy
// it runs on.  The operation order below is the distributed solvers'
// order — the merge widths and rebalance points are part of the algorithm
// — and the serial policy evaluates the same sequence on one processor.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "hpfcg/solvers/options.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::solvers::krylov {

/// A 2-norm from its square (an inner product the policy merged).
template <class S>
double root(S squared) {
  return std::sqrt(static_cast<double>(squared));
}

/// ||v||_2: one inner product, one merge.
template <class VS, class V>
double norm(VS& vs, const V& v) {
  return root(vs.dot(v, v));
}

/// r = b - A x, with `ax` receiving A x.
template <class VS>
void residual(VS& vs, const typename VS::Op& a, const typename VS::In& b,
              const typename VS::Out& x, typename VS::Vec& ax,
              typename VS::Vec& r) {
  vs.matvec(a, x, ax);
  vs.assign(b, r);
  vs.axpy(typename VS::Scalar{-1}, ax, r);
}

/// Residual bookkeeping and the stopping test every body shares.
template <class VS>
struct Monitor {
  VS& vs;
  const SolveOptions& opts;
  SolveResult& res;
  double bnorm;
  /// Converged when ||r||_2 <= stop (absolute tolerance when b = 0).
  double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  /// ||r||_2 / ||b||_2 as reported at exit.
  void exit_residual(double rnorm) {
    res.relative_residual = bnorm > 0.0 ? rnorm / bnorm : rnorm;
  }

  /// ||r||_2 after `iterations` steps: exit residual, history (when
  /// tracked) and the policy's observer.
  void note(std::size_t iterations, double rnorm) {
    res.iterations = iterations;
    exit_residual(rnorm);
    if (opts.track_residuals) res.residual_history.push_back(rnorm);
    vs.record(iterations, rnorm);
  }

  /// Flags a breakdown: a zero the recurrence would divide by, or (CGS)
  /// a non-finite residual.
  bool breakdown(bool broke) {
    if (broke) res.breakdown = true;
    return broke;
  }

  /// note(), then the stopping test.
  bool converged(std::size_t iterations, double rnorm) {
    note(iterations, rnorm);
    res.converged = rnorm <= stop;
    return res.converged;
  }
};

/// CG (Figure 2): 1 matvec + 2 DOT_PRODUCT merges per iteration.
template <class VS>
SolveResult cg(VS vs, const typename VS::Op& a, const typename VS::In& b,
               typename VS::Out& x, const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto p = vs.like(b);
  auto q = vs.like(b);

  residual(vs, a, b, x, q, r);
  vs.assign(r, p);
  S rho = vs.dot(r, r);
  if (mon.converged(0, root(rho))) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    vs.matvec(a, p, q);
    const S pq = vs.dot(p, q);
    if (mon.breakdown(pq == S{})) break;
    const S alpha = rho / pq;
    vs.axpy(alpha, p, x);   // x = x + alpha p   (saxpy)
    vs.axpy(-alpha, q, r);  // r = r - alpha q   (saxpy)
    // One merge serves both convergence and beta: rho_new = (r,r) is the
    // residual norm squared AND next iteration's numerator, so Figure 2's
    // literal third DOT_PRODUCT per iteration never happens here.
    const S rho_new = vs.dot(r, r);
    if (mon.converged(k + 1, root(rho_new))) return res;
    const S beta = rho_new / rho;
    vs.aypx(beta, r, p);  // p = beta p + r   (saypx, Figure 2)
    rho = rho_new;
    // Live vectors at this point: x, r, p.  q is pure scratch — rebuilt
    // empty on the new cuts rather than migrated.
    if (vs.rebalance(opts, k, x, r, p)) q = vs.like(x);
  }
  return res;
}

/// Chronopoulos–Gear single-reduction CG: 1 matvec + ONE two-wide merge
/// {(r,r), (w,r)} per iteration, at the price of one extra start-up matvec
/// and the recurrence vector s = A p.
template <class VS>
SolveResult cg_fused(VS vs, const typename VS::Op& a,
                     const typename VS::In& b, typename VS::Out& x,
                     const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto w = vs.like(b);
  auto p = vs.like(b);
  auto s = vs.like(b);

  residual(vs, a, b, x, w, r);
  vs.matvec(a, r, w);  // the extra start-up matvec: w = A r
  auto [gamma, delta] = vs.dots(r, r, w, r);  // one merge
  if (mon.converged(0, root(gamma))) return res;
  if (mon.breakdown(delta == S{})) return res;
  S alpha = gamma / delta;
  vs.assign(r, p);
  vs.assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    vs.axpy(alpha, p, x);   // x = x + alpha p
    vs.axpy(-alpha, s, r);  // r = r - alpha s   (s = A p by recurrence)
    vs.matvec(a, r, w);     // the iteration's only matvec
    // The iteration's only reduction: {(r,r), (w,r)} in one tree walk.
    const auto [gamma_new, delta_new] = vs.dots(r, r, w, r);
    if (mon.converged(k + 1, root(gamma_new))) return res;
    const S beta = gamma_new / gamma;
    const S denom = delta_new - beta * gamma_new / alpha;
    if (mon.breakdown(denom == S{})) break;
    alpha = gamma_new / denom;
    vs.aypx(beta, r, p);  // p = r + beta p
    vs.aypx(beta, w, s);  // s = w + beta s  (= A p, no extra matvec)
    gamma = gamma_new;
    // Live vectors: x, r, p, and the recurrence vector s = A p (which MUST
    // migrate — recomputing it would cost a matvec).  w is scratch.
    if (vs.rebalance(opts, k, x, r, p, s)) w = vs.like(x);
  }
  return res;
}

/// Preconditioned CG: 1 matvec, 1 preconditioner application and 3 merges
/// per iteration.
template <class VS>
SolveResult pcg(VS vs, const typename VS::Op& a,
                const typename VS::Op& m_inv, const typename VS::In& b,
                typename VS::Out& x, const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto z = vs.like(b);
  auto p = vs.like(b);
  auto q = vs.like(b);

  residual(vs, a, b, x, q, r);
  if (mon.converged(0, norm(vs, r))) return res;
  vs.precond(m_inv, r, z);
  vs.assign(z, p);
  S rho = vs.dot(r, z);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    vs.matvec(a, p, q);
    const S pq = vs.dot(p, q);
    if (mon.breakdown(pq == S{} || rho == S{})) break;
    const S alpha = rho / pq;
    vs.axpy(alpha, p, x);
    vs.axpy(-alpha, q, r);
    if (mon.converged(k + 1, norm(vs, r))) return res;
    vs.precond(m_inv, r, z);
    const S rho_new = vs.dot(r, z);
    const S beta = rho_new / rho;
    vs.aypx(beta, z, p);  // p = beta p + z
    rho = rho_new;
    // Live vectors: x, r, p.  z is recomputed from r next iteration and q
    // is scratch; both rebuilt on the new cuts.  The preconditioner must
    // follow the migration itself (e.g. via make_csr_rebalancer's
    // on_migrate callback) — jacobi_dist's captured diagonal does not.
    if (vs.rebalance(opts, k, x, r, p)) {
      z = vs.like(x);
      q = vs.like(x);
    }
  }
  return res;
}

/// Chronopoulos–Gear preconditioned CG: ONE three-wide merge
/// {(r,u), (w,u), (r,r)} per iteration with u = M^{-1} r, w = A u; the
/// convergence norm rides the batch for free.
template <class VS>
SolveResult pcg_fused(VS vs, const typename VS::Op& a,
                      const typename VS::Op& m_inv, const typename VS::In& b,
                      typename VS::Out& x, const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto u = vs.like(b);
  auto w = vs.like(b);
  auto p = vs.like(b);
  auto s = vs.like(b);

  residual(vs, a, b, x, w, r);
  vs.precond(m_inv, r, u);
  vs.matvec(a, u, w);
  auto [gamma, delta, rr] = vs.dots(r, u, w, u, r, r);  // one 3-wide merge
  if (mon.converged(0, root(rr))) return res;
  if (mon.breakdown(delta == S{})) return res;
  S alpha = gamma / delta;
  vs.assign(u, p);
  vs.assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    vs.axpy(alpha, p, x);
    vs.axpy(-alpha, s, r);  // s = A p by recurrence
    vs.precond(m_inv, r, u);
    vs.matvec(a, u, w);
    // The iteration's only reduction: beta/alpha numerators + convergence.
    const auto [gamma_new, delta_new, rr_new] = vs.dots(r, u, w, u, r, r);
    if (mon.converged(k + 1, root(rr_new))) return res;
    if (mon.breakdown(gamma == S{})) break;
    const S beta = gamma_new / gamma;
    const S denom = delta_new - beta * gamma_new / alpha;
    if (mon.breakdown(denom == S{})) break;
    alpha = gamma_new / denom;
    vs.aypx(beta, u, p);  // p = u + beta p
    vs.aypx(beta, w, s);  // s = w + beta s
    gamma = gamma_new;
    // Live vectors: x, r, p, and the recurrence vector s = A p.  u and w
    // are recomputed from r next iteration — rebuilt on the new cuts.  The
    // preconditioner must follow the migration itself (e.g. via
    // make_csr_rebalancer's on_migrate callback).
    if (vs.rebalance(opts, k, x, r, p, s)) {
      u = vs.like(x);
      w = vs.like(x);
    }
  }
  return res;
}

/// BiCG: 2 matvecs (one with A^T) + 2 merges per iteration.
template <class VS>
SolveResult bicg(VS vs, const typename VS::Op& a,
                 const typename VS::Op& a_transpose, const typename VS::In& b,
                 typename VS::Out& x, const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto rt = vs.like(b);
  auto p = vs.like(b);
  auto pt = vs.like(b);
  auto q = vs.like(b);
  auto qt = vs.like(b);

  residual(vs, a, b, x, q, r);
  vs.assign(r, rt);  // shadow residual: rt = r
  vs.assign(r, p);
  vs.assign(rt, pt);
  S rho = vs.dot(rt, r);
  if (mon.converged(0, norm(vs, r))) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    if (mon.breakdown(rho == S{})) break;
    vs.matvec(a, p, q);
    vs.matvec(a_transpose, pt, qt);  // the A^T product that negates
                                     // row-storage tuning
    const S ptq = vs.dot(pt, q);
    if (mon.breakdown(ptq == S{})) break;
    const S alpha = rho / ptq;
    vs.axpy(alpha, p, x);
    vs.axpy(-alpha, q, r);
    vs.axpy(-alpha, qt, rt);
    if (mon.converged(k + 1, norm(vs, r))) return res;
    const S rho_new = vs.dot(rt, r);
    const S beta = rho_new / rho;
    vs.aypx(beta, r, p);    // p  = r  + beta p
    vs.aypx(beta, rt, pt);  // pt = rt + beta pt
    rho = rho_new;
  }
  return res;
}

/// CGS — Section 2.1's Conjugate Gradient Squared: avoids A^T but "can
/// have some undesirable numerical properties such as actual divergence or
/// irregular rates of convergence" (reported via breakdown / non-monotone
/// residual_history).
template <class VS>
SolveResult cgs(VS vs, const typename VS::Op& a, const typename VS::In& b,
                typename VS::Out& x, const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto rt = vs.like(b);
  auto p = vs.like(b);
  auto q = vs.like(b);
  auto u = vs.like(b);
  auto vhat = vs.like(b);
  auto uq = vs.like(b);
  auto t = vs.like(b);

  residual(vs, a, b, x, t, r);
  vs.assign(r, rt);
  if (mon.converged(0, norm(vs, r))) return res;

  S rho_old{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    const S rho = vs.dot(rt, r);
    if (mon.breakdown(rho == S{})) break;
    if (k == 0) {
      vs.assign(r, u);
      vs.assign(u, p);
    } else {
      const S beta = rho / rho_old;
      // u = r + beta*q
      vs.assign(q, u);
      vs.scale(beta, u);
      vs.axpy(S{1}, r, u);
      // p = u + beta*(q + beta*p)
      vs.scale(beta, p);
      vs.axpy(S{1}, q, p);
      vs.scale(beta, p);
      vs.axpy(S{1}, u, p);
    }
    vs.matvec(a, p, vhat);
    const S sigma = vs.dot(rt, vhat);
    if (mon.breakdown(sigma == S{})) break;
    const S alpha = rho / sigma;
    // q = u - alpha*vhat;  uq = u + q
    vs.assign(u, q);
    vs.axpy(-alpha, vhat, q);
    vs.assign(u, uq);
    vs.axpy(S{1}, q, uq);
    vs.axpy(alpha, uq, x);
    vs.matvec(a, uq, t);
    vs.axpy(-alpha, t, r);
    const double rnorm = norm(vs, r);
    if (mon.converged(k + 1, rnorm)) return res;
    // CGS's "actual divergence" (Section 2.1).
    if (mon.breakdown(!std::isfinite(rnorm))) break;
    rho_old = rho;
  }
  return res;
}

/// BiCGSTAB — avoids A^T, pays 2 matvecs and up to six scalar merges per
/// iteration ("greater demand for an efficient intrinsic", Section 2.1).
template <class VS>
SolveResult bicgstab(VS vs, const typename VS::Op& a,
                     const typename VS::In& b, typename VS::Out& x,
                     const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto rt = vs.like(b);
  auto p = vs.like(b);
  auto v = vs.like(b);
  auto s = vs.like(b);
  auto t = vs.like(b);

  residual(vs, a, b, x, t, r);
  vs.assign(r, rt);
  if (mon.converged(0, norm(vs, r))) return res;

  S rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    const S rho = vs.dot(rt, r);  // inner product 1
    if (mon.breakdown(rho == S{} || omega == S{})) break;
    if (k == 0) {
      vs.assign(r, p);
    } else {
      const S beta = (rho / rho_old) * (alpha / omega);
      // p = r + beta (p - omega v), expressed with aligned local ops.
      vs.axpy(-omega, v, p);
      vs.aypx(beta, r, p);
    }
    vs.matvec(a, p, v);
    const S rtv = vs.dot(rt, v);  // inner product 2
    if (mon.breakdown(rtv == S{})) break;
    alpha = rho / rtv;
    vs.assign(r, s);
    vs.axpy(-alpha, v, s);
    const double snorm = norm(vs, s);
    if (snorm <= mon.stop) {
      vs.axpy(alpha, p, x);
      mon.converged(k + 1, snorm);
      return res;
    }
    vs.matvec(a, s, t);
    const S ts = vs.dot(t, s);  // inner product 3
    const S tt = vs.dot(t, t);  // inner product 4
    if (mon.breakdown(tt == S{})) break;
    omega = ts / tt;
    vs.axpy(alpha, p, x);
    vs.axpy(omega, s, x);
    vs.assign(s, r);
    vs.axpy(-omega, t, r);
    if (mon.converged(k + 1, norm(vs, r))) return res;
    rho_old = rho;
  }
  return res;
}

/// Fused-reduction BiCGSTAB: three merge points per iteration against
/// bicgstab's six — (rt,v) alone after the first matvec, then the batch
/// {(t,s), (t,t), (s,s)} after the second, then {(r,r), (rt,r)} where next
/// iteration's shadow product rides with the convergence norm.  The s-norm
/// early exit moves after the second matvec (costing one extra matvec in
/// the final iteration only); iterates otherwise match bicgstab.
template <class VS>
SolveResult bicgstab_fused(VS vs, const typename VS::Op& a,
                           const typename VS::In& b, typename VS::Out& x,
                           const SolveOptions& opts) {
  using S = typename VS::Scalar;
  SolveResult res;
  Monitor<VS> mon{vs, opts, res, norm(vs, b)};
  auto r = vs.like(b);
  auto rt = vs.like(b);
  auto p = vs.like(b);
  auto v = vs.like(b);
  auto s = vs.like(b);
  auto t = vs.like(b);

  residual(vs, a, b, x, t, r);
  vs.assign(r, rt);
  // Merge point 0: convergence norm + first shadow product, one batch
  // (rt = r here, but the merge is fused regardless).
  auto [rr0, rho] = vs.dots(r, r, rt, r);
  if (mon.converged(0, root(rr0))) return res;

  S rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    [[maybe_unused]] const auto scope = vs.iteration(k);
    if (mon.breakdown(rho == S{} || omega == S{})) break;
    if (k == 0) {
      vs.assign(r, p);
    } else {
      const S beta = (rho / rho_old) * (alpha / omega);
      vs.axpy(-omega, v, p);
      vs.aypx(beta, r, p);  // p = r + beta (p - omega v)
    }
    vs.matvec(a, p, v);
    const S rtv = vs.dot(rt, v);  // merge point 1 (width 1)
    if (mon.breakdown(rtv == S{})) break;
    alpha = rho / rtv;
    vs.assign(r, s);
    vs.axpy(-alpha, v, s);
    // Unconditional: the s-norm check rides the next merge.
    vs.matvec(a, s, t);
    // Merge point 2 (width 3): omega numerator/denominator + s-norm.
    const auto [ts, tt, ss] = vs.dots(t, s, t, t, s, s);
    const double snorm = root(ss);
    if (snorm <= mon.stop) {
      vs.axpy(alpha, p, x);
      mon.converged(k + 1, snorm);
      return res;
    }
    if (mon.breakdown(tt == S{})) break;
    omega = ts / tt;
    vs.axpy(alpha, p, x);
    vs.axpy(omega, s, x);
    vs.assign(s, r);
    vs.axpy(-omega, t, r);
    // Merge point 3 (width 2): convergence norm + next iteration's rho.
    const auto [rr, rtr] = vs.dots(r, r, rt, r);
    if (mon.converged(k + 1, root(rr))) return res;
    rho_old = rho;
    rho = rtr;
  }
  return res;
}

/// Restarted GMRES(m) with modified Gram-Schmidt Arnoldi and Givens least
/// squares.  Arnoldi step j performs j+1 merges plus the basis-vector norm,
/// so merge traffic grows with the restart length, and the basis costs m+1
/// vectors of storage.  The Hessenberg/Givens state is scalar and
/// replicated: every rank computes identical values because the reduction
/// trees are deterministic.  SolveResult::iterations counts Arnoldi steps.
template <class VS>
SolveResult gmres(VS vs, const typename VS::Op& a, const typename VS::In& b,
                  typename VS::Out& x, const GmresOptions& opts) {
  using S = typename VS::Scalar;
  HPFCG_REQUIRE(opts.restart >= 1, "gmres: restart length must be >= 1");
  const std::size_t m = opts.restart;
  SolveResult res;
  Monitor<VS> mon{vs, opts.base, res, norm(vs, b)};

  // Krylov basis (m+1 vectors) — the "greater storage" of Section 2.1 —
  // plus the (m+1)×m Hessenberg in packed columns.
  std::vector<typename VS::Vec> v;
  v.reserve(m + 1);
  for (std::size_t i = 0; i <= m; ++i) v.push_back(vs.like(b));
  auto w = vs.like(b);
  std::vector<std::vector<double>> h(m, std::vector<double>(m + 1, 0.0));
  std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);

  std::size_t total_steps = 0;
  while (total_steps < opts.base.max_iterations) {
    // Restart: v0 = (b - A x) / |b - A x|.  Only the first cycle's initial
    // residual is a history entry; later cycles continue the sequence.
    residual(vs, a, b, x, w, v[0]);
    const double beta = norm(vs, v[0]);
    if (total_steps == 0) {
      mon.note(0, beta);
    } else {
      mon.exit_residual(beta);
    }
    if (beta <= mon.stop) {
      res.converged = true;
      return res;
    }
    vs.scale(static_cast<S>(1.0 / beta), v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;  // columns built this cycle
    for (; j < m && total_steps < opts.base.max_iterations; ++j) {
      [[maybe_unused]] const auto scope = vs.iteration(total_steps);
      // Arnoldi step with modified Gram-Schmidt: w = A v_j, orthogonalize
      // against v_0..v_j (j+1 inner products + j+1 AXPYs).
      vs.matvec(a, v[j], w);
      for (std::size_t i = 0; i <= j; ++i) {
        const double hij = static_cast<double>(vs.dot(w, v[i]));
        h[j][i] = hij;
        vs.axpy(static_cast<S>(-hij), v[i], w);
      }
      const double hnext = norm(vs, w);
      h[j][j + 1] = hnext;
      if (hnext > 0.0) {
        vs.assign(w, v[j + 1]);
        vs.scale(static_cast<S>(1.0 / hnext), v[j + 1]);
      }

      // Apply previous Givens rotations to the new column, then create the
      // rotation that annihilates h[j][j+1].
      for (std::size_t i = 0; i < j; ++i) {
        const double t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
        h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
        h[j][i] = t;
      }
      const double denom =
          std::sqrt(h[j][j] * h[j][j] + h[j][j + 1] * h[j][j + 1]);
      if (mon.breakdown(denom == 0.0)) break;
      cs[j] = h[j][j] / denom;
      sn[j] = h[j][j + 1] / denom;
      h[j][j] = denom;
      h[j][j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      ++total_steps;
      const double rnorm = std::abs(g[j + 1]);
      mon.note(total_steps, rnorm);
      if (rnorm <= mon.stop || hnext == 0.0) {
        ++j;  // include this column in the update
        break;
      }
    }

    // Back-substitute y from the triangularized system, update x.
    if (j > 0) {
      std::vector<double> y(j, 0.0);
      for (std::size_t ii = j; ii-- > 0;) {
        double acc = g[ii];
        for (std::size_t k = ii + 1; k < j; ++k) acc -= h[k][ii] * y[k];
        y[ii] = acc / h[ii][ii];
      }
      for (std::size_t k = 0; k < j; ++k) {
        vs.axpy(static_cast<S>(y[k]), v[k], x);
      }
    }
    if (res.breakdown) return res;

    if (res.relative_residual * (mon.bnorm > 0.0 ? mon.bnorm : 1.0) <=
        mon.stop) {
      // Confirm with the true residual (restarted GMRES's recurrence
      // residual can drift).
      auto r = vs.like(b);
      residual(vs, a, b, x, w, r);
      const double true_r = norm(vs, r);
      mon.exit_residual(true_r);
      if (true_r <= mon.stop * 1.01) {
        res.converged = true;
        return res;
      }
    }
  }
  return res;
}

}  // namespace hpfcg::solvers::krylov
