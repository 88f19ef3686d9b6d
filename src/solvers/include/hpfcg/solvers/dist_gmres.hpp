#pragma once
// Distributed restarted GMRES over the HPF layer.
//
// The communication contrast with CG that Section 2.1 hints at: Arnoldi
// step j performs j+1 DOT_PRODUCT merges (plus the basis-vector norms), so
// the per-iteration merge traffic grows with the restart length, while the
// Krylov basis costs m+1 distributed vectors of storage (krylov::gmres).

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/gmres.hpp"
#include "hpfcg/solvers/krylov.hpp"

namespace hpfcg::solvers {

/// Distributed GMRES(m).  `x` holds the initial guess / solution.
template <class T>
SolveResult gmres_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                       hpf::DistributedVector<T>& x,
                       const GmresOptions& opts = {}) {
  return krylov::gmres(detail::DistSpace<T>(b), a, b, x, opts);
}

}  // namespace hpfcg::solvers
