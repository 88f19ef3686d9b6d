#pragma once
// REDISTRIBUTE for the distributed CSR trio (Section 5.2.2).
//
//   !EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
//
// The paper's SPARSE_MATRIX descriptor makes (row, col, a) one logical
// object, so changing the row distribution must move whole rows — the
// INDIVISABLE atoms — onto the new cut points.  This is the matrix half of
// hpf::redistribute: one personalized all-to-all carrying, per migrating
// rank pair, the packed (row-length deltas, col_idx, a) triple.  Both the
// old and new layouts are replicated cut-point arrays, so every rank
// derives the full exchange pattern locally: pairs moving no rows post no
// message (empty ranks under n < N_P cost nothing), rows staying put never
// touch a buffer, and an identical target degenerates to a local copy with
// no communication at all.
//
// The migrated matrix is row-aligned (ATOM semantics: each row's entries
// live with its owner, so it sweeps its owned slice with no fetch), and its
// new ownership map is registered with the hpfcg::check ledger; the
// exchange runs under a trace::kRedistribute span so cost accounting
// survives the swap.
//
// Halo invalidation: a migration changes the ownership map, so any cached
// HaloPlan is stale by construction.  This falls out of the structure —
// from_local_rows returns a *fresh* DistCsr whose plan is empty, and the
// next sweep (or solvers::make_csr_rebalancer's explicit prepare_halo())
// rebuilds it collectively against the new cuts.  The identical-target
// short-circuit below returns a copy of `src` whose plan is still valid,
// because the ownership map it was built against is unchanged.

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

/// What one rank moved during a redistribute (this rank's send side; sum
/// across ranks for machine totals).
struct RedistributeStats {
  std::size_t rows_moved = 0;   ///< rows this rank shipped to other ranks
  std::size_t nnz_moved = 0;    ///< entries inside those rows
  std::size_t bytes_moved = 0;  ///< packed payload bytes sent
};

namespace detail {

/// Append the raw bytes of `src` to `out`.
template <class T>
void pack(std::vector<std::byte>& out, std::span<const T> src) {
  const std::size_t at = out.size();
  out.resize(at + src.size_bytes());
  if (!src.empty()) std::memcpy(out.data() + at, src.data(), src.size_bytes());
}

/// Read `count` Ts from `in` at byte offset `at` (advanced past them).
template <class T>
void unpack(std::span<const std::byte> in, std::size_t& at,
            std::span<T> dst) {
  HPFCG_REQUIRE(at + dst.size_bytes() <= in.size(),
                "sparse redistribute: truncated migration payload");
  if (!dst.empty()) std::memcpy(dst.data(), in.data() + at, dst.size_bytes());
  at += dst.size_bytes();
}

}  // namespace detail

/// Collective: migrate whole CSR rows of `src` onto the contiguous row
/// distribution described by `new_row_cuts` (np+1 nondecreasing cut
/// points).  Returns the row-aligned migrated matrix; `src` is only read
/// (its window is assembled first when stale).  Vectors bound to the matrix
/// must be re-aligned separately with hpf::redistribute onto
/// result.row_dist_ptr().
template <class T>
DistCsr<T> redistribute(DistCsr<T>& src,
                        const std::vector<std::size_t>& new_row_cuts,
                        RedistributeStats* stats = nullptr) {
  msg::Process& proc = src.proc();
  const int np = proc.nprocs();
  const int me = proc.rank();
  HPFCG_REQUIRE(new_row_cuts.size() == static_cast<std::size_t>(np) + 1,
                "sparse redistribute: need np+1 row cut points");
  const hpf::Distribution& from = src.row_dist();
  HPFCG_REQUIRE(from.contiguous(),
                "sparse redistribute: row distribution must be contiguous");
  auto target = std::make_shared<const hpf::Distribution>(
      hpf::Distribution::from_cuts(src.n(), new_row_cuts));

  if (stats != nullptr) *stats = RedistributeStats{};

  // Identical mapping: nothing migrates and no collective runs.  Both
  // distributions are replicated, so every rank takes this branch together.
  if (from == *target) return src;

  trace::SpanScope span(proc.tracer_rank(), trace::SpanKind::kRedistribute);

  const auto [old_lo, old_hi] = from.local_range(me);
  const std::size_t new_lo = new_row_cuts[static_cast<std::size_t>(me)];
  const std::size_t new_hi = new_row_cuts[static_cast<std::size_t>(me) + 1];
  const auto rp = src.local_row_ptr();  // global k values, rows+1 entries
  const auto [win_col, win_val] = src.assembled_window();
  const std::size_t base = rp.empty() ? 0 : rp.front();

  // Pack one (lengths, cols, vals) block per destination that receives any
  // of my rows; the self range is kept aside and never serialized.
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(np));
  std::uint64_t sent_bytes = 0;
  for (int d = 0; d < np; ++d) {
    if (d == me) continue;
    const std::size_t lo =
        std::max(old_lo, new_row_cuts[static_cast<std::size_t>(d)]);
    const std::size_t hi =
        std::min(old_hi, new_row_cuts[static_cast<std::size_t>(d) + 1]);
    if (lo >= hi) continue;
    auto& blk = send[static_cast<std::size_t>(d)];
    const std::size_t k0 = rp[lo - old_lo];
    const std::size_t k1 = rp[hi - old_lo];
    std::vector<std::size_t> lens(hi - lo);
    for (std::size_t g = lo; g < hi; ++g) {
      lens[g - lo] = rp[g - old_lo + 1] - rp[g - old_lo];
    }
    detail::pack<std::size_t>(blk, lens);
    detail::pack<std::size_t>(blk, win_col.subspan(k0 - base, k1 - k0));
    detail::pack<T>(blk, win_val.subspan(k0 - base, k1 - k0));
    sent_bytes += blk.size();
    if (stats != nullptr) {
      stats->rows_moved += hi - lo;
      stats->nnz_moved += k1 - k0;
      stats->bytes_moved += blk.size();
    }
  }
  span.set_bytes(sent_bytes);

  // Receive pattern from the same replicated cuts: rank s sends to me iff
  // its old range intersects my new range.
  std::vector<std::uint8_t> recv_mask(static_cast<std::size_t>(np), 0);
  for (int s = 0; s < np; ++s) {
    if (s == me) continue;
    const auto [slo, shi] = from.local_range(s);
    if (std::max(slo, new_lo) < std::min(shi, new_hi)) {
      recv_mask[static_cast<std::size_t>(s)] = 1;
    }
  }

  const auto recv = proc.alltoallv_masked<std::byte>(send, recv_mask);

  // Merge in ascending global row order.  Both distributions are
  // contiguous, so ascending source rank visits my new rows in order and
  // each source's block is already row-sorted.
  std::vector<std::size_t> lens;
  std::vector<std::size_t> col;
  std::vector<T> val;
  lens.reserve(new_hi - new_lo);
  for (int s = 0; s < np; ++s) {
    const auto [slo, shi] = from.local_range(s);
    const std::size_t lo = std::max(slo, new_lo);
    const std::size_t hi = std::min(shi, new_hi);
    if (lo >= hi) continue;
    if (s == me) {
      const std::size_t k0 = rp[lo - old_lo];
      const std::size_t k1 = rp[hi - old_lo];
      for (std::size_t g = lo; g < hi; ++g) {
        lens.push_back(rp[g - old_lo + 1] - rp[g - old_lo]);
      }
      col.insert(col.end(),
                 win_col.begin() + static_cast<std::ptrdiff_t>(k0 - base),
                 win_col.begin() + static_cast<std::ptrdiff_t>(k1 - base));
      val.insert(val.end(),
                 win_val.begin() + static_cast<std::ptrdiff_t>(k0 - base),
                 win_val.begin() + static_cast<std::ptrdiff_t>(k1 - base));
    } else {
      const auto& blk = recv[static_cast<std::size_t>(s)];
      std::size_t at = 0;
      std::vector<std::size_t> in_lens(hi - lo);
      detail::unpack<std::size_t>(blk, at, in_lens);
      std::size_t in_nnz = 0;
      for (const std::size_t len : in_lens) in_nnz += len;
      const std::size_t c0 = col.size();
      col.resize(c0 + in_nnz);
      val.resize(c0 + in_nnz);
      detail::unpack<std::size_t>(
          blk, at, std::span<std::size_t>(col.data() + c0, in_nnz));
      detail::unpack<T>(blk, at, std::span<T>(val.data() + c0, in_nnz));
      HPFCG_REQUIRE(at == blk.size(),
                    "sparse redistribute: surplus migration payload from "
                    "rank " + std::to_string(s));
      lens.insert(lens.end(), in_lens.begin(), in_lens.end());
    }
  }

  return DistCsr<T>::from_local_rows(proc, std::move(target), lens,
                                     std::move(col), std::move(val));
}

/// Convenience overload taking the target as a cut-point distribution.
template <class T>
DistCsr<T> redistribute(DistCsr<T>& src, const hpf::Distribution& target,
                        RedistributeStats* stats = nullptr) {
  return redistribute(src, target.cuts(), stats);
}

}  // namespace hpfcg::sparse
