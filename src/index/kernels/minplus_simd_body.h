// The one SIMD implementation of the three min-plus kernels, written over a
// lane-traits struct `L` so the AVX2 and AVX-512 backends share a single
// algorithm: blocked vector main loops of L::kWidth lanes, scalar tails and
// a one-block scalar fallback. Only the traits differ between tiers. `L` supplies:
//
//   using Vec;                          the vector type
//   static constexpr std::size_t kWidth doubles per vector
//   Set1(double), Add(Vec, Vec), Min(Vec, Vec)
//   LoadU(const double*), StoreU(double*, Vec), Store(double*, Vec)
//   Gather(const double* base, const std::int32_t* idx)  kWidth int32 lanes
//
// Linkage rule: a backend TU includes this file INSIDE its unnamed
// namespace, after <limits>, kernel_table.h and its traits, and compiles
// with its own -m<isa> flag. Everything defined here then has internal
// linkage per TU. With external (or weak inline) linkage the linker could
// keep the -mavx512f copy of a shared function for the AVX2 table too, and
// an AVX2-only CPU would die with SIGILL.
//
// Bit-identity: every candidate is the same left-associated IEEE sum as the
// scalar reference, the vector min returns one of its operands, and the
// horizontal fold compares with `<` exactly like the reference loop, so no
// lane width or reduction order can change a bit
// (tests/minplus_kernels_test.cc).

#ifndef IFLS_INDEX_KERNELS_MINPLUS_SIMD_BODY_H_
#define IFLS_INDEX_KERNELS_MINPLUS_SIMD_BODY_H_

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Below one block the vector main loops do no work and the broadcast and
/// horizontal-fold overhead makes a SIMD tier slower than the reference, so
/// such calls defer to the scalar table (bit-identical by construction: it
/// IS the reference).
inline const KernelTable& Scalar() { return *GetScalarKernelTable(); }

/// Largest multiple of the block width not above n.
template <typename L>
std::size_t BlockEnd(std::size_t n) {
  return n - n % L::kWidth;
}

/// min over the lanes, folded against `tail` (value-exact: every operand is
/// one of the candidate sums, so picking between equals is bit-neutral).
template <typename L>
double HorizontalMin(typename L::Vec acc, double tail) {
  alignas(sizeof(typename L::Vec)) double lanes[L::kWidth];
  L::Store(lanes, acc);
  double best = tail;
  for (std::size_t l = 0; l < L::kWidth; ++l) {
    if (lanes[l] < best) best = lanes[l];
  }
  return best;
}

template <typename L>
void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  if (nc < L::kWidth) {
    return Scalar().min_plus_compose(a, rows, nr, cols, nc, m, stride, out);
  }
  const std::size_t blocked = BlockEnd<L>(nc);
  for (std::size_t j = 0; j < blocked; j += L::kWidth) {
    typename L::Vec acc = L::Set1(kInf);
    for (std::size_t i = 0; i < nr; ++i) {
      const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
      acc = L::Min(acc, L::Add(L::Set1(a[i]), L::Gather(row, cols + j)));
    }
    L::StoreU(out + j, acc);
  }
  for (std::size_t j = blocked; j < nc; ++j) {
    double best = kInf;
    for (std::size_t i = 0; i < nr; ++i) {
      const double cand =
          a[i] + m[static_cast<std::size_t>(rows[i]) * stride + cols[j]];
      if (cand < best) best = cand;
    }
    out[j] = best;
  }
}

template <typename L>
double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  if (n < L::kWidth) return Scalar().min_plus_pairwise(a, b, n);
  typename L::Vec acc = L::Set1(kInf);
  const std::size_t blocked = BlockEnd<L>(n);
  for (std::size_t k = 0; k < blocked; k += L::kWidth) {
    acc = L::Min(acc, L::Add(L::LoadU(a + k), L::LoadU(b + k)));
  }
  double tail_best = kInf;
  for (std::size_t k = blocked; k < n; ++k) {
    const double cand = a[k] + b[k];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin<L>(acc, tail_best);
}

template <typename L>
void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  if (n < L::kWidth) return Scalar().gather_cells(row, idx, n, out);
  const std::size_t blocked = BlockEnd<L>(n);
  for (std::size_t i = 0; i < blocked; i += L::kWidth) {
    L::StoreU(out + i, L::Gather(row, idx + i));
  }
  for (std::size_t i = blocked; i < n; ++i) out[i] = row[idx[i]];
}

/// The backend's table: the three kernels above instantiated for `L`.
template <typename L>
constexpr KernelTable MakeSimdKernelTable(KernelTier tier, const char* name) {
  return {tier, name, MinPlusCompose<L>, MinPlusPairwise<L>, GatherCells<L>};
}

#endif  // IFLS_INDEX_KERNELS_MINPLUS_SIMD_BODY_H_
