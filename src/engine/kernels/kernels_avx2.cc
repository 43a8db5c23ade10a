// AVX2 implementations of the columnar scan kernels. This translation
// unit is the only one compiled with -mavx2 (see src/engine/CMakeLists),
// so every AVX2 intrinsic stays behind the runtime CPUID dispatch in
// kernels.cc — nothing here executes unless ProbeCpu() saw AVX2.
//
// Bitwise-identity notes (the contract is kernels.h; proofs sketched in
// docs/kernels.md):
//  - f64 range compares use the ordered-quiet predicates (_CMP_LT_OQ /
//    _CMP_GT_OQ), which are false on NaN exactly like the scalar `<`/`>`.
//  - i64 range compares run in the integer domain against the exact
//    pre-widened bounds, so no per-row int→double conversion happens.
//  - histogram binning clamps the bin index with min/max *before* the
//    truncating convert; for every non-NaN input this selects the same
//    bin as FixedHistogram::Add's branchy clamp (maxpd(-0.0, 0.0) = 0.0,
//    and the truncate only runs on values already inside [0, bins-1]).
//  - all loads/stores go through loadu/storeu or memcpy — no alignment
//    assumptions on column spans or masks (UBSan-clean).
#include "engine/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace ideval {
namespace {

// 4-bit compare-result mask → 4 mask bytes (byte k = bit k), written as
// one little-endian u32 store.
constexpr uint32_t kExpand4[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u,
};

// Pass-bits (bit k = lane k passes) for 4 doubles against [lo, hi].
inline int PassBitsF64(const double* v, __m256d vlo, __m256d vhi) {
  const __m256d x = _mm256_loadu_pd(v);
  const __m256d lt = _mm256_cmp_pd(x, vlo, _CMP_LT_OQ);
  const __m256d gt = _mm256_cmp_pd(x, vhi, _CMP_GT_OQ);
  const int fail = _mm256_movemask_pd(_mm256_or_pd(lt, gt));
  return ~fail & 0xF;
}

inline int PassBitsI64(const int64_t* v, __m256i vlo, __m256i vhi) {
  __m256i x;
  std::memcpy(&x, v, sizeof(x));
  const __m256i below = _mm256_cmpgt_epi64(vlo, x);  // v < lo
  const __m256i above = _mm256_cmpgt_epi64(x, vhi);  // v > hi
  const int fail = _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_or_si256(below, above)));
  return ~fail & 0xF;
}

void RangeMaskF64(const double* v, int64_t n, double lo, double hi,
                  uint8_t* mask) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t bytes = kExpand4[PassBitsF64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &bytes, sizeof(bytes));
  }
  for (; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

void RangeMaskAndF64(const double* v, int64_t n, double lo, double hi,
                     uint8_t* mask) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t cur;
    std::memcpy(&cur, mask + i, sizeof(cur));
    cur &= kExpand4[PassBitsF64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &cur, sizeof(cur));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

void RangeMaskI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                  uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t bytes = kExpand4[PassBitsI64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &bytes, sizeof(bytes));
  }
  for (; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

void RangeMaskAndI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                     uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t cur;
    std::memcpy(&cur, mask + i, sizeof(cur));
    cur &= kExpand4[PassBitsI64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &cur, sizeof(cur));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

int64_t MaskCount(const uint8_t* mask, int64_t n) {
  // Mask bytes are 0/1, so 8-bit lane sums cannot overflow within a
  // 255-iteration inner run; sad_epu8 folds runs into 64-bit lanes.
  __m256i total = _mm256_setzero_si256();
  int64_t i = 0;
  while (i + 32 <= n) {
    __m256i inner = _mm256_setzero_si256();
    int64_t runs = 0;
    for (; i + 32 <= n && runs < 255; i += 32, ++runs) {
      __m256i m;
      std::memcpy(&m, mask + i, sizeof(m));
      inner = _mm256_add_epi8(inner, m);
    }
    total = _mm256_add_epi64(
        total, _mm256_sad_epu8(inner, _mm256_setzero_si256()));
  }
  int64_t lanes[4];
  std::memcpy(lanes, &total, sizeof(lanes));
  int64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) count += mask[i];
  return count;
}

// Precomputed constants for the histogram bin kernels.
struct BinConsts {
  __m256d vlo, vwidth, vmaxbin;
  double lo, width, dbins;
  int64_t bins;
};

inline BinConsts MakeBinConsts(double lo, double hi, int64_t bins) {
  BinConsts b;
  b.lo = lo;
  b.width = (hi - lo) / static_cast<double>(bins);
  b.dbins = static_cast<double>(bins);
  b.bins = bins;
  b.vlo = _mm256_set1_pd(lo);
  b.vwidth = _mm256_set1_pd(b.width);
  b.vmaxbin = _mm256_set1_pd(static_cast<double>(bins - 1));
  return b;
}

// Scalar reference bin (FixedHistogram::Add verbatim) — the vector-loop
// tail.
inline int32_t BinOfScalar(double v, const BinConsts& b) {
  const double idx = (v - b.lo) / b.width;
  if (idx < 0.0) return 0;
  if (idx >= b.dbins) return static_cast<int32_t>(b.bins - 1);
  return static_cast<int32_t>(idx);
}

// Interactive-workload data is spatially clustered (road walks, sorted
// layouts), so consecutive rows usually land in the *same* bin and the
// read-modify-write increments on one shared counts array serialize on
// store-to-load forwarding (~5-6 cycles apiece). Routing each vector
// lane's increment to a private per-lane sub-histogram breaks those
// chains — the lanes' RMWs hit disjoint addresses and overlap — and the
// int64 merge at the end is order-independent, so totals stay bitwise
// identical. Worth ~30% on the clustered crossfilter headline. The
// scratch lives on the stack and is only used for small bin counts;
// larger histograms alias every lane pointer back to `counts`, which
// degrades to the shared-array loop with no merge step.
constexpr int64_t kSubHistMaxBins = 512;

template <int kLanes>
struct SubHist {
  int64_t scratch[kLanes * kSubHistMaxBins];
  int64_t* lane[kLanes];
  bool split;

  explicit SubHist(int64_t bins, int64_t* counts) {
    split = bins <= kSubHistMaxBins;
    if (split) {
      std::memset(scratch, 0,
                  sizeof(int64_t) * static_cast<size_t>(kLanes * bins));
      for (int s = 0; s < kLanes; ++s) lane[s] = scratch + s * bins;
    } else {
      for (int s = 0; s < kLanes; ++s) lane[s] = counts;
    }
  }

  void MergeInto(int64_t bins, int64_t* counts) const {
    if (!split) return;
    for (int64_t k = 0; k < bins; ++k) {
      int64_t total = 0;
      for (int s = 0; s < kLanes; ++s) total += lane[s][k];
      counts[k] += total;
    }
  }
};

// Bin 4 doubles. The division is kept exact — vdivpd's reciprocal
// throughput hides behind the 3-stream loads on every core this targets,
// and replacing it (reciprocal-multiply or fma-corrected division) costs
// more in boundary bookkeeping than it saves. Clamping with min/max
// before the truncating convert picks the same bin as the scalar branchy
// clamp for every input: maxpd(NaN, 0) = 0 -> bin 0, min(inf, maxbin) ->
// last bin, and finite values truncate identically.
__attribute__((always_inline)) inline void Bin4F64(
    const double* v, const BinConsts& b, int32_t* out) {
  const __m256d x = _mm256_loadu_pd(v);
  const __m256d q = _mm256_div_pd(_mm256_sub_pd(x, b.vlo), b.vwidth);
  const __m256d clamped =
      _mm256_min_pd(_mm256_max_pd(q, _mm256_setzero_pd()), b.vmaxbin);
  const __m128i bins4 = _mm256_cvttpd_epi32(clamped);
  std::memcpy(out, &bins4, 4 * sizeof(int32_t));
}

int64_t HistMaskedF64(const double* v, const uint8_t* mask, int64_t n,
                      double lo, double hi, int64_t bins, int64_t* counts) {
  if (bins > INT32_MAX) {  // cvttpd_epi32 needs the bin index in int32.
    return kernel_detail::kScalarOps.hist_masked_f64(v, mask, n, lo, hi,
                                                     bins, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  SubHist<4> sub(bins, counts);
  int64_t matched = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t mbytes;
    std::memcpy(&mbytes, mask + i, sizeof(mbytes));
    if (mbytes == 0) continue;
    int32_t bin4[4];
    Bin4F64(v + i, b, bin4);
    // Mask bytes are 0/1, so adding them is the branch-free form of the
    // per-lane `if` — data-dependent branches here mispredict badly on
    // mid-selectivity masks. Masked-out NaN lanes bin to 0 via
    // maxpd(NaN, 0) = 0 and add 0, so they stay harmless.
    sub.lane[0][bin4[0]] += mbytes & 1;
    sub.lane[1][bin4[1]] += (mbytes >> 8) & 1;
    sub.lane[2][bin4[2]] += (mbytes >> 16) & 1;
    sub.lane[3][bin4[3]] += (mbytes >> 24) & 1;
    matched += static_cast<int64_t>((mbytes * 0x01010101u) >> 24);
  }
  sub.MergeInto(bins, counts);
  for (; i < n; ++i) {
    if (!mask[i]) continue;
    ++matched;
    ++counts[BinOfScalar(v[i], b)];
  }
  return matched;
}

int64_t HistF64(const double* v, int64_t n, double lo, double hi,
                int64_t bins, int64_t* counts) {
  if (bins > INT32_MAX) {
    return kernel_detail::kScalarOps.hist_f64(v, n, lo, hi, bins, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  SubHist<4> sub(bins, counts);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int32_t bin4[4];
    Bin4F64(v + i, b, bin4);
    ++sub.lane[0][bin4[0]];
    ++sub.lane[1][bin4[1]];
    ++sub.lane[2][bin4[2]];
    ++sub.lane[3][bin4[3]];
  }
  sub.MergeInto(bins, counts);
  for (; i < n; ++i) {
    ++counts[BinOfScalar(v[i], b)];
  }
  return n;
}

// Fused filter+histogram inner loop for a compile-time clause count:
// fixing kNumClauses lets the compiler keep every clause's bounds and
// column pointer in registers with no indirection, which is worth ~0.5
// ns/row over the array-walking form on the 2-clause crossfilter shape.
// Pass bits stay in registers — no mask store/reload — and the loop
// walks two groups of four per iteration: one skip branch per eight
// rows (all-miss stretches skip both bin-column loads and divides), and
// the eight increments land in eight per-lane sub-histograms so
// clustered same-bin runs don't serialize. Row order, pass predicate,
// and binning all match the mask-then-hist composition, so counts are
// bitwise identical.
template <int kNumClauses>
int64_t HistRangesF64Fixed(const double* v, int64_t n,
                           const F64RangeClause* clauses,
                           const BinConsts& b, int64_t* counts) {
  __m256d clo[kNumClauses], chi[kNumClauses];
  const double* cv[kNumClauses];
  for (int c = 0; c < kNumClauses; ++c) {
    clo[c] = _mm256_set1_pd(clauses[c].lo);
    chi[c] = _mm256_set1_pd(clauses[c].hi);
    cv[c] = clauses[c].v;
  }
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  SubHist<8> sub(b.bins, counts);
  int64_t matched = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Accumulate each group's conjunction in the vector domain — one
    // movemask per group of four instead of one per clause.
    __m256d ok_a = ones;
    __m256d ok_b = ones;
    for (int c = 0; c < kNumClauses; ++c) {
      const __m256d xa = _mm256_loadu_pd(cv[c] + i);
      const __m256d fail_a =
          _mm256_or_pd(_mm256_cmp_pd(xa, clo[c], _CMP_LT_OQ),
                       _mm256_cmp_pd(xa, chi[c], _CMP_GT_OQ));
      ok_a = _mm256_andnot_pd(fail_a, ok_a);
      const __m256d xb = _mm256_loadu_pd(cv[c] + i + 4);
      const __m256d fail_b =
          _mm256_or_pd(_mm256_cmp_pd(xb, clo[c], _CMP_LT_OQ),
                       _mm256_cmp_pd(xb, chi[c], _CMP_GT_OQ));
      ok_b = _mm256_andnot_pd(fail_b, ok_b);
    }
    const int bits_a = _mm256_movemask_pd(ok_a);
    const int bits_b = _mm256_movemask_pd(ok_b);
    if ((bits_a | bits_b) == 0) continue;
    int32_t bin_a[4];
    int32_t bin_b[4];
    Bin4F64(v + i, b, bin_a);
    Bin4F64(v + i + 4, b, bin_b);
    sub.lane[0][bin_a[0]] += bits_a & 1;
    sub.lane[1][bin_a[1]] += (bits_a >> 1) & 1;
    sub.lane[2][bin_a[2]] += (bits_a >> 2) & 1;
    sub.lane[3][bin_a[3]] += (bits_a >> 3) & 1;
    sub.lane[4][bin_b[0]] += bits_b & 1;
    sub.lane[5][bin_b[1]] += (bits_b >> 1) & 1;
    sub.lane[6][bin_b[2]] += (bits_b >> 2) & 1;
    sub.lane[7][bin_b[3]] += (bits_b >> 3) & 1;
    matched += static_cast<int64_t>((kExpand4[bits_a] * 0x01010101u) >> 24);
    matched += static_cast<int64_t>((kExpand4[bits_b] * 0x01010101u) >> 24);
  }
  sub.MergeInto(b.bins, counts);
  for (; i < n; ++i) {
    uint8_t pass = 1;
    for (int c = 0; c < kNumClauses; ++c) {
      const double x = cv[c][i];
      pass &= static_cast<uint8_t>(!(x < clauses[c].lo) &&
                                   !(x > clauses[c].hi));
    }
    if (!pass) continue;
    ++matched;
    ++counts[BinOfScalar(v[i], b)];
  }
  return matched;
}

// Fused filter+histogram (kernels.h contract). Clause counts 1-4 — every
// shape the interactive workloads emit — dispatch to the specialized
// template; longer conjunctions take a generic register-array loop.
int64_t HistRangesF64(const double* v, int64_t n, double lo, double hi,
                      int64_t bins, const F64RangeClause* clauses,
                      int num_clauses, int64_t* counts) {
  if (bins > INT32_MAX) {  // cvttpd_epi32 needs the bin index in int32.
    return kernel_detail::kScalarOps.hist_ranges_f64(
        v, n, lo, hi, bins, clauses, num_clauses, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  switch (num_clauses) {
    case 1:
      return HistRangesF64Fixed<1>(v, n, clauses, b, counts);
    case 2:
      return HistRangesF64Fixed<2>(v, n, clauses, b, counts);
    case 3:
      return HistRangesF64Fixed<3>(v, n, clauses, b, counts);
    case 4:
      return HistRangesF64Fixed<4>(v, n, clauses, b, counts);
    default:
      break;
  }
  constexpr int kMaxClauses = 8;  // HistogramScan caps the fused shape.
  __m256d clo[kMaxClauses], chi[kMaxClauses];
  const int nc = num_clauses < kMaxClauses ? num_clauses : kMaxClauses;
  for (int c = 0; c < nc; ++c) {
    clo[c] = _mm256_set1_pd(clauses[c].lo);
    chi[c] = _mm256_set1_pd(clauses[c].hi);
  }
  int64_t matched = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int bits = 0xF;
    for (int c = 0; c < nc; ++c) {
      bits &= PassBitsF64(clauses[c].v + i, clo[c], chi[c]);
    }
    for (int c = nc; c < num_clauses; ++c) {
      bits &= PassBitsF64(clauses[c].v + i, _mm256_set1_pd(clauses[c].lo),
                          _mm256_set1_pd(clauses[c].hi));
    }
    if (bits == 0) continue;
    int32_t bin4[4];
    Bin4F64(v + i, b, bin4);
    counts[bin4[0]] += bits & 1;
    counts[bin4[1]] += (bits >> 1) & 1;
    counts[bin4[2]] += (bits >> 2) & 1;
    counts[bin4[3]] += (bits >> 3) & 1;
    matched += static_cast<int64_t>((kExpand4[bits] * 0x01010101u) >> 24);
  }
  for (; i < n; ++i) {
    uint8_t pass = 1;
    for (int c = 0; c < num_clauses; ++c) {
      const double x = clauses[c].v[i];
      pass &= static_cast<uint8_t>(!(x < clauses[c].lo) &&
                                   !(x > clauses[c].hi));
    }
    if (!pass) continue;
    ++matched;
    ++counts[BinOfScalar(v[i], b)];
  }
  return matched;
}

// Fixed 4-lane schedule (kernels.h): lane k of the accumulator holds
// exactly the elements with i % 4 == k, added in index order — the same
// sequence of FP adds the scalar reference performs per lane.
double MaskedSumF64(const double* v, const uint8_t* mask, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t mbytes;
    std::memcpy(&mbytes, mask + i, sizeof(mbytes));
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(mbytes));
    const __m256i wide = _mm256_cvtepu8_epi64(bytes);  // 0/1 per lane
    const __m256i keep =
        _mm256_cmpgt_epi64(wide, _mm256_setzero_si256());  // 0/-1
    const __m256d x =
        _mm256_and_pd(_mm256_loadu_pd(v + i), _mm256_castsi256_pd(keep));
    acc = _mm256_add_pd(acc, x);
  }
  double lane[4];
  std::memcpy(lane, &acc, sizeof(lane));
  for (; i < n; ++i) {
    lane[i & 3] += mask[i] ? v[i] : 0.0;
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

int64_t MaskedSumI64(const int64_t* v, const uint8_t* mask, int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t mbytes;
    std::memcpy(&mbytes, mask + i, sizeof(mbytes));
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(mbytes));
    const __m256i wide = _mm256_cvtepu8_epi64(bytes);
    const __m256i keep = _mm256_cmpgt_epi64(wide, _mm256_setzero_si256());
    __m256i x;
    std::memcpy(&x, v + i, sizeof(x));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(x, keep));
  }
  uint64_t lanes[4];
  std::memcpy(lanes, &acc, sizeof(lanes));
  uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    sum += mask[i] ? static_cast<uint64_t>(v[i]) : 0u;
  }
  return static_cast<int64_t>(sum);
}

}  // namespace

namespace kernel_detail {

const KernelOps* GetAvx2OpsOrNull() {
  // Integer-keyed histogram binning has no AVX2 int64→double convert, so
  // those two entries reuse the (branch-free) scalar loops — the mask and
  // f64 paths are where the cycles are.
  static const KernelOps ops = {
      KernelIsa::kAvx2,
      RangeMaskF64,
      RangeMaskAndF64,
      RangeMaskI64,
      RangeMaskAndI64,
      MaskCount,
      HistMaskedF64,
      kScalarOps.hist_masked_i64,
      HistF64,
      kScalarOps.hist_i64,
      HistRangesF64,
      MaskedSumF64,
      MaskedSumI64,
  };
  return &ops;
}

}  // namespace kernel_detail
}  // namespace ideval

#else  // !defined(__AVX2__)

namespace ideval {
namespace kernel_detail {

const KernelOps* GetAvx2OpsOrNull() { return nullptr; }

}  // namespace kernel_detail
}  // namespace ideval

#endif  // defined(__AVX2__)
