/**
 * @file
 * Runtime-dispatched SIMD microkernels for the two hot loops of every
 * measured step — MLP GEMM and fused pooled embedding lookup — in the
 * style of onnxruntime's core/mlas: a CPU-feature probe picks the widest
 * compiled-in tier at first use (overridable via NEO_KERNEL_TIER), and
 * every caller goes through one function-pointer table.
 *
 * Determinism contract (DESIGN.md §4h): bitwise identity across tiers is
 * achieved *by construction*, not tolerance. Every kernel implements one
 * canonical accumulation schedule, fixed independently of the executing
 * tier:
 *
 *  - GEMM tile: each output element owns a single accumulator that
 *    receives fused multiply-adds (single IEEE rounding per term) in
 *    ascending-k order, then is added into C once. Vector tiers assign
 *    one lane per output element (lanes never reduce against each other);
 *    the scalar tier replays the same chains with std::fma.
 *  - Pooling / axpy / optimizer updates: per-element chains in occurrence
 *    order using separately rounded multiply and add (no contraction;
 *    these TUs compile with -ffp-contract=off).
 *  - Reductions (sum of squares): a width-16 strided accumulator array —
 *    element i lands in lane i%16 — folded by the fixed tree
 *    acc[l]+=acc[l+8], acc[l]+=acc[l+4], acc[l]+=acc[l+2],
 *    acc[0]+acc[1]. The scalar tier materializes the 16 lanes in memory.
 *  - FP16/BF16 converts are exact (dequant) or round-to-nearest-even
 *    (quant) with hardware-identical NaN handling, verified exhaustively.
 *
 * Under this contract the dispatch tier, like the thread count, can never
 * change a result — the existing determinism suites stay the gate.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace neo::kernels {

/**
 * Dispatch tiers, narrowest to widest. The values are what the
 * `neo.kernels.tier` gauge reports; 1 is unused. Hosts without AVX2
 * run the scalar tier.
 */
enum class Tier {
    kScalar = 0,
    kAvx2 = 2,
    kAvx512 = 3,
};

/** Lowercase tier name as accepted by NEO_KERNEL_TIER. */
const char* TierName(Tier tier);

/** Rows per packed-A panel (register tile height). */
inline constexpr size_t kMr = 6;
/** Columns per packed-B panel (register tile width / lane count). */
inline constexpr size_t kNr = 16;
/** Strided-accumulator width of the canonical reduction schedule. */
inline constexpr size_t kReduceLanes = 16;

/**
 * The per-tier kernel function table. All pointers are always non-null;
 * semantics (and bit patterns) are identical across tiers.
 */
struct KernelTable {
    Tier tier;

    /**
     * Register-tiled GEMM microkernel over packed panels:
     *   c[r*ldc + j] += sum_{kk<k} fma(a_panel[kk*kMr + r],
     *                                  b_panel[kk*kNr + j])
     * for r < mr (<= kMr) and j < nr (<= kNr), ascending kk. Panels are
     * zero-padded to full tile size; padded rows/lanes are computed but
     * never stored.
     */
    void (*gemm_tile)(size_t k, const float* a_panel, const float* b_panel,
                      float* c, size_t ldc, size_t mr, size_t nr);

    /**
     * Fused gather + sum pooling: out[d] += sum_i rows[indices[i]*dim+d]
     * with i ascending (one bag of a pooled lookup).
     */
    void (*pool_rows_f32)(const float* rows, size_t dim,
                          const int64_t* indices, size_t count, float* out);

    /** Same, over IEEE binary16 row storage (exact widening). */
    void (*pool_rows_f16)(const uint16_t* rows, size_t dim,
                          const int64_t* indices, size_t count, float* out);

    /** dst[i] += src[i]. */
    void (*add_f32)(const float* src, float* dst, size_t n);

    /** dst[i] += w * src[i] (mul and add rounded separately). */
    void (*axpy_f32)(float w, const float* src, float* dst, size_t n);

    /**
     * AdaGrad element update: state[i] += g[i]*g[i];
     * w[i] -= (lr*g[i]) / (sqrt(state[i]) + eps). Every intermediate is
     * rounded exactly as written (sqrt and divide are correctly rounded
     * in both scalar and vector ISAs).
     */
    void (*adagrad_update_f32)(float lr, float eps, const float* g,
                               float* state, float* w, size_t n);

    /** Sum of x[i]^2 under the width-16 strided schedule. */
    float (*sum_squares_f32)(const float* x, size_t n);

    /** out[i] = widen(in[i]) for binary16 bits (exact). */
    void (*dequant_f16)(const uint16_t* in, float* out, size_t n);

    /** out[i] = round-to-nearest-even binary16 bits of in[i]. */
    void (*quant_f16)(const float* in, uint16_t* out, size_t n);

    /** out[i] = widen(in[i]) for bfloat16 bits (exact shift). */
    void (*dequant_bf16)(const uint16_t* in, float* out, size_t n);

    /** out[i] = round-to-nearest-even bfloat16 bits of in[i]. */
    void (*quant_bf16)(const float* in, uint16_t* out, size_t n);
};

/**
 * The active kernel table. Resolved once on first use: the widest tier
 * both compiled in and supported by the host, unless NEO_KERNEL_TIER
 * (scalar|avx2|avx512) overrides it — a fatal error if the requested
 * tier is unknown or unsupported. The selection is published to
 * obs::MetricsRegistry as gauge `neo.kernels.tier`.
 */
const KernelTable& Active();

/** Tier of the active table. */
Tier ActiveTier();

/**
 * Tiers this process can execute: compiled-in and runtime-supported, in
 * ascending width. Always contains Tier::kScalar.
 */
std::vector<Tier> SupportedTiers();

/**
 * Swap the active table (test/bench knob for cross-tier sweeps; fatal if
 * the tier is unsupported). Callers must ensure no kernel work is in
 * flight. Re-publishes the `neo.kernels.tier` gauge.
 */
void SetTier(Tier tier);

/** Per-tier table access without switching (bench plumbing). */
const KernelTable& TableFor(Tier tier);

}  // namespace neo::kernels
