#include "ops/sparse_optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::ops {

namespace {

/**
 * Unique-row groups per ApplyExact chunk. Fixed (thread-count-independent)
 * chunking; below one chunk the update runs serially.
 */
constexpr size_t kExactGroupGrain = 64;

/**
 * Widest radix digit. 1024 counters (4 KiB) stay in L1 while a pass
 * scatters; tables of up to 2^10 rows group in one pass, up to 2^20 in
 * two.
 */
constexpr int kMaxRadixBits = 10;

}  // namespace

void
RowGrouping::Build(std::span<const SparseGradRef> grads, int64_t rows)
{
    grads_ = {};
    rows_.clear();
    group_starts_.assign(1, 0);
    NEO_REQUIRE(grads.size() < std::numeric_limits<uint32_t>::max(),
                "too many gradient occurrences: ", grads.size());
    for (const auto& ref : grads) {
        NEO_REQUIRE(ref.row >= 0 && ref.row < rows,
                    "gradient row out of range: ", ref.row);
    }
    grads_ = grads;
    const uint32_t n = static_cast<uint32_t>(grads.size());

    // Split the key bits into equal digits of at most kMaxRadixBits. Each
    // pass is a stable counting sort on one digit, least significant
    // first, so after the last pass positions are ordered by the whole key
    // and, within a key, by input position.
    const int key_bits = std::bit_width(static_cast<uint64_t>(rows - 1));
    const int passes = (key_bits + kMaxRadixBits - 1) / kMaxRadixBits;
    const int digit_bits = passes > 0 ? (key_bits + passes - 1) / passes : 0;
    const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
    scratch_.resize(n);
    for (int shift = 0; shift < passes * digit_bits; shift += digit_bits) {
        auto digit = [&](uint32_t pos) {
            return (static_cast<uint64_t>(grads[pos].row) >> shift) & mask;
        };
        // counts_[d] becomes the first output slot of digit d.
        counts_.assign(mask + 2, 0);
        for (const uint32_t pos : order_) {
            counts_[digit(pos) + 1]++;
        }
        std::partial_sum(counts_.begin(), counts_.end(), counts_.begin());
        for (const uint32_t pos : order_) {
            scratch_[counts_[digit(pos)]++] = pos;
        }
        order_.swap(scratch_);
    }

    // One scan of the sorted occurrences finds the group boundaries.
    group_starts_.clear();
    for (uint32_t i = 0; i < n; i++) {
        const int64_t row = grads[order_[i]].row;
        if (rows_.empty() || row != rows_.back()) {
            rows_.push_back(row);
            group_starts_.push_back(i);
        }
    }
    group_starts_.push_back(n);
}

void
RowGrouping::MergeGroup(size_t g, size_t dim, float* merged)
{
    uint32_t* first = order_.data() + group_starts_[g];
    uint32_t* last = order_.data() + group_starts_[g + 1];
    const SparseGradRef* grads = grads_.data();
    if (last - first > 1) {
        // Floating-point sums depend on order, so canonicalize the
        // duplicate occurrences (lexicographic by gradient values) before
        // merging; the merged sum is then invariant to any permutation of
        // the input batch.
        std::sort(first, last, [&](uint32_t a, uint32_t b) {
            return std::lexicographical_compare(
                grads[a].grad, grads[a].grad + dim, grads[b].grad,
                grads[b].grad + dim);
        });
    }
    const kernels::KernelTable& kt = kernels::Active();
    std::fill_n(merged, dim, 0.0f);
    for (const uint32_t* k = first; k != last; k++) {
        kt.add_f32(grads[*k].grad, merged, dim);
    }
}

const char*
SparseOptimizerKindName(SparseOptimizerKind kind)
{
    switch (kind) {
      case SparseOptimizerKind::kSgd: return "sgd";
      case SparseOptimizerKind::kAdaGrad: return "adagrad";
      case SparseOptimizerKind::kRowWiseAdaGrad: return "rowwise_adagrad";
      case SparseOptimizerKind::kAdam: return "adam";
    }
    return "unknown";
}

SparseOptimizer::SparseOptimizer(const SparseOptimizerConfig& config,
                                 int64_t rows, int64_t dim)
    : config_(config), rows_(rows), dim_(dim)
{
    NEO_REQUIRE(rows_ > 0 && dim_ > 0, "bad optimizer shape");
    const size_t n = static_cast<size_t>(rows_) * dim_;
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        adagrad_state_.assign(n, 0.0f);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        rowwise_state_.assign(static_cast<size_t>(rows_), 0.0f);
        break;
      case SparseOptimizerKind::kAdam:
        adam_m_.assign(n, 0.0f);
        adam_v_.assign(n, 0.0f);
        adam_step_.assign(static_cast<size_t>(rows_), 0);
        break;
    }
    row_buf_.resize(static_cast<size_t>(dim_));
}

size_t
SparseOptimizer::StateBytes() const
{
    return adagrad_state_.size() * sizeof(float) +
           rowwise_state_.size() * sizeof(float) +
           adam_m_.size() * sizeof(float) + adam_v_.size() * sizeof(float) +
           adam_step_.size() * sizeof(uint32_t);
}

size_t
SparseOptimizer::StateFloatsPerRow() const
{
    const size_t d = static_cast<size_t>(dim_);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd: return 0;
      case SparseOptimizerKind::kAdaGrad: return d;
      case SparseOptimizerKind::kRowWiseAdaGrad: return 1;
      // m, v, and the per-row step count (stored as a float: exact for
      // any realistic step count, and it keeps the layout homogeneous).
      case SparseOptimizerKind::kAdam: return 2 * d + 1;
    }
    return 0;
}

void
SparseOptimizer::ExportRowState(int64_t row, float* out) const
{
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    const size_t d = static_cast<size_t>(dim_);
    const size_t r = static_cast<size_t>(row);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        std::copy_n(adagrad_state_.data() + r * d, d, out);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        out[0] = rowwise_state_[r];
        break;
      case SparseOptimizerKind::kAdam:
        std::copy_n(adam_m_.data() + r * d, d, out);
        std::copy_n(adam_v_.data() + r * d, d, out + d);
        out[2 * d] = static_cast<float>(adam_step_[r]);
        break;
    }
}

void
SparseOptimizer::ImportRowState(int64_t row, const float* in)
{
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    const size_t d = static_cast<size_t>(dim_);
    const size_t r = static_cast<size_t>(row);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        std::copy_n(in, d, adagrad_state_.data() + r * d);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        rowwise_state_[r] = in[0];
        break;
      case SparseOptimizerKind::kAdam:
        std::copy_n(in, d, adam_m_.data() + r * d);
        std::copy_n(in + d, d, adam_v_.data() + r * d);
        adam_step_[r] = static_cast<uint32_t>(in[2 * d]);
        break;
    }
}

float
SparseOptimizer::RowMoment(int64_t row) const
{
    NEO_REQUIRE(config_.kind == SparseOptimizerKind::kRowWiseAdaGrad,
                "RowMoment is row-wise AdaGrad state");
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    return rowwise_state_[static_cast<size_t>(row)];
}

void
SparseOptimizer::StepRow(int64_t row, const float* g, float* w)
{
    const float lr = config_.learning_rate;
    const float eps = config_.eps;
    const size_t d = static_cast<size_t>(dim_);
    const kernels::KernelTable& kt = kernels::Active();
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd: {
        // w += (-lr) * g: IEEE sign flip and subtract-vs-add-negated are
        // exact, so this is bitwise the classic w[i] -= lr * g[i].
        kt.axpy_f32(-lr, g, w, d);
        break;
      }
      case SparseOptimizerKind::kAdaGrad: {
        float* state = adagrad_state_.data() + static_cast<size_t>(row) * d;
        kt.adagrad_update_f32(lr, eps, g, state, w, d);
        break;
      }
      case SparseOptimizerKind::kRowWiseAdaGrad: {
        // m' = m + (1/D) * sum_j g_j^2, one scalar per row (Sec. 4.1.4).
        // The sum runs the canonical width-16 strided reduction schedule.
        const float sq_sum = kt.sum_squares_f32(g, d);
        float& m = rowwise_state_[static_cast<size_t>(row)];
        m += sq_sum / static_cast<float>(d);
        const float scale = lr / (std::sqrt(m) + eps);
        kt.axpy_f32(-scale, g, w, d);
        break;
      }
      case SparseOptimizerKind::kAdam: {
        const float b1 = config_.beta1;
        const float b2 = config_.beta2;
        uint32_t& t = adam_step_[static_cast<size_t>(row)];
        t++;
        const float bc1 =
            1.0f - std::pow(b1, static_cast<float>(t));
        const float bc2 =
            1.0f - std::pow(b2, static_cast<float>(t));
        float* m = adam_m_.data() + static_cast<size_t>(row) * d;
        float* v = adam_v_.data() + static_cast<size_t>(row) * d;
        for (size_t i = 0; i < d; i++) {
            m[i] = b1 * m[i] + (1.0f - b1) * g[i];
            v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
            const float m_hat = m[i] / bc1;
            const float v_hat = v[i] / bc2;
            w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
        break;
      }
    }
}

void
SparseOptimizer::ApplyExact(EmbeddingTable& table,
                            std::span<const SparseGradRef> grads)
{
    GroupByRow(grads);
    ApplyGrouped(table);
}

std::span<const int64_t>
SparseOptimizer::GroupByRow(std::span<const SparseGradRef> grads)
{
    // Sparse updates live in the paper's embedding-backward phase, so
    // they book as emb_bwd rather than the dense optimizer bucket.
    NEO_TRACE_SPAN("sparse_group_rows", "emb_bwd");
    grouping_.Build(grads, rows_);
    return grouping_.rows();
}

template <typename Rows>
void
SparseOptimizer::ApplyGroups(Rows& rows, size_t g0, size_t g1)
{
    const size_t d = static_cast<size_t>(dim_);
    const std::span<const int64_t> ids = grouping_.rows();
    static obs::Counter& update_calls =
        obs::MetricsRegistry::Get().GetCounter(
            "neo.kernels.sparse_update_calls");
    update_calls.Add(g1 - g0);
    // Per-thread scratch: the merged gradient, then the widened row.
    static thread_local AlignedVector<float> scratch;
    scratch.resize(2 * d);
    float* merged = scratch.data();
    float* row_buf = scratch.data() + d;
    for (size_t g = g0; g < g1; g++) {
        grouping_.MergeGroup(g, d, merged);
        rows.ReadRow(ids[g], row_buf);
        StepRow(ids[g], merged, row_buf);
        rows.WriteRow(ids[g], row_buf);
    }
}

void
SparseOptimizer::ApplyGrouped(EmbeddingTable& table)
{
    NEO_TRACE_SPAN("sparse_apply_exact", "emb_bwd");
    NEO_REQUIRE(table.rows() == rows_ && table.dim() == dim_,
                "optimizer/table shape mismatch");
    // Apply groups in parallel: each group owns one table row and its
    // optimizer state, groups are disjoint, and the per-group merge order
    // is canonical — bit-identical at any thread count.
    ParallelFor(0, grouping_.rows().size(), kExactGroupGrain,
                [&](size_t g0, size_t g1) { ApplyGroups(table, g0, g1); });
}

void
SparseOptimizer::ApplyGrouped(RowStore& store)
{
    NEO_TRACE_SPAN("sparse_apply_exact", "emb_bwd");
    NEO_REQUIRE(store.rows() == rows_ && store.dim() == dim_,
                "optimizer/store shape mismatch");
    ApplyGroups(store, 0, grouping_.rows().size());
}

void
SparseOptimizer::ApplyNaive(EmbeddingTable& table,
                            std::span<const SparseGradRef> grads)
{
    NEO_TRACE_SPAN("sparse_apply_naive", "emb_bwd");
    NEO_REQUIRE(table.rows() == rows_ && table.dim() == dim_,
                "optimizer/table shape mismatch");
    for (const auto& ref : grads) {
        NEO_CHECK(ref.row >= 0 && ref.row < rows_,
                  "gradient row out of range");
        table.ReadRow(ref.row, row_buf_.data());
        StepRow(ref.row, ref.grad, row_buf_.data());
        table.WriteRow(ref.row, row_buf_.data());
    }
}

}  // namespace neo::ops
