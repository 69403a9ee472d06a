#include "cache/tiered_embedding_bag.h"

#include <cmath>

#include "common/logging.h"
#include "kernels/kernels.h"

namespace neo::cache {

TieredEmbeddingBag::TieredEmbeddingBag(
    ops::RowStore* store, const ops::SparseOptimizerConfig& optimizer)
    : store_(store), config_(optimizer)
{
    NEO_REQUIRE(store_ != nullptr, "null row store");
    NEO_REQUIRE(config_.kind == ops::SparseOptimizerKind::kSgd ||
                    config_.kind ==
                        ops::SparseOptimizerKind::kRowWiseAdaGrad,
                "TieredEmbeddingBag supports SGD and row-wise AdaGrad");
    if (config_.kind == ops::SparseOptimizerKind::kRowWiseAdaGrad) {
        rowwise_state_.assign(static_cast<size_t>(store_->rows()), 0.0f);
    }
    row_buf_.resize(static_cast<size_t>(store_->dim()));
    merged_.resize(static_cast<size_t>(store_->dim()));
}

void
TieredEmbeddingBag::Forward(const ops::TableInput& input, size_t batch,
                            Matrix& out)
{
    NEO_REQUIRE(input.lengths.size() == batch, "lengths size mismatch");
    const size_t dim = static_cast<size_t>(store_->dim());
    if (out.rows() != batch || out.cols() != dim) {
        out = Matrix(batch, dim);
    } else {
        out.Zero();
    }
    size_t offset = 0;
    for (size_t b = 0; b < batch; b++) {
        float* row = out.Row(b);
        for (uint32_t i = 0; i < input.lengths[b]; i++) {
            store_->AccumulateRow(input.indices[offset + i], 1.0f, row);
        }
        offset += input.lengths[b];
    }
    NEO_CHECK(offset == input.indices.size(), "indices/lengths mismatch");
}

void
TieredEmbeddingBag::BackwardAndUpdate(const ops::TableInput& input,
                                      size_t batch, const Matrix& grad)
{
    NEO_REQUIRE(input.lengths.size() == batch, "lengths size mismatch");
    NEO_REQUIRE(grad.rows() == batch, "grad batch mismatch");
    const size_t dim = static_cast<size_t>(store_->dim());
    NEO_REQUIRE(grad.cols() == dim, "grad dim mismatch");

    // Collect per-occurrence refs (same flow as the in-memory path).
    std::vector<ops::SparseGradRef> refs;
    refs.reserve(input.indices.size());
    size_t offset = 0;
    for (size_t b = 0; b < batch; b++) {
        const float* g = grad.Row(b);
        for (uint32_t i = 0; i < input.lengths[b]; i++) {
            refs.push_back({input.indices[offset + i], g});
        }
        offset += input.lengths[b];
    }

    // Group and merge exactly like SparseOptimizer::ApplyExact (the same
    // grouping and canonical merge, with the same kernel table), so tiered
    // and in-memory training stay bitwise interchangeable across every
    // dispatch tier; then apply one read-modify-write per unique row
    // through the store, in ascending row order.
    grouping_.Build(refs, store_->rows());
    const std::span<const int64_t> rows = grouping_.rows();
    const kernels::KernelTable& kt = kernels::Active();
    const float lr = config_.learning_rate;
    for (size_t g = 0; g < rows.size(); g++) {
        const int64_t row = rows[g];
        grouping_.MergeGroup(g, dim, merged_.data());
        store_->ReadRow(row, row_buf_.data());
        if (config_.kind == ops::SparseOptimizerKind::kSgd) {
            kt.axpy_f32(-lr, merged_.data(), row_buf_.data(), dim);
        } else {
            const float sq_sum = kt.sum_squares_f32(merged_.data(), dim);
            float& m = rowwise_state_[static_cast<size_t>(row)];
            m += sq_sum / static_cast<float>(dim);
            const float scale = lr / (std::sqrt(m) + config_.eps);
            kt.axpy_f32(-scale, merged_.data(), row_buf_.data(), dim);
        }
        store_->WriteRow(row, row_buf_.data());
    }
}

}  // namespace neo::cache
