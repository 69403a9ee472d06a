/**
 * @file
 * Pooled embedding training over a RowStore — the hierarchical-memory
 * training path (Sec. 4.1.3): the same fused forward and exact
 * (group-merge) backward+update as EmbeddingBagCollection, but every row
 * access goes through an abstract store, so a table can live behind the
 * 32-way software cache (HBM over DDR) or UVM paging and still train.
 * The forward stages each batch's distinct rows out of the store once
 * (ops::StageRows) and pools them with ops::PoolBags; the update is
 * ops::SparseOptimizer's, applied through the store. With a lossless store
 * the results are bitwise identical to the plain in-memory path (tested).
 */
#pragma once

#include <vector>

#include "ops/embedding_bag.h"
#include "ops/row_store.h"
#include "ops/sparse_optimizer.h"

namespace neo::cache {

/** One trainable pooled-embedding table over any RowStore. */
class TieredEmbeddingBag
{
  public:
    /**
     * @param store Row storage (not owned; must outlive this).
     * @param optimizer Any sparse optimizer; its state lives here, sized
     *   to the store.
     */
    TieredEmbeddingBag(ops::RowStore* store,
                       const ops::SparseOptimizerConfig& optimizer);

    /** Fused pooled (sum) forward over the store. */
    void Forward(const ops::TableInput& input, size_t batch, Matrix& out);

    /**
     * Exact backward + update: SparseOptimizer::GroupByRow, then
     * ApplyGrouped through the store — one read-modify-write per unique
     * row, in ascending row order, regardless of pooling.
     */
    void BackwardAndUpdate(const ops::TableInput& input, size_t batch,
                           const Matrix& grad);

    ops::RowStore& store() { return *store_; }

  private:
    ops::RowStore* store_;
    ops::SparseOptimizer optimizer_;
    ops::StagedRows staged_;
    std::vector<ops::SparseGradRef> refs_;
};

}  // namespace neo::cache
