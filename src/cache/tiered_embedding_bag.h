/**
 * @file
 * Pooled embedding training over a RowStore — the hierarchical-memory
 * training path (Sec. 4.1.3): the same fused forward and exact
 * (group-merge) backward+update as EmbeddingBagCollection, but every row
 * access goes through an abstract store, so a table can live behind the
 * 32-way software cache (HBM over DDR) or UVM paging and still train.
 * With a lossless store the results are bitwise identical to the plain
 * in-memory path (tested).
 */
#pragma once

#include <memory>

#include "cache/cached_embedding_store.h"
#include "cache/uvm_store.h"
#include "ops/embedding_bag.h"
#include "ops/row_store.h"

namespace neo::cache {

/** RowStore over a CachedEmbeddingStore (software cache over DDR). */
class CachedRowStore : public ops::RowStore
{
  public:
    explicit CachedRowStore(CachedEmbeddingStore store)
        : store_(std::move(store)) {}

    int64_t rows() const override { return store_.rows(); }
    int64_t dim() const override { return store_.dim(); }

    void ReadRow(int64_t row, float* out) override
    {
        store_.ReadRow(row, out);
    }
    void WriteRow(int64_t row, const float* in) override
    {
        store_.WriteRow(row, in);
    }
    void AccumulateRow(int64_t row, float weight, float* out) override
    {
        store_.AccumulateRow(row, weight, out);
    }

    CachedEmbeddingStore& store() { return store_; }

  private:
    CachedEmbeddingStore store_;
};

/** RowStore over a UVM paged table. */
class UvmRowStore : public ops::RowStore
{
  public:
    explicit UvmRowStore(UvmPagedStore store) : store_(std::move(store)) {}

    int64_t rows() const override { return store_.rows(); }
    int64_t dim() const override { return store_.dim(); }

    void ReadRow(int64_t row, float* out) override
    {
        store_.ReadRow(row, out);
    }
    void WriteRow(int64_t row, const float* in) override
    {
        store_.WriteRow(row, in);
    }
    void AccumulateRow(int64_t row, float weight, float* out) override
    {
        store_.AccumulateRow(row, weight, out);
    }

    UvmPagedStore& store() { return store_; }

  private:
    UvmPagedStore store_;
};

/**
 * One trainable pooled-embedding table over any RowStore.
 * Supports SGD and row-wise AdaGrad (the optimizers the F1-style
 * hierarchical-memory deployments use).
 */
class TieredEmbeddingBag
{
  public:
    /**
     * @param store Row storage (not owned; must outlive this).
     * @param optimizer SGD or row-wise AdaGrad configuration.
     */
    TieredEmbeddingBag(ops::RowStore* store,
                       const ops::SparseOptimizerConfig& optimizer);

    /** Fused pooled (sum) forward over the store. */
    void Forward(const ops::TableInput& input, size_t batch, Matrix& out);

    /**
     * Exact backward + update: duplicate rows are grouped and merged by
     * ops::RowGrouping (the exact update's grouping), then each unique row
     * is read, stepped, and written back through the store in ascending
     * row order — one read-modify-write per unique row regardless of
     * pooling.
     */
    void BackwardAndUpdate(const ops::TableInput& input, size_t batch,
                           const Matrix& grad);

    ops::RowStore& store() { return *store_; }

  private:
    ops::RowStore* store_;
    ops::SparseOptimizerConfig config_;
    /** Row-wise AdaGrad moments (one float per row). */
    std::vector<float> rowwise_state_;
    std::vector<float> row_buf_;
    std::vector<float> merged_;
    ops::RowGrouping grouping_;
};

}  // namespace neo::cache
