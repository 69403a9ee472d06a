/**
 * @file
 * Abstract row storage for embedding parameters. Training code written
 * against RowStore runs unchanged over a plain HBM-resident table, the
 * 32-way software cache fronting DDR, or UVM-style paging — the
 * hierarchical-memory training mode of Sec. 4.1.3 (used e.g. for online
 * training on fewer nodes).
 *
 * A store only reads and writes whole rows. The pooled lookup and the
 * exact update run over it unchanged: StageRows copies a batch's distinct
 * rows out once for PoolBags, and SparseOptimizer::ApplyGrouped(RowStore&)
 * steps each unique row with one read and one write.
 *
 * Alignment contract: implementations back rows with 64-byte-aligned
 * storage (AlignedVector; see common/aligned.h) so the SIMD microkernels
 * in src/kernels always see cache-line-aligned gather sources. The
 * `out`/`in` pointers passed by callers need not be aligned.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/embedding_table.h"

namespace neo::ops {

/** Row-granular parameter storage interface. */
class RowStore
{
  public:
    virtual ~RowStore() = default;

    virtual int64_t rows() const = 0;
    virtual int64_t dim() const = 0;

    /** Copy row `row` into out[0..dim). */
    virtual void ReadRow(int64_t row, float* out) = 0;

    /** Overwrite row `row` from in[0..dim). */
    virtual void WriteRow(int64_t row, const float* in) = 0;
};

/** RowStore over a plain in-memory EmbeddingTable. */
class PlainRowStore : public RowStore
{
  public:
    /** Wrap a table (owned). */
    explicit PlainRowStore(EmbeddingTable table) : table_(std::move(table))
    {
    }

    int64_t rows() const override { return table_.rows(); }
    int64_t dim() const override { return table_.dim(); }

    void
    ReadRow(int64_t row, float* out) override
    {
        table_.ReadRow(row, out);
    }

    void
    WriteRow(int64_t row, const float* in) override
    {
        table_.WriteRow(row, in);
    }

    EmbeddingTable& table() { return table_; }

  private:
    EmbeddingTable table_;
};

/**
 * A batch's rows staged out of a RowStore for the fused pooled lookup:
 * table row k holds store row rows[k], and indices[i] is the staged row of
 * the batch's i-th index. Reused across batches.
 */
struct StagedRows {
    /** @param dim The store's row width. */
    explicit StagedRows(int64_t dim) : table(1, dim) {}

    /** The batch's distinct store rows, ascending. */
    std::vector<int64_t> rows;
    /** fp32 copies of those rows; grows to the largest batch, never
     *  shrinks. */
    EmbeddingTable table;
    /** The batch's indices, remapped into `table`. */
    std::vector<int64_t> indices;
};

/**
 * Stage `indices` for PoolBags: read each distinct row they name through
 * `store` exactly once, in order of first occurrence, into `staged.table`,
 * and remap the indices onto it. Pooling (staged.table, staged.indices) is
 * then bitwise pooling the store's rows directly, because a store's ReadRow
 * widens exactly as EmbeddingTable::PoolRows does. The rows are copied, not
 * pointed into a cache's slots: one batch can name more distinct rows of a
 * cache set than the set has ways. Throws std::runtime_error on an index
 * outside the store.
 */
void StageRows(RowStore& store, std::span<const int64_t> indices,
               StagedRows& staged);

}  // namespace neo::ops
