/**
 * @file
 * Fused multi-table pooled embedding lookup (Sec. 4.1.1, FBGEMM-style).
 *
 * DLRMs have hundreds to thousands of embedding tables; launching one
 * lookup per table wastes parallelism and launch overhead. The collection
 * processes all local tables in one fused call over the combined
 * lengths+indices input format (Sec. 4.4), and fuses the backward pass with
 * the sparse optimizer so per-occurrence gradients are never materialized
 * to memory (saving a factor of the pooling size L).
 */
#pragma once

#include <span>
#include <vector>

#include "ops/embedding_table.h"
#include "ops/sparse_optimizer.h"
#include "tensor/matrix.h"

namespace neo::ops {

/**
 * One table's sparse input for a batch, in lengths format:
 * lengths[b] = number of indices for sample b; indices holds the
 * concatenation of all samples' indices.
 */
struct TableInput {
    std::span<const uint32_t> lengths;
    std::span<const int64_t> indices;
};

/** One table's share of a fused pooled lookup (PoolBags). */
struct PoolJob {
    const EmbeddingTable* table;
    /** lengths.size() is the job's batch. */
    TableInput input;
    /** Resized to batch x table dim and overwritten. */
    Matrix* out;
};

/**
 * The fused pooled lookup (sum pooling) over several tables: out row b of
 * each job is the sum of its sample b's rows, in occurrence order. Work is
 * split into fixed (job, 64-sample) chunks that write disjoint output rows
 * and run in parallel over the shared pool; every bag goes through
 * EmbeddingTable::PoolRows. The result is therefore bitwise the serial
 * chain of AccumulateRow(weight = 1) calls, at any thread count and on any
 * kernel tier.
 */
void PoolBags(std::span<const PoolJob> jobs);

/**
 * The per-occurrence gradients of one table's sum-pooled lookup over
 * `batch` samples: every index occurrence of sample b gets grad.Row(b),
 * in occurrence order. `refs` is overwritten and points into `grad`.
 */
void CollectGrads(const TableInput& input, size_t batch, const Matrix& grad,
                  std::vector<SparseGradRef>& refs);

/** Shape/precision spec for one table in a collection. */
struct TableSpec {
    int64_t rows = 0;
    int64_t dim = 0;
    Precision precision = Precision::kFp32;
};

/**
 * A set of embedding tables trained together with a shared sparse-optimizer
 * configuration (each table gets its own optimizer state).
 */
class EmbeddingBagCollection
{
  public:
    /**
     * @param specs Table shapes.
     * @param optimizer Shared optimizer hyper-parameters.
     * @param seed Base seed; table t initializes from TableSeed(seed, t)
     *   with the shard-stable scheme (EmbeddingTable::InitDeterministic).
     */
    EmbeddingBagCollection(const std::vector<TableSpec>& specs,
                           const SparseOptimizerConfig& optimizer,
                           uint64_t seed);

    /** Per-table seed derivation shared with the distributed trainer. */
    static uint64_t TableSeed(uint64_t base_seed, size_t table);

    size_t NumTables() const { return tables_.size(); }
    EmbeddingTable& table(size_t t) { return tables_[t]; }
    const EmbeddingTable& table(size_t t) const { return tables_[t]; }
    SparseOptimizer& optimizer(size_t t) { return optimizers_[t]; }

    /**
     * Fused forward: sum-pool each table's rows per sample.
     *
     * @param inputs One TableInput per table (lengths sized `batch`).
     * @param batch Number of samples.
     * @param outputs Resized to one batch x dim_t matrix per table.
     */
    void Forward(std::span<const TableInput> inputs, size_t batch,
                 std::vector<Matrix>& outputs) const;

    /**
     * Fused backward + exact optimizer update. For sum pooling the
     * gradient of every index occurrence of sample b equals grads[t].Row(b);
     * occurrences are merged per row before the optimizer step.
     */
    void BackwardAndUpdate(std::span<const TableInput> inputs, size_t batch,
                           const std::vector<Matrix>& grads);

    /** Ablation: per-occurrence (order-dependent) update path. */
    void BackwardAndUpdateNaive(std::span<const TableInput> inputs,
                                size_t batch,
                                const std::vector<Matrix>& grads);

    /** Total parameter bytes across tables. */
    size_t ParameterBytes() const;

    /** Total optimizer-state bytes across tables. */
    size_t OptimizerStateBytes() const;

    /** Serialize all tables (not optimizer state). */
    void Save(BinaryWriter& writer) const;

    /** Restore table parameters from a checkpoint written by Save(). */
    void Load(BinaryReader& reader);

  private:
    std::vector<EmbeddingTable> tables_;
    std::vector<SparseOptimizer> optimizers_;
};

}  // namespace neo::ops
