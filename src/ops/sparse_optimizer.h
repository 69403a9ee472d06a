/**
 * @file
 * Exact sparse optimizers for embedding tables (Sec. 4.1.2).
 *
 * Large-batch synchronous training updates many embedding rows per step,
 * with duplicates inside a batch. The "exact" strategy groups the sparse
 * update by row id, merges gradients of duplicate rows, and applies a
 * single optimizer step per unique row — making the update independent of
 * input order and free of read-modify-write races, which in turn gives
 * bitwise run-to-run reproducibility even for nonlinear optimizers
 * (AdaGrad, Adam).
 *
 * Determinism contract. A row's update depends only on the multiset of
 * gradients that name it and on its merge order, and the merge order is
 * canonical: lexicographic by gradient value, summed left to right from
 * zero (RowGrouping::MergeGroup). Nothing else enters the arithmetic, so
 * the exact update is bitwise identical across thread counts, SIMD kernel
 * tiers, ranks and permutations of the batch, whatever method finds each
 * row's occurrences. Grouping is therefore free to change (it is a stable
 * LSD radix sort today) without moving a bit.
 *
 * A "naive" per-occurrence application path is kept as an ablation: for
 * nonlinear optimizers it is order-dependent, demonstrating why exactness
 * matters.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/embedding_table.h"
#include "ops/row_store.h"

namespace neo::ops {

/** Supported sparse optimizer algorithms. */
enum class SparseOptimizerKind {
    kSgd,
    kAdaGrad,
    /** AdaGrad with one shared moment per row (Sec. 4.1.4), saving ~50%. */
    kRowWiseAdaGrad,
    kAdam,
};

/** Name string for logging / bench output. */
const char* SparseOptimizerKindName(SparseOptimizerKind kind);

/** Hyper-parameters shared by all sparse optimizers. */
struct SparseOptimizerConfig {
    SparseOptimizerKind kind = SparseOptimizerKind::kRowWiseAdaGrad;
    float learning_rate = 0.01f;
    float eps = 1e-8f;
    float beta1 = 0.9f;   // Adam only
    float beta2 = 0.999f; // Adam only
};

/**
 * One sparse-update row: a row id plus a pointer to its D-wide gradient.
 * Pointers refer into caller-owned gradient storage.
 */
struct SparseGradRef {
    int64_t row;
    const float* grad;
};

/**
 * The occurrences of one sparse update grouped by row id: the single
 * grouping that the exact update and its step's undo log share.
 *
 * Build() runs a stable LSD radix sort of occurrence positions keyed by
 * row id. The digit width comes from the table's row count: ceil(log2
 * rows) key bits split evenly into passes of at most 10 bits, so each pass
 * is one counting sort and grouping is linear in the occurrence count.
 * The result is exactly the permutation a stable comparison sort by row
 * would give: groups in ascending row order, each group's occurrences in
 * input order.
 */
class RowGrouping
{
  public:
    /**
     * Group `grads` for a table of `rows` rows. Validates every row id
     * first and throws std::runtime_error if one lies outside [0, rows),
     * leaving the grouping empty. `grads` must outlive the grouping's use
     * (MergeGroup reads the gradients it points to).
     */
    void Build(std::span<const SparseGradRef> grads, int64_t rows);

    /** Unique rows, ascending: group g updates rows()[g]. */
    std::span<const int64_t> rows() const { return rows_; }

    /**
     * Canonical merge of group `g` into merged[0..dim): sort the group's
     * occurrences lexicographically by gradient value, then sum them in
     * that order starting from zero. Groups own disjoint occurrence
     * ranges, so distinct groups may be merged concurrently.
     */
    void MergeGroup(size_t g, size_t dim, float* merged);

  private:
    std::span<const SparseGradRef> grads_;
    /** Occurrence positions, grouped by row (ascending). */
    std::vector<uint32_t> order_;
    /** Group g's occurrences are order_[group_starts_[g], [g + 1]). */
    std::vector<uint32_t> group_starts_;
    std::vector<int64_t> rows_;
    /** Radix scratch: the other scatter buffer and the digit counts. */
    std::vector<uint32_t> scratch_;
    std::vector<uint32_t> counts_;
};

/** Optimizer state and update logic for a single embedding table. */
class SparseOptimizer
{
  public:
    /**
     * @param config Algorithm and hyper-parameters.
     * @param rows Table hash size (state is allocated accordingly).
     * @param dim Embedding dimension.
     */
    SparseOptimizer(const SparseOptimizerConfig& config, int64_t rows,
                    int64_t dim);

    /**
     * Exact fused update: GroupByRow(grads) then ApplyGrouped(table) —
     * merge duplicate rows, then apply one optimizer step per unique row.
     * Deterministic and order-invariant (see the contract above).
     */
    void ApplyExact(EmbeddingTable& table,
                    std::span<const SparseGradRef> grads);

    /**
     * Group step of ApplyExact: group `grads` by row (RowGrouping::Build)
     * and return the ascending unique rows the apply step will touch, so a
     * caller can snapshot exactly those rows first. Throws, before any
     * state changes, on a row outside the table. The span stays valid
     * until the next GroupByRow or ApplyExact; `grads` must stay alive
     * until ApplyGrouped returns.
     */
    std::span<const int64_t> GroupByRow(std::span<const SparseGradRef> grads);

    /**
     * Apply step of ApplyExact: one merged optimizer step per group of the
     * last GroupByRow. Groups apply in parallel over the shared pool —
     * they touch disjoint table rows and disjoint optimizer state, and
     * each group's merge order is canonical, so the result is
     * bit-identical to the serial path at any thread count.
     */
    void ApplyGrouped(EmbeddingTable& table);

    /**
     * ApplyGrouped through a RowStore (a cache or UVM-paged table): the
     * same groups, canonical merges and per-row step, with one ReadRow and
     * one WriteRow per unique row, run serially in ascending row order
     * because a store's residency state is not thread-safe. Bitwise the
     * parallel table path for a lossless store.
     */
    void ApplyGrouped(RowStore& store);

    /**
     * Naive update: apply one optimizer step per occurrence in the given
     * order. Order-dependent for nonlinear optimizers; kept for ablation.
     */
    void ApplyNaive(EmbeddingTable& table,
                    std::span<const SparseGradRef> grads);

    /** Bytes of optimizer state (the F1 capacity study tracks this). */
    size_t StateBytes() const;

    /**
     * Floats of optimizer state per row in the Export/ImportRowState
     * layout: 0 (SGD), dim (AdaGrad), 1 (row-wise AdaGrad), 2*dim + 1
     * (Adam: m, v, step). Identical across ranks for a given config, so
     * checkpoints and rollback snapshots can move row state between
     * differently-sharded optimizers of the same kind.
     */
    size_t StateFloatsPerRow() const;

    /** Copy row `row`'s state into out[0..StateFloatsPerRow()). */
    void ExportRowState(int64_t row, float* out) const;

    /** Restore row `row`'s state from ExportRowState's layout. */
    void ImportRowState(int64_t row, const float* in);

    const SparseOptimizerConfig& config() const { return config_; }

    /** Row-wise moment accessor (row-wise AdaGrad), for tests. */
    float RowMoment(int64_t row) const;

  private:
    /**
     * Apply groups [g0, g1) of the last GroupByRow: merge each, read its
     * row from `rows` (an EmbeddingTable or a RowStore), step it and write
     * it back.
     */
    template <typename Rows>
    void ApplyGroups(Rows& rows, size_t g0, size_t g1);

    /**
     * One optimizer step of row `row`, whose widened values `w` are
     * updated in place, by the merged gradient `g`.
     */
    void StepRow(int64_t row, const float* g, float* w);

    SparseOptimizerConfig config_;
    int64_t rows_;
    int64_t dim_;

    /** AdaGrad: per-element accumulator (rows x dim). */
    std::vector<float> adagrad_state_;
    /** Row-wise AdaGrad: per-row accumulator (rows). */
    std::vector<float> rowwise_state_;
    /** Adam: first/second moments (rows x dim each) + per-row step. */
    std::vector<float> adam_m_;
    std::vector<float> adam_v_;
    std::vector<uint32_t> adam_step_;

    /** The last GroupByRow's grouping (reused across steps). */
    RowGrouping grouping_;
    /** ApplyNaive's widened-row scratch. */
    std::vector<float> row_buf_;
};

}  // namespace neo::ops
