/**
 * @file
 * Transactional training steps: a StepTransaction captures, just before
 * each mutation, the state a training step is about to change — the sparse
 * rows the batch touches (with their optimizer row state) and the dense
 * MLP parameters + dense optimizer state. If the step fails mid-apply
 * (e.g. a peer dies between the sparse and dense updates), Rollback()
 * restores the captured state bit-exactly, upgrading
 * TrainStepWithRecovery's retry semantics from at-least-once to
 * exactly-once: a retried step produces losses bit-identical to a
 * fault-free run instead of double-applying partial updates.
 *
 * The capture is the in-memory analogue of the differential checkpoint
 * (Sec. 4.4): only touched rows are saved, so the undo log is
 * batch-sized, not table-sized.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/sparse_optimizer.h"

namespace neo::core {

class DistributedDlrm;

/**
 * The buffers a StepTransaction fills. The trainer owns one and lends it
 * to every transaction, and Commit empties the buffers without freeing
 * them, so steady-state steps reuse the same capacity instead of
 * allocating (and page-faulting in) a fresh undo log each step.
 */
struct UndoLog {
    /** Pre-image of the rows one shard's update is about to touch. */
    struct Rows {
        bool captured = false;
        /** Unique touched rows, ascending (local row ids). */
        std::vector<int64_t> rows;
        /** Row values, rows.size() x dim. */
        std::vector<float> values;
        /** Optimizer row state, rows.size() x StateFloatsPerRow. */
        std::vector<float> opt_state;
    };
    std::vector<Rows> shards;
    std::vector<Rows> dp;
    /** Pre-image of the dense MLPs + dense optimizer. */
    bool dense_captured = false;
    std::vector<uint8_t> dense;
};

/**
 * RAII undo log for one training-step attempt. Construction registers the
 * transaction with the trainer, whose update phases then call the
 * Capture* hooks immediately before mutating state; destruction detaches.
 * Rollback only happens on an explicit Rollback() call — a destructor
 * that silently rolled back would hide bugs in the retry loop.
 */
class StepTransaction
{
  public:
    /** Attach to `trainer` (which must not already have a transaction). */
    explicit StepTransaction(DistributedDlrm& trainer);
    ~StepTransaction();

    StepTransaction(const StepTransaction&) = delete;
    StepTransaction& operator=(const StepTransaction&) = delete;

    /**
     * Restore every captured snapshot: sparse rows + their optimizer
     * state for each captured shard/DP table, and the dense blob if the
     * dense apply had been reached. Safe after partial capture (phases
     * the attempt never reached are simply not restored — they were
     * never mutated). Adds one to `neo.core.rollbacks` and the restored
     * sparse rows to `neo.core.rollback_rows`.
     */
    void Rollback();

    /** Discard the captured state (the step committed). */
    void Commit();

    /** Rows captured across all shards and DP tables so far. */
    uint64_t captured_rows() const;

    /** True once CaptureDense() ran for this attempt. */
    bool dense_captured() const { return log_.dense_captured; }

    /** Rows captured for local shard i: unique, ascending (empty until
     *  its capture). */
    std::span<const int64_t> shard_rows(size_t shard_index) const;

    /** Rows captured for DP table i: unique, ascending. */
    std::span<const int64_t> dp_rows(size_t dp_index) const;

  private:
    friend class DistributedDlrm;

    /**
     * Capture shard i's touched rows (called before its sparse apply).
     * `rows` are the update's unique rows in ascending order, as
     * SparseOptimizer::GroupByRow returns them.
     */
    void CaptureShardRows(size_t shard_index, std::span<const int64_t> rows);

    /** Capture DP table i's touched rows (unique, ascending). */
    void CaptureDpRows(size_t dp_index, std::span<const int64_t> rows);

    /** Capture the dense MLPs + optimizer (called before dense apply). */
    void CaptureDense();

    /** Shared row-capture logic for shards and DP tables. */
    static void CaptureRows(const ops::EmbeddingTable& table,
                            const ops::SparseOptimizer& optimizer,
                            std::span<const int64_t> rows,
                            UndoLog::Rows& snapshot);

    DistributedDlrm& trainer_;
    /** The trainer's reusable buffers (see UndoLog). */
    UndoLog& log_;
};

}  // namespace neo::core
