/**
 * @file
 * Inter-batch pipelining driver (Sec. 4.3): while batch i trains, batch
 * i+1's input distribution (the lengths+indices AllToAll) already runs.
 *
 * Two modes:
 *
 *  - Reordered (default ctor): every rank performs PrepareInput(i+1) on
 *    the training communicator before TrainStepPrepared(i). Functionally
 *    this only reorders the collective schedule — no measured overlap —
 *    but it is the mode that needs no extra thread or communicator.
 *
 *  - Overlapped (ctor with a prepare ProcessGroup): PrepareInput(i+1)
 *    genuinely executes concurrently with batch i's compute, on a
 *    dedicated single-thread lane per rank, routing over a second
 *    same-shaped communicator (the *prepare channel*). The dedicated
 *    lane matters twice over: prepare tasks block in the prepare
 *    channel's barriers until every rank's task arrives, so scheduling
 *    them on a shared pool smaller than the world deadlocks (rank 0's
 *    task would hold the only worker while rank 1's waits in the queue);
 *    and the separate communicator keeps the concurrent prepare
 *    collectives out of the training world's barriers (see
 *    DistributedDlrm::AttachPrepareChannel). Push hands the prepared
 *    input off at the end of the call, so at most one prepare is ever in
 *    flight and the caller's batch stays borrowed only within Push.
 *
 * Both modes leave the numerical results bitwise identical to the
 * unpipelined schedule (verified by tests): routing is a pure function
 * of the batch, and the training collectives run in the same order on
 * the same communicator either way.
 *
 * Pipelined steps run under the same StepTransaction rollback/retry
 * machinery as TrainStepWithRecovery — a mid-step failure rolls the
 * partial sparse/dense mutations back before any retry, and an
 * unrecoverable failure surfaces as comm::RankFailure with clean
 * pre-step state for elastic recovery.
 */
#pragma once

#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "core/distributed_trainer.h"

namespace neo::core {

/** Two-stage pipeline over a DistributedDlrm. */
class PipelinedTrainer
{
  public:
    /** Reordered mode: prepare and train on the training communicator. */
    explicit PipelinedTrainer(DistributedDlrm& trainer)
        : trainer_(trainer) {}

    /**
     * Overlapped mode: prepare runs on a dedicated background lane over
     * `prepare_pg` (attached to the trainer as its prepare channel).
     * Every rank of the training world must construct its pipeline with
     * its rank's group of the same prepare world, and the prepare world
     * must outlive this object.
     */
    PipelinedTrainer(DistributedDlrm& trainer,
                     comm::ProcessGroup& prepare_pg);

    /**
     * Feed the next local batch. The batch's input distribution runs
     * immediately (overlapped mode: concurrently with the training
     * below); the PREVIOUS batch (if any) is trained.
     *
     * @return The previous batch's global mean loss, or nullopt on the
     *   first call (pipeline priming).
     */
    std::optional<double> Push(const data::Batch& local_batch);

    /** Drain: train the last prepared batch. */
    std::optional<double> Flush();

    /**
     * Drop the prepared batch without training it. Used when abandoning
     * a poisoned world before elastic recovery (core/elastic.h): the
     * pending input was prepared against the old world's sharding and
     * cannot be replayed on the survivor trainer. No prepare is ever in
     * flight between Push calls, so this is a plain drop.
     */
    void Reset() { pending_.reset(); }

    /** True when constructed with a prepare channel. */
    bool overlapped() const { return lane_ != nullptr; }

    /** Number of completed training steps. */
    uint64_t steps_completed() const { return steps_completed_; }

  private:
    /**
     * Train the pending batch: transactional retry when the trainer's
     * options ask for it, raw TrainStepPrepared otherwise. Throws
     * comm::RankFailure (after rollback) when the step cannot complete.
     */
    double TrainPending();

    DistributedDlrm& trainer_;
    std::optional<DistributedDlrm::PreparedInput> pending_;
    /** Dedicated prepare lane; null in reordered mode. */
    std::unique_ptr<ThreadPool> lane_;
    uint64_t steps_completed_ = 0;
};

}  // namespace neo::core
