#include "core/pipeline.h"

#include <future>

#include "obs/trace.h"

namespace neo::core {

PipelinedTrainer::PipelinedTrainer(DistributedDlrm& trainer,
                                   comm::ProcessGroup& prepare_pg)
    : trainer_(trainer)
{
    trainer_.AttachPrepareChannel(prepare_pg);
    lane_ = std::make_unique<ThreadPool>(1);
    // Tag the lane thread with this rank so its spans (the overlapped
    // prepare) aggregate into this rank's StepBreakdown, where their
    // intersection with step spans becomes the overlap_saved term.
    const int rank = prepare_pg.Rank();
    lane_->Submit([rank] { obs::Tracer::SetThreadRank(rank); }).get();
}

double
PipelinedTrainer::TrainPending()
{
    NEO_TRACE_SPAN("pipeline_step", "step");
    StepResult result = trainer_.TrainStepPreparedWithRecovery(*pending_);
    if (!result.ok) {
        // Surface the unrecoverable failure as comm::RankFailure — but
        // only after the transaction rolled the partial step back, so
        // elastic recovery sees clean pre-step state.
        const StepFailure& last = result.failures.back();
        throw comm::RankFailure(last.failed_rank, last.cause,
                                last.transient);
    }
    steps_completed_++;
    return result.loss;
}

std::optional<double>
PipelinedTrainer::Push(const data::Batch& local_batch)
{
    NEO_TRACE_SPAN("pipeline_push", "step");
    if (lane_ == nullptr) {
        try {
            // Stage 1: distribute the incoming batch's sparse inputs (the
            // AllToAll that would overlap compute on hardware).
            DistributedDlrm::PreparedInput next =
                trainer_.PrepareInput(local_batch);

            // Stage 2: train the previously prepared batch. Named
            // differently from "train_step" because a pipelined step
            // excludes its own input distribution (that happened one Push
            // earlier); pass step_name="pipeline_step" to StepBreakdown
            // for pipelined runs.
            std::optional<double> loss;
            if (pending_.has_value()) {
                loss = TrainPending();
            }
            pending_ = std::move(next);
            return loss;
        } catch (const comm::RankFailure&) {
            // The prepared batch's place in the collective schedule is
            // lost once the world aborts; drop it so a recovered pipeline
            // restarts from a clean prime instead of replaying half a
            // schedule.
            pending_.reset();
            throw;
        }
    }

    // Overlapped mode: batch i+1's input AllToAll runs on the prepare
    // channel from the lane thread while this thread trains batch i.
    std::future<DistributedDlrm::PreparedInput> next =
        lane_->Submit([this, &local_batch] {
            return trainer_.PrepareInputOverlapped(local_batch);
        });
    std::optional<double> loss;
    try {
        if (pending_.has_value()) {
            loss = TrainPending();
        }
    } catch (...) {
        // Join the in-flight prepare before unwinding: the lane task
        // borrows `local_batch`, which dies with the caller's frame. A
        // concurrent prepare-channel error is secondary to the training
        // failure being thrown.
        try {
            next.get();
        } catch (...) {
        }
        pending_.reset();
        throw;
    }
    try {
        // Completion handoff: install batch i+1 only after both the
        // training step and its prepare finished.
        pending_ = next.get();
    } catch (...) {
        pending_.reset();
        throw;
    }
    return loss;
}

std::optional<double>
PipelinedTrainer::Flush()
{
    if (!pending_.has_value()) {
        return std::nullopt;
    }
    try {
        const double loss = TrainPending();
        pending_.reset();
        return loss;
    } catch (const comm::RankFailure&) {
        pending_.reset();
        throw;
    }
}

}  // namespace neo::core
