#include "core/async_checkpoint.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::core {

AsyncCheckpointer::AsyncCheckpointer(DistributedCheckpointer& ckpt, int rank,
                                     const Options& options)
    : ckpt_(ckpt), options_(options)
{
    NEO_REQUIRE(options_.max_in_flight >= 1,
                "max_in_flight must be at least 1");
    lane_ = std::make_unique<ThreadPool>(1);
    // Tag the flusher thread so its checkpoint_flush spans aggregate into
    // this rank's StepBreakdown (as off-critical-path time).
    lane_->Submit([rank] { obs::Tracer::SetThreadRank(rank); }).get();
}

AsyncCheckpointer::AsyncCheckpointer(DistributedCheckpointer& ckpt, int rank)
    : AsyncCheckpointer(ckpt, rank, Options{})
{
}

AsyncCheckpointer::~AsyncCheckpointer()
{
    try {
        Flush();
    } catch (const std::exception& e) {
        Warn("async checkpoint flush failed in destructor: ", e.what());
    }
    // Join the lane before mutex_/cv_ are destroyed (they are declared
    // after lane_, so they would otherwise die first while the last flush
    // task may still be inside its notify).
    lane_.reset();
}

void
AsyncCheckpointer::WriteBaseline()
{
    Flush();
    ckpt_.WriteBaseline();
}

void
AsyncCheckpointer::WriteDelta()
{
    uint64_t generation = 0;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return in_flight_ < options_.max_in_flight ||
                   error_ != nullptr;
        });
        if (error_ != nullptr) {
            std::exception_ptr error = std::exchange(error_, nullptr);
            std::rethrow_exception(error);
        }
        generation = next_generation_++;
        in_flight_++;
    }

    // The capture is the only part that must see the model frozen at this
    // step; it is also collective, so it stays on the calling thread.
    // On failure (epoch divergence, rank fault) the slot is released and
    // the generation is retired as never-written: no later generation can
    // have been captured yet (we hold the caller's thread), so renumbering
    // is safe and the chain stays hole-free.
    DistributedCheckpointer::DeltaCapture capture;
    try {
        capture = ckpt_.CaptureDelta();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        in_flight_--;
        next_generation_--;
        cv_.notify_all();
        throw;
    }

    auto shared =
        std::make_shared<DistributedCheckpointer::DeltaCapture>(
            std::move(capture));
    lane_->Submit([this, generation, shared] {
        NEO_TRACE_SPAN("checkpoint_flush", "recovery");
        std::exception_ptr failure;
        try {
            bool chain_intact;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                chain_intact = flushed_generation_ == generation - 1;
            }
            // A failed predecessor permanently tears the chain here: this
            // delta's epoch would not be consecutive with the last stored
            // one, so appending it would make the whole chain unreadable.
            NEO_REQUIRE(chain_intact,
                        "dropping delta generation ", generation,
                        ": an earlier delta failed to flush");
            ckpt_.store().AppendDelta(shared->rank,
                                      std::move(shared->bytes));
            obs::MetricsRegistry::Get()
                .GetCounter("neo.core.async_delta_flushes")
                .Add();
        } catch (...) {
            failure = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (failure != nullptr) {
                if (error_ == nullptr) {
                    error_ = failure;
                }
            } else {
                flushed_generation_ = generation;
            }
            in_flight_--;
            // Notify under the lock: a waiter (possibly the destructor's
            // Flush) must not observe in_flight_ == 0 and tear down cv_
            // while this thread is still inside the notify.
            cv_.notify_all();
        }
    });
}

void
AsyncCheckpointer::Flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return in_flight_ == 0; });
    if (error_ != nullptr) {
        std::exception_ptr error = std::exchange(error_, nullptr);
        std::rethrow_exception(error);
    }
}

size_t
AsyncCheckpointer::in_flight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_;
}

uint64_t
AsyncCheckpointer::flushed_generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flushed_generation_;
}

}  // namespace neo::core
