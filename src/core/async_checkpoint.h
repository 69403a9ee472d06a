/**
 * @file
 * Asynchronous differential checkpointing (Check-N-Run [9], Sec. 4.4):
 * take the store half of a delta write off the training critical path.
 * The step path only pays for CaptureDelta() — the epoch agreement plus
 * a copy of the dirty rows into the delta's stream bytes — while the
 * (possibly disk-backed) store append runs on a dedicated background
 * lane, double-buffered: with max_in_flight = 2 the trainer can already
 * capture delta N+1 while delta N is still flushing.
 *
 * Torn-delta-chain invariant: ReadCheckpoint demands strictly
 * consecutive epochs per rank, so a delta chain with a hole is
 * unreadable past the hole. Every capture is therefore tagged with a
 * write generation, and a flush task appends to the store only if every
 * earlier generation flushed successfully. If flush G fails, generations
 * G+1... are dropped (not appended) and the failure is rethrown from the
 * next WriteDelta()/Flush() — RestoreInto can still read the chain up to
 * G-1, and never sees a chain with a missing link.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "core/checkpoint.h"

namespace neo::core {

/** Double-buffered async wrapper around a DistributedCheckpointer. */
class AsyncCheckpointer
{
  public:
    struct Options {
        /**
         * Captured-but-unflushed deltas allowed before WriteDelta()
         * blocks (backpressure). 1 = flush strictly one at a time
         * (still off the step path); 2 = classic double buffering.
         */
        size_t max_in_flight = 2;
    };

    /**
     * @param ckpt The synchronous checkpointer to wrap (not owned; must
     *   outlive this object). Callers must not mix their own Write*()
     *   calls on `ckpt` with this wrapper's while deltas are in flight.
     * @param rank Rank tag for the flusher lane's trace spans, so
     *   background flush time aggregates into this rank's breakdown.
     */
    AsyncCheckpointer(DistributedCheckpointer& ckpt, int rank,
                      const Options& options);
    AsyncCheckpointer(DistributedCheckpointer& ckpt, int rank);

    /** Drains in-flight flushes; a flush failure is logged, not thrown. */
    ~AsyncCheckpointer();

    AsyncCheckpointer(const AsyncCheckpointer&) = delete;
    AsyncCheckpointer& operator=(const AsyncCheckpointer&) = delete;

    /**
     * Full baseline, synchronously (collective). Drains in-flight deltas
     * first so the baseline supersedes a fully-flushed chain.
     */
    void WriteBaseline();

    /**
     * Delta write with the blocking half deferred (collective on the
     * capture). Blocks only when max_in_flight captures are already
     * unflushed. Rethrows the first earlier flush failure, if any.
     */
    void WriteDelta();

    /**
     * Block until every enqueued delta reached the store. Rethrows (and
     * clears) the first flush failure. Call before reading the store
     * (RestoreInto / SnapshotFromStore) — an unflushed delta is not
     * torn, it is simply not written yet.
     */
    void Flush();

    /** Deltas captured but not yet (successfully) in the store. */
    size_t in_flight() const;

    /** Generations appended to the store so far. */
    uint64_t flushed_generation() const;

  private:
    DistributedCheckpointer& ckpt_;
    Options options_;
    /** Single-thread flusher; one lane keeps appends in capture order. */
    std::unique_ptr<ThreadPool> lane_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    size_t in_flight_ = 0;
    /** Generation tag handed to the next capture (1-based). */
    uint64_t next_generation_ = 1;
    /** Highest generation whose bytes reached the store. */
    uint64_t flushed_generation_ = 0;
    /** First flush failure; later generations refuse to append. */
    std::exception_ptr error_;
};

}  // namespace neo::core
