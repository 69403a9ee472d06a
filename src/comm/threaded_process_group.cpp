#include "comm/threaded_process_group.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <sstream>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/straggler.h"
#include "obs/trace.h"

namespace neo::comm {

namespace {

/**
 * Elements per local-reduction chunk. Each element's sum stays in fixed
 * rank order inside the chunk loop, so chunking over the shared pool keeps
 * reductions bit-identical to the serial loop at any thread count.
 */
constexpr size_t kReduceGrain = 4096;

}  // namespace

ThreadedWorld::ThreadedWorld(int size) : ThreadedWorld(size, Options()) {}

ThreadedWorld::ThreadedWorld(int size, Options options)
    : size_(size), options_(options)
{
    NEO_REQUIRE(size >= 1, "world size must be >= 1");
    barrier_entries_.assign(size_, 0);
    ptr_board_.assign(size_, nullptr);
    size_board_.assign(size_, 0);
    a2a_board_.assign(size_, {});
    groups_.reserve(size_);
    for (int r = 0; r < size_; r++) {
        groups_.push_back(std::make_unique<ThreadedProcessGroup>(this, r));
    }
}

ThreadedWorld::~ThreadedWorld() = default;

ProcessGroup&
ThreadedWorld::GetGroup(int rank)
{
    NEO_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
    return *groups_[rank];
}

void
ThreadedWorld::AbortLocked(int rank, const std::string& cause, bool transient)
{
    if (aborted_) {
        return;  // first failure wins; later ones are secondary
    }
    aborted_ = true;
    abort_rank_ = rank;
    abort_cause_ = cause;
    abort_transient_ = transient;
    obs::MetricsRegistry::Get().GetCounter("neo.comm.aborts").Add();
    // First abort wins, so this runs exactly once per failure: leave a
    // post-mortem for the blamed rank while its rings still hold the
    // final collective it entered. Lock order is barrier_mutex_ ->
    // recorder -> registry; neither ever calls back into the world.
    auto& recorder = obs::FlightRecorder::Get();
    recorder.RecordEvent(rank, "abort", cause);
    recorder.DumpBundle(rank, cause);
    barrier_cv_.notify_all();
}

void
ThreadedWorld::Abort(int rank, const std::string& cause, bool transient)
{
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    AbortLocked(rank, cause, transient);
}

bool
ThreadedWorld::aborted() const
{
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    return aborted_;
}

int
ThreadedWorld::aborted_rank() const
{
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    return aborted_ ? abort_rank_ : -1;
}

void
ThreadedWorld::ThrowAbortedLocked() const
{
    throw RankFailure(abort_rank_, abort_cause_, abort_transient_);
}

obs::StragglerDetector&
ThreadedWorld::Detector() const
{
    return options_.detector ? *options_.detector
                             : obs::StragglerDetector::Get();
}

void
ThreadedWorld::Barrier(int rank)
{
    Barrier(rank, options_.barrier_timeout);
}

void
ThreadedWorld::Barrier(int rank, std::chrono::milliseconds timeout)
{
    NEO_TRACE_SPAN_V("barrier_wait", "barrier");
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    if (aborted_) {
        ThrowAbortedLocked();
    }
    barrier_entries_[rank]++;
    const uint64_t generation = barrier_generation_;
    // Straggler signal: how far behind the generation's first arrival
    // each rank shows up. Step wall-clock cannot localize a slow rank
    // under BSP (everyone's step stretches equally while the fast ranks
    // wait right here), but the last one through the door is exactly the
    // rank holding everyone up. A world's first barrier is skipped: its
    // lateness is how far apart the rank threads started, not how slow
    // any rank runs.
    if (generation > 0) {
        double lateness = 0.0;
        if (barrier_waiting_ == 0) {
            barrier_first_arrival_ns_ = obs::NowNs();
        } else {
            lateness = static_cast<double>(obs::NowNs() -
                                           barrier_first_arrival_ns_) /
                       1e9;
        }
        Detector().RecordArrival(rank, lateness);
    }
    if (++barrier_waiting_ == size_) {
        barrier_waiting_ = 0;
        barrier_generation_++;
        barrier_cv_.notify_all();
        return;
    }
    const auto released = [&] {
        return barrier_generation_ != generation || aborted_;
    };
    if (timeout.count() > 0) {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        if (!barrier_cv_.wait_until(lock, deadline, released)) {
            // Deadline expired with the barrier incomplete: blame the
            // rank that has made the least barrier progress (the absent
            // straggler) and poison the world so everyone fails alike.
            // Transient: a straggler may yet arrive, so recovery is
            // worth attempting.
            int straggler = rank;
            uint64_t fewest = barrier_entries_[rank];
            for (int r = 0; r < size_; r++) {
                if (barrier_entries_[r] < fewest) {
                    fewest = barrier_entries_[r];
                    straggler = r;
                }
            }
            std::ostringstream cause;
            cause << "barrier timeout after " << timeout.count()
                  << " ms (stuck at " << fewest << " barrier entries vs "
                  << barrier_entries_[rank] << " on detecting rank " << rank
                  << ")";
            const std::string suspect = Detector().DescribeStraggler();
            if (!suspect.empty()) {
                cause << "; " << suspect;
            }
            AbortLocked(straggler, cause.str(), /*transient=*/true);
        }
    } else {
        barrier_cv_.wait(lock, released);
    }
    // Throw only if THIS barrier is the one that failed. If the
    // generation advanced, the barrier completed (every rank entered)
    // before or concurrently with the abort; this rank must report
    // success and let the next collective's entry check fail instead.
    // Throwing retroactively out of a completed barrier would desync the
    // retry schedule: this rank would replay a step its peers consider
    // finished, and the off-by-one lineup deadlocks the world later.
    if (barrier_generation_ == generation && aborted_) {
        ThrowAbortedLocked();
    }
}

bool
ThreadedWorld::TryRecover(std::chrono::milliseconds timeout)
{
    NEO_TRACE_SPAN("recover", "comm");
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    if (!aborted_) {
        return true;
    }
    const uint64_t generation = recover_generation_;
    if (++recover_waiting_ == size_) {
        recover_waiting_ = 0;
        recover_generation_++;
        obs::FlightRecorder::Get().RecordEvent(
            abort_rank_, "recover", "world recovered after: " + abort_cause_);
        // Full world rendezvoused: clear the poison and restart barrier
        // state so the next collective begins from a clean slate. Entry
        // counters reset too — ranks aborted a multi-barrier collective
        // at different depths, and stale counts would misname stragglers.
        aborted_ = false;
        abort_rank_ = -1;
        abort_cause_.clear();
        abort_transient_ = false;
        barrier_waiting_ = 0;
        barrier_generation_++;
        std::fill(barrier_entries_.begin(), barrier_entries_.end(), 0);
        obs::MetricsRegistry::Get().GetCounter("neo.comm.recoveries").Add();
        barrier_cv_.notify_all();
        return true;
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    const bool recovered = barrier_cv_.wait_until(
        lock, deadline, [&] { return recover_generation_ != generation; });
    if (!recovered) {
        recover_waiting_--;
    }
    return recovered;
}

ThreadedWorld::ShrinkResult
ThreadedWorld::ShrinkAfterFailure(int rank, std::chrono::milliseconds timeout)
{
    NEO_TRACE_SPAN("shrink_world", "recovery");
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    NEO_REQUIRE(aborted_,
                "ShrinkAfterFailure requires a poisoned world (a declared "
                "dead rank)");
    NEO_REQUIRE(size_ >= 2, "cannot shrink a single-rank world");
    NEO_REQUIRE(rank >= 0 && rank < size_ && rank != abort_rank_,
                "only survivors may join a shrink rendezvous");

    ShrinkResult result;
    const uint64_t generation = shrink_generation_;
    shrink_arrived_.push_back(rank);

    // Seal the forming cohort from whoever arrived: sort the members so
    // child ranks compact in old-rank order, and build the child world
    // with no injector — any armed fault specs address ranks in the OLD
    // numbering and would fire at wrong points in the compacted one.
    const auto seal = [&] {
        ShrinkCohort cohort;
        cohort.members = std::move(shrink_arrived_);
        shrink_arrived_.clear();
        std::sort(cohort.members.begin(), cohort.members.end());
        Options child_options = options_;
        child_options.injector = nullptr;
        cohort.world = std::make_unique<ThreadedWorld>(
            static_cast<int>(cohort.members.size()), child_options);
        shrink_cohorts_.push_back(std::move(cohort));
        shrink_generation_++;
        obs::MetricsRegistry::Get().GetCounter("neo.comm.shrinks").Add();
        obs::FlightRecorder::Get().RecordEvent(
            abort_rank_, "shrink",
            "survivor cohort of " +
                std::to_string(shrink_cohorts_.back().members.size()) +
                " sealed after: " + abort_cause_);
        barrier_cv_.notify_all();
    };

    if (shrink_arrived_.size() == static_cast<size_t>(size_) - 1) {
        // Every possible survivor is here (exactly one rank died): seal
        // immediately, no deadline paid.
        seal();
    } else {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        const bool sealed = barrier_cv_.wait_until(
            lock, deadline,
            [&] { return shrink_generation_ != generation; });
        if (!sealed) {
            // Deadline expired with the cohort still open — the k >= 2
            // dead-ranks case, where the all-survivors count can never be
            // reached. The first waiter to wake seals the cohort from the
            // ranks that did arrive (later timed-out waiters see the
            // generation advanced and land in the same cohort)... unless
            // this rank is alone, which is indistinguishable from a total
            // loss: back out and report failure.
            if (shrink_arrived_.size() < 2) {
                shrink_arrived_.erase(
                    std::find(shrink_arrived_.begin(),
                              shrink_arrived_.end(), rank));
                auto& recorder = obs::FlightRecorder::Get();
                const std::string detail =
                    "shrink rendezvous found no peers within " +
                    std::to_string(timeout.count()) + " ms (after: " +
                    abort_cause_ + ")";
                recorder.RecordEvent(rank, "shrink_failed", detail);
                recorder.DumpBundle(rank, detail);
                return result;  // ok = false
            }
            seal();
        }
    }

    // Look up this rank's cohort — index by the arrival generation rather
    // than "latest" so a later shrink round can't hand a slow waiter the
    // wrong world.
    const ShrinkCohort& cohort = shrink_cohorts_[generation];
    const auto member = std::find(cohort.members.begin(),
                                  cohort.members.end(), rank);
    NEO_REQUIRE(member != cohort.members.end(),
                "shrink cohort sealed without rank ", rank,
                " despite its arrival");
    result.ok = true;
    result.new_rank = static_cast<int>(member - cohort.members.begin());
    result.new_size = static_cast<int>(cohort.members.size());
    result.group = &cohort.world->GetGroup(result.new_rank);
    return result;
}

void
ThreadedWorld::Run(int size, const std::function<void(int, ProcessGroup&)>& fn)
{
    Run(size, Options{}, fn);
}

void
ThreadedWorld::Run(int size, const Options& options,
                   const std::function<void(int, ProcessGroup&)>& fn)
{
    ThreadedWorld world(size, options);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(size);
    threads.reserve(size);
    for (int r = 0; r < size; r++) {
        threads.emplace_back([&, r] {
            try {
                // Tag the worker thread so its trace spans carry the rank.
                obs::Tracer::SetThreadRank(r);
                fn(r, world.GetGroup(r));
            } catch (const std::exception& e) {
                errors[r] = std::current_exception();
                // Poison the world so peers unblock with RankFailure
                // instead of hanging at their next barrier. No-op if the
                // world is already poisoned (this is a secondary failure).
                world.Abort(r, e.what());
            } catch (...) {
                errors[r] = std::current_exception();
                world.Abort(r, "unknown exception");
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    // Rethrow the originating rank's exception in preference to the
    // secondary RankFailures it caused on other ranks.
    const int origin = world.aborted_rank();
    if (origin >= 0 && errors[origin]) {
        std::rethrow_exception(errors[origin]);
    }
    for (auto& e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

obs::StragglerVerdict
ThreadedWorld::AnalyzeStragglers() const
{
    return Detector().Analyze();
}

void
ThreadedProcessGroup::MaybeInject(CollectiveOp op, float* payload,
                                  size_t count)
{
    const uint64_t seq = collective_seq_++;
    // Flight-record the op BEFORE the injector gets a chance to kill this
    // rank: a killed rank's last ring entry then names the kill site.
    obs::FlightRecorder::Get().RecordOp(rank_, CollectiveOpName(op),
                                        obs::NowNs());
    FaultInjector* injector = world_->options_.injector;
    if (injector != nullptr) {
        injector->OnCollective(*world_, rank_, seq, op, payload, count);
    }
}

void
ThreadedProcessGroup::Barrier()
{
    NEO_TRACE_SPAN("barrier", "barrier");
    MaybeInject(CollectiveOp::kBarrier, nullptr, 0);
    world_->Barrier(rank_);
    stats_.calls++;
}

void
ThreadedProcessGroup::Barrier(std::chrono::milliseconds timeout)
{
    NEO_TRACE_SPAN("barrier", "barrier");
    MaybeInject(CollectiveOp::kBarrier, nullptr, 0);
    world_->Barrier(rank_, timeout);
    stats_.calls++;
}

void
ThreadedProcessGroup::AllReduceSum(float* data, size_t count)
{
    NEO_TRACE_SPAN("allreduce", "allreduce");
    const int64_t t0 = obs::NowNs();
    ThreadedWorld& w = *world_;
    MaybeInject(CollectiveOp::kAllReduce, data, count);
    if (w.size() > 1 && count > 0) {
        w.ptr_board_[rank_] = data;
        w.size_board_[rank_] = count;
        w.Barrier(rank_);  // pointers published

        if (rank_ == 0) {
            for (int r = 1; r < w.size(); r++) {
                NEO_CHECK(w.size_board_[r] == count,
                          "AllReduce count mismatch across ranks");
            }
            w.reduce_scratch_.resize(count);
        }
        w.Barrier(rank_);  // scratch sized

        // Reduce-scatter phase: this rank owns chunk `rank_` and
        // accumulates it in rank order for determinism. The owned range is
        // further chunked across the shared pool; ranks write disjoint
        // scratch ranges, so intra-op workers compose with the inter-rank
        // threads.
        const size_t n = static_cast<size_t>(w.size());
        const size_t begin = count * static_cast<size_t>(rank_) / n;
        const size_t end = count * static_cast<size_t>(rank_ + 1) / n;
        ParallelFor(begin, end, kReduceGrain, [&](size_t cb, size_t ce) {
            for (size_t i = cb; i < ce; i++) {
                float sum = 0.0f;
                for (int r = 0; r < w.size(); r++) {
                    sum += static_cast<const float*>(w.ptr_board_[r])[i];
                }
                w.reduce_scratch_[i] = sum;
            }
        });
        w.Barrier(rank_);  // scratch complete

        // All-gather phase: everyone copies the full reduced vector.
        std::memcpy(data, w.reduce_scratch_.data(), count * sizeof(float));
        w.Barrier(rank_);  // boards free for reuse
    } else {
        // A zero-length (or single-rank) reduce still synchronizes
        // (collectives are barriers), but moves no data.
        w.Barrier(rank_);
    }
    // Stats and traces account completed collectives only; an aborted
    // collective throws above and must not be double-counted on retry.
    Book(CollectiveOp::kAllReduce, &stats_.allreduce_bytes,
         count * sizeof(float), count * sizeof(float), t0);
}

void
ThreadedProcessGroup::Broadcast(float* data, size_t count, int root)
{
    NEO_TRACE_SPAN("broadcast", "comm");
    const int64_t t0 = obs::NowNs();
    ThreadedWorld& w = *world_;
    NEO_REQUIRE(root >= 0 && root < w.size(), "broadcast root out of range");
    MaybeInject(CollectiveOp::kBroadcast, data, count);
    if (w.size() > 1 && count > 0) {
        w.ptr_board_[rank_] = data;
        w.size_board_[rank_] = count;
        w.Barrier(rank_);

        if (rank_ != root) {
            NEO_CHECK(w.size_board_[root] == count,
                      "Broadcast count mismatch");
            std::memcpy(data, w.ptr_board_[root], count * sizeof(float));
        }
        w.Barrier(rank_);
    } else {
        // Zero-length broadcast synchronizes without touching `data`,
        // which may legitimately be null.
        w.Barrier(rank_);
    }
    Book(CollectiveOp::kBroadcast, &stats_.broadcast_bytes,
         rank_ == root ? count * sizeof(float) : 0, count * sizeof(float),
         t0);
}

void
ThreadedProcessGroup::AllGather(const float* in, size_t count, float* out)
{
    NEO_TRACE_SPAN("allgather", "comm");
    const int64_t t0 = obs::NowNs();
    ThreadedWorld& w = *world_;
    MaybeInject(CollectiveOp::kAllGather, nullptr, 0);
    if (count > 0) {
        w.ptr_board_[rank_] = in;
        w.size_board_[rank_] = count;
        w.Barrier(rank_);

        for (int r = 0; r < w.size(); r++) {
            NEO_CHECK(w.size_board_[r] == count, "AllGather count mismatch");
            std::memcpy(out + static_cast<size_t>(r) * count,
                        w.ptr_board_[r], count * sizeof(float));
        }
        w.Barrier(rank_);
    } else {
        // Zero-length gather synchronizes; `in`/`out` may be null.
        w.Barrier(rank_);
    }
    Book(CollectiveOp::kAllGather, &stats_.allgather_bytes,
         count * sizeof(float), count * sizeof(float), t0);
}

void
ThreadedProcessGroup::ReduceScatterSum(const float* in, size_t count,
                                       float* out)
{
    NEO_TRACE_SPAN("reducescatter", "comm");
    const int64_t t0 = obs::NowNs();
    ThreadedWorld& w = *world_;
    MaybeInject(CollectiveOp::kReduceScatter, nullptr, 0);
    if (count > 0) {
        w.ptr_board_[rank_] = in;
        w.size_board_[rank_] = count;
        w.Barrier(rank_);

        // Validate the shared-count invariant once, not per element.
        for (int r = 0; r < w.size(); r++) {
            NEO_CHECK(w.size_board_[r] == count,
                      "ReduceScatter count mismatch");
        }
        const size_t offset = static_cast<size_t>(rank_) * count;
        ParallelFor(0, count, kReduceGrain, [&](size_t cb, size_t ce) {
            for (size_t i = cb; i < ce; i++) {
                float sum = 0.0f;
                for (int r = 0; r < w.size(); r++) {
                    sum += static_cast<const float*>(
                        w.ptr_board_[r])[offset + i];
                }
                out[i] = sum;
            }
        });
        w.Barrier(rank_);
    } else {
        // Zero-length reduce-scatter synchronizes; buffers may be null.
        w.Barrier(rank_);
    }
    Book(CollectiveOp::kReduceScatter, &stats_.reducescatter_bytes,
         count * sizeof(float) * static_cast<size_t>(w.size()),
         count * sizeof(float) * static_cast<size_t>(w.size()), t0);
}

void
ThreadedProcessGroup::AllToAllBytes(
    const std::vector<std::vector<uint8_t>>& send_buffers,
    std::vector<std::vector<uint8_t>>& recv_buffers)
{
    NEO_TRACE_SPAN("alltoall", "a2a");
    const int64_t t0 = obs::NowNs();
    ThreadedWorld& w = *world_;
    NEO_REQUIRE(send_buffers.size() == static_cast<size_t>(w.size()),
                "AllToAll needs one send buffer per rank");
    MaybeInject(CollectiveOp::kAllToAll, nullptr, 0);
    uint64_t total_send = 0;
    uint64_t offrank_send = 0;
    for (int r = 0; r < w.size(); r++) {
        total_send += send_buffers[r].size();
        if (r != rank_) {
            offrank_send += send_buffers[r].size();
        }
    }

    auto& my_slots = w.a2a_board_[rank_];
    my_slots.resize(w.size());
    for (int r = 0; r < w.size(); r++) {
        my_slots[r] = {send_buffers[r].data(), send_buffers[r].size()};
    }
    w.Barrier(rank_);

    recv_buffers.assign(w.size(), {});
    for (int src = 0; src < w.size(); src++) {
        const auto& [ptr, len] = w.a2a_board_[src][rank_];
        // Empty slots stay empty; `ptr` may be null for an empty vector
        // and must not feed pointer arithmetic.
        if (len > 0) {
            recv_buffers[src].assign(ptr, ptr + len);
        }
    }
    w.Barrier(rank_);

    Book(CollectiveOp::kAllToAll, &stats_.alltoall_bytes, offrank_send,
         total_send, t0);
}

bool
ThreadedProcessGroup::Recover(std::chrono::milliseconds timeout)
{
    return world_->TryRecover(timeout);
}

void
ThreadedProcessGroup::Book(CollectiveOp op, uint64_t* stat_field,
                           uint64_t stat_bytes, uint64_t trace_bytes,
                           int64_t start_ns)
{
    stats_.calls++;
    *stat_field += stat_bytes;
    last_stat_field_ = stat_field;
    last_stat_bytes_ = stat_bytes;
    last_traced_ = false;
    const size_t op_index = static_cast<size_t>(op);
    std::vector<TraceEvent>* trace =
        trace_.load(std::memory_order_acquire);
    if (trace != nullptr) {
        TraceEvent event;
        event.op = op;
        event.bytes = trace_bytes;
        event.start_ns = start_ns;
        event.duration_ns = obs::NowNs() - start_ns;
        event.seq = op_seq_[op_index];
        trace->push_back(event);
        last_traced_ = true;
    }
    op_seq_[op_index]++;
}

void
ThreadedProcessGroup::RebookLastCollective(uint64_t wire_bytes)
{
    if (last_stat_field_ == nullptr) {
        return;
    }
    *last_stat_field_ = *last_stat_field_ - last_stat_bytes_ + wire_bytes;
    last_stat_bytes_ = wire_bytes;
    std::vector<TraceEvent>* trace =
        trace_.load(std::memory_order_acquire);
    if (last_traced_ && trace != nullptr && !trace->empty()) {
        trace->back().bytes = wire_bytes;
    }
}

}  // namespace neo::comm
