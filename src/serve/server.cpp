#include "serve/server.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::serve {

Server::Server(size_t num_dense, size_t num_tables,
               const ServerOptions& options)
    : num_dense_(num_dense),
      num_tables_(num_tables),
      options_(options),
      batcher_(options.batcher)
{
    NEO_REQUIRE(options_.max_queue > 0, "max_queue must be positive");
    if (options_.resume_queue == 0) {
        options_.resume_queue = options_.max_queue / 2;
    }
    NEO_REQUIRE(options_.resume_queue < options_.max_queue,
                "resume_queue must be below max_queue for hysteresis");
    registry_.SetHistoryDepth(options_.version_history);
    if (options_.telemetry_period.count() > 0) {
        obs::SnapshotWriter::Options writer;
        writer.directory = options_.telemetry_dir;
        writer.period = options_.telemetry_period;
        writer.basename = "serve_metrics";
        exposition_.Start(writer);  // inert without a telemetry dir
    }
}

Ticket
Server::Submit(Request request)
{
    auto& metrics = obs::MetricsRegistry::Get();
    Ticket ticket;
    if (batcher_.stopped()) {
        ticket.admission = Admission::kShedStopped;
        metrics.GetCounter("neo.serve.shed_stopped").Add();
        NoteShed();
        return ticket;
    }

    const size_t depth = batcher_.size();
    metrics.GetGauge("neo.serve.queue_depth")
        .Set(static_cast<double>(depth));
    if (shedding_.load()) {
        if (depth <= options_.resume_queue) {
            shedding_.store(false);
        } else {
            ticket.admission = shed_reason_.load();
            metrics
                .GetCounter(ticket.admission == Admission::kShedSlo
                                ? "neo.serve.shed_slo"
                                : "neo.serve.shed_queue")
                .Add();
            NoteShed();
            return ticket;
        }
    }
    if (depth >= options_.max_queue) {
        shedding_.store(true);
        shed_reason_.store(Admission::kShedQueueFull);
        ticket.admission = Admission::kShedQueueFull;
        metrics.GetCounter("neo.serve.shed_queue").Add();
        NoteShed();
        return ticket;
    }
    if (options_.slo_budget_us > 0) {
        const double ewma = ewma_batch_seconds_.load();
        const double batches_ahead = static_cast<double>(
            depth / options_.batcher.max_batch + 1);
        const double wait_estimate_us = batches_ahead * ewma * 1e6;
        if (ewma > 0.0 &&
            wait_estimate_us > static_cast<double>(options_.slo_budget_us)) {
            shedding_.store(true);
            shed_reason_.store(Admission::kShedSlo);
            ticket.admission = Admission::kShedSlo;
            metrics.GetCounter("neo.serve.shed_slo").Add();
            NoteShed();
            return ticket;
        }
    }

    Pending pending;
    pending.request = std::move(request);
    pending.enqueue = std::chrono::steady_clock::now();
    ticket.response = pending.promise.get_future();
    if (!batcher_.Push(std::move(pending))) {
        // Stopped between the check above and the push; the pending (and
        // its promise) died unfulfilled, so reset the future too.
        ticket = Ticket{};
        ticket.admission = Admission::kShedStopped;
        metrics.GetCounter("neo.serve.shed_stopped").Add();
        NoteShed();
        return ticket;
    }
    ticket.admission = Admission::kAccepted;
    metrics.GetCounter("neo.serve.admitted").Add();
    // An admit ends any shed storm: reset the streak and re-arm the
    // one-bundle-per-storm latch.
    shed_streak_.store(0, std::memory_order_relaxed);
    storm_dumped_.store(false, std::memory_order_relaxed);
    const uint64_t admitted =
        admitted_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t shed = shed_total_.load(std::memory_order_relaxed);
    metrics.GetGauge("neo.serve.shed_rate")
        .Set(static_cast<double>(shed) /
             static_cast<double>(admitted + shed));
    return ticket;
}

void
Server::NoteShed()
{
    const uint64_t shed =
        shed_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t admitted = admitted_total_.load(std::memory_order_relaxed);
    obs::MetricsRegistry::Get()
        .GetGauge("neo.serve.shed_rate")
        .Set(static_cast<double>(shed) /
             static_cast<double>(admitted + shed));
    const uint64_t streak =
        shed_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.shed_storm_dump == 0 ||
        streak < options_.shed_storm_dump) {
        return;
    }
    // One bundle per storm: the first thread to cross the threshold wins
    // the latch; everyone else returns.
    bool expected = false;
    if (!storm_dumped_.compare_exchange_strong(expected, true,
                                               std::memory_order_relaxed)) {
        return;
    }
    auto& recorder = obs::FlightRecorder::Get();
    std::string detail =
        "shed storm: " + std::to_string(streak) +
        " consecutive sheds (queue depth " +
        std::to_string(batcher_.size()) + ")";
    // If a fleet router has a straggler suspect, name it: a shed storm
    // on one replica is often the downstream symptom of a slow rank
    // elsewhere soaking up the fleet's dispatch weight.
    auto& metrics = obs::MetricsRegistry::Get();
    if (metrics.GetGauge("neo.fleet.has_suspect").value() >= 1.0) {
        const int suspect = static_cast<int>(
            metrics.GetGauge("neo.fleet.suspect_replica").value());
        detail += "; fleet suspect replica " + std::to_string(suspect);
    }
    recorder.RecordEvent(0, "shed_storm", detail);
    recorder.DumpBundle(0, detail);
}

void
Server::Publish(std::shared_ptr<const ModelSnapshot> snapshot)
{
    registry_.Publish(std::move(snapshot));
}

bool
Server::Prewarm(std::shared_ptr<const ModelSnapshot> snapshot)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot prewarm a null snapshot");
    std::future<bool> done;
    {
        std::lock_guard<std::mutex> lock(warm_mutex_);
        if (!accepting_warm_ || failed_.load() || batcher_.stopped()) {
            return false;
        }
        warm_queue_.push_back(WarmRequest{std::move(snapshot), {}});
        done = warm_queue_.back().promise.get_future();
    }
    return done.get();
}

void
Server::Stop()
{
    batcher_.Stop();
}

void
Server::CompleteBatch(std::vector<Pending>& batch,
                      const std::vector<float>& logits,
                      std::chrono::steady_clock::time_point dispatched,
                      double batch_seconds)
{
    auto& metrics = obs::MetricsRegistry::Get();
    const auto now = std::chrono::steady_clock::now();
    const uint64_t version = slot_.snapshot->version;
    // EWMA of batch wall time feeds the SLO wait estimate. Seeded with
    // the first sample so admission reacts from batch one; stored BEFORE
    // the promises resolve so a client that has its response is
    // guaranteed the estimate is armed. CAS loop rather than load+store:
    // with several worker replicas completing batches concurrently, a
    // plain read-modify-write lets one completion overwrite (lose)
    // another's sample instead of folding both into the average.
    double prev = ewma_batch_seconds_.load(std::memory_order_relaxed);
    double next;
    do {
        next = prev == 0.0 ? batch_seconds
                           : 0.8 * prev + 0.2 * batch_seconds;
    } while (!ewma_batch_seconds_.compare_exchange_weak(
        prev, next, std::memory_order_relaxed));
    // Account before completing, like the EWMA: a client holding its
    // response always finds its batch counted.
    metrics.GetCounter("neo.serve.batches").Add();
    metrics.GetHistogram("neo.serve.batch_seconds").Observe(batch_seconds);
    metrics.GetHistogram("neo.serve.batch_size")
        .Observe(static_cast<double>(batch.size()));
    for (size_t i = 0; i < batch.size(); i++) {
        Response response;
        response.id = batch[i].request.id;
        response.score =
            1.0f / (1.0f + std::exp(-logits[i]));
        response.snapshot_version = version;
        response.queue_seconds =
            std::chrono::duration<double>(dispatched - batch[i].enqueue)
                .count();
        response.total_seconds =
            std::chrono::duration<double>(now - batch[i].enqueue).count();
        metrics.GetHistogram("neo.serve.request_seconds")
            .Observe(response.total_seconds);
        batch[i].promise.set_value(std::move(response));
    }

    // Per-version gauges for the scrape plane: a router watching the
    // exposition can see each model version's throughput and tails and
    // decide when a freshly-published version has warmed up. Only the
    // rank-0 loop thread runs here, so version_stats_ needs no lock.
    // Set after completing: the percentiles copy and sort up to
    // kVersionLatencyWindow latencies twice, which would otherwise delay
    // every response.
    VersionStats* stats = nullptr;
    for (auto& vs : version_stats_) {
        if (vs.version == version) {
            stats = &vs;
            break;
        }
    }
    if (stats == nullptr) {
        version_stats_.push_back(VersionStats{});
        stats = &version_stats_.back();
        stats->version = version;
        stats->first_completion = now;
        if (version_stats_.size() > kVersionStatsKept) {
            version_stats_.pop_front();
            stats = &version_stats_.back();
        }
    }
    for (size_t i = 0; i < batch.size(); i++) {
        const double latency =
            std::chrono::duration<double>(now - batch[i].enqueue).count();
        if (stats->latencies.size() < kVersionLatencyWindow) {
            stats->latencies.push_back(latency);
        } else {
            stats->latencies[stats->next] = latency;
        }
        stats->next = (stats->next + 1) % kVersionLatencyWindow;
    }
    stats->requests += batch.size();
    const std::string prefix =
        "neo.serve.v" + std::to_string(version) + ".";
    const double elapsed =
        std::chrono::duration<double>(now - stats->first_completion)
            .count();
    metrics.GetGauge(prefix + "qps")
        .Set(elapsed > 0.0 ? static_cast<double>(stats->requests) / elapsed
                           : static_cast<double>(stats->requests));
    metrics.GetGauge(prefix + "p50_seconds")
        .Set(Percentile(stats->latencies, 50.0));
    metrics.GetGauge(prefix + "p99_seconds")
        .Set(Percentile(stats->latencies, 99.0));
}

void
Server::CompleteOne(Pending& pending, ResponseStatus status)
{
    Response response;
    response.id = pending.request.id;
    response.status = status;
    response.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pending.enqueue)
            .count();
    obs::MetricsRegistry::Get()
        .GetCounter(std::string("neo.serve.completed_") +
                    ResponseStatusName(status))
        .Add();
    pending.promise.set_value(std::move(response));
}

void
Server::CompleteUnserved(std::vector<Pending>& batch,
                         ResponseStatus status)
{
    for (auto& pending : batch) {
        CompleteOne(pending, status);
    }
    batch.clear();
}

bool
Server::StageServing(std::vector<Pending>& staged,
                     std::vector<Pending>& serving)
{
    const uint64_t want = staged.front().request.pinned_version;
    auto snapshot = want == 0 ? registry_.Current() : registry_.Get(want);
    if (want != 0 && snapshot == nullptr) {
        // Pinned to a version the registry no longer retains: answer
        // every request carrying that pin, keep the rest staged.
        std::vector<Pending> keep;
        keep.reserve(staged.size());
        for (auto& pending : staged) {
            if (pending.request.pinned_version == want) {
                CompleteOne(pending, ResponseStatus::kVersionUnavailable);
            } else {
                keep.push_back(std::move(pending));
            }
        }
        staged.swap(keep);
        return false;
    }
    if (snapshot == nullptr) {
        return false;  // nothing published yet; keep staged and heartbeat
    }
    std::vector<Pending> keep;
    keep.reserve(staged.size());
    for (auto& pending : staged) {
        if (pending.request.pinned_version == want) {
            serving.push_back(std::move(pending));
        } else {
            keep.push_back(std::move(pending));
        }
    }
    staged.swap(keep);
    serving_snapshot_ = std::move(snapshot);
    return true;
}

bool
Server::TakeWarm()
{
    std::lock_guard<std::mutex> lock(warm_mutex_);
    if (warm_queue_.empty()) {
        return false;
    }
    active_warm_ =
        std::make_unique<WarmRequest>(std::move(warm_queue_.front()));
    warm_queue_.pop_front();
    return true;
}

void
Server::DrainWarm()
{
    std::deque<WarmRequest> pending;
    {
        std::lock_guard<std::mutex> lock(warm_mutex_);
        accepting_warm_ = false;
        pending.swap(warm_queue_);
    }
    if (active_warm_) {
        active_warm_->promise.set_value(false);
        active_warm_.reset();
    }
    for (auto& warm : pending) {
        warm.promise.set_value(false);
    }
}

bool
Server::HandleWorldFailure(int rank, comm::ProcessGroup& pg,
                           const comm::RankFailure& failure,
                           std::vector<Pending>& staged,
                           std::vector<Pending>& serving)
{
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.serve.rank_failures").Add();
    if (failure.transient() && options_.recover_timeout.count() > 0 &&
        pg.Recover(options_.recover_timeout)) {
        // All ranks rendezvoused: the world is re-armed and the retained
        // staged/serving groups redispatch on the next iteration.
        // Recomputing an aborted batch is safe — scores are per-sample
        // deterministic — and each promise is still unset.
        metrics.GetCounter("neo.serve.recoveries").Add();
        if (rank == 0) {
            obs::FlightRecorder::Get().RecordEvent(
                rank, "serve_recovered",
                "replica " + std::to_string(options_.replica_id) +
                    " recovered in place after: " + failure.what());
        }
        return true;
    }

    // Permanent (or unrecoverable) failure: quarantine. Fail fast so a
    // fleet router can replay elsewhere instead of waiting on timeouts.
    failed_.store(true);
    batcher_.Stop();
    if (rank != 0) {
        return false;
    }
    // Rank 0 owns every promise: drain the in-flight dispatch group,
    // the staging buffer, and everything still queued as typed
    // kReplicaFailed responses — retryable by the router, never a
    // broken promise.
    size_t drained = serving.size() + staged.size();
    CompleteUnserved(serving, ResponseStatus::kReplicaFailed);
    CompleteUnserved(staged, ResponseStatus::kReplicaFailed);
    serving_snapshot_.reset();
    std::vector<Pending> rest;
    while (batcher_.NextBatch(rest, std::chrono::milliseconds(0))) {
        drained += rest.size();
        CompleteUnserved(rest, ResponseStatus::kReplicaFailed);
    }
    DrainWarm();
    retryable_drained_.fetch_add(drained);
    metrics.GetGauge("neo.serve.replica_failed").Set(1.0);
    auto& recorder = obs::FlightRecorder::Get();
    const std::string detail =
        "replica " + std::to_string(options_.replica_id) +
        " quarantined: " + failure.what() + " (drained " +
        std::to_string(drained) + " requests as retryable)";
    recorder.RecordEvent(rank, "replica_failed", detail);
    recorder.DumpBundle(rank, detail);
    return false;
}

void
Server::RankLoop(int rank, comm::ProcessGroup& pg)
{
    InferenceEngine engine(options_.engine, pg);
    const size_t world = static_cast<size_t>(pg.Size());
    std::vector<Pending> staged;
    std::vector<Pending> serving;
    std::vector<float> logits;

    for (;;) {
        try {
            float cmd = kCmdNoop;
            std::chrono::steady_clock::time_point dispatched;
            if (rank == 0) {
                if (serving.empty() && staged.empty()) {
                    batcher_.NextBatch(staged, options_.heartbeat);
                }
                if (serving.empty() && !staged.empty()) {
                    StageServing(staged, serving);
                }
                if (!serving.empty() && serving_snapshot_) {
                    cmd = kCmdServe;
                    dispatched = std::chrono::steady_clock::now();
                    slot_.snapshot = serving_snapshot_;
                    slot_.pad = (world - serving.size() % world) % world;
                    Batcher::Merge(serving, slot_.pad, num_dense_,
                                   num_tables_, slot_.dense, slot_.sparse);
                } else if (TakeWarm()) {
                    // Idle collective slot: pre-build the next version's
                    // engine state on every rank (traffic keeps flowing
                    // between warm commands, so no latency cliff).
                    cmd = kCmdWarm;
                    slot_.snapshot = active_warm_->snapshot;
                } else if (batcher_.stopped() && batcher_.size() == 0) {
                    // Stopped with no model to answer with (no snapshot
                    // was ever published, or a pinned group lost its
                    // version): complete stragglers with a typed
                    // kStopped response rather than breaking promises.
                    CompleteUnserved(serving, ResponseStatus::kStopped);
                    CompleteUnserved(staged, ResponseStatus::kStopped);
                    DrainWarm();
                    cmd = kCmdStop;
                }
            }
            pg.Broadcast(&cmd, 1, /*root=*/0);
            if (cmd == kCmdStop) {
                break;
            }
            if (cmd == kCmdNoop) {
                continue;
            }
            if (cmd == kCmdWarm) {
                // The broadcast published slot_.snapshot; the barrier
                // returns slot ownership to rank 0 and is the "all ranks
                // warm" edge the Prewarm caller waits on.
                engine.Prefetch(slot_.snapshot);
                pg.Barrier();
                if (rank == 0) {
                    // Count before completing: the Prewarm caller may
                    // read the counter as soon as the promise wakes it.
                    obs::MetricsRegistry::Get()
                        .GetCounter("neo.serve.prewarms")
                        .Add();
                    active_warm_->promise.set_value(true);
                    active_warm_.reset();
                }
                continue;
            }

            // SERVE: the broadcast published slot_ to every rank; pin
            // the snapshot locally so a concurrent Publish cannot free
            // it mid-batch.
            const auto snapshot = slot_.snapshot;
            const auto batch_start = std::chrono::steady_clock::now();
            {
                NEO_TRACE_SPAN("serve_batch", "step");
                engine.Forward(snapshot, slot_.dense, slot_.sparse,
                               logits);
            }
            // Engine's trailing AllGather: every rank is past its slot_
            // reads, so rank 0 may rewrite the slot next iteration.
            if (rank == 0) {
                const double batch_seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - batch_start)
                        .count();
                CompleteBatch(serving, logits, dispatched, batch_seconds);
                serving.clear();
                serving_snapshot_.reset();
            }
        } catch (const comm::RankFailure& failure) {
            if (HandleWorldFailure(rank, pg, failure, staged, serving)) {
                continue;
            }
            return;
        }
    }
}

}  // namespace neo::serve
