/**
 * @file
 * serve_open: a 2-rank serve::Server driven open loop. One generator
 * thread submits Poisson arrivals at their due times; one collector
 * thread takes the responses in submission order and stamps when it saw
 * each, on the benchmark's clock. Afterwards a probe set is re-scored
 * one request at a time, and an InferenceEngine probe replays the same
 * requests to time Forward and read the tiered cache's hit rate.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "bench.h"
#include "comm/threaded_process_group.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/loss.h"

namespace perfbench {

using namespace neo;

namespace {

/** Fixed batcher and engine settings of the served configuration. */
constexpr size_t kMaxBatch = 16;
constexpr int64_t kMaxDelayUs = 4000;
/** Shards at least this large serve through the tiered cache path. */
constexpr size_t kDdrThresholdBytes = 8u << 20;
/** Open-loop warm-up before the measured phase (builds engine state). */
constexpr double kWarmupSeconds = 0.5;
/** Requests re-scored one at a time after the fixed-rate phase. */
constexpr size_t kProbeSet = 64;
/** Engine-probe forwards discarded while state and cache warm up. */
constexpr size_t kEngineWarmup = 20;
constexpr size_t kEngineForwards = 400;

serve::ServerOptions
MakeServerOptions()
{
    serve::ServerOptions options;
    options.batcher.max_batch = kMaxBatch;
    options.batcher.max_delay_us = kMaxDelayUs;
    options.max_queue = 1 << 16;
    options.engine.ddr_threshold_bytes = kDdrThresholdBytes;
    options.telemetry_period = std::chrono::milliseconds(0);
    return options;
}

/** Poisson arrival times in [0, duration) at `rate` per second. */
std::vector<double>
Schedule(double rate, double duration, Rng& rng)
{
    std::vector<double> due;
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.NextDouble()) / rate;
        if (t >= duration) {
            return due;
        }
        due.push_back(t);
    }
}

/** Distinct requests; phases cycle through them. */
constexpr size_t kPoolSize = 32768;

/** Requests and labels of every phase, generated before any timing. */
struct RequestPool {
    std::vector<serve::Request> requests;
    std::vector<float> labels;

    const serve::Request& at(size_t i) const
    {
        return requests[i % requests.size()];
    }
    float label(size_t i) const { return labels[i % labels.size()]; }
};

RequestPool
MakePool(const core::DlrmConfig& model, uint64_t seed)
{
    RequestPool pool;
    data::SyntheticCtrDataset dataset(StreamConfig(model, seed));
    while (pool.requests.size() < kPoolSize) {
        const size_t chunk =
            std::min<size_t>(4096, kPoolSize - pool.requests.size());
        const data::Batch batch = dataset.NextBatch(chunk);
        for (size_t i = 0; i < chunk; i++) {
            serve::Request req;
            req.id = pool.requests.size();
            req.dense.assign(batch.dense.Row(i),
                             batch.dense.Row(i) + batch.dense.cols());
            req.sparse = batch.sparse.SliceBatch(i, i + 1);
            pool.requests.push_back(std::move(req));
            pool.labels.push_back(batch.labels[i]);
        }
    }
    return pool;
}

/** True when `r` is a kOk answer on the published version. */
bool
Valid(const serve::Response& r, uint64_t version)
{
    return r.status == serve::ResponseStatus::kOk &&
           r.snapshot_version == version;
}

/**
 * Submit requests[first + k] at due[k] (seconds after the phase origin)
 * from this thread; a collector thread waits for each response in
 * submission order. Seen times of refused or failed requests stay -1.
 */
Phase
RunOpenLoop(serve::Server& server, const RequestPool& pool, size_t first,
            const std::vector<double>& due, double rate, uint64_t version)
{
    Phase ph;
    ph.rate = rate;
    ph.due_s = due;
    const size_t n = due.size();
    ph.sent_s.assign(n, 0.0);
    ph.seen_s.assign(n, -1.0);
    ph.queue_ms.assign(n, 0.0);
    ph.service_ms.assign(n, 0.0);
    ph.score.assign(n, 0.0f);
    ph.ok.assign(n, 0);

    struct Item {
        size_t k;
        std::future<serve::Response> response;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Item> items;
    bool done = false;
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(20);

    std::thread collector([&] {
        while (true) {
            Item item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return done || !items.empty(); });
                if (items.empty()) {
                    return;
                }
                item = std::move(items.front());
                items.pop_front();
            }
            const serve::Response r = item.response.get();
            const size_t k = item.k;
            if (!Valid(r, version)) {
                continue;
            }
            ph.seen_s[k] = Seconds(origin, Clock::now());
            ph.ok[k] = 1;
            ph.score[k] = r.score;
            ph.queue_ms[k] = r.queue_seconds * 1e3;
            ph.service_ms[k] = (r.total_seconds - r.queue_seconds) * 1e3;
        }
    });

    // Lets the collector drain what was submitted, then joins it; runs on
    // every way out of the generator loop.
    const auto finish = [&] {
        {
            std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        cv.notify_one();
        collector.join();
    };
    try {
        for (size_t k = 0; k < n; k++) {
            std::this_thread::sleep_until(
                origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due[k])));
            ph.sent_s[k] = Seconds(origin, Clock::now());
            serve::Ticket ticket = server.Submit(pool.at(first + k));
            if (ticket.admission != serve::Admission::kAccepted) {
                ph.shed++;
                continue;
            }
            std::lock_guard<std::mutex> lock(mutex);
            items.push_back({k, std::move(ticket.response)});
            cv.notify_one();
        }
    } catch (...) {
        finish();
        throw;
    }
    finish();
    return ph;
}

void
Count(const Phase& ph, ServeResult& out)
{
    out.attempted += ph.due_s.size();
    for (uint8_t ok : ph.ok) {
        out.failed += ok ? 0 : 1;
    }
}

/**
 * Replay the pool's requests in order through a fresh 2-rank world of
 * InferenceEngines in batches of `batch`; rank 0 times each Forward
 * between barriers. Also reports the tiered cache's hit rate.
 */
std::vector<double>
EngineProbe(const std::shared_ptr<const serve::ModelSnapshot>& snapshot,
            const RequestPool& pool, size_t batch, double& hit_rate)
{
    batch = std::max<size_t>(kRanks, (batch + kRanks - 1) / kRanks * kRanks);
    const core::DlrmConfig& model = snapshot->config;
    std::vector<std::pair<Matrix, data::KeyedJagged>> batches;
    for (size_t b = 0; b < kEngineForwards; b++) {
        std::vector<serve::Pending> pending(batch);
        for (size_t i = 0; i < batch; i++) {
            pending[i].request = pool.at(b * batch + i);
        }
        Matrix dense;
        data::KeyedJagged sparse;
        serve::Batcher::Merge(pending, 0, model.num_dense,
                              model.tables.size(), dense, sparse);
        batches.emplace_back(std::move(dense), std::move(sparse));
    }
    std::vector<double> forward_ms;
    std::vector<double> hits(kRanks, 0.0);
    const serve::EngineOptions engine_options = MakeServerOptions().engine;
    comm::ThreadedWorld::Run(kRanks, [&](int rank, comm::ProcessGroup& pg) {
        serve::InferenceEngine engine(engine_options, pg);
        std::vector<float> logits;
        for (size_t b = 0; b < batches.size(); b++) {
            pg.Barrier();
            const auto t0 = Clock::now();
            engine.Forward(snapshot, batches[b].first, batches[b].second,
                           logits);
            if (rank == 0 && b >= kEngineWarmup) {
                forward_ms.push_back(Ms(t0, Clock::now()));
            }
        }
        hits[rank] = engine.CacheHitRate();
    });
    hit_rate = (hits[0] + hits[1]) / kRanks;
    return forward_ms;
}

/**
 * The measured phases on a running server: warm-up traffic (the end of
 * set-up), the fixed-rate phase and the probe-set gate.
 */
void
Serve(serve::Server& server, const RequestPool& pool, uint64_t version,
      const ServeOptions& options, const std::vector<double>& warm_due,
      const std::vector<double>& fixed_due, Clock::time_point setup0,
      ServeResult& out)
{
    size_t next = 0;
    Count(RunOpenLoop(server, pool, next, warm_due, options.rate, version),
          out);
    next += warm_due.size();
    out.setup_s = Seconds(setup0, Clock::now());

    // ---- fixed offered rate ----
    obs::MetricsRegistry::Get().Reset();
    const size_t fixed_first = next;
    out.fixed =
        RunOpenLoop(server, pool, next, fixed_due, options.rate, version);
    Count(out.fixed, out);
    out.batch_size_mean = obs::MetricsRegistry::Get()
                              .GetHistogram("neo.serve.batch_size")
                              .GetSnapshot()
                              .mean;

    NormalizedEntropy ne;
    for (size_t k = 0; k < out.fixed.ok.size(); k++) {
        if (out.fixed.ok[k]) {
            ne.Add(out.fixed.score[k], pool.label(fixed_first + k));
        }
    }
    out.served_ne = ne.Value();

    // ---- probe set: re-score alone, compare bitwise with under-load ----
    out.probe_set_matches = true;
    for (size_t k = 0; k < std::min(kProbeSet, out.fixed.ok.size()); k++) {
        out.attempted++;
        serve::Ticket ticket = server.Submit(pool.at(fixed_first + k));
        bool match = ticket.admission == serve::Admission::kAccepted;
        if (match) {
            const serve::Response r = ticket.response.get();
            match = Valid(r, version) && out.fixed.ok[k] &&
                    std::memcmp(&r.score, &out.fixed.score[k],
                                sizeof(float)) == 0;
        }
        if (!match) {
            out.failed++;
            out.probe_set_matches = false;
        }
    }
}

}  // namespace

ServeResult
RunServing(const std::shared_ptr<const serve::ModelSnapshot>& snapshot,
           const ServeOptions& options)
{
    ServeResult out;
    const uint64_t version = snapshot->version;
    Rng rng(options.seed * 7919 + 17);

    // Every schedule and request is generated before anything is timed.
    const std::vector<double> warm_due =
        Schedule(options.rate, kWarmupSeconds, rng);
    const std::vector<double> fixed_due =
        Schedule(options.rate, options.seconds, rng);
    const RequestPool pool = MakePool(snapshot->config, options.seed + 1000);

    // ---- set-up: server, serving world, warm-up traffic ----
    const auto setup0 = Clock::now();
    serve::Server server(snapshot->config.num_dense,
                         snapshot->config.tables.size(), MakeServerOptions());
    server.Publish(snapshot);
    std::exception_ptr world_error;
    std::thread world([&] {
        try {
            comm::ThreadedWorld::Run(
                kRanks, [&](int rank, comm::ProcessGroup& pg) {
                    server.RankLoop(rank, pg);
                });
        } catch (...) {
            world_error = std::current_exception();
        }
    });
    const auto stop_world = [&] {
        server.Stop();
        world.join();
    };
    try {
        Serve(server, pool, version, options, warm_due, fixed_due, setup0,
              out);
    } catch (...) {
        stop_world();
        throw;
    }
    stop_world();
    if (world_error) {
        std::rethrow_exception(world_error);
    }

    out.engine_fwd_ms = EngineProbe(
        snapshot, pool, static_cast<size_t>(std::lround(out.batch_size_mean)),
        out.cache_hit_rate);
    return out;
}

}  // namespace perfbench
