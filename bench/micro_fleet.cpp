/**
 * @file
 * Fleet failover microbenchmark: a 3-replica serving fleet behind the
 * FleetRouter scores a closed-loop request stream twice — once steady,
 * once with the fault injector killing a rank inside one replica's
 * pooled AllToAll mid-run. It reports sustained QPS and p50/p99 request
 * latency for both phases, the measured availability (killed-phase QPS
 * over steady QPS — capacity retained through the death), and the
 * worst-case replayed-request latency, diffed against the
 * sim::FleetModel failover/availability prediction. The run FAILS if
 * any request sheds, completes non-kOk, or scores differently from the
 * reference model — so the smoke run is also a zero-loss failover
 * check.
 *
 * Usage: micro_fleet [--quick] [--out=PATH]
 *   --quick  fewer requests / smaller model (smoke-test mode)
 *   --out    JSON output path (default BENCH_fleet.json in the cwd)
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/threaded_process_group.h"
#include "common/stats.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"
#include "sim/fleet_model.h"

namespace {

using namespace neo;

constexpr int kWorkers = 2;
constexpr int kReplicas = 3;

float
Sigmoid(float logit)
{
    return 1.0f / (1.0f + std::exp(-logit));
}

struct PhaseResult {
    size_t requests = 0;
    double qps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
    double wall_seconds = 0.0;
    uint64_t failovers = 0;
    uint64_t retries = 0;
};

/** Drive `num_requests` through the router from a closed loop of 32
 *  clients, checking every response against the reference scores. */
bool
RunPhase(serve::FleetRouter& router, const data::Batch& pool,
         const std::vector<float>& ref_scores, size_t warmup,
         size_t num_requests, PhaseResult& result)
{
    const size_t inflight = 32;
    std::vector<serve::Ticket> window;
    std::vector<size_t> window_samples;
    std::vector<double> latencies;
    latencies.reserve(num_requests);

    // Unmeasured warm-up: engines build, caches fill, allocator and
    // dispatch settle — so the two measured phases start equal.
    for (size_t w = 0; w < warmup; w++) {
        serve::Request req;
        req.id = w;
        const size_t i = w % pool.dense.rows();
        req.dense.assign(pool.dense.Row(i),
                         pool.dense.Row(i) + pool.dense.cols());
        req.sparse = pool.sparse.SliceBatch(i, i + 1);
        serve::Ticket ticket = router.Submit(std::move(req));
        if (ticket.admission != serve::Admission::kAccepted) {
            std::fprintf(stderr, "FAIL: warm-up request %zu shed\n", w);
            return false;
        }
        window.push_back(std::move(ticket));
        if (window.size() == inflight || w + 1 == warmup) {
            for (auto& t : window) {
                if (t.response.get().status !=
                    serve::ResponseStatus::kOk) {
                    std::fprintf(stderr,
                                 "FAIL: warm-up request failed\n");
                    return false;
                }
            }
            window.clear();
        }
    }

    size_t next = 0;
    size_t completed = 0;
    const serve::FleetRouter::Totals before = router.totals();
    const auto start = std::chrono::steady_clock::now();
    while (completed < num_requests) {
        if (next < num_requests && window.size() < inflight) {
            serve::Request req;
            req.id = next;
            const size_t i = next % pool.dense.rows();
            req.dense.assign(pool.dense.Row(i),
                             pool.dense.Row(i) + pool.dense.cols());
            req.sparse = pool.sparse.SliceBatch(i, i + 1);
            serve::Ticket ticket = router.Submit(std::move(req));
            if (ticket.admission != serve::Admission::kAccepted) {
                std::fprintf(stderr, "FAIL: request %zu shed\n", next);
                return false;
            }
            window.push_back(std::move(ticket));
            window_samples.push_back(i);
            next++;
            continue;
        }
        serve::Response response = window.front().response.get();
        const size_t sample = window_samples.front();
        window.erase(window.begin());
        window_samples.erase(window_samples.begin());
        if (response.status != serve::ResponseStatus::kOk) {
            std::fprintf(stderr, "FAIL: request %llu completed %s\n",
                         static_cast<unsigned long long>(response.id),
                         serve::ResponseStatusName(response.status));
            return false;
        }
        if (response.score != ref_scores[sample]) {
            std::fprintf(stderr,
                         "FAIL: request %llu score %.9g != ref %.9g\n",
                         static_cast<unsigned long long>(response.id),
                         response.score, ref_scores[sample]);
            return false;
        }
        latencies.push_back(response.total_seconds * 1e6);
        completed++;
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const serve::FleetRouter::Totals after = router.totals();
    result.requests = completed;
    result.qps = static_cast<double>(completed) / result.wall_seconds;
    result.p50_us = Percentile(latencies, 50.0);
    result.p99_us = Percentile(latencies, 99.0);
    result.max_us = Percentile(latencies, 100.0);
    result.failovers = after.failovers - before.failovers;
    result.retries = after.retries - before.retries;
    return true;
}

/** Build a fleet, run one phase, tear it down. `injector` (optional)
 *  is wired into replica 1's world. */
bool
RunFleet(const core::DlrmConfig& model,
         const std::shared_ptr<const serve::ModelSnapshot>& snapshot,
         const data::Batch& pool, const std::vector<float>& ref_scores,
         size_t warmup, size_t num_requests,
         comm::FaultInjector* injector, PhaseResult& result)
{
    std::vector<std::unique_ptr<serve::ReplicaHost>> hosts;
    for (int r = 0; r < kReplicas; r++) {
        serve::ServerOptions sopts;
        sopts.replica_id = r;
        sopts.batcher.max_batch = 16;
        sopts.batcher.max_delay_us = 200;
        sopts.max_queue = 1 << 14;
        sopts.heartbeat = std::chrono::milliseconds(5);
        comm::ThreadedWorld::Options wopts;
        if (r == 1) {
            wopts.injector = injector;
        }
        hosts.push_back(std::make_unique<serve::ReplicaHost>(
            model.num_dense, model.tables.size(), kWorkers, sopts,
            wopts));
        hosts.back()->server().Publish(snapshot);
    }
    serve::RouterOptions ropts;
    ropts.health_period = std::chrono::milliseconds(5);
    serve::FleetRouter router(ropts);
    for (int r = 0; r < kReplicas; r++) {
        router.AddReplica("replica" + std::to_string(r),
                          &hosts[r]->server(), &hosts[r]->world());
    }

    bool ok = RunPhase(router, pool, ref_scores, warmup, num_requests,
                       result);
    if (ok && injector != nullptr) {
        if (injector->Fired().size() != 1) {
            std::fprintf(stderr, "FAIL: injected kill never fired\n");
            ok = false;
        } else if (result.failovers == 0) {
            std::fprintf(stderr, "FAIL: kill fired but no failover\n");
            ok = false;
        } else if (router.HealthyCount() != kReplicas - 1) {
            std::fprintf(stderr,
                         "FAIL: expected %d healthy replicas, got %zu\n",
                         kReplicas - 1, router.HealthyCount());
            ok = false;
        }
    }
    router.Stop();
    for (auto& host : hosts) {
        host->Stop();
    }
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_fleet.json";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    const size_t num_requests = quick ? 400 : 4000;
    const size_t warmup = num_requests / 8;
    // Kill replica 1 partway through its share of the killed phase —
    // past the batches the warm-up traffic consumes: each served batch
    // is 3 AllToAll calls (lengths, indices, pooled), so batch k's
    // pooled exchange is call_index 3k+2.
    const size_t kill_batch = quick ? 12 : 60;
    const core::DlrmConfig model =
        quick ? core::MakeSmallDlrmConfig(4, 200, 8)
              : core::MakeSmallDlrmConfig(8, 4000, 32);

    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = 64;
    planner_options.hbm_bytes_per_worker = 1e12;
    sharding::ShardingPlanner planner(planner_options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);

    // Train briefly, cut the serving snapshot, and score the request
    // pool in-trainer for the bitwise reference.
    const size_t pool_size = 64;
    data::SyntheticCtrDataset pool_stream(core::MakeDatasetConfig(model, 99));
    const data::Batch pool = pool_stream.NextBatch(pool_size);
    std::shared_ptr<const serve::ModelSnapshot> snapshot;
    std::vector<float> ref_scores(pool_size);
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(core::MakeDatasetConfig(model, 99));
        const size_t local_batch = 16;
        for (int s = 0; s < 4; s++) {
            data::Batch global = dataset.NextBatch(local_batch * kWorkers);
            data::Batch local;
            const size_t begin = rank * local_batch;
            local.dense = Matrix(local_batch, global.dense.cols());
            for (size_t b = 0; b < local_batch; b++) {
                for (size_t c = 0; c < global.dense.cols(); c++) {
                    local.dense(b, c) = global.dense(begin + b, c);
                }
            }
            local.sparse =
                global.sparse.SliceBatch(begin, begin + local_batch);
            local.labels.assign(
                global.labels.begin() + begin,
                global.labels.begin() + begin + local_batch);
            trainer.TrainStep(local);
        }
        auto snap = serve::SnapshotFromTrainer(trainer, plan, 1);
        if (rank == 0) {
            snapshot = snap;
        }
        const size_t local_pool = pool_size / kWorkers;
        data::Batch slice;
        const size_t begin = rank * local_pool;
        slice.dense = Matrix(local_pool, pool.dense.cols());
        for (size_t b = 0; b < local_pool; b++) {
            for (size_t c = 0; c < pool.dense.cols(); c++) {
                slice.dense(b, c) = pool.dense(begin + b, c);
            }
        }
        slice.sparse =
            pool.sparse.SliceBatch(begin, begin + local_pool);
        slice.labels.assign(pool_size / kWorkers, 0.0f);
        Matrix logits;
        trainer.Predict(slice, logits);
        for (size_t b = 0; b < local_pool; b++) {
            ref_scores[begin + b] = Sigmoid(logits(b, 0));
        }
    });
    if (snapshot == nullptr) {
        std::fprintf(stderr, "FAIL: snapshot cut failed\n");
        return 1;
    }

    std::printf("== micro_fleet: %d replicas x %d ranks, "
                "%zu requests per phase ==\n\n",
                kReplicas, kWorkers, num_requests);

    PhaseResult steady;
    if (!RunFleet(model, snapshot, pool, ref_scores, warmup,
                  num_requests, /*injector=*/nullptr, steady)) {
        return 1;
    }

    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 1;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kAllToAll;
    spec.call_index = 3 * kill_batch + 2;
    spec.kind = comm::FaultKind::kKill;
    spec.transient = false;
    injector.Arm(spec);
    PhaseResult killed;
    if (!RunFleet(model, snapshot, pool, ref_scores, warmup,
                  num_requests, &injector, killed)) {
        return 1;
    }

    const double availability =
        steady.qps > 0.0 ? killed.qps / steady.qps : 0.0;

    std::printf("%10s %10s %10s %10s %12s %10s\n", "phase", "qps",
                "p50_us", "p99_us", "max_us", "failovers");
    std::printf("%10s %10.0f %10.0f %10.0f %12.0f %10llu\n", "steady",
                steady.qps, steady.p50_us, steady.p99_us, steady.max_us,
                static_cast<unsigned long long>(steady.failovers));
    std::printf("%10s %10.0f %10.0f %10.0f %12.0f %10llu\n", "killed",
                killed.qps, killed.p50_us, killed.p99_us, killed.max_us,
                static_cast<unsigned long long>(killed.failovers));
    std::printf("\nmeasured availability (killed/steady QPS): %.3f\n",
                availability);

    // Modeled counterpart: feed the measured steady per-replica rate
    // into the FleetModel and compare its failover/availability terms.
    sim::FleetSetup setup;
    setup.replicas = kReplicas;
    setup.replica_qps = steady.qps / kReplicas;
    setup.batch_seconds =
        steady.qps > 0.0 ? 16.0 / steady.qps : 1e-3;
    setup.detect_seconds = 5e-3;   // heartbeat period
    setup.backoff_seconds = 1e-3;  // first retry backoff
    setup.inflight_requests = 32.0;
    const sim::FleetEstimate modeled =
        sim::FleetModel(setup).Estimate(killed.wall_seconds);
    std::printf("modeled failover latency: %.1f us "
                "(measured worst replay: %.1f us)\n",
                modeled.failover_latency * 1e6, killed.max_us);
    std::printf("modeled availability over the killed phase: %.3f\n",
                modeled.availability);

    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_fleet\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"replicas\": %d,\n", kReplicas);
    std::fprintf(f, "  \"workers_per_replica\": %d,\n", kWorkers);
    std::fprintf(f, "  \"requests_per_phase\": %zu,\n", num_requests);
    std::fprintf(f,
                 "  \"steady\": {\"qps\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"max_us\": %.1f},\n",
                 steady.qps, steady.p50_us, steady.p99_us, steady.max_us);
    std::fprintf(f,
                 "  \"killed\": {\"qps\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"max_us\": %.1f, "
                 "\"failovers\": %llu, \"retries\": %llu},\n",
                 killed.qps, killed.p50_us, killed.p99_us, killed.max_us,
                 static_cast<unsigned long long>(killed.failovers),
                 static_cast<unsigned long long>(killed.retries));
    std::fprintf(f, "  \"availability_measured\": %.4f,\n", availability);
    std::fprintf(f, "  \"modeled_failover_latency_us\": %.1f,\n",
                 modeled.failover_latency * 1e6);
    std::fprintf(f, "  \"modeled_availability\": %.4f\n", modeled.availability);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
