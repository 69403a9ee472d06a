/**
 * @file
 * Fault-tolerant serving fleet end to end: a 2-rank trainer keeps
 * publishing differential checkpoints to a disk-backed store; a
 * publisher lane polls the store's Generation() counter and
 * warm-then-flips each finished round onto a 3-replica fleet through
 * FleetRouter::PublishFromStore; a closed-loop client streams requests
 * throughout. Mid-traffic the fault injector kills a rank inside
 * replica 1's pooled AllToAll — the router quarantines the replica and
 * transparently replays its in-flight requests on the survivors. The
 * run fails if any request is shed or completes with a non-kOk status,
 * if the fleet never failed over, or if fewer than two versions served
 * traffic.
 *
 *   ./fleet_serving
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/threaded_process_group.h"
#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"

namespace {

using namespace neo;

constexpr int kWorkers = 2;
constexpr int kReplicas = 3;

}  // namespace

int
main()
{
    const core::DlrmConfig model = core::MakeSmallDlrmConfig(4, 300, 16);
    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = 32;
    planner_options.hbm_bytes_per_worker = 1e12;
    sharding::ShardingPlanner planner(planner_options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);

    const std::string dir =
        (std::filesystem::temp_directory_path() / "neo_fleet_serving")
            .string();
    std::filesystem::remove_all(dir);

    // ---- the fleet -----------------------------------------------------
    // Replica 1 carries an armed fault: its rank 1 dies inside the
    // pooled AllToAll of its ~20th served batch (3 AllToAll calls per
    // batch: lengths, indices, pooled).
    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 1;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kAllToAll;
    spec.call_index = 3 * 20 + 2;
    spec.kind = comm::FaultKind::kKill;
    spec.transient = false;
    injector.Arm(spec);

    std::vector<std::unique_ptr<serve::ReplicaHost>> hosts;
    for (int r = 0; r < kReplicas; r++) {
        serve::ServerOptions sopts;
        sopts.replica_id = r;
        sopts.batcher.max_batch = 16;
        sopts.batcher.max_delay_us = 500;
        sopts.max_queue = 4096;
        sopts.heartbeat = std::chrono::milliseconds(5);
        comm::ThreadedWorld::Options wopts;
        if (r == 1) {
            wopts.injector = &injector;
        }
        hosts.push_back(std::make_unique<serve::ReplicaHost>(
            model.num_dense, model.tables.size(), kWorkers, sopts,
            wopts));
    }
    serve::RouterOptions ropts;
    ropts.health_period = std::chrono::milliseconds(5);
    serve::FleetRouter router(ropts);
    for (int r = 0; r < kReplicas; r++) {
        router.AddReplica("replica" + std::to_string(r),
                          &hosts[r]->server(), &hosts[r]->world());
    }

    // ---- training side -------------------------------------------------
    const int publish_rounds = 4;
    core::CheckpointStore store(dir);
    std::atomic<bool> trainer_failed{false};
    std::atomic<bool> trainer_done{false};
    std::thread trainer_world([&] {
        try {
            comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                                   comm::ProcessGroup& pg) {
                core::DistributedDlrm trainer(model, plan, pg);
                core::DistributedCheckpointer ckpt(trainer, store);
                data::SyntheticCtrDataset dataset(
                    core::MakeDatasetConfig(model, 99));
                const size_t local_batch = 16;
                for (int round = 0; round < publish_rounds; round++) {
                    for (int s = 0; s < 3; s++) {
                        data::Batch global =
                            dataset.NextBatch(local_batch * kWorkers);
                        data::Batch local;
                        const size_t begin = rank * local_batch;
                        local.dense =
                            Matrix(local_batch, global.dense.cols());
                        for (size_t b = 0; b < local_batch; b++) {
                            for (size_t c = 0; c < global.dense.cols();
                                 c++) {
                                local.dense(b, c) =
                                    global.dense(begin + b, c);
                            }
                        }
                        local.sparse = global.sparse.SliceBatch(
                            begin, begin + local_batch);
                        local.labels.assign(
                            global.labels.begin() + begin,
                            global.labels.begin() + begin + local_batch);
                        trainer.TrainStep(local);
                    }
                    if (round == 0) {
                        ckpt.WriteBaseline();
                    } else {
                        ckpt.WriteDelta();
                    }
                    // Every rank's stream is on disk (and Generation()
                    // even) before the publisher may assemble it.
                    pg.Barrier();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(30));
                }
            });
        } catch (const std::exception& e) {
            std::fprintf(stderr, "trainer failed: %s\n", e.what());
            trainer_failed.store(true);
        }
        trainer_done.store(true);
    });

    // ---- publisher lane ------------------------------------------------
    // Decoupled from the trainer: polls the store's monotonic write
    // counter and warm-then-flips every finished round onto the whole
    // fleet. A round is complete when all kWorkers rank streams have
    // been written (the trainer barriers between rounds, so an even
    // counter is never mid-round).
    std::atomic<size_t> publishes{0};
    std::thread publisher([&] {
        uint64_t published_gen = 0;
        while (true) {
            const uint64_t gen = store.Generation();
            const bool complete =
                gen > published_gen && gen % kWorkers == 0;
            if (complete) {
                const uint64_t version =
                    router.PublishFromStore(store, model, plan);
                published_gen = gen;
                publishes.fetch_add(1);
                std::printf("[publisher] version %llu live on %d "
                            "replicas (store generation %llu)\n",
                            static_cast<unsigned long long>(version),
                            kReplicas,
                            static_cast<unsigned long long>(gen));
            } else if (trainer_done.load()) {
                break;
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
    });

    // ---- closed-loop client --------------------------------------------
    data::SyntheticCtrDataset traffic(core::MakeDatasetConfig(model, 4242));
    const data::Batch pool = traffic.NextBatch(64);
    while (publishes.load() == 0 && !trainer_failed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<serve::Ticket> tickets;
    uint64_t next_id = 0;
    size_t shed = 0;
    const auto client_start = std::chrono::steady_clock::now();
    while ((!trainer_done.load() || tickets.size() < 500) &&
           !trainer_failed.load()) {
        serve::Request req;
        req.id = next_id;
        const size_t i = next_id % pool.dense.rows();
        req.dense.assign(pool.dense.Row(i),
                         pool.dense.Row(i) + pool.dense.cols());
        req.sparse = pool.sparse.SliceBatch(i, i + 1);
        serve::Ticket ticket = router.Submit(std::move(req));
        if (ticket.admission == serve::Admission::kAccepted) {
            tickets.push_back(std::move(ticket));
        } else {
            shed++;
        }
        next_id++;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    trainer_world.join();
    publisher.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - client_start)
                            .count();
    if (trainer_failed.load()) {
        return 1;
    }

    // Every accepted request must complete kOk — the mid-batch kill is
    // absorbed by quarantine + replay, never surfaced to a client.
    std::vector<double> latencies_us;
    std::set<uint64_t> versions_seen;
    size_t not_ok = 0;
    for (auto& ticket : tickets) {
        serve::Response response = ticket.response.get();
        if (response.status != serve::ResponseStatus::kOk) {
            std::fprintf(stderr, "request %llu completed %s\n",
                         static_cast<unsigned long long>(response.id),
                         serve::ResponseStatusName(response.status));
            not_ok++;
            continue;
        }
        versions_seen.insert(response.snapshot_version);
        latencies_us.push_back(response.total_seconds * 1e6);
    }
    const serve::FleetRouter::Totals totals = router.totals();

    std::printf("\nserved %zu requests in %.2f s (%.0f QPS), %zu shed\n",
                tickets.size(), wall, tickets.size() / wall, shed);
    std::printf("latency p50/p95/p99: %.0f / %.0f / %.0f us\n",
                Percentile(latencies_us, 50.0),
                Percentile(latencies_us, 95.0),
                Percentile(latencies_us, 99.0));
    std::printf("failovers %llu, retries %llu, quarantines %llu; "
                "healthy replicas %zu/%d\n",
                static_cast<unsigned long long>(totals.failovers),
                static_cast<unsigned long long>(totals.retries),
                static_cast<unsigned long long>(totals.quarantines),
                router.HealthyCount(), kReplicas);
    std::printf("versions that served traffic:");
    for (const uint64_t v : versions_seen) {
        std::printf(" v%llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");

    router.Stop();
    for (auto& host : hosts) {
        host->Stop();
    }
    std::filesystem::remove_all(dir);

    if (not_ok != 0 || shed != 0) {
        std::fprintf(stderr, "FAIL: %zu non-ok, %zu shed\n", not_ok,
                     shed);
        return 1;
    }
    if (injector.Fired().size() != 1 || totals.failovers == 0 ||
        router.HealthyCount() != kReplicas - 1) {
        std::fprintf(stderr,
                     "FAIL: injected kill did not produce a failover "
                     "(fired %zu, failovers %llu, healthy %zu)\n",
                     injector.Fired().size(),
                     static_cast<unsigned long long>(totals.failovers),
                     router.HealthyCount());
        return 1;
    }
    if (versions_seen.size() < 2) {
        std::fprintf(stderr,
                     "FAIL: only one version ever served traffic\n");
        return 1;
    }
    std::printf("zero lost requests across a mid-batch replica kill and "
                "%zu warm publishes\n",
                publishes.load());
    return 0;
}
