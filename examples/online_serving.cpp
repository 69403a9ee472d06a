/**
 * @file
 * Train-publish-serve loop (Sec. 4.1.3): a 2-rank trainer keeps training
 * and publishing differential checkpoints to a disk-backed store; a
 * publisher assembles each published epoch into an immutable snapshot and
 * hot-swaps it into a live 2-rank serving world; a closed-loop client
 * streams requests throughout. The serving world never pauses for a
 * swap — in-flight batches finish on their version — and the run fails
 * if any request drops or sheds, or fewer than 3 hot swaps complete
 * under load.
 *
 *   ./online_serving
 *
 * With NEO_TRACE=1 the run also records the spans of both worlds and
 * writes the Chrome trace to neo_serve_trace.json (load it in
 * https://ui.perfetto.dev).
 */
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/threaded_process_group.h"
#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"

namespace {

using namespace neo;

constexpr int kWorkers = 2;

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
        (std::filesystem::temp_directory_path() /
         ("neo_online_serving_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    // ---- serving side --------------------------------------------------
    serve::ServerOptions server_options;
    server_options.batcher.max_batch = 16;
    server_options.batcher.max_delay_us = 500;
    server_options.max_queue = 4096;
    serve::Server server(model.num_dense, model.tables.size(),
                         server_options);
    std::thread serving_world([&] {
        comm::ThreadedWorld::Run(kWorkers,
                                 [&](int rank, comm::ProcessGroup& pg) {
                                     server.RankLoop(rank, pg);
                                 });
    });

    // ---- training + publishing side ------------------------------------
    const int publish_rounds = 4;
    std::atomic<bool> trainer_failed{false};
    std::thread trainer_world([&] {
        try {
            core::CheckpointStore store(dir);
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
                    // Every rank's stream must be on disk before the
                    // publisher assembles the epoch.
                    pg.Barrier();
                    if (rank == 0) {
                        auto snapshot = serve::SnapshotFromStore(
                            store, model, plan,
                            static_cast<uint64_t>(round + 1));
                        server.Publish(snapshot);
                        std::printf(
                            "[publisher] version %d live (epoch %llu, "
                            "store %.1f KB on disk)\n",
                            round + 1,
                            static_cast<unsigned long long>(
                                snapshot->source_epoch),
                            store.TotalBytes() / 1024.0);
                    }
                    pg.Barrier();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(30));
                }
            });
        } catch (const std::exception& e) {
            std::fprintf(stderr, "trainer failed: %s\n", e.what());
            trainer_failed.store(true);
        }
    });

    // ---- closed-loop client --------------------------------------------
    data::SyntheticCtrDataset traffic(core::MakeDatasetConfig(model, 4242));
    const data::Batch pool = traffic.NextBatch(64);
    while (server.CurrentVersion() == 0 && !trainer_failed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<serve::Ticket> tickets;
    std::set<uint64_t> versions_seen;
    uint64_t next_id = 0;
    size_t shed = 0;
    const auto client_start = std::chrono::steady_clock::now();
    while ((server.SwapCount() < 4 || tickets.size() < 500) &&
           !trainer_failed.load()) {
        serve::Request req;
        req.id = next_id;
        const size_t i = next_id % pool.dense.rows();
        req.dense.assign(pool.dense.Row(i),
                         pool.dense.Row(i) + pool.dense.cols());
        req.sparse = pool.sparse.SliceBatch(i, i + 1);
        serve::Ticket ticket = server.Submit(std::move(req));
        if (ticket.admission == serve::Admission::kAccepted) {
            tickets.push_back(std::move(ticket));
        } else {
            shed++;
        }
        next_id++;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    trainer_world.join();
    server.Stop();
    serving_world.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - client_start)
                            .count();
    if (trainer_failed.load()) {
        return 1;
    }

    // Every submitted request must complete — hot swaps drop nothing.
    std::vector<double> latencies_us;
    for (auto& ticket : tickets) {
        serve::Response response = ticket.response.get();
        versions_seen.insert(response.snapshot_version);
        latencies_us.push_back(response.total_seconds * 1e6);
    }

    std::printf("\nserved %zu requests in %.2f s (%.0f QPS), %zu shed\n",
                tickets.size(), wall, tickets.size() / wall, shed);
    std::printf("latency p50/p95/p99: %.0f / %.0f / %.0f us\n",
                Percentile(latencies_us, 50.0),
                Percentile(latencies_us, 95.0),
                Percentile(latencies_us, 99.0));
    std::printf("hot swaps completed under load: %llu; versions that "
                "served traffic:",
                static_cast<unsigned long long>(server.SwapCount() - 1));
    for (const uint64_t v : versions_seen) {
        std::printf(" v%llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");

    std::filesystem::remove_all(dir);
    // NEO_TRACE=1 in the environment switches the tracer on at first use.
    if (obs::Tracer::Get().enabled()) {
        if (!obs::Tracer::Get().WriteChromeJson("neo_serve_trace.json")) {
            std::fprintf(stderr, "cannot write neo_serve_trace.json\n");
            return 1;
        }
        std::printf("wrote neo_serve_trace.json (open in "
                    "https://ui.perfetto.dev)\n");
    }
    if (server.SwapCount() < 4) {
        std::fprintf(stderr, "FAIL: expected >= 3 hot swaps under load\n");
        return 1;
    }
    if (shed != 0) {
        std::fprintf(stderr, "FAIL: %zu requests shed\n", shed);
        return 1;
    }
    if (versions_seen.size() < 2) {
        std::fprintf(stderr,
                     "FAIL: only one version ever served traffic\n");
        return 1;
    }
    std::printf("zero dropped or shed requests across %llu hot swaps\n",
                static_cast<unsigned long long>(server.SwapCount() - 1));
    return 0;
}
