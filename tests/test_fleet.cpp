/**
 * @file
 * Tests for the fault-tolerant serving fleet: router backoff saturation,
 * per-replica health scoring (state machine + weight folding), snapshot
 * version history for A/B pinning, the FleetModel availability terms,
 * and end-to-end fleet behaviour — mid-batch replica kill with
 * transparent failover (bitwise-identical replayed scores), in-place
 * transient recovery, idle barrier-timeout death, recover-timeout
 * expiry, snapshot warm-up promotion, and straggler-driven dispatch
 * weight decay.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/threaded_process_group.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/health.h"
#include "serve/router.h"
#include "serve/server.h"
#include "scoped_temp_dir.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"
#include "sim/fleet_model.h"

namespace neo {
namespace {

using core::DistributedDlrm;
using core::DlrmConfig;
using core::MakeDatasetConfig;

sharding::ShardingPlan
MakePlan(const DlrmConfig& model, int workers)
{
    sharding::PlannerOptions options;
    options.topo.num_workers = workers;
    options.topo.workers_per_node = workers;
    options.global_batch = 64;
    options.hbm_bytes_per_worker = 1e12;
    options.cw_min_dim = 16;
    options.cw_shard_dim = 8;
    sharding::ShardingPlanner planner(options);
    return planner.Plan(model.tables);
}

float
Sigmoid(float logit)
{
    return 1.0f / (1.0f + std::exp(-logit));
}

data::Batch
SliceBatch(const data::Batch& global, int rank, size_t local_batch)
{
    data::Batch local;
    local.dense = Matrix(local_batch, global.dense.cols());
    for (size_t b = 0; b < local_batch; b++) {
        for (size_t c = 0; c < global.dense.cols(); c++) {
            local.dense(b, c) = global.dense(rank * local_batch + b, c);
        }
    }
    local.sparse = global.sparse.SliceBatch(rank * local_batch,
                                            (rank + 1) * local_batch);
    local.labels.assign(global.labels.begin() + rank * local_batch,
                        global.labels.begin() + (rank + 1) * local_batch);
    return local;
}

serve::Request
RequestFor(const data::Batch& batch, size_t i, uint64_t id,
           uint64_t pinned = 0)
{
    serve::Request req;
    req.id = id;
    req.pinned_version = pinned;
    req.dense.assign(batch.dense.Row(i),
                     batch.dense.Row(i) + batch.dense.cols());
    req.sparse = batch.sparse.SliceBatch(i, i + 1);
    return req;
}

/**
 * Train a small model for `versions` blocks of steps, cutting a snapshot
 * and the eval batch's reference logits after each block.
 */
struct TrainedVersions {
    DlrmConfig model;
    sharding::ShardingPlan plan;
    data::Batch eval;
    std::vector<std::shared_ptr<const serve::ModelSnapshot>> snaps;
    std::vector<Matrix> ref_logits;
};

TrainedVersions
TrainVersions(int workers, int versions, size_t global_batch = 16)
{
    TrainedVersions out;
    out.model = core::MakeSmallDlrmConfig(4, 150, 16);
    out.plan = MakePlan(out.model, workers);
    const size_t local_batch = global_batch / workers;
    out.snaps.resize(versions + 1);
    for (int v = 0; v <= versions; v++) {
        out.ref_logits.emplace_back(global_batch, 1);
    }
    data::SyntheticCtrDataset eval_stream(MakeDatasetConfig(out.model, 4242));
    out.eval = eval_stream.NextBatch(global_batch);
    comm::ThreadedWorld::Run(
        workers, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(out.model, out.plan, pg);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(out.model, 99));
            for (int v = 1; v <= versions; v++) {
                for (int s = 0; s < 2; s++) {
                    data::Batch global = dataset.NextBatch(global_batch);
                    trainer.TrainStep(
                        SliceBatch(global, rank, local_batch));
                }
                auto snap = serve::SnapshotFromTrainer(
                    trainer, out.plan, static_cast<uint64_t>(v));
                if (rank == 0) {
                    out.snaps[v] = snap;
                }
                Matrix logits;
                trainer.Predict(SliceBatch(out.eval, rank, local_batch),
                                logits);
                for (size_t b = 0; b < local_batch; b++) {
                    out.ref_logits[v](rank * local_batch + b, 0) =
                        logits(b, 0);
                }
            }
        });
    for (int v = 1; v <= versions; v++) {
        EXPECT_NE(out.snaps[v], nullptr);
    }
    return out;
}

/** Spin until `pred` holds or `deadline` elapses. */
template <typename Pred>
bool
WaitFor(Pred pred, std::chrono::milliseconds deadline)
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

// ---------------------------------------------------------------------
// Router backoff
// ---------------------------------------------------------------------

TEST(RouterBackoff, SaturatesWithoutOverflow)
{
    serve::RouterOptions options;
    options.retry_backoff = std::chrono::milliseconds(1);
    options.max_retry_backoff = std::chrono::milliseconds(250);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 0).count(), 0);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 1).count(), 1);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 2).count(), 2);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 3).count(), 4);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 8).count(), 128);
    // Doubling clamps at the ceiling...
    EXPECT_EQ(serve::RouterBackoffDelay(options, 9).count(), 250);
    // ...and stays there for any attempt count (no shift overflow).
    EXPECT_EQ(serve::RouterBackoffDelay(options, 64).count(), 250);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 200).count(), 250);
    // Monotonic non-decreasing.
    for (size_t attempt = 2; attempt <= 30; attempt++) {
        EXPECT_GE(serve::RouterBackoffDelay(options, attempt),
                  serve::RouterBackoffDelay(options, attempt - 1))
            << "attempt " << attempt;
    }
    options.retry_backoff = std::chrono::milliseconds(0);
    EXPECT_EQ(serve::RouterBackoffDelay(options, 5).count(), 0);
}

// ---------------------------------------------------------------------
// Replica health
// ---------------------------------------------------------------------

TEST(ReplicaHealthTest, WeightFoldsSignalsAndFloors)
{
    serve::HealthOptions options;  // baseline 1ms, shed_penalty 4
    serve::ReplicaHealth fresh(options);
    EXPECT_EQ(fresh.state(), serve::ReplicaState::kHealthy);
    EXPECT_DOUBLE_EQ(fresh.Weight(), 1.0);

    serve::ReplicaHealth slow(options);
    slow.RecordLatency(2e-3);  // 2x baseline -> half weight
    EXPECT_DOUBLE_EQ(slow.LatencyEwma(), 2e-3);
    EXPECT_DOUBLE_EQ(slow.Weight(), 0.5);

    serve::ReplicaHealth fast(options);
    fast.RecordLatency(1e-6);  // faster than baseline clamps at 1
    EXPECT_DOUBLE_EQ(fast.Weight(), 1.0);

    serve::ReplicaHealth shedding(options);
    shedding.RecordAdmit();
    shedding.RecordShed();
    EXPECT_DOUBLE_EQ(shedding.ShedRate(), 0.5);
    EXPECT_NEAR(shedding.Weight(), 1.0 / 3.0, 1e-12);

    serve::ReplicaHealth glacial(options);
    glacial.RecordLatency(1e3);  // would be ~1e-6; floors at min_weight
    EXPECT_DOUBLE_EQ(glacial.Weight(), options.min_weight);
}

TEST(ReplicaHealthTest, StateMachineTransitions)
{
    serve::HealthOptions options;
    options.suspect_after = 2;
    options.straggler_decay = 0.5;
    serve::ReplicaHealth health(options);

    // One flagged verdict is noise.
    health.NoteStragglerVerdict(true);
    EXPECT_EQ(health.state(), serve::ReplicaState::kHealthy);
    EXPECT_DOUBLE_EQ(health.Weight(), 1.0);
    // Persistent verdicts: suspect + multiplicative decay per tick.
    health.NoteStragglerVerdict(true);
    EXPECT_EQ(health.state(), serve::ReplicaState::kSuspect);
    EXPECT_DOUBLE_EQ(health.Weight(), 0.5);
    health.NoteStragglerVerdict(true);
    EXPECT_DOUBLE_EQ(health.Weight(), 0.25);
    // Verdicts clear: full recovery.
    health.NoteStragglerVerdict(false);
    EXPECT_EQ(health.state(), serve::ReplicaState::kHealthy);
    EXPECT_DOUBLE_EQ(health.Weight(), 1.0);

    // Drained is only reachable from quarantine.
    health.MarkDrained();
    EXPECT_EQ(health.state(), serve::ReplicaState::kHealthy);

    health.MarkFailed();
    EXPECT_EQ(health.state(), serve::ReplicaState::kQuarantined);
    EXPECT_DOUBLE_EQ(health.Weight(), 0.0);
    // Quarantine is terminal against verdicts.
    health.NoteStragglerVerdict(false);
    EXPECT_EQ(health.state(), serve::ReplicaState::kQuarantined);
    health.MarkDrained();
    EXPECT_EQ(health.state(), serve::ReplicaState::kDrained);
    EXPECT_DOUBLE_EQ(health.Weight(), 0.0);
    health.MarkFailed();  // stays drained
    EXPECT_EQ(health.state(), serve::ReplicaState::kDrained);

    EXPECT_STREQ(serve::ReplicaStateName(serve::ReplicaState::kDrained),
                 "drained");
    EXPECT_STREQ(serve::ReplicaStateName(serve::ReplicaState::kSuspect),
                 "suspect");
}

// ---------------------------------------------------------------------
// Snapshot registry version history (A/B pinning)
// ---------------------------------------------------------------------

TEST(SnapshotHistory, RegistryRetainsRecentVersionsForPinning)
{
    serve::SnapshotRegistry registry;
    registry.SetHistoryDepth(2);
    auto make = [](uint64_t version) {
        auto snap = std::make_shared<serve::ModelSnapshot>();
        snap->version = version;
        return snap;
    };
    EXPECT_EQ(registry.Get(1), nullptr);
    registry.Publish(make(1));
    registry.Publish(make(2));
    ASSERT_NE(registry.Get(1), nullptr);
    EXPECT_EQ(registry.Get(1)->version, 1u);
    ASSERT_NE(registry.Get(2), nullptr);
    registry.Publish(make(3));  // depth 2: v1 ages out
    EXPECT_EQ(registry.Get(1), nullptr);
    ASSERT_NE(registry.Get(2), nullptr);
    ASSERT_NE(registry.Get(3), nullptr);
    EXPECT_EQ(registry.Current()->version, 3u);
    EXPECT_EQ(registry.CurrentVersion(), 3u);
    EXPECT_EQ(registry.Get(7), nullptr);
}

// ---------------------------------------------------------------------
// Fault injector reset (control re-runs)
// ---------------------------------------------------------------------

TEST(FaultInjectorReset, RestoresVirginAddressing)
{
    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 0;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kBarrier;
    spec.call_index = 0;
    spec.kind = comm::FaultKind::kKill;
    spec.transient = false;

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    auto killed_on_first_barrier = [&]() {
        comm::ThreadedWorld world(1, options);
        try {
            world.GetGroup(0).Barrier();
        } catch (const comm::RankFailure&) {
            return true;
        }
        return false;
    };

    injector.Arm(spec);
    EXPECT_EQ(injector.NumArmed(), 1u);
    EXPECT_TRUE(killed_on_first_barrier());
    EXPECT_EQ(injector.Fired().size(), 1u);
    // Spec consumed and counters advanced: the same run is now clean.
    EXPECT_FALSE(killed_on_first_barrier());

    // Reset: counters AND armed specs cleared, so re-arming the same
    // call_index-0 spec fires again (virgin addressing for a control
    // re-run).
    injector.Reset();
    EXPECT_EQ(injector.NumArmed(), 0u);
    EXPECT_TRUE(injector.Fired().empty());
    injector.Arm(spec);
    EXPECT_TRUE(killed_on_first_barrier());
}

// ---------------------------------------------------------------------
// Fleet availability model
// ---------------------------------------------------------------------

TEST(FleetSim, EstimateSanity)
{
    sim::FleetSetup setup;
    setup.replicas = 3;
    setup.replica_qps = 1000.0;
    setup.batch_seconds = 1e-3;
    setup.detect_seconds = 1e-3;
    setup.backoff_seconds = 1e-3;
    setup.inflight_requests = 32.0;
    setup.warmup_seconds = 0.25;

    const sim::FleetModel model(setup);
    const sim::FleetEstimate est = model.Estimate(60.0);
    EXPECT_DOUBLE_EQ(est.steady_qps, 3000.0);
    EXPECT_DOUBLE_EQ(est.degraded_qps, 2000.0);
    // detect + drain (32 req / 1000 qps) + backoff + one rescore batch.
    EXPECT_NEAR(est.failover_latency, 0.001 + 0.032 + 0.001 + 0.001,
                1e-12);
    EXPECT_NEAR(est.availability,
                1.0 - (60.0 / 3.0 + est.failover_latency / 3.0) / 60.0,
                1e-12);
    EXPECT_GT(est.availability, 0.6);
    EXPECT_LT(est.availability, 1.0);
    EXPECT_DOUBLE_EQ(est.cold_flip_penalty, 0.25);

    // More replicas retain more capacity through one death.
    setup.replicas = 6;
    const sim::FleetEstimate wide = sim::FleetModel(setup).Estimate(60.0);
    EXPECT_GT(wide.availability, est.availability);
    EXPECT_DOUBLE_EQ(wide.steady_qps, 6000.0);

    // Zero horizon: availability stays at its 0 default, no div-by-zero.
    const sim::FleetEstimate zero = model.Estimate(0.0);
    EXPECT_DOUBLE_EQ(zero.availability, 0.0);
}

// ---------------------------------------------------------------------
// Checkpoint store generation counter (publisher-lane polling)
// ---------------------------------------------------------------------

TEST(CheckpointGeneration, BumpsOnEveryWrite)
{
    core::CheckpointStore store;  // in-memory
    EXPECT_EQ(store.Generation(), 0u);
    store.PutBaseline(0, std::vector<uint8_t>{1, 2, 3});
    const uint64_t after_baseline = store.Generation();
    EXPECT_GT(after_baseline, 0u);
    store.AppendDelta(0, std::vector<uint8_t>{4, 5});
    EXPECT_GT(store.Generation(), after_baseline);
}

// ---------------------------------------------------------------------
// Acceptance: kill one replica mid-batch under concurrent load
// ---------------------------------------------------------------------

TEST(Fleet, KillOneReplicaMidBatchFailsOver)
{
    const int workers = 2;
    TrainedVersions trained = TrainVersions(workers, /*versions=*/1);

    const neo::testing::ScopedTempDir temp;
    const std::string bundle_dir = temp.str();
    obs::FlightRecorder::Get().SetDirectory(bundle_dir);

    // Deterministic mid-batch death: replica 1's rank 1 dies inside the
    // pooled AllToAll of its first served batch. Heartbeats are
    // broadcasts only, so kAllToAll call_index 2 (after RouteInput's
    // lengths + indices exchanges) addresses exactly that point — after
    // the dispatch broadcast, before the logit AllGather.
    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 1;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kAllToAll;
    spec.call_index = 2;
    spec.kind = comm::FaultKind::kKill;
    spec.transient = false;
    injector.Arm(spec);

    std::vector<std::unique_ptr<serve::ReplicaHost>> hosts;
    for (int r = 0; r < 3; r++) {
        serve::ServerOptions sopts;
        sopts.replica_id = r;
        sopts.batcher.max_batch = 8;
        sopts.batcher.max_delay_us = 200;
        sopts.max_queue = 1 << 14;
        sopts.heartbeat = std::chrono::milliseconds(5);
        comm::ThreadedWorld::Options wopts;
        wopts.barrier_timeout = std::chrono::milliseconds(5000);
        if (r == 1) {
            wopts.injector = &injector;
        }
        hosts.push_back(std::make_unique<serve::ReplicaHost>(
            trained.model.num_dense, trained.model.tables.size(), workers,
            sopts, wopts));
        hosts.back()->server().Publish(trained.snaps[1]);
    }

    serve::RouterOptions ropts;
    ropts.health_period = std::chrono::milliseconds(5);
    serve::FleetRouter router(ropts);
    for (int r = 0; r < 3; r++) {
        router.AddReplica("replica" + std::to_string(r),
                          &hosts[r]->server(), &hosts[r]->world());
    }
    ASSERT_EQ(router.NumReplicas(), 3u);
    ASSERT_EQ(router.HealthyCount(), 3u);

    // Sustained load until the injected kill has taken replica 1 out,
    // then keep the traffic flowing on the survivors.
    const size_t global_batch = trained.eval.dense.rows();
    std::vector<serve::Ticket> tickets;
    std::vector<size_t> samples;
    uint64_t id = 0;
    while (router.HealthyCount() == 3) {
        const size_t i = id % global_batch;
        serve::Ticket ticket = router.Submit(
            RequestFor(trained.eval, i, id));
        ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
        tickets.push_back(std::move(ticket));
        samples.push_back(i);
        id++;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ASSERT_LT(id, 200000u) << "injected kill never observed";
    }
    for (int extra = 0; extra < 50; extra++) {
        const size_t i = id % global_batch;
        serve::Ticket ticket = router.Submit(
            RequestFor(trained.eval, i, id));
        ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
        tickets.push_back(std::move(ticket));
        samples.push_back(i);
        id++;
    }

    // Every request — in-flight on the dying replica, queued behind it,
    // or submitted after the death — completes kOk with the score the
    // unkilled model produces: zero broken promises, bitwise replay.
    for (size_t i = 0; i < tickets.size(); i++) {
        ASSERT_TRUE(tickets[i].response.valid());
        const serve::Response response = tickets[i].response.get();
        EXPECT_EQ(response.status, serve::ResponseStatus::kOk)
            << "request " << i << ": "
            << serve::ResponseStatusName(response.status);
        EXPECT_EQ(response.snapshot_version, 1u);
        const float expect =
            Sigmoid(trained.ref_logits[1](samples[i], 0));
        EXPECT_EQ(response.score, expect) << "request " << i;
    }

    EXPECT_EQ(injector.Fired().size(), 1u);
    EXPECT_TRUE(hosts[1]->server().failed());
    EXPECT_GE(hosts[1]->server().RetryableDrained(), 1u);
    EXPECT_FALSE(hosts[0]->server().failed());
    EXPECT_FALSE(hosts[2]->server().failed());

    // Fleet view: exactly one replica quarantined, no fleet-wide poison.
    EXPECT_EQ(router.HealthyCount(), 2u);
    const serve::ReplicaState dead = router.StateOf(1);
    EXPECT_TRUE(dead == serve::ReplicaState::kQuarantined ||
                dead == serve::ReplicaState::kDrained);
    EXPECT_EQ(router.StateOf(0), serve::ReplicaState::kHealthy);
    EXPECT_EQ(router.StateOf(2), serve::ReplicaState::kHealthy);
    const serve::FleetRouter::Totals totals = router.totals();
    EXPECT_EQ(totals.submitted, tickets.size());
    EXPECT_EQ(totals.completed_ok, tickets.size());
    EXPECT_GE(totals.failovers, 1u);
    EXPECT_EQ(totals.failed, 0u);
    EXPECT_EQ(totals.quarantines, 1u);

    // Telemetry: the healthy-replica gauge dropped to 2 and the dead
    // replica's rank 0 dumped a flight bundle naming the quarantine.
    const obs::RegistrySnapshot metrics =
        obs::MetricsRegistry::Get().Export();
    EXPECT_EQ(metrics.GaugeValue("neo.fleet.replica_healthy"), 2.0);
    EXPECT_EQ(metrics.GaugeValue("neo.fleet.replica1.healthy"), 0.0);
    EXPECT_EQ(metrics.GaugeValue("neo.fleet.replica0.healthy"), 1.0);
    bool saw_replica_failed = false;
    bool saw_fleet_quarantine = false;
    for (const auto& event :
         obs::FlightRecorder::Get().RecentEvents(0)) {
        if (std::string(event.kind) == "replica_failed" &&
            event.detail.find("replica 1 quarantined") !=
                std::string::npos) {
            saw_replica_failed = true;
        }
        if (std::string(event.kind) == "fleet_quarantine" &&
            event.detail.find("replica 1") != std::string::npos) {
            saw_fleet_quarantine = true;
        }
    }
    EXPECT_TRUE(saw_replica_failed);
    EXPECT_TRUE(saw_fleet_quarantine);
    const std::string bundle_path = bundle_dir + "/flight_rank0.json";
    ASSERT_TRUE(std::filesystem::exists(bundle_path));
    std::stringstream bundle;
    bundle << std::ifstream(bundle_path).rdbuf();
    EXPECT_NE(bundle.str().find("replica 1 quarantined"),
              std::string::npos);

    router.Stop();
    for (auto& host : hosts) {
        host->Stop();
    }
    obs::FlightRecorder::Get().SetDirectory("");
}

// ---------------------------------------------------------------------
// Transient failure: in-place recovery, same replica, same promise
// ---------------------------------------------------------------------

TEST(Fleet, TransientFailureRecoversInPlace)
{
    const int workers = 2;
    TrainedVersions trained = TrainVersions(workers, /*versions=*/1);

    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 1;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kAllToAll;
    spec.call_index = 2;
    spec.kind = comm::FaultKind::kKill;
    spec.transient = true;
    injector.Arm(spec);

    serve::ServerOptions sopts;
    sopts.heartbeat = std::chrono::milliseconds(10);
    sopts.recover_timeout = std::chrono::milliseconds(2000);
    comm::ThreadedWorld::Options wopts;
    wopts.injector = &injector;
    serve::ReplicaHost host(trained.model.num_dense,
                            trained.model.tables.size(), workers, sopts,
                            wopts);
    host.server().Publish(trained.snaps[1]);

    const uint64_t recoveries_before = obs::MetricsRegistry::Get()
                                           .Export()
                                           .CounterValue(
                                               "neo.serve.recoveries");

    serve::FleetRouter router;
    router.AddReplica("solo", &host.server(), &host.world());

    // The first served batch dies mid-collective; all ranks rendezvous
    // within recover_timeout and redispatch the SAME staged batch — the
    // original promise completes kOk with the deterministic score.
    serve::Ticket ticket =
        router.Submit(RequestFor(trained.eval, 3, /*id=*/0));
    ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
    const serve::Response response = ticket.response.get();
    EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(response.score, Sigmoid(trained.ref_logits[1](3, 0)));

    EXPECT_EQ(injector.Fired().size(), 1u);
    EXPECT_FALSE(host.server().failed());
    EXPECT_EQ(router.StateOf(0), serve::ReplicaState::kHealthy);
    // Both ranks passed through the recovery rendezvous.
    EXPECT_EQ(obs::MetricsRegistry::Get().Export().CounterValue(
                  "neo.serve.recoveries"),
              recoveries_before + workers);

    // The replica keeps serving afterwards.
    serve::Ticket again =
        router.Submit(RequestFor(trained.eval, 5, /*id=*/1));
    ASSERT_EQ(again.admission, serve::Admission::kAccepted);
    EXPECT_EQ(again.response.get().score,
              Sigmoid(trained.ref_logits[1](5, 0)));

    router.Stop();
    host.Stop();
}

// ---------------------------------------------------------------------
// Conservative failure knobs surface as replica-unhealthy, not hangs
// ---------------------------------------------------------------------

/** An idle heartbeating world that misses its barrier deadline (one rank
 *  stalled past barrier_timeout) must quarantine — visible to the router
 *  via the health tick even though no request ever touched it. */
TEST(Fleet, IdleBarrierTimeoutQuarantinesWithoutTraffic)
{
    comm::FaultInjector injector;
    comm::FaultSpec spec;
    spec.rank = 0;
    spec.match_op = true;
    spec.op = comm::CollectiveOp::kBroadcast;
    spec.call_index = 3;
    spec.kind = comm::FaultKind::kDelay;
    spec.delay = std::chrono::milliseconds(400);
    injector.Arm(spec);

    serve::ServerOptions sopts;
    sopts.heartbeat = std::chrono::milliseconds(10);
    // recover_timeout 0: fail fast, no in-place recovery attempt.
    comm::ThreadedWorld::Options wopts;
    wopts.barrier_timeout = std::chrono::milliseconds(100);
    wopts.injector = &injector;
    serve::ReplicaHost host(/*num_dense=*/1, /*num_tables=*/1,
                            /*world_size=*/2, sopts, wopts);

    serve::RouterOptions ropts;
    ropts.health_period = std::chrono::milliseconds(5);
    serve::FleetRouter router(ropts);
    router.AddReplica("idle", &host.server(), &host.world());
    ASSERT_EQ(router.HealthyCount(), 1u);

    EXPECT_TRUE(WaitFor([&] { return router.HealthyCount() == 0; },
                        std::chrono::milliseconds(5000)))
        << "idle replica death never became router-visible";
    EXPECT_TRUE(host.server().failed());
    EXPECT_TRUE(WaitFor(
        [&] {
            return router.StateOf(0) == serve::ReplicaState::kDrained;
        },
        std::chrono::milliseconds(2000)));
    EXPECT_EQ(obs::MetricsRegistry::Get().Export().GaugeValue(
                  "neo.fleet.replica_healthy"),
              0.0);

    router.Stop();
    host.Stop();  // rank loops already returned; must not hang
}

/** A rank that silently walks away from an idle world: the survivor hits
 *  its barrier deadline (transient), the recovery rendezvous expires,
 *  and the replica quarantines. A request staged on that replica comes
 *  back typed — retried by the router until attempts saturate into a
 *  terminal kFailed, never a hang or a broken promise. */
TEST(Fleet, RecoverTimeoutExpirySaturatesRetriesTyped)
{
    serve::ServerOptions sopts;
    sopts.heartbeat = std::chrono::milliseconds(10);
    sopts.recover_timeout = std::chrono::milliseconds(80);
    serve::Server server(/*num_dense=*/2, /*num_tables=*/1, sopts);

    comm::ThreadedWorld::Options wopts;
    wopts.barrier_timeout = std::chrono::milliseconds(150);
    comm::ThreadedWorld world(2, wopts);

    serve::RouterOptions ropts;
    ropts.max_attempts = 2;
    ropts.retry_backoff = std::chrono::milliseconds(1);
    ropts.health_period = std::chrono::milliseconds(5);
    serve::FleetRouter router(ropts);
    router.AddReplica("walkaway", &server, &world);

    // No snapshot is ever published, so the request stays staged on
    // rank 0 while the world heartbeats.
    serve::Request request;
    request.id = 7;
    request.dense = {0.0f, 0.0f};
    serve::Ticket ticket = router.Submit(std::move(request));
    ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);

    std::thread rank0([&] { server.RankLoop(0, world.GetGroup(0)); });
    std::thread rank1([&] {
        // Mirror five idle heartbeats, then walk away without poisoning
        // the world — the failure mode a watchdogless peer death shows.
        auto& pg = world.GetGroup(1);
        float cmd = 0.0f;
        for (int i = 0; i < 5; i++) {
            pg.Broadcast(&cmd, 1, /*root=*/0);
        }
    });
    rank1.join();
    rank0.join();  // returns via quarantine — the no-hang assertion

    EXPECT_TRUE(server.failed());
    EXPECT_EQ(server.RetryableDrained(), 1u);

    // Router: failover, retry against an empty fleet, saturation.
    const serve::Response response = ticket.response.get();
    EXPECT_EQ(response.status, serve::ResponseStatus::kFailed);
    EXPECT_EQ(response.id, 7u);
    EXPECT_TRUE(WaitFor(
        [&] {
            return router.StateOf(0) == serve::ReplicaState::kDrained;
        },
        std::chrono::milliseconds(2000)));
    const serve::FleetRouter::Totals totals = router.totals();
    EXPECT_GE(totals.failovers, 1u);
    EXPECT_GE(totals.retries, 1u);
    EXPECT_EQ(totals.failed, 1u);
    EXPECT_EQ(router.HealthyCount(), 0u);

    router.Stop();
}

// ---------------------------------------------------------------------
// Snapshot warm-up + per-request version pinning
// ---------------------------------------------------------------------

TEST(Fleet, WarmupPromotesWithoutColdBuildsAndPinsVersions)
{
    const int workers = 2;
    TrainedVersions trained = TrainVersions(workers, /*versions=*/2);

    serve::ServerOptions sopts;
    sopts.heartbeat = std::chrono::milliseconds(5);
    sopts.version_history = 4;
    serve::ReplicaHost host(trained.model.num_dense,
                            trained.model.tables.size(), workers, sopts);
    serve::FleetRouter router;
    router.AddReplica("warm", &host.server(), &host.world());

    auto counters = [] {
        return obs::MetricsRegistry::Get().Export();
    };
    const obs::RegistrySnapshot before = counters();

    // Warm-then-flip v1: both ranks pre-build on idle slots.
    EXPECT_EQ(router.Publish(trained.snaps[1]), 1u);
    EXPECT_EQ(host.server().CurrentVersion(), 1u);
    obs::RegistrySnapshot after_warm = counters();
    EXPECT_EQ(after_warm.CounterValue("neo.serve.warm_builds") -
                  before.CounterValue("neo.serve.warm_builds"),
              static_cast<uint64_t>(workers));
    EXPECT_EQ(after_warm.CounterValue("neo.serve.prewarms") -
                  before.CounterValue("neo.serve.prewarms"),
              1u);

    // First request after the flip: the pre-built state promotes — no
    // cold build on the serve path (the whole point of warm-up).
    serve::Ticket first =
        router.Submit(RequestFor(trained.eval, 0, /*id=*/0));
    ASSERT_EQ(first.admission, serve::Admission::kAccepted);
    serve::Response r1 = first.response.get();
    EXPECT_EQ(r1.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(r1.snapshot_version, 1u);
    EXPECT_EQ(r1.score, Sigmoid(trained.ref_logits[1](0, 0)));
    obs::RegistrySnapshot after_first = counters();
    EXPECT_EQ(after_first.CounterValue("neo.serve.warm_promotions") -
                  before.CounterValue("neo.serve.warm_promotions"),
              static_cast<uint64_t>(workers));
    EXPECT_EQ(after_first.CounterValue("neo.serve.cold_builds") -
                  before.CounterValue("neo.serve.cold_builds"),
              0u);

    // Flip to v2 while v1 stays pinnable from the registry history.
    EXPECT_EQ(router.Publish(trained.snaps[2]), 1u);
    serve::Ticket unpinned =
        router.Submit(RequestFor(trained.eval, 1, /*id=*/1));
    serve::Response r2 = unpinned.response.get();
    EXPECT_EQ(r2.snapshot_version, 2u);
    EXPECT_EQ(r2.score, Sigmoid(trained.ref_logits[2](1, 0)));
    obs::RegistrySnapshot after_flip = counters();
    EXPECT_EQ(after_flip.CounterValue("neo.serve.cold_builds") -
                  before.CounterValue("neo.serve.cold_builds"),
              0u);

    // A/B pinning: a request pinned to v1 serves on v1's exact weights.
    serve::Ticket pinned = router.Submit(
        RequestFor(trained.eval, 2, /*id=*/2, /*pinned=*/1));
    serve::Response r3 = pinned.response.get();
    EXPECT_EQ(r3.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(r3.snapshot_version, 1u);
    EXPECT_EQ(r3.score, Sigmoid(trained.ref_logits[1](2, 0)));

    // A pin the registry no longer retains is a typed terminal answer.
    serve::Ticket gone = router.Submit(
        RequestFor(trained.eval, 3, /*id=*/3, /*pinned=*/42));
    serve::Response r4 = gone.response.get();
    EXPECT_EQ(r4.status, serve::ResponseStatus::kVersionUnavailable);

    // Idempotent re-publish: already on v2, nothing to warm.
    const uint64_t prewarms_before_dup =
        counters().CounterValue("neo.serve.prewarms");
    EXPECT_EQ(router.Publish(trained.snaps[2]), 1u);
    EXPECT_EQ(counters().CounterValue("neo.serve.prewarms"),
              prewarms_before_dup);
    EXPECT_EQ(router.NextVersion(), 3u);

    router.Stop();
    host.Stop();
}

// ---------------------------------------------------------------------
// Straggler-driven health: suspect decays dispatch weight
// ---------------------------------------------------------------------

TEST(Fleet, StragglerSuspectDecaysWeightAndNamesShedStormSuspect)
{
    // Replica 0: a 3-rank idle heartbeat world. Rank 0 spends each
    // heartbeat period in its queue wait while ranks 1-2 sit in the
    // broadcast barrier, so rank 0 is persistently ~heartbeat late to
    // every barrier — far over the detector's noise floor, with a ~0
    // median from the other two ranks. The replica's own detector flags
    // it; the router's health tick folds the verdicts into kSuspect and
    // decays the dispatch weight. Replica 1 (2 ranks) cannot skew past
    // its own median and stays healthy.
    serve::ServerOptions sopts;
    sopts.heartbeat = std::chrono::milliseconds(20);
    serve::ReplicaHost lagging(/*num_dense=*/1, /*num_tables=*/1,
                               /*world_size=*/3, sopts);
    serve::ReplicaHost steady(/*num_dense=*/1, /*num_tables=*/1,
                              /*world_size=*/2, sopts);

    serve::RouterOptions ropts;
    ropts.health_period = std::chrono::milliseconds(10);
    ropts.health.suspect_after = 2;
    serve::FleetRouter router(ropts);
    router.AddReplica("lagging", &lagging.server(), &lagging.world());
    router.AddReplica("steady", &steady.server(), &steady.world());

    EXPECT_TRUE(WaitFor(
        [&] {
            return router.StateOf(0) == serve::ReplicaState::kSuspect;
        },
        std::chrono::milliseconds(5000)))
        << "persistent straggler never became suspect";
    EXPECT_EQ(router.StateOf(1), serve::ReplicaState::kHealthy);
    EXPECT_LT(router.WeightOf(0), router.WeightOf(1));
    // Suspect replicas stay dispatchable — degraded, not quarantined.
    EXPECT_EQ(router.HealthyCount(), 2u);
    const obs::RegistrySnapshot metrics =
        obs::MetricsRegistry::Get().Export();
    EXPECT_EQ(metrics.GaugeValue("neo.fleet.has_suspect"), 1.0);
    EXPECT_EQ(metrics.GaugeValue("neo.fleet.suspect_replica"), 0.0);

    // A shed storm elsewhere in the fleet names the suspect replica in
    // its flight-recorder post-mortem: the storm is often the downstream
    // symptom of the straggler soaking up dispatch weight.
    serve::ServerOptions storm_opts;
    storm_opts.shed_storm_dump = 1;
    serve::Server storm(/*num_dense=*/1, /*num_tables=*/1, storm_opts);
    storm.Stop();  // every submit sheds now
    serve::Request request;
    request.dense = {0.0f};
    EXPECT_EQ(storm.Submit(std::move(request)).admission,
              serve::Admission::kShedStopped);
    bool named = false;
    for (const auto& event :
         obs::FlightRecorder::Get().RecentEvents(0)) {
        if (std::string(event.kind) == "shed_storm" &&
            event.detail.find("fleet suspect replica 0") !=
                std::string::npos) {
            named = true;
        }
    }
    EXPECT_TRUE(named);

    router.Stop();
    lagging.Stop();
    steady.Stop();
    // Clear the fleet gauges so later in-process tests start clean.
    obs::MetricsRegistry::Get().GetGauge("neo.fleet.has_suspect").Set(0.0);
    obs::MetricsRegistry::Get()
        .GetGauge("neo.fleet.suspect_replica")
        .Set(-1.0);
}

}  // namespace
}  // namespace neo
