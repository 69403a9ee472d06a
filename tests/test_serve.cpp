/**
 * @file
 * Tests for the serving subsystem: dynamic batching, snapshot cut/restore
 * parity with the trainer, forward determinism (read-only, thread-count-
 * and batch-composition-independent), tiered-cache bitwise equivalence,
 * hot-swap under concurrent load with exact version attribution, and
 * SLO-aware admission shedding with hysteresis recovery.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "comm/threaded_process_group.h"
#include "common/parallel_for.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "scoped_temp_dir.h"
#include "sharding/planner.h"

namespace neo {
namespace {

using core::DistributedDlrm;
using core::DlrmConfig;
using core::MakeDatasetConfig;

/** Sampling-stream seed of this file's synthetic data. */
constexpr uint64_t kDataSeed = 99;

sharding::ShardingPlan
MakePlan(const DlrmConfig& model, int workers, bool allow_cw = true,
         bool allow_dp = true, bool allow_rw = true)
{
    sharding::PlannerOptions options;
    options.topo.num_workers = workers;
    options.topo.workers_per_node = workers;
    options.global_batch = 64;
    options.hbm_bytes_per_worker = 1e12;
    options.allow_column_wise = allow_cw;
    options.allow_data_parallel = allow_dp;
    options.allow_row_wise = allow_rw;
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

/** Carve rank `rank`'s slice out of a global batch. */
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

/** Single request for sample `i` of a batch. */
serve::Request
RequestFor(const data::Batch& batch, size_t i, uint64_t id)
{
    serve::Request req;
    req.id = id;
    req.dense.assign(batch.dense.Row(i),
                     batch.dense.Row(i) + batch.dense.cols());
    req.sparse = batch.sparse.SliceBatch(i, i + 1);
    return req;
}

serve::Pending
MakePending(serve::Request req)
{
    serve::Pending pending;
    pending.request = std::move(req);
    pending.enqueue = std::chrono::steady_clock::now();
    return pending;
}

// ---------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------

TEST(Batcher, FlushesWhenFull)
{
    serve::BatcherOptions options;
    options.max_batch = 4;
    options.max_delay_us = 1000000;  // age trigger effectively off
    serve::Batcher batcher(options);
    for (uint64_t i = 0; i < 6; i++) {
        serve::Request req;
        req.id = i;
        ASSERT_TRUE(batcher.Push(MakePending(std::move(req))));
    }
    std::vector<serve::Pending> out;
    ASSERT_TRUE(batcher.NextBatch(out, std::chrono::milliseconds(0)));
    ASSERT_EQ(out.size(), 4u);  // capped at max_batch, oldest first
    EXPECT_EQ(out[0].request.id, 0u);
    EXPECT_EQ(out[3].request.id, 3u);
    EXPECT_EQ(batcher.size(), 2u);
}

TEST(Batcher, FlushesOnAge)
{
    serve::BatcherOptions options;
    options.max_batch = 64;
    options.max_delay_us = 2000;
    serve::Batcher batcher(options);
    serve::Request req;
    req.id = 7;
    ASSERT_TRUE(batcher.Push(MakePending(std::move(req))));
    std::vector<serve::Pending> out;
    // One request, far below max_batch: the age trigger must flush it.
    ASSERT_TRUE(batcher.NextBatch(out, std::chrono::milliseconds(1000)));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].request.id, 7u);
}

TEST(Batcher, TimesOutEmpty)
{
    serve::Batcher batcher(serve::BatcherOptions{});
    std::vector<serve::Pending> out;
    EXPECT_FALSE(batcher.NextBatch(out, std::chrono::milliseconds(1)));
    EXPECT_TRUE(out.empty());
}

TEST(Batcher, StopDrainsQueuedRequests)
{
    serve::BatcherOptions options;
    options.max_batch = 2;
    serve::Batcher batcher(options);
    for (uint64_t i = 0; i < 5; i++) {
        serve::Request req;
        req.id = i;
        ASSERT_TRUE(batcher.Push(MakePending(std::move(req))));
    }
    batcher.Stop();
    serve::Request late;
    EXPECT_FALSE(batcher.Push(MakePending(std::move(late))));
    // Queued requests still drain, batch by batch — zero drops.
    std::vector<serve::Pending> out;
    size_t drained = 0;
    while (batcher.NextBatch(out, std::chrono::milliseconds(0))) {
        drained += out.size();
    }
    EXPECT_EQ(drained, 5u);
    EXPECT_EQ(batcher.size(), 0u);
}

TEST(Batcher, StopWakesConcurrentConsumerAndDrainsEverything)
{
    // The serving loop's shape: a dedicated consumer blocked inside
    // NextBatch with a long wait while producers push and then Stop().
    // The consumer must wake promptly, drain every request exactly once
    // in sub-max_batch chunks, and finally observe false.
    serve::BatcherOptions options;
    options.max_batch = 3;
    options.max_delay_us = 60'000'000;  // age trigger effectively off
    serve::Batcher batcher(options);

    constexpr uint64_t kRequests = 10;
    std::vector<uint64_t> drained_ids;
    std::thread consumer([&] {
        std::vector<serve::Pending> out;
        while (batcher.NextBatch(out, std::chrono::milliseconds(10000))) {
            EXPECT_LE(out.size(), options.max_batch);
            for (const serve::Pending& p : out) {
                drained_ids.push_back(p.request.id);
            }
        }
    });

    for (uint64_t i = 0; i < kRequests; i++) {
        serve::Request req;
        req.id = i;
        ASSERT_TRUE(batcher.Push(MakePending(std::move(req))));
    }
    batcher.Stop();
    consumer.join();

    // Every id exactly once, in FIFO order; nothing left behind.
    ASSERT_EQ(drained_ids.size(), kRequests);
    for (uint64_t i = 0; i < kRequests; i++) {
        EXPECT_EQ(drained_ids[i], i);
    }
    EXPECT_EQ(batcher.size(), 0u);
}

TEST(Batcher, NextBatchReturnsWhenWaitBudgetExpiresWithUnflushableQueue)
{
    // Requests are queued but neither flush trigger can fire (far below
    // max_batch, age trigger an eternity away): NextBatch must still
    // honor its wait budget and hand control back — the caller runs its
    // idle work — rather than blocking until the age trigger.
    serve::BatcherOptions options;
    options.max_batch = 8;
    options.max_delay_us = 10'000'000;
    serve::Batcher batcher(options);
    for (uint64_t i = 0; i < 2; i++) {
        serve::Request req;
        req.id = i;
        ASSERT_TRUE(batcher.Push(MakePending(std::move(req))));
    }

    std::vector<serve::Pending> out;
    const auto begin = std::chrono::steady_clock::now();
    EXPECT_FALSE(batcher.NextBatch(out, std::chrono::milliseconds(50)));
    const auto waited = std::chrono::steady_clock::now() - begin;
    EXPECT_TRUE(out.empty());
    // Promptly: well before the 10 s age trigger (generous CI margin).
    EXPECT_LT(waited, std::chrono::seconds(5));
    // The queued requests were not dropped by the timeout.
    EXPECT_EQ(batcher.size(), 2u);
}

TEST(Batcher, MergePadsToWorldMultiple)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(3, 50, 16);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    data::Batch batch = dataset.NextBatch(4);
    std::vector<serve::Pending> pending;
    for (size_t i = 0; i < 3; i++) {
        pending.push_back(MakePending(RequestFor(batch, i, i)));
    }
    Matrix dense;
    data::KeyedJagged sparse;
    serve::Batcher::Merge(pending, /*pad=*/1, model.num_dense,
                          model.tables.size(), dense, sparse);
    ASSERT_EQ(dense.rows(), 4u);
    ASSERT_EQ(sparse.batch, 4u);
    ASSERT_EQ(sparse.num_tables, model.tables.size());
    for (size_t i = 0; i < 3; i++) {
        for (size_t c = 0; c < model.num_dense; c++) {
            EXPECT_EQ(dense(i, c), batch.dense(i, c));
        }
    }
    // Pad samples are empty: zero dense features, zero sparse lookups.
    for (size_t t = 0; t < model.tables.size(); t++) {
        EXPECT_EQ(sparse.LengthsForTable(t)[3], 0u);
    }
}

// ---------------------------------------------------------------------
// Snapshot registry
// ---------------------------------------------------------------------

TEST(SnapshotRegistry, VersionsMustIncrease)
{
    serve::SnapshotRegistry registry;
    EXPECT_EQ(registry.Current(), nullptr);
    auto v1 = std::make_shared<serve::ModelSnapshot>();
    v1->version = 1;
    registry.Publish(v1);
    EXPECT_EQ(registry.CurrentVersion(), 1u);
    auto stale = std::make_shared<serve::ModelSnapshot>();
    stale->version = 1;
    EXPECT_THROW(registry.Publish(stale), std::exception);
    auto v3 = std::make_shared<serve::ModelSnapshot>();
    v3->version = 3;
    registry.Publish(v3);
    EXPECT_EQ(registry.CurrentVersion(), 3u);
    EXPECT_EQ(registry.SwapCount(), 2u);
    // A reader holding v1 keeps a valid view after the swaps.
    EXPECT_EQ(v1->version, 1u);
}

// ---------------------------------------------------------------------
// Disk-backed checkpoint store
// ---------------------------------------------------------------------

TEST(DiskCheckpointStore, RoundTripsAcrossStoreInstances)
{
    const neo::testing::ScopedTempDir temp;
    const std::string dir = temp.str();

    DlrmConfig model = core::MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const sharding::ShardingPlan plan = MakePlan(model, workers);
    const size_t global_batch = 16;
    const size_t local_batch = global_batch / workers;
    Matrix source_logits(global_batch, 1);
    {
        core::CheckpointStore store(dir);
        comm::ThreadedWorld::Run(
            workers, [&](int rank, comm::ProcessGroup& pg) {
                DistributedDlrm trainer(model, plan, pg);
                core::DistributedCheckpointer ckpt(trainer, store);
                data::SyntheticCtrDataset dataset(
                    MakeDatasetConfig(model, kDataSeed));
                ckpt.WriteBaseline();
                for (int s = 0; s < 3; s++) {
                    data::Batch global = dataset.NextBatch(global_batch);
                    trainer.TrainStep(
                        SliceBatch(global, rank, local_batch));
                }
                ckpt.WriteDelta();
                data::Batch eval = dataset.NextBatch(global_batch);
                Matrix logits;
                trainer.Predict(SliceBatch(eval, rank, local_batch),
                                logits);
                for (size_t b = 0; b < local_batch; b++) {
                    source_logits(rank * local_batch + b, 0) =
                        logits(b, 0);
                }
            });
    }

    // A FRESH store on the same directory sees the published streams —
    // this is what a separate serving process does.
    core::CheckpointStore reopened(dir);
    ASSERT_EQ(reopened.Ranks().size(), static_cast<size_t>(workers));
    EXPECT_GT(reopened.TotalBytes(), 0u);
    Matrix restored_logits(global_batch, 1);
    comm::ThreadedWorld::Run(
        workers, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            core::DistributedCheckpointer::RestoreInto(reopened, trainer);
            // Replay the writer's stream position: 3 train batches, then
            // the eval batch.
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            for (int s = 0; s < 3; s++) {
                dataset.NextBatch(global_batch);
            }
            data::Batch eval = dataset.NextBatch(global_batch);
            Matrix logits;
            trainer.Predict(SliceBatch(eval, rank, local_batch), logits);
            for (size_t b = 0; b < local_batch; b++) {
                restored_logits(rank * local_batch + b, 0) = logits(b, 0);
            }
        });
    EXPECT_TRUE(Matrix::Identical(source_logits, restored_logits))
        << "max diff "
        << Matrix::MaxAbsDiff(source_logits, restored_logits);
}

TEST(DiskCheckpointStore, RejectsDeltaBeforeBaseline)
{
    const neo::testing::ScopedTempDir temp;
    const std::string dir = temp.str();
    core::CheckpointStore store(dir);
    EXPECT_THROW(store.AppendDelta(0, {1, 2, 3}), std::exception);
    EXPECT_THROW(store.Baseline(0), std::exception);
    EXPECT_TRUE(store.Ranks().empty());
}

TEST(DiskCheckpointStore, RejectsCorruptedBaseline)
{
    const neo::testing::ScopedTempDir temp;
    const std::string dir = temp.str();
    DlrmConfig model = core::MakeSmallDlrmConfig(2, 40, 16);
    const sharding::ShardingPlan plan = MakePlan(model, 1);
    {
        core::CheckpointStore store(dir);
        comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            core::DistributedCheckpointer ckpt(trainer, store);
            ckpt.WriteBaseline();
        });
    }
    // Truncate the stored baseline mid-stream.
    const std::string path = dir + "/rank_0/baseline.bin";
    const auto full_size = std::filesystem::file_size(path);
    ASSERT_GT(full_size, 64u);
    std::filesystem::resize_file(path, full_size / 2);
    core::CheckpointStore reopened(dir);
    EXPECT_THROW(serve::SnapshotFromStore(reopened, model, plan, 1),
                 std::exception);
}

// ---------------------------------------------------------------------
// Snapshot / engine parity with the trainer
// ---------------------------------------------------------------------

/** Train briefly, cut a snapshot from the live trainer, and serve the
 *  trainer's own eval batch through the engine; scores must be bitwise
 *  equal to trainer.Predict under the same plan and world size. */
TEST(Snapshot, FromTrainerServesBitwiseTrainerScores)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const sharding::ShardingPlan plan = MakePlan(model, workers);
    const size_t global_batch = 16;
    const size_t local_batch = global_batch / workers;

    std::shared_ptr<const serve::ModelSnapshot> shared_snap;
    Matrix trainer_logits(global_batch, 1);
    std::vector<float> served(global_batch, 0.0f);
    comm::ThreadedWorld::Run(
        workers, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            for (int s = 0; s < 3; s++) {
                data::Batch global = dataset.NextBatch(global_batch);
                trainer.TrainStep(SliceBatch(global, rank, local_batch));
            }
            auto snap =
                serve::SnapshotFromTrainer(trainer, plan, /*version=*/1);
            if (rank == 0) {
                ASSERT_NE(snap, nullptr);
                shared_snap = snap;
            } else {
                EXPECT_EQ(snap, nullptr);
            }
            pg.Barrier();  // publishes shared_snap to every rank

            data::Batch eval = dataset.NextBatch(global_batch);
            Matrix logits;
            trainer.Predict(SliceBatch(eval, rank, local_batch), logits);
            for (size_t b = 0; b < local_batch; b++) {
                trainer_logits(rank * local_batch + b, 0) = logits(b, 0);
            }

            serve::InferenceEngine engine(serve::EngineOptions{}, pg);
            std::vector<float> out;
            engine.Forward(shared_snap, eval.dense, eval.sparse, out);
            if (rank == 0) {
                served = out;
            }
        });
    for (size_t b = 0; b < global_batch; b++) {
        EXPECT_EQ(served[b], trainer_logits(b, 0)) << "sample " << b;
    }
}

/** Snapshot restored from a disk checkpoint, re-sliced onto a DIFFERENT
 *  serving plan and world size, still reproduces the trainer's forward
 *  bitwise (table-wise pooling order is world-size invariant). */
TEST(Snapshot, FromStoreServesAcrossPlanChange)
{
    const neo::testing::ScopedTempDir temp;
    const std::string dir = temp.str();

    DlrmConfig model = core::MakeSmallDlrmConfig(4, 150, 16);
    const int train_workers = 2;
    const sharding::ShardingPlan train_plan =
        MakePlan(model, train_workers, /*allow_cw=*/false,
                 /*allow_dp=*/false, /*allow_rw=*/false);
    const size_t global_batch = 16;
    const size_t local_batch = global_batch / train_workers;

    Matrix trainer_logits(global_batch, 1);
    {
        core::CheckpointStore store(dir);
        comm::ThreadedWorld::Run(
            train_workers, [&](int rank, comm::ProcessGroup& pg) {
                DistributedDlrm trainer(model, train_plan, pg);
                core::DistributedCheckpointer ckpt(trainer, store);
                data::SyntheticCtrDataset dataset(
                    MakeDatasetConfig(model, kDataSeed));
                for (int s = 0; s < 3; s++) {
                    data::Batch global = dataset.NextBatch(global_batch);
                    trainer.TrainStep(
                        SliceBatch(global, rank, local_batch));
                }
                ckpt.WriteBaseline();
                data::Batch eval = dataset.NextBatch(global_batch);
                Matrix logits;
                trainer.Predict(SliceBatch(eval, rank, local_batch),
                                logits);
                for (size_t b = 0; b < local_batch; b++) {
                    trainer_logits(rank * local_batch + b, 0) =
                        logits(b, 0);
                }
            });
    }

    // Serve on ONE worker from a fresh store: a different plan, a
    // different world size, no trainer anywhere in the process.
    core::CheckpointStore reopened(dir);
    const sharding::ShardingPlan serve_plan =
        MakePlan(model, 1, false, false, false);
    auto snap = serve::SnapshotFromStore(reopened, model, serve_plan,
                                         /*version=*/1);
    ASSERT_NE(snap, nullptr);
    std::vector<float> served(global_batch, 0.0f);
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        serve::InferenceEngine engine(serve::EngineOptions{}, pg);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        for (int s = 0; s < 3; s++) {
            dataset.NextBatch(global_batch);
        }
        data::Batch eval = dataset.NextBatch(global_batch);
        engine.Forward(snap, eval.dense, eval.sparse, served);
    });
    for (size_t b = 0; b < global_batch; b++) {
        EXPECT_EQ(served[b], trainer_logits(b, 0)) << "sample " << b;
    }
}

// ---------------------------------------------------------------------
// Forward determinism + read-only guarantees
// ---------------------------------------------------------------------

/** Serving the same requests must produce bitwise-identical scores
 *  regardless of intra-op thread count and of how the batcher grouped
 *  them, and must never mutate the snapshot. */
TEST(ServeDeterminism, ThreadCountAndBatchCompositionInvariant)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const sharding::ShardingPlan plan = MakePlan(model, workers);
    const size_t global_batch = 16;
    const size_t local_batch = global_batch / workers;

    std::shared_ptr<const serve::ModelSnapshot> shared_snap;
    comm::ThreadedWorld::Run(
        workers, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            for (int s = 0; s < 2; s++) {
                data::Batch global = dataset.NextBatch(global_batch);
                trainer.TrainStep(SliceBatch(global, rank, local_batch));
            }
            auto snap = serve::SnapshotFromTrainer(trainer, plan, 1);
            if (rank == 0) {
                shared_snap = snap;
            }
        });
    ASSERT_NE(shared_snap, nullptr);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, 1234));
    const data::Batch eval = dataset.NextBatch(global_batch);

    // Frozen copies to prove the forward never writes the snapshot.
    std::vector<ops::EmbeddingTable> before_tables;
    for (const auto& shard : shared_snap->shards) {
        before_tables.push_back(shard.table);
    }
    for (const auto& dp : shared_snap->dp_tables) {
        before_tables.push_back(dp.replica);
    }
    ASSERT_FALSE(before_tables.empty());
    const std::vector<uint8_t> before_dense = shared_snap->dense_blob;

    auto serve_once = [&](size_t threads,
                          size_t dispatch) -> std::vector<float> {
        SetDefaultPoolThreads(threads);
        std::vector<float> scores(global_batch, 0.0f);
        comm::ThreadedWorld::Run(
            workers, [&](int rank, comm::ProcessGroup& pg) {
                serve::InferenceEngine engine(serve::EngineOptions{}, pg);
                // Score the eval batch in dispatches of `dispatch`
                // samples (different batch compositions).
                for (size_t begin = 0; begin < global_batch;
                     begin += dispatch) {
                    Matrix dense(dispatch, model.num_dense);
                    for (size_t b = 0; b < dispatch; b++) {
                        for (size_t c = 0; c < model.num_dense; c++) {
                            dense(b, c) = eval.dense(begin + b, c);
                        }
                    }
                    const data::KeyedJagged sparse =
                        eval.sparse.SliceBatch(begin, begin + dispatch);
                    std::vector<float> out;
                    engine.Forward(shared_snap, dense, sparse, out);
                    if (rank == 0) {
                        for (size_t b = 0; b < dispatch; b++) {
                            scores[begin + b] = out[b];
                        }
                    }
                }
            });
        return scores;
    };

    const std::vector<float> reference = serve_once(1, global_batch);
    for (const size_t threads : {size_t{2}, size_t{7}}) {
        const std::vector<float> scores = serve_once(threads, global_batch);
        EXPECT_EQ(scores, reference) << threads << " threads";
    }
    for (const size_t dispatch : {size_t{2}, size_t{4}, size_t{8}}) {
        const std::vector<float> scores = serve_once(2, dispatch);
        EXPECT_EQ(scores, reference)
            << "dispatch batches of " << dispatch;
    }
    SetDefaultPoolThreads(DefaultParallelism());  // restore the default

    size_t t = 0;
    for (const auto& shard : shared_snap->shards) {
        EXPECT_TRUE(
            ops::EmbeddingTable::Identical(before_tables[t++], shard.table))
            << "serving mutated a snapshot embedding shard";
    }
    for (const auto& dp : shared_snap->dp_tables) {
        EXPECT_TRUE(
            ops::EmbeddingTable::Identical(before_tables[t++], dp.replica))
            << "serving mutated a snapshot DP replica";
    }
    EXPECT_EQ(before_dense, shared_snap->dense_blob)
        << "serving mutated the snapshot dense weights";
}

/** The tiered (HBM-cache-over-DDR) lookup path must be bitwise identical
 *  to direct reads, and actually exercise the cache. */
TEST(ServeDeterminism, TieredPathBitwiseMatchesDirect)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(3, 120, 16);
    const sharding::ShardingPlan plan =
        MakePlan(model, 1, false, false, false);
    std::shared_ptr<const serve::ModelSnapshot> shared_snap;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        auto snap = serve::SnapshotFromTrainer(trainer, plan, 1);
        shared_snap = snap;
    });
    ASSERT_NE(shared_snap, nullptr);

    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch eval = dataset.NextBatch(8);
    std::vector<float> direct;
    std::vector<float> tiered;
    double hit_rate = 0.0;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        serve::InferenceEngine plain(serve::EngineOptions{}, pg);
        plain.Forward(shared_snap, eval.dense, eval.sparse, direct);
        EXPECT_EQ(plain.CacheHitRate(), 0.0);  // no tiered shards

        serve::EngineOptions options;
        options.ddr_threshold_bytes = 1;  // every shard through the cache
        serve::InferenceEngine cached(options, pg);
        cached.Forward(shared_snap, eval.dense, eval.sparse, tiered);
        // Second pass over the same rows: the cache must hit now.
        cached.Forward(shared_snap, eval.dense, eval.sparse, tiered);
        hit_rate = cached.CacheHitRate();
    });
    EXPECT_EQ(tiered, direct);
    EXPECT_GT(hit_rate, 0.0);
}

// ---------------------------------------------------------------------
// Server: hot swap under load + admission control
// ---------------------------------------------------------------------

/** Publisher hot-swaps versions while clients serve a sustained stream:
 *  zero requests drop, and every response is attributable to exactly one
 *  version — its score bitwise matches that version's reference. */
TEST(HotSwap, ServesConsistentVersionsUnderConcurrentLoad)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const sharding::ShardingPlan plan = MakePlan(model, workers);
    const size_t global_batch = 16;
    const size_t local_batch = global_batch / workers;
    const int versions = 3;

    // Phase 1: train, cutting a snapshot + per-version reference scores
    // for a fixed eval batch after each block of steps.
    std::vector<std::shared_ptr<const serve::ModelSnapshot>> snaps(
        versions + 1);
    std::vector<Matrix> ref_logits;
    for (int v = 0; v <= versions; v++) {
        ref_logits.emplace_back(global_batch, 1);
    }
    data::SyntheticCtrDataset eval_stream(MakeDatasetConfig(model, 4242));
    const data::Batch eval = eval_stream.NextBatch(global_batch);
    comm::ThreadedWorld::Run(
        workers, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            for (int v = 1; v <= versions; v++) {
                for (int s = 0; s < 2; s++) {
                    data::Batch global = dataset.NextBatch(global_batch);
                    trainer.TrainStep(
                        SliceBatch(global, rank, local_batch));
                }
                auto snap = serve::SnapshotFromTrainer(
                    trainer, plan, static_cast<uint64_t>(v));
                if (rank == 0) {
                    snaps[v] = snap;
                }
                Matrix logits;
                trainer.Predict(SliceBatch(eval, rank, local_batch),
                                logits);
                for (size_t b = 0; b < local_batch; b++) {
                    ref_logits[v](rank * local_batch + b, 0) =
                        logits(b, 0);
                }
            }
        });
    for (int v = 1; v <= versions; v++) {
        ASSERT_NE(snaps[v], nullptr);
    }

    // Phase 2: serve a sustained stream while the publisher swaps.
    serve::ServerOptions options;
    options.batcher.max_batch = 8;
    options.batcher.max_delay_us = 200;
    options.max_queue = 1 << 14;  // shedding off for this test
    serve::Server server(model.num_dense, model.tables.size(), options);
    server.Publish(snaps[1]);

    std::thread world([&] {
        comm::ThreadedWorld::Run(workers,
                                 [&](int rank, comm::ProcessGroup& pg) {
                                     server.RankLoop(rank, pg);
                                 });
    });
    std::thread publisher([&] {
        for (int v = 2; v <= versions; v++) {
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
            server.Publish(snaps[v]);
        }
    });

    std::vector<serve::Ticket> tickets;
    std::vector<size_t> samples;
    uint64_t next_id = 0;
    // Keep submitting until every published version has swapped in and
    // a healthy request count has accumulated.
    while (server.SwapCount() < static_cast<uint64_t>(versions) ||
           tickets.size() < 200) {
        const size_t i = next_id % global_batch;
        serve::Ticket ticket =
            server.Submit(RequestFor(eval, i, next_id));
        ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
        tickets.push_back(std::move(ticket));
        samples.push_back(i);
        next_id++;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ASSERT_LT(tickets.size(), 200000u) << "swap never observed";
    }
    publisher.join();
    server.Stop();
    world.join();

    // Every submitted request completed, attributable to exactly one
    // version, with that version's exact score.
    std::set<uint64_t> seen_versions;
    for (size_t i = 0; i < tickets.size(); i++) {
        ASSERT_TRUE(tickets[i].response.valid());
        serve::Response response = tickets[i].response.get();  // no drop
        EXPECT_EQ(response.id, i);
        ASSERT_GE(response.snapshot_version, 1u);
        ASSERT_LE(response.snapshot_version,
                  static_cast<uint64_t>(versions));
        seen_versions.insert(response.snapshot_version);
        const float expect = Sigmoid(
            ref_logits[static_cast<int>(response.snapshot_version)](
                samples[i], 0));
        EXPECT_EQ(response.score, expect)
            << "request " << i << " version "
            << response.snapshot_version;
        EXPECT_GE(response.total_seconds, response.queue_seconds);
    }
    EXPECT_EQ(server.SwapCount(), static_cast<uint64_t>(versions));
    // Old and new versions both actually served traffic.
    EXPECT_GE(seen_versions.size(), 2u);
    EXPECT_TRUE(seen_versions.count(versions));
}

TEST(Admission, ShedsOnQueueFullAndRecovers)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(2, 40, 16);
    const sharding::ShardingPlan plan =
        MakePlan(model, 1, false, false, false);
    std::shared_ptr<const serve::ModelSnapshot> snap;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        snap = serve::SnapshotFromTrainer(trainer, plan, 1);
    });
    ASSERT_NE(snap, nullptr);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch batch = dataset.NextBatch(8);

    serve::ServerOptions options;
    options.max_queue = 2;
    options.resume_queue = 1;
    options.batcher.max_batch = 8;
    serve::Server server(model.num_dense, model.tables.size(), options);

    // No rank loop yet: the queue only fills.
    std::vector<serve::Ticket> accepted;
    accepted.push_back(server.Submit(RequestFor(batch, 0, 0)));
    accepted.push_back(server.Submit(RequestFor(batch, 1, 1)));
    EXPECT_EQ(accepted[0].admission, serve::Admission::kAccepted);
    EXPECT_EQ(accepted[1].admission, serve::Admission::kAccepted);
    serve::Ticket shed = server.Submit(RequestFor(batch, 2, 2));
    EXPECT_EQ(shed.admission, serve::Admission::kShedQueueFull);
    EXPECT_TRUE(server.shedding());
    // Still above the resume threshold: keeps shedding (hysteresis).
    shed = server.Submit(RequestFor(batch, 3, 3));
    EXPECT_EQ(shed.admission, serve::Admission::kShedQueueFull);

    // Drain through a serving world; shedding must lift once the queue
    // falls back under the resume threshold.
    server.Publish(snap);
    std::thread world([&] {
        comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
            server.RankLoop(rank, pg);
        });
    });
    for (auto& ticket : accepted) {
        EXPECT_EQ(ticket.response.get().snapshot_version, 1u);
    }
    serve::Ticket again = server.Submit(RequestFor(batch, 4, 4));
    EXPECT_EQ(again.admission, serve::Admission::kAccepted);
    EXPECT_FALSE(server.shedding());
    EXPECT_GT(again.response.get().score, 0.0f);

    server.Stop();
    world.join();
    // After Stop every new submit is refused with kShedStopped.
    serve::Ticket late = server.Submit(RequestFor(batch, 5, 5));
    EXPECT_EQ(late.admission, serve::Admission::kShedStopped);
}

TEST(Admission, ShedsOnSloBudget)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(2, 40, 16);
    const sharding::ShardingPlan plan =
        MakePlan(model, 1, false, false, false);
    std::shared_ptr<const serve::ModelSnapshot> snap;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        snap = serve::SnapshotFromTrainer(trainer, plan, 1);
    });
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch batch = dataset.NextBatch(4);

    serve::ServerOptions options;
    options.slo_budget_us = 1;  // any real batch busts the budget
    options.batcher.max_delay_us = 0;
    serve::Server server(model.num_dense, model.tables.size(), options);
    server.Publish(snap);
    std::thread world([&] {
        comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
            server.RankLoop(rank, pg);
        });
    });

    // First request: EWMA unarmed, so it is admitted and serves.
    serve::Ticket first = server.Submit(RequestFor(batch, 0, 0));
    ASSERT_EQ(first.admission, serve::Admission::kAccepted);
    first.response.get();
    // EWMA is armed before the response resolves, so the wait estimate
    // now exceeds the 1us budget deterministically.
    serve::Ticket second = server.Submit(RequestFor(batch, 1, 1));
    EXPECT_EQ(second.admission, serve::Admission::kShedSlo);
    EXPECT_TRUE(server.shedding());

    server.Stop();
    world.join();
}

/** A batch is counted before its requests complete: a client holding a
 *  response always finds that response's batch in the batch metrics. */
TEST(ServerMetrics, BatchCountedBeforeItsResponsesComplete)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(2, 40, 16);
    const sharding::ShardingPlan plan =
        MakePlan(model, 1, false, false, false);
    std::shared_ptr<const serve::ModelSnapshot> snap;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        snap = serve::SnapshotFromTrainer(trainer, plan, 1);
    });
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch batch = dataset.NextBatch(8);

    serve::ServerOptions options;
    options.batcher.max_delay_us = 0;
    serve::Server server(model.num_dense, model.tables.size(), options);
    server.Publish(snap);
    std::thread world([&] {
        comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
            server.RankLoop(rank, pg);
        });
    });

    auto& metrics = obs::MetricsRegistry::Get();
    const obs::Counter& batches = metrics.GetCounter("neo.serve.batches");
    const obs::Histogram& sizes = metrics.GetHistogram("neo.serve.batch_size");
    const uint64_t batches_before = batches.value();
    const uint64_t sizes_before = sizes.GetSnapshot().count;
    // One request at a time, so each response ends a batch of its own.
    for (uint64_t i = 0; i < batch.size(); i++) {
        serve::Ticket ticket = server.Submit(RequestFor(batch, i, i));
        ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
        ticket.response.get();
        EXPECT_EQ(batches.value(), batches_before + i + 1);
        EXPECT_EQ(sizes.GetSnapshot().count, sizes_before + i + 1);
    }

    server.Stop();
    world.join();
}

/** Stop before any snapshot is published: queued requests must drain
 *  as typed kStopped responses — never a broken promise. */
TEST(Admission, StopWithoutSnapshotFailsQueuedRequests)
{
    DlrmConfig model = core::MakeSmallDlrmConfig(2, 40, 16);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch batch = dataset.NextBatch(2);
    serve::Server server(model.num_dense, model.tables.size(),
                         serve::ServerOptions{});
    serve::Ticket ticket = server.Submit(RequestFor(batch, 0, 0));
    ASSERT_EQ(ticket.admission, serve::Admission::kAccepted);
    std::thread world([&] {
        comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
            server.RankLoop(rank, pg);
        });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.Stop();
    world.join();
    const serve::Response response = ticket.response.get();
    EXPECT_EQ(response.status, serve::ResponseStatus::kStopped);
    EXPECT_EQ(response.snapshot_version, 0u);
}

}  // namespace
}  // namespace neo
