/**
 * @file
 * Tests for the inter-batch pipeline driver (Sec. 4.3) and the
 * differential checkpointing of Sec. 4.4 / Check-N-Run: the pipelined
 * collective schedule is numerically transparent, and deltas capture
 * exactly the touched rows at a fraction of a full checkpoint.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <mutex>
#include <set>

#include "comm/fault.h"
#include "comm/threaded_process_group.h"
#include "common/parallel_for.h"
#include "core/async_checkpoint.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"
#include "scoped_temp_dir.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"

namespace neo::core {
namespace {

/** Sampling-stream seed of this file's synthetic data. */
constexpr uint64_t kDataSeed = 31;

sharding::ShardingPlan
PlanFor(const DlrmConfig& model, int workers)
{
    sharding::PlannerOptions options;
    options.topo.num_workers = workers;
    options.topo.workers_per_node = workers;
    options.global_batch = 64;
    options.hbm_bytes_per_worker = 1e12;
    sharding::ShardingPlanner planner(options);
    return planner.Plan(model.tables);
}

data::Batch
Slice(const data::Batch& global, int rank, size_t local_batch)
{
    data::Batch local;
    const size_t begin = rank * local_batch;
    local.dense = Matrix(local_batch, global.dense.cols());
    for (size_t b = 0; b < local_batch; b++) {
        for (size_t c = 0; c < global.dense.cols(); c++) {
            local.dense(b, c) = global.dense(begin + b, c);
        }
    }
    local.sparse = global.sparse.SliceBatch(begin, begin + local_batch);
    local.labels.assign(global.labels.begin() + begin,
                        global.labels.begin() + begin + local_batch);
    return local;
}

// ------------------------------------------------------------- Pipeline

TEST(Pipeline, MatchesUnpipelinedBitwise)
{
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 6;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    auto run = [&](bool pipelined) {
        std::vector<double> losses;
        comm::ThreadedWorld::Run(workers, [&](int rank,
                                              comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, plan, pg);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            std::vector<double> local_losses;
            if (pipelined) {
                PipelinedTrainer pipeline(trainer);
                for (int s = 0; s < steps; s++) {
                    data::Batch global =
                        dataset.NextBatch(local_batch * workers);
                    if (auto loss =
                            pipeline.Push(Slice(global, rank,
                                                local_batch))) {
                        local_losses.push_back(*loss);
                    }
                }
                if (auto loss = pipeline.Flush()) {
                    local_losses.push_back(*loss);
                }
                EXPECT_EQ(pipeline.steps_completed(),
                          static_cast<uint64_t>(steps));
            } else {
                for (int s = 0; s < steps; s++) {
                    data::Batch global =
                        dataset.NextBatch(local_batch * workers);
                    local_losses.push_back(
                        trainer.TrainStep(Slice(global, rank,
                                                local_batch)));
                }
            }
            if (rank == 0) {
                losses = local_losses;
            }
        });
        return losses;
    };

    const std::vector<double> sequential = run(false);
    const std::vector<double> pipelined = run(true);
    ASSERT_EQ(sequential.size(), pipelined.size());
    for (size_t i = 0; i < sequential.size(); i++) {
        EXPECT_EQ(sequential[i], pipelined[i]) << "step " << i;
    }
}

TEST(Pipeline, FlushOnEmptyPipelineIsNoop)
{
    const DlrmConfig model = MakeSmallDlrmConfig(2, 50, 16);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        PipelinedTrainer pipeline(trainer);
        EXPECT_FALSE(pipeline.Flush().has_value());
        EXPECT_EQ(pipeline.steps_completed(), 0u);
    });
}

// ------------------------------------------------------------- Overlap

/** Unpipelined baseline: per-step losses as seen by rank 0. */
std::vector<double>
RunSequential(const DlrmConfig& model, const sharding::ShardingPlan& plan,
              int workers, size_t local_batch, int steps)
{
    std::vector<double> losses;
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        std::vector<double> local_losses;
        for (int s = 0; s < steps; s++) {
            data::Batch global = dataset.NextBatch(local_batch * workers);
            local_losses.push_back(
                trainer.TrainStep(Slice(global, rank, local_batch)));
        }
        if (rank == 0) {
            losses = local_losses;
        }
    });
    return losses;
}

/** Overlapped pipeline over a second (prepare) world; rank 0's losses. */
std::vector<double>
RunOverlapped(const DlrmConfig& model, const sharding::ShardingPlan& plan,
              int workers, size_t local_batch, int steps)
{
    std::vector<double> losses;
    comm::ThreadedWorld prepare_world(workers);
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        std::vector<double> local_losses;
        PipelinedTrainer pipeline(trainer, prepare_world.GetGroup(rank));
        EXPECT_TRUE(pipeline.overlapped());
        for (int s = 0; s < steps; s++) {
            data::Batch global = dataset.NextBatch(local_batch * workers);
            if (auto loss =
                    pipeline.Push(Slice(global, rank, local_batch))) {
                local_losses.push_back(*loss);
            }
        }
        if (auto loss = pipeline.Flush()) {
            local_losses.push_back(*loss);
        }
        EXPECT_EQ(pipeline.steps_completed(),
                  static_cast<uint64_t>(steps));
        if (rank == 0) {
            losses = local_losses;
        }
    });
    return losses;
}

TEST(PipelineOverlap, MatchesUnpipelinedBitwiseAcrossThreadCounts)
{
    // The overlapped schedule moves the input AllToAll onto a background
    // lane and a second communicator; neither may change a single bit of
    // the result, at any shared-pool width (including 1, where a shared
    // pool would deadlock — the dedicated lanes must not care).
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 5;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    const std::vector<double> sequential =
        RunSequential(model, plan, workers, local_batch, steps);
    ASSERT_EQ(sequential.size(), static_cast<size_t>(steps));

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
        SetDefaultPoolThreads(threads);
        const std::vector<double> overlapped =
            RunOverlapped(model, plan, workers, local_batch, steps);
        ASSERT_EQ(overlapped.size(), sequential.size())
            << "threads=" << threads;
        for (size_t i = 0; i < sequential.size(); i++) {
            EXPECT_EQ(sequential[i], overlapped[i])
                << "step " << i << " threads=" << threads;
        }
    }
    SetDefaultPoolThreads(DefaultParallelism());
}

TEST(PipelineOverlap, OverlapSavedNonzeroAndBucketsCoverStep)
{
    // The span-level proof that prepare really left the critical path:
    // rank 0's background lane records prepare spans that coincide with
    // its pipeline_step spans (overlap_saved > 0), while the exclusive-
    // time buckets still sum to the step wall clock.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 6;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    // A loaded (or sanitizer-slowed) box can starve the lane entirely out
    // of every step window in one short run, so retry: the property under
    // test is that prepare *can* run off the critical path, not that the
    // OS schedules it concurrently on every attempt. Coverage must hold
    // on every attempt regardless.
    obs::Tracer& tracer = obs::Tracer::Get();
    obs::StepBreakdown breakdown;
    for (int attempt = 0; attempt < 5; attempt++) {
        tracer.SetEnabled(true);
        tracer.Clear();
        RunOverlapped(model, plan, workers, local_batch, steps);
        const std::vector<obs::Span> spans = tracer.Collect();
        tracer.SetEnabled(false);
        tracer.Clear();

        breakdown = obs::StepBreakdown::FromSpans(spans, 0, "pipeline_step");
        ASSERT_EQ(breakdown.steps, steps);
        // Exclusive-time attribution: buckets sum to the wall clock
        // exactly (up to float rounding), with overlap_saved reported on
        // top, not inside.
        EXPECT_NEAR(breakdown.Coverage(), 1.0, 1e-6);
        if (breakdown.overlap_saved > 0.0) {
            break;
        }
    }
    EXPECT_GT(breakdown.overlap_saved, 0.0);
}

TEST(PipelineOverlap, CountsEachCompletedStepOnce)
{
    // The pipeline trains through TrainStepPrepared, not TrainStep; its
    // steps must reach the step counter, the step-time histogram and
    // each rank's flight-recorder step ring exactly like unpipelined ones.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const int steps = 6;
    const sharding::ShardingPlan plan = PlanFor(model, workers);
    obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
    recorder.Configure(obs::RecorderOptions());
    obs::Counter& step_count =
        obs::MetricsRegistry::Get().GetCounter("neo.core.steps");
    obs::Histogram& step_time =
        obs::MetricsRegistry::Get().GetHistogram("neo.core.step_seconds");
    const uint64_t steps_before = step_count.value();
    const uint64_t times_before = step_time.GetSnapshot().count;

    RunOverlapped(model, plan, workers, 16, steps);

    const uint64_t expected = static_cast<uint64_t>(workers * steps);
    EXPECT_EQ(step_count.value() - steps_before, expected);
    EXPECT_EQ(step_time.GetSnapshot().count - times_before, expected);
    for (int rank = 0; rank < workers; rank++) {
        const auto recorded = recorder.RecentSteps(rank);
        ASSERT_EQ(recorded.size(), static_cast<size_t>(steps))
            << "rank " << rank;
        for (size_t i = 0; i < recorded.size(); i++) {
            EXPECT_EQ(recorded[i].step, i) << "rank " << rank;
            EXPECT_GT(recorded[i].seconds, 0.0) << "rank " << rank;
        }
    }
    recorder.Configure(obs::RecorderOptions());
}

// ----------------------------------------------------- Async checkpoint

/** How TrainWithCheckpoints trains and writes its checkpoints. */
enum class Writer {
    kSync,             ///< TrainStep, then a blocking WriteDelta
    kAsync,            ///< TrainStep, then an AsyncCheckpointer delta
    kAsyncOverlapped,  ///< the overlapped PipelinedTrainer + async deltas
};

/** Train `steps` steps, checkpointing each one into `store`. */
void
TrainWithCheckpoints(const DlrmConfig& model,
                     const sharding::ShardingPlan& plan, int workers,
                     size_t local_batch, int steps, CheckpointStore& store,
                     Writer writer)
{
    comm::ThreadedWorld prepare_world(workers);
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        DistributedCheckpointer checkpointer(trainer, store);
        std::optional<AsyncCheckpointer> background;
        if (writer == Writer::kSync) {
            checkpointer.WriteBaseline();
        } else {
            background.emplace(checkpointer, rank);
            background->WriteBaseline();
        }
        const auto write_delta = [&] {
            if (background) {
                background->WriteDelta();
            } else {
                checkpointer.WriteDelta();
            }
        };
        if (writer == Writer::kAsyncOverlapped) {
            // As train_sparse runs it: a delta after each step the
            // pipeline completes, while it prepares the next batch.
            PipelinedTrainer pipeline(trainer, prepare_world.GetGroup(rank));
            for (int s = 0; s < steps; s++) {
                data::Batch global = dataset.NextBatch(local_batch * workers);
                if (pipeline.Push(Slice(global, rank, local_batch))) {
                    write_delta();
                }
            }
            if (pipeline.Flush()) {
                write_delta();
            }
        } else {
            for (int s = 0; s < steps; s++) {
                data::Batch global = dataset.NextBatch(local_batch * workers);
                trainer.TrainStep(Slice(global, rank, local_batch));
                write_delta();
            }
        }
        if (background) {
            background->Flush();
            EXPECT_EQ(background->flushed_generation(),
                      static_cast<uint64_t>(steps));
            EXPECT_EQ(background->in_flight(), 0u);
        }
    });
}

TEST(AsyncCheckpoint, StoreByteIdenticalToSyncCheckpointing)
{
    // Async checkpointing only moves WHERE serialization runs, and the
    // overlapped pipeline only moves where the input AllToAll runs;
    // every baseline and every delta in the store must be byte-for-byte
    // what the synchronous writer produces after unpipelined steps.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 5;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    CheckpointStore sync_store;
    TrainWithCheckpoints(model, plan, workers, local_batch, steps,
                         sync_store, Writer::kSync);
    for (const Writer writer : {Writer::kAsync, Writer::kAsyncOverlapped}) {
        SCOPED_TRACE(writer == Writer::kAsync ? "async" : "async overlapped");
        CheckpointStore async_store;
        TrainWithCheckpoints(model, plan, workers, local_batch, steps,
                             async_store, writer);
        ASSERT_EQ(sync_store.Ranks(), async_store.Ranks());
        for (const int rank : sync_store.Ranks()) {
            EXPECT_EQ(sync_store.Baseline(rank), async_store.Baseline(rank))
                << "baseline, rank " << rank;
            const auto sync_deltas = sync_store.Deltas(rank);
            const auto async_deltas = async_store.Deltas(rank);
            ASSERT_EQ(sync_deltas.size(), async_deltas.size())
                << "rank " << rank;
            ASSERT_EQ(sync_deltas.size(), static_cast<size_t>(steps));
            for (size_t i = 0; i < sync_deltas.size(); i++) {
                EXPECT_EQ(sync_deltas[i], async_deltas[i])
                    << "delta " << i << ", rank " << rank;
            }
        }
    }
}

TEST(AsyncCheckpoint, DiskStoreDrainsAndRestoresExactly)
{
    // Disk mode: the flusher lane writes through CheckpointStore's
    // atomic file path; after Flush a FRESH store on the directory (a
    // different process, in effect) restores the exact model state.
    const DlrmConfig model = MakeSmallDlrmConfig(3, 120, 16);
    const int workers = 2;
    const size_t local_batch = 8;
    const int steps = 4;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    const neo::testing::ScopedTempDir temp;
    const std::filesystem::path& dir = temp.path();

    Matrix trained_logits;
    {
        CheckpointStore store(dir.string());
        comm::ThreadedWorld::Run(
            workers, [&](int rank, comm::ProcessGroup& pg) {
                DistributedDlrm trainer(model, plan, pg);
                data::SyntheticCtrDataset dataset(
                    MakeDatasetConfig(model, kDataSeed));
                DistributedCheckpointer checkpointer(trainer, store);
                AsyncCheckpointer background(checkpointer, rank);
                background.WriteBaseline();
                for (int s = 0; s < steps; s++) {
                    data::Batch global =
                        dataset.NextBatch(local_batch * workers);
                    trainer.TrainStep(Slice(global, rank, local_batch));
                    background.WriteDelta();
                }
                background.Flush();
                data::SyntheticCtrDataset probe(
                    MakeDatasetConfig(model, kDataSeed));
                data::Batch global = probe.NextBatch(local_batch * workers);
                Matrix logits;
                trainer.Predict(Slice(global, rank, local_batch), logits);
                if (rank == 0) {
                    trained_logits = logits;
                }
            });
    }

    CheckpointStore reopened(dir.string());
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm restored(model, plan, pg);
        DistributedCheckpointer::RestoreInto(reopened, restored);
        data::SyntheticCtrDataset probe(MakeDatasetConfig(model, kDataSeed));
        data::Batch global = probe.NextBatch(local_batch * workers);
        Matrix logits;
        restored.Predict(Slice(global, rank, local_batch), logits);
        if (rank == 0) {
            EXPECT_EQ(Matrix::MaxAbsDiff(trained_logits, logits), 0.0f);
        }
    });
}

TEST(AsyncCheckpoint, CaptureFailureReleasesSlotForLaterWrites)
{
    // The foreground half can fail (here: delta before baseline); the
    // in-flight slot must come back so the checkpointer stays usable.
    const DlrmConfig model = MakeSmallDlrmConfig(2, 50, 16);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    CheckpointStore store;
    comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        DistributedCheckpointer checkpointer(trainer, store);
        AsyncCheckpointer background(checkpointer, rank);
        EXPECT_THROW(background.WriteDelta(), std::runtime_error);
        EXPECT_EQ(background.in_flight(), 0u);
        background.WriteBaseline();
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        data::Batch batch = dataset.NextBatch(8);
        trainer.TrainStep(batch);
        background.WriteDelta();
        background.Flush();
        EXPECT_EQ(background.flushed_generation(), 1u);
    });
    EXPECT_EQ(store.Deltas(0).size(), 1u);
}

// ------------------------------------------------ Dirty-row checkpoints

/** One shard (or DP table) of a plan, placed explicitly. */
sharding::Shard
PlacedShard(const DlrmConfig& model, int table, sharding::Scheme scheme,
            int64_t row_begin, int64_t row_end, int64_t col_begin,
            int64_t col_end, int worker)
{
    sharding::Shard shard;
    shard.table = table;
    shard.scheme = scheme;
    shard.row_begin = row_begin;
    shard.row_end = row_end < 0 ? model.tables[table].rows : row_end;
    shard.col_begin = col_begin;
    shard.col_end = col_end < 0 ? model.tables[table].dim : col_end;
    shard.worker = worker;
    return shard;
}

sharding::ShardingPlan
PlanOf(int workers, std::vector<sharding::Shard> shards)
{
    sharding::ShardingPlan plan;
    plan.worker_cost.assign(workers, 0.0);
    plan.worker_memory.assign(workers, 0.0);
    plan.shards = std::move(shards);
    return plan;
}

/** Two ranks: table 0 row-wise across both, table 1 table-wise on rank
 *  1, table 2 data-parallel, any further table table-wise on rank 0. */
sharding::ShardingPlan
MixedPlan(const DlrmConfig& model)
{
    using sharding::Scheme;
    const int64_t half = model.tables[0].rows / 2;
    std::vector<sharding::Shard> shards = {
        PlacedShard(model, 0, Scheme::kRowWise, 0, half, 0, -1, 0),
        PlacedShard(model, 0, Scheme::kRowWise, half, -1, 0, -1, 1),
        PlacedShard(model, 1, Scheme::kTableWise, 0, -1, 0, -1, 1),
        PlacedShard(model, 2, Scheme::kDataParallel, 0, -1, 0, -1, 0),
    };
    for (int t = 3; t < static_cast<int>(model.tables.size()); t++) {
        shards.push_back(
            PlacedShard(model, t, Scheme::kTableWise, 0, -1, 0, -1, 0));
    }
    return PlanOf(2, shards);
}

/** One worker holding every table whole; table 0 replicated (DP). */
sharding::ShardingPlan
SingleWorkerPlan(const DlrmConfig& model)
{
    std::vector<sharding::Shard> shards;
    for (int t = 0; t < static_cast<int>(model.tables.size()); t++) {
        shards.push_back(PlacedShard(
            model, t,
            t == 0 ? sharding::Scheme::kDataParallel
                   : sharding::Scheme::kTableWise,
            0, -1, 0, -1, 0));
    }
    return PlanOf(1, shards);
}

std::vector<float>
AllRowState(const ops::SparseOptimizer& opt, int64_t rows)
{
    const size_t sfpr = opt.StateFloatsPerRow();
    std::vector<float> state(static_cast<size_t>(rows) * sfpr);
    for (int64_t r = 0; r < rows; r++) {
        opt.ExportRowState(r, state.data() + static_cast<size_t>(r) * sfpr);
    }
    return state;
}

/** A copy of one checkpointed entry's rows and optimizer state. */
struct EntryState {
    int table = -1;
    int64_t row_begin = 0;
    ops::EmbeddingTable rows;
    std::vector<float> opt;
};

/** The entries `rank`'s delta stream carries: its shards, then (rank 0)
 *  the DP tables — copied, as the in-test reference. */
std::vector<EntryState>
CopyEntries(const DistributedDlrm& trainer, int rank)
{
    std::vector<EntryState> out;
    for (size_t i = 0; i < trainer.NumLocalShards(); i++) {
        const auto& shard = trainer.local_shard(i);
        out.push_back({shard.meta.table, shard.meta.row_begin, shard.table,
                       AllRowState(shard.optimizer, shard.table.rows())});
    }
    if (rank == 0) {
        for (size_t i = 0; i < trainer.NumDpTables(); i++) {
            const auto& dp = trainer.dp_table(i);
            out.push_back({dp.table, 0, dp.replica,
                           AllRowState(dp.optimizer, dp.replica.rows())});
        }
    }
    return out;
}

/** Local rows whose value or optimizer state differs between a and b. */
std::set<int64_t>
ChangedRows(const EntryState& a, const EntryState& b)
{
    const size_t dim = static_cast<size_t>(a.rows.dim());
    const size_t sfpr = a.opt.size() / static_cast<size_t>(a.rows.rows());
    std::vector<float> ra(dim);
    std::vector<float> rb(dim);
    std::set<int64_t> changed;
    for (int64_t r = 0; r < a.rows.rows(); r++) {
        a.rows.ReadRow(r, ra.data());
        b.rows.ReadRow(r, rb.data());
        const size_t o = static_cast<size_t>(r) * sfpr;
        if (std::memcmp(ra.data(), rb.data(), dim * sizeof(float)) != 0 ||
            !std::equal(a.opt.begin() + o, a.opt.begin() + o + sfpr,
                        b.opt.begin() + o)) {
            changed.insert(r);
        }
    }
    return changed;
}

/** The global row ids each entry of a delta stream carries, in order. */
std::vector<std::vector<int64_t>>
DeltaRows(const std::vector<uint8_t>& delta)
{
    BinaryReader reader(delta);
    reader.Read<uint32_t>();  // magic
    reader.Read<int32_t>();   // rank
    reader.Read<uint64_t>();  // epoch
    std::vector<std::vector<int64_t>> rows(reader.Read<uint64_t>());
    for (auto& entry : rows) {
        reader.Read<int32_t>();
        reader.Read<uint8_t>();
        for (int i = 0; i < 4; i++) {
            reader.Read<int64_t>();
        }
        reader.Read<uint32_t>();
        entry = reader.ReadVector<int64_t>();
        reader.ReadVector<float>();
        reader.ReadVector<float>();
    }
    if (reader.Read<uint8_t>() != 0) {
        reader.ReadVector<uint8_t>();
    }
    EXPECT_TRUE(reader.AtEnd());
    return rows;
}

std::vector<uint8_t>
MlpBytes(DistributedDlrm& trainer)
{
    BinaryWriter writer;
    trainer.bottom_mlp().Save(writer);
    trainer.top_mlp().Save(writer);
    return writer.Take();
}

/** Tables, optimizer state and MLPs of two same-plan trainers match
 *  bitwise. */
void
ExpectSameModel(DistributedDlrm& live, DistributedDlrm& restored)
{
    ASSERT_EQ(live.NumLocalShards(), restored.NumLocalShards());
    for (size_t i = 0; i < live.NumLocalShards(); i++) {
        const auto& a = live.local_shard(i);
        const auto& b = restored.local_shard(i);
        EXPECT_TRUE(ops::EmbeddingTable::Identical(a.table, b.table))
            << "shard " << i;
        EXPECT_EQ(AllRowState(a.optimizer, a.table.rows()),
                  AllRowState(b.optimizer, b.table.rows()))
            << "shard " << i;
    }
    ASSERT_EQ(live.NumDpTables(), restored.NumDpTables());
    for (size_t i = 0; i < live.NumDpTables(); i++) {
        const auto& a = live.dp_table(i);
        const auto& b = restored.dp_table(i);
        EXPECT_TRUE(ops::EmbeddingTable::Identical(a.replica, b.replica))
            << "DP table " << i;
        EXPECT_EQ(AllRowState(a.optimizer, a.replica.rows()),
                  AllRowState(b.optimizer, b.replica.rows()))
            << "DP table " << i;
    }
    EXPECT_EQ(MlpBytes(live), MlpBytes(restored));
}

/** Restore a fresh same-plan trainer from `store` and compare it with
 *  `live` (collective). */
void
ExpectRestoresLive(const CheckpointStore& store, DistributedDlrm& live,
                   comm::ProcessGroup& pg)
{
    // Every rank's latest write must be in the store before any reads.
    pg.Barrier();
    DistributedDlrm restored(live.config(), MixedPlan(live.config()), pg);
    DistributedCheckpointer::RestoreInto(store, restored);
    ExpectSameModel(live, restored);
}

constexpr size_t kLocalBatch = 8;

TEST(DirtyRowCheckpoint, DeltaCarriesEveryChangedRowAndOnlyUpdatedRows)
{
    using ops::SparseOptimizerKind;
    for (const SparseOptimizerKind kind :
         {SparseOptimizerKind::kSgd, SparseOptimizerKind::kAdaGrad,
          SparseOptimizerKind::kRowWiseAdaGrad, SparseOptimizerKind::kAdam}) {
        for (const Precision precision :
             {Precision::kFp32, Precision::kFp16}) {
            SCOPED_TRACE(std::string(ops::SparseOptimizerKindName(kind)) +
                         (precision == Precision::kFp16 ? " fp16" : " fp32"));
            DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
            model.sparse_optimizer.kind = kind;
            for (auto& table : model.tables) {
                table.precision = precision;
            }
            const sharding::ShardingPlan plan = MixedPlan(model);
            CheckpointStore store;
            comm::ThreadedWorld::Run(2, [&](int rank,
                                            comm::ProcessGroup& pg) {
                DistributedDlrm trainer(model, plan, pg);
                DistributedCheckpointer ckpt(trainer, store);
                data::SyntheticCtrDataset dataset(
                    MakeDatasetConfig(model, kDataSeed));
                ckpt.WriteBaseline();
                std::vector<EntryState> previous = CopyEntries(trainer, rank);
                for (int write = 0; write < 4; write++) {
                    // Local rows each entry's updates touched since the
                    // last write (write 2 follows no step at all).
                    std::vector<std::set<int64_t>> updated(previous.size());
                    for (int s = 0; s < (write == 2 ? 0 : 2); s++) {
                        const data::Batch global =
                            dataset.NextBatch(kLocalBatch * 2);
                        auto prepared = trainer.PrepareInput(
                            Slice(global, rank, kLocalBatch));
                        for (size_t i = 0; i < trainer.NumLocalShards();
                             i++) {
                            for (const int64_t r :
                                 prepared.shard_inputs[i].IndicesForTable(0)) {
                                updated[i].insert(r);
                            }
                        }
                        for (size_t i = trainer.NumLocalShards();
                             i < previous.size(); i++) {
                            for (const int64_t r :
                                 global.sparse.IndicesForTable(
                                     static_cast<size_t>(
                                         previous[i].table))) {
                                updated[i].insert(r);
                            }
                        }
                        trainer.TrainStepPrepared(prepared);
                    }
                    ckpt.WriteDelta();

                    const std::vector<EntryState> current =
                        CopyEntries(trainer, rank);
                    const auto carried = DeltaRows(store.Deltas(rank).back());
                    ASSERT_EQ(carried.size(), current.size());
                    uint64_t total = 0;
                    for (size_t e = 0; e < current.size(); e++) {
                        std::set<int64_t> local;
                        for (const int64_t g : carried[e]) {
                            local.insert(g - current[e].row_begin);
                        }
                        EXPECT_TRUE(std::is_sorted(carried[e].begin(),
                                                   carried[e].end()));
                        EXPECT_EQ(local.size(), carried[e].size());
                        for (const int64_t r :
                             ChangedRows(previous[e], current[e])) {
                            EXPECT_TRUE(local.count(r))
                                << "write " << write << " entry " << e
                                << ": changed row " << r << " not carried";
                        }
                        for (const int64_t r : local) {
                            EXPECT_TRUE(updated[e].count(r))
                                << "write " << write << " entry " << e
                                << ": carried row " << r
                                << " that no step updated";
                        }
                        total += local.size();
                    }
                    EXPECT_EQ(ckpt.last_delta_rows(), total);
                    if (write == 2) {
                        EXPECT_EQ(total, 0u);
                    }
                    previous = current;
                    ExpectRestoresLive(store, trainer, pg);
                }
            });
        }
    }
}

TEST(DeltaCheckpoint, DeltaMuchSmallerThanBaselineUnderSparseUpdates)
{
    // The Check-N-Run observation: a few training steps touch only a
    // small, Zipf-skewed subset of a table's rows, so a delta is a
    // fraction of the baseline.
    const DlrmConfig model = MakeSmallDlrmConfig(1, 20000, 16);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    CheckpointStore store;
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        DistributedCheckpointer ckpt(trainer, store);
        data::SyntheticCtrDataset dataset(
            MakeDatasetConfig(model, kDataSeed, /*zipf_s=*/1.1));
        ckpt.WriteBaseline();
        size_t lookups = 0;
        for (int s = 0; s < 4; s++) {
            const data::Batch batch = dataset.NextBatch(64);
            lookups += batch.sparse.TotalIndices();
            trainer.TrainStep(batch);
        }
        ckpt.WriteDelta();
        EXPECT_GT(ckpt.last_delta_rows(), 0u);
        EXPECT_LT(ckpt.last_delta_rows(), lookups);  // repeats merge
        const CheckpointStore::RankStreams streams = store.Streams(0);
        ASSERT_EQ(streams.deltas.size(), 1u);
        EXPECT_LT(streams.deltas[0]->size(), streams.baseline->size() / 10);

        DistributedDlrm restored(model, plan, pg);
        DistributedCheckpointer::RestoreInto(store, restored);
        ExpectSameModel(trainer, restored);
    });
}

TEST(DeltaCheckpoint, BaselinePlusDeltasRestoreExactly)
{
    // Each step re-touches some rows and touches new ones; the baseline
    // plus both deltas restore the latest value of every row.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    CheckpointStore store;
    comm::ThreadedWorld::Run(2, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, MixedPlan(model), pg);
        DistributedCheckpointer ckpt(trainer, store);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        ckpt.WriteBaseline();
        for (int d = 0; d < 2; d++) {
            trainer.TrainStep(
                Slice(dataset.NextBatch(kLocalBatch * 2), rank, kLocalBatch));
            ckpt.WriteDelta();
            EXPECT_GT(ckpt.last_delta_rows(), 0u);
        }
        EXPECT_EQ(store.Deltas(rank).size(), 2u);
        ExpectRestoresLive(store, trainer, pg);
    });
}

TEST(DeltaCheckpoint, NoChangesMeansEmptyDelta)
{
    // Rows a step dirtied before the baseline are in the baseline, so a
    // delta right after it carries no row of any entry, and still chains.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    CheckpointStore store;
    comm::ThreadedWorld::Run(2, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, MixedPlan(model), pg);
        DistributedCheckpointer ckpt(trainer, store);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        trainer.TrainStep(
            Slice(dataset.NextBatch(kLocalBatch * 2), rank, kLocalBatch));
        ckpt.WriteBaseline();
        ckpt.WriteDelta();
        EXPECT_EQ(ckpt.last_delta_rows(), 0u);
        const auto carried = DeltaRows(store.Deltas(rank).back());
        EXPECT_FALSE(carried.empty());
        for (const auto& rows : carried) {
            EXPECT_TRUE(rows.empty());
        }
        ExpectRestoresLive(store, trainer, pg);
    });
}

TEST(DirtyRowCheckpoint, RolledBackRetryThenDeltaRestoresBitwise)
{
    using std::chrono::milliseconds;
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    DistributedOptions options;
    options.max_step_retries = 2;
    options.retry_backoff = milliseconds(1);
    options.recover_timeout = milliseconds(5000);
    // Two AllReduces per step (loss, MLP grads) after the baseline's
    // epoch agreement: index 4 is step 1's MLP-grad AllReduce, between
    // its sparse apply and its dense apply.
    comm::FaultInjector injector;
    comm::FaultSpec kill;
    kill.rank = 1;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 4;
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);
    comm::ThreadedWorld::Options world_options;
    world_options.injector = &injector;
    world_options.barrier_timeout = milliseconds(20000);

    CheckpointStore store;
    comm::ThreadedWorld::Run(
        2, world_options, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, MixedPlan(model), pg, options);
            DistributedCheckpointer ckpt(trainer, store);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            ckpt.WriteBaseline();
            for (int s = 0; s < 3; s++) {
                const StepResult result = trainer.TrainStepWithRecovery(
                    Slice(dataset.NextBatch(kLocalBatch * 2), rank,
                          kLocalBatch));
                ASSERT_TRUE(result.ok);
                EXPECT_EQ(result.attempts, s == 1 ? 2 : 1);
            }
            ckpt.WriteDelta();
            ExpectRestoresLive(store, trainer, pg);
        });
    EXPECT_EQ(injector.Fired().size(), 1u);
}

TEST(DirtyRowCheckpoint, RestoreIntoThenDeltaRestoresBitwise)
{
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    CheckpointStore trained;
    CheckpointStore store;
    comm::ThreadedWorld::Run(2, [&](int rank, comm::ProcessGroup& pg) {
        {
            DistributedDlrm source(model, MixedPlan(model), pg);
            DistributedCheckpointer ckpt(source, trained);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            ckpt.WriteBaseline();
            for (int s = 0; s < 3; s++) {
                source.TrainStep(Slice(dataset.NextBatch(kLocalBatch * 2),
                                       rank, kLocalBatch));
            }
            ckpt.WriteDelta();
        }
        pg.Barrier();

        // Baseline the untrained model, restore the trained one over it,
        // and checkpoint only a delta: it must carry every restored row.
        DistributedDlrm trainer(model, MixedPlan(model), pg);
        DistributedCheckpointer ckpt(trainer, store);
        ckpt.WriteBaseline();
        DistributedCheckpointer::RestoreInto(trained, trainer);
        ckpt.WriteDelta();
        ExpectRestoresLive(store, trainer, pg);
    });
}

TEST(DirtyRowCheckpoint, FailedEpochAgreementThenDeltaRestoresBitwise)
{
    using std::chrono::milliseconds;
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    // AllReduce 0 is the baseline's epoch agreement and two steps take
    // 1..4, so index 5 is the first delta's epoch agreement.
    comm::FaultInjector injector;
    comm::FaultSpec kill;
    kill.rank = 1;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 5;
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);
    comm::ThreadedWorld::Options world_options;
    world_options.injector = &injector;
    world_options.barrier_timeout = milliseconds(20000);

    CheckpointStore store;
    comm::ThreadedWorld::Run(
        2, world_options, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, MixedPlan(model), pg);
            DistributedCheckpointer ckpt(trainer, store);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            ckpt.WriteBaseline();
            auto step = [&] {
                trainer.TrainStep(Slice(dataset.NextBatch(kLocalBatch * 2),
                                        rank, kLocalBatch));
            };
            step();
            step();
            EXPECT_THROW(ckpt.WriteDelta(), comm::RankFailure);
            ASSERT_TRUE(pg.Recover(milliseconds(5000)));
            step();
            ckpt.WriteDelta();
            EXPECT_EQ(store.Deltas(rank).size(), 1u);
            ExpectRestoresLive(store, trainer, pg);
        });
    EXPECT_EQ(injector.Fired().size(), 1u);
}

TEST(DirtyRowCheckpoint, SecondLiveCheckpointerOnOneTrainerThrows)
{
    const DlrmConfig model = MakeSmallDlrmConfig(3, 40, 8);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    CheckpointStore store;
    comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        {
            DistributedCheckpointer first(trainer, store);
            EXPECT_THROW(
                { DistributedCheckpointer second(trainer, store); },
                std::runtime_error);
            first.WriteBaseline();
        }
        // The first is gone, so a new one may take over the trainer.
        DistributedCheckpointer next(trainer, store);
        next.WriteBaseline();
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        trainer.TrainStep(dataset.NextBatch(kLocalBatch));
        next.WriteDelta();
        EXPECT_GT(next.last_delta_rows(), 0u);
        DistributedDlrm restored(model, plan, pg);
        DistributedCheckpointer::RestoreInto(store, restored);
        ExpectSameModel(trainer, restored);
        (void)rank;
    });
}

TEST(DirtyRowCheckpoint, CaptureTimeAndRowsAreExported)
{
    const DlrmConfig model = MakeSmallDlrmConfig(4, 40, 8);
    auto& metrics = obs::MetricsRegistry::Get();
    obs::Histogram& capture_seconds =
        metrics.GetHistogram("neo.core.checkpoint_capture_seconds");
    obs::Counter& delta_rows =
        metrics.GetCounter("neo.core.checkpoint_delta_rows");
    const uint64_t captures_before = capture_seconds.GetSnapshot().count;
    const uint64_t rows_before = delta_rows.value();

    const int writes = 3;
    std::atomic<uint64_t> reported_rows{0};
    CheckpointStore store;
    comm::ThreadedWorld::Run(2, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, MixedPlan(model), pg);
        DistributedCheckpointer ckpt(trainer, store);
        AsyncCheckpointer background(ckpt, rank);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        background.WriteBaseline();
        for (int w = 0; w < writes; w++) {
            trainer.TrainStep(
                Slice(dataset.NextBatch(kLocalBatch * 2), rank, kLocalBatch));
            background.WriteDelta();
            reported_rows += ckpt.last_delta_rows();
        }
        background.Flush();
    });
    EXPECT_EQ(capture_seconds.GetSnapshot().count - captures_before,
              static_cast<uint64_t>(2 * writes));
    EXPECT_EQ(delta_rows.value() - rows_before, reported_rows.load());
    EXPECT_GT(reported_rows.load(), 0u);
    const std::string prometheus = metrics.ToPrometheus();
    EXPECT_NE(prometheus.find("neo_core_checkpoint_capture_seconds"),
              std::string::npos);
    EXPECT_NE(prometheus.find("neo_core_checkpoint_delta_rows"),
              std::string::npos);
    const std::string json = metrics.ToJson();
    EXPECT_NE(json.find("neo.core.checkpoint_capture_seconds"),
              std::string::npos);
    EXPECT_NE(json.find("neo.core.checkpoint_delta_rows"),
              std::string::npos);
}

// ------------------------------------------------------ Checkpoint reader

/** A tiny model: small tables and MLPs keep its streams short. */
DlrmConfig
TinyModel()
{
    DlrmConfig model = MakeSmallDlrmConfig(3, 8, 4);
    model.num_dense = 2;
    model.bottom_mlp = {4};
    model.top_mlp = {4};
    return model;
}

/** A small 2-rank job (MixedPlan) checkpointed as baseline + deltas. */
struct SmallJob {
    DlrmConfig model = TinyModel();
    CheckpointStore store;
    /** The live model at the last delta, as logical tables (in-test
     *  reference), with optimizer state, and rank 0's MLP bytes. */
    std::map<int, ops::EmbeddingTable> tables;
    std::map<int, std::vector<float>> opt_state;
    std::vector<uint8_t> mlp;
    std::shared_ptr<const serve::ModelSnapshot> from_trainer;

    SmallJob(int deltas, const sharding::ShardingPlan* serving_plan = nullptr)
    {
        std::mutex mutex;
        comm::ThreadedWorld::Run(2, [&](int rank, comm::ProcessGroup& pg) {
            DistributedDlrm trainer(model, MixedPlan(model), pg);
            DistributedCheckpointer ckpt(trainer, store);
            data::SyntheticCtrDataset dataset(
                MakeDatasetConfig(model, kDataSeed));
            ckpt.WriteBaseline();
            for (int d = 0; d < deltas; d++) {
                trainer.TrainStep(Slice(dataset.NextBatch(kLocalBatch * 2),
                                        rank, kLocalBatch));
                ckpt.WriteDelta();
            }
            if (serving_plan != nullptr) {
                auto snap =
                    serve::SnapshotFromTrainer(trainer, *serving_plan, 1);
                if (rank == 0) {
                    from_trainer = snap;
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            for (const EntryState& e : CopyEntries(trainer, rank)) {
                const auto& cfg = model.tables[e.table];
                auto it = tables.try_emplace(e.table, cfg.rows, cfg.dim,
                                             cfg.precision)
                              .first;
                std::vector<float>& opt = opt_state[e.table];
                const size_t sfpr =
                    e.opt.size() / static_cast<size_t>(e.rows.rows());
                opt.resize(static_cast<size_t>(cfg.rows) * sfpr);
                std::vector<float> row(static_cast<size_t>(cfg.dim));
                for (int64_t r = 0; r < e.rows.rows(); r++) {
                    e.rows.ReadRow(r, row.data());
                    it->second.WriteRow(e.row_begin + r, row.data());
                }
                std::copy(e.opt.begin(), e.opt.end(),
                          opt.begin() + e.row_begin *
                                            static_cast<int64_t>(sfpr));
            }
            if (rank == 0) {
                mlp = MlpBytes(trainer);
            }
        });
    }

    /** Logical row `g` of `table`, columns [c0, c1), from the reference. */
    std::vector<float>
    Row(int table, int64_t g, int64_t c0, int64_t c1) const
    {
        std::vector<float> row(
            static_cast<size_t>(model.tables[table].dim));
        tables.at(table).ReadRow(g, row.data());
        return {row.begin() + c0, row.begin() + c1};
    }
};

/** Rows of `table` as floats, for bitwise comparison. */
std::vector<float>
RowOf(const ops::EmbeddingTable& table, int64_t r)
{
    std::vector<float> row(static_cast<size_t>(table.dim()));
    table.ReadRow(r, row.data());
    return row;
}

TEST(CheckpointReader, TwoToOneRestoreMatchesLiveBitwise)
{
    SmallJob job(/*deltas=*/3);
    const sharding::ShardingPlan plan = SingleWorkerPlan(job.model);
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm restored(job.model, plan, pg);
        DistributedCheckpointer::RestoreInto(job.store, restored);
        EXPECT_EQ(MlpBytes(restored), job.mlp);
        auto expect_rows = [&](int table, const ops::EmbeddingTable& rows,
                               const ops::SparseOptimizer& opt) {
            const size_t sfpr = opt.StateFloatsPerRow();
            const std::vector<float> state = AllRowState(opt, rows.rows());
            for (int64_t g = 0; g < rows.rows(); g++) {
                EXPECT_EQ(RowOf(rows, g),
                          job.Row(table, g, 0, rows.dim()))
                    << "table " << table << " row " << g;
            }
            EXPECT_EQ(state, std::vector<float>(
                                 job.opt_state.at(table).begin(),
                                 job.opt_state.at(table).begin() +
                                     rows.rows() *
                                         static_cast<int64_t>(sfpr)))
                << "table " << table;
        };
        ASSERT_EQ(restored.NumLocalShards(), 2u);
        for (size_t i = 0; i < restored.NumLocalShards(); i++) {
            const auto& shard = restored.local_shard(i);
            expect_rows(shard.meta.table, shard.table, shard.optimizer);
        }
        ASSERT_EQ(restored.NumDpTables(), 1u);
        expect_rows(restored.dp_table(0).table, restored.dp_table(0).replica,
                    restored.dp_table(0).optimizer);
    });
}

TEST(CheckpointReader, ColumnWiseSnapshotMatchesLiveBitwise)
{
    using sharding::Scheme;
    const DlrmConfig shape = TinyModel();
    const int64_t rows1 = shape.tables[1].rows;
    // Table 0 split by columns, table 1 by rows and then columns,
    // table 2 replicated.
    const sharding::ShardingPlan serving = PlanOf(
        1, {PlacedShard(shape, 0, Scheme::kColumnWise, 0, -1, 0, 1, 0),
            PlacedShard(shape, 0, Scheme::kColumnWise, 0, -1, 1, 4, 0),
            PlacedShard(shape, 1, Scheme::kRowWise, 0, rows1 / 3, 0, -1, 0),
            PlacedShard(shape, 1, Scheme::kColumnWise, rows1 / 3, -1, 0, 2,
                        0),
            PlacedShard(shape, 1, Scheme::kColumnWise, rows1 / 3, -1, 2, 4,
                        0),
            PlacedShard(shape, 2, Scheme::kDataParallel, 0, -1, 0, -1, 0)});
    SmallJob job(/*deltas=*/2, &serving);
    const auto snap = serve::SnapshotFromStore(job.store, job.model, serving,
                                               /*version=*/1);
    ASSERT_EQ(snap->shards.size(), 5u);
    for (const auto& piece : snap->shards) {
        for (int64_t r = 0; r < piece.table.rows(); r++) {
            EXPECT_EQ(RowOf(piece.table, r),
                      job.Row(piece.meta.table, piece.meta.row_begin + r,
                              piece.meta.col_begin, piece.meta.col_end))
                << "table " << piece.meta.table << " row "
                << piece.meta.row_begin + r;
        }
    }
    ASSERT_EQ(snap->dp_tables.size(), 1u);
    EXPECT_TRUE(ops::EmbeddingTable::Identical(snap->dp_tables[0].replica,
                                               job.tables.at(2)));
    ASSERT_GE(snap->dense_blob.size(), job.mlp.size());
    EXPECT_TRUE(std::equal(job.mlp.begin(), job.mlp.end(),
                           snap->dense_blob.begin()));
    EXPECT_EQ(snap->source_epoch, 3u);

    // Cutting the same plan from the live trainer gives the same pieces.
    ASSERT_NE(job.from_trainer, nullptr);
    ASSERT_EQ(job.from_trainer->shards.size(), snap->shards.size());
    for (size_t i = 0; i < snap->shards.size(); i++) {
        EXPECT_TRUE(ops::EmbeddingTable::Identical(
            job.from_trainer->shards[i].table, snap->shards[i].table))
            << "piece " << i;
    }
    EXPECT_TRUE(ops::EmbeddingTable::Identical(
        job.from_trainer->dp_tables[0].replica, snap->dp_tables[0].replica));
}

TEST(CheckpointReader, RejectsStoreMissingTargetRows)
{
    SmallJob job(/*deltas=*/1);
    // Rank 0's streams alone (it holds the dense state) lack the rows of
    // table 0 and table 1 that rank 1 wrote.
    CheckpointStore partial;
    partial.PutBaseline(0, job.store.Baseline(0));
    for (auto& delta : job.store.Deltas(0)) {
        partial.AppendDelta(0, std::move(delta));
    }
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm restored(job.model, SingleWorkerPlan(job.model), pg);
        EXPECT_THROW(DistributedCheckpointer::RestoreInto(partial, restored),
                     std::runtime_error);
    });
    EXPECT_THROW(serve::SnapshotFromStore(partial, job.model,
                                          SingleWorkerPlan(job.model), 1),
                 std::runtime_error);
    // Table 2 (DP, rank 0) is whole, so a plan serving only it reads.
    const sharding::ShardingPlan only_dp = PlanOf(
        1, {PlacedShard(job.model, 2, sharding::Scheme::kDataParallel, 0, -1,
                        0, -1, 0)});
    EXPECT_NO_THROW(
        serve::SnapshotFromStore(partial, job.model, only_dp, 1));
}

TEST(CheckpointReader, EveryTruncationOfEveryStreamThrows)
{
    SmallJob job(/*deltas=*/1);
    const sharding::ShardingPlan plan = SingleWorkerPlan(job.model);
    const std::vector<int> ranks = job.store.Ranks();
    ASSERT_EQ(ranks.size(), 2u);

    const neo::testing::ScopedTempDir temp;
    {
        CheckpointStore disk(temp.str());
        for (const int r : ranks) {
            disk.PutBaseline(r, job.store.Baseline(r));
            for (auto& delta : job.store.Deltas(r)) {
                disk.AppendDelta(r, std::move(delta));
            }
        }
    }

    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm target(job.model, plan, pg);
        auto expect_rejected = [&](const CheckpointStore& store,
                                   const std::string& what) {
            EXPECT_THROW(DistributedCheckpointer::RestoreInto(store, target),
                         std::runtime_error)
                << what;
            EXPECT_THROW(serve::SnapshotFromStore(store, job.model, plan, 1),
                         std::runtime_error)
                << what;
        };
        // Both readers accept the untouched streams.
        DistributedCheckpointer::RestoreInto(job.store, target);
        serve::SnapshotFromStore(job.store, job.model, plan, 1);

        for (const int victim : ranks) {
            // Stream 0 is the baseline, stream 1 the delta.
            for (int stream = 0; stream < 2; stream++) {
                const std::vector<uint8_t> full =
                    stream == 0 ? job.store.Baseline(victim)
                                : job.store.Deltas(victim).at(0);
                const std::filesystem::path file =
                    temp.path() / ("rank_" + std::to_string(victim)) /
                    (stream == 0 ? "baseline.bin" : "delta_00000.bin");
                for (size_t keep = 0; keep < full.size(); keep++) {
                    const std::string what =
                        "rank " + std::to_string(victim) + " stream " +
                        std::to_string(stream) + " cut to " +
                        std::to_string(keep) + " of " +
                        std::to_string(full.size()) + " bytes";
                    const std::vector<uint8_t> cut(full.begin(),
                                                   full.begin() + keep);
                    CheckpointStore memory;
                    for (const int r : ranks) {
                        memory.PutBaseline(r, r == victim && stream == 0
                                                  ? cut
                                                  : job.store.Baseline(r));
                        memory.AppendDelta(r, r == victim && stream == 1
                                                  ? cut
                                                  : job.store.Deltas(r)[0]);
                    }
                    expect_rejected(memory, what + " (memory)");

                    std::filesystem::resize_file(file, keep);
                    expect_rejected(CheckpointStore(temp.str()),
                                    what + " (disk)");
                    std::ofstream(file, std::ios::binary)
                        .write(reinterpret_cast<const char*>(full.data()),
                               static_cast<std::streamsize>(full.size()));
                }
            }
        }
    });
}

/** Read or overwrite a `T` at byte `offset` of a stream. */
template <typename T>
T
Peek(const std::vector<uint8_t>& bytes, size_t offset)
{
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(T));
    return value;
}

template <typename T>
void
Poke(std::vector<uint8_t>& bytes, size_t offset, T value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

// A delta stream starts with its header (magic u32, rank i32, epoch u64,
// entry count u64), then the first entry's header (table i32, is_dp u8,
// row_begin, row_end, col_begin, col_end i64, optimizer floats per row
// u32), then that entry's row ids, length-prefixed.
constexpr size_t kFirstRowBegin = 24 + 4 + 1;
constexpr size_t kRowIdCount = 24 + 41;
constexpr size_t kFirstRowId = kRowIdCount + 8;

/** One rank's streams, as bytes a case may edit. */
struct EditableStreams {
    std::vector<uint8_t> baseline;
    std::vector<std::vector<uint8_t>> deltas;
};

/** An edit of a job's streams, or of the model they are read under,
 *  that both readers must reject. */
struct Corruption {
    std::string what;
    /** Substring of the reader's message (empty: any message). */
    std::string message;
    std::function<void(std::map<int, EditableStreams>&)> edit;
    /** Model the streams are read under (null: the job's). */
    const DlrmConfig* model = nullptr;
};

/**
 * Both readers, RestoreInto a 1-worker trainer and SnapshotFromStore,
 * accept `job`'s streams as written, and throw std::runtime_error with
 * each case's message once that case's edit is applied.
 */
void
ExpectReadersReject(const SmallJob& job, const std::vector<Corruption>& cases)
{
    std::map<int, EditableStreams> original;
    for (const int r : job.store.Ranks()) {
        original[r] = {job.store.Baseline(r), job.store.Deltas(r)};
    }
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        const sharding::ShardingPlan plan = SingleWorkerPlan(job.model);
        DistributedDlrm target(job.model, plan, pg);
        DistributedCheckpointer::RestoreInto(job.store, target);
        serve::SnapshotFromStore(job.store, job.model, plan, 1);

        for (const Corruption& c : cases) {
            std::map<int, EditableStreams> streams = original;
            c.edit(streams);
            CheckpointStore store;
            for (auto& [rank, s] : streams) {
                store.PutBaseline(rank, std::move(s.baseline));
                for (auto& d : s.deltas) {
                    store.AppendDelta(rank, std::move(d));
                }
            }
            const DlrmConfig& model = c.model ? *c.model : job.model;
            const sharding::ShardingPlan reader_plan = SingleWorkerPlan(model);
            DistributedDlrm fresh(model, reader_plan, pg);
            auto expect_rejected = [&](const char* reader, auto&& read) {
                try {
                    read();
                    ADD_FAILURE() << c.what << ": " << reader
                                  << " accepted the streams";
                } catch (const std::runtime_error& e) {
                    EXPECT_NE(std::string(e.what()).find(c.message),
                              std::string::npos)
                        << c.what << ": " << reader << " threw " << e.what();
                }
            };
            expect_rejected("RestoreInto", [&] {
                DistributedCheckpointer::RestoreInto(store, fresh);
            });
            expect_rejected("SnapshotFromStore", [&] {
                serve::SnapshotFromStore(store, model, reader_plan, 1);
            });
        }
    });
}

/** One case per length short of its full size, for stream `stream`
 *  (0: the baseline, k: delta k - 1) of every rank of `job`. */
std::vector<Corruption>
EveryCut(const SmallJob& job, size_t stream)
{
    auto pick = [stream](EditableStreams& s) -> std::vector<uint8_t>& {
        return stream == 0 ? s.baseline : s.deltas.at(stream - 1);
    };
    std::vector<Corruption> cases;
    for (const int r : job.store.Ranks()) {
        EditableStreams s{job.store.Baseline(r), job.store.Deltas(r)};
        const size_t full = pick(s).size();
        for (size_t keep = 0; keep < full; keep++) {
            cases.push_back({"rank " + std::to_string(r) + " stream " +
                                 std::to_string(stream) + " cut to " +
                                 std::to_string(keep) + " of " +
                                 std::to_string(full) + " bytes",
                             "", [=](auto& all) {
                                 pick(all[r]).resize(keep);
                             }});
        }
    }
    return cases;
}

TEST(DeltaCheckpointRobustness, TruncatedBaselineRejected)
{
    // A job that stopped before its first delta: each rank's only
    // stream is its baseline.
    SmallJob job(/*deltas=*/0);
    ExpectReadersReject(job, EveryCut(job, /*stream=*/0));
}

TEST(DeltaCheckpointRobustness, TruncatedDeltaRejected)
{
    // The cut delta follows one that reads whole.
    SmallJob job(/*deltas=*/2);
    ExpectReadersReject(job, EveryCut(job, /*stream=*/2));
}

TEST(DeltaCheckpointRobustness, HugeLengthPrefixRejectedNotAllocated)
{
    // A corrupt length prefix claiming 2^61 row ids must be rejected by
    // the bounds check (std::runtime_error), not passed to the allocator
    // (std::bad_alloc, or the OOM killer).
    SmallJob job(/*deltas=*/2);
    ASSERT_GT(Peek<uint64_t>(job.store.Deltas(1)[0], kRowIdCount), 0u);
    ExpectReadersReject(
        job, {{"2^61 row-id length prefix", "length prefix claims",
               [](auto& s) {
                   Poke<uint64_t>(s[1].deltas[0], kRowIdCount,
                                  uint64_t{1} << 61);
               }}});
}

TEST(DeltaCheckpointRobustness, MismatchedDimDeltaRejected)
{
    // Streams read under a model whose tables are twice as wide, or
    // whose optimizer keeps another amount of state per row.
    SmallJob job(/*deltas=*/2);
    DlrmConfig wider = job.model;
    for (auto& table : wider.tables) {
        table.dim *= 2;
    }
    wider.bottom_mlp.back() *= 2;
    DlrmConfig other_optimizer = job.model;
    other_optimizer.sparse_optimizer.kind = ops::SparseOptimizerKind::kAdam;
    ExpectReadersReject(
        job, {{"read under wider tables", "not full width", [](auto&) {},
               &wider},
              {"read under another optimizer",
               "optimizer state layout mismatch", [](auto&) {},
               &other_optimizer}});
}

TEST(DeltaCheckpointRobustness, OutOfOrderDeltasRejected)
{
    // The epoch stamp catches a reordered chain instead of restoring
    // stale rows; replaying a delta is equally out of order. (The
    // untampered chain restores: ExpectReadersReject checks it first.)
    SmallJob job(/*deltas=*/2);
    ExpectReadersReject(
        job, {{"reordered delta chain", "delta out of order",
               [](auto& s) { std::swap(s[1].deltas[0], s[1].deltas[1]); }},
              {"replayed delta", "delta out of order",
               [](auto& s) { s[1].deltas.push_back(s[1].deltas[1]); }}});
}

TEST(DeltaCheckpointRobustness, RowIdOutOfRangeRejected)
{
    SmallJob job(/*deltas=*/2);
    // Rank 1's first entry is its half of row-wise table 0, so the row
    // just below it is a real row of the table that the entry does not
    // hold.
    const std::vector<uint8_t> delta = job.store.Deltas(1)[0];
    ASSERT_EQ(Peek<int32_t>(delta, 24), 0);
    const int64_t row_begin = Peek<int64_t>(delta, kFirstRowBegin);
    ASSERT_GT(row_begin, 0);
    ASSERT_GT(Peek<uint64_t>(delta, kRowIdCount), 0u);
    ExpectReadersReject(
        job, {{"delta row id outside its entry",
               "outside its entry's row range", [=](auto& s) {
                   Poke<int64_t>(s[1].deltas[0], kFirstRowId, row_begin - 1);
               }}});
}

TEST(DeltaCheckpoint, RestoreRejectsCorruptDelta)
{
    SmallJob job(/*deltas=*/2);
    ExpectReadersReject(job, {{"bad delta magic", "bad delta magic",
                               [](auto& s) { s[1].deltas[0][0] ^= 0xFF; }}});
}

TEST(CheckpointReader, RejectsBadBaselineMagicAndTrailingBytes)
{
    SmallJob job(/*deltas=*/2);
    ExpectReadersReject(
        job, {{"bad baseline magic", "bad baseline magic",
               [](auto& s) { s[1].baseline[0] ^= 0xFF; }},
              {"trailing byte after a baseline", "trailing bytes",
               [](auto& s) { s[1].baseline.push_back(0); }},
              {"trailing byte after a delta", "trailing bytes",
               [](auto& s) { s[1].deltas[1].push_back(0); }}});
}

}  // namespace
}  // namespace neo::core
