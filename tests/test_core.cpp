/**
 * @file
 * Tests for the single-process reference DLRM: configuration validation,
 * learning (loss and NE improve on the planted synthetic task), bitwise
 * run-to-run determinism, and checkpoint round trips.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "comm/threaded_process_group.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "core/dlrm_reference.h"
#include "core/step_transaction.h"
#include "data/dataset.h"
#include "ops/embedding_table.h"

namespace neo::core {
namespace {

/** Sampling-stream seed of this file's synthetic data. */
constexpr uint64_t kDataSeed = 5;

TEST(DlrmConfig, ValidationCatchesDimMismatch)
{
    DlrmConfig config = MakeSmallDlrmConfig();
    config.tables[0].dim = 99;
    EXPECT_THROW(config.Validate(), std::runtime_error);
}

TEST(DlrmConfig, DerivedShapes)
{
    DlrmConfig config = MakeSmallDlrmConfig(3, 100, 16);
    EXPECT_EQ(config.EmbeddingDim(), 16u);
    const auto bottom = config.BottomLayerSizes();
    EXPECT_EQ(bottom.front(), config.num_dense);
    EXPECT_EQ(bottom.back(), 16u);
    const auto top = config.TopLayerSizes();
    // Interaction output: d + (F+1)F/2 with F=3 -> 16 + 6 = 22.
    EXPECT_EQ(top.front(), 22u);
    EXPECT_EQ(top.back(), 1u);
    EXPECT_GT(config.TotalParams(), 0.0);
}

TEST(DlrmReference, LossDecreasesOnPlantedTask)
{
    DlrmConfig model = MakeSmallDlrmConfig(4, 200, 16);
    DlrmReference reference(model);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));

    double first_losses = 0.0, last_losses = 0.0;
    const int steps = 60;
    for (int s = 0; s < steps; s++) {
        const double loss = reference.TrainStep(dataset.NextBatch(64));
        if (s < 10) {
            first_losses += loss;
        }
        if (s >= steps - 10) {
            last_losses += loss;
        }
    }
    EXPECT_LT(last_losses, first_losses * 0.98);
}

TEST(DlrmReference, NeBeatsBaseRatePredictorAfterTraining)
{
    DlrmConfig model = MakeSmallDlrmConfig(4, 200, 16);
    DlrmReference reference(model);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    for (int s = 0; s < 80; s++) {
        reference.TrainStep(dataset.NextBatch(64));
    }
    NormalizedEntropy ne;
    for (int e = 0; e < 8; e++) {
        reference.Evaluate(dataset.NextBatch(64), ne);
    }
    EXPECT_LT(ne.Value(), 0.99);
}

TEST(DlrmReference, BitwiseDeterministicAcrossRuns)
{
    DlrmConfig model = MakeSmallDlrmConfig(3, 150, 16);
    auto run = [&]() {
        DlrmReference reference(model);
        data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
        for (int s = 0; s < 10; s++) {
            reference.TrainStep(dataset.NextBatch(32));
        }
        Matrix logits;
        data::SyntheticCtrDataset eval(MakeDatasetConfig(model, 123));
        reference.Predict(eval.NextBatch(32), logits);
        return logits;
    };
    const Matrix a = run();
    const Matrix b = run();
    EXPECT_TRUE(Matrix::Identical(a, b));
}

TEST(DlrmReference, BatchOrderInvariantEmbeddingUpdates)
{
    // The exact sparse optimizer makes the update independent of sample
    // order within a batch; MLP gradients are sums over samples computed
    // by GEMM, which reorders additions, so compare only the embedding
    // tables after one step on a permuted batch.
    DlrmConfig model = MakeSmallDlrmConfig(2, 100, 16);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch batch = dataset.NextBatch(16);

    // Reversed-sample copy of the batch.
    data::Batch reversed;
    reversed.dense = Matrix(16, batch.dense.cols());
    reversed.labels.resize(16);
    reversed.sparse = data::KeyedJagged::Empty(batch.sparse.num_tables, 16);
    std::vector<data::KeyedJagged> pieces;
    for (size_t b = 16; b-- > 0;) {
        pieces.push_back(batch.sparse.SliceBatch(b, b + 1));
    }
    reversed.sparse = data::ConcatBatches(pieces);
    for (size_t b = 0; b < 16; b++) {
        reversed.labels[b] = batch.labels[15 - b];
        for (size_t c = 0; c < batch.dense.cols(); c++) {
            reversed.dense(b, c) = batch.dense(15 - b, c);
        }
    }

    DlrmReference m1(model), m2(model);
    m1.TrainStep(batch);
    m2.TrainStep(reversed);
    for (size_t t = 0; t < model.tables.size(); t++) {
        // Each sample's gradient reaching the tables is bitwise the same
        // in both orders, so the order-invariant exact update leaves
        // identical tables.
        EXPECT_TRUE(ops::EmbeddingTable::Identical(m1.embeddings().table(t),
                                                   m2.embeddings().table(t)))
            << t;
    }
}

TEST(DlrmReference, CheckpointRoundTripIsExact)
{
    DlrmConfig model = MakeSmallDlrmConfig(3, 120, 16);
    DlrmReference reference(model);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    for (int s = 0; s < 5; s++) {
        reference.TrainStep(dataset.NextBatch(32));
    }
    BinaryWriter writer;
    reference.Save(writer);

    DlrmReference restored(model);
    EXPECT_FALSE(DlrmReference::Identical(reference, restored));
    BinaryReader reader(writer.buffer());
    restored.Load(reader);
    EXPECT_TRUE(DlrmReference::Identical(reference, restored));

    // Restored model predicts identically.
    data::SyntheticCtrDataset eval(MakeDatasetConfig(model, 321));
    const data::Batch batch = eval.NextBatch(16);
    Matrix l1, l2;
    reference.Predict(batch, l1);
    restored.Predict(batch, l2);
    EXPECT_TRUE(Matrix::Identical(l1, l2));
}

TEST(DlrmReference, Fp16EmbeddingsStillLearn)
{
    DlrmConfig model = MakeSmallDlrmConfig(3, 150, 16);
    for (auto& t : model.tables) {
        t.precision = Precision::kFp16;
    }
    DlrmReference reference(model);
    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    double first = 0.0, last = 0.0;
    for (int s = 0; s < 60; s++) {
        const double loss = reference.TrainStep(dataset.NextBatch(64));
        if (s < 10) {
            first += loss;
        }
        if (s >= 50) {
            last += loss;
        }
    }
    EXPECT_LT(last, first);
}

// ------------------------------------------------------- retry backoff

TEST(RetryBackoff, DoublesPerAttemptUpToCap)
{
    using std::chrono::milliseconds;
    DistributedOptions options;
    options.retry_backoff = milliseconds(10);
    options.max_retry_backoff = milliseconds(65);
    EXPECT_EQ(RetryBackoffDelay(options, 1), milliseconds(10));
    EXPECT_EQ(RetryBackoffDelay(options, 2), milliseconds(20));
    EXPECT_EQ(RetryBackoffDelay(options, 3), milliseconds(40));
    // 80 would exceed the cap; clamp, and stay clamped after.
    EXPECT_EQ(RetryBackoffDelay(options, 4), milliseconds(65));
    EXPECT_EQ(RetryBackoffDelay(options, 5), milliseconds(65));
}

TEST(RetryBackoff, LargeAttemptCountsDoNotOverflow)
{
    // The pre-fix code computed `backoff << (attempt - 1)`, which is
    // undefined behaviour past 63 attempts and wrapped to garbage (e.g. a
    // zero or negative sleep) long before that. The clamped ladder must
    // saturate instead, for any attempt count.
    using std::chrono::milliseconds;
    DistributedOptions options;
    options.retry_backoff = milliseconds(10);
    options.max_retry_backoff = milliseconds(2000);
    EXPECT_EQ(RetryBackoffDelay(options, 64), milliseconds(2000));
    EXPECT_EQ(RetryBackoffDelay(options, 400), milliseconds(2000));
    EXPECT_EQ(RetryBackoffDelay(options, std::numeric_limits<int>::max()),
              milliseconds(2000));
}

TEST(RetryBackoff, ZeroBaseMeansNoSleep)
{
    using std::chrono::milliseconds;
    DistributedOptions options;
    options.retry_backoff = milliseconds(0);
    EXPECT_EQ(RetryBackoffDelay(options, 1), milliseconds(0));
    EXPECT_EQ(RetryBackoffDelay(options, 100), milliseconds(0));
}

TEST(RetryBackoff, CapBelowBaseStillHonoursBase)
{
    // A misconfigured cap below the base must not produce a zero or
    // negative sleep; the base wins.
    using std::chrono::milliseconds;
    DistributedOptions options;
    options.retry_backoff = milliseconds(50);
    options.max_retry_backoff = milliseconds(10);
    EXPECT_EQ(RetryBackoffDelay(options, 1), milliseconds(50));
    EXPECT_EQ(RetryBackoffDelay(options, 8), milliseconds(50));
}

// ------------------------------------------------ step transaction capture

/** Sorted unique copy of `indices`. */
std::vector<int64_t>
UniqueAscending(std::span<const int64_t> indices)
{
    std::vector<int64_t> rows(indices.begin(), indices.end());
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
}

TEST(StepTransaction, CapturesEachTablesUniqueRowsAscending)
{
    // A row-wise, a table-wise and a data-parallel table over two ranks.
    // Small tables make the batch repeat rows heavily.
    const DlrmConfig model = MakeSmallDlrmConfig(3, 40, 8);
    const int workers = 2;
    const size_t local_batch = 16;
    sharding::ShardingPlan plan;
    plan.worker_cost.assign(workers, 0.0);
    plan.worker_memory.assign(workers, 0.0);
    auto add_shard = [&](int table, sharding::Scheme scheme,
                         int64_t row_begin, int64_t row_end, int worker) {
        sharding::Shard shard;
        shard.table = table;
        shard.scheme = scheme;
        shard.row_begin = row_begin;
        shard.row_end = row_end;
        shard.col_end = model.tables[table].dim;
        shard.worker = worker;
        plan.shards.push_back(shard);
    };
    const int64_t rows0 = model.tables[0].rows;
    add_shard(0, sharding::Scheme::kRowWise, 0, rows0 / 2, 0);
    add_shard(0, sharding::Scheme::kRowWise, rows0 / 2, rows0, 1);
    add_shard(1, sharding::Scheme::kTableWise, 0, model.tables[1].rows, 1);
    add_shard(2, sharding::Scheme::kDataParallel, 0, model.tables[2].rows,
              0);

    data::SyntheticCtrDataset dataset(MakeDatasetConfig(model, kDataSeed));
    const data::Batch global = dataset.NextBatch(local_batch * workers);
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        const size_t begin = static_cast<size_t>(rank) * local_batch;
        data::Batch local;
        local.dense = Matrix(local_batch, global.dense.cols());
        for (size_t b = 0; b < local_batch; b++) {
            for (size_t c = 0; c < global.dense.cols(); c++) {
                local.dense(b, c) = global.dense(begin + b, c);
            }
        }
        local.sparse = global.sparse.SliceBatch(begin, begin + local_batch);
        local.labels.assign(global.labels.begin() + begin,
                            global.labels.begin() + begin + local_batch);

        DistributedDlrm trainer(model, plan, pg);
        DistributedDlrm::PreparedInput prepared =
            trainer.PrepareInput(local);
        StepTransaction txn(trainer);
        trainer.TrainStepPrepared(prepared);

        uint64_t expected_total = 0;
        ASSERT_EQ(trainer.NumLocalShards(), rank == 0 ? 1u : 2u);
        for (size_t i = 0; i < trainer.NumLocalShards(); i++) {
            const std::vector<int64_t> want = UniqueAscending(
                prepared.shard_inputs[i].IndicesForTable(0));
            const std::span<const int64_t> got = txn.shard_rows(i);
            EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()), want)
                << "rank " << rank << " shard " << i;
            EXPECT_LT(want.size(), prepared.shard_inputs[i].TotalIndices());
            expected_total += want.size();
        }
        // Every replica applies the global batch's update, so each rank
        // captures the global batch's rows of the DP table.
        ASSERT_EQ(trainer.NumDpTables(), 1u);
        const std::vector<int64_t> want_dp = UniqueAscending(
            global.sparse.IndicesForTable(
                static_cast<size_t>(trainer.dp_table(0).table)));
        const std::span<const int64_t> got_dp = txn.dp_rows(0);
        EXPECT_EQ(std::vector<int64_t>(got_dp.begin(), got_dp.end()),
                  want_dp)
            << "rank " << rank;
        expected_total += want_dp.size();
        EXPECT_EQ(txn.captured_rows(), expected_total);
        txn.Commit();
    });
}

// --------------------------------------------------- checkpoint storage

TEST(CheckpointStore, BaselineResetsDeltaChain)
{
    CheckpointStore store;
    EXPECT_TRUE(store.Ranks().empty());
    EXPECT_THROW(store.Baseline(0), std::runtime_error);
    // Appending a delta before any baseline is a protocol error.
    EXPECT_THROW(store.AppendDelta(0, {1, 2, 3}), std::runtime_error);

    store.PutBaseline(0, {1, 2, 3, 4});
    store.AppendDelta(0, {5, 6});
    store.PutBaseline(1, {7});
    EXPECT_EQ(store.Ranks(), (std::vector<int>{0, 1}));
    EXPECT_EQ(store.Baseline(0), (std::vector<uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(store.Deltas(0).size(), 1u);
    EXPECT_EQ(store.TotalBytes(), 7u);

    // A fresh baseline starts a new chain (the old deltas are obsolete).
    store.PutBaseline(0, {9, 9});
    EXPECT_TRUE(store.Deltas(0).empty());
    EXPECT_EQ(store.TotalBytes(), 3u);
}

}  // namespace
}  // namespace neo::core
