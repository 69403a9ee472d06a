/**
 * @file
 * Tests for the asynchronous parameter-server baseline: it learns, EASGD
 * keeps replicas near the center, and — the Fig. 10 phenomenon — higher
 * trainer counts (more staleness) hurt quality at equal sample budgets
 * relative to synchronous training.
 */
#include <gtest/gtest.h>

#include "core/dlrm_config.h"
#include "core/dlrm_reference.h"
#include "data/dataset.h"
#include "ps/async_ps_trainer.h"

namespace neo::ps {
namespace {

data::DatasetConfig
MakeDataConfig(const core::DlrmConfig& model, uint64_t seed = 5)
{
    data::DatasetConfig config = core::MakeDatasetConfig(model, seed);
    // Stronger planted signal keeps these statistical tests fast: the
    // async-vs-sync gap shows up within a few hundred small batches.
    config.signal_scale = 1.0f;
    config.noise_scale = 0.4f;
    return config;
}

double
EvalNe(AsyncPsTrainer& trainer, const core::DlrmConfig& model)
{
    // Held out: same planted task (task_seed), disjoint sampling stream.
    data::DatasetConfig config = MakeDataConfig(model, 1234);
    config.task_seed = 5;
    data::SyntheticCtrDataset eval(config);
    NormalizedEntropy ne;
    for (int e = 0; e < 8; e++) {
        trainer.Evaluate(eval.NextBatch(128), ne);
    }
    return ne.Value();
}

TEST(AsyncPs, LearnsOnPlantedTask)
{
    core::DlrmConfig model = core::MakeSmallDlrmConfig(3, 150, 16);
    PsConfig ps;
    ps.num_trainers = 4;
    ps.batch_size = 32;
    AsyncPsTrainer trainer(model, ps);
    data::SyntheticCtrDataset dataset(MakeDataConfig(model));

    double first = 0.0, last = 0.0;
    const int steps = 400;
    for (int s = 0; s < steps; s++) {
        const double loss = trainer.Step(dataset);
        if (s < 20) {
            first += loss / 20;
        }
        if (s >= steps - 20) {
            last += loss / 20;
        }
    }
    EXPECT_LT(last, first);
    EXPECT_EQ(trainer.SamplesSeen(), static_cast<uint64_t>(steps) * 32);
    EXPECT_LT(EvalNe(trainer, model), 1.0);
}

TEST(AsyncPs, MoreTrainersMeansMoreStalenessWorseQuality)
{
    // Fig. 10's driver: at an equal sample budget, heavy asynchrony (many
    // stale replicas) should not beat the nearly-synchronous setup.
    core::DlrmConfig model = core::MakeSmallDlrmConfig(3, 150, 16);
    auto run = [&](int trainers) {
        PsConfig ps;
        ps.num_trainers = trainers;
        ps.batch_size = 16;
        ps.sync_period = 8;
        AsyncPsTrainer trainer(model, ps);
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        for (int s = 0; s < 600; s++) {
            trainer.Step(dataset);
        }
        return EvalNe(trainer, model);
    };
    const double ne_low_staleness = run(1);
    const double ne_high_staleness = run(32);
    EXPECT_LE(ne_low_staleness, ne_high_staleness + 0.01);
}

TEST(AsyncPs, SyncLargeBatchMatchesOrBeatsAsyncAtEqualSamples)
{
    // The headline of Fig. 10: synchronous large-batch training reaches
    // on-par or better NE than async small-batch at the same number of
    // consumed samples.
    core::DlrmConfig model = core::MakeSmallDlrmConfig(3, 150, 16);
    const uint64_t sample_budget = 6400;

    PsConfig ps;
    ps.num_trainers = 16;
    ps.batch_size = 16;
    AsyncPsTrainer async_trainer(model, ps);
    data::SyntheticCtrDataset async_data(MakeDataConfig(model));
    while (async_trainer.SamplesSeen() < sample_budget) {
        async_trainer.Step(async_data);
    }
    const double async_ne = EvalNe(async_trainer, model);

    core::DlrmReference sync_trainer(model);
    data::SyntheticCtrDataset sync_data(MakeDataConfig(model));
    const size_t big_batch = 256;
    for (uint64_t seen = 0; seen < sample_budget; seen += big_batch) {
        sync_trainer.TrainStep(sync_data.NextBatch(big_batch));
    }
    data::DatasetConfig eval_config = MakeDataConfig(model, 1234);
    eval_config.task_seed = 5;
    data::SyntheticCtrDataset eval(eval_config);
    NormalizedEntropy sync_ne;
    for (int e = 0; e < 8; e++) {
        sync_trainer.Evaluate(eval.NextBatch(128), sync_ne);
    }

    EXPECT_LE(sync_ne.Value(), async_ne + 0.02);
}

TEST(AsyncPs, DeterministicEmulation)
{
    core::DlrmConfig model = core::MakeSmallDlrmConfig(2, 100, 16);
    PsConfig ps;
    ps.num_trainers = 3;
    ps.batch_size = 16;
    auto run = [&]() {
        AsyncPsTrainer trainer(model, ps);
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        double total = 0.0;
        for (int s = 0; s < 50; s++) {
            total += trainer.Step(dataset);
        }
        return total;
    };
    EXPECT_EQ(run(), run());
}

/**
 * Degraded mode: a killed virtual trainer loses its round-robin turn but
 * the job keeps stepping over the survivors, and every death is recorded
 * in the structured failure report. Only when the last trainer dies does
 * Step throw.
 */
TEST(AsyncPs, DeadTrainerIsSkippedAndReported)
{
    core::DlrmConfig model = core::MakeSmallDlrmConfig(3, 120, 16);
    PsConfig ps;
    ps.num_trainers = 3;
    ps.batch_size = 16;
    AsyncPsTrainer trainer(model, ps);
    data::SyntheticCtrDataset dataset(MakeDataConfig(model));

    // Warm up one full round so every trainer has stepped once.
    for (int s = 0; s < 3; s++) {
        trainer.Step(dataset);
    }
    EXPECT_EQ(trainer.NumHealthyTrainers(), 3);

    trainer.FailTrainer(1, "injected oom");
    EXPECT_EQ(trainer.NumHealthyTrainers(), 2);
    // Idempotent: a second death report for the same trainer is a no-op.
    trainer.FailTrainer(1, "duplicate");
    ASSERT_EQ(trainer.failures().size(), 1u);
    EXPECT_EQ(trainer.failures()[0].trainer, 1);
    EXPECT_EQ(trainer.failures()[0].cause, "injected oom");
    EXPECT_EQ(trainer.failures()[0].at_sample, trainer.SamplesSeen());

    // The job keeps making progress over the two survivors.
    const uint64_t before = trainer.SamplesSeen();
    for (int s = 0; s < 6; s++) {
        trainer.Step(dataset);
    }
    EXPECT_EQ(trainer.SamplesSeen(), before + 6 * ps.batch_size);

    // Kill the rest: the job degrades to zero capacity and Step throws.
    trainer.FailTrainer(0, "injected kill");
    trainer.FailTrainer(2, "injected kill");
    EXPECT_EQ(trainer.NumHealthyTrainers(), 0);
    EXPECT_EQ(trainer.failures().size(), 3u);
    EXPECT_THROW(trainer.Step(dataset), std::runtime_error);
}

}  // namespace
}  // namespace neo::ps
