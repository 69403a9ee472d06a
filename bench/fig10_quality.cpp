/**
 * @file
 * Reproduces Fig. 10: training-quality comparison between asynchronous
 * small-batch training on the CPU parameter-server system and synchronous
 * large-batch training, measured in relative normalized entropy as a
 * function of consumed samples.
 *
 * This is a FUNCTIONAL experiment (scaled down): both systems train real
 * models on the same synthetic CTR stream; the async system runs the
 * Hogwild + EASGD emulation with 16 virtual trainers at batch 32, the
 * sync system trains with a 64x larger batch — mirroring the paper's
 * ~150-vs-64K batch ratio. The paper's finding: sync large-batch reaches
 * on-par or better NE despite the much larger batch.
 */
#include <cmath>
#include <cstdio>

#include "common/table_printer.h"
#include "core/dlrm_config.h"
#include "core/dlrm_reference.h"
#include "data/dataset.h"
#include "ps/async_ps_trainer.h"

namespace {

using namespace neo;

/** Held-out evaluation: same planted task, disjoint sampling stream. */
data::DatasetConfig
HeldOut(const data::DatasetConfig& config)
{
    data::DatasetConfig eval = config;
    eval.task_seed = config.task_seed ? config.task_seed : config.seed;
    eval.seed = config.seed + 0xE7A1;
    return eval;
}

double
EvalSync(core::DlrmReference& model, const data::DatasetConfig& config)
{
    data::SyntheticCtrDataset eval(HeldOut(config));
    NormalizedEntropy ne;
    for (int e = 0; e < 6; e++) {
        model.Evaluate(eval.NextBatch(256), ne);
    }
    return ne.Value();
}

double
EvalAsync(ps::AsyncPsTrainer& trainer, const data::DatasetConfig& config)
{
    data::SyntheticCtrDataset eval(HeldOut(config));
    NormalizedEntropy ne;
    for (int e = 0; e < 6; e++) {
        trainer.Evaluate(eval.NextBatch(256), ne);
    }
    return ne.Value();
}

}  // namespace

int
main()
{
    const size_t kAsyncBatch = 32;
    const size_t kSyncBatch = 1024;  // 32x larger, as 150 -> ~5K-64K
    const uint64_t kBudget = 160000;
    const int kCheckpoints = 8;

    core::DlrmConfig model = core::MakeSmallDlrmConfig(4, 400, 16);
    data::DatasetConfig data_config = core::MakeDatasetConfig(model, 5);
    data_config.signal_scale = 0.8f;
    data_config.noise_scale = 0.6f;

    ps::PsConfig ps_config;
    ps_config.num_trainers = 16;
    ps_config.batch_size = kAsyncBatch;
    ps::AsyncPsTrainer async_trainer(model, ps_config);
    data::SyntheticCtrDataset async_data(data_config);

    // Large-batch training needs retuned hyper-parameters (Sec. 5.3: "with
    // appropriately tuned optimizer/hyper-parameters we are able to achieve
    // on-par training quality").
    core::DlrmConfig sync_model = model;
    // ~sqrt-of-ratio scaling, tuned on a held-out sweep (2.5 for 32x).
    const float lr_scale = 2.5f;
    sync_model.dense_optimizer.learning_rate *= lr_scale;
    sync_model.sparse_optimizer.learning_rate *= lr_scale;
    core::DlrmReference sync_trainer(sync_model);
    data::SyntheticCtrDataset sync_data(data_config);

    std::printf("== Fig 10: async small-batch (PS, batch %zu x16 trainers) "
                "vs sync large-batch (batch %zu) ==\n",
                kAsyncBatch, kSyncBatch);
    std::printf("relative NE (lower is better), normalized to the final "
                "sync value; paper: sync on-par or better\n\n");

    std::vector<double> async_ne, sync_ne, samples;
    uint64_t sync_seen = 0;
    for (int cp = 1; cp <= kCheckpoints; cp++) {
        const uint64_t target = kBudget * cp / kCheckpoints;
        while (async_trainer.SamplesSeen() < target) {
            async_trainer.Step(async_data);
        }
        while (sync_seen < target) {
            sync_trainer.TrainStep(sync_data.NextBatch(kSyncBatch));
            sync_seen += kSyncBatch;
        }
        samples.push_back(static_cast<double>(target));
        async_ne.push_back(EvalAsync(async_trainer, data_config));
        sync_ne.push_back(EvalSync(sync_trainer, data_config));
    }

    const double norm = sync_ne.back();
    TablePrinter table({"Samples", "Async NE (rel)", "Sync NE (rel)",
                        "Sync - Async"});
    for (size_t i = 0; i < samples.size(); i++) {
        table.Row()
            .CellF(samples[i], "%.0f")
            .CellF(async_ne[i] / norm, "%.4f")
            .CellF(sync_ne[i] / norm, "%.4f")
            .CellF((sync_ne[i] - async_ne[i]) / norm, "%+.4f");
    }
    table.Print();
    std::printf("\nfinal: async %.4f vs sync %.4f (absolute NE; lower "
                "wins) -> %s\n",
                async_ne.back(), sync_ne.back(),
                sync_ne.back() <= async_ne.back() + 5e-3
                    ? "sync large-batch on-par or better, as in the paper"
                    : "async ahead at this scale");
    return 0;
}
