/**
 * @file
 * Online-training scenario (paper intro + Sec. 4.1.3): a deployed model
 * keeps training on fresh traffic using FEWER nodes, so its embedding
 * table no longer fits "HBM" — it lives in "DDR" behind the 32-way
 * software cache, while a disaggregated reader tier (Fig. 6) streams
 * batches in the background. Everything here is the functional stack:
 * real lookups, exact updates through the cache, real reader threads.
 *
 *   ./online_training
 */
#include <cstdio>

#include "cache/cached_embedding_store.h"
#include "cache/tiered_embedding_bag.h"
#include "common/units.h"
#include "data/reader_tier.h"
#include "tensor/loss.h"

namespace {

using namespace neo;

}  // namespace

int
main()
{
    // ---- the "deployed" model: one big table + a linear scorer --------
    const int64_t rows = 100000;  // bigger than the HBM budget below
    const int64_t dim = 32;
    const size_t batch_size = 256;

    ops::SparseOptimizerConfig sparse_config;
    sparse_config.kind = ops::SparseOptimizerKind::kSgd;
    // Effective per-row rate ~ lr * dim under the sum readout below.
    sparse_config.learning_rate = 0.015f;

    // Zero-init: online CTR "bias" tables start cold and learn from
    // live traffic.
    ops::EmbeddingTable backing(rows, dim);
    cache::MemoryTier hbm(cache::Tier::kHbm, 4e6, 850e9);   // 4 MB "HBM"
    cache::MemoryTier ddr(cache::Tier::kDdr, 1e12, 13e9);
    // 1024 slots x 32 B rows = 128 KB cache over a 25.6 MB table.
    cache::CachedEmbeddingStore store(std::move(backing), {32, 32}, &hbm,
                                      &ddr);
    cache::TieredEmbeddingBag embeddings(&store, sparse_config);

    // Fixed sum-pooling readout: the embedding rows learn the per-row
    // signal directly, which keeps this single-table online model convex
    // and stable. Jointly training the readout is the full DLRM's job
    // (see quickstart/distributed_training).
    const std::vector<float> scorer(static_cast<size_t>(dim), 1.0f);
    float bias = 0.0f;
    float dense_weight = 0.0f;  // the single dense feature's weight

    // ---- the reader tier streams "live" traffic -----------------------
    data::DatasetConfig data_config;
    data_config.num_dense = 1;  // this example scores embeddings only
    data_config.seed = 42;
    data_config.features.push_back({rows, 12.0, 1.1});
    data_config.signal_scale = 1.0f;
    data_config.noise_scale = 0.4f;
    data::ReaderTierOptions reader_options;
    reader_options.num_readers = 2;
    reader_options.batch_size = batch_size;
    data::ReaderTier readers(data_config, reader_options);

    std::printf("online training: %s table behind a %s software cache; "
                "%d background readers\n\n",
                FormatBytes(static_cast<double>(rows) * dim * 4).c_str(),
                FormatBytes(32.0 * 32 * dim * 4).c_str(),
                reader_options.num_readers);
    std::printf("%-8s %-10s %-12s %-12s\n", "batch", "NE", "cache hit%",
                "PCIe traffic");

    Matrix pooled;
    Matrix grad_pooled(batch_size, static_cast<size_t>(dim));
    NormalizedEntropy window_ne;
    const float lr = 0.5f;
    for (int step = 1; step <= 1200; step++) {
        const data::Batch batch = readers.NextBatch();
        const auto input = batch.sparse.InputForTable(0);

        // Forward: pooled embedding -> linear scorer -> logit.
        embeddings.Forward(input, batch_size, pooled);
        Matrix logits(batch_size, 1);
        for (size_t b = 0; b < batch_size; b++) {
            float z = bias + dense_weight * batch.dense(b, 0);
            const float* e = pooled.Row(b);
            for (int64_t c = 0; c < dim; c++) {
                z += scorer[c] * e[c];
            }
            logits(b, 0) = z;
        }
        window_ne.AddLogits(logits, batch.labels);

        // Backward: BCE grad -> scorer + pooled grads -> exact updates
        // through the cache.
        Matrix grad_logits(batch_size, 1);
        BceWithLogitsGrad(logits, batch.labels, grad_logits);
        for (size_t b = 0; b < batch_size; b++) {
            const float g = grad_logits(b, 0);
            float* gp = grad_pooled.Row(b);
            for (int64_t c = 0; c < dim; c++) {
                gp[c] = g * scorer[c];
            }
            dense_weight -= lr * g * batch.dense(b, 0);
            bias -= lr * g;
        }
        embeddings.BackwardAndUpdate(input, batch_size, grad_pooled);

        if (step % 300 == 0) {
            std::printf("%-8d %-10.4f %-12.1f %-12s\n", step,
                        window_ne.Value(),
                        store.stats().HitRate() * 100.0,
                        FormatBytes(static_cast<double>(
                            ddr.total_bytes())).c_str());
            window_ne = NormalizedEntropy();
        }
    }

    store.Flush();
    std::printf("\nreaders produced %lu batches; dirty rows flushed to "
                "backing store.\n",
                static_cast<unsigned long>(readers.batches_produced()));
    std::printf("NE falls while the model trains entirely through the "
                "cache hierarchy — the paper's online-training mode.\n");
    return 0;
}
