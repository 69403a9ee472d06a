#include "serve/engine.h"

#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/embedding_bag.h"

namespace neo::serve {

InferenceEngine::Tiered::Tiered(const cache::CacheConfig& config,
                                const ops::EmbeddingTable& table)
    : hbm(cache::Tier::kHbm, 32e6, 850e9),
      ddr(cache::Tier::kDdr, 1e9, 16e9),
      store(table, config, &hbm, &ddr),
      staged(table.dim())
{
}

InferenceEngine::InferenceEngine(const EngineOptions& options,
                                 comm::ProcessGroup& pg)
    : options_(options), pg_(pg), rank_(pg.Rank()), world_(pg.Size())
{
}

std::unique_ptr<InferenceEngine::VersionState>
InferenceEngine::BuildVersionState(
    const std::shared_ptr<const ModelSnapshot>& snapshot)
{
    NEO_TRACE_SPAN("serve_build_version", "serve");
    auto state = std::make_unique<VersionState>();
    state->snapshot = snapshot;
    const core::DlrmConfig& config = snapshot->config;

    // The Mlp constructor needs an Rng for its initial weights; Load
    // immediately overwrites them with the snapshot's.
    Rng rng(config.seed);
    state->bottom = std::make_unique<ops::Mlp>(
        ops::MlpConfig{config.BottomLayerSizes(), /*final_relu=*/true},
        rng);
    state->top = std::make_unique<ops::Mlp>(
        ops::MlpConfig{config.TopLayerSizes(), /*final_relu=*/false}, rng);
    BinaryReader dense(snapshot->dense_blob);
    state->bottom->Load(dense);
    state->top->Load(dense);
    state->interaction = std::make_unique<DotInteraction>(
        config.tables.size(), config.EmbeddingDim());
    state->router = std::make_unique<core::ShardRouter>(
        config.tables, config.EmbeddingDim(), snapshot->plan, pg_);

    for (const auto& shard : snapshot->shards) {
        if (shard.meta.worker != rank_) {
            continue;
        }
        state->local_shards.push_back(&shard);
        const bool tier = options_.ddr_threshold_bytes > 0 &&
                          shard.table.ParameterBytes() >=
                              options_.ddr_threshold_bytes;
        state->tiered.push_back(
            tier ? std::make_unique<Tiered>(options_.cache, shard.table)
                 : nullptr);
    }
    NEO_CHECK(state->local_shards.size() ==
                  state->router->NumLocalShards(),
              "snapshot/router local shard mismatch");

    obs::MetricsRegistry::Get()
        .GetCounter("neo.serve.version_builds")
        .Add();
    return state;
}

void
InferenceEngine::Prefetch(
    const std::shared_ptr<const ModelSnapshot>& snapshot)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot prefetch a null snapshot");
    if ((state_ && state_->snapshot->version == snapshot->version) ||
        (next_state_ &&
         next_state_->snapshot->version == snapshot->version)) {
        return;
    }
    next_state_ = BuildVersionState(snapshot);
    obs::MetricsRegistry::Get()
        .GetCounter("neo.serve.warm_builds")
        .Add();
}

void
InferenceEngine::Forward(
    const std::shared_ptr<const ModelSnapshot>& snapshot,
    const Matrix& global_dense, const data::KeyedJagged& global_sparse,
    std::vector<float>& logits_out)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot serve a null snapshot");
    if (state_ == nullptr ||
        state_->snapshot->version != snapshot->version) {
        if (next_state_ &&
            next_state_->snapshot->version == snapshot->version) {
            state_ = std::move(next_state_);
            obs::MetricsRegistry::Get()
                .GetCounter("neo.serve.warm_promotions")
                .Add();
        } else {
            state_ = BuildVersionState(snapshot);
            obs::MetricsRegistry::Get()
                .GetCounter("neo.serve.cold_builds")
                .Add();
        }
    }
    VersionState& st = *state_;
    const core::DlrmConfig& config = st.snapshot->config;

    const size_t b_global = global_dense.rows();
    NEO_REQUIRE(b_global > 0 &&
                    b_global % static_cast<size_t>(world_) == 0,
                "serving batch ", b_global,
                " is not a multiple of the world size ", world_);
    const size_t b_local = b_global / static_cast<size_t>(world_);

    // Slice this rank's share of the dispatched batch.
    Matrix local_dense(b_local, config.num_dense);
    data::KeyedJagged local_sparse;
    {
        NEO_TRACE_SPAN("serve_data", "data");
        NEO_REQUIRE(global_dense.cols() == config.num_dense &&
                        global_sparse.batch == b_global &&
                        global_sparse.num_tables == config.tables.size(),
                    "dispatched batch shape mismatch");
        const size_t begin = static_cast<size_t>(rank_) * b_local;
        std::memcpy(local_dense.data(), global_dense.Row(begin),
                    b_local * config.num_dense * sizeof(float));
        local_sparse = global_sparse.SliceBatch(begin, begin + b_local);
    }

    const auto shard_inputs = st.router->RouteInput(local_sparse, b_local);

    // Local pooled lookups: read-only, all shards in one fused call.
    // Tiered shards first read their distinct rows through the cache,
    // which is lossless and so bitwise identical to direct.
    std::vector<Matrix> shard_pooled(st.local_shards.size());
    std::vector<Matrix> pooled;
    {
        NEO_TRACE_SPAN("serve_emb_forward", "emb_fwd");
        std::vector<ops::PoolJob> jobs;
        for (size_t i = 0; i < st.local_shards.size(); i++) {
            NEO_CHECK(shard_inputs[i].batch == b_global,
                      "shard input batch mismatch");
            ops::PoolJob job{&st.local_shards[i]->table,
                             shard_inputs[i].InputForTable(0),
                             &shard_pooled[i]};
            if (Tiered* tiered = st.tiered[i].get()) {
                ops::StageRows(tiered->store, job.input.indices,
                               tiered->staged);
                job.table = &tiered->staged.table;
                job.input.indices = tiered->staged.indices;
            }
            jobs.push_back(job);
        }
        ops::PoolBags(jobs);
        st.router->ExchangePooled(shard_pooled, b_local,
                                  options_.forward_alltoall, pooled);

        // Replicated DP tables pool the local slice directly.
        jobs.clear();
        for (const auto& dp : st.snapshot->dp_tables) {
            const size_t t = static_cast<size_t>(dp.table);
            jobs.push_back(
                {&dp.replica, local_sparse.InputForTable(t), &pooled[t]});
        }
        ops::PoolBags(jobs);
    }

    Matrix logits;
    {
        NEO_TRACE_SPAN("serve_dense_forward", "mlp_fwd");
        Matrix bottom_out;
        st.bottom->Forward(local_dense, bottom_out);
        Matrix interacted(b_local, st.interaction->OutputDim());
        st.interaction->Forward(bottom_out, pooled, interacted);
        st.top->Forward(interacted, logits);
    }

    // Leave the full batch's logits on every rank; rank 0 completes the
    // responses, the others just finished their collective duty.
    logits_out.resize(b_global);
    pg_.AllGather(logits.data(), b_local, logits_out.data());
}

double
InferenceEngine::CacheHitRate() const
{
    if (state_ == nullptr) {
        return 0.0;
    }
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (const auto& tiered : state_->tiered) {
        if (tiered) {
            const auto& stats = tiered->store.stats();
            hits += stats.hits;
            misses += stats.misses;
        }
    }
    return hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(hits + misses);
}

}  // namespace neo::serve
