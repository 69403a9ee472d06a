/**
 * @file
 * Model configuration shared by the reference and distributed trainers.
 * Mirrors the DLRM architecture [39]: a bottom MLP over dense features, a
 * set of embedding tables over categorical features, a dot-product
 * interaction, and a top MLP emitting one CTR logit.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "ops/dense_optimizer.h"
#include "ops/embedding_bag.h"
#include "ops/sparse_optimizer.h"
#include "sharding/types.h"

namespace neo::core {

/** Full model + optimizer configuration. */
struct DlrmConfig {
    /** Dense input feature count. */
    size_t num_dense = 16;
    /**
     * Bottom MLP widths after the input layer; the last width is the
     * embedding dimension d used by the interaction.
     */
    std::vector<size_t> bottom_mlp = {64, 32};
    /** Top MLP hidden widths; a final 1-wide logit layer is appended. */
    std::vector<size_t> top_mlp = {64, 32};
    /**
     * Embedding tables. For the functional interaction arch every table's
     * dim must equal bottom_mlp.back(); the sharding/perf studies accept
     * arbitrary dims.
     */
    std::vector<sharding::TableConfig> tables;
    ops::SparseOptimizerConfig sparse_optimizer;
    ops::DenseOptimizerConfig dense_optimizer;
    uint64_t seed = 1234;

    /** Interaction feature dimension d. */
    size_t EmbeddingDim() const { return bottom_mlp.back(); }

    /** Validate shapes for the functional trainer; fatal on error. */
    void Validate() const;

    /** Table specs for an EmbeddingBagCollection. */
    std::vector<ops::TableSpec> TableSpecs() const;

    /** Full bottom-MLP layer_sizes: {num_dense, bottom_mlp...}. */
    std::vector<size_t> BottomLayerSizes() const;

    /** Full top-MLP layer_sizes: {interaction_dim, top_mlp..., 1}. */
    std::vector<size_t> TopLayerSizes() const;

    /** Total parameter count (MLPs + embeddings). */
    double TotalParams() const;
};

/** Convenience builder for small test/example models. */
DlrmConfig MakeSmallDlrmConfig(size_t num_tables = 4, int64_t rows = 200,
                               size_t dim = 16, uint64_t seed = 1234);

/**
 * Synthetic-data config for `model`: its dense width, the stream `seed`,
 * and one feature per table with the table's rows and mean pooling at
 * Zipf skew `zipf_s`. Callers set any other generator field afterwards.
 */
data::DatasetConfig MakeDatasetConfig(const DlrmConfig& model, uint64_t seed,
                                      double zipf_s = 1.05);

}  // namespace neo::core
