#include "core/dlrm_config.h"

#include "common/logging.h"
#include "tensor/interaction.h"

namespace neo::core {

void
DlrmConfig::Validate() const
{
    NEO_REQUIRE(num_dense > 0, "need dense features");
    NEO_REQUIRE(!bottom_mlp.empty(), "bottom MLP must have layers");
    NEO_REQUIRE(!tables.empty(), "need at least one embedding table");
    const size_t d = EmbeddingDim();
    for (const auto& t : tables) {
        NEO_REQUIRE(static_cast<size_t>(t.dim) == d,
                    "table ", t.name, " dim ", t.dim,
                    " != interaction dim ", d);
        NEO_REQUIRE(t.rows > 0, "table ", t.name, " has no rows");
    }
}

std::vector<ops::TableSpec>
DlrmConfig::TableSpecs() const
{
    std::vector<ops::TableSpec> specs;
    specs.reserve(tables.size());
    for (const auto& t : tables) {
        specs.push_back({t.rows, t.dim, t.precision});
    }
    return specs;
}

std::vector<size_t>
DlrmConfig::BottomLayerSizes() const
{
    std::vector<size_t> sizes = {num_dense};
    sizes.insert(sizes.end(), bottom_mlp.begin(), bottom_mlp.end());
    return sizes;
}

std::vector<size_t>
DlrmConfig::TopLayerSizes() const
{
    const size_t f = tables.size() + 1;
    const size_t interaction_dim = EmbeddingDim() + f * (f - 1) / 2;
    std::vector<size_t> sizes = {interaction_dim};
    sizes.insert(sizes.end(), top_mlp.begin(), top_mlp.end());
    sizes.push_back(1);
    return sizes;
}

double
DlrmConfig::TotalParams() const
{
    double total = 0.0;
    auto mlp_params = [](const std::vector<size_t>& sizes) {
        double p = 0.0;
        for (size_t l = 0; l + 1 < sizes.size(); l++) {
            p += static_cast<double>(sizes[l]) * sizes[l + 1] + sizes[l + 1];
        }
        return p;
    };
    total += mlp_params(BottomLayerSizes());
    total += mlp_params(TopLayerSizes());
    for (const auto& t : tables) {
        total += static_cast<double>(t.rows) * t.dim;
    }
    return total;
}

DlrmConfig
MakeSmallDlrmConfig(size_t num_tables, int64_t rows, size_t dim,
                    uint64_t seed)
{
    DlrmConfig config;
    config.num_dense = 8;
    config.bottom_mlp = {32, dim};
    config.top_mlp = {32, 16};
    config.seed = seed;
    for (size_t t = 0; t < num_tables; t++) {
        sharding::TableConfig table;
        table.name = "table_" + std::to_string(t);
        table.rows = rows + static_cast<int64_t>(t) * 16;
        table.dim = static_cast<int64_t>(dim);
        table.pooling = 4.0 + static_cast<double>(t);
        config.tables.push_back(table);
    }
    config.sparse_optimizer.kind = ops::SparseOptimizerKind::kRowWiseAdaGrad;
    config.sparse_optimizer.learning_rate = 0.05f;
    config.dense_optimizer.kind = ops::DenseOptimizerKind::kSgd;
    config.dense_optimizer.learning_rate = 0.05f;
    return config;
}

data::DatasetConfig
MakeDatasetConfig(const DlrmConfig& model, uint64_t seed, double zipf_s)
{
    data::DatasetConfig config;
    config.num_dense = model.num_dense;
    config.seed = seed;
    for (const auto& t : model.tables) {
        config.features.push_back({t.rows, t.pooling, zipf_s});
    }
    return config;
}

}  // namespace neo::core
