/**
 * @file
 * Tests for the embedding/MLP operators: table storage in both precisions,
 * shard-stable deterministic init, fused pooled lookup, exact sparse
 * optimizers (order invariance, duplicate merging, algorithm math), dense
 * optimizers and MLP gradients against numerical differentiation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "ops/dense_optimizer.h"
#include "ops/embedding_bag.h"
#include "ops/embedding_table.h"
#include "ops/mlp.h"
#include "ops/sparse_optimizer.h"

namespace neo::ops {
namespace {

// -------------------------------------------------------- EmbeddingTable

TEST(EmbeddingTable, ReadWriteRoundTripFp32)
{
    EmbeddingTable table(10, 4);
    const float row[4] = {1.0f, -2.0f, 3.5f, 0.25f};
    table.WriteRow(3, row);
    float out[4];
    table.ReadRow(3, out);
    for (int i = 0; i < 4; i++) {
        EXPECT_EQ(out[i], row[i]);
    }
}

TEST(EmbeddingTable, Fp16StorageQuantizes)
{
    EmbeddingTable table(4, 2, Precision::kFp16);
    const float row[2] = {0.1f, 1000.3f};
    table.WriteRow(0, row);
    float out[2];
    table.ReadRow(0, out);
    // Not exact, but within half precision.
    EXPECT_NEAR(out[0], 0.1f, 1e-4f);
    EXPECT_NEAR(out[1], 1000.3f, 0.5f);
    EXPECT_EQ(table.ParameterBytes(), 4u * 2u * 2u);  // rows*dim*2 bytes
}

TEST(EmbeddingTable, AccumulateRow)
{
    EmbeddingTable table(2, 3);
    const float row[3] = {1.0f, 2.0f, 3.0f};
    table.WriteRow(1, row);
    float acc[3] = {10.0f, 10.0f, 10.0f};
    table.AccumulateRow(1, 2.0f, acc);
    EXPECT_EQ(acc[0], 12.0f);
    EXPECT_EQ(acc[2], 16.0f);
}

TEST(EmbeddingTable, DeterministicInitIsShardStable)
{
    const int64_t rows = 20, dim = 8;
    EmbeddingTable full(rows, dim);
    full.InitDeterministic(777, 0, 0, dim);

    // Row shard [5, 12) must match rows 5..11 of the full table.
    EmbeddingTable row_shard(7, dim);
    row_shard.InitDeterministic(777, 5, 0, dim);
    std::vector<float> a(dim), b(dim);
    for (int64_t r = 0; r < 7; r++) {
        full.ReadRow(5 + r, a.data());
        row_shard.ReadRow(r, b.data());
        EXPECT_EQ(a, b) << "row " << r;
    }

    // Column shard [2, 6) must match those columns.
    EmbeddingTable col_shard(rows, 4);
    col_shard.InitDeterministic(777, 0, 2, dim);
    std::vector<float> c(4);
    for (int64_t r = 0; r < rows; r++) {
        full.ReadRow(r, a.data());
        col_shard.ReadRow(r, c.data());
        for (int i = 0; i < 4; i++) {
            EXPECT_EQ(c[i], a[2 + i]) << r << "," << i;
        }
    }
}

TEST(EmbeddingTable, SaveLoadRoundTrip)
{
    Rng rng(3);
    EmbeddingTable table(16, 8, Precision::kFp16);
    table.InitUniform(rng);
    BinaryWriter writer;
    table.Save(writer);
    BinaryReader reader(writer.buffer());
    EmbeddingTable loaded = EmbeddingTable::Load(reader);
    EXPECT_TRUE(EmbeddingTable::Identical(table, loaded));
}

TEST(EmbeddingTable, OutOfRangeRowPanics)
{
    EmbeddingTable table(4, 2);
    float buf[2];
    EXPECT_DEATH(table.ReadRow(4, buf), "out of range");
}

// ------------------------------------------------------- SparseOptimizer

std::vector<SparseGradRef>
MakeRefs(const std::vector<int64_t>& rows, const Matrix& grads)
{
    std::vector<SparseGradRef> refs;
    for (size_t i = 0; i < rows.size(); i++) {
        refs.push_back({rows[i], grads.Row(i)});
    }
    return refs;
}

TEST(SparseOptimizer, SgdMatchesManualUpdate)
{
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kSgd;
    config.learning_rate = 0.5f;
    EmbeddingTable table(4, 2);
    const float init[2] = {1.0f, 2.0f};
    table.WriteRow(1, init);

    SparseOptimizer opt(config, 4, 2);
    Matrix grads(1, 2);
    grads(0, 0) = 0.2f;
    grads(0, 1) = -0.4f;
    const auto refs = MakeRefs({1}, grads);
    opt.ApplyExact(table, refs);

    float out[2];
    table.ReadRow(1, out);
    EXPECT_FLOAT_EQ(out[0], 1.0f - 0.5f * 0.2f);
    EXPECT_FLOAT_EQ(out[1], 2.0f + 0.5f * 0.4f);
}

TEST(SparseOptimizer, ExactMergesDuplicatesBeforeNonlinearity)
{
    // With AdaGrad, applying g then g (naive) differs from applying 2g
    // once (exact). Verify both behaviours.
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kAdaGrad;
    config.learning_rate = 1.0f;
    config.eps = 0.0f;

    Matrix grads(2, 1);
    grads(0, 0) = 1.0f;
    grads(1, 0) = 1.0f;

    EmbeddingTable exact_table(2, 1);
    SparseOptimizer exact_opt(config, 2, 1);
    exact_opt.ApplyExact(exact_table, MakeRefs({0, 0}, grads));
    float w_exact;
    exact_table.ReadRow(0, &w_exact);
    // merged grad 2, state 4, update = -1.0 * 2/2 = -1.
    EXPECT_FLOAT_EQ(w_exact, -1.0f);

    EmbeddingTable naive_table(2, 1);
    SparseOptimizer naive_opt(config, 2, 1);
    naive_opt.ApplyNaive(naive_table, MakeRefs({0, 0}, grads));
    float w_naive;
    naive_table.ReadRow(0, &w_naive);
    // two steps: -1/1 then -1/sqrt(2).
    EXPECT_NEAR(w_naive, -1.0f - 1.0f / std::sqrt(2.0f), 1e-6f);
    EXPECT_NE(w_exact, w_naive);
}

TEST(SparseOptimizer, ExactUpdateIsOrderInvariant)
{
    // ~125 occurrences per row with values spanning 2^-12..2^12: their
    // float sum depends on the order it is taken in, so only the canonical
    // merge order keeps the update invariant to permuting the batch.
    Rng rng(71);
    const int64_t rows = 16, dim = 8;
    const size_t n = 2000;
    std::vector<int64_t> row_ids(n);
    Matrix grads(n, dim);
    for (size_t i = 0; i < n; i++) {
        row_ids[i] = static_cast<int64_t>(rng.NextBounded(rows));
        for (int64_t d = 0; d < dim; d++) {
            grads(i, d) =
                std::ldexp(rng.NextUniform(-1.0f, 1.0f),
                           static_cast<int>(rng.NextRange(-12, 12)));
        }
    }
    const std::vector<SparseGradRef> refs = MakeRefs(row_ids, grads);

    for (const auto kind :
         {SparseOptimizerKind::kSgd, SparseOptimizerKind::kAdaGrad,
          SparseOptimizerKind::kRowWiseAdaGrad, SparseOptimizerKind::kAdam}) {
        SCOPED_TRACE(SparseOptimizerKindName(kind));
        SparseOptimizerConfig config;
        config.kind = kind;
        config.learning_rate = 0.1f;
        auto apply = [&](std::span<const SparseGradRef> batch) {
            EmbeddingTable table(rows, dim);
            table.InitDeterministic(5, 0, 0, dim);
            SparseOptimizer opt(config, rows, dim);
            opt.ApplyExact(table, batch);
            return table;
        };
        const EmbeddingTable reference = apply(refs);
        std::vector<SparseGradRef> permuted = refs;
        for (int p = 0; p < 3; p++) {
            // Deterministic Fisher-Yates shuffle.
            for (size_t i = n; i > 1; i--) {
                std::swap(permuted[i - 1], permuted[rng.NextBounded(i)]);
            }
            EXPECT_TRUE(EmbeddingTable::Identical(reference, apply(permuted)))
                << "permutation " << p;
        }
    }
}

TEST(SparseOptimizer, NaiveAdaGradIsOrderDependent)
{
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kAdaGrad;
    config.learning_rate = 0.5f;

    Matrix grads(2, 1);
    grads(0, 0) = 1.0f;
    grads(1, 0) = 3.0f;

    EmbeddingTable t1(1, 1), t2(1, 1);
    SparseOptimizer o1(config, 1, 1), o2(config, 1, 1);
    o1.ApplyNaive(t1, MakeRefs({0, 0}, grads));

    Matrix reversed(2, 1);
    reversed(0, 0) = 3.0f;
    reversed(1, 0) = 1.0f;
    o2.ApplyNaive(t2, MakeRefs({0, 0}, reversed));

    EXPECT_FALSE(EmbeddingTable::Identical(t1, t2));
}

TEST(SparseOptimizer, RowWiseAdaGradStateMath)
{
    // m' = m + (1/D) sum g^2 (Sec. 4.1.4).
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kRowWiseAdaGrad;
    config.learning_rate = 1.0f;
    config.eps = 0.0f;

    const int64_t dim = 4;
    EmbeddingTable table(2, dim);
    SparseOptimizer opt(config, 2, dim);
    Matrix grads(1, dim);
    for (int64_t d = 0; d < dim; d++) {
        grads(0, d) = 2.0f;  // sum g^2 = 16, /D = 4 => m = 4
    }
    opt.ApplyExact(table, MakeRefs({1}, grads));
    EXPECT_FLOAT_EQ(opt.RowMoment(1), 4.0f);
    float out[4];
    table.ReadRow(1, out);
    // update = -lr * g / sqrt(m) = -2/2 = -1
    EXPECT_FLOAT_EQ(out[0], -1.0f);
}

TEST(SparseOptimizer, RowWiseStateIsOnePerRow)
{
    SparseOptimizerConfig rw;
    rw.kind = SparseOptimizerKind::kRowWiseAdaGrad;
    SparseOptimizerConfig full;
    full.kind = SparseOptimizerKind::kAdaGrad;
    const int64_t rows = 100, dim = 64;
    SparseOptimizer rw_opt(rw, rows, dim);
    SparseOptimizer full_opt(full, rows, dim);
    EXPECT_EQ(rw_opt.StateBytes(), rows * sizeof(float));
    EXPECT_EQ(full_opt.StateBytes(), rows * dim * sizeof(float));
}

TEST(SparseOptimizer, AdamMovesTowardGradientDirection)
{
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kAdam;
    config.learning_rate = 0.1f;
    EmbeddingTable table(2, 2);
    SparseOptimizer opt(config, 2, 2);
    Matrix grads(1, 2);
    grads(0, 0) = 1.0f;
    grads(0, 1) = -1.0f;
    opt.ApplyExact(table, MakeRefs({0}, grads));
    float out[2];
    table.ReadRow(0, out);
    EXPECT_LT(out[0], 0.0f);
    EXPECT_GT(out[1], 0.0f);
    // First Adam step with bias correction ≈ -lr * sign(g).
    EXPECT_NEAR(out[0], -0.1f, 1e-3f);
}

/**
 * Reference for the exact update in its comparison-sort form: a stable
 * sort of occurrence positions by row, a lexicographic sort of each row's
 * occurrences, a left-to-right sum from zero with the active kernel tier,
 * then one optimizer step per unique row in ascending row order
 * (ApplyNaive steps each ref exactly as given).
 */
void
ReferenceApplyExact(SparseOptimizer& opt, EmbeddingTable& table,
                    const std::vector<SparseGradRef>& grads)
{
    const size_t d = static_cast<size_t>(table.dim());
    std::vector<uint32_t> order(grads.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return grads[a].row < grads[b].row;
                     });
    const kernels::KernelTable& kt = kernels::Active();
    std::vector<std::vector<float>> merged;
    std::vector<int64_t> rows;
    size_t i = 0;
    while (i < order.size()) {
        const int64_t row = grads[order[i]].row;
        size_t j = i;
        while (j < order.size() && grads[order[j]].row == row) {
            j++;
        }
        std::sort(order.begin() + i, order.begin() + j,
                  [&](uint32_t a, uint32_t b) {
                      return std::lexicographical_compare(
                          grads[a].grad, grads[a].grad + d, grads[b].grad,
                          grads[b].grad + d);
                  });
        merged.emplace_back(d, 0.0f);
        for (size_t k = i; k < j; k++) {
            kt.add_f32(grads[order[k]].grad, merged.back().data(), d);
        }
        rows.push_back(row);
        i = j;
    }
    std::vector<SparseGradRef> steps;
    for (size_t g = 0; g < rows.size(); g++) {
        steps.push_back({rows[g], merged[g].data()});
    }
    opt.ApplyNaive(table, steps);
}

/** True when every row's optimizer state matches bit for bit. */
bool
SameOptimizerState(const SparseOptimizer& a, const SparseOptimizer& b,
                   int64_t rows)
{
    const size_t n = a.StateFloatsPerRow();
    if (n != b.StateFloatsPerRow()) {
        return false;
    }
    std::vector<float> sa(n), sb(n);
    for (int64_t r = 0; r < rows && n > 0; r++) {
        a.ExportRowState(r, sa.data());
        b.ExportRowState(r, sb.data());
        if (std::memcmp(sa.data(), sb.data(), n * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

constexpr SparseOptimizerKind kAllSparseKinds[] = {
    SparseOptimizerKind::kSgd, SparseOptimizerKind::kAdaGrad,
    SparseOptimizerKind::kRowWiseAdaGrad, SparseOptimizerKind::kAdam};

TEST(SparseOptimizer, ApplyExactMatchesStableSortReferenceBitwise)
{
    // Row counts whose keys take one 10-bit radix pass, two 8-bit passes
    // and three 7-bit passes. The largest table is narrow to stay small.
    struct Shape {
        int64_t rows;
        int64_t dim;
    };
    const Shape shapes[] = {{1000, 20}, {50000, 20}, {(1 << 20) + 37, 3}};
    for (const SparseOptimizerKind kind : kAllSparseKinds) {
        for (const Precision precision : {Precision::kFp32,
                                          Precision::kFp16}) {
            for (const Shape& shape : shapes) {
                SCOPED_TRACE(std::string(SparseOptimizerKindName(kind)) +
                             (precision == Precision::kFp16 ? " fp16"
                                                            : " fp32") +
                             " rows=" + std::to_string(shape.rows));
                SparseOptimizerConfig config;
                config.kind = kind;
                config.learning_rate = 0.05f;
                EmbeddingTable got(shape.rows, shape.dim, precision);
                got.InitDeterministic(11, 0, 0, shape.dim);
                EmbeddingTable want = got;
                SparseOptimizer got_opt(config, shape.rows, shape.dim);
                SparseOptimizer want_opt(config, shape.rows, shape.dim);

                Rng rng(static_cast<uint64_t>(shape.rows) * 7 +
                        static_cast<uint64_t>(kind));
                const size_t d = static_cast<size_t>(shape.dim);
                // Batches: two heavy-duplicate steps (so optimizer state
                // builds up), a single occurrence, and an empty update.
                for (const size_t n : {size_t(3000), size_t(3000), size_t(1),
                                       size_t(0)}) {
                    // Pooling 5: each sample's occurrences share one
                    // gradient row, as in the fused backward.
                    const size_t samples = (n + 4) / 5;
                    Matrix grads(std::max<size_t>(samples, 1), d);
                    for (size_t b = 0; b < samples; b++) {
                        for (size_t c = 0; c < d; c++) {
                            grads(b, c) = rng.NextUniform(-1.0f, 1.0f);
                        }
                        if (b % 7 == 3) {
                            // A tie for the lexicographic merge: rows
                            // b - 1 and b compare equal but differ in the
                            // sign of a zero.
                            grads(b - 1, 0) = 0.0f;
                            std::memcpy(grads.Row(b), grads.Row(b - 1),
                                        d * sizeof(float));
                            grads(b, 0) = -0.0f;
                        }
                    }
                    std::vector<SparseGradRef> refs;
                    for (size_t i = 0; i < n; i++) {
                        int64_t row;
                        const uint64_t pick = rng.NextBounded(4);
                        if (pick < 2) {
                            row = static_cast<int64_t>(rng.NextBounded(6));
                        } else if (pick == 2) {
                            row = shape.rows - 1 -
                                  static_cast<int64_t>(rng.NextBounded(3));
                        } else {
                            row = static_cast<int64_t>(rng.NextBounded(
                                static_cast<uint64_t>(shape.rows)));
                        }
                        refs.push_back({row, grads.Row(i / 5)});
                    }
                    got_opt.ApplyExact(got, refs);
                    ReferenceApplyExact(want_opt, want, refs);
                    ASSERT_TRUE(EmbeddingTable::Identical(got, want))
                        << "n=" << n;
                    ASSERT_TRUE(
                        SameOptimizerState(got_opt, want_opt, shape.rows))
                        << "n=" << n;
                }
            }
        }
    }
}

TEST(SparseOptimizer, BadRowThrowsBeforeAnyStateChanges)
{
    // The trainer snapshots the rows GroupByRow returns into the step's
    // undo log before applying, so a bad row must be rejected by the
    // grouping itself: before any row, optimizer state or snapshot moves.
    const int64_t rows = 16, dim = 4;
    Matrix grads(3, dim);
    for (int64_t c = 0; c < dim; c++) {
        grads(0, c) = 0.5f;
        grads(1, c) = -0.25f;
        grads(2, c) = 1.0f;
    }
    for (const SparseOptimizerKind kind : kAllSparseKinds) {
        for (const int64_t bad : {int64_t(-1), rows, int64_t(1) << 40}) {
            SCOPED_TRACE(std::string(SparseOptimizerKindName(kind)) +
                         " bad row " + std::to_string(bad));
            SparseOptimizerConfig config;
            config.kind = kind;
            EmbeddingTable table(rows, dim);
            table.InitDeterministic(3, 0, 0, dim);
            SparseOptimizer opt(config, rows, dim);
            // Earlier steps give the optimizer non-trivial state.
            opt.ApplyExact(table, MakeRefs({2, 5, 2}, grads));
            const EmbeddingTable table_before = table;
            const SparseOptimizer opt_before = opt;

            // Valid rows first, the bad one last: nothing may be applied.
            const auto refs = MakeRefs({5, 2, bad}, grads);
            EXPECT_THROW(opt.ApplyExact(table, refs), std::runtime_error);
            EXPECT_THROW(opt.GroupByRow(refs), std::runtime_error);
            // A failed grouping leaves nothing behind to apply.
            opt.ApplyGrouped(table);
            EXPECT_TRUE(EmbeddingTable::Identical(table, table_before));
            EXPECT_TRUE(SameOptimizerState(opt, opt_before, rows));
        }
    }
}

TEST(SparseOptimizer, GroupByRowReturnsUniqueRowsAscending)
{
    Matrix grads(7, 2);
    const auto refs = MakeRefs({9, 3, 9, 0, 3, 3, 14}, grads);
    SparseOptimizerConfig config;
    SparseOptimizer opt(config, 15, 2);
    const std::span<const int64_t> rows = opt.GroupByRow(refs);
    EXPECT_EQ(std::vector<int64_t>(rows.begin(), rows.end()),
              (std::vector<int64_t>{0, 3, 9, 14}));
    EXPECT_TRUE(opt.GroupByRow({}).empty());
}

// ---------------------------------------------------- EmbeddingBagCollection

TEST(EmbeddingBag, ForwardPoolsSum)
{
    std::vector<TableSpec> specs = {{4, 2, Precision::kFp32}};
    SparseOptimizerConfig opt_config;
    EmbeddingBagCollection ebc(specs, opt_config, 1);
    const float r0[2] = {1.0f, 2.0f};
    const float r3[2] = {10.0f, 20.0f};
    ebc.table(0).WriteRow(0, r0);
    ebc.table(0).WriteRow(3, r3);

    const std::vector<uint32_t> lengths = {2, 0, 1};
    const std::vector<int64_t> indices = {0, 3, 0};
    std::vector<TableInput> inputs = {{lengths, indices}};
    std::vector<Matrix> outputs;
    ebc.Forward(inputs, 3, outputs);

    EXPECT_FLOAT_EQ(outputs[0](0, 0), 11.0f);  // rows 0+3
    EXPECT_FLOAT_EQ(outputs[0](0, 1), 22.0f);
    EXPECT_FLOAT_EQ(outputs[0](1, 0), 0.0f);   // empty pooling
    EXPECT_FLOAT_EQ(outputs[0](2, 0), 1.0f);   // row 0
}

TEST(EmbeddingBag, BackwardRoutesPooledGradToEveryOccurrence)
{
    std::vector<TableSpec> specs = {{4, 1, Precision::kFp32}};
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kSgd;
    config.learning_rate = 1.0f;
    EmbeddingBagCollection ebc(specs, config, 1);
    const float zero = 0.0f;
    for (int64_t r = 0; r < 4; r++) {
        ebc.table(0).WriteRow(r, &zero);
    }

    // Sample 0 hits rows {1, 2}; sample 1 hits row {2}.
    const std::vector<uint32_t> lengths = {2, 1};
    const std::vector<int64_t> indices = {1, 2, 2};
    std::vector<TableInput> inputs = {{lengths, indices}};
    std::vector<Matrix> grads(1);
    grads[0] = Matrix(2, 1);
    grads[0](0, 0) = 1.0f;
    grads[0](1, 0) = 10.0f;
    ebc.BackwardAndUpdate(inputs, 2, grads);

    float w;
    ebc.table(0).ReadRow(1, &w);
    EXPECT_FLOAT_EQ(w, -1.0f);    // only sample 0
    ebc.table(0).ReadRow(2, &w);
    EXPECT_FLOAT_EQ(w, -11.0f);   // merged from both samples
    ebc.table(0).ReadRow(0, &w);
    EXPECT_FLOAT_EQ(w, 0.0f);     // untouched
}

TEST(EmbeddingBag, SaveLoadRoundTrip)
{
    std::vector<TableSpec> specs = {{8, 4, Precision::kFp32},
                                    {6, 4, Precision::kFp16}};
    SparseOptimizerConfig config;
    EmbeddingBagCollection ebc(specs, config, 77);
    BinaryWriter writer;
    ebc.Save(writer);

    EmbeddingBagCollection other(specs, config, 12345);
    EXPECT_FALSE(EmbeddingTable::Identical(ebc.table(0), other.table(0)));
    BinaryReader reader(writer.buffer());
    other.Load(reader);
    EXPECT_TRUE(EmbeddingTable::Identical(ebc.table(0), other.table(0)));
    EXPECT_TRUE(EmbeddingTable::Identical(ebc.table(1), other.table(1)));
}

TEST(EmbeddingBag, MemoryAccounting)
{
    std::vector<TableSpec> specs = {{100, 8, Precision::kFp32},
                                    {50, 8, Precision::kFp16}};
    SparseOptimizerConfig config;
    config.kind = SparseOptimizerKind::kRowWiseAdaGrad;
    EmbeddingBagCollection ebc(specs, config, 1);
    EXPECT_EQ(ebc.ParameterBytes(), 100u * 8 * 4 + 50u * 8 * 2);
    EXPECT_EQ(ebc.OptimizerStateBytes(), (100u + 50u) * sizeof(float));
}

// -------------------------------------------------------- DenseOptimizer

TEST(DenseOptimizer, SgdWithMomentum)
{
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kSgd;
    config.learning_rate = 1.0f;
    config.momentum = 0.5f;
    DenseOptimizer opt(config);
    const size_t slot = opt.Register(1, 1);

    Matrix w(1, 1), g(1, 1);
    g(0, 0) = 1.0f;
    opt.Step(slot, w, g);
    EXPECT_FLOAT_EQ(w(0, 0), -1.0f);   // v=1
    opt.Step(slot, w, g);
    EXPECT_FLOAT_EQ(w(0, 0), -2.5f);   // v=1.5
}

TEST(DenseOptimizer, AdaGradShrinksSteps)
{
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kAdaGrad;
    config.learning_rate = 1.0f;
    config.eps = 0.0f;
    DenseOptimizer opt(config);
    const size_t slot = opt.Register(1, 1);
    Matrix w(1, 1), g(1, 1);
    g(0, 0) = 2.0f;
    opt.Step(slot, w, g);
    const float step1 = -w(0, 0);
    const float before = w(0, 0);
    opt.Step(slot, w, g);
    const float step2 = before - w(0, 0);
    EXPECT_GT(step1, step2);
    EXPECT_FLOAT_EQ(step1, 1.0f);
}

TEST(DenseOptimizer, AdamFirstStepIsLrSized)
{
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kAdam;
    config.learning_rate = 0.01f;
    DenseOptimizer opt(config);
    const size_t slot = opt.Register(1, 1);
    Matrix w(1, 1), g(1, 1);
    g(0, 0) = 123.0f;  // magnitude irrelevant for Adam's first step
    opt.Step(slot, w, g);
    EXPECT_NEAR(w(0, 0), -0.01f, 1e-4f);
}

// ------------------------------------------------------------------- Mlp

TEST(Mlp, ForwardShapesAndDeterminism)
{
    Rng rng(5);
    Mlp mlp({{8, 16, 4}, false}, rng);
    EXPECT_EQ(mlp.InputDim(), 8u);
    EXPECT_EQ(mlp.OutputDim(), 4u);
    EXPECT_EQ(mlp.NumLayers(), 2u);
    EXPECT_EQ(mlp.NumParams(), 8u * 16 + 16 + 16 * 4 + 4);

    Matrix x(3, 8);
    Rng xrng(6);
    x.InitUniform(xrng, -1.0f, 1.0f);
    Matrix out1, out2;
    mlp.Forward(x, out1);
    mlp.Forward(x, out2);
    EXPECT_TRUE(Matrix::Identical(out1, out2));

    Rng rng2(5);
    Mlp clone({{8, 16, 4}, false}, rng2);
    EXPECT_TRUE(Mlp::Identical(mlp, clone));
}

TEST(Mlp, BackwardMatchesNumericalGradient)
{
    Rng rng(9);
    Mlp mlp({{4, 6, 1}, false}, rng);
    Matrix x(2, 4);
    Rng xrng(10);
    x.InitUniform(xrng, -1.0f, 1.0f);

    // Objective: sum of outputs.
    auto objective = [&](Mlp& m) {
        Matrix out;
        m.Forward(x, out);
        double sum = 0.0;
        for (size_t i = 0; i < out.size(); i++) {
            sum += out.data()[i];
        }
        return sum;
    };

    Matrix out;
    mlp.Forward(x, out);
    mlp.ZeroGrads();
    Matrix ones(2, 1);
    ones.Fill(1.0f);
    Matrix grad_in;
    mlp.Backward(ones, grad_in);

    const float eps = 1e-3f;
    // Check a sample of weight gradients in layer 0 numerically.
    for (size_t r = 0; r < 3; r++) {
        for (size_t c = 0; c < 2; c++) {
            const float saved = mlp.weight(0)(r, c);
            mlp.weight(0)(r, c) = saved + eps;
            const double plus = objective(mlp);
            mlp.weight(0)(r, c) = saved - eps;
            const double minus = objective(mlp);
            mlp.weight(0)(r, c) = saved;
            const double numeric = (plus - minus) / (2.0 * eps);
            EXPECT_NEAR(mlp.weight_grad(0)(r, c), numeric, 2e-2)
                << r << "," << c;
        }
    }
    // And the input gradient.
    for (size_t c = 0; c < 4; c++) {
        Matrix xp = x, xm = x;
        xp(0, c) += eps;
        xm(0, c) -= eps;
        Matrix o;
        mlp.Forward(xp, o);
        double plus = 0.0;
        for (size_t i = 0; i < o.size(); i++) {
            plus += o.data()[i];
        }
        mlp.Forward(xm, o);
        double minus = 0.0;
        for (size_t i = 0; i < o.size(); i++) {
            minus += o.data()[i];
        }
        // Restore saved activations for consistency.
        mlp.Forward(x, o);
        EXPECT_NEAR(grad_in(0, c), (plus - minus) / (2.0 * eps), 2e-2) << c;
    }
}

TEST(Mlp, PackUnpackGradsRoundTrip)
{
    Rng rng(12);
    Mlp mlp({{4, 8, 2}, false}, rng);
    Matrix x(5, 4);
    Rng xrng(13);
    x.InitUniform(xrng, -1.0f, 1.0f);
    Matrix out;
    mlp.Forward(x, out);
    mlp.ZeroGrads();
    Matrix grad_out(5, 2);
    grad_out.Fill(0.5f);
    Matrix grad_in;
    mlp.Backward(grad_out, grad_in);

    std::vector<float> buffer(mlp.GradCount());
    mlp.PackGrads(buffer.data());

    Rng rng2(12);
    Mlp other({{4, 8, 2}, false}, rng2);
    other.ZeroGrads();
    other.UnpackGrads(buffer.data());
    for (size_t l = 0; l < mlp.NumLayers(); l++) {
        EXPECT_TRUE(Matrix::Identical(mlp.weight_grad(l),
                                      other.weight_grad(l)));
        EXPECT_TRUE(
            Matrix::Identical(mlp.bias_grad(l), other.bias_grad(l)));
    }
}

TEST(Mlp, SaveLoadRoundTrip)
{
    Rng rng(15);
    Mlp mlp({{3, 5, 2}, true}, rng);
    BinaryWriter writer;
    mlp.Save(writer);

    Rng rng2(999);
    Mlp other({{3, 5, 2}, true}, rng2);
    EXPECT_FALSE(Mlp::Identical(mlp, other));
    BinaryReader reader(writer.buffer());
    other.Load(reader);
    EXPECT_TRUE(Mlp::Identical(mlp, other));
}

TEST(Mlp, FlopsPerSample)
{
    Rng rng(16);
    Mlp mlp({{10, 20, 5}, false}, rng);
    EXPECT_DOUBLE_EQ(mlp.FlopsPerSample(), 2.0 * (10 * 20 + 20 * 5));
}

}  // namespace
}  // namespace neo::ops

namespace neo::ops {
namespace {

TEST(DenseOptimizer, LambScalesByTrustRatio)
{
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kLamb;
    config.learning_rate = 0.01f;
    DenseOptimizer opt(config);
    const size_t slot = opt.Register(1, 2);

    // Large weights + tiny gradient: the trust ratio (||w||/||update||)
    // amplifies the normalized Adam step to the weight scale.
    Matrix w(1, 2), g(1, 2);
    w(0, 0) = 10.0f;
    w(0, 1) = -10.0f;
    g(0, 0) = 1e-3f;
    g(0, 1) = 1e-3f;
    opt.Step(slot, w, g);
    // First Adam direction is ~sign(g) (unit-ish norm); trust ratio is
    // ~||w|| / ||unit|| ~ 14.1/1.41 = 10 -> step ~ lr * 10 * 1 = 0.1.
    EXPECT_NEAR(w(0, 0), 10.0f - 0.1f, 0.02f);
    EXPECT_NEAR(w(0, 1), -10.0f - 0.1f, 0.02f);
}

TEST(DenseOptimizer, LambTrainsMlp)
{
    // End-to-end: a LAMB-trained MLP fits a simple target.
    Rng rng(7);
    Mlp mlp({{4, 16, 1}, false}, rng);
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kLamb;
    config.learning_rate = 0.01f;
    DenseOptimizer opt(config);
    const auto slots = mlp.RegisterParams(opt);

    Rng xrng(9);
    Matrix x(32, 4);
    x.InitUniform(xrng, -1.0f, 1.0f);
    Matrix target(32, 1);
    for (size_t b = 0; b < 32; b++) {
        target(b, 0) = x(b, 0) - 0.5f * x(b, 2);
    }

    double first_loss = 0.0, last_loss = 0.0;
    for (int step = 0; step < 200; step++) {
        Matrix out;
        mlp.Forward(x, out);
        Matrix grad(32, 1);
        double loss = 0.0;
        for (size_t b = 0; b < 32; b++) {
            const float diff = out(b, 0) - target(b, 0);
            loss += 0.5 * diff * diff;
            grad(b, 0) = diff / 32.0f;
        }
        if (step == 0) {
            first_loss = loss;
        }
        last_loss = loss;
        mlp.ZeroGrads();
        Matrix grad_in;
        mlp.Backward(grad, grad_in);
        mlp.ApplyOptimizer(opt, slots);
    }
    EXPECT_LT(last_loss, first_loss * 0.1);
}

// ---------------------------------------- optimizer row-state movement

TEST(SparseOptimizer, StateFloatsPerRowMatchesLayout)
{
    const int64_t dim = 8;
    auto sfpr = [&](SparseOptimizerKind kind) {
        SparseOptimizerConfig config;
        config.kind = kind;
        return SparseOptimizer(config, 4, dim).StateFloatsPerRow();
    };
    EXPECT_EQ(sfpr(SparseOptimizerKind::kSgd), 0u);
    EXPECT_EQ(sfpr(SparseOptimizerKind::kAdaGrad),
              static_cast<size_t>(dim));
    EXPECT_EQ(sfpr(SparseOptimizerKind::kRowWiseAdaGrad), 1u);
    EXPECT_EQ(sfpr(SparseOptimizerKind::kAdam),
              static_cast<size_t>(2 * dim + 1));
}

/**
 * Export/ImportRowState must move the whole per-row algorithm state: an
 * optimizer rebuilt from exported state continues training bit-identically
 * to the original. This is the invariant the rollback undo log and the
 * distributed checkpointer rely on.
 */
TEST(SparseOptimizer, ExportImportRowStateResumesBitIdentically)
{
    const int64_t rows = 16, dim = 4;
    for (const auto kind :
         {SparseOptimizerKind::kSgd, SparseOptimizerKind::kAdaGrad,
          SparseOptimizerKind::kRowWiseAdaGrad,
          SparseOptimizerKind::kAdam}) {
        SCOPED_TRACE(SparseOptimizerKindName(kind));
        SparseOptimizerConfig config;
        config.kind = kind;

        Rng rng(21);
        EmbeddingTable t1(rows, dim);
        t1.InitUniform(rng);
        SparseOptimizer o1(config, rows, dim);

        Matrix g1(3, dim), g2(3, dim);
        Rng grng(22);
        for (size_t i = 0; i < g1.size(); i++) {
            g1.data()[i] = grng.NextFloat() - 0.5f;
            g2.data()[i] = grng.NextFloat() - 0.5f;
        }
        o1.ApplyExact(t1, MakeRefs({2, 7, 11}, g1));

        // Clone the parameters, then rebuild the optimizer state from the
        // exported per-row layout.
        EmbeddingTable t2 = t1;
        SparseOptimizer o2(config, rows, dim);
        std::vector<float> state(o1.StateFloatsPerRow());
        for (int64_t r = 0; r < rows; r++) {
            o1.ExportRowState(r, state.data());
            o2.ImportRowState(r, state.data());
        }

        // A second, overlapping step must now evolve both bit-identically
        // (Adam's per-row step counter included).
        o1.ApplyExact(t1, MakeRefs({7, 11, 13}, g2));
        o2.ApplyExact(t2, MakeRefs({7, 11, 13}, g2));
        EXPECT_TRUE(EmbeddingTable::Identical(t1, t2));
    }
}

TEST(DenseOptimizer, SaveLoadRoundTripResumesBitIdentically)
{
    // Same invariant for the dense side: Save/Load must carry the Adam
    // moments and step count so training resumes bit-identically.
    auto make_step = [](Mlp& mlp, DenseOptimizer& opt,
                        const std::vector<size_t>& slots, const Matrix& x) {
        Matrix out;
        mlp.Forward(x, out);
        Matrix grad(out.rows(), out.cols());
        for (size_t i = 0; i < grad.size(); i++) {
            grad.data()[i] = out.data()[i] / grad.rows();
        }
        mlp.ZeroGrads();
        Matrix grad_in;
        mlp.Backward(grad, grad_in);
        mlp.ApplyOptimizer(opt, slots);
    };

    Rng rng(5);
    Mlp m1({{4, 8, 1}, false}, rng);
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kAdam;
    DenseOptimizer o1(config);
    const auto slots1 = m1.RegisterParams(o1);

    Rng xrng(6);
    Matrix x(8, 4);
    x.InitUniform(xrng, -1.0f, 1.0f);
    make_step(m1, o1, slots1, x);

    // Clone the MLP params and the optimizer state via serialization.
    BinaryWriter mlp_writer, opt_writer;
    m1.Save(mlp_writer);
    o1.Save(opt_writer);

    Rng rng2(5);
    Mlp m2({{4, 8, 1}, false}, rng2);
    DenseOptimizer o2(config);
    const auto slots2 = m2.RegisterParams(o2);
    BinaryReader mlp_reader(mlp_writer.buffer());
    m2.Load(mlp_reader);
    BinaryReader opt_reader(opt_writer.buffer());
    o2.Load(opt_reader);

    make_step(m1, o1, slots1, x);
    make_step(m2, o2, slots2, x);
    Matrix out1, out2;
    m1.Forward(x, out1);
    m2.Forward(x, out2);
    EXPECT_TRUE(Matrix::Identical(out1, out2));
}

TEST(DenseOptimizer, LoadRejectsMismatchedSlotCount)
{
    Rng rng(5);
    Mlp small({{4, 8, 1}, false}, rng);
    Mlp big({{4, 8, 8, 1}, false}, rng);
    DenseOptimizerConfig config;
    config.kind = DenseOptimizerKind::kAdam;
    DenseOptimizer o_small(config), o_big(config);
    small.RegisterParams(o_small);
    big.RegisterParams(o_big);
    BinaryWriter writer;
    o_small.Save(writer);
    BinaryReader reader(writer.buffer());
    EXPECT_THROW(o_big.Load(reader), std::runtime_error);
}

}  // namespace
}  // namespace neo::ops
