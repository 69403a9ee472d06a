/**
 * @file
 * SIMD-tier sweep for the packed GEMM path: times Gemm at representative
 * DLRM MLP shapes once per supported kernel tier (scalar / avx2 /
 * avx512) and emits the GFLOP/s curve plus speedup over the scalar
 * reference. Every timed run is also checked bit-for-bit against the
 * scalar-tier result, so the file doubles as a record of the cross-tier
 * determinism contract (DESIGN.md §4h).
 *
 * Usage: micro_gemm [--quick] [--out=PATH]
 *   --quick  small shapes (smoke-test mode)
 *   --out    JSON output path (default BENCH_kernels_gemm.json in the cwd)
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "kernels/kernels.h"
#include "tensor/gemm.h"

namespace {

using namespace neo;

struct TierResult {
    kernels::Tier tier;
    double seconds;
    double gflops;
    bool bit_identical;
};

struct ShapeResult {
    size_t m, n, k;
    std::string role;
    std::vector<TierResult> results;
};

/** Best-of-reps wall time for fn(). */
template <typename F>
double
TimeBest(int reps, F&& fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; r++) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto end = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(end - start).count());
    }
    return best;
}

Matrix
RandomMatrix(size_t rows, size_t cols, Rng& rng)
{
    Matrix m(rows, cols);
    m.InitUniform(rng, -1.0f, 1.0f);
    return m;
}

struct Shape {
    size_t m, n, k;
    const char* role;
};

/**
 * Representative DLRM MLP GEMMs (Table 3-style arches): bottom MLP first
 * layer (wide batch, ragged k=13 dense features), mid layers, and the top
 * MLP over the interaction output. One deliberately ragged shape keeps
 * the tail/mask paths honest in the timing loop.
 */
std::vector<Shape>
Shapes(bool quick)
{
    if (quick) {
        return {{128, 128, 64, "quick_mid"}, {67, 63, 29, "quick_ragged"}};
    }
    return {
        {2048, 512, 13, "bottom_mlp_in"},
        {2048, 256, 512, "bottom_mlp_mid"},
        {2048, 1024, 480, "top_mlp_in"},
        {2048, 512, 1024, "top_mlp_mid"},
        {512, 512, 512, "square_512"},
        {253, 509, 131, "ragged"},
    };
}

ShapeResult
BenchShape(const Shape& s, int reps)
{
    Rng rng(11);
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    Matrix c(s.m, s.n);

    ShapeResult out;
    out.m = s.m;
    out.n = s.n;
    out.k = s.k;
    out.role = s.role;

    kernels::SetTier(kernels::Tier::kScalar);
    MatMul(a, b, c);
    const Matrix reference = c;

    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
    for (kernels::Tier tier : kernels::SupportedTiers()) {
        kernels::SetTier(tier);
        MatMul(a, b, c);  // warm up + comparison output
        const bool identical = Matrix::Identical(reference, c);
        const double secs = TimeBest(reps, [&] { MatMul(a, b, c); });
        out.results.push_back({tier, secs, flops / secs / 1e9, identical});
    }
    return out;
}

void
PrintAndWrite(const std::vector<ShapeResult>& shapes, bool quick,
              const std::string& out_path)
{
    for (const auto& s : shapes) {
        std::printf("== gemm %zux%zux%zu (%s) ==\n\n", s.m, s.n, s.k,
                    s.role.c_str());
        TablePrinter table(
            {"tier", "seconds", "GFLOP/s", "vs scalar", "bit-identical"});
        const double base = s.results.front().seconds;
        for (const auto& r : s.results) {
            table.Row()
                .Cell(kernels::TierName(r.tier))
                .CellF(r.seconds, "%.5f")
                .CellF(r.gflops, "%.2f")
                .CellF(base / r.seconds, "%.2f")
                .Cell(r.bit_identical ? "yes" : "NO");
        }
        table.Print();
        std::printf("\n");
    }

    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_gemm\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
                 CpuFeatures::Host().ToString().c_str());
    std::fprintf(f, "  \"default_tier\": \"%s\",\n",
                 kernels::TierName(kernels::SupportedTiers().back()));
    std::fprintf(f, "  \"shapes\": [\n");
    for (size_t i = 0; i < shapes.size(); i++) {
        const auto& s = shapes[i];
        std::fprintf(f,
                     "    {\n      \"m\": %zu, \"n\": %zu, \"k\": %zu, "
                     "\"role\": \"%s\",\n",
                     s.m, s.n, s.k, s.role.c_str());
        std::fprintf(f, "      \"tiers\": [\n");
        const double base = s.results.front().seconds;
        for (size_t j = 0; j < s.results.size(); j++) {
            const auto& r = s.results[j];
            std::fprintf(
                f,
                "        {\"tier\": \"%s\", \"seconds\": %.6f, "
                "\"gflops\": %.3f, \"speedup_vs_scalar\": %.3f, "
                "\"bit_identical\": %s}%s\n",
                kernels::TierName(r.tier), r.seconds, r.gflops,
                base / r.seconds, r.bit_identical ? "true" : "false",
                j + 1 < s.results.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < shapes.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_kernels_gemm.json";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--out=PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    const int reps = quick ? 2 : 5;
    std::vector<ShapeResult> shapes;
    for (const Shape& s : Shapes(quick)) {
        shapes.push_back(BenchShape(s, reps));
    }
    PrintAndWrite(shapes, quick, out_path);

    // Non-zero exit if any tier diverged from the scalar reference, so
    // the smoke test doubles as a cross-tier determinism check.
    for (const auto& s : shapes) {
        for (const auto& r : s.results) {
            if (!r.bit_identical) {
                return 1;
            }
        }
    }
    return 0;
}
