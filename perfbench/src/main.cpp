/**
 * @file
 * Benchmark binary: runs one workload and writes its raw samples as JSON.
 *
 *   perfbench --workload <train_sparse|serve_open>
 *             --seed <n> --seconds <s> --trace <0|1> --out <file>
 *
 * perfbench/run.py builds this binary, runs it, and computes the
 * reported metrics from the file; see perfbench/README.md.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/parallel_for.h"
#include "kernels/kernels.h"

namespace perfbench {

using namespace neo;

void
Json::Key(const char* key)
{
    if (!first_) {
        out_ += ',';
    }
    first_ = false;
    if (key != nullptr) {
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }
}

void
Json::BeginObject(const char* key)
{
    Key(key);
    out_ += '{';
    first_ = true;
}

void
Json::EndObject()
{
    out_ += '}';
    first_ = false;
}

void
Json::BeginArray(const char* key)
{
    Key(key);
    out_ += '[';
    first_ = true;
}

void
Json::EndArray()
{
    out_ += ']';
    first_ = false;
}

void
Json::Number(const char* key, double value)
{
    Key(key);
    char buf[32];
    if (std::isfinite(value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
        std::snprintf(buf, sizeof(buf), "null");
    }
    out_ += buf;
}

void
Json::Int(const char* key, int64_t value)
{
    Key(key);
    out_ += std::to_string(value);
}

void
Json::Bool(const char* key, bool value)
{
    Key(key);
    out_ += value ? "true" : "false";
}

void
Json::String(const char* key, const std::string& value)
{
    Key(key);
    out_ += '"';
    for (char c : value) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out_ += c;
        }
    }
    out_ += '"';
}

void
Json::Numbers(const char* key, const std::vector<double>& values)
{
    BeginArray(key);
    for (double v : values) {
        Number(nullptr, v);
    }
    EndArray();
}

namespace {

/** Offered rate of serve_open's fixed-rate phase, requests/s. */
constexpr double kServeRate = 8000.0;
/** Training steps behind the served snapshot. */
constexpr int kServeTrainSteps = 100;
/** Times serve_open's set-up is repeated (median reported). */
constexpr int kServeSetupReps = 5;
/** Intra-op pool while serving (training uses kPoolThreads). */
constexpr size_t kServePoolThreads = 1;

std::string
CpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Peak resident set of this process, MiB. */
double
PeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void
WriteTrain(Json& j, const TrainResult& r)
{
    j.BeginObject("train");
    j.Int("global_batch", static_cast<int64_t>(r.global_batch));
    j.Int("iterations", static_cast<int64_t>(r.iterations));
    j.Number("loop_s", r.loop_s);
    j.Numbers("step_ms", r.step_ms);
    j.Numbers("sample_latency_ms", r.sample_latency_ms);
    j.Number("eval_ne", r.eval_ne);
    const TraceResult& t = r.trace;
    j.BeginObject("trace");
    j.Numbers("data_ms", t.data_ms);
    j.Numbers("step_call_ms", t.step_call_ms);
    j.Numbers("ckpt_write_ms", t.ckpt_write_ms);
    j.Numbers("ckpt_rows", t.ckpt_rows);
    j.Numbers("delta_bytes", t.delta_bytes);
    j.Number("alltoall_ms", t.alltoall_ms);
    j.Number("allreduce_ms", t.allreduce_ms);
    j.Number("reducescatter_ms", t.reducescatter_ms);
    j.Number("other_ms", t.other_ms);
    j.Number("prepare_alltoall_ms", t.prepare_alltoall_ms);
    j.Number("alltoall_bytes", t.alltoall_bytes);
    j.Number("allreduce_bytes", t.allreduce_bytes);
    j.Number("calls", t.calls);
    j.Numbers("traced_block_sps", t.traced_block_sps);
    j.Numbers("untraced_block_sps", t.untraced_block_sps);
    const ProbeResult& p = t.probes;
    j.BeginObject("probes");
    j.Number("emb_fwd_ms", p.emb_fwd_ms);
    j.Number("emb_fwd_gbps", p.emb_fwd_gbps);
    j.Number("emb_bwd_ms", p.emb_bwd_ms);
    j.Number("emb_bwd_unique_frac", p.emb_bwd_unique_frac);
    j.Number("mlp_fwd_ms", p.mlp_fwd_ms);
    j.Number("mlp_bwd_ms", p.mlp_bwd_ms);
    j.Number("dense_opt_ms", p.dense_opt_ms);
    j.Number("gemm_gflops", p.gemm_gflops);
    j.EndObject();
    j.EndObject();
    j.EndObject();
}

void
WritePhase(Json& j, const char* key, const Phase& ph)
{
    j.BeginObject(key);
    j.Number("rate", ph.rate);
    j.Numbers("due_s", ph.due_s);
    j.Numbers("sent_s", ph.sent_s);
    j.Numbers("seen_s", ph.seen_s);
    j.Numbers("queue_ms", ph.queue_ms);
    j.Numbers("service_ms", ph.service_ms);
    j.Int("shed", static_cast<int64_t>(ph.shed));
    j.EndObject();
}

void
WriteServe(Json& j, const ServeResult& r)
{
    j.BeginObject("serve");
    WritePhase(j, "fixed", r.fixed);
    j.Number("batch_size_mean", r.batch_size_mean);
    j.Numbers("engine_fwd_ms", r.engine_fwd_ms);
    j.Number("cache_hit_rate", r.cache_hit_rate);
    j.Number("served_ne", r.served_ne);
    j.EndObject();
}

int
Usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <train_sparse|serve_open> "
                 "--seed <n> --seconds <s> --trace <0|1> --out <file>\n");
    return 2;
}

}  // namespace

int
Main(int argc, char** argv)
{
    std::string workload;
    std::string out_path;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::stoull(value);
        } else if (flag == "--seconds") {
            seconds = std::stod(value);
        } else if (flag == "--trace") {
            trace = value == "1";
        } else if (flag == "--out") {
            out_path = value;
        } else {
            return Usage();
        }
    }
    if (out_path.empty() || argc % 2 == 0 ||
        (workload != "train_sparse" && workload != "serve_open")) {
        return Usage();
    }
    SetDefaultPoolThreads(kPoolThreads);

    std::vector<double> setup_s;
    std::vector<std::pair<std::string, bool>> gates;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    TrainResult train;
    ServeResult served;
    bool has_serve = false;
    const auto gate = [&](const char* name, bool pass) {
        gates.emplace_back(name, pass);
        attempted++;
        failed += pass ? 0 : 1;
    };

    if (workload == "serve_open") {
        std::vector<double> train_setup;
        bool losses_agree = true;
        bool restore_matches = true;
        for (int rep = 0; rep < kServeSetupReps; rep++) {
            TrainOptions options;
            options.seed = seed;
            options.fixed_steps = kServeTrainSteps;
            options.trace = trace && rep + 1 == kServeSetupReps;
            options.setup_reps = 1;
            options.cut_snapshot = true;
            const auto t0 = Clock::now();
            train = RunTraining(SparseSpec(), options);
            train_setup.push_back(Seconds(t0, Clock::now()));
            losses_agree &= train.losses_agree;
            restore_matches &= train.restore_matches;
        }
        gate("train_losses_agree", losses_agree);
        gate("train_restore_predict", restore_matches);
        // One pool worker while serving: 2 rank threads, the pool worker
        // and the generator and collector threads fit the 4 cores better
        // than 2 pool workers, and serving batches are small.
        SetDefaultPoolThreads(kServePoolThreads);
        ServeOptions options;
        options.seed = seed;
        options.seconds = seconds;
        options.trace = trace;
        options.rate = kServeRate;
        served = RunServing(train.snapshot, options);
        has_serve = true;
        for (double s : train_setup) {
            setup_s.push_back(s + served.setup_s);
        }
        attempted += served.attempted;
        failed += served.failed;
        gates.emplace_back("serve_probe_set_bitwise",
                           served.probe_set_matches);
        gates.emplace_back("serve_all_ok", served.failed == 0);
    } else {
        TrainOptions options;
        options.seed = seed;
        options.seconds = seconds;
        options.trace = trace;
        train = RunTraining(SparseSpec(), options);
        setup_s = train.setup_s;
        attempted += train.iterations;
        gate("train_losses_agree", train.losses_agree);
        gate("train_restore_predict", train.restore_matches);
    }

    Json j;
    j.BeginObject();
    j.String("workload", workload);
    j.Int("seed", static_cast<int64_t>(seed));
    j.Bool("trace", trace);
    j.BeginObject("meta");
    j.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
    j.String("cpu_model", CpuModel());
    j.String("cpu_features", CpuFeatures::Host().ToString());
    j.String("kernel_tier", kernels::TierName(kernels::ActiveTier()));
    j.Int("intra_op_pool", static_cast<int64_t>(kPoolThreads));
    j.Int("serve_intra_op_pool",
          static_cast<int64_t>(has_serve ? kServePoolThreads : 0));
    j.Int("ranks", kRanks);
    j.String("build_type", PERFBENCH_BUILD_TYPE);
    j.String("compiler", __VERSION__);
    j.Number("serve_rate", has_serve ? kServeRate : 0.0);
    j.EndObject();
    j.Numbers("setup_s", setup_s);
    j.Number("peak_rss_mb", PeakRssMb());
    j.Int("attempted", static_cast<int64_t>(attempted));
    j.Int("failed", static_cast<int64_t>(failed));
    j.BeginObject("gates");
    for (const auto& [name, pass] : gates) {
        j.Bool(name.c_str(), pass);
    }
    j.EndObject();
    WriteTrain(j, train);
    if (has_serve) {
        WriteServe(j, served);
    }
    j.EndObject();

    std::ofstream out(out_path);
    out << j.str() << '\n';
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::Main(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
