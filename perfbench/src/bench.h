/**
 * @file
 * Shared declarations of the repository benchmark binary. The binary runs
 * one workload through the library's public API and writes every raw
 * sample it measured (per-iteration times, per-request timestamps, layer
 * timings) to a JSON file; perfbench/run.py turns those samples into the
 * reported metrics. Nothing here is compiled into the library.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
Seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
Ms(Clock::time_point from, Clock::time_point to)
{
    return Seconds(from, to) * 1e3;
}

/** Ranks of every training and serving world. */
constexpr int kRanks = 2;
/** Intra-op pool size: 2 ranks + 2 pool workers = 4 compute threads. */
constexpr size_t kPoolThreads = 2;
/** Planted ground truth shared by every stream (the learning task). */
constexpr uint64_t kTaskSeed = 20220618;
/** Stream seed base of the held-out evaluation set (fixed). */
constexpr uint64_t kHeldoutSeed = 900000001;

/** Minimal JSON writer for the raw-sample file. */
class Json
{
  public:
    void BeginObject(const char* key = nullptr);
    void EndObject();
    void BeginArray(const char* key);
    void EndArray();
    void Number(const char* key, double value);
    void Int(const char* key, int64_t value);
    void Bool(const char* key, bool value);
    void String(const char* key, const std::string& value);
    void Numbers(const char* key, const std::vector<double>& values);
    const std::string& str() const { return out_; }

  private:
    void Key(const char* key);
    std::string out_;
    bool first_ = true;
};

/** One training configuration (model, batch and loop shape). */
struct TrainSpec {
    neo::core::DlrmConfig model;
    size_t local_batch = 0;
    /** Delta checkpoint every this many completed steps. */
    int ckpt_every = 0;
    /** Write a full baseline instead of every this many-th delta. */
    int deltas_per_baseline = 0;
    neo::sharding::PlannerOptions planner;
};

/** Embedding-dominated spec (train_sparse; also the served model). */
TrainSpec SparseSpec();

/** Sampling-stream config for `model` (shared task, own stream seed). */
neo::data::DatasetConfig StreamConfig(const neo::core::DlrmConfig& model,
                                      uint64_t stream_seed);

struct TrainOptions {
    uint64_t seed = 1;
    /** Timed-loop length; ignored when fixed_steps > 0. */
    double seconds = 10.0;
    /** Run exactly this many timed iterations (serving set-up). */
    int fixed_steps = 0;
    bool trace = false;
    /** Times the per-rank set-up is repeated (median reported). */
    int setup_reps = 21;
    /** Cut a serving snapshot from the trained model (rank 0 keeps it). */
    bool cut_snapshot = false;
};

/** Layer probes re-run outside the timed loop on rank 0's shapes. */
struct ProbeResult {
    double emb_fwd_ms = 0.0;
    double emb_fwd_gbps = 0.0;
    double emb_bwd_ms = 0.0;
    double emb_bwd_unique_frac = 0.0;
    double mlp_fwd_ms = 0.0;
    double mlp_bwd_ms = 0.0;
    double dense_opt_ms = 0.0;
    double gemm_gflops = 0.0;
};

/** Per-step layer timings from the traced blocks (rank 0). */
struct TraceResult {
    std::vector<double> data_ms;
    std::vector<double> step_call_ms;
    std::vector<double> ckpt_write_ms;
    std::vector<double> ckpt_rows;
    /** Serialized bytes of each traced delta write, summed over ranks. */
    std::vector<double> delta_bytes;
    /** Collective time / bytes / calls per traced step. */
    double alltoall_ms = 0.0;
    double allreduce_ms = 0.0;
    double reducescatter_ms = 0.0;
    double other_ms = 0.0;
    double prepare_alltoall_ms = 0.0;
    double alltoall_bytes = 0.0;
    double allreduce_bytes = 0.0;
    double calls = 0.0;
    /** Samples/s of each traced and untraced block. */
    std::vector<double> traced_block_sps;
    std::vector<double> untraced_block_sps;
    ProbeResult probes;
};

struct TrainResult {
    std::vector<double> setup_s;
    size_t global_batch = 0;
    size_t iterations = 0;
    double loop_s = 0.0;
    /** Rank-0 wall time of each timed loop iteration. */
    std::vector<double> step_ms;
    /** Draw-to-loss time of each timed batch. */
    std::vector<double> sample_latency_ms;
    double eval_ne = 0.0;
    bool losses_agree = false;
    /** Restore-then-Predict bitwise gate. */
    bool restore_matches = false;
    TraceResult trace;
    std::shared_ptr<const neo::serve::ModelSnapshot> snapshot;
};

TrainResult RunTraining(const TrainSpec& spec, const TrainOptions& options);

/** Open-loop serving settings. */
struct ServeOptions {
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Offered rate of the fixed-rate phase, requests/s. */
    double rate = 0.0;
};

/** Timestamps of one open-loop phase, seconds from the phase origin. */
struct Phase {
    double rate = 0.0;
    std::vector<double> due_s;
    std::vector<double> sent_s;
    std::vector<double> seen_s;
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    std::vector<float> score;
    std::vector<uint8_t> ok;
    /** Requests the server refused at Submit. */
    uint64_t shed = 0;
};

struct ServeResult {
    double setup_s = 0.0;
    Phase fixed;
    double batch_size_mean = 0.0;
    /** Engine Forward at the mean dispatched batch size. */
    std::vector<double> engine_fwd_ms;
    double cache_hit_rate = 0.0;
    double served_ne = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool probe_set_matches = false;
};

/** Serve `snapshot` open loop at options.rate. */
ServeResult RunServing(
    const std::shared_ptr<const neo::serve::ModelSnapshot>& snapshot,
    const ServeOptions& options);

/** Rank 0's shard layout and routed inputs of a few training steps. */
struct CapturedShapes {
    std::vector<neo::sharding::Shard> shards;
    std::vector<int> dp_tables;
    std::vector<neo::core::DistributedDlrm::PreparedInput> steps;
};

/** Re-run each layer on rank 0's captured shapes, outside the loop. */
ProbeResult RunProbes(const neo::core::DlrmConfig& model,
                      const CapturedShapes& captured);

}  // namespace perfbench
