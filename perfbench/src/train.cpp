/**
 * @file
 * Training workloads: a 2-rank hybrid-parallel loop timed on rank 0 from
 * the benchmark's side of the public API (data draw, step call, checkpoint
 * call), with the correctness gates and the traced-run layer timers.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "bench.h"
#include "comm/threaded_process_group.h"
#include "core/async_checkpoint.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "tensor/loss.h"

namespace perfbench {

using namespace neo;

TrainSpec
SparseSpec()
{
    TrainSpec spec;
    core::DlrmConfig& m = spec.model;
    m.num_dense = 16;
    m.bottom_mlp = {64, 32};
    m.top_mlp = {64, 32};
    // One table big enough to go row-wise, hot heavily-pooled tables that
    // stay table-wise, and tiny tables the planner replicates.
    m.tables.push_back({"big", 250000, 32, 4.0});
    for (int t = 0; t < 4; t++) {
        m.tables.push_back({"hot" + std::to_string(t), 10000, 32, 24.0});
    }
    for (int t = 0; t < 3; t++) {
        m.tables.push_back({"tiny" + std::to_string(t), 64, 32, 1.0});
    }
    spec.local_batch = 128;
    spec.ckpt_every = 25;
    spec.deltas_per_baseline = 8;
    spec.planner.hbm_bytes_per_worker = 48e6;
    return spec;
}

data::DatasetConfig
StreamConfig(const core::DlrmConfig& model, uint64_t stream_seed)
{
    data::DatasetConfig config;
    config.num_dense = model.num_dense;
    config.seed = stream_seed;
    config.task_seed = kTaskSeed;
    for (const auto& t : model.tables) {
        config.features.push_back({t.rows, t.pooling, 1.05});
    }
    return config;
}

namespace {

/** Untimed iterations before the loop. */
constexpr int kWarmupIters = 30;
constexpr size_t kNoStop = std::numeric_limits<size_t>::max();
/** The latency p99 needs at least ten samples beyond it. */
constexpr size_t kMinTimedIters = 1100;
/** Traced runs alternate untraced and traced blocks of this length. */
constexpr size_t kTraceBlock = 25;
/** Steps whose routed inputs rank 0 keeps for the layer probes. */
constexpr int kProbeSteps = 6;
/** Steps between the restore gate's baseline and its delta. */
constexpr int kGateSteps = 4;
constexpr int kEvalBatches = 32;
constexpr size_t kEvalBatch = 512;

/** One rank's training objects, constructed in dependency order. */
struct RankState {
    RankState(const TrainSpec& spec, const sharding::ShardingPlan& plan,
              comm::ProcessGroup& pg, comm::ProcessGroup& prepare_pg,
              core::CheckpointStore& store, uint64_t stream_seed)
        : trainer(spec.model, plan, pg),
          dataset(StreamConfig(spec.model, stream_seed)),
          pipeline(trainer, prepare_pg),
          ckpt(trainer, store),
          async(ckpt, pg.Rank())
    {
        async.WriteBaseline();
    }

    core::DistributedDlrm trainer;
    data::SyntheticCtrDataset dataset;
    core::PipelinedTrainer pipeline;
    core::DistributedCheckpointer ckpt;
    core::AsyncCheckpointer async;
};

/** State shared by the rank threads of one training run. */
struct Shared {
    Shared(const TrainSpec& s, const TrainOptions& o,
           const sharding::ShardingPlan& p)
        : spec(s), options(o), plan(p)
    {
    }

    const TrainSpec& spec;
    const TrainOptions& options;
    const sharding::ShardingPlan& plan;
    double plan_s = 0.0;
    comm::ThreadedWorld prepare_world{kRanks};
    core::CheckpointStore store;
    std::vector<std::vector<double>> losses =
        std::vector<std::vector<double>>(kRanks);
    std::vector<uint8_t> restore_ok = std::vector<uint8_t>(kRanks, 1);
    std::vector<NormalizedEntropy> ne = std::vector<NormalizedEntropy>(kRanks);
    /** Per rank: serialized size of each traced delta write, in order. */
    std::vector<std::vector<double>> delta_bytes =
        std::vector<std::vector<double>>(kRanks);
    /** Written by rank 0 only. */
    TrainResult* result = nullptr;
    CapturedShapes captured;
    std::vector<comm::TraceEvent> train_events;
    std::vector<comm::TraceEvent> prepare_events;
    size_t traced_steps = 0;
    /** Timed iterations both ranks run (see RankMain). */
    std::atomic<size_t> stop_at{kNoStop};
};

/** Adds one channel's traced collectives to the per-step comm totals. */
void
FoldEvents(const std::vector<comm::TraceEvent>& events, bool prepare,
           TraceResult& out)
{
    for (const auto& e : events) {
        const double ms = static_cast<double>(e.duration_ns) * 1e-6;
        out.calls += 1.0;
        if (e.op == comm::CollectiveOp::kAllToAll) {
            (prepare ? out.prepare_alltoall_ms : out.alltoall_ms) += ms;
            out.alltoall_bytes += static_cast<double>(e.bytes);
        } else if (prepare) {
            out.prepare_alltoall_ms += ms;
        } else if (e.op == comm::CollectiveOp::kAllReduce) {
            out.allreduce_ms += ms;
            out.allreduce_bytes += static_cast<double>(e.bytes);
        } else if (e.op == comm::CollectiveOp::kReduceScatter) {
            out.reducescatter_ms += ms;
        } else {
            out.other_ms += ms;
        }
    }
}

void
RankMain(int rank, comm::ProcessGroup& pg, Shared& sh)
{
    const TrainSpec& spec = sh.spec;
    const TrainOptions& options = sh.options;
    const bool lead = rank == 0;
    TrainResult* result = lead ? sh.result : nullptr;
    comm::ProcessGroup& prepare_pg = sh.prepare_world.GetGroup(rank);

    // ---- set-up, repeated so the reported set-up time is a median ----
    std::unique_ptr<RankState> st;
    for (int rep = 0; rep < std::max(1, options.setup_reps); rep++) {
        st.reset();
        pg.Barrier();
        const auto t0 = Clock::now();
        st = std::make_unique<RankState>(spec, sh.plan, pg, prepare_pg,
                                         sh.store, options.seed + rank);
        pg.Barrier();
        if (lead) {
            result->setup_s.push_back(sh.plan_s + Seconds(t0, Clock::now()));
        }
    }

    std::vector<double>& losses = sh.losses[rank];
    size_t completed = 0;
    std::optional<Clock::time_point> pending_draw;
    bool wrote_delta = false;
    // This rank's delta chain (deltas since the last baseline) and the
    // positions in it of the traced writes not yet read back.
    size_t chain_len = 0;
    std::vector<size_t> traced_in_chain;
    // Reads the traced writes' serialized sizes back from the store once
    // they have all been flushed. Each rank reads its own chain.
    const auto harvest_delta_bytes = [&] {
        if (traced_in_chain.empty()) {
            return;
        }
        st->async.Flush();
        const auto deltas = sh.store.Deltas(rank);
        for (size_t pos : traced_in_chain) {
            sh.delta_bytes[rank].push_back(
                static_cast<double>(deltas.at(pos).size()));
        }
        traced_in_chain.clear();
    };
    // One loop iteration: draw the local batch, hand it to the trainer,
    // checkpoint every ckpt_every completed steps. Returns its timestamps
    // and the draw time of the batch whose loss it produced, if any.
    struct Stamps {
        Clock::time_point t0, t1, t2, t3;
        std::optional<Clock::time_point> loss_draw;
    };
    const auto iterate = [&]() {
        Stamps s;
        s.t0 = Clock::now();
        const data::Batch batch = st->dataset.NextBatch(spec.local_batch);
        s.t1 = Clock::now();
        const std::optional<double> loss = st->pipeline.Push(batch);
        if (loss) {
            s.loss_draw = pending_draw;
        }
        pending_draw = s.t0;
        s.t2 = Clock::now();
        wrote_delta = false;
        if (loss) {
            losses.push_back(*loss);
            completed++;
            const size_t period = spec.ckpt_every;
            if (completed % period == 0) {
                // A fresh baseline now and then bounds the in-memory
                // delta chain, as periodic full checkpoints do. The
                // baseline drains the lane anyway, so reading the chain
                // back first costs the timed loop nothing.
                if (completed % (period * spec.deltas_per_baseline) == 0) {
                    harvest_delta_bytes();
                    st->async.WriteBaseline();
                    chain_len = 0;
                } else {
                    st->async.WriteDelta();
                    wrote_delta = true;
                    chain_len++;
                }
            }
        }
        s.t3 = Clock::now();
        return s;
    };

    // ---- warm-up ----
    for (int i = 0; i < kWarmupIters; i++) {
        iterate();
    }

    // ---- timed loop ----
    // Rank 0 ends the loop once it has run long enough by publishing
    // stop_at = i + 2 after iteration i. The other rank cannot finish
    // iteration i + 1 without rank 0's collectives in it, which come after
    // the store, so both ranks see the same bound and run the same steps.
    const size_t losses_before = losses.size();
    Clock::time_point loop_start;
    Clock::time_point block_start;
    TraceResult* trace = lead ? &result->trace : nullptr;
    for (size_t i = 0; i < sh.stop_at.load(); i++) {
        const bool block_traced =
            options.trace && (i / kTraceBlock) % 2 == 1;
        if (lead && options.trace && i % kTraceBlock == 0) {
            pg.SetTrace(block_traced ? &sh.train_events : nullptr);
            prepare_pg.SetTrace(block_traced ? &sh.prepare_events : nullptr);
        }
        const Stamps s = iterate();
        if (block_traced && wrote_delta) {
            traced_in_chain.push_back(chain_len - 1);
        }
        if (!lead) {
            continue;
        }
        if (i == 0) {
            loop_start = s.t0;
        }
        if (options.fixed_steps == 0 && i + 1 >= kMinTimedIters &&
            Seconds(loop_start, s.t3) >= options.seconds &&
            sh.stop_at.load() == kNoStop) {
            sh.stop_at.store(i + 2);
        }
        if (i % kTraceBlock == 0) {
            block_start = s.t0;
        }
        result->step_ms.push_back(Ms(s.t0, s.t3));
        if (s.loss_draw) {
            result->sample_latency_ms.push_back(Ms(*s.loss_draw, s.t2));
        }
        if (block_traced) {
            trace->data_ms.push_back(Ms(s.t0, s.t1));
            trace->step_call_ms.push_back(Ms(s.t1, s.t2));
            if (wrote_delta) {
                trace->ckpt_write_ms.push_back(Ms(s.t2, s.t3));
                trace->ckpt_rows.push_back(
                    static_cast<double>(st->ckpt.last_delta_rows()));
            }
            sh.traced_steps++;
        }
        if (options.trace && (i + 1) % kTraceBlock == 0) {
            const double sps = static_cast<double>(kTraceBlock *
                                                   spec.local_batch * kRanks) /
                               Seconds(block_start, s.t3);
            (block_traced ? trace->traced_block_sps
                          : trace->untraced_block_sps)
                .push_back(sps);
        }
    }
    if (auto loss = st->pipeline.Flush()) {
        losses.push_back(*loss);
        if (lead) {
            result->sample_latency_ms.push_back(
                Ms(*pending_draw, Clock::now()));
        }
    }
    if (lead) {
        result->loop_s = Seconds(loop_start, Clock::now());
        result->iterations = losses.size() - losses_before;
        result->global_batch = spec.local_batch * kRanks;
        pg.SetTrace(nullptr);
        prepare_pg.SetTrace(nullptr);
    }

    // ---- restore gate ----
    // A fresh baseline, a few more steps and one delta give the store the
    // same shape however far the loop got through its baseline cycle, so
    // the restore below costs the same time and memory on every run. The
    // gate's delta is not a loop write, so its size is left out.
    harvest_delta_bytes();
    st->async.WriteBaseline();
    for (int i = 0; i < kGateSteps; i++) {
        if (auto loss = st->pipeline.Push(
                st->dataset.NextBatch(spec.local_batch))) {
            losses.push_back(*loss);
        }
    }
    if (auto loss = st->pipeline.Flush()) {
        losses.push_back(*loss);
    }
    st->async.WriteDelta();
    st->async.Flush();

    data::SyntheticCtrDataset heldout(
        StreamConfig(spec.model, kHeldoutSeed + rank));
    std::vector<data::Batch> eval;
    for (int b = 0; b < kEvalBatches; b++) {
        eval.push_back(heldout.NextBatch(kEvalBatch));
    }
    {
        core::DistributedDlrm fresh(spec.model, sh.plan, pg);
        core::DistributedCheckpointer::RestoreInto(sh.store, fresh);
        Matrix live_logits;
        Matrix restored_logits;
        st->trainer.Predict(eval[0], live_logits);
        fresh.Predict(eval[0], restored_logits);
        sh.restore_ok[rank] = Matrix::Identical(live_logits, restored_logits);
    }
    for (const auto& batch : eval) {
        st->trainer.Evaluate(batch, sh.ne[rank]);
    }

    // ---- rank 0's routed inputs for the layer probes ----
    if (options.trace) {
        for (int p = 0; p < kProbeSteps; p++) {
            auto prepared = st->trainer.PrepareInput(
                st->dataset.NextBatch(spec.local_batch));
            if (lead) {
                sh.captured.steps.push_back(std::move(prepared));
            }
        }
        if (lead) {
            for (size_t i = 0; i < st->trainer.NumLocalShards(); i++) {
                sh.captured.shards.push_back(st->trainer.local_shard(i).meta);
            }
            for (size_t i = 0; i < st->trainer.NumDpTables(); i++) {
                sh.captured.dp_tables.push_back(st->trainer.dp_table(i).table);
            }
        }
    }

    if (options.cut_snapshot) {
        auto snapshot = serve::SnapshotFromTrainer(st->trainer, sh.plan, 1);
        if (lead) {
            result->snapshot = std::move(snapshot);
        }
    }
    pg.Barrier();
}

}  // namespace

TrainResult
RunTraining(const TrainSpec& spec, const TrainOptions& options)
{
    TrainResult result;
    sharding::PlannerOptions planner_options = spec.planner;
    planner_options.topo.num_workers = kRanks;
    planner_options.topo.workers_per_node = kRanks;
    planner_options.global_batch =
        static_cast<int64_t>(spec.local_batch * kRanks);
    const auto plan0 = Clock::now();
    const sharding::ShardingPlan plan =
        sharding::ShardingPlanner(planner_options).Plan(spec.model.tables);
    Shared sh{spec, options, plan};
    sh.plan_s = Seconds(plan0, Clock::now());
    sh.result = &result;
    if (options.fixed_steps > 0) {
        sh.stop_at = static_cast<size_t>(options.fixed_steps);
    }

    comm::ThreadedWorld::Run(kRanks, [&](int rank, comm::ProcessGroup& pg) {
        RankMain(rank, pg, sh);
    });

    result.losses_agree = !sh.losses[0].empty() &&
                          sh.losses[0] == sh.losses[1];
    result.restore_matches = sh.restore_ok[0] && sh.restore_ok[1];
    NormalizedEntropy ne = sh.ne[0];
    ne.Merge(sh.ne[1]);
    result.eval_ne = ne.Value();

    if (options.trace) {
        TraceResult& trace = result.trace;
        FoldEvents(sh.train_events, false, trace);
        FoldEvents(sh.prepare_events, true, trace);
        const double steps =
            static_cast<double>(std::max<size_t>(1, sh.traced_steps));
        for (double* v : {&trace.alltoall_ms, &trace.allreduce_ms,
                          &trace.reducescatter_ms, &trace.other_ms,
                          &trace.prepare_alltoall_ms, &trace.alltoall_bytes,
                          &trace.allreduce_bytes, &trace.calls}) {
            *v /= steps;
        }
        // Every write appends one delta per rank; both ranks traced the
        // same writes.
        trace.delta_bytes = sh.delta_bytes[0];
        for (size_t w = 0; w < trace.delta_bytes.size(); w++) {
            trace.delta_bytes[w] += sh.delta_bytes[1].at(w);
        }
        trace.probes = RunProbes(spec.model, sh.captured);
    }
    return result;
}

}  // namespace perfbench
