/**
 * @file
 * Fault-tolerance microbenchmark: an 8-rank hybrid-parallel training run
 * with one injected straggler and one injected (transient) rank kill.
 * Demonstrates the abort-propagation protocol end to end — the straggler
 * is absorbed by the barrier deadline, the kill aborts the collective on
 * every rank, and the per-step retry loop recovers the world — and prints
 * a structured per-rank failure/recovery report; it exits 1 if an armed
 * fault never fired or a rank did not recover. The same degradation is
 * then priced on the modeled cluster via sim::FaultModel so the
 * functional and analytical layers can be compared.
 *
 * It then measures the elastic-recovery cost inputs with the checkpointer
 * training uses: a 1-rank DistributedDlrm trains real Zipf-skewed steps
 * between a DistributedCheckpointer baseline and delta, and RestoreInto
 * loads both into a fresh trainer. It reports write/restore latency vs
 * table size and delta size vs Zipf skew (the Check-N-Run observation),
 * exits 1 unless every restored trainer predicts bitwise what the live
 * one does, calibrates sim::FaultModel's checkpoint bandwidth terms from
 * the measurements, and emits everything as BENCH_fault.json.
 *
 * Usage: micro_fault [--quick] [--out=PATH]
 *   --quick  smaller tables / fewer steps (smoke-test mode)
 *   --out    JSON output path (default BENCH_fault.json in the cwd)
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/fault.h"
#include "comm/threaded_process_group.h"
#include "common/table_printer.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "kernels/kernels.h"
#include "sharding/planner.h"
#include "sim/comm_model.h"
#include "sim/hardware.h"

namespace {

using namespace neo;
using std::chrono::milliseconds;

constexpr int kWorkers = 8;
constexpr size_t kLocalBatch = 16;
constexpr int kSteps = 4;

/** Embedding width and batch size of the checkpoint measurements. */
constexpr size_t kCkptDim = 32;
constexpr size_t kCkptBatch = 128;

sharding::ShardingPlan
PlanFor(const core::DlrmConfig& model, int workers, size_t global_batch)
{
    sharding::PlannerOptions options;
    options.topo.num_workers = workers;
    options.topo.workers_per_node = workers;
    options.global_batch = global_batch;
    options.hbm_bytes_per_worker = 1e9;
    return sharding::ShardingPlanner(options).Plan(model.tables);
}

data::Batch
LocalSlice(const data::Batch& global, int rank)
{
    const size_t begin = rank * kLocalBatch;
    data::Batch local;
    local.dense = Matrix(kLocalBatch, global.dense.cols());
    for (size_t b = 0; b < kLocalBatch; b++) {
        for (size_t c = 0; c < global.dense.cols(); c++) {
            local.dense(b, c) = global.dense(begin + b, c);
        }
    }
    local.sparse = global.sparse.SliceBatch(begin, begin + kLocalBatch);
    local.labels.assign(global.labels.begin() + begin,
                        global.labels.begin() + begin + kLocalBatch);
    return local;
}

/** Everything one rank reports after the run. */
struct RankReport {
    int steps_ok = 0;
    int attempts = 0;
    std::vector<core::StepFailure> failures;
    double final_loss = 0.0;
    double wall_ms = 0.0;
};

/** Wall-clock seconds of fn(). */
template <typename F>
double
TimeOnce(F&& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * One checkpoint measurement: a baseline, `steps` training steps, a
 * delta, and a restore of both into a fresh trainer.
 */
struct CkptMeasure {
    int64_t rows = 0;
    double skew = 0.0;
    /** Embedding lookups the steps trained. */
    size_t lookups = 0;
    size_t baseline_bytes = 0;
    double baseline_write_s = 0.0;
    size_t delta_bytes = 0;
    double delta_write_s = 0.0;
    double restore_s = 0.0;
    uint64_t delta_rows = 0;
    /** The restored trainer's predictions equal the live one's bitwise. */
    bool restored_exact = false;
};

/**
 * Checkpoint a 1-rank trainer of one `rows`-row table: time the
 * baseline, train `steps` steps on Zipf(`skew`) lookups, time the delta
 * and the restore into a fresh trainer, and compare the two trainers'
 * predictions on one more batch.
 */
CkptMeasure
MeasureCheckpoint(int64_t rows, int steps, double skew)
{
    CkptMeasure m;
    m.rows = rows;
    m.skew = skew;
    const core::DlrmConfig model =
        core::MakeSmallDlrmConfig(1, rows, kCkptDim);
    const sharding::ShardingPlan plan = PlanFor(model, 1, kCkptBatch);
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        core::CheckpointStore store;
        core::DistributedCheckpointer checkpointer(trainer, store);
        data::SyntheticCtrDataset dataset(
            core::MakeDatasetConfig(model, 41, skew));

        m.baseline_write_s =
            TimeOnce([&] { checkpointer.WriteBaseline(); });
        m.baseline_bytes = store.TotalBytes();
        for (int s = 0; s < steps; s++) {
            const data::Batch batch = dataset.NextBatch(kCkptBatch);
            m.lookups += batch.sparse.TotalIndices();
            trainer.TrainStep(batch);
        }
        m.delta_write_s = TimeOnce([&] { checkpointer.WriteDelta(); });
        m.delta_bytes = store.TotalBytes() - m.baseline_bytes;
        m.delta_rows = checkpointer.last_delta_rows();

        core::DistributedDlrm restored(model, plan, pg);
        m.restore_s = TimeOnce([&] {
            core::DistributedCheckpointer::RestoreInto(store, restored);
        });
        const data::Batch probe = dataset.NextBatch(kCkptBatch);
        Matrix live;
        Matrix back;
        trainer.Predict(probe, live);
        restored.Predict(probe, back);
        m.restored_exact = Matrix::Identical(live, back);
    });
    return m;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_fault.json";
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
    core::DlrmConfig model = core::MakeSmallDlrmConfig(8, 500, 16);

    const sharding::ShardingPlan plan =
        PlanFor(model, kWorkers, kLocalBatch * kWorkers);

    // ---- probe: count collective calls per training step ---------------
    // Fault specs address (rank, per-rank collective call index), so a
    // one-step fault-free probe tells us where step boundaries land.
    uint64_t calls_per_step = 0;
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(core::MakeDatasetConfig(model, 11));
        trainer.TrainStep(LocalSlice(dataset.NextBatch(
                                         kLocalBatch * kWorkers),
                                     rank));
        if (rank == 0) {
            calls_per_step = pg.Stats().calls;
        }
    });

    // ---- arm one straggler and one transient kill ----------------------
    constexpr int kStragglerRank = 3;
    constexpr int kVictimRank = 5;
    constexpr int kKillStep = 2;
    const milliseconds straggler_delay(25);

    comm::FaultInjector injector;
    {
        // Straggler: rank 3 stalls mid-step-1; the barrier deadline is
        // generous, so every peer just waits the delay out.
        comm::FaultSpec delay;
        delay.rank = kStragglerRank;
        delay.call_index = calls_per_step + 2;
        delay.kind = comm::FaultKind::kDelay;
        delay.delay = straggler_delay;
        injector.Arm(delay);
        // Kill: rank 5 dies on the first collective of step 2 (before the
        // step mutates any state), marked transient so the retry loop
        // recovers it.
        comm::FaultSpec kill;
        kill.rank = kVictimRank;
        kill.call_index = calls_per_step * kKillStep;
        kill.kind = comm::FaultKind::kKill;
        kill.transient = true;
        injector.Arm(kill);
    }

    comm::ThreadedWorld::Options world_options;
    world_options.injector = &injector;
    world_options.barrier_timeout = milliseconds(30000);

    core::DistributedOptions trainer_options;
    trainer_options.max_step_retries = 2;
    trainer_options.retry_backoff = milliseconds(1);
    trainer_options.recover_timeout = milliseconds(10000);

    // ---- the faulted run -----------------------------------------------
    std::vector<RankReport> reports(kWorkers);
    comm::ThreadedWorld::Run(
        kWorkers, world_options, [&](int rank, comm::ProcessGroup& pg) {
            const auto start = std::chrono::steady_clock::now();
            core::DistributedDlrm trainer(model, plan, pg,
                                          trainer_options);
            data::SyntheticCtrDataset dataset(
                core::MakeDatasetConfig(model, 11));
            RankReport& report = reports[rank];
            for (int step = 0; step < kSteps; step++) {
                const data::Batch local = LocalSlice(
                    dataset.NextBatch(kLocalBatch * kWorkers), rank);
                const core::StepResult result =
                    trainer.TrainStepWithRecovery(local);
                report.attempts += result.attempts;
                report.failures.insert(report.failures.end(),
                                       result.failures.begin(),
                                       result.failures.end());
                if (!result.ok) {
                    break;  // permanent failure: stop this rank's loop
                }
                report.steps_ok++;
                report.final_loss = result.loss;
            }
            report.wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        });

    // ---- structured report ---------------------------------------------
    std::printf("== micro_fault: %d ranks, %d steps, %llu collective "
                "calls/step ==\n\n",
                kWorkers, kSteps,
                static_cast<unsigned long long>(calls_per_step));

    const std::vector<comm::FaultEvent> fired = injector.Fired();
    const size_t unfired = injector.NumArmed();
    std::printf("injected faults (fired %zu of %zu armed):\n", fired.size(),
                fired.size() + unfired);
    for (const auto& event : fired) {
        std::printf("  rank %d  call #%llu  %s%s\n", event.spec.rank,
                    static_cast<unsigned long long>(event.spec.call_index),
                    comm::FaultKindName(event.spec.kind),
                    event.spec.kind == comm::FaultKind::kDelay
                        ? (" " +
                           std::to_string(event.spec.delay.count()) + "ms")
                              .c_str()
                        : (event.spec.transient ? " (transient)"
                                                : " (permanent)"));
    }
    std::printf("\nper-rank failure/recovery report:\n");
    TablePrinter table({"rank", "steps ok", "attempts", "failures seen",
                        "blamed rank", "recovered", "wall ms"});
    bool all_recovered = true;
    for (int r = 0; r < kWorkers; r++) {
        const RankReport& report = reports[r];
        std::string blamed = "-";
        if (!report.failures.empty()) {
            blamed = std::to_string(report.failures[0].failed_rank);
            for (size_t f = 1; f < report.failures.size(); f++) {
                blamed += "," +
                          std::to_string(report.failures[f].failed_rank);
            }
        }
        const bool recovered = report.steps_ok == kSteps;
        all_recovered = all_recovered && recovered;
        table.Row()
            .Cell(r)
            .Cell(report.steps_ok)
            .Cell(report.attempts)
            .Cell(report.failures.size())
            .Cell(blamed)
            .Cell(recovered ? "yes" : "NO")
            .CellF(report.wall_ms, "%.1f");
    }
    table.Print();

    if (unfired != 0) {
        std::printf("\nFAIL: %zu armed fault(s) never fired\n", unfired);
        return 1;
    }
    if (!all_recovered) {
        std::printf("\nFAIL: at least one rank did not recover\n");
        return 1;
    }
    std::printf("\nevery rank blamed rank %d, retried once, and finished "
                "all %d steps; the %lldms straggler on rank %d was "
                "absorbed by the barrier deadline\n",
                kVictimRank, kSteps,
                static_cast<long long>(straggler_delay.count()),
                kStragglerRank);

    // ---- the same degradation on the modeled cluster -------------------
    std::printf("\nmodeled cost of the same faults (64 MB AllReduce, "
                "128 GPUs):\n\n");
    TablePrinter model_table({"fault model", "ms", "bus GB/s"});
    const double bytes = 64e6;
    auto row = [&](const char* label, const sim::FaultModel& faults) {
        sim::CommModel comm_model(sim::ClusterSpec::Prototype(16));
        comm_model.SetFaultModel(faults);
        const sim::CommEstimate est = comm_model.AllReduce(bytes, 128);
        model_table.Row()
            .Cell(label)
            .CellF(est.seconds * 1e3, "%.2f")
            .CellF(est.bus_bandwidth / 1e9, "%.1f");
    };
    row("clean", {});
    {
        sim::FaultModel faults;
        faults.straggler_delay_s = straggler_delay.count() * 1e-3;
        row("straggler 25ms/collective", faults);
    }
    {
        sim::FaultModel faults;
        faults.failure_rate_per_collective = 0.01;
        row("1% aborts + recovery", faults);
    }
    model_table.Print();

    // ---- recovery latency vs table size --------------------------------
    // One step trains kCkptBatch bags of about four lookups each.
    const int steps = quick ? 1 : 8;
    const double latency_skew = 1.2;
    const std::vector<int64_t> table_rows =
        quick ? std::vector<int64_t>{1024, 4096}
              : std::vector<int64_t>{2048, 8192, 32768};
    std::printf("\ncheckpoint latency vs table size (1 rank, d%zu, %d "
                "training step(s) of %zu samples on Zipf(%.1f) lookups, "
                "then a delta and a restore into a fresh trainer):\n\n",
                kCkptDim, steps, kCkptBatch, latency_skew);
    TablePrinter ckpt_table({"rows", "baseline KB", "write ms", "delta KB",
                             "delta ms", "restore ms", "delta rows",
                             "restore == live"});
    std::vector<CkptMeasure> measures;
    bool all_exact = true;
    for (const int64_t rows : table_rows) {
        const CkptMeasure m = MeasureCheckpoint(rows, steps, latency_skew);
        measures.push_back(m);
        all_exact = all_exact && m.restored_exact;
        ckpt_table.Row()
            .Cell(static_cast<int64_t>(m.rows))
            .CellF(m.baseline_bytes / 1e3, "%.1f")
            .CellF(m.baseline_write_s * 1e3, "%.3f")
            .CellF(m.delta_bytes / 1e3, "%.1f")
            .CellF(m.delta_write_s * 1e3, "%.3f")
            .CellF(m.restore_s * 1e3, "%.3f")
            .Cell(static_cast<int64_t>(m.delta_rows))
            .Cell(m.restored_exact ? "yes" : "NO");
    }
    ckpt_table.Print();

    // ---- delta size vs Zipf skew ---------------------------------------
    const int64_t skew_rows = quick ? 4096 : 32768;
    const std::vector<double> skews = {1.01, 1.2, 1.5, 2.0};
    std::printf("\ndelta size vs access skew (%lld rows x d%zu, %d "
                "training step(s)): hotter access -> fewer unique rows -> "
                "smaller delta (Check-N-Run):\n\n",
                static_cast<long long>(skew_rows), kCkptDim, steps);
    TablePrinter skew_table({"zipf s", "lookups", "unique rows", "delta KB",
                             "% of baseline", "restore == live"});
    std::vector<CkptMeasure> skew_measures;
    for (const double s : skews) {
        const CkptMeasure m = MeasureCheckpoint(skew_rows, steps, s);
        skew_measures.push_back(m);
        all_exact = all_exact && m.restored_exact;
        skew_table.Row()
            .CellF(m.skew, "%.2f")
            .Cell(static_cast<int64_t>(m.lookups))
            .Cell(static_cast<int64_t>(m.delta_rows))
            .CellF(m.delta_bytes / 1e3, "%.1f")
            .CellF(100.0 * m.delta_bytes / m.baseline_bytes, "%.2f")
            .Cell(m.restored_exact ? "yes" : "NO");
    }
    skew_table.Print();

    if (!all_exact) {
        std::printf("\nFAIL: a restored trainer's predictions differ from "
                    "the live trainer's\n");
        return 1;
    }

    // ---- calibrate the FaultModel cost terms ---------------------------
    // Fit bandwidths on the largest table, then check the model against
    // the smallest — a cross-size sanity check, not a tautology.
    sim::FaultModel calibrated;
    calibrated.straggler_delay_s = 0.0;
    const CkptMeasure& fit = measures.back();
    calibrated.CalibrateCheckpoint(
        static_cast<double>(fit.baseline_bytes), fit.baseline_write_s,
        static_cast<double>(fit.baseline_bytes + fit.delta_bytes),
        fit.restore_s);
    const CkptMeasure& probe = measures.front();
    const double probe_bytes =
        static_cast<double>(probe.baseline_bytes + probe.delta_bytes);
    const double modeled_restore =
        calibrated.CheckpointRestoreSeconds(probe_bytes);
    // One survivor's share of a shrink: restore the full logical state,
    // re-slice a quarter of it onto the new placement.
    const double shrink_s = calibrated.ShrinkRecoverySeconds(
        static_cast<double>(fit.baseline_bytes + fit.delta_bytes),
        static_cast<double>(fit.baseline_bytes) / 4.0);
    std::printf("\ncalibrated fault model: write %.1f MB/s, restore %.1f "
                "MB/s\n  modeled restore of %lld-row table: %.3f ms "
                "(measured %.3f ms)\n  modeled end-to-end shrink recovery "
                "(detect + rendezvous + restore + reshard): %.3f ms\n",
                calibrated.checkpoint_write_Bps / 1e6,
                calibrated.checkpoint_restore_Bps / 1e6,
                static_cast<long long>(probe.rows), modeled_restore * 1e3,
                probe.restore_s * 1e3, shrink_s * 1e3);

    // ---- JSON ----------------------------------------------------------
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_fault\",\n");
    std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
                 neo::kernels::TierName(neo::kernels::ActiveTier()));
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
    std::fprintf(f, "  \"all_ranks_recovered\": true,\n");
    std::fprintf(f, "  \"checkpoint_latency\": [\n");
    for (size_t i = 0; i < measures.size(); i++) {
        const CkptMeasure& m = measures[i];
        std::fprintf(
            f,
            "    {\"rows\": %lld, \"dim\": %zu, \"baseline_bytes\": %zu, "
            "\"baseline_write_s\": %.6f, \"delta_bytes\": %zu, "
            "\"delta_write_s\": %.6f, \"restore_s\": %.6f, "
            "\"delta_rows\": %llu}%s\n",
            static_cast<long long>(m.rows), kCkptDim,
            m.baseline_bytes, m.baseline_write_s, m.delta_bytes,
            m.delta_write_s, m.restore_s,
            static_cast<unsigned long long>(m.delta_rows),
            i + 1 < measures.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"delta_vs_skew\": [\n");
    for (size_t i = 0; i < skew_measures.size(); i++) {
        const CkptMeasure& m = skew_measures[i];
        std::fprintf(f,
                     "    {\"skew\": %.2f, \"lookups\": %zu, "
                     "\"unique_rows\": %llu, \"delta_bytes\": %zu, "
                     "\"baseline_bytes\": %zu}%s\n",
                     m.skew, m.lookups,
                     static_cast<unsigned long long>(m.delta_rows),
                     m.delta_bytes, m.baseline_bytes,
                     i + 1 < skew_measures.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fault_model\": {\n");
    std::fprintf(f, "    \"checkpoint_write_Bps\": %.1f,\n",
                 calibrated.checkpoint_write_Bps);
    std::fprintf(f, "    \"checkpoint_restore_Bps\": %.1f,\n",
                 calibrated.checkpoint_restore_Bps);
    std::fprintf(f, "    \"reshard_Bps\": %.1f,\n", calibrated.reshard_Bps);
    std::fprintf(f, "    \"modeled_probe_restore_s\": %.6f,\n",
                 modeled_restore);
    std::fprintf(f, "    \"measured_probe_restore_s\": %.6f,\n",
                 probe.restore_s);
    std::fprintf(f, "    \"shrink_recovery_s\": %.6f\n  }\n}\n", shrink_s);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
