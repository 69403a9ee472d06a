/**
 * @file
 * Tests for the observability layer: span tracer semantics (enable gate,
 * nesting, buffer overflow, Chrome JSON export of a whole multi-rank
 * world, concurrent collection), the metrics registry, and StepBreakdown
 * attribution — both on synthetic span sets with known answers and on a
 * real 2-rank training step, including the tracing-does-not-change-
 * numerics determinism contract.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "comm/threaded_process_group.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"
#include "sharding/planner.h"
#include "sim/iteration_model.h"

namespace neo::obs {
namespace {

/** Enables tracing for one test and restores a clean tracer after. */
class TraceGuard
{
  public:
    TraceGuard()
    {
        Tracer::Get().Clear();
        Tracer::Get().SetEnabled(true);
    }

    ~TraceGuard()
    {
        Tracer::Get().SetEnabled(false);
        Tracer::Get().SetRuntimeLevel(1);
        Tracer::Get().Clear();
    }
};

TEST(Trace, DisabledRecordsNothing)
{
    Tracer::Get().SetEnabled(false);
    Tracer::Get().Clear();
    {
        NEO_TRACE_SPAN("should_not_appear", "step");
    }
    EXPECT_TRUE(Tracer::Get().Collect().empty());
}

TEST(Trace, RecordsNestedSpansWithDepthAndContainment)
{
    TraceGuard guard;
    {
        NEO_TRACE_SPAN("outer", "step");
        {
            NEO_TRACE_SPAN("inner", "mlp_fwd");
        }
    }
    const std::vector<Span> spans = Tracer::Get().Collect();
    ASSERT_EQ(spans.size(), 2u);
    // Children close before parents, so "inner" is recorded first.
    const Span& inner = spans[0];
    const Span& outer = spans[1];
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.depth, 0);
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(inner.tid, outer.tid);
    // Temporal containment: inner starts no earlier and ends no later.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.dur_ns,
              outer.start_ns + outer.dur_ns);
    // The main thread is untagged (no simulated rank).
    EXPECT_EQ(outer.rank, -1);
}

TEST(Trace, RuntimeLevelGatesVerboseSpans)
{
    TraceGuard guard;
    {
        ScopedSpan verbose("verbose", "barrier", /*min_level=*/2);
    }
    EXPECT_TRUE(Tracer::Get().Collect().empty());

    Tracer::Get().SetRuntimeLevel(2);
    {
        ScopedSpan verbose("verbose", "barrier", /*min_level=*/2);
    }
    EXPECT_EQ(Tracer::Get().Collect().size(), 1u);
}

TEST(Trace, ThreadRankTagsSpans)
{
    TraceGuard guard;
    std::thread worker([] {
        Tracer::SetThreadRank(3);
        NEO_TRACE_SPAN("tagged", "step");
    });
    worker.join();
    const std::vector<Span> spans = Tracer::Get().Collect();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].rank, 3);
}

TEST(Trace, BufferOverflowDropsAndCounts)
{
    TraceGuard guard;
    // Capacity applies to buffers created after the call, so the spans
    // must come from a fresh thread.
    Tracer::Get().SetThreadBufferCapacity(4);
    std::thread worker([] {
        for (int i = 0; i < 10; i++) {
            NEO_TRACE_SPAN("overflow", "step");
        }
    });
    worker.join();
    Tracer::Get().SetThreadBufferCapacity(size_t{1} << 16);
    EXPECT_EQ(Tracer::Get().Collect().size(), 4u);
    EXPECT_EQ(Tracer::Get().DroppedSpans(), 6u);
    Tracer::Get().Clear();
    EXPECT_EQ(Tracer::Get().DroppedSpans(), 0u);
}

TEST(Trace, ChromeJsonIsWellFormed)
{
    TraceGuard guard;
    std::thread worker([] {
        Tracer::SetThreadRank(0);
        NEO_TRACE_SPAN("alpha \"quoted\"", "step");
    });
    worker.join();
    const std::string json = Tracer::Get().ToChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("rank 0"), std::string::npos);
    // Quotes in span names must be escaped, not emitted raw.
    EXPECT_NE(json.find("alpha \\\"quoted\\\""), std::string::npos);
    EXPECT_EQ(json.find("alpha \"quoted\""), std::string::npos);
}

TEST(Trace, ChromeJsonCoversEveryRankOfAWorld)
{
    // Every rank is a thread of this process, so the one tracer holds the
    // whole world's timeline: one process per rank (pid = rank + 1), in
    // the schema trace_to_perfetto.py --check --expect-ranks validates.
    TraceGuard guard;
    constexpr int kWorld = 4;
    constexpr int kSteps = 3;
    comm::ThreadedWorld::Run(kWorld, [](int rank, comm::ProcessGroup& pg) {
        std::vector<float> buf(16, static_cast<float>(rank));
        for (int step = 0; step < kSteps; step++) {
            NEO_TRACE_SPAN("train_step", "step");
            pg.AllReduceSum(buf.data(), buf.size());
        }
    });

    std::vector<int> steps_by_rank(kWorld, 0);
    for (const Span& span : Tracer::Get().Collect()) {
        if (std::string(span.name) == "train_step") {
            ASSERT_GE(span.rank, 0);
            ASSERT_LT(span.rank, kWorld);
            steps_by_rank[static_cast<size_t>(span.rank)]++;
        }
    }
    const std::string json = Tracer::Get().ToChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"train_step\""), std::string::npos);
    for (int r = 0; r < kWorld; r++) {
        EXPECT_EQ(steps_by_rank[static_cast<size_t>(r)], kSteps)
            << "rank " << r;
        EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":" + std::to_string(r + 1) +
                            ",\"tid\":0,\"name\":\"process_name\","
                            "\"args\":{\"name\":\"rank " +
                            std::to_string(r) + "\"}}"),
                  std::string::npos)
            << "rank " << r;
    }
}

TEST(Trace, ConcurrentRecordAndCollect)
{
    TraceGuard guard;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; t++) {
        writers.emplace_back([&stop, t] {
            Tracer::SetThreadRank(t);
            while (!stop.load(std::memory_order_relaxed)) {
                NEO_TRACE_SPAN("work", "step");
            }
        });
    }
    // Collect concurrently with the appends; sizes must be monotone
    // per run and every snapshot internally consistent.
    size_t last = 0;
    for (int i = 0; i < 50; i++) {
        const std::vector<Span> spans = Tracer::Get().Collect();
        EXPECT_GE(spans.size(), last);
        last = spans.size();
        for (const Span& s : spans) {
            EXPECT_STREQ(s.name, "work");
            EXPECT_GE(s.dur_ns, 0);
        }
    }
    stop.store(true);
    for (auto& w : writers) {
        w.join();
    }
}

TEST(Metrics, CounterGaugeHistogramRoundTrip)
{
    MetricsRegistry registry;
    Counter& steps = registry.GetCounter("neo.test.steps");
    steps.Add();
    steps.Add(4);
    EXPECT_EQ(steps.value(), 5u);
    // Same name resolves to the same instrument.
    EXPECT_EQ(&registry.GetCounter("neo.test.steps"), &steps);

    Gauge& qps = registry.GetGauge("neo.test.qps");
    qps.Set(123.5);
    EXPECT_DOUBLE_EQ(qps.value(), 123.5);

    Histogram& lat = registry.GetHistogram("neo.test.latency");
    for (int i = 1; i <= 100; i++) {
        lat.Observe(static_cast<double>(i));
    }
    const Histogram::Snapshot snap = lat.GetSnapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 100.0);
    EXPECT_DOUBLE_EQ(snap.mean, 50.5);
    EXPECT_NEAR(snap.p50, 50.5, 1.0);
    EXPECT_NEAR(snap.p95, 95.0, 1.0);

    const std::string json = registry.ToJson();
    EXPECT_NE(json.find("\"neo.test.steps\""), std::string::npos);
    EXPECT_NE(json.find("\"neo.test.qps\""), std::string::npos);
    EXPECT_NE(json.find("\"neo.test.latency\""), std::string::npos);
    const std::string csv = registry.ToCsv();
    EXPECT_NE(csv.find("neo.test.steps,counter"), std::string::npos);
    EXPECT_NE(csv.find("neo.test.latency,histogram"), std::string::npos);
}

TEST(Metrics, ResetZeroesButKeepsReferences)
{
    MetricsRegistry registry;
    Counter& c = registry.GetCounter("neo.test.reset");
    Histogram& h = registry.GetHistogram("neo.test.reset_hist");
    c.Add(7);
    h.Observe(3.0);
    registry.Reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.GetSnapshot().count, 0u);
    // The old reference and a fresh lookup are still the same object.
    c.Add(2);
    EXPECT_EQ(registry.GetCounter("neo.test.reset").value(), 2u);

    // An empty histogram snapshot must be all-zero, not throw from
    // Percentile on an empty window.
    const Histogram::Snapshot empty = h.GetSnapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

/** Shorthand for hand-built span lists. */
Span
MakeSpan(const char* name, const char* cat, int64_t start, int64_t dur,
         uint16_t depth, int rank = 0, uint32_t tid = 0)
{
    Span s;
    s.name = name;
    s.cat = cat;
    s.start_ns = start;
    s.dur_ns = dur;
    s.depth = depth;
    s.rank = rank;
    s.tid = tid;
    return s;
}

TEST(StepBreakdown, SyntheticAttributionAndTransparentRollup)
{
    std::vector<Span> spans;
    // One 1000 ns step with: a 200 ns mlp_fwd phase containing a 100 ns
    // gemm (transparent: charges its parent), a 300 ns AllToAll, and
    // 500 ns of uninstrumented remainder.
    spans.push_back(MakeSpan("train_step", "step", 0, 1000, 0));
    spans.push_back(MakeSpan("dense_forward", "mlp_fwd", 100, 200, 1));
    spans.push_back(MakeSpan("gemm", "gemm", 120, 100, 2));
    spans.push_back(MakeSpan("alltoall", "a2a", 400, 300, 1));
    // Outside the step: must be ignored.
    spans.push_back(MakeSpan("dense_forward", "mlp_fwd", 2000, 100, 0));
    // Another rank: must be ignored.
    spans.push_back(MakeSpan("train_step", "step", 0, 1000, 0, /*rank=*/1));

    const StepBreakdown b = StepBreakdown::FromSpans(spans, /*rank=*/0);
    EXPECT_EQ(b.steps, 1);
    EXPECT_DOUBLE_EQ(b.step_seconds, 1000e-9);
    // gemm's 100 ns rolls up into mlp_fwd, restoring the full 200 ns.
    EXPECT_DOUBLE_EQ(b.categories.mlp_fwd, 200e-9);
    EXPECT_DOUBLE_EQ(b.categories.alltoall, 300e-9);
    // The step span's own exclusive time lands in `other`.
    EXPECT_DOUBLE_EQ(b.categories.other, 500e-9);
    EXPECT_DOUBLE_EQ(b.categories.Total(), 1000e-9);
    EXPECT_DOUBLE_EQ(b.Coverage(), 1.0);
    EXPECT_DOUBLE_EQ(b.categories.ExposedComm(), 300e-9);
}

TEST(StepBreakdown, AveragesAcrossMultipleSteps)
{
    std::vector<Span> spans;
    spans.push_back(MakeSpan("train_step", "step", 0, 1000, 0));
    spans.push_back(MakeSpan("a", "allreduce", 0, 1000, 1));
    spans.push_back(MakeSpan("train_step", "step", 5000, 3000, 0));
    spans.push_back(MakeSpan("a", "allreduce", 5000, 3000, 1));
    const StepBreakdown b = StepBreakdown::FromSpans(spans, 0);
    EXPECT_EQ(b.steps, 2);
    EXPECT_DOUBLE_EQ(b.step_seconds, 2000e-9);
    EXPECT_DOUBLE_EQ(b.categories.allreduce, 2000e-9);
}

TEST(StepBreakdown, FromModelMapsEveryField)
{
    sim::IterationBreakdown model;
    model.htod = 1;
    model.input_a2a = 2;
    model.bot_mlp_fwd = 3;
    model.emb_lookup = 4;
    model.pooled_a2a_fwd = 5;
    model.interaction_fwd = 6;
    model.top_mlp_fwd = 7;
    model.top_mlp_bwd = 8;
    model.interaction_bwd = 9;
    model.grad_a2a_bwd = 10;
    model.emb_update = 11;
    model.bot_mlp_bwd = 12;
    model.allreduce = 13;
    model.overhead = 14;
    model.total = 99;

    const StepBreakdown b = StepBreakdown::FromModel(model);
    EXPECT_DOUBLE_EQ(b.categories.data, 1);
    EXPECT_DOUBLE_EQ(b.categories.emb_fwd, 4);
    EXPECT_DOUBLE_EQ(b.categories.emb_bwd, 11);
    EXPECT_DOUBLE_EQ(b.categories.mlp_fwd, 3 + 6 + 7);
    EXPECT_DOUBLE_EQ(b.categories.mlp_bwd, 8 + 9 + 12);
    EXPECT_DOUBLE_EQ(b.categories.alltoall, 2 + 5 + 10);
    EXPECT_DOUBLE_EQ(b.categories.allreduce, 13);
    EXPECT_DOUBLE_EQ(b.categories.other, 14);
    EXPECT_DOUBLE_EQ(b.step_seconds, 99);
    EXPECT_EQ(b.steps, 1);
    const std::string diff = StepBreakdown::DiffTable(b, b);
    EXPECT_NE(diff.find("mlp_fwd"), std::string::npos);
    EXPECT_NE(diff.find("alltoall"), std::string::npos);
}

// ------------------------------------------------- end-to-end training

/** Train 2 ranks for `steps` steps; returns each rank's final loss. */
std::vector<double>
RunTwoRankTraining(int steps)
{
    const int workers = 2;
    const size_t local_batch = 16;
    const core::DlrmConfig model = core::MakeSmallDlrmConfig(4, 200, 8);
    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = workers;
    planner_options.topo.workers_per_node = workers;
    planner_options.global_batch = local_batch * workers;
    planner_options.hbm_bytes_per_worker = 1e12;
    sharding::ShardingPlanner planner(planner_options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);

    std::vector<double> losses(workers, 0.0);
    comm::ThreadedWorld::Run(workers, [&](int rank,
                                          comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(core::MakeDatasetConfig(model, 99));
        for (int s = 0; s < steps; s++) {
            data::Batch global = dataset.NextBatch(local_batch * workers);
            data::Batch local;
            const size_t begin = rank * local_batch;
            local.dense = Matrix(local_batch, global.dense.cols());
            for (size_t b = 0; b < local_batch; b++) {
                for (size_t c = 0; c < global.dense.cols(); c++) {
                    local.dense(b, c) = global.dense(begin + b, c);
                }
            }
            local.sparse =
                global.sparse.SliceBatch(begin, begin + local_batch);
            local.labels.assign(global.labels.begin() + begin,
                                global.labels.begin() + begin +
                                    local_batch);
            losses[rank] = trainer.TrainStep(local);
        }
    });
    return losses;
}

TEST(StepBreakdown, TwoRankTrainingStepCoversWallClock)
{
    TraceGuard guard;
    const int steps = 3;
    RunTwoRankTraining(steps);

    const std::vector<Span> spans = Tracer::Get().Collect();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(Tracer::Get().DroppedSpans(), 0u);

    for (int rank = 0; rank < 2; rank++) {
        const StepBreakdown b = StepBreakdown::FromSpans(spans, rank);
        EXPECT_EQ(b.steps, steps) << "rank " << rank;
        EXPECT_GT(b.step_seconds, 0.0);
        // Exclusive-time attribution covers the step by construction.
        EXPECT_NEAR(b.Coverage(), 1.0, 1e-9) << "rank " << rank;
        // Every phase of the hybrid-parallel step must show up.
        EXPECT_GT(b.categories.emb_fwd, 0.0);
        EXPECT_GT(b.categories.emb_bwd, 0.0);
        EXPECT_GT(b.categories.mlp_fwd, 0.0);
        EXPECT_GT(b.categories.mlp_bwd, 0.0);
        EXPECT_GT(b.categories.alltoall, 0.0);
        EXPECT_GT(b.categories.allreduce, 0.0);
        EXPECT_GT(b.categories.optimizer, 0.0);
        const std::string table = b.ToTable();
        EXPECT_NE(table.find("emb_fwd"), std::string::npos);
    }

    // The step counter metric advanced by workers x steps.
    EXPECT_GE(MetricsRegistry::Get()
                  .GetCounter("neo.core.steps")
                  .value(),
              static_cast<uint64_t>(2 * steps));
}

TEST(StepBreakdown, TracingDoesNotChangeNumerics)
{
    // The always-on flight recorder is the third observer: with it off,
    // untraced, the losses must match the default recorder-on runs.
    Tracer::Get().SetEnabled(false);
    Tracer::Get().Clear();
    FlightRecorder& recorder = FlightRecorder::Get();
    const bool recorder_was_on = recorder.enabled();
    recorder.SetEnabled(false);
    const std::vector<double> unobserved = RunTwoRankTraining(2);
    recorder.SetEnabled(true);
    const std::vector<double> untraced = RunTwoRankTraining(2);
    std::vector<double> traced;
    {
        TraceGuard guard;
        traced = RunTwoRankTraining(2);
    }
    recorder.SetEnabled(recorder_was_on);
    ASSERT_EQ(untraced.size(), traced.size());
    ASSERT_EQ(untraced.size(), unobserved.size());
    for (size_t r = 0; r < untraced.size(); r++) {
        // Bit-identical: observation must not perturb training.
        EXPECT_EQ(untraced[r], traced[r]) << "rank " << r;
        EXPECT_EQ(untraced[r], unobserved[r]) << "rank " << r;
    }
}

}  // namespace
}  // namespace neo::obs
