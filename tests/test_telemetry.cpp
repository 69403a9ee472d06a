/**
 * @file
 * Tests for the fleet telemetry plane: flight-recorder ring semantics,
 * post-mortem bundles (including the FaultInjector-killed-rank contract)
 * and the recorder's modeled <1% share of a training step, straggler
 * detection from both barrier-arrival lateness and the per-rank breakdown
 * skew of a live run's spans, live exposition, and MetricsRegistry
 * export/Reset atomicity under threads.
 *
 * TelemetryArtifacts.MergedTimelineBundleAndStragglerGauge doubles as the
 * CI artifact producer: run under NEO_TELEMETRY_DIR it leaves a merged
 * multi-rank Perfetto trace and a dead rank's flight bundle on disk for
 * scripts/trace_to_perfetto.py to validate (see tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/process_group.h"
#include "comm/threaded_process_group.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/step_breakdown.h"
#include "obs/straggler.h"
#include "obs/trace.h"
#include "scoped_temp_dir.h"
#include "sharding/planner.h"

namespace neo::obs {
namespace {

using std::chrono::milliseconds;

/** Fresh recorder state (default rings, no dump dir) for one test. */
class RecorderGuard
{
  public:
    explicit RecorderGuard(const RecorderOptions& options = RecorderOptions())
    {
        FlightRecorder::Get().Configure(options);
        FlightRecorder::Get().SetDirectory("");
        FlightRecorder::Get().SetEnabled(true);
    }

    ~RecorderGuard()
    {
        FlightRecorder::Get().Configure(RecorderOptions());
        FlightRecorder::Get().SetDirectory("");
    }
};

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
        Tracer::Get().Clear();
    }
};

std::string
ReadFile(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsLastEntriesOldestFirst)
{
    RecorderOptions options;
    options.op_ring = 4;
    RecorderGuard guard(options);
    auto& recorder = FlightRecorder::Get();

    static const char* const kNames[] = {"op0", "op1", "op2",
                                         "op3", "op4", "op5"};
    for (int i = 0; i < 6; i++) {
        recorder.RecordOp(0, kNames[i], i);
    }

    const auto ops = recorder.RecentOps(0);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_STREQ(ops.front().name, "op2");
    EXPECT_STREQ(ops.back().name, "op5");
    for (size_t i = 0; i + 1 < ops.size(); i++) {
        EXPECT_LT(ops[i].t_ns, ops[i + 1].t_ns);
    }
    EXPECT_TRUE(recorder.RecentOps(1).empty());
}

TEST(FlightRecorder, DisabledRecordsNothingAndDumpsNothing)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.SetEnabled(false);
    recorder.RecordOp(0, "allreduce", 1);
    recorder.RecordStep(0, 0, 0.1, 0.5);
    recorder.RecordEvent(0, "abort", "x");
    EXPECT_EQ(recorder.DumpBundle(0, "x"), "");
    recorder.SetEnabled(true);
    EXPECT_TRUE(recorder.RecentOps(0).empty());
    EXPECT_TRUE(recorder.RecentSteps(0).empty());
    EXPECT_TRUE(recorder.RecentEvents(0).empty());
}

TEST(FlightRecorder, BundleJsonCarriesHeaderRingsAndLastOp)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.RecordOp(2, "allreduce", 100);
    recorder.RecordOp(2, "alltoall", 200);
    recorder.RecordStep(2, 7, 0.125, 0.5);
    recorder.RecordEvent(2, "abort", "she said \"stop\"");

    const std::string json = recorder.BundleJson(2, "test cause");
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rank\":2"), std::string::npos);
    EXPECT_NE(json.find("\"cause\":\"test cause\""), std::string::npos);
    EXPECT_NE(json.find("\"last_op\":\"alltoall\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"allreduce\""), std::string::npos);
    EXPECT_NE(json.find("\"step\":7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"abort\""), std::string::npos);
    // Quotes inside event details must be escaped, not truncate the JSON.
    EXPECT_NE(json.find("she said \\\"stop\\\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

TEST(FlightRecorder, DumpBundleNeedsADirectory)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.RecordOp(0, "barrier", 1);

    if (std::getenv("NEO_TELEMETRY_DIR") == nullptr) {
        EXPECT_EQ(recorder.DumpBundle(0, "no dir"), "");
    }

    const neo::testing::ScopedTempDir temp;
    const std::filesystem::path& dir = temp.path();
    recorder.SetDirectory(dir.string());
    const std::string path = recorder.DumpBundle(0, "with dir");
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path, (dir / "flight_rank0.json").string());
    const std::string json = ReadFile(path);
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cause\":\"with dir\""), std::string::npos);
}

TEST(FlightRecorder, MetricsDeltaTracksCounterIncrements)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    auto& counter =
        MetricsRegistry::Get().GetCounter("neo.test.flight_delta");

    counter.Add(5);
    recorder.RecordMetricsDelta(9);  // baseline capture: delta 5 from zero
    counter.Add(3);
    recorder.RecordMetricsDelta(9);  // second capture: delta 3

    const std::string json = recorder.BundleJson(9, "deltas");
    EXPECT_NE(json.find("\"neo.test.flight_delta\":5"), std::string::npos);
    EXPECT_NE(json.find("\"neo.test.flight_delta\":3"), std::string::npos);
}

TEST(FlightRecorder, KilledRankLeavesCompleteBundle)
{
    RecorderGuard guard;
    const neo::testing::ScopedTempDir temp;
    const std::filesystem::path& dir = temp.path();
    auto& recorder = FlightRecorder::Get();
    recorder.SetDirectory(dir.string());

    comm::FaultInjector injector;
    comm::FaultSpec kill;
    kill.rank = 2;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 1;  // rank 2's second AllReduce
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    EXPECT_THROW(
        comm::ThreadedWorld::Run(
            4, options,
            [&](int rank, comm::ProcessGroup& pg) {
                std::vector<float> buf(32, static_cast<float>(rank));
                for (int i = 0; i < 3; i++) {
                    pg.AllReduceSum(buf.data(), buf.size());
                }
            }),
        comm::RankFailure);

    // The dead rank's op ring must end at the kill site: RecordOp runs
    // before fault injection can fire.
    const auto ops = recorder.RecentOps(2);
    ASSERT_FALSE(ops.empty());
    EXPECT_STREQ(ops.back().name, "allreduce");

    // The abort landed in the event ring with the injected cause...
    const auto events = recorder.RecentEvents(2);
    ASSERT_FALSE(events.empty());
    EXPECT_STREQ(events.back().kind, "abort");
    EXPECT_NE(events.back().detail.find("injected kill"), std::string::npos);

    // ...and the failure path dumped a complete bundle for the dead rank.
    const std::string json = ReadFile(dir / "flight_rank2.json");
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rank\":2"), std::string::npos);
    EXPECT_NE(json.find("\"last_op\":\"allreduce\""), std::string::npos);
    EXPECT_NE(json.find("injected kill"), std::string::npos);
}

/**
 * Wall-clock seconds of one 2-rank training run of `steps` steps,
 * world and trainer setup included.
 */
double
TimedTwoRankTraining(int steps)
{
    constexpr int kWorkers = 2;
    constexpr size_t kLocalBatch = 16;
    const core::DlrmConfig model = core::MakeSmallDlrmConfig(4, 200, 8);
    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = kLocalBatch * kWorkers;
    planner_options.hbm_bytes_per_worker = 1e12;
    const sharding::ShardingPlan plan =
        sharding::ShardingPlanner(planner_options).Plan(model.tables);

    const auto start = std::chrono::steady_clock::now();
    comm::ThreadedWorld::Run(kWorkers, [&](int, comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(core::MakeDatasetConfig(model, 99));
        for (int s = 0; s < steps; s++) {
            trainer.TrainStep(dataset.NextBatch(kLocalBatch));
        }
    });
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

TEST(FlightRecorder, ModeledCostUnderOnePercentOfAStep)
{
    // The always-on recorder's budget is <1% of a training step. A wall-
    // clock delta that small drowns in scheduling noise, so the cost is
    // modeled: the record calls one step makes (ops counted from the
    // rings, one RecordStep, one RecordMetricsDelta), each timed in a
    // tight loop, over the measured step time.
    constexpr int kSteps = 4;
    constexpr int kReps = 2;
    RecorderOptions rings;
    rings.op_ring = 1 << 16;  // room for every op of every rep
    RecorderGuard guard(rings);
    FlightRecorder& recorder = FlightRecorder::Get();

    double best_seconds = 1e30;
    for (int r = 0; r < kReps; r++) {
        best_seconds = std::min(best_seconds, TimedTwoRankTraining(kSteps));
    }
    size_t ops_recorded = 0;
    for (int rank = 0; rank < 2; rank++) {
        const size_t ops = recorder.RecentOps(rank).size();
        ASSERT_LT(ops, rings.op_ring) << "rank " << rank << "'s ring filled";
        ops_recorded += ops;
    }
    const double ops_per_step =
        static_cast<double>(ops_recorded) / (2.0 * kSteps * kReps);
    ASSERT_GT(ops_per_step, 0.0);

    const auto cost_of = [](int iters, auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; i++) {
            fn(i);
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count() / iters;
    };
    const double step_seconds = best_seconds / kSteps;
    // A long run fills the step-time histogram's sample window; the
    // delta must cost the same then as on a fresh registry.
    Histogram& step_time =
        MetricsRegistry::Get().GetHistogram("neo.core.step_seconds");
    for (int i = 0; i < (1 << 14); i++) {
        step_time.Observe(step_seconds);
    }

    recorder.Configure(RecorderOptions());
    const double op_cost =
        cost_of(200000, [&](int i) { recorder.RecordOp(0, "test_op", i); });
    const double step_cost = cost_of(20000, [&](int i) {
        recorder.RecordStep(0, static_cast<uint64_t>(i), 0.005, 0.5);
    });
    const double delta_cost =
        cost_of(2000, [&](int) { recorder.RecordMetricsDelta(0); });

    const double modeled = ops_per_step * op_cost + step_cost + delta_cost;
    EXPECT_LT(modeled / step_seconds, 0.01)
        << ops_per_step << " ops/step x " << op_cost * 1e9 << " ns + step "
        << step_cost * 1e9 << " ns + delta " << delta_cost * 1e9
        << " ns vs " << step_seconds * 1e3 << " ms/step";
}

// ---------------------------------------------------------------------------
// StragglerDetector
// ---------------------------------------------------------------------------

StepBreakdown
SyntheticBreakdown(double step_seconds, double comm_seconds)
{
    StepBreakdown b;
    b.step_seconds = step_seconds;
    b.steps = 1;
    b.categories.alltoall = comm_seconds;
    b.categories.mlp_fwd = (step_seconds - comm_seconds) * 0.7;
    b.categories.other = (step_seconds - comm_seconds) * 0.3;
    return b;
}

TEST(Straggler, FromBreakdownsFlagsNonCommOutlier)
{
    // Under BSP the fast ranks park the skew inside their comm buckets,
    // so equal step times with unequal comm time localize the straggler.
    std::vector<StepBreakdown> per_rank;
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));  // 30 ms work
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));
    per_rank.push_back(SyntheticBreakdown(0.100, 0.005));  // 95 ms work
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));

    const StragglerVerdict verdict =
        StragglerDetector::FromBreakdowns(per_rank);
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 2);
    EXPECT_GT(verdict.skew, 3.0);
    EXPECT_NE(verdict.Describe().find("rank 2"), std::string::npos);
}

TEST(Straggler, FromBreakdownsUniformWorldNotFlagged)
{
    std::vector<StepBreakdown> per_rank(
        4, SyntheticBreakdown(0.100, 0.070));
    const StragglerVerdict verdict =
        StragglerDetector::FromBreakdowns(per_rank);
    EXPECT_FALSE(verdict.flagged);
    EXPECT_EQ(verdict.rank, -1);
    EXPECT_EQ(verdict.Describe(), "");
}

TEST(Straggler, ArrivalLatenessAnalyzePublishesGauges)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());
    for (int i = 0; i < 3; i++) {
        detector.RecordArrival(0, 1e-5);
        detector.RecordArrival(1, 2e-5);
        detector.RecordArrival(2, 1e-5);
        detector.RecordArrival(3, 0.05);  // consistently 50 ms late
    }

    const StragglerVerdict verdict = detector.Analyze();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 3);
    EXPECT_NEAR(detector.ArrivalEwma(3), 0.05, 1e-9);

    const RegistrySnapshot snap = MetricsRegistry::Get().Export();
    EXPECT_DOUBLE_EQ(snap.GaugeValue("neo.obs.straggler_rank"), 3.0);
    EXPECT_GT(snap.GaugeValue("neo.obs.straggler_skew"), 3.0);
    EXPECT_NE(detector.DescribeStraggler().find("rank 3"),
              std::string::npos);

    detector.Configure(StragglerOptions());
}

TEST(Straggler, QuietWorldClearsTheGauge)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());
    for (int r = 0; r < 4; r++) {
        detector.RecordArrival(r, 1e-5);
    }
    const StragglerVerdict verdict = detector.Analyze();
    EXPECT_FALSE(verdict.flagged);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        -1.0);
    EXPECT_EQ(detector.DescribeStraggler(), "");
}

TEST(Straggler, DetectorNamesFaultInjectorDelayedRank)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());

    comm::FaultInjector injector;
    comm::FaultSpec delay;
    delay.rank = 2;
    delay.match_op = true;
    delay.op = comm::CollectiveOp::kAllReduce;
    delay.kind = comm::FaultKind::kDelay;
    delay.delay = milliseconds(20);
    for (uint64_t call = 0; call < 4; call++) {
        delay.call_index = call;
        injector.Arm(delay);
    }

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    comm::ThreadedWorld world(4, options);
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; r++) {
        threads.emplace_back([&world, r] {
            auto& pg = world.GetGroup(r);
            std::vector<float> buf(32, 1.0f);
            for (int i = 0; i < 5; i++) {
                pg.AllReduceSum(buf.data(), buf.size());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }

    const StragglerVerdict verdict = world.AnalyzeStragglers();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 2);
    EXPECT_NE(verdict.Describe().find("rank 2"), std::string::npos);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        2.0);

    detector.Configure(StragglerOptions());
}

TEST(Straggler, ThreadStartSkewIsNotStraggling)
{
    // Rank 3's thread starts 30 ms after the others and then keeps pace
    // for five AllReduces. The world's first barrier measures how far
    // apart the threads started, not how slow any rank runs, so it must
    // not leave rank 3 looking like a straggler.
    StragglerDetector detector;
    comm::ThreadedWorld::Options options;
    options.detector = &detector;
    options.barrier_timeout = milliseconds(20000);
    comm::ThreadedWorld world(4, options);
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; r++) {
        threads.emplace_back([&world, r] {
            if (r == 3) {
                std::this_thread::sleep_for(milliseconds(30));
            }
            auto& pg = world.GetGroup(r);
            std::vector<float> buf(32, 1.0f);
            for (int i = 0; i < 5; i++) {
                pg.AllReduceSum(buf.data(), buf.size());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }

    const StragglerVerdict verdict = world.AnalyzeStragglers();
    EXPECT_NE(verdict.rank, 3) << verdict.Describe();
}

// ---------------------------------------------------------------------------
// Breakdown skew from live spans
// ---------------------------------------------------------------------------

/** Spin on the steady clock for `d`: CPU-bound work, unlike a sleep. */
void
BusyWait(milliseconds d)
{
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(Straggler, LiveBreakdownSkewFlagsTheBusyRank)
{
    // Rank 2 computes ~30 ms per step in dense forward while its peers
    // wait for it inside the AllReduce: every rank's step takes the same
    // wall clock, and only where the time went names the slow rank. Each
    // rank's breakdown comes from the one tracer all rank threads share.
    TraceGuard trace;
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());
    constexpr int kWorld = 4;
    constexpr int kHog = 2;
    constexpr int kSteps = 3;
    comm::ThreadedWorld::Run(kWorld, [&](int rank, comm::ProcessGroup& pg) {
        std::vector<float> buf(16, static_cast<float>(rank));
        for (int step = 0; step < kSteps; step++) {
            NEO_TRACE_SPAN("train_step", "step");
            {
                NEO_TRACE_SPAN("dense_fwd", "mlp_fwd");
                if (rank == kHog) {
                    BusyWait(milliseconds(30));
                }
            }
            {
                NEO_TRACE_SPAN("grad_allreduce", "allreduce");
                pg.AllReduceSum(buf.data(), buf.size());
            }
        }
    });

    const std::vector<Span> spans = Tracer::Get().Collect();
    std::vector<StepBreakdown> per_rank;
    for (int r = 0; r < kWorld; r++) {
        per_rank.push_back(StepBreakdown::FromSpans(spans, r));
        ASSERT_EQ(per_rank.back().steps, kSteps) << "rank " << r;
    }
    const StragglerVerdict verdict = detector.AnalyzeBreakdowns(per_rank);
    EXPECT_TRUE(verdict.flagged)
        << "max " << verdict.max_seconds << " s, median "
        << verdict.median_seconds << " s";
    EXPECT_EQ(verdict.rank, kHog);
    EXPECT_GE(verdict.max_seconds, 0.025);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        static_cast<double>(kHog));

    detector.Configure(StragglerOptions());
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

TEST(Exposition, WriteOnceRendersPromAndJsonTwin)
{
    MetricsRegistry::Get().GetCounter("neo.test.expo_counter").Add(3);
    const neo::testing::ScopedTempDir temp;
    const std::filesystem::path& dir = temp.path();

    const std::string path = SnapshotWriter::WriteOnce(dir.string());
    ASSERT_EQ(path, (dir / "metrics.prom").string());
    const std::string prom = ReadFile(path);
    EXPECT_NE(prom.find("# TYPE neo_test_expo_counter counter"),
              std::string::npos);
    EXPECT_NE(prom.find("neo_test_expo_counter"), std::string::npos);
    const std::string json = ReadFile(dir / "metrics.json");
    EXPECT_NE(json.find("\"neo.test.expo_counter\""), std::string::npos);
}

TEST(Exposition, PeriodicWriterStartsAndStops)
{
    const neo::testing::ScopedTempDir temp;
    const std::filesystem::path& dir = temp.path();
    SnapshotWriter writer;
    SnapshotWriter::Options options;
    options.directory = dir.string();
    options.period = milliseconds(5);
    options.basename = "live";
    ASSERT_TRUE(writer.Start(options));
    EXPECT_TRUE(writer.running());
    EXPECT_FALSE(writer.Start(options));  // already running
    std::this_thread::sleep_for(milliseconds(30));
    writer.Stop();
    EXPECT_FALSE(writer.running());
    EXPECT_TRUE(std::filesystem::exists(dir / "live.prom"));
    EXPECT_TRUE(std::filesystem::exists(dir / "live.json"));
}

TEST(Exposition, InertWithoutADirectory)
{
    if (std::getenv("NEO_TELEMETRY_DIR") != nullptr) {
        GTEST_SKIP() << "NEO_TELEMETRY_DIR set; the writer is not inert";
    }
    SnapshotWriter writer;
    SnapshotWriter::Options options;
    EXPECT_FALSE(writer.Start(options));
    EXPECT_FALSE(writer.running());
}

// ---------------------------------------------------------------------------
// MetricsRegistry export/Reset atomicity (TSan coverage via tsan_telemetry)
// ---------------------------------------------------------------------------

TEST(Metrics, ConcurrentExportAndResetAreRaceFree)
{
    auto& registry = MetricsRegistry::Get();
    std::vector<std::thread> threads;
    // Writers hammer one instrument of each kind...
    for (int w = 0; w < 2; w++) {
        threads.emplace_back([&registry, w] {
            for (int i = 0; i < 2000; i++) {
                registry.GetCounter("neo.test.race_counter").Add();
                registry.GetGauge("neo.test.race_gauge")
                    .Set(static_cast<double>(i + w));
                registry.GetHistogram("neo.test.race_hist")
                    .Observe(static_cast<double>(i));
            }
        });
    }
    // ...one thread exports through every renderer...
    threads.emplace_back([&registry] {
        for (int i = 0; i < 50; i++) {
            const RegistrySnapshot snap = registry.Export();
            (void)MetricsRegistry::RenderJson(snap);
            (void)registry.ToPrometheus();
            (void)registry.ToCsv();
        }
    });
    // ...and one thread resets concurrently. The snapshot contract says a
    // Reset lands entirely before or after an export, never interleaved.
    threads.emplace_back([&registry] {
        for (int i = 0; i < 20; i++) {
            registry.Reset();
            std::this_thread::sleep_for(milliseconds(1));
        }
    });
    for (auto& t : threads) {
        t.join();
    }
    SUCCEED();
}

// ---------------------------------------------------------------------------
// End-to-end CI artifact: merged timeline + dead rank bundle + straggler
// ---------------------------------------------------------------------------

TEST(TelemetryArtifacts, MergedTimelineBundleAndStragglerGauge)
{
    namespace fs = std::filesystem;
    // Under NEO_TELEMETRY_DIR the artifacts stay for the checks that read
    // them; otherwise they go to this test's own temp directory.
    const char* env = std::getenv("NEO_TELEMETRY_DIR");
    std::optional<neo::testing::ScopedTempDir> temp;
    if (env == nullptr) {
        temp.emplace();
    }
    const fs::path dir = env != nullptr ? fs::path(env) : temp->path();
    fs::create_directories(dir);

    RecorderGuard recorder_guard;
    TraceGuard trace;
    auto& recorder = FlightRecorder::Get();
    recorder.SetDirectory(dir.string());
    StragglerDetector::Get().Configure(StragglerOptions());

    comm::FaultInjector injector;
    comm::FaultSpec delay;
    delay.rank = 1;
    delay.match_op = true;
    delay.op = comm::CollectiveOp::kAllReduce;
    delay.kind = comm::FaultKind::kDelay;
    delay.delay = milliseconds(25);
    for (uint64_t call = 0; call < 3; call++) {
        delay.call_index = call;
        injector.Arm(delay);
    }
    comm::FaultSpec kill;
    kill.rank = 3;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 3;  // after the timeline: the 4th AllReduce
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    const fs::path merged_path = dir / "merged_trace.json";
    EXPECT_THROW(
        comm::ThreadedWorld::Run(
            4, options,
            [&](int rank, comm::ProcessGroup& pg) {
                std::vector<float> buf(64, static_cast<float>(rank));
                for (int step = 0; step < 3; step++) {
                    NEO_TRACE_SPAN("train_step", "step");
                    {
                        NEO_TRACE_SPAN("dense_fwd", "mlp_fwd");
                        std::this_thread::sleep_for(milliseconds(2));
                    }
                    {
                        NEO_TRACE_SPAN("grad_allreduce", "allreduce");
                        pg.AllReduceSum(buf.data(), buf.size());
                    }
                }
                // Every rank has closed its three steps once the barrier
                // releases; the tracer all rank threads share then holds
                // the whole world's timeline.
                pg.Barrier();
                if (rank == 0) {
                    EXPECT_TRUE(
                        Tracer::Get().WriteChromeJson(merged_path.string()));
                }
                // One more step: rank 3 dies at the kill site.
                pg.AllReduceSum(buf.data(), buf.size());
            }),
        comm::RankFailure);

    // The merged multi-rank timeline was written before the failure, one
    // process per rank.
    ASSERT_TRUE(fs::exists(merged_path));
    const std::string merged = ReadFile(merged_path);
    for (int r = 0; r < 4; r++) {
        ASSERT_NE(merged.find("\"name\":\"rank " + std::to_string(r) + "\""),
                  std::string::npos)
            << "rank " << r;
    }

    // The arrival-lateness detector names the FaultInjector-delayed rank
    // and publishes it as a gauge.
    const StragglerVerdict verdict = StragglerDetector::Get().Analyze();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 1);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        1.0);

    // The dead rank's post-mortem bundle names the kill site.
    const std::string bundle = ReadFile(dir / "flight_rank3.json");
    ASSERT_FALSE(bundle.empty());
    EXPECT_NE(bundle.find("\"rank\":3"), std::string::npos);
    EXPECT_NE(bundle.find("\"last_op\":\"allreduce\""), std::string::npos);
    EXPECT_NE(bundle.find("injected kill"), std::string::npos);

    StragglerDetector::Get().Configure(StragglerOptions());
}

}  // namespace
}  // namespace neo::obs
