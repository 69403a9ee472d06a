/**
 * @file
 * Straggler / anomaly detection for the BSP world. Two complementary
 * signals:
 *
 *  - **Barrier-arrival lateness** (primary, live): in a lockstep BSP
 *    schedule every rank's step wall-clock is identical by construction
 *    — a delay injected into one rank inflates everyone's step equally,
 *    because the fast ranks spend the difference waiting in the barrier.
 *    Step-time EWMAs therefore cannot *localize* a straggler. What does
 *    localize it is who arrives at each barrier last and by how much:
 *    the comm backend records, for every barrier generation, each rank's
 *    arrival time minus the first arrival's, and the detector keeps a
 *    per-rank envelope of that lateness (instant attack, slow release —
 *    see StragglerOptions::release_alpha). The straggler is the argmax
 *    when it clears a noise floor and a skew ratio over the median.
 *
 *  - **Breakdown skew** (post-hoc, cross-rank): every rank is a thread
 *    of this process, so the one tracer holds every rank's spans, and
 *    StepBreakdown::FromSpans(Tracer::Get().Collect(), r) is rank r's
 *    breakdown. Each rank's non-communication time (step_seconds −
 *    ExposedComm()) measures real work; barrier waits of the fast ranks
 *    land in comm buckets. The rank doing the most non-comm work while
 *    peers wait is the straggler.
 *
 * Verdicts publish `neo.obs.straggler_rank` (−1 = none) and
 * `neo.obs.straggler_skew` gauges, and Describe() feeds the barrier-
 * timeout / recovery error messages so a stuck run names its suspect.
 */
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/step_breakdown.h"

namespace neo::obs {

/** Detection thresholds; Configure() resets accumulated state. */
struct StragglerOptions {
    /**
     * Release rate of the arrival-lateness envelope (instant attack,
     * EWMA release): a late arrival sets the envelope, each on-time
     * arrival decays it by this fraction. Collectives run several
     * internal barriers and a straggler is only late to the first one,
     * so a symmetric EWMA would average the spikes away.
     */
    double release_alpha = 0.05;
    /** Flag when max lateness exceeds this multiple of the median. */
    double skew_threshold = 3.0;
    /** Ignore lateness below this (scheduling jitter), seconds. */
    double noise_floor_seconds = 1e-3;
};

/** Result of one detection pass. */
struct StragglerVerdict {
    /** Suspected rank, −1 when nothing cleared the thresholds. */
    int rank = -1;
    bool flagged = false;
    /** max signal / max(median signal, noise floor). */
    double skew = 0.0;
    /** The flagged rank's signal (lateness or non-comm seconds). */
    double max_seconds = 0.0;
    /** Median signal across ranks. */
    double median_seconds = 0.0;

    /** Human-readable one-liner; "" when not flagged. */
    std::string Describe() const;
};

/**
 * Straggler detector. Get() returns the process-wide singleton that a
 * single training/serving world feeds by default; a fleet of replicas
 * constructs one instance per world (ThreadedWorld::Options::detector)
 * so one replica's slow rank cannot mask another's.
 */
class StragglerDetector
{
  public:
    static StragglerDetector& Get();

    StragglerDetector() = default;

    /** Replace thresholds and clear all accumulated EWMAs. */
    void Configure(const StragglerOptions& options);

    /** One barrier arrival: `lateness_seconds` behind the generation's
     *  first arrival. Called from inside the comm backend's barrier. */
    void RecordArrival(int rank, double lateness_seconds);

    /** Arrival-lateness EWMA for `rank` (0 if never recorded). */
    double ArrivalEwma(int rank) const;

    /**
     * Judge the arrival-lateness EWMAs and publish the
     * neo.obs.straggler_rank / neo.obs.straggler_skew gauges.
     */
    StragglerVerdict Analyze();

    /** Analyze per-rank breakdowns (non-comm-time skew) and publish the
     *  same gauges. Index in `per_rank` is the rank id. */
    StragglerVerdict AnalyzeBreakdowns(
        const std::vector<StepBreakdown>& per_rank);

    /**
     * Pure function behind AnalyzeBreakdowns: no gauges, no state —
     * unit-testable with synthetic breakdowns.
     */
    static StragglerVerdict FromBreakdowns(
        const std::vector<StepBreakdown>& per_rank,
        const StragglerOptions& options = StragglerOptions());

    /** Analyze() and return its Describe() ("" when nothing flagged). */
    std::string DescribeStraggler();

    /** Drop all accumulated EWMAs (thresholds kept). */
    void Clear();

  private:
    static StragglerVerdict Judge(const std::vector<std::pair<int, double>>&
                                      signal_by_rank,
                                  const StragglerOptions& options);
    void PublishVerdict(const StragglerVerdict& verdict);

    mutable std::mutex mutex_;
    StragglerOptions options_;
    std::map<int, double> arrival_ewma_;
};

}  // namespace neo::obs
