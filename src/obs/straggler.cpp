#include "obs/straggler.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace neo::obs {

std::string
StragglerVerdict::Describe() const
{
    if (!flagged) {
        return "";
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "straggler suspect: rank %d (%.3f ms vs median %.3f ms, "
                  "skew %.1fx)",
                  rank, max_seconds * 1e3, median_seconds * 1e3, skew);
    return buf;
}

StragglerDetector&
StragglerDetector::Get()
{
    static StragglerDetector detector;
    return detector;
}

void
StragglerDetector::Configure(const StragglerOptions& options)
{
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    arrival_ewma_.clear();
}

namespace {

/**
 * Envelope follower: instant attack, slow (EWMA) release. A straggler's
 * signature is one large lateness per collective with near-zero samples
 * in between — every collective runs several internal barriers and the
 * delayed rank is only late to the first of them (by the time the others
 * release it is back in lockstep). A symmetric EWMA averages those
 * spikes away against the zero samples; the envelope jumps to each spike
 * and decays by `release_alpha` per on-time arrival, so a rank that is
 * late every collective holds a high envelope while a single scheduling
 * hiccup decays back under the noise floor within ~1/release_alpha
 * barriers.
 */
void
UpdateEnvelope(std::map<int, double>& env, int rank, double value,
               double release_alpha)
{
    auto it = env.find(rank);
    if (it == env.end()) {
        env.emplace(rank, value);
    } else if (value >= it->second) {
        it->second = value;
    } else {
        it->second += release_alpha * (value - it->second);
    }
}

}  // namespace

void
StragglerDetector::RecordArrival(int rank, double lateness_seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    UpdateEnvelope(arrival_ewma_, rank, lateness_seconds,
                   options_.release_alpha);
}

double
StragglerDetector::ArrivalEwma(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = arrival_ewma_.find(rank);
    return it == arrival_ewma_.end() ? 0.0 : it->second;
}

StragglerVerdict
StragglerDetector::Judge(
    const std::vector<std::pair<int, double>>& signal_by_rank,
    const StragglerOptions& options)
{
    StragglerVerdict verdict;
    if (signal_by_rank.empty()) {
        return verdict;
    }
    std::vector<double> values;
    values.reserve(signal_by_rank.size());
    int max_rank = signal_by_rank.front().first;
    double max_value = signal_by_rank.front().second;
    for (const auto& [rank, value] : signal_by_rank) {
        values.push_back(value);
        if (value > max_value) {
            max_value = value;
            max_rank = rank;
        }
    }
    std::sort(values.begin(), values.end());
    const double median = values[values.size() / 2];

    verdict.max_seconds = max_value;
    verdict.median_seconds = median;
    // Compare against the median or the noise floor, whichever is
    // larger: with an idle fleet the median lateness is ~0 and a raw
    // ratio would flag scheduling jitter.
    const double base = std::max(median, options.noise_floor_seconds);
    verdict.skew = base > 0.0 ? max_value / base : 0.0;
    if (max_value > options.noise_floor_seconds &&
        verdict.skew > options.skew_threshold) {
        verdict.flagged = true;
        verdict.rank = max_rank;
    }
    return verdict;
}

void
StragglerDetector::PublishVerdict(const StragglerVerdict& verdict)
{
    auto& registry = MetricsRegistry::Get();
    registry.GetGauge("neo.obs.straggler_rank")
        .Set(verdict.flagged ? verdict.rank : -1);
    registry.GetGauge("neo.obs.straggler_skew").Set(verdict.skew);
}

StragglerVerdict
StragglerDetector::Analyze()
{
    std::vector<std::pair<int, double>> signal;
    StragglerOptions options;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        options = options_;
        signal.assign(arrival_ewma_.begin(), arrival_ewma_.end());
    }
    StragglerVerdict verdict = Judge(signal, options);
    PublishVerdict(verdict);
    return verdict;
}

StragglerVerdict
StragglerDetector::AnalyzeBreakdowns(
    const std::vector<StepBreakdown>& per_rank)
{
    StragglerOptions options;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        options = options_;
    }
    StragglerVerdict verdict = FromBreakdowns(per_rank, options);
    PublishVerdict(verdict);
    return verdict;
}

StragglerVerdict
StragglerDetector::FromBreakdowns(const std::vector<StepBreakdown>& per_rank,
                                  const StragglerOptions& options)
{
    // Under BSP every rank's step wall-clock matches, so skew lives in
    // *where* the time went: the straggler burns it on real (non-comm)
    // work while fast ranks burn it waiting inside comm buckets.
    std::vector<std::pair<int, double>> signal;
    signal.reserve(per_rank.size());
    for (size_t rank = 0; rank < per_rank.size(); rank++) {
        const StepBreakdown& b = per_rank[rank];
        const double non_comm =
            std::max(0.0, b.step_seconds - b.categories.ExposedComm());
        signal.emplace_back(static_cast<int>(rank), non_comm);
    }
    return Judge(signal, options);
}

std::string
StragglerDetector::DescribeStraggler()
{
    return Analyze().Describe();
}

void
StragglerDetector::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    arrival_ewma_.clear();
}

}  // namespace neo::obs
