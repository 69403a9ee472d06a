/**
 * @file
 * Per-rank, per-thread span tracer (the measurement side of the paper's
 * evaluation): RAII `NEO_TRACE_SPAN("name", "cat")` scopes record
 * steady-clock begin/duration pairs into fixed-capacity lock-free
 * thread-local buffers, tagged with the simulated rank of the recording
 * thread. Collected spans export as Chrome trace-event JSON (loadable in
 * Perfetto / chrome://tracing) and feed obs::StepBreakdown, the
 * measured counterpart of sim::IterationModel's Fig.-12 prediction.
 *
 * Cost model: a disabled span site is one relaxed atomic load and a
 * branch; `-DNEO_TRACE_LEVEL=0` compiles every site out entirely. An
 * enabled span is two steady_clock reads plus one slot write — no locks,
 * no allocation. Tracing is for development runs; perfbench's traced
 * runs report what it costs the training loop (`trace_overhead_frac`).
 *
 * Threading contract: appends are wait-free and strictly thread-local
 * (slot write, then a release store of the slot count). Collect() may
 * run concurrently with appends — it sees a consistent prefix via the
 * acquire load of each buffer's count. Clear() must only run at a
 * quiescent point (no span open anywhere), e.g. between training steps
 * with all ranks parked at a barrier, or after worker threads joined.
 *
 * This header is deliberately self-contained (no neo_common includes):
 * neo_common's own hot paths (ParallelFor) trace through it, so it must
 * sit below everything else in the dependency order.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/**
 * Compile-time trace level: 0 removes every span site from the binary,
 * 1 (default) keeps phase/op spans, 2 also keeps verbose spans (per-
 * barrier waits inside collectives, ParallelFor drains).
 */
#ifndef NEO_TRACE_LEVEL
#define NEO_TRACE_LEVEL 1
#endif

namespace neo::obs {

/** One closed trace scope. `name`/`cat` must be string literals (or
 *  otherwise outlive the tracer); spans store the pointers only. */
struct Span {
    const char* name = nullptr;
    /** Category, used by StepBreakdown to bucket time (see step_breakdown.h). */
    const char* cat = nullptr;
    /** Begin time, ns on the process-wide steady clock (see NowNs()). */
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    /** Simulated rank of the recording thread (-1 = untagged, e.g. a
     *  shared-pool worker). */
    int rank = -1;
    /** Tracer-assigned dense thread index. */
    uint32_t tid = 0;
    /** Nesting depth on the recording thread at begin time. */
    uint16_t depth = 0;
};

/** Nanoseconds on the steady clock since the tracer's process epoch. */
int64_t NowNs();

/** Process-wide tracer singleton. */
class Tracer
{
  public:
    static Tracer& Get();

    /**
     * Runtime toggle. Off by default unless the NEO_TRACE environment
     * variable is a positive integer at first use (its value also sets
     * the runtime level: NEO_TRACE=2 enables verbose spans).
     */
    void SetEnabled(bool on);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Runtime span level gate (1 = normal, 2 = verbose). */
    void SetRuntimeLevel(int level);
    int runtime_level() const;

    /**
     * Tag the calling thread with its simulated rank; subsequent spans
     * recorded by this thread carry it. ThreadedWorld::Run tags each
     * worker thread automatically.
     */
    static void SetThreadRank(int rank);
    static int ThreadRank();

    /**
     * Span capacity of buffers created AFTER this call (each thread's
     * buffer is sized on its first span). Overflowing threads drop spans
     * and count them; default 1<<16 spans/thread, or NEO_TRACE_BUFFER.
     */
    void SetThreadBufferCapacity(size_t spans);

    /** Snapshot every thread's spans (safe during concurrent appends). */
    std::vector<Span> Collect() const;

    /** Spans dropped to full buffers since the last Clear(). */
    uint64_t DroppedSpans() const;

    /** Discard all recorded spans. Quiescent points only (see above). */
    void Clear();

    /**
     * Render collected spans as Chrome trace-event JSON ("X" complete
     * events, ts/dur in microseconds, pid = rank + 1 with pid 0 naming
     * the shared pool). Loadable in Perfetto and chrome://tracing.
     */
    std::string ToChromeJson() const;

    /** Write ToChromeJson() to `path`; returns false on I/O failure. */
    bool WriteChromeJson(const std::string& path) const;

    // ---- internal (used by ScopedSpan) ----

    struct ThreadBuffer;

    /** This thread's buffer, created and registered on first use. */
    ThreadBuffer* BufferForThisThread();

    void RecordClosedSpan(const char* name, const char* cat,
                          int64_t start_ns, int64_t dur_ns, uint16_t depth);

  private:
    Tracer();

    std::atomic<bool> enabled_{false};
    std::atomic<int> runtime_level_{1};
    std::atomic<size_t> buffer_capacity_;

    /** Guards buffer registration only; appends never take it. Buffers
     *  are leaked deliberately: exiting threads may still be draining. */
    mutable std::mutex registry_mutex_;
    std::vector<ThreadBuffer*> buffers_;
};

/** True when span recording is on (fast path for macro sites). */
inline bool
TracingEnabled()
{
    return Tracer::Get().enabled();
}

namespace detail {

/** Per-thread open-span nesting depth. */
uint16_t EnterSpan();
void ExitSpan();

}  // namespace detail

/**
 * RAII trace scope. Prefer the NEO_TRACE_SPAN / NEO_TRACE_SPAN_V macros,
 * which compile out at NEO_TRACE_LEVEL 0 / <2 respectively.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char* name, const char* cat, int min_level = 1)
    {
        Tracer& tracer = Tracer::Get();
        if (!tracer.enabled() || tracer.runtime_level() < min_level) {
            return;
        }
        active_ = true;
        // A thread's first span allocates its buffer; do it before the
        // clock starts so no span, this one or an enclosing one, is
        // charged for the allocation.
        tracer.BufferForThisThread();
        name_ = name;
        cat_ = cat;
        depth_ = detail::EnterSpan();
        start_ns_ = NowNs();
    }

    ~ScopedSpan()
    {
        if (!active_) {
            return;
        }
        const int64_t dur = NowNs() - start_ns_;
        detail::ExitSpan();
        Tracer::Get().RecordClosedSpan(name_, cat_, start_ns_, dur, depth_);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    const char* name_ = nullptr;
    const char* cat_ = nullptr;
    int64_t start_ns_ = 0;
    uint16_t depth_ = 0;
    bool active_ = false;
};

#define NEO_OBS_CONCAT_INNER(a, b) a##b
#define NEO_OBS_CONCAT(a, b) NEO_OBS_CONCAT_INNER(a, b)

#if NEO_TRACE_LEVEL >= 1
/** Trace the enclosing scope. `name`/`cat` must outlive the tracer. */
#define NEO_TRACE_SPAN(name, cat)                                             \
    ::neo::obs::ScopedSpan NEO_OBS_CONCAT(neo_obs_span_, __LINE__)(name, cat)
#else
#define NEO_TRACE_SPAN(name, cat) static_cast<void>(0)
#endif

#if NEO_TRACE_LEVEL >= 2
/** Verbose span: compiled at level >= 2, recorded at runtime level >= 2. */
#define NEO_TRACE_SPAN_V(name, cat)                                           \
    ::neo::obs::ScopedSpan NEO_OBS_CONCAT(neo_obs_vspan_, __LINE__)(name,     \
                                                                    cat, 2)
#else
#define NEO_TRACE_SPAN_V(name, cat) static_cast<void>(0)
#endif

}  // namespace neo::obs
