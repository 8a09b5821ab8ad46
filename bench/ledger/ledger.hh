/**
 * @file
 * The perf ledger: one repeatable end-to-end benchmark of the m3d
 * reproduction, with outside-in layer spans.
 *
 * One process runs one named workload for a fixed number of seconds
 * and prints every end-to-end metric (tracing off) or every per-layer
 * metric (tracing on), then one JSON result line.  Tracing never
 * touches src/: spans are recorded here, around the calls into each
 * layer's public functions, kept in memory, and written at exit as
 * Chrome trace-event JSON through the src/report writer.
 *
 * Layers use the repository's module names.  "ledger" is the
 * benchmark's own glue (generator waits, registry resets, digests):
 * time a root span spends outside every child span.
 */

#ifndef M3D_BENCH_LEDGER_LEDGER_HH_
#define M3D_BENCH_LEDGER_LEDGER_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "power/sim_harness.hh"
#include "report/json.hh"

namespace m3d {
namespace ledger {

// ---------------------------------------------------------------------
// Clock and statistics.
// ---------------------------------------------------------------------

/** Host steady-clock time in nanoseconds. */
std::int64_t nowNs();

/** Milliseconds between two nowNs() readings. */
inline double
msBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) / 1e6;
}

/**
 * Quantile `q` in [0, 1] by linear interpolation between order
 * statistics (0.5 is the median).  0 for an empty sample.
 */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** 64-bit FNV-1a digest of `bytes`, as 16 hex digits. */
std::string digest(const std::string &bytes);

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** Layers, in report order. */
enum class Layer
{
    Ledger,
    Sram,
    Workload,
    Engine,
    Arch,
    Power,
    Thermal,
    Search,
    Service,
    Report,
};
constexpr int kNumLayers = 10;

const char *layerName(Layer l);

/** One recorded span (times in ns on the nowNs() clock). */
struct Span
{
    const char *name = "";
    Layer layer = Layer::Ledger;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t id = 0;      ///< 1-based; 0 is "no span"
    std::uint32_t parent = 0;  ///< causing span, 0 for a root
    std::uint32_t request = 0; ///< shared by every span of one op
    std::uint32_t tid = 0;     ///< small per-thread index
};

/**
 * Where a new span hangs: its parent span and request id.  Scopes
 * opened on the same thread inherit the innermost open scope; work
 * fanned to another thread passes the context explicitly.
 */
struct SpanContext
{
    std::uint32_t parent = 0;
    std::uint32_t request = 0;
};

/**
 * In-memory span store.  A disabled tracer records nothing and its
 * scopes cost one branch.  Spans are written only at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span starting at `start`; returns its id (0 when
     * disabled). */
    std::uint32_t open(const char *name, Layer layer, SpanContext ctx,
                       std::int64_t start);
    /** Close span `id` now. */
    void close(std::uint32_t id);

    /** A fresh request id for a root operation. */
    std::uint32_t newRequest();

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Chrome trace-event document of every span. */
    report::Json chromeTrace() const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint32_t next_request_ = 0;
};

/**
 * RAII span.  The plain form nests under the calling thread's
 * innermost scope; the explicit-context form is for bodies running on
 * pool workers; root() opens a measured operation ("op.*" name) with
 * a fresh request id, back-dated to `start` (the open-loop generator
 * starts a request's span at its due time).  A null or disabled
 * tracer makes every form a no-op.
 */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, Layer layer);
    Scope(Tracer *t, const char *name, Layer layer, SpanContext ctx);
    ~Scope();

    static Scope root(Tracer *t, const char *name, std::int64_t start);

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Context for children of this span on another thread. */
    SpanContext context() const;

  private:
    Scope(Tracer *t, const char *name, Layer layer, SpanContext ctx,
          std::int64_t start);

    Tracer *tracer_ = nullptr;
    std::uint32_t id_ = 0;
    std::uint32_t request_ = 0;
    SpanContext saved_;
};

/**
 * Per-layer accounting of every span tree rooted at a span whose name
 * starts with "op.": the measured operations and the round-trip
 * checks of their outputs (op.verify).  Other roots - the daemon's
 * saturated ladder steps - appear in the trace file only.
 */
struct LayerAccount
{
    /**
     * Wall time per layer, per root span name ("op.cold", ...): at
     * each instant a root's interval is split evenly among its
     * innermost open spans, so the layers sum to the roots' wall time.
     */
    struct PerRoot
    {
        double wall_ms[kNumLayers] = {};
        double root_wall_ms = 0.0;
        std::size_t roots = 0;
    };
    std::map<std::string, PerRoot> by_root;

    /** Summed durations of spans with a given name. */
    std::map<std::string, double> busy_ms;
    std::map<std::string, std::uint64_t> count;

    /** Pool idle: jobs x wall of every engine.parallel_for span minus
     * the summed durations of its children, and that capacity. */
    double pool_idle_ms = 0.0;
    double pool_capacity_ms = 0.0;

    double busy(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;
    /** Mean duration of one `name` span, in microseconds. */
    double perCallUs(const std::string &name) const;
};

/** num / den, or 0 when den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

LayerAccount accountLayers(const std::vector<Span> &spans, int jobs);

// ---------------------------------------------------------------------
// Workload runs.
// ---------------------------------------------------------------------

/** Run-wide options from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 20.0;
    bool trace = false;
    bool quick = false;
    /** Scratch directory inside the checkout (created and removed by
     * the caller). */
    std::string scratch;
};

/** One metric value with its unit and sample count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/** What a workload run reports. */
struct RunOutcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The canonical output whose digest expected.json pins. */
    std::string canonical;
    /** One-line description of the load (mode, sizes, rate). */
    std::string mode;
    std::map<std::string, Metric> metrics;
    /** Human-readable correctness failures. */
    std::vector<std::string> errors;
    /** Human-readable lines printed before the metrics. */
    std::vector<std::string> notes;
};

// Each workload has three entry points: its configuration string
// (part of the ledger config block: a change of sizes makes two
// ledgers incomparable), its set-up alone (what one set-up probe
// process runs), and the measured run.

std::string searchConfigString(const std::string &workload, bool quick);
void prepareSearch(const RunOptions &opts);
RunOutcome runSearchWorkload(const RunOptions &opts, Tracer *tracer);

std::string figuresConfigString(bool quick);
void prepareFigures(const RunOptions &opts);
RunOutcome runFiguresWorkload(const RunOptions &opts, Tracer *tracer);

std::string daemonConfigString(bool quick);
void prepareDaemon(const RunOptions &opts);
RunOutcome runDaemonWorkload(const RunOptions &opts, Tracer *tracer);

/**
 * Capture the traces of `apps` and resolve their memory levels out to
 * the budget's warmup + measured ops, each call under its own span
 * (workload.capture, arch.mem_resolve).  Done just before a submit
 * that would otherwise capture them inside engine.submit.
 */
void precapture(Tracer *t, const std::vector<WorkloadProfile> &apps,
                const SimBudget &budget);

/**
 * The per-layer metrics the span account gives every workload: each
 * layer's share of the measured wall time, pool idleness, and the
 * mean report encode/decode span.  Workload-specific counters are
 * added by the workload.
 */
void addLayerMetrics(const LayerAccount &acc, RunOutcome *out);

/**
 * A closed-loop workload: iterations of one cold operation followed
 * by `warm_reps` warm ones, each returning its canonical output.  The
 * operation gets the tracer to use (null when untraced) and runs
 * inside an "op.cold"/"op.warm" root span.
 */
struct ClosedLoop
{
    int warm_reps = 1;
    /** Untimed, before every cold operation (registry resets). */
    std::function<void()> reset;
    std::function<std::string(Tracer *)> cold;
    std::function<std::string(Tracer *)> warm;
};

/** Operation times of a closed loop; [0] untraced, [1] traced. */
struct ClosedLoopTimes
{
    std::vector<double> cold_ms[2];
    std::vector<double> warm_ms[2];
    /** Idle time between one iteration's end and the next start. */
    std::vector<double> gaps_ms;
};

/**
 * Run `loop` for opts.seconds (one iteration with --quick), starting
 * no iteration that would overrun the window.  With tracing on, the
 * first half of the window runs untraced - the overhead baseline -
 * and the second half traced.  Every output must equal the first
 * cold output and survive a report::Json parse/dump round trip; the
 * first cold output becomes out->canonical.  Sets cold_ms, warm_ms
 * and gen.tail_ms (the slowest untraced cold operation: a closed
 * loop never has the ten samples beyond a percentile that an open
 * loop's p99 has), gen.late_p99_ms and trace.overhead_ratio.
 */
ClosedLoopTimes runClosedLoop(const RunOptions &opts, Tracer *tracer,
                              const ClosedLoop &loop, RunOutcome *out);

} // namespace ledger
} // namespace m3d

#endif // M3D_BENCH_LEDGER_LEDGER_HH_
