#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "arch/replay_mem.hh"
#include "ledger.hh"
#include "workload/trace_buffer.hh"

namespace m3d {
namespace ledger {

namespace {

thread_local SpanContext tls_context;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid = next.fetch_add(1);
    return tid;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const char *
layerName(Layer l)
{
    static const char *const names[kNumLayers] = {
        "ledger", "sram",    "workload", "engine",  "arch",
        "power",  "thermal", "search",   "service", "report"};
    return names[static_cast<int>(l)];
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

std::uint32_t
Tracer::open(const char *name, Layer layer, SpanContext ctx,
             std::int64_t start)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = start;
    s.parent = ctx.parent;
    s.request = ctx.request;
    s.tid = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(s);
    return s.id;
}

void
Tracer::close(std::uint32_t id)
{
    if (id == 0)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
}

std::uint32_t
Tracer::newRequest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ++next_request_;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

report::Json
Tracer::chromeTrace() const
{
    const std::vector<Span> all = spans();
    std::int64_t t0 = all.empty() ? 0 : all.front().start;
    for (const Span &s : all)
        t0 = std::min(t0, s.start);
    report::Json events = report::Json::array();
    for (const Span &s : all) {
        report::Json e = report::Json::object();
        e.set("name", report::Json::string(s.name));
        e.set("cat", report::Json::string(layerName(s.layer)));
        e.set("ph", report::Json::string("X"));
        e.set("ts", report::Json::number(
                        static_cast<double>(s.start - t0) / 1e3));
        e.set("dur", report::Json::number(
                         static_cast<double>(s.end - s.start) / 1e3));
        e.set("pid", report::Json::number(1));
        e.set("tid", report::Json::number(s.tid));
        report::Json args = report::Json::object();
        args.set("id", report::Json::number(s.id));
        args.set("parent", report::Json::number(s.parent));
        args.set("request", report::Json::number(s.request));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    report::Json doc = report::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", report::Json::string("ms"));
    return doc;
}

Scope::Scope(Tracer *t, const char *name, Layer layer)
    : Scope(t, name, layer, tls_context, 0)
{
}

Scope::Scope(Tracer *t, const char *name, Layer layer, SpanContext ctx)
    : Scope(t, name, layer, ctx, 0)
{
}

Scope::Scope(Tracer *t, const char *name, Layer layer, SpanContext ctx,
             std::int64_t start)
{
    if (t == nullptr || !t->enabled())
        return;
    tracer_ = t;
    saved_ = tls_context;
    request_ = ctx.request;
    id_ = t->open(name, layer, ctx, start != 0 ? start : nowNs());
    tls_context = SpanContext{id_, request_};
}

Scope
Scope::root(Tracer *t, const char *name, std::int64_t start)
{
    const std::uint32_t request =
        t != nullptr && t->enabled() ? t->newRequest() : 0;
    return Scope(t, name, Layer::Ledger, SpanContext{0, request},
                 start);
}

Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    tracer_->close(id_);
    tls_context = saved_;
}

SpanContext
Scope::context() const
{
    return SpanContext{id_, request_};
}

// ---------------------------------------------------------------------
// Layer accounting.
// ---------------------------------------------------------------------

LayerAccount
accountLayers(const std::vector<Span> &spans, int jobs)
{
    LayerAccount acc;
    const std::size_t n = spans.size();
    std::vector<std::vector<std::uint32_t>> kids(n + 1);
    for (const Span &s : spans) {
        if (s.parent != 0 && s.parent <= n)
            kids[s.parent].push_back(s.id);
    }

    struct Event
    {
        std::int64_t t;
        int start; ///< 0 = end (sorts first at equal times), 1 = start
        std::uint32_t id;
        bool operator<(const Event &o) const
        {
            return t != o.t ? t < o.t : start < o.start;
        }
    };
    std::vector<int> open_kids(n + 1, 0);
    std::vector<std::uint32_t> active;
    std::vector<std::uint32_t> tree;
    std::vector<Event> events;

    for (const Span &root : spans) {
        if (root.parent != 0 || root.end <= root.start ||
            std::string(root.name).rfind("op.", 0) != 0)
            continue;
        tree.assign(1, root.id);
        for (std::size_t i = 0; i < tree.size(); ++i)
            for (const std::uint32_t k : kids[tree[i]])
                tree.push_back(k);

        events.clear();
        for (const std::uint32_t id : tree) {
            const Span &s = spans[id - 1];
            // Clip to the root so an unclosed or late child can never
            // stretch the root's wall time.
            const std::int64_t b = std::max(s.start, root.start);
            const std::int64_t e =
                s.end > 0 ? std::min(s.end, root.end) : root.end;
            if (e < b)
                continue;
            if (e > b) {
                events.push_back({b, 1, id});
                events.push_back({e, 0, id});
            }
            const double dur_ms = msBetween(b, e);
            acc.busy_ms[s.name] += dur_ms;
            ++acc.count[s.name];
            if (std::string(s.name) == "engine.parallel_for") {
                double kid_ms = 0.0;
                for (const std::uint32_t k : kids[id]) {
                    const Span &c = spans[k - 1];
                    if (c.end > c.start)
                        kid_ms += msBetween(c.start, c.end);
                }
                acc.pool_capacity_ms += jobs * dur_ms;
                acc.pool_idle_ms += std::max(0.0, jobs * dur_ms - kid_ms);
            }
        }
        std::sort(events.begin(), events.end());

        LayerAccount::PerRoot &per = acc.by_root[root.name];
        active.clear();
        std::int64_t prev = root.start;
        for (const Event &ev : events) {
            if (ev.t > prev && !active.empty()) {
                std::size_t leaves = 0;
                for (const std::uint32_t id : active)
                    leaves += open_kids[id] == 0;
                const double share =
                    msBetween(prev, ev.t) / static_cast<double>(leaves);
                for (const std::uint32_t id : active) {
                    if (open_kids[id] != 0)
                        continue;
                    per.wall_ms[static_cast<int>(spans[id - 1].layer)] +=
                        share;
                }
            }
            prev = std::max(prev, ev.t);
            const std::uint32_t parent =
                ev.id == root.id ? 0 : spans[ev.id - 1].parent;
            if (ev.start == 1) {
                active.push_back(ev.id);
                if (parent != 0)
                    ++open_kids[parent];
            } else {
                active.erase(
                    std::find(active.begin(), active.end(), ev.id));
                if (parent != 0)
                    --open_kids[parent];
            }
        }
        per.root_wall_ms += msBetween(root.start, root.end);
        ++per.roots;
    }
    return acc;
}

// ---------------------------------------------------------------------
// Metric helpers.
// ---------------------------------------------------------------------

void
precapture(Tracer *t, const std::vector<WorkloadProfile> &apps,
           const SimBudget &budget)
{
    const std::uint64_t ops = budget.warmup + budget.measured;
    for (const WorkloadProfile &app : apps) {
        std::shared_ptr<const TraceBuffer> buf;
        {
            Scope s(t, "workload.capture", Layer::Workload);
            buf = TraceRegistry::global().acquire(app, budget.seed, 0, ops);
        }
        Scope s(t, "arch.mem_resolve", Layer::Arch);
        MemLevelRegistry::global().acquire(buf, ops);
    }
}

double
LayerAccount::busy(const std::string &name) const
{
    const auto it = busy_ms.find(name);
    return it == busy_ms.end() ? 0.0 : it->second;
}

std::uint64_t
LayerAccount::calls(const std::string &name) const
{
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
}

double
LayerAccount::perCallUs(const std::string &name) const
{
    return ratio(busy(name) * 1e3, static_cast<double>(calls(name)));
}

void
addLayerMetrics(const LayerAccount &acc, RunOutcome *out)
{
    LayerAccount::PerRoot all;
    for (const auto &[name, per] : acc.by_root) {
        for (int l = 0; l < kNumLayers; ++l)
            all.wall_ms[l] += per.wall_ms[l];
        all.root_wall_ms += per.root_wall_ms;
        all.roots += per.roots;
    }
    for (int l = 0; l < kNumLayers; ++l)
        out->metrics[std::string(layerName(static_cast<Layer>(l))) +
                     ".self_pct"] = {
            100.0 * ratio(all.wall_ms[l], all.root_wall_ms), "%",
            all.roots};
    // Where each kind of operation spends its time; the "ledger" share
    // is what no layer span covers.
    for (const auto &[name, per] : acc.by_root) {
        std::ostringstream os;
        os.setf(std::ios::fixed);
        os.precision(1);
        os << name << " x" << per.roots << ", "
           << per.root_wall_ms / static_cast<double>(per.roots)
           << " ms mean:";
        for (int l = 0; l < kNumLayers; ++l)
            os << " " << layerName(static_cast<Layer>(l)) << " "
               << 100.0 * ratio(per.wall_ms[l], per.root_wall_ms) << "%";
        out->notes.push_back(os.str());
    }
    out->metrics["engine.pool_idle_pct"] = {
        100.0 * ratio(acc.pool_idle_ms, acc.pool_capacity_ms), "%",
        acc.calls("engine.parallel_for")};
    out->metrics["report.encode_us"] = {acc.perCallUs("report.encode"),
                                        "us", acc.calls("report.encode")};
    out->metrics["report.decode_us"] = {acc.perCallUs("report.decode"),
                                        "us", acc.calls("report.decode")};
}

ClosedLoopTimes
runClosedLoop(const RunOptions &opts, Tracer *tracer,
              const ClosedLoop &loop, RunOutcome *out)
{
    const bool traced_run = tracer != nullptr && tracer->enabled();
    const double phase_ms =
        (traced_run ? opts.seconds / 2 : opts.seconds) * 1e3;
    ClosedLoopTimes times;

    auto check = [&](const std::string &text, const char *what,
                     Tracer *t) {
        ++out->attempted;
        if (out->canonical.empty())
            out->canonical = text;
        bool ok = text == out->canonical;
        Scope verify = Scope::root(t, "op.verify", nowNs());
        {
            Scope s(t, "report.decode", Layer::Report);
            report::Json parsed;
            std::string err;
            ok = ok && report::Json::parse(text, &parsed, &err) &&
                 parsed.dump() == text;
        }
        if (!ok) {
            ++out->failed;
            out->errors.push_back(std::string(what) +
                                  " output differs from the first cold "
                                  "output or fails its round trip");
        }
    };

    std::int64_t last_end = 0;
    for (int phase = 0; phase < (traced_run ? 2 : 1); ++phase) {
        Tracer *t = phase == 1 ? tracer : nullptr;
        const std::int64_t phase_start = nowNs();
        std::vector<double> iteration_ms;
        for (;;) {
            loop.reset();
            const std::int64_t c0 = nowNs();
            if (last_end != 0)
                times.gaps_ms.push_back(msBetween(last_end, c0));
            std::string text;
            {
                Scope root = Scope::root(t, "op.cold", c0);
                text = loop.cold(t);
            }
            std::int64_t w0 = nowNs();
            times.cold_ms[phase].push_back(msBetween(c0, w0));
            check(text, "cold", t);
            for (int r = 0; r < loop.warm_reps; ++r) {
                w0 = nowNs();
                {
                    Scope root = Scope::root(t, "op.warm", w0);
                    text = loop.warm(t);
                }
                times.warm_ms[phase].push_back(msBetween(w0, nowNs()));
                check(text, "warm", t);
            }
            last_end = nowNs();
            iteration_ms.push_back(msBetween(c0, last_end));
            if (opts.quick || msBetween(phase_start, last_end) +
                                      quantile(iteration_ms, 0.5) >
                                  phase_ms)
                break;
        }
    }

    const std::vector<double> &cold = times.cold_ms[0];
    const std::vector<double> &warm = times.warm_ms[0];
    out->metrics["cold_ms"] = {quantile(cold, 0.5), "ms", cold.size()};
    out->metrics["warm_ms"] = {quantile(warm, 0.5), "ms", warm.size()};
    out->metrics["gen.tail_ms"] = {quantile(cold, 1.0), "ms",
                                   cold.size()};
    out->metrics["gen.late_p99_ms"] = {quantile(times.gaps_ms, 0.99),
                                       "ms", times.gaps_ms.size()};
    if (traced_run)
        out->metrics["trace.overhead_ratio"] = {
            quantile(times.cold_ms[1], 0.5) / quantile(cold, 0.5),
            "ratio", times.cold_ms[1].size()};
    return times;
}

} // namespace ledger
} // namespace m3d
