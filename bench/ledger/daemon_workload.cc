/**
 * @file
 * The daemon_eval workload: an open-loop Poisson request stream
 * against an in-process m3dd (service::Server, --jobs 2, no cache
 * dir) over 4 client connections.
 *
 * 90% of requests ask for keys pre-warmed during set-up - a read:
 * wire, JSON and a cache hit.  10% ask for keys never seen before,
 * with fresh budget seeds - a write: coalescing queue, drain, trace
 * capture, replay and a cache store.  Latency is timed from each
 * request's due time, so a stalled connection charges its wait to
 * every request queued behind it.  Every hit response and every miss
 * response is compared, off the clock, with the in-process
 * service::runResultJson rendering of the same key.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "engine/evaluator.hh"
#include "ledger.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "util/rng.hh"

namespace m3d {
namespace ledger {

namespace {

constexpr int kServerJobs = 2;
constexpr int kConnections = 4;
constexpr double kBaseRps = 250.0;
constexpr double kLadderRps[] = {500.0, 1000.0, 2000.0};
constexpr double kP99LimitMs = 20.0;
constexpr double kHitShare = 0.9;
/** Leading seconds of the untraced window discarded as warmup. */
constexpr double kWarmupS = 1.0;
constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kMeasured = 20000;
/** Domain tag of the fresh miss seeds ("miss"). */
constexpr std::uint64_t kMissDomain = 0x6d697373;

struct Inputs
{
    SimBudget hit_budget;
    std::vector<CoreDesign> designs;
    std::vector<std::string> wire_names;
    std::vector<WorkloadProfile> apps;
    std::string socket;
};

/** The daemon-resolvable name of a design (lowercase, hyphenated). */
std::string
wireName(const std::string &name)
{
    std::string key = name;
    for (char &c : key) {
        c = static_cast<char>(std::tolower(c));
        if (c == ' ')
            c = '-';
    }
    return key;
}

Inputs
prepare(const RunOptions &opts)
{
    Inputs in;
    in.hit_budget.warmup = kWarmup;
    in.hit_budget.measured = kMeasured;
    // Below 2^52: exact on the wire and disjoint from the miss seeds.
    in.hit_budget.seed = opts.seed % (1ull << 52);
    engine::Evaluator ev(engine::EvalOptions{});
    in.designs = engine::designFactory(ev).singleCoreDesigns();
    for (const CoreDesign &d : in.designs)
        in.wire_names.push_back(wireName(d.name));
    in.apps = WorkloadLibrary::spec2006();
    if (opts.quick)
        in.apps.resize(4);
    in.socket = opts.scratch + "/m3dd.sock";
    return in;
}

/** One scheduled request. */
struct Request
{
    double due_s = 0.0;
    bool miss = false;
    std::size_t design = 0;
    std::size_t app = 0;
    std::uint64_t seed = 0;
};

report::Json
evalRequest(const Inputs &in, const std::vector<Request> &reqs)
{
    report::Json runs = report::Json::array();
    for (const Request &r : reqs) {
        report::Json run = report::Json::object();
        run.set("kind", report::Json::string("single"));
        run.set("design", report::Json::string(in.wire_names[r.design]));
        run.set("app", report::Json::string(in.apps[r.app].name));
        run.set("warmup", report::Json::number(
                              static_cast<double>(kWarmup)));
        run.set("measured", report::Json::number(
                                static_cast<double>(kMeasured)));
        run.set("seed",
                report::Json::number(static_cast<double>(r.seed)));
        runs.push(std::move(run));
    }
    report::Json req = report::Json::object();
    req.set("type", report::Json::string("eval"));
    req.set("runs", std::move(runs));
    return req;
}

/** Every pre-warmed key, in (design, app) order. */
std::vector<Request>
hitKeys(const Inputs &in)
{
    std::vector<Request> keys;
    for (std::size_t d = 0; d < in.designs.size(); ++d)
        for (std::size_t a = 0; a < in.apps.size(); ++a)
            keys.push_back({0.0, false, d, a, in.hit_budget.seed});
    return keys;
}

/** In-process renderings of `reqs`, the bytes the daemon must send. */
std::vector<std::string>
inProcess(const Inputs &in, const std::vector<Request> &reqs)
{
    engine::EvalOptions eo;
    eo.threads = kServerJobs;
    engine::Evaluator ev(eo);
    engine::BatchRunRequest batch;
    for (const Request &r : reqs) {
        SimBudget b = in.hit_budget;
        b.seed = r.seed;
        batch.runs.push_back({RunKind::Single, in.designs[r.design],
                              in.apps[r.app], b, TracePath::Replay});
    }
    const engine::BatchRunResult res = ev.submit(batch);
    std::vector<std::string> out;
    for (const RunResult &r : res.runs)
        out.push_back(service::runResultJson(r).dump());
    return out;
}

/** Start an m3dd on the scratch socket and pre-warm every hit key
 * through its own request path (one eval carrying all of them). */
std::unique_ptr<service::Server>
startWarmDaemon(const Inputs &in, std::string *error)
{
    service::ServerOptions so;
    so.socket_path = in.socket;
    so.threads = kServerJobs;
    auto server = std::make_unique<service::Server>(so);
    if (!server->start(error))
        return nullptr;
    service::Client client;
    report::Json resp;
    if (!client.connect(in.socket, error) ||
        !client.callChecked(evalRequest(in, hitKeys(in)), &resp, error)) {
        server->stop();
        return nullptr;
    }
    return server;
}

/**
 * A seeded Poisson schedule of `seconds` at `rps`, conditioned on its
 * expected count: rps x seconds uniform due times, sorted, of which
 * exactly the miss share are misses.  Fixing the counts keeps the
 * work (and the trace memory misses add) equal from seed to seed.
 * Misses draw fresh seeds from `*next_miss`.
 */
std::vector<Request>
schedule(const Inputs &in, Rng &rng, double rps, double seconds,
         std::uint64_t run_seed, std::uint64_t *next_miss)
{
    const auto n =
        static_cast<std::size_t>(std::max(1.0, std::round(rps * seconds)));
    std::vector<double> due(n);
    for (double &d : due)
        d = rng.uniform() * seconds;
    std::sort(due.begin(), due.end());
    std::vector<char> miss(n, 0);
    const auto misses = static_cast<std::size_t>(
        std::round(static_cast<double>(n) * (1.0 - kHitShare)));
    std::fill(miss.begin(), miss.begin() + misses, 1);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(miss[i], miss[rng.below(i + 1)]);

    std::vector<Request> out;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.due_s = due[i];
        r.miss = miss[i] != 0;
        r.design = rng.below(in.designs.size());
        r.app = rng.below(in.apps.size());
        // Miss seeds are 53-bit values with bit 52 set: exact in a
        // JSON number, never a hit seed (the run seed), and a repeat
        // within a run is a 2^-52 event.
        constexpr std::uint64_t kBit52 = 1ull << 52;
        r.seed = r.miss ? (counterHash(run_seed, kMissDomain,
                                       (*next_miss)++) &
                           (kBit52 - 1)) |
                              kBit52
                        : in.hit_budget.seed;
        out.push_back(r);
    }
    return out;
}

/** One request's timeline (ns on the nowNs() clock). */
struct Sample
{
    std::int64_t due = 0;
    std::int64_t send = 0;
    std::int64_t done = 0;
    bool miss = false;
    bool ok = false;
    std::string result; ///< results[0] as sent by the daemon
};

/**
 * Drive `reqs` (due times relative to `t0`) over kConnections
 * connections, request i on connection i mod kConnections.  Each
 * request is a root span from its due time; ladder requests get
 * "ladder.*" roots, which the layer shares leave out (a saturated
 * step is mostly connection queueing).
 */
std::vector<Sample>
drive(const Inputs &in, const std::vector<Request> &reqs,
      std::int64_t t0, Tracer *t, bool ladder)
{
    std::vector<Sample> samples(reqs.size());
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            service::Client client;
            std::string err;
            const bool connected = client.connect(in.socket, &err);
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < reqs.size(); i += kConnections) {
                const Request &r = reqs[i];
                Sample &s = samples[i];
                s.miss = r.miss;
                s.due = t0 + static_cast<std::int64_t>(r.due_s * 1e9);
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(s.due)));
                if (!connected) {
                    s.send = s.done = nowNs();
                    continue;
                }
                report::Json resp;
                {
                    const char *name =
                        ladder ? (r.miss ? "ladder.miss" : "ladder.hit")
                               : (r.miss ? "op.miss" : "op.hit");
                    Scope root = Scope::root(t, name, s.due);
                    s.send = nowNs();
                    const report::Json req = evalRequest(in, {r});
                    {
                        Scope call(t, "service.call", Layer::Service);
                        s.ok = client.callChecked(req, &resp, &err);
                    }
                    s.done = nowNs();
                    if (t != nullptr && s.ok) {
                        // The generator-side encode/decode of the same
                        // request and response bytes the client moved.
                        {
                            Scope e(t, "report.encode", Layer::Report);
                            (void)req.dump();
                        }
                        const std::string text = resp.dump();
                        Scope d(t, "report.decode", Layer::Report);
                        report::Json parsed;
                        report::Json::parse(text, &parsed, &err);
                    }
                }
                const report::Json *results = resp.find("results");
                s.ok = s.ok && results != nullptr &&
                       results->isArray() &&
                       results->elements().size() == 1;
                if (s.ok)
                    s.result = results->elements()[0].dump();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    return samples;
}

double
p99Ms(const std::vector<Sample> &s, std::size_t from)
{
    std::vector<double> ms;
    for (std::size_t i = from; i < s.size(); ++i)
        ms.push_back(msBetween(s[i].due, s[i].done));
    return quantile(ms, 0.99);
}

/** Requests due before (or at/after) `split_s` seconds. */
std::size_t
firstDueAfter(const std::vector<Request> &reqs, double split_s)
{
    return static_cast<std::size_t>(
        std::lower_bound(reqs.begin(), reqs.end(), split_s,
                         [](const Request &r, double v) {
                             return r.due_s < v;
                         }) -
        reqs.begin());
}

/** Most requests due but not yet answered at any instant. */
std::size_t
backlogMax(const std::vector<Sample> &s)
{
    std::vector<std::pair<std::int64_t, int>> ev;
    for (const Sample &x : s) {
        ev.push_back({x.due, 1});
        ev.push_back({x.done, -1});
    }
    std::sort(ev.begin(), ev.end());
    int cur = 0;
    int best = 0;
    for (const auto &[at, d] : ev) {
        cur += d;
        best = std::max(best, cur);
    }
    return static_cast<std::size_t>(best);
}

} // namespace

std::string
daemonConfigString(bool quick)
{
    std::ostringstream os;
    os << "server_jobs=" << kServerJobs
       << " connections=" << kConnections << " base_rps=" << kBaseRps
       << " ladder=500,1000,2000 p99_limit_ms=" << kP99LimitMs
       << " hit_share=" << kHitShare << " warmup=" << kWarmup
       << " measured=" << kMeasured
       << (quick ? " apps=4" : " apps=spec2006");
    return os.str();
}

void
prepareDaemon(const RunOptions &opts)
{
    const Inputs in = prepare(opts);
    std::string err;
    std::unique_ptr<service::Server> server = startWarmDaemon(in, &err);
    if (server == nullptr)
        throw std::runtime_error("m3dd set-up failed: " + err);
    server->stop();
}

RunOutcome
runDaemonWorkload(const RunOptions &opts, Tracer *tracer)
{
    const Inputs in = prepare(opts);
    RunOutcome out;
    out.mode = "open loop, Poisson " + std::to_string(int(kBaseRps)) +
               " rps over " + std::to_string(kConnections) +
               " connections to an in-process m3dd (" +
               daemonConfigString(opts.quick) + ")";

    std::string err;
    std::unique_ptr<service::Server> server = startWarmDaemon(in, &err);
    if (server == nullptr) {
        out.attempted = out.failed = 1;
        out.errors.push_back("m3dd set-up failed: " + err);
        return out;
    }
    const std::vector<Request> hits = hitKeys(in);
    const std::vector<std::string> hit_bytes = inProcess(in, hits);
    auto hitIndex = [&](const Request &r) {
        return r.design * in.apps.size() + r.app;
    };

    Rng rng(counterHash(opts.seed, 0x64616d6f6e)); // "daemon"
    std::uint64_t next_miss = 0;
    const bool traced_run = tracer != nullptr && tracer->enabled();
    const double warmup_s = opts.quick ? 0.25 : kWarmupS;
    const double body_s = std::max(0.5, opts.seconds - warmup_s);

    // Untraced run: the whole window at the base rate.  Traced run:
    // half the body untraced at the base rate (the overhead
    // baseline), a quarter traced at the base rate, and the last
    // quarter split across the rate ladder, traced.
    struct Step
    {
        double rps;
        double seconds;
        bool traced;
        bool ladder;
    };
    std::vector<Step> steps;
    if (!traced_run) {
        steps.push_back({kBaseRps, warmup_s + body_s, false, false});
    } else {
        steps.push_back({kBaseRps, warmup_s + body_s / 2, false, false});
        steps.push_back({kBaseRps, body_s / 4, true, false});
        for (const double rps : kLadderRps)
            steps.push_back({rps, body_s / 12, true, true});
    }

    std::vector<Sample> all_misses;
    std::vector<Request> all_miss_reqs;
    std::vector<std::vector<Sample>> results;
    std::vector<std::vector<Request>> step_reqs;
    service::ServerStats traced_from{};
    double max_rps = 0.0;
    bool ladder_open = true;
    for (std::size_t k = 0; k < steps.size(); ++k) {
        const Step &st = steps[k];
        if (st.ladder && !ladder_open)
            break;
        if (st.traced && k == 1)
            traced_from = server->stats();
        std::vector<Request> reqs = schedule(in, rng, st.rps, st.seconds,
                                             opts.seed, &next_miss);
        std::vector<Sample> s =
            drive(in, reqs, nowNs() + 2000000,
                  st.traced ? tracer : nullptr, st.ladder);
        const std::size_t from =
            k == 0 ? firstDueAfter(reqs, warmup_s) : 0;
        if (st.traced) {
            if (p99Ms(s, from) <= kP99LimitMs)
                max_rps = std::max(max_rps, st.rps);
            else
                ladder_open = false;
        }
        for (std::size_t i = 0; i < s.size(); ++i) {
            ++out.attempted;
            const Request &r = reqs[i];
            if (!s[i].ok) {
                ++out.failed;
                if (out.errors.size() < 8)
                    out.errors.push_back("request failed");
            } else if (r.miss) {
                all_misses.push_back(s[i]);
                all_miss_reqs.push_back(r);
            } else if (s[i].result != hit_bytes[hitIndex(r)]) {
                ++out.failed;
                if (out.errors.size() < 8)
                    out.errors.push_back(
                        "hit response differs from in-process");
            }
        }
        results.push_back(std::move(s));
        step_reqs.push_back(std::move(reqs));
    }
    const service::ServerStats traced_to = server->stats();
    server->stop();

    // Off the clock: every miss response against the in-process
    // rendering of its key.
    const std::vector<std::string> miss_bytes =
        inProcess(in, all_miss_reqs);
    for (std::size_t i = 0; i < all_misses.size(); ++i) {
        if (all_misses[i].result != miss_bytes[i]) {
            ++out.failed;
            if (out.errors.size() < 8)
                out.errors.push_back(
                    "miss response differs from in-process");
        }
    }
    for (const std::string &b : hit_bytes)
        out.canonical += b;

    // End-to-end metrics: the untraced base-rate step after warmup.
    const std::vector<Sample> &base = results[0];
    const std::size_t from = firstDueAfter(step_reqs[0], warmup_s);
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<double> all_ms;
    for (std::size_t i = from; i < base.size(); ++i) {
        const double ms = msBetween(base[i].due, base[i].done);
        (base[i].miss ? miss_ms : hit_ms).push_back(ms);
        all_ms.push_back(ms);
    }
    out.metrics["cold_ms"] = {quantile(miss_ms, 0.5), "ms",
                              miss_ms.size()};
    out.metrics["warm_ms"] = {quantile(hit_ms, 0.5), "ms",
                              hit_ms.size()};
    out.metrics["gen.tail_ms"] = {quantile(all_ms, 0.99), "ms",
                                  all_ms.size()};
    if (!traced_run)
        return out;

    const LayerAccount acc = accountLayers(tracer->spans(), kServerJobs);
    addLayerMetrics(acc, &out);
    auto hitP50 = [](const std::vector<Sample> &s, std::size_t first) {
        std::vector<double> ms;
        for (std::size_t i = first; i < s.size(); ++i)
            if (!s[i].miss)
                ms.push_back(msBetween(s[i].due, s[i].done));
        return quantile(ms, 0.5);
    };

    auto &m = out.metrics;
    const double requested = static_cast<double>(
        traced_to.runs_requested - traced_from.runs_requested);
    m["service.coalesced_ratio"] = {
        ratio(static_cast<double>(traced_to.runs_coalesced -
                                  traced_from.runs_coalesced),
              requested),
        "ratio", static_cast<std::size_t>(requested)};
    m["service.drain_batch_mean"] = {
        ratio(static_cast<double>(traced_to.runs_submitted -
                                  traced_from.runs_submitted),
              static_cast<double>(traced_to.drains - traced_from.drains)),
        "count", traced_to.drains - traced_from.drains};
    std::size_t backlog = 0;
    for (std::size_t k = 1; k < results.size(); ++k)
        backlog = std::max(backlog, backlogMax(results[k]));
    std::vector<double> late_ms;
    for (const Sample &s : results[1])
        late_ms.push_back(msBetween(s.due, s.send));
    m["service.backlog_max"] = {static_cast<double>(backlog), "count",
                                results.size() - 1};
    m["gen.late_p99_ms"] = {quantile(late_ms, 0.99), "ms",
                            late_ms.size()};
    m["gen.max_rps"] = {max_rps, "1/s", results.size() - 1};
    m["trace.overhead_ratio"] = {
        ratio(hitP50(results[1], 0), hitP50(base, from)), "ratio",
        results[1].size()};
    return out;
}

} // namespace ledger
} // namespace m3d
