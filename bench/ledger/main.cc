/**
 * @file
 * m3d_ledger: the perf ledger's command line.
 *
 *   m3d_ledger --workload W --seed N --seconds S --trace 0|1
 *              [--trace-out F] [--quick] [--bless]
 *              [--require-metrics BENCHMARK.json]
 *       Run one workload in this process and print its metrics as
 *       `name value unit (n=samples)` lines, then one JSON result
 *       line.  --trace 0 prints the end-to-end metrics, --trace 1 the
 *       per-layer ones.  Exits 1 on any correctness failure.
 *
 *   m3d_ledger record --out F [--sets K] [--runs N] [--seconds S] ...
 *       Run every workload N times per set, each in a fresh process
 *       with its own seed, and write the values with their medians
 *       and quartiles.
 *
 *   m3d_ledger compare A.json B.json
 *       Compare two recorded ledgers workload by workload; exits 4
 *       when their config blocks differ.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>

#include "ledger.hh"
#include "util/cli.hh"

extern char **environ;

namespace m3d {
namespace ledger {

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run prints. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cold_ms", "ms"},
    {"warm_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics every traced run prints; a layer a
 * workload leaves idle reports 0. */
const MetricDef kPerLayer[] = {
    {"ledger.self_pct", "%"},
    {"sram.self_pct", "%"},
    {"workload.self_pct", "%"},
    {"engine.self_pct", "%"},
    {"arch.self_pct", "%"},
    {"power.self_pct", "%"},
    {"thermal.self_pct", "%"},
    {"search.self_pct", "%"},
    {"service.self_pct", "%"},
    {"report.self_pct", "%"},
    {"sram.decodes", "count"},
    {"workload.capture_mops", "Mops"},
    {"workload.trace_mb", "MB"},
    {"engine.sim_mops_per_s", "Mops/s"},
    {"engine.run_hit_ratio", "ratio"},
    {"engine.cache_entries", "count"},
    {"engine.pool_idle_pct", "%"},
    {"arch.multicore_mops_per_s", "Mops/s"},
    {"thermal.solves", "count"},
    {"thermal.sweeps_per_solve", "count"},
    {"search.eval_fraction", "ratio"},
    {"search.memo_hit_ratio", "ratio"},
    {"service.coalesced_ratio", "ratio"},
    {"service.drain_batch_mean", "count"},
    {"service.backlog_max", "count"},
    {"report.encode_us", "us"},
    {"report.decode_us", "us"},
    {"gen.tail_ms", "ms"},
    {"gen.late_p99_ms", "ms"},
    {"gen.max_rps", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

/** One workload: its config string, its set-up alone (what a probe
 * process runs), and its measured run. */
struct WorkloadDef
{
    const char *name;
    std::string (*config)(bool quick);
    void (*prepare)(const RunOptions &opts);
    RunOutcome (*run)(const RunOptions &opts, Tracer *tracer);
};

const WorkloadDef kWorkloads[] = {
    {"search_grid_cold",
     [](bool quick) { return searchConfigString("search_grid_cold", quick); },
     prepareSearch, runSearchWorkload},
    {"search_dse",
     [](bool quick) { return searchConfigString("search_dse", quick); },
     prepareSearch, runSearchWorkload},
    {"daemon_eval", daemonConfigString, prepareDaemon, runDaemonWorkload},
    {"paper_figures", figuresConfigString, prepareFigures,
     runFiguresWorkload},
};

/**
 * Set-up probes per run (each a fresh process); setup_s is their
 * median.  A closed-loop probe is little more than a process start,
 * whose wall time jitters by ~20% on a shared host, so it gets many;
 * a daemon probe starts and pre-warms an m3dd (~0.15 s).
 */
constexpr int kSetupProbes = 31;
constexpr int kDaemonSetupProbes = 9;

/** Exit code of `compare` on mismatched config blocks. */
constexpr int kExitConfigMismatch = 4;

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
selfExe()
{
    return std::filesystem::read_symlink("/proc/self/exe").string();
}

/**
 * Run `args` (argv[0] included) as a child process and wait for it.
 * With `out` non-null the child's stdout is captured there.  Returns
 * the exit status (-1 if it could not be started or did not exit).
 */
int
spawnWait(const std::vector<std::string> &args, std::string *out)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    int fds[2] = {-1, -1};
    if (out != nullptr && ::pipe(fds) != 0)
        return -1;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (out != nullptr) {
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
    }
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (out != nullptr) {
        ::close(fds[1]);
        if (rc == 0) {
            char buf[4096];
            ssize_t n = 0;
            while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
                out->append(buf, static_cast<std::size_t>(n));
        }
        ::close(fds[0]);
    }
    if (rc != 0)
        return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---------------------------------------------------------------------
// Running one workload.
// ---------------------------------------------------------------------

bool
loadJson(const std::string &path, report::Json *out)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        std::cerr << "m3d_ledger: cannot open " << path << "\n";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!report::Json::parse(ss.str(), out, &err)) {
        std::cerr << "m3d_ledger: " << path << ": " << err << "\n";
        return false;
    }
    return true;
}

std::string
expectedPath()
{
    return std::string(M3D_LEDGER_DIR) + "/expected.json";
}

std::string
digestKey(const RunOptions &opts)
{
    return opts.workload + (opts.quick ? "/quick" : "");
}

/** Check (or with `bless`, rewrite) the pinned output digest. */
void
checkDigest(const RunOptions &opts, bool bless, RunOutcome *out)
{
    report::Json doc;
    if (!loadJson(expectedPath(), &doc)) {
        out->errors.push_back("cannot read " + expectedPath());
        ++out->failed;
        return;
    }
    const report::Json *seed = doc.find("seed");
    const report::Json *digests = doc.find("digests");
    if (seed == nullptr || !seed->isNumber() || digests == nullptr ||
        !digests->isObject()) {
        out->errors.push_back(expectedPath() + " is malformed");
        ++out->failed;
        return;
    }
    if (static_cast<std::uint64_t>(seed->asNumber()) != opts.seed)
        return; // digests are pinned for one seed only
    const std::string want = digest(out->canonical);
    if (bless) {
        report::Json next = report::Json::object();
        bool replaced = false;
        for (const auto &[k, v] : digests->members()) {
            const bool mine = k == digestKey(opts);
            next.set(k, mine ? report::Json::string(want) : v);
            replaced = replaced || mine;
        }
        if (!replaced)
            next.set(digestKey(opts), report::Json::string(want));
        report::Json fresh = report::Json::object();
        fresh.set("seed", *seed);
        fresh.set("digests", std::move(next));
        std::ofstream os(expectedPath());
        fresh.write(os);
        std::cout << "blessed " << digestKey(opts) << " = " << want
                  << "\n";
        return;
    }
    const report::Json *have = digests->find(digestKey(opts));
    ++out->attempted;
    if (have == nullptr || !have->isString() ||
        have->asString() != want) {
        ++out->failed;
        out->errors.push_back(
            "canonical output digest " + want + " differs from " +
            expectedPath() + " entry " + digestKey(opts) +
            " (rerun with --bless only if the change is intended)");
    }
}

/** Median wall time of kSetupProbes set-up-only child processes. */
Metric
measureSetup(const RunOptions &opts, RunOutcome *out)
{
    std::vector<double> secs;
    const int probes = opts.quick                         ? 1
                       : opts.workload == "daemon_eval" ? kDaemonSetupProbes
                                                        : kSetupProbes;
    for (int i = 0; i < probes; ++i) {
        std::vector<std::string> args = {
            selfExe(), "--setup-probe", "--workload", opts.workload,
            "--seed", std::to_string(opts.seed), "--scratch",
            opts.scratch + "/probe"};
        if (opts.quick)
            args.push_back("--quick");
        const std::int64_t t0 = nowNs();
        const int rc = spawnWait(args, nullptr);
        secs.push_back(msBetween(t0, nowNs()) / 1e3);
        ++out->attempted;
        if (rc != 0) {
            ++out->failed;
            out->errors.push_back("set-up probe exited with " +
                                  std::to_string(rc));
        }
    }
    return {quantile(secs, 0.5), "s", secs.size()};
}

/** Verify `metrics` names every metric BENCHMARK.json lists for this
 * mode, with its unit. */
bool
requireMetrics(const std::string &path, bool trace,
               const std::map<std::string, Metric> &metrics)
{
    report::Json doc;
    if (!loadJson(path, &doc))
        return false;
    const report::Json *list =
        doc.find(trace ? "per_layer" : "end_to_end");
    if (list == nullptr || !list->isArray() || list->elements().empty()) {
        std::cerr << "m3d_ledger: " << path << " lists no "
                  << (trace ? "per_layer" : "end_to_end")
                  << " metrics\n";
        return false;
    }
    bool ok = true;
    for (const report::Json &e : list->elements()) {
        const report::Json *name = e.find("name");
        const report::Json *unit = e.find("unit");
        if (name == nullptr || !name->isString() || unit == nullptr ||
            !unit->isString())
            continue;
        const auto it = metrics.find(name->asString());
        if (it == metrics.end() || it->second.unit.empty() ||
            it->second.unit != unit->asString()) {
            std::cerr << "m3d_ledger: metric " << name->asString()
                      << " is missing or has no unit "
                      << unit->asString() << "\n";
            ok = false;
        }
    }
    return ok;
}

int
runMain(int argc, char **argv)
{
    RunOptions opts;
    int trace = 0;
    std::string trace_out;
    bool bless = false;
    bool setup_probe = false;
    std::string require;
    std::string scratch;
    cli::Parser parser(
        "m3d_ledger",
        "Perf ledger: run one workload and print its end-to-end "
        "(--trace 0) or per-layer (--trace 1) metrics.");
    parser
        .flag("workload", &opts.workload,
              "search_grid_cold, search_dse, daemon_eval, or "
              "paper_figures")
        .flag("seed", &opts.seed, "input seed (same seed, same inputs)")
        .flag("seconds", &opts.seconds, "measured window in seconds")
        .flag("trace", &trace,
              "1 records spans and prints the per-layer metrics")
        .flag("trace-out", &trace_out,
              "also write the spans as Chrome trace-event JSON here "
              "(implies --trace 1)")
        .flag("quick", &opts.quick,
              "reduced sizes and a ~1 s window (smoke tests)")
        .flag("bless", &bless,
              "rewrite this workload's digest in expected.json")
        .flag("require-metrics", &require,
              "fail unless every metric this BENCHMARK.json lists for "
              "the mode is printed with its unit")
        .flag("setup-probe", &setup_probe,
              "internal: run the workload's set-up alone and exit")
        .flag("scratch", &scratch, "internal: scratch directory");
    const cli::ParseStatus status = parser.parse(argc, argv);
    if (status != cli::ParseStatus::Ok)
        return status == cli::ParseStatus::Help ? 0 : 2;
    const WorkloadDef *workload = findWorkload(opts.workload);
    if (workload == nullptr) {
        std::cerr << "m3d_ledger: unknown --workload '" << opts.workload
                  << "'\n";
        return 2;
    }
    if (!(opts.seconds > 0.0 && opts.seconds <= 3600.0) ||
        (trace != 0 && trace != 1)) {
        std::cerr << "m3d_ledger: --seconds must be in (0, 3600] and "
                     "--trace 0 or 1\n";
        return 2;
    }
    opts.trace = trace == 1 || !trace_out.empty();
    if (opts.quick)
        opts.seconds = std::min(opts.seconds, 1.5);

    // Scratch files (cache files, the daemon socket) live under the
    // working directory; the socket path must stay short.
    const bool own_scratch = scratch.empty();
    opts.scratch = own_scratch ? ".bench_run/" + std::to_string(::getpid())
                               : scratch;
    std::filesystem::create_directories(opts.scratch);

    if (setup_probe) {
        workload->prepare(opts);
        return 0;
    }

    RunOutcome out;
    Metric setup;
    if (!opts.trace)
        setup = measureSetup(opts, &out);

    Tracer tracer(opts.trace);
    RunOutcome run = workload->run(opts, &tracer);
    run.attempted += out.attempted;
    run.failed += out.failed;
    run.errors.insert(run.errors.end(), out.errors.begin(),
                      out.errors.end());
    out = std::move(run);
    if (!opts.trace) {
        out.metrics["setup_s"] = setup;
        out.metrics["peak_rss_mb"] = {peakRssMb(), "MB", 1};
        checkDigest(opts, bless, &out);
    }
    if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        tracer.chromeTrace().write(os);
        if (!os) {
            ++out.failed;
            out.errors.push_back("cannot write " + trace_out);
        }
    }
    if (own_scratch) {
        std::error_code ec;
        std::filesystem::remove_all(opts.scratch, ec);
        std::filesystem::remove(".bench_run", ec); // only when empty
    }

    std::cout << "workload " << opts.workload << " seed " << opts.seed
              << (opts.trace ? " (traced)" : "") << "\n"
              << "mode: " << out.mode << "\n";
    for (const std::string &n : out.notes)
        std::cout << n << "\n";
    const std::span<const MetricDef> defs =
        opts.trace ? std::span<const MetricDef>(kPerLayer)
                   : std::span<const MetricDef>(kEndToEnd);
    report::Json metrics = report::Json::object();
    std::map<std::string, Metric> printed;
    for (const MetricDef &def : defs) {
        Metric m;
        m.unit = def.unit;
        const auto it = out.metrics.find(def.name);
        if (it != out.metrics.end())
            m = it->second;
        std::cout << def.name << " "
                  << report::Json::formatNumber(m.value) << " " << m.unit
                  << " (n=" << m.samples << ")\n";
        report::Json v = report::Json::object();
        v.set("value", report::Json::number(m.value));
        v.set("unit", report::Json::string(m.unit));
        metrics.set(def.name, std::move(v));
        printed[def.name] = m;
    }
    for (const std::string &e : out.errors)
        std::cout << "error: " << e << "\n";
    const bool metrics_ok =
        require.empty() || requireMetrics(require, opts.trace, printed);

    report::Json result = report::Json::object();
    result.set("correct", report::Json::boolean(out.failed == 0));
    result.set("attempted", report::Json::number(
                                static_cast<double>(out.attempted)));
    result.set("failed",
               report::Json::number(static_cast<double>(out.failed)));
    result.set("metrics", std::move(metrics));
    // One line: drop the writer's newlines and indentation (no string
    // in the result contains a newline).
    std::string line;
    bool indent = false;
    for (const char c : result.dump()) {
        if (c == '\n')
            indent = true;
        else if (!(indent && c == ' ')) {
            indent = false;
            line += c;
        }
    }
    std::cout << line << std::endl;
    if (out.failed != 0)
        return 1;
    return metrics_ok ? 0 : 3;
}

// ---------------------------------------------------------------------
// record / compare.
// ---------------------------------------------------------------------

/** statistics.quantiles(values, n=4) ("exclusive" method). */
std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 0)
        return {0.0, 0.0, 0.0};
    if (ld == 1)
        return {v[0], v[0], v[0]};
    std::vector<double> out;
    const long m = ld + 1;
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out.push_back((v[static_cast<std::size_t>(j - 1)] *
                           static_cast<double>(4 - delta) +
                       v[static_cast<std::size_t>(j)] *
                           static_cast<double>(delta)) /
                      4.0);
    }
    return out;
}

report::Json
summary(const std::vector<double> &values, const std::string &unit)
{
    const std::vector<double> q = quartiles(values);
    report::Json s = report::Json::object();
    s.set("unit", report::Json::string(unit));
    report::Json vals = report::Json::array();
    for (const double v : values)
        vals.push(report::Json::number(v));
    s.set("values", std::move(vals));
    s.set("q1", report::Json::number(q[0]));
    s.set("median", report::Json::number(q[1]));
    s.set("q3", report::Json::number(q[2]));
    return s;
}

std::string
compilerString()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
recordMain(int argc, char **argv)
{
    int sets = 1;
    int runs = 5;
    double seconds = 20.0;
    std::uint64_t seed_base = 1;
    bool quick = false;
    std::string out_path;
    std::string workloads_arg;
    std::string benchmark = "BENCHMARK.json";
    cli::Parser parser("m3d_ledger record",
                       "Run every workload N times per set, each in a "
                       "fresh process with its own seed, and write the "
                       "per-metric values, medians and quartiles.");
    parser.flag("out", &out_path, "ledger file to write")
        .flag("sets", &sets, "independent sets of runs")
        .flag("runs", &runs, "runs per workload per set")
        .flag("seconds", &seconds, "measured window per run")
        .flag("seed-base", &seed_base,
              "seed of the first run; each run uses the next seed")
        .flag("quick", &quick, "reduced sizes (smoke tests)")
        .flag("workloads", &workloads_arg,
              "comma-separated subset (default: all)")
        .flag("benchmark", &benchmark,
              "BENCHMARK.json whose end_to_end metrics (units, "
              "direction, bounds) the ledger records");
    const cli::ParseStatus status = parser.parse(argc - 1, argv + 1);
    if (status != cli::ParseStatus::Ok)
        return status == cli::ParseStatus::Help ? 0 : 2;
    if (out_path.empty() || sets < 1 || runs < 1) {
        std::cerr << "m3d_ledger record: --out, --sets >= 1 and "
                     "--runs >= 1 are required\n";
        return 2;
    }
    std::vector<std::string> workloads;
    {
        std::stringstream ss(workloads_arg);
        std::string w;
        while (std::getline(ss, w, ','))
            if (!w.empty())
                workloads.push_back(w);
        if (workloads.empty())
            for (const WorkloadDef &def : kWorkloads)
                workloads.push_back(def.name);
        for (const std::string &w : workloads)
            if (findWorkload(w) == nullptr) {
                std::cerr << "m3d_ledger record: unknown workload '" << w
                          << "'\n";
                return 2;
            }
    }
    report::Json bench;
    if (!loadJson(benchmark, &bench) || bench.find("end_to_end") == nullptr)
        return 2;

    report::Json config = report::Json::object();
    config.set("kind", report::Json::string("m3d-ledger"));
    config.set("version", report::Json::number(1));
    config.set("seconds", report::Json::number(seconds));
    config.set("quick", report::Json::boolean(quick));
    config.set("hardware_threads",
               report::Json::number(static_cast<double>(
                   std::thread::hardware_concurrency())));
    config.set("compiler", report::Json::string(compilerString()));
    report::Json wcfg = report::Json::object();
    for (const std::string &w : workloads)
        wcfg.set(w, report::Json::string(findWorkload(w)->config(quick)));
    config.set("workloads", std::move(wcfg));
    config.set("end_to_end", *bench.find("end_to_end"));

    // values[set][workload][metric]
    std::vector<std::map<std::string, std::map<std::string,
                                               std::vector<double>>>>
        values(static_cast<std::size_t>(sets));
    std::map<std::string, std::string> units;
    int failures = 0;
    std::uint64_t seed = seed_base;
    for (int s = 0; s < sets; ++s) {
        for (int r = 0; r < runs; ++r, ++seed) {
            for (const std::string &w : workloads) {
                std::vector<std::string> args = {
                    selfExe(), "--workload", w, "--seed",
                    std::to_string(seed), "--seconds",
                    report::Json::formatNumber(seconds), "--trace", "0"};
                if (quick)
                    args.push_back("--quick");
                std::string text;
                const int rc = spawnWait(args, &text);
                // The result is the last non-empty line.
                while (!text.empty() && text.back() == '\n')
                    text.pop_back();
                const std::string last =
                    text.substr(text.find_last_of('\n') + 1);
                report::Json res;
                std::string err;
                const report::Json *metrics = nullptr;
                if (rc == 0 && report::Json::parse(last, &res, &err))
                    metrics = res.find("metrics");
                if (metrics == nullptr || !metrics->isObject()) {
                    ++failures;
                    std::cerr << "record: " << w << " seed " << seed
                              << " failed (exit " << rc << ")\n";
                    continue;
                }
                std::cerr << "record: set " << s << " " << w << " seed "
                          << seed << " ok\n";
                for (const auto &[name, v] : metrics->members()) {
                    values[static_cast<std::size_t>(s)][w][name]
                        .push_back(v.find("value")->asNumber());
                    units[name] = v.find("unit")->asString();
                }
            }
        }
    }

    report::Json set_list = report::Json::array();
    std::map<std::string, std::map<std::string, std::vector<double>>>
        pooled;
    for (const auto &set : values) {
        report::Json sj = report::Json::object();
        for (const auto &[w, metrics] : set) {
            report::Json wj = report::Json::object();
            for (const auto &[name, vals] : metrics) {
                wj.set(name, summary(vals, units[name]));
                auto &p = pooled[w][name];
                p.insert(p.end(), vals.begin(), vals.end());
            }
            sj.set(w, std::move(wj));
        }
        set_list.push(std::move(sj));
    }
    report::Json all = report::Json::object();
    for (const auto &[w, metrics] : pooled) {
        report::Json wj = report::Json::object();
        for (const auto &[name, vals] : metrics)
            wj.set(name, summary(vals, units[name]));
        all.set(w, std::move(wj));
    }
    report::Json doc = report::Json::object();
    doc.set("config", std::move(config));
    doc.set("seed_base",
            report::Json::number(static_cast<double>(seed_base)));
    doc.set("runs_per_set", report::Json::number(runs));
    doc.set("sets", std::move(set_list));
    doc.set("all", std::move(all));
    std::ofstream os(out_path);
    doc.write(os);
    if (!os) {
        std::cerr << "m3d_ledger record: cannot write " << out_path
                  << "\n";
        return 2;
    }
    std::cerr << "record: wrote " << out_path << "\n";
    return failures == 0 ? 0 : 1;
}

/** Values of one (workload, metric) pooled over every set. */
std::vector<double>
pooledValues(const report::Json &doc, const std::string &w,
             const std::string &metric)
{
    std::vector<double> out;
    const report::Json *sets = doc.find("sets");
    if (sets == nullptr || !sets->isArray())
        return out;
    for (const report::Json &s : sets->elements()) {
        const report::Json *wj = s.find(w);
        const report::Json *mj = wj ? wj->find(metric) : nullptr;
        const report::Json *vals = mj ? mj->find("values") : nullptr;
        if (vals == nullptr || !vals->isArray())
            continue;
        for (const report::Json &v : vals->elements())
            if (v.isNumber())
                out.push_back(v.asNumber());
    }
    return out;
}

int
compareMain(int argc, char **argv)
{
    cli::Parser parser(
        "m3d_ledger compare",
        "Compare two recorded ledgers: per workload and metric, the "
        "medians, quartiles, pair wins and a verdict (improved, "
        "unchanged, worse, unresolved).");
    parser.positional("a", "baseline ledger (recorded first)")
        .positional("b", "candidate ledger");
    const cli::ParseStatus status = parser.parse(argc - 1, argv + 1);
    if (status != cli::ParseStatus::Ok)
        return status == cli::ParseStatus::Help ? 0 : 2;
    report::Json a;
    report::Json b;
    if (!loadJson(parser.positionals()[0], &a) ||
        !loadJson(parser.positionals()[1], &b))
        return 2;
    const report::Json *ca = a.find("config");
    const report::Json *cb = b.find("config");
    if (ca == nullptr || cb == nullptr || ca->dump() != cb->dump()) {
        std::cerr << "m3d_ledger compare: config blocks differ; the "
                     "two ledgers were not measured like for like\n";
        if (ca != nullptr && cb != nullptr) {
            for (const auto &[k, v] : ca->members()) {
                const report::Json *o = cb->find(k);
                if (o == nullptr || o->dump() != v.dump())
                    std::cerr << "  config." << k << " differs\n";
            }
        }
        return kExitConfigMismatch;
    }

    const report::Json *wl = ca->find("workloads");
    const report::Json *defs = ca->find("end_to_end");
    bool well_formed = wl != nullptr && wl->isObject() &&
                       defs != nullptr && defs->isArray();
    for (std::size_t i = 0; well_formed && i < defs->elements().size();
         ++i) {
        const report::Json &def = defs->elements()[i];
        const report::Json *name = def.find("name");
        const report::Json *better = def.find("better");
        const report::Json *bound = def.find("bound");
        well_formed = well_formed && name != nullptr && name->isString() &&
                      better != nullptr && better->isString() &&
                      bound != nullptr && bound->isNumber();
    }
    if (!well_formed) {
        std::cerr << "m3d_ledger compare: malformed config block\n";
        return 2;
    }

    int worse = 0;
    std::printf("%-17s %-12s %12s %25s %12s %25s %7s  %s\n", "workload",
                "metric", "A median", "A [q1, q3]", "B median",
                "B [q1, q3]", "B wins", "verdict");
    for (const auto &[w, ignored] : wl->members()) {
        for (const report::Json &def : defs->elements()) {
            const std::string metric = def.find("name")->asString();
            const bool lower =
                def.find("better")->asString() == "lower";
            const double bound = def.find("bound")->asNumber();
            const std::vector<double> va = pooledValues(a, w, metric);
            const std::vector<double> vb = pooledValues(b, w, metric);
            if (va.empty() || vb.empty())
                continue;
            const std::vector<double> qa = quartiles(va);
            const std::vector<double> qb = quartiles(vb);
            auto better = [&](double x, double y) {
                return lower ? x < y : x > y;
            };
            const std::size_t pairs = std::min(va.size(), vb.size());
            std::size_t b_wins = 0;
            std::size_t a_wins = 0;
            for (std::size_t i = 0; i < pairs; ++i) {
                b_wins += better(vb[i], va[i]);
                a_wins += better(va[i], vb[i]);
            }
            const double iqr_a = qa[2] - qa[0];
            const double diff = std::abs(qb[1] - qa[1]);
            const double worse_by =
                ratio(lower ? qb[1] - qa[1] : qa[1] - qb[1], qa[1]);
            const double spread_a = ratio(iqr_a, qa[1]);
            const bool all_better =
                better(*std::max_element(vb.begin(), vb.end(),
                                         [&](double x, double y) {
                                             return better(x, y);
                                         }),
                       *std::min_element(va.begin(), va.end(),
                                         [&](double x, double y) {
                                             return better(x, y);
                                         }));
            const auto need =
                static_cast<std::size_t>(std::ceil(0.9 * pairs));
            std::string verdict;
            if (b_wins >= need && diff > iqr_a && better(qb[1], qa[1]))
                verdict = "improved";
            else if (spread_a > bound && !all_better)
                verdict = "unresolved";
            else if (worse_by > bound ||
                     (a_wins >= need && diff > iqr_a))
                verdict = "worse";
            else
                verdict = "unchanged";
            worse += verdict == "worse";
            char ra[64];
            char rb[64];
            std::snprintf(ra, sizeof(ra), "[%.6g, %.6g]", qa[0], qa[2]);
            std::snprintf(rb, sizeof(rb), "[%.6g, %.6g]", qb[0], qb[2]);
            std::printf("%-17s %-12s %12.6g %25s %12.6g %25s %3zu/%-3zu  "
                        "%s\n",
                        w.c_str(), metric.c_str(), qa[1], ra, qb[1], rb,
                        b_wins, pairs, verdict.c_str());
        }
    }
    return worse == 0 ? 0 : 3;
}

} // namespace

} // namespace ledger
} // namespace m3d

int
main(int argc, char **argv)
{
    using namespace m3d::ledger;
    try {
        if (argc > 1 && std::string(argv[1]) == "record")
            return recordMain(argc, argv);
        if (argc > 1 && std::string(argv[1]) == "compare")
            return compareMain(argc, argv);
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "m3d_ledger: " << e.what() << "\n";
        return 1;
    }
}
