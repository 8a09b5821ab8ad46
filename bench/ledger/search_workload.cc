/**
 * @file
 * The two search workloads: search_grid_cold (the 48-point grid at
 * the full simulation budget, --jobs 1: trace capture and the batched
 * replay kernel do the work) and search_dse (the pareto_frontier_dse
 * surrogate level at --jobs 2: the thermal solves do).
 *
 * Each operation is what one `m3dtool search --daemon off
 * --cache-file F` process does: a cold search (empty trace registries,
 * fresh Evaluator, no cache file; the file is saved at the end), then
 * warm reruns that load it.  Untraced operations run the production
 * path (ObjectiveEvaluator + enginePricer).  Traced operations rebuild
 * ObjectiveEvaluator::evaluateBatch from the public calls, with a span
 * around each, and must emit the same m3d-search document byte for
 * byte.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "arch/replay_mem.hh"
#include "engine/evaluator.hh"
#include "ledger.hh"
#include "power/power_model.hh"
#include "search/design_point.hh"
#include "search/objectives.hh"
#include "search/search_json.hh"
#include "search/strategy.hh"
#include "thermal/thermal_model.hh"
#include "workload/trace_buffer.hh"

namespace m3d {
namespace ledger {

namespace {

struct SearchConfig
{
    const char *strategy;
    int jobs;
    std::uint64_t budget;
    std::uint64_t measured;
    int thermal_grid;
    std::uint64_t population;
    std::uint64_t pool;
    double fraction;
    /** Warm reruns per cold search (they are short: more samples). */
    int warm_reps;
};

SearchConfig
configFor(const std::string &workload, bool quick)
{
    if (workload == "search_grid_cold")
        return quick ? SearchConfig{"grid", 1, 8, 20000, 16, 16, 256,
                                    0.125, 1}
                     : SearchConfig{"grid", 1, 48, 300000, 16, 16, 256,
                                    0.125, 3};
    return quick ? SearchConfig{"surrogate", 2, 96, 20000, 16, 16, 96,
                                0.125, 1}
                 : SearchConfig{"surrogate", 2, 1324, 20000, 16, 64,
                                672, 0.125, 2};
}

/** Immutable inputs shared by every operation of one run. */
struct Inputs
{
    SearchConfig cfg;
    search::SearchSpace space{"core"};
    search::Point reference;
    search::ObjectiveConfig ocfg;
    std::vector<WorkloadProfile> apps;
    search::StrategyOptions sopts;
    engine::EvalOptions eopts;
    std::string cache_path;
};

Inputs
prepare(const RunOptions &opts)
{
    Inputs in;
    in.cfg = configFor(opts.workload, opts.quick);
    in.space = search::coreSpace();
    in.reference = search::coreBaselinePoint(in.space);
    in.ocfg.thermal_grid = in.cfg.thermal_grid;
    in.sopts.seed = opts.seed;
    in.sopts.budget = in.cfg.budget;
    in.sopts.population = in.cfg.population;
    in.sopts.surrogate_pool = in.cfg.pool;
    in.sopts.surrogate_fraction = in.cfg.fraction;
    in.eopts.threads = in.cfg.jobs;
    in.eopts.budget.measured = in.cfg.measured;
    in.eopts.budget.seed = opts.seed;
    in.cache_path = opts.scratch + "/search.cache";
    // The application mix the objective evaluator resolves by
    // default; the traced pricer must price exactly the same runs.
    engine::Evaluator probe(engine::EvalOptions{});
    in.apps = search::ObjectiveEvaluator(probe, in.ocfg).config().apps;
    return in;
}

/** One search on the production path, as `m3dtool search` runs it. */
std::string
searchOnce(const Inputs &in)
{
    engine::EvalOptions eo = in.eopts;
    eo.cache_file = in.cache_path;
    engine::Evaluator ev(eo);
    search::ObjectiveEvaluator objectives(ev, in.ocfg);
    const search::SearchResult result = search::runSearch(
        in.space, in.cfg.strategy, in.sopts,
        search::enginePricer(in.space, objectives), in.reference);
    ev.savePartitionCache();
    return search::searchResultJson(in.space, in.cfg.strategy, in.sopts,
                                    result, in.ocfg)
        .dump();
}

/** Per-layer counts the traced operations gather. */
struct Counters
{
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t run_hits = 0;
    std::uint64_t run_lookups = 0;
    std::uint64_t sim_ops = 0;
    std::atomic<std::uint64_t> solves{0};
    std::atomic<std::uint64_t> sweeps{0};
    std::uint64_t evaluated = 0;
    std::uint64_t generated = 0;
};

/**
 * ObjectiveEvaluator::evaluateBatch rebuilt from public calls, with a
 * span around each: decodeCore, TraceRegistry/MemLevelRegistry
 * acquire, Evaluator::submit, Evaluator::parallelFor, and per design
 * PowerModel::blockPower and ThermalModel::solveMany.  The memo is
 * warm-seeded through EvalCache::forEachObjective and its keys are
 * built exactly as the objective evaluator builds them, so a warm
 * phase is answered from the memo as on the production path.
 */
class TracedPricer
{
  public:
    TracedPricer(const Inputs &in, engine::Evaluator &ev, Tracer *t,
                 Counters *c)
        : in_(in), ev_(ev), t_(t), c_(c)
    {
        Scope s(t_, "search.memo_seed", Layer::Search);
        ev_.cache().forEachObjective(
            [this](const engine::EvalKey &key,
                   const engine::ObjectiveRecord &r) {
                memo_.emplace(key, search::Objectives{
                                       r.frequency, r.epi, r.peak_c,
                                       r.yield});
            });
    }

    std::vector<search::Objectives>
    operator()(const std::vector<search::Point> &pts,
               const std::function<void(std::size_t,
                                        const search::Objectives &)>
                   &hook)
    {
        std::vector<CoreDesign> designs;
        designs.reserve(pts.size());
        for (const search::Point &p : pts) {
            Scope s(t_, "sram.decode", Layer::Sram);
            designs.push_back(search::decodeCore(in_.space, p, ev_));
        }

        std::vector<search::Objectives> out(designs.size());
        std::vector<engine::EvalKey> keys(designs.size());
        std::vector<std::size_t> missing;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            keys[i] = designKey(designs[i]);
            const auto it = memo_.find(keys[i]);
            if (it == memo_.end()) {
                missing.push_back(i);
                ++c_->memo_misses;
                continue;
            }
            out[i] = it->second;
            ++c_->memo_hits;
            if (hook)
                hook(i, out[i]);
        }
        if (missing.empty())
            return out;

        const SimBudget &budget = ev_.options().budget;
        const std::uint64_t ops = budget.warmup + budget.measured;
        precapture(t_, in_.apps, budget);

        engine::BatchRunRequest breq;
        for (const std::size_t i : missing) {
            for (const WorkloadProfile &app : in_.apps) {
                RunRequest rr;
                rr.kind = RunKind::Single;
                rr.design = designs[i];
                rr.app = app;
                rr.budget = budget;
                rr.path = ev_.options().trace_path;
                breq.runs.push_back(std::move(rr));
            }
        }
        engine::BatchRunResult bres;
        {
            Scope s(t_, "engine.submit", Layer::Engine);
            bres = ev_.submit(breq);
        }
        const engine::BatchStats bs = ev_.lastBatchStats();
        c_->run_hits += bs.run.hits;
        c_->run_lookups += bs.run.lookups();
        c_->sim_ops += bs.run.misses * ops;

        Scope pf(t_, "engine.parallel_for", Layer::Engine);
        const SpanContext ctx = pf.context();
        const std::size_t napps = in_.apps.size();
        ev_.parallelFor(missing.size(), [&](std::size_t m) {
            const std::size_t i = missing[m];
            const CoreDesign &d = designs[i];
            search::Objectives obj;
            obj.frequency = d.frequency;
            double energy_j = 0.0;
            double instructions = 0.0;
            std::vector<std::map<std::string, double>> powers;
            {
                Scope s(t_, "power.block", Layer::Power, ctx);
                PowerModel pm(d);
                for (std::size_t a = 0; a < napps; ++a) {
                    const AppRun &r = bres.runs[m * napps + a].single;
                    energy_j += r.energyJ();
                    instructions +=
                        static_cast<double>(r.sim.instructions);
                    powers.push_back(
                        pm.blockPower(r.sim.activity, r.seconds));
                }
            }
            {
                Scope s(t_, "thermal.solve", Layer::Thermal, ctx);
                SolverConfig solver_cfg;
                solver_cfg.threads = 1;
                ThermalModel tm(d, in_.ocfg.thermal_grid, solver_cfg);
                for (const ThermalResult &th : tm.solveMany(powers)) {
                    obj.peak_c = std::max(obj.peak_c, th.peak_c);
                    c_->sweeps += static_cast<std::uint64_t>(
                        th.solver.iterations);
                    ++c_->solves;
                }
            }
            obj.epi = energy_j / instructions;
            out[i] = obj;
            if (hook)
                hook(i, out[i]);
        });

        for (const std::size_t i : missing) {
            memo_.emplace(keys[i], out[i]);
            ev_.cache().storeObjective(keys[i],
                                       {out[i].frequency, out[i].epi,
                                        out[i].peak_c, out[i].yield});
        }
        return out;
    }

  private:
    /** The objective evaluator's memo key (search/objectives.cc). */
    engine::EvalKey designKey(const CoreDesign &design) const
    {
        constexpr std::uint64_t kObjectiveDomain = 0x6f626a65637469ull;
        engine::KeyBuilder kb(kObjectiveDomain);
        engine::hashCoreDesign(kb, design);
        for (const WorkloadProfile &app : in_.apps)
            engine::hashWorkloadProfile(kb, app);
        engine::hashSimBudget(kb, ev_.options().budget);
        kb.add(in_.ocfg.thermal_grid);
        return kb.key();
    }

    const Inputs &in_;
    engine::Evaluator &ev_;
    Tracer *t_;
    Counters *c_;
    std::unordered_map<engine::EvalKey, search::Objectives,
                       engine::EvalKeyHash>
        memo_;
};

/** One traced search; the caller's root span holds every child. */
std::string
searchTraced(const Inputs &in, Tracer *t, Counters *c)
{
    std::unique_ptr<engine::Evaluator> ev;
    {
        Scope s(t, "engine.evaluator", Layer::Engine);
        ev = std::make_unique<engine::Evaluator>(in.eopts);
    }
    {
        // What the Evaluator constructor does with a cache_file.
        Scope s(t, "engine.cache_load", Layer::Engine);
        ev->cache().loadPartitions(in.cache_path);
    }
    TracedPricer pricer(in, *ev, t, c);
    search::SearchResult result;
    {
        Scope s(t, "search.run", Layer::Search);
        result = search::runSearch(
            in.space, in.cfg.strategy, in.sopts,
            [&pricer](const std::vector<search::Point> &pts,
                      const std::function<void(
                          std::size_t, const search::Objectives &)> &h) {
                return pricer(pts, h);
            },
            in.reference);
    }
    c->evaluated += result.evaluated;
    c->generated += result.generated;
    {
        Scope s(t, "engine.cache_save", Layer::Engine);
        ev->cache().savePartitions(in.cache_path);
    }
    std::string text;
    {
        Scope s(t, "report.encode", Layer::Report);
        text = search::searchResultJson(in.space, in.cfg.strategy,
                                        in.sopts, result, in.ocfg)
                   .dump();
    }
    Scope s(t, "engine.teardown", Layer::Engine);
    ev.reset();
    return text;
}

} // namespace

std::string
searchConfigString(const std::string &workload, bool quick)
{
    const SearchConfig c = configFor(workload, quick);
    std::ostringstream os;
    os << c.strategy << " jobs=" << c.jobs << " budget=" << c.budget
       << " measured=" << c.measured
       << " warmup=" << SimBudget{}.warmup
       << " thermal_grid=" << c.thermal_grid
       << " population=" << c.population << " pool=" << c.pool
       << " fraction=" << c.fraction << " warm_reps=" << c.warm_reps;
    return os.str();
}

void
prepareSearch(const RunOptions &opts)
{
    (void)prepare(opts);
}

RunOutcome
runSearchWorkload(const RunOptions &opts, Tracer *tracer)
{
    const Inputs in = prepare(opts);
    RunOutcome out;
    out.mode = "closed loop, 1 client, --jobs " +
               std::to_string(in.cfg.jobs) + ": cold " +
               in.cfg.strategy + " search, then " +
               std::to_string(in.cfg.warm_reps) +
               " warm reruns from its cache file (" +
               searchConfigString(opts.workload, opts.quick) + ")";

    Counters counters;
    std::uint64_t capture_ops = 0;
    std::uint64_t trace_bytes = 0;
    ClosedLoop loop;
    loop.warm_reps = in.cfg.warm_reps;
    loop.reset = [&] {
        TraceRegistry::global().clear();
        MemLevelRegistry::global().clear();
        std::filesystem::remove(in.cache_path);
    };
    loop.cold = [&](Tracer *t) {
        if (t == nullptr)
            return searchOnce(in);
        std::string text = searchTraced(in, t, &counters);
        capture_ops += TraceRegistry::global().totalOps();
        trace_bytes =
            std::max(trace_bytes, TraceRegistry::global().totalBytes());
        return text;
    };
    loop.warm = [&](Tracer *t) {
        return t == nullptr ? searchOnce(in)
                            : searchTraced(in, t, &counters);
    };
    const ClosedLoopTimes times = runClosedLoop(opts, tracer, loop, &out);
    if (tracer == nullptr || !tracer->enabled())
        return out;

    const LayerAccount acc = accountLayers(tracer->spans(), in.cfg.jobs);
    addLayerMetrics(acc, &out);
    auto &m = out.metrics;
    const std::size_t traced_colds = times.cold_ms[1].size();
    m["sram.decodes"] = {static_cast<double>(acc.calls("sram.decode")),
                         "count", acc.calls("sram.decode")};
    m["workload.capture_mops"] = {static_cast<double>(capture_ops) / 1e6,
                                  "Mops", traced_colds};
    m["workload.trace_mb"] = {
        static_cast<double>(trace_bytes) / (1024.0 * 1024.0), "MB",
        traced_colds};
    m["engine.sim_mops_per_s"] = {
        ratio(static_cast<double>(counters.sim_ops) / 1e6,
              acc.busy("engine.submit") / 1e3),
        "Mops/s", acc.calls("engine.submit")};
    m["engine.run_hit_ratio"] = {
        ratio(static_cast<double>(counters.run_hits),
              static_cast<double>(counters.run_lookups)),
        "ratio", counters.run_lookups};
    {
        // Entries the cold operation persisted (partition + objective
        // families), read back from the last saved file.
        engine::EvalCache cache;
        cache.loadPartitions(in.cache_path);
        m["engine.cache_entries"] = {
            static_cast<double>(cache.partitionEntries() +
                                cache.objectiveEntries()),
            "count", 1};
    }
    m["thermal.solves"] = {static_cast<double>(counters.solves.load()),
                           "count", counters.solves.load()};
    m["thermal.sweeps_per_solve"] = {
        ratio(static_cast<double>(counters.sweeps.load()),
              static_cast<double>(counters.solves.load())),
        "count", counters.solves.load()};
    // Evaluated points exclude each search's free reference point.
    m["search.eval_fraction"] = {
        ratio(static_cast<double>(counters.evaluated) -
                  static_cast<double>(acc.calls("search.run")),
              static_cast<double>(counters.generated)),
        "ratio", acc.calls("search.run")};
    m["search.memo_hit_ratio"] = {
        ratio(static_cast<double>(counters.memo_hits),
              static_cast<double>(counters.memo_hits +
                                  counters.memo_misses)),
        "ratio", counters.memo_hits + counters.memo_misses};
    return out;
}

} // namespace ledger
} // namespace m3d
