/**
 * @file
 * The paper_figures workload: the engine work behind Figures 6-10,
 * built from the same calls the figure benches make.  One pass is
 * engine::designFactory, the Fig 6/7 single-core batch (six designs
 * x SPEC2006), the Fig 9/10 multicore batch (live caches, MESI
 * directory and NoC) and the Fig 8 steady thermal solves at grid 32.
 * A cold pass starts from empty trace registries and a fresh
 * Evaluator; the warm pass reruns it on that Evaluator, so the
 * simulations are cache hits and the thermal solves remain.
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "arch/replay_mem.hh"
#include "engine/evaluator.hh"
#include "ledger.hh"
#include "power/power_model.hh"
#include "thermal/thermal_model.hh"
#include "workload/trace_buffer.hh"

namespace m3d {
namespace ledger {

namespace {

constexpr int kJobs = 2;
constexpr int kThermalGrid = 32;
/** Measured instructions per run; one cold pass takes ~2.5 s at
 * --jobs 2 on a 4-thread host. */
constexpr std::uint64_t kMeasured = 60000;
/** Warm reruns per cold pass. */
constexpr int kWarmReps = 2;
constexpr std::uint64_t kQuickMeasured = 5000;
/** MulticoreModel's per-core warmup (power/sim_harness.cc). */
constexpr std::uint64_t kMultiWarmupPerCore = 50000;

struct Inputs
{
    SimBudget budget;
    std::vector<WorkloadProfile> spec;
    std::vector<WorkloadProfile> parallel;
};

Inputs
prepare(const RunOptions &opts)
{
    Inputs in;
    in.budget.measured = opts.quick ? kQuickMeasured : kMeasured;
    in.budget.seed = opts.seed;
    in.spec = WorkloadLibrary::spec2006();
    in.parallel = WorkloadLibrary::splash2parsec();
    if (opts.quick) {
        in.spec.resize(3);
        in.parallel.resize(2);
    }
    return in;
}

struct Counters
{
    std::uint64_t single_ops = 0;
    std::uint64_t multi_ops = 0;
    std::uint64_t run_hits = 0;
    std::uint64_t run_lookups = 0;
    std::uint64_t solves = 0;
    std::uint64_t sweeps = 0;
};

void
countRuns(const engine::Evaluator &ev, Counters *c)
{
    const engine::BatchStats bs = ev.lastBatchStats();
    c->run_hits += bs.run.hits + bs.multi.hits;
    c->run_lookups += bs.run.lookups() + bs.multi.lookups();
}

engine::BatchRunRequest
batchOf(RunKind kind, const std::vector<WorkloadProfile> &apps,
        const std::vector<CoreDesign> &designs,
        const engine::Evaluator &ev)
{
    engine::BatchRunRequest req;
    for (const WorkloadProfile &app : apps)
        for (const CoreDesign &d : designs)
            req.runs.push_back({kind, d, app, ev.options().budget,
                                ev.options().trace_path});
    return req;
}

/** One figure pass on `ev`; returns the canonical document text. */
std::string
pass(const Inputs &in, engine::Evaluator &ev, Tracer *t, Counters *c)
{
    std::unique_ptr<DesignFactory> factory;
    {
        Scope s(t, "sram.factory", Layer::Sram);
        factory =
            std::make_unique<DesignFactory>(engine::designFactory(ev));
    }
    const std::vector<CoreDesign> singles = factory->singleCoreDesigns();
    const std::vector<CoreDesign> multis = factory->multicoreDesigns();
    const SimBudget &budget = ev.options().budget;

    if (t != nullptr)
        precapture(t, in.spec, budget);

    // Fig 6/7: single-core speedup and energy.
    engine::BatchRunResult fig6;
    {
        Scope s(t, "engine.submit", Layer::Engine);
        fig6 = ev.submit(batchOf(RunKind::Single, in.spec, singles, ev));
    }
    countRuns(ev, c);
    c->single_ops += ev.lastBatchStats().run.misses *
                     (budget.warmup + budget.measured);

    // Fig 9/10: multicore speedup and energy.
    engine::BatchRunResult fig9;
    {
        Scope s(t, "arch.multicore", Layer::Arch);
        fig9 = ev.submit(
            batchOf(RunKind::Multi, in.parallel, multis, ev));
    }
    countRuns(ev, c);
    if (ev.lastBatchStats().multi.misses != 0) {
        for (const RunResult &r : fig9.runs) {
            for (const SimResult &core : r.multi.result.per_core)
                c->multi_ops += core.instructions;
            c->multi_ops += kMultiWarmupPerCore *
                            static_cast<std::uint64_t>(
                                r.multi.result.num_cores);
        }
    }

    // Fig 8: steady peak temperature of Base, TSV3D and M3D-Het.
    const std::vector<CoreDesign> hot = {factory->base(),
                                         factory->tsv3d(),
                                         factory->m3dHet()};
    engine::BatchRunResult fig8;
    {
        Scope s(t, "engine.submit", Layer::Engine);
        fig8 = ev.submit(batchOf(RunKind::Single, in.spec, hot, ev));
    }
    countRuns(ev, c);
    SolverConfig solver_cfg;
    solver_cfg.threads = kJobs;
    std::vector<double> peaks;
    for (std::size_t a = 0; a < in.spec.size(); ++a) {
        for (std::size_t i = 0; i < hot.size(); ++i) {
            const AppRun &r = fig8.runs[a * hot.size() + i].single;
            std::map<std::string, double> blocks;
            {
                Scope s(t, "power.block", Layer::Power);
                blocks = PowerModel(hot[i]).blockPower(r.sim.activity,
                                                       r.seconds);
            }
            Scope s(t, "thermal.solve", Layer::Thermal);
            const ThermalResult th =
                ThermalModel(hot[i], kThermalGrid, solver_cfg)
                    .solve(blocks);
            peaks.push_back(th.peak_c);
            ++c->solves;
            c->sweeps += static_cast<std::uint64_t>(th.solver.iterations);
        }
    }

    Scope s(t, "report.encode", Layer::Report);
    auto entry = [](const std::string &app, const CoreDesign &d) {
        report::Json e = report::Json::object();
        e.set("app", report::Json::string(app));
        e.set("design", report::Json::string(d.name));
        return e;
    };
    report::Json f6 = report::Json::array();
    for (std::size_t a = 0; a < in.spec.size(); ++a) {
        for (std::size_t i = 0; i < singles.size(); ++i) {
            const AppRun &r = fig6.runs[a * singles.size() + i].single;
            report::Json e = entry(in.spec[a].name, singles[i]);
            e.set("cycles", report::Json::number(
                                static_cast<double>(r.sim.cycles)));
            e.set("energy_j", report::Json::number(r.energyJ()));
            f6.push(std::move(e));
        }
    }
    report::Json f9 = report::Json::array();
    for (std::size_t a = 0; a < in.parallel.size(); ++a) {
        for (std::size_t i = 0; i < multis.size(); ++i) {
            const MultiRun &r = fig9.runs[a * multis.size() + i].multi;
            report::Json e = entry(in.parallel[a].name, multis[i]);
            e.set("seconds", report::Json::number(r.seconds()));
            e.set("energy_j", report::Json::number(r.energyJ()));
            f9.push(std::move(e));
        }
    }
    report::Json f8 = report::Json::array();
    for (std::size_t a = 0; a < in.spec.size(); ++a) {
        for (std::size_t i = 0; i < hot.size(); ++i) {
            report::Json e = entry(in.spec[a].name, hot[i]);
            e.set("peak_c",
                  report::Json::number(peaks[a * hot.size() + i]));
            f8.push(std::move(e));
        }
    }
    report::Json doc = report::Json::object();
    doc.set("fig6_fig7", std::move(f6));
    doc.set("fig9_fig10", std::move(f9));
    doc.set("fig8", std::move(f8));
    return doc.dump();
}

} // namespace

std::string
figuresConfigString(bool quick)
{
    std::ostringstream os;
    os << "jobs=" << kJobs
       << " measured=" << (quick ? kQuickMeasured : kMeasured)
       << " warmup=" << SimBudget{}.warmup
       << " thermal_grid=" << kThermalGrid << " warm_reps=" << kWarmReps
       << (quick ? " apps=3+2" : " apps=spec2006+splash2parsec");
    return os.str();
}

void
prepareFigures(const RunOptions &opts)
{
    (void)prepare(opts);
}

RunOutcome
runFiguresWorkload(const RunOptions &opts, Tracer *tracer)
{
    const Inputs in = prepare(opts);
    RunOutcome out;
    out.mode = "closed loop, 1 client, --jobs " + std::to_string(kJobs) +
               ": cold figure pass, then " + std::to_string(kWarmReps) +
               " warm reruns on its evaluator (" +
               figuresConfigString(opts.quick) + ")";

    Counters counters;
    std::uint64_t capture_ops = 0;
    std::uint64_t trace_bytes = 0;
    std::unique_ptr<engine::Evaluator> ev;
    ClosedLoop loop;
    loop.warm_reps = kWarmReps;
    loop.reset = [&] {
        ev.reset();
        TraceRegistry::global().clear();
        MemLevelRegistry::global().clear();
    };
    loop.cold = [&](Tracer *t) {
        {
            Scope s(t, "engine.evaluator", Layer::Engine);
            engine::EvalOptions eo;
            eo.threads = kJobs;
            eo.budget = in.budget;
            ev = std::make_unique<engine::Evaluator>(eo);
        }
        std::string text = pass(in, *ev, t, &counters);
        if (t != nullptr) {
            capture_ops += TraceRegistry::global().totalOps();
            trace_bytes = std::max(trace_bytes,
                                   TraceRegistry::global().totalBytes());
        }
        return text;
    };
    loop.warm = [&](Tracer *t) { return pass(in, *ev, t, &counters); };
    const ClosedLoopTimes times = runClosedLoop(opts, tracer, loop, &out);
    ev.reset();
    if (tracer == nullptr || !tracer->enabled())
        return out;

    const LayerAccount acc = accountLayers(tracer->spans(), kJobs);
    addLayerMetrics(acc, &out);
    auto &m = out.metrics;
    const std::size_t traced_colds = times.cold_ms[1].size();
    m["workload.capture_mops"] = {static_cast<double>(capture_ops) / 1e6,
                                  "Mops", traced_colds};
    m["workload.trace_mb"] = {
        static_cast<double>(trace_bytes) / (1024.0 * 1024.0), "MB",
        traced_colds};
    m["engine.sim_mops_per_s"] = {
        ratio(static_cast<double>(counters.single_ops) / 1e6,
              acc.busy("engine.submit") / 1e3),
        "Mops/s", acc.calls("engine.submit")};
    m["engine.run_hit_ratio"] = {
        ratio(static_cast<double>(counters.run_hits),
              static_cast<double>(counters.run_lookups)),
        "ratio", counters.run_lookups};
    m["arch.multicore_mops_per_s"] = {
        ratio(static_cast<double>(counters.multi_ops) / 1e6,
              acc.busy("arch.multicore") / 1e3),
        "Mops/s", acc.calls("arch.multicore")};
    m["thermal.solves"] = {static_cast<double>(counters.solves), "count",
                           counters.solves};
    m["thermal.sweeps_per_solve"] = {
        ratio(static_cast<double>(counters.sweeps),
              static_cast<double>(counters.solves)),
        "count", counters.solves};
    return out;
}

} // namespace ledger
} // namespace m3d
