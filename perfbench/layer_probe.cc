// The layer probe and the per-layer report.
//
// A traced run reports every per-layer metric. Layers the workload's own
// ops never call (stream and store on cold_build, measure contexts on
// catalog_churn, ...) are measured by the probe on one small anti-
// correlated instance, through its own tracer; ReportLayers takes each
// metric from the workload's spans when it has them and from the probe's
// otherwise. perfbench/map.json lists which source each workload uses.

#include <memory>
#include <numeric>

#include "workloads.h"

namespace fam::perfbench {

namespace {

constexpr size_t kDim = 4;
constexpr size_t kProbeRepeats = 3;

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Solves `request` on `workload` through the service and checks it.
void ProbeSolve(Service& service, const Workload& workload,
                const SolveRequest& request, std::string_view measure_class,
                Tracer* tracer, Checker& checker) {
  TimedSolve solve = SubmitAndWait(service, workload, request, measure_class,
                                   tracer, tracer->NewOp());
  if (!solve.response.ok()) {
    checker.Attempt();
    checker.Ok(solve.response.status(), "probe solve");
    return;
  }
  checker.CheckSolve(workload, request.k, *std::move(solve.response),
                     "probe solve");
}

/// Layers the workload's own spans left unmeasured.
struct ProbeNeeds {
  bool measure = false;  ///< topk:5 / rank-regret measure contexts
  bool solvers = false;  ///< greedy-shrink, local-search, non-ratio solves
  bool stream = false;   ///< insert / delete / compact applies
  bool store = false;    ///< snapshot save / open / FromSnapshot
};

ProbeNeeds NeedsOf(const Tracer& main) {
  ProbeNeeds needs;
  needs.measure = main.DurationsMs("regret.measure.context.topk5").empty();
  needs.solvers = main.Values("core.greedy_shrink.ratio.query_ms").empty() ||
                  main.Values("core.local_search.ratio.query_ms").empty() ||
                  main.Values("core.greedy_grow.nonratio.query_ms").empty();
  needs.stream = main.Values("stream.apply_ms.compact").empty() ||
                 main.Values("stream.apply_ms.insert").empty() ||
                 main.Values("stream.apply_ms.delete").empty();
  needs.store = main.DurationsMs("store.save").empty() ||
                main.Values("store.tile_pool.hits").empty();
  return needs;
}

}  // namespace

void RunLayerProbe(RunContext& ctx) {
  const ProbeNeeds needs = NeedsOf(*ctx.tracer);
  Tracer* tracer = ctx.probe_tracer;
  Checker& checker = ctx.checker;
  const Sizes& sizes = ctx.sizes;
  const uint64_t seed = ctx.options.seed;
  auto data = std::make_shared<const Dataset>(GenerateSynthetic(
      {.n = sizes.probe_points, .d = kDim,
       .distribution = SyntheticDistribution::kAntiCorrelated,
       .seed = DeriveSeed(kCatalogSeed, "probe.data")}));
  Service service;
  WorkloadSpec spec;
  spec.dataset = data;
  spec.num_users = sizes.probe_users;
  spec.seed = DeriveSeed(seed, "probe.theta");
  spec.prune = {.mode = PruneMode::kAuto};
  checker.Attempt();
  Result<std::shared_ptr<const Workload>> arr =
      service.GetOrBuildWorkload(spec);
  if (!checker.Ok(arr.status(), "probe build")) return;
  const Workload& base = **arr;

  if (needs.measure) {
    for (const auto& [spec_text, name] :
         {std::pair{"topk:5", "topk5"}, std::pair{"rank-regret", "rank_regret"}}) {
      checker.Attempt();
      Result<std::shared_ptr<const RegretMeasure>> measure =
          ParseMeasureSpec(spec_text);
      if (!checker.Ok(measure.status(), "probe measure")) continue;
      for (size_t r = 0; r < kProbeRepeats; ++r) {
        std::shared_ptr<const MeasureContext> context;
        {
          Span span(tracer, std::string("regret.measure.context.") + name,
                    tracer->NewOp());
          context = BuildMeasureContext(*measure, base.evaluator());
        }
        tracer->Record(std::string("regret.measure.context_bytes.") + name,
                       static_cast<double>((context->reference.size() +
                                            context->sorted_utilities.size()) *
                                           sizeof(double)));
      }
    }
  }

  if (needs.solvers) {
    WorkloadSpec cvar_spec = spec;
    cvar_spec.measure = "cvar:0.9";
    checker.Attempt();
    Result<std::shared_ptr<const Workload>> cvar =
        service.GetOrBuildWorkload(cvar_spec);
    checker.Ok(cvar.status(), "probe cvar build");
    for (size_t r = 0; r < kProbeRepeats; ++r) {
      ProbeSolve(service, base, {.solver = "greedy-shrink", .k = 10}, "ratio",
                 tracer, checker);
      ProbeSolve(service, base, {.solver = "local-search", .k = 10}, "ratio",
                 tracer, checker);
      if (cvar.ok()) {
        ProbeSolve(service, **cvar, {.solver = "greedy-grow", .k = 10},
                   "nonratio", tracer, checker);
      }
    }
  }

  if (needs.stream) {
    Rng rng(DeriveSeed(seed, "probe.stream"));
    std::shared_ptr<const Workload> head = *arr;
    for (size_t r = 0; r < kProbeRepeats; ++r) {
      WorkloadDelta insert;
      for (size_t j = 0; j < 4; ++j) {
        std::vector<double> point(kDim);
        for (double& v : point) v = rng.NextDouble();
        insert.Insert(std::move(point));
      }
      WorkloadDelta erase;
      // Served rows 0..3 of the head; ids only grow, so the smallest live
      // ids are exactly those rows.
      for (uint64_t id = 4 * r; id < 4 * r + 4; ++id) erase.Delete(id);
      WorkloadDelta compact;
      compact.Compact();
      for (const auto& [delta, kind] :
           {std::pair{&insert, "insert"}, std::pair{&erase, "delete"},
            std::pair{&compact, "compact"}}) {
        checker.Attempt();
        Result<ApplyResult> applied = service.Mutate(*head, *delta);
        if (!checker.Ok(applied.status(), "probe mutate")) return;
        head = applied->version;
        const ApplyStats& stats = applied->stats;
        tracer->Record(std::string("stream.apply_ms.") + kind,
                       stats.seconds * 1e3);
        tracer->Record("stream.best_updates",
                       static_cast<double>(stats.best_updates));
        tracer->Record("stream.pool_joins",
                       static_cast<double>(stats.pool_joins));
        tracer->Record("stream.pool_resweeps",
                       static_cast<double>(stats.pool_resweeps));
        tracer->Record("stream.compactions", stats.compacted ? 1.0 : 0.0);
      }
      ProbeSolve(service, *head, {.solver = "greedy-grow", .k = 10}, "ratio",
                 tracer, checker);
    }
  }

  if (needs.store) {
    const std::string path = ctx.options.scratch_dir + "/probe.famsnap";
    for (size_t r = 0; r < kProbeRepeats; ++r) {
      const uint64_t op = tracer->NewOp();
      checker.Attempt();
      Status saved = [&] {
        Span span(tracer, "store.save", op);
        return WorkloadSnapshot::Save(base, path);
      }();
      if (!checker.Ok(saved, "probe snapshot save")) return;
      Result<std::shared_ptr<const WorkloadSnapshot>> snapshot = [&] {
        Span span(tracer, "store.open", op);
        return WorkloadSnapshot::Open(path);
      }();
      if (!checker.Ok(snapshot.status(), "probe snapshot open")) return;
      Result<Workload> reopened = [&] {
        Span span(tracer, "store.from_snapshot", op);
        return WorkloadBuilder::FromSnapshot(*snapshot, data);
      }();
      if (!checker.Ok(reopened.status(), "probe FromSnapshot")) return;
      tracer->Record("store.snapshot_bytes_per_data_byte",
                     static_cast<double>((*snapshot)->file_bytes()) /
                         static_cast<double>(data->size() * kDim *
                                             sizeof(double)));
      ProbeSolve(service, *reopened, {.solver = "greedy-grow", .k = 10},
                 "ratio", tracer, checker);
      if (reopened->kernel().paged()) {
        const TileBufferPool::Stats pool =
            reopened->kernel().page_pool()->stats();
        tracer->Record("store.tile_pool.hits", static_cast<double>(pool.hits));
        tracer->Record("store.tile_pool.misses",
                       static_cast<double>(pool.misses));
        tracer->Record("store.tile_pool.evictions",
                       static_cast<double>(pool.evictions));
      }
    }
    std::remove(path.c_str());
  }
}

void ReportLayers(const RunContext& ctx, RunReport& report) {
  const Tracer& main = *ctx.tracer;
  const Tracer& probe = *ctx.probe_tracer;
  auto spans = [&](std::string_view name) {
    std::vector<double> values = main.DurationsMs(name);
    return values.empty() ? probe.DurationsMs(name) : values;
  };
  auto values = [&](std::string_view name) {
    std::vector<double> out = main.Values(name);
    return out.empty() ? probe.Values(name) : out;
  };
  auto median_span = [&](const char* metric, const char* span) {
    report.Add(metric, "ms", Median(spans(span)));
  };

  median_span("data.content_hash_ms", "data.content_hash");
  median_span("utility.sample_ms", "utility.sample");
  median_span("regret.evaluator.best_scan_ms", "regret.evaluator.best_scan");
  {
    const std::vector<double> scans = spans("regret.evaluator.best_scan");
    const std::vector<double> pairs = values("regret.evaluator.pairs");
    report.Add("regret.evaluator.best_scan_ns_per_pair", "ns",
               Sum(scans) * 1e6 / Sum(pairs));
  }
  report.Add("regret.evaluator.best_scan_share", "ratio",
             Median(values("regret.evaluator.best_scan_share")));
  median_span("geom.skyline_ms", "geom.skyline");
  report.Add("geom.skyline_size", "count", Median(values("geom.skyline_size")));
  median_span("regret.candidate_index.build_ms",
              "regret.candidate_index.build");
  report.Add("regret.candidate_index.keep_ratio", "ratio",
             Median(values("regret.candidate_index.keep_ratio")));
  for (const char* name : {"topk5", "rank_regret"}) {
    report.Add(std::string("regret.measure.context_ms.") + name, "ms",
               Median(spans(std::string("regret.measure.context.") + name)));
    report.Add(std::string("regret.measure.context_bytes.") + name, "bytes",
               Median(values(std::string("regret.measure.context_bytes.") +
                             name)));
  }
  median_span("regret.eval_kernel.tile_build_ms",
              "regret.eval_kernel.tile_build");
  report.Add("regret.eval_kernel.tile_bytes", "bytes",
             Median(values("regret.eval_kernel.tile_bytes")));
  report.Add("regret.eval_kernel.batch_gain_ns_per_element", "ns",
             Sum(values("kernel_batch_gain_ns")) /
                 Sum(values("kernel_batch_gain_elements")));
  report.Add("fam.engine.phase_coverage", "ratio",
             Median(values("fam.engine.phase_coverage")));

  for (const char* name :
       {"greedy_shrink.ratio", "greedy_grow.ratio", "local_search.ratio",
        "greedy_grow.nonratio"}) {
    report.Add(std::string("core.") + name + ".query_ms_p50", "ms",
               Median(values(std::string("core.") + name + ".query_ms")));
  }
  {
    const double hits = Sum(values("core.greedy_grow.kernel_lazy_queue_hits"));
    const double reevaluations =
        Sum(values("core.greedy_grow.kernel_lazy_queue_reevaluations"));
    report.Add("core.greedy_grow.lazy_hit_ratio", "ratio",
               hits / (hits + reevaluations));
  }
  report.Add("fam.service.wait_ms_p50", "ms",
             Percentile(values("fam.service.wait_ms"), 0.5));
  report.Add("fam.service.wait_ms_p90", "ms",
             Percentile(values("fam.service.wait_ms"), 0.9));
  report.Add("fam.service.rejected", "count",
             Sum(main.Values("fam.service.rejected")));

  for (const char* kind : {"insert", "delete", "compact"}) {
    report.Add(std::string("stream.apply_ms_p50.") + kind, "ms",
               Median(values(std::string("stream.apply_ms.") + kind)));
  }
  for (const char* counter : {"stream.best_updates", "stream.pool_joins",
                              "stream.pool_resweeps", "stream.compactions"}) {
    report.Add(counter, "count", Sum(values(counter)));
  }

  median_span("store.save_ms", "store.save");
  median_span("store.open_ms", "store.open");
  median_span("store.from_snapshot_ms", "store.from_snapshot");
  report.Add("store.snapshot_bytes_per_data_byte", "ratio",
             Median(values("store.snapshot_bytes_per_data_byte")));
  {
    const double hits = Sum(values("store.tile_pool.hits"));
    const double misses = Sum(values("store.tile_pool.misses"));
    report.Add("store.tile_pool.hit_ratio", "ratio", hits / (hits + misses));
    report.Add("store.tile_pool.evictions", "count",
               Sum(values("store.tile_pool.evictions")));
  }

  const double traced = Median(main.Values("trace.op_ms.traced"));
  const double untraced = Median(main.Values("trace.op_ms.untraced"));
  report.Add("trace.overhead_share", "ratio", (traced - untraced) / untraced);
  report.Add("trace.spans", "count",
             static_cast<double>(main.span_count() + probe.span_count()));
}

}  // namespace fam::perfbench
