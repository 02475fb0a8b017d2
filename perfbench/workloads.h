// The benchmark's three workloads, the layer probe, and the per-layer
// report. Every workload generates its inputs from the run seed, sets up
// Sizes::setup_repeats times (setup_s is the median), runs a closed loop
// for Options::seconds, and only then checks every answer, so checking
// never slows the measured loop.
//
//   cold_build     cache-miss Service::GetOrBuildWorkload, each followed
//                  by one checked greedy-grow solve;
//   serve_mix      four closed-loop clients over four cached tenants
//                  (arr, topk:5, cvar:0.9, rank-regret);
//   catalog_churn  inserts, deletes and solves through Service::Mutate /
//                  Submit, with a snapshot save + reopen after every
//                  automatic compaction.
//
// perfbench/map.json records which end-to-end metric each per-layer
// metric should move, on which workload.

#ifndef FAM_PERFBENCH_WORKLOADS_H_
#define FAM_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace fam::perfbench {

RunReport RunColdBuild(RunContext& ctx);
RunReport RunServeMix(RunContext& ctx);
RunReport RunCatalogChurn(RunContext& ctx);

/// Measures, on a small instance through ctx.probe_tracer, every layer
/// the workload's own traced ops left unmeasured, so every traced run
/// reports every per-layer metric.
void RunLayerProbe(RunContext& ctx);

/// Fills `report` with every per-layer metric from the run's spans and
/// recorded values, falling back to the probe's tracer for layers the
/// workload did not touch.
void ReportLayers(const RunContext& ctx, RunReport& report);

}  // namespace fam::perfbench

#endif  // FAM_PERFBENCH_WORKLOADS_H_
