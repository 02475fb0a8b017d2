// catalog_churn: writes beside reads on one streaming catalog.
//
// One closed-loop client calls the Service directly (no queue contention)
// with insert and delete batches, dealt from shuffled decks of five each,
// and reads its own writes: every mutation is followed by a greedy-grow
// k=10 solve on the new head version. The per-user best values and the
// candidate pool are maintained incrementally rather than rebuilt, so a
// faster best-scan that slows mutations shows here: op = Service::Mutate,
// op2 = the time to a fresh answer (the mutation plus the solve). Most delete batches avoid the candidate pool; one in four also
// deletes one candidate, which forces a pool resweep. Inserts and deletes
// balance, so the catalog keeps its size while automatic compaction (the
// default 25% tombstone ratio) runs several times per run. After each
// compaction the head is saved as a snapshot, reopened through
// WorkloadSnapshot::Open + WorkloadBuilder::FromSnapshot, and solved
// again; the reopened answer must equal the head's. Snapshots go to the
// run's scratch directory, so their latencies are the page cache's, not a
// disk's. At the end the head's dataset is rebuilt from scratch on the
// same Θ seed and must match bit for bit.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "decomposed_build.h"
#include "workloads.h"

namespace fam::perfbench {

namespace {

constexpr size_t kDim = 4;
constexpr size_t kSolveK = 10;

std::vector<double> RandomPoint(Rng& rng) {
  std::vector<double> point(kDim);
  for (double& v : point) v = rng.NextDouble();
  return point;
}

/// Served row r of a version holds the r-th smallest live id: rows are
/// appended in id order and compaction keeps their order.
std::vector<uint64_t> PickDeletes(const Workload& head,
                                  const std::vector<uint64_t>& live,
                                  size_t count, bool hit_candidate,
                                  Rng& rng) {
  const CandidateIndex* index = head.candidate_index();
  std::vector<uint8_t> taken(live.size(), 0);
  std::vector<uint64_t> ids;
  if (hit_candidate && index != nullptr && index->size() > kSolveK) {
    const size_t row = index->candidates()[rng.NextBounded(index->size())];
    taken[row] = 1;
    ids.push_back(live[row]);
  }
  while (ids.size() < count) {
    const size_t row = rng.NextBounded(live.size());
    if (taken[row] != 0 || (index != nullptr && index->IsCandidate(row))) {
      continue;
    }
    taken[row] = 1;
    ids.push_back(live[row]);
  }
  return ids;
}

void EraseIds(std::vector<uint64_t>& live, std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  std::erase_if(live, [&](uint64_t id) {
    return std::binary_search(ids.begin(), ids.end(), id);
  });
}

/// Five inserts and five deletes in a seeded order.
std::vector<uint8_t> Deck(Rng& rng) {
  std::vector<uint8_t> inserts(10, 0);
  std::fill(inserts.begin(), inserts.begin() + 5, 1);
  Shuffle(inserts, rng);
  return inserts;
}

bool SameSelection(const SolveResponse& a, const SolveResponse& b) {
  return a.selection.indices == b.selection.indices &&
         a.selection.average_regret_ratio == b.selection.average_regret_ratio;
}

}  // namespace

RunReport RunCatalogChurn(RunContext& ctx) {
  const Sizes& sizes = ctx.sizes;
  const uint64_t seed = ctx.options.seed;
  Tracer* tracer = ctx.tracer;
  Checker& checker = ctx.checker;
  RunReport report;
  EndToEnd e2e;
  Digest digest;
  digest.Add("catalog_churn");

  const SolveRequest request{.solver = "greedy-grow", .k = kSolveK};
  BuildSpec base_spec;
  std::unique_ptr<Service> service;
  std::shared_ptr<const Workload> head;
  std::vector<uint64_t> live;
  Rng rng(0);
  for (size_t r = 0; r < sizes.setup_repeats; ++r) {
    const double start = NowSeconds();
    head.reset();
    service.reset();
    rng = Rng(DeriveSeed(seed, "catalog_churn.ops"));
    base_spec = {
        .dataset = std::make_shared<const Dataset>(GenerateSynthetic(
            {.n = sizes.churn_points, .d = kDim,
             .distribution = SyntheticDistribution::kIndependent,
             .seed = DeriveSeed(kCatalogSeed, "catalog_churn.data")})),
        .num_users = sizes.churn_users,
        .seed = DeriveSeed(seed, "catalog_churn.theta")};
    service = std::make_unique<Service>();
    checker.Attempt();
    Result<std::shared_ptr<const Workload>> base =
        service->GetOrBuildWorkload(base_spec.ToServiceSpec());
    if (!checker.Ok(base.status(), "catalog_churn base build")) return report;
    // The first Mutate opens the service's stream over the base.
    checker.Attempt();
    Result<ApplyResult> opened =
        service->Mutate(**base, WorkloadDelta().Insert(RandomPoint(rng)));
    if (!checker.Ok(opened.status(), "catalog_churn stream open")) {
      return report;
    }
    head = opened->version;
    live.resize(sizes.churn_points);
    for (size_t i = 0; i < live.size(); ++i) live[i] = i;
    live.insert(live.end(), opened->inserted_ids.begin(),
                opened->inserted_ids.end());
    e2e.setup_s.push_back(NowSeconds() - start);
    if (r + 1 == sizes.setup_repeats) digest.AddWorkload(**base);
  }
  e2e.setup_rss_mb = PeakRssMb();

  if (tracer != nullptr) {
    Result<std::shared_ptr<const Workload>> base =
        service->GetOrBuildWorkload(base_spec.ToServiceSpec());
    if (checker.Ok(base.status(), "catalog_churn base lookup")) {
      TraceSetupBuild(base_spec, **base, *service, *tracer, checker);
    }
  }

  const std::filesystem::path scratch = ctx.options.scratch_dir;
  size_t snapshots = 0;
  std::vector<uint8_t> deck;
  const double start = NowSeconds();
  for (size_t i = 0;
       i < sizes.digest_ops || NowSeconds() - start < ctx.options.seconds;
       ++i) {
    const bool traced = tracer != nullptr && i % 2 == 0;
    Tracer* op_tracer = traced ? tracer : nullptr;
    const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
    if (i % 10 == 0) deck = Deck(rng);
    const bool insert = deck[i % deck.size()] != 0;

    Span op_span(op_tracer, "op.mutate", op);
    WorkloadDelta delta;
    std::vector<uint64_t> deleted;
    if (insert) {
      for (size_t j = 0; j < sizes.churn_insert_batch; ++j) {
        delta.Insert(RandomPoint(rng));
      }
    } else {
      deleted = PickDeletes(*head, live, sizes.churn_delete_batch,
                            rng.NextBounded(4) == 0, rng);
      for (uint64_t id : deleted) delta.Delete(id);
    }
    checker.Attempt();
    const double mutate_start = NowSeconds();
    Result<ApplyResult> applied = [&] {
      Span span(op_tracer, "fam.service.mutate", op);
      return service->Mutate(*head, delta);
    }();
    const double mutate_ms = (NowSeconds() - mutate_start) * 1e3;
    if (!checker.Ok(applied.status(), "catalog_churn mutate")) continue;
    e2e.op_ms[insert ? "insert" : "delete"].push_back(mutate_ms);
    head = applied->version;
    if (insert) {
      live.insert(live.end(), applied->inserted_ids.begin(),
                  applied->inserted_ids.end());
    } else {
      EraseIds(live, std::move(deleted));
    }
    if (head->size() != live.size()) {
      checker.Fail("catalog_churn: head size != live id count");
    }
    if (i < sizes.digest_ops) digest.AddWorkload(*head);

    TimedSolve solve =
        SubmitAndWait(*service, *head, request, "ratio", op_tracer, op);
    if (solve.response.ok()) {
      e2e.op2_ms["fresh_answer"].push_back(mutate_ms + solve.client_ms);
      if (i < sizes.digest_ops) digest.AddSelection(solve.response->selection);
      checker.CheckSolve(*head, kSolveK, *std::move(solve.response),
                         "catalog_churn solve");
    } else {
      checker.Attempt();
      checker.Ok(solve.response.status(), "catalog_churn solve");
    }

    const ApplyStats& stats = applied->stats;
    if (tracer != nullptr) {
      tracer->Record(traced ? "trace.op_ms.traced" : "trace.op_ms.untraced",
                     mutate_ms);
      const char* apply_kind = stats.compacted ? "stream.apply_ms.compact"
                         : insert        ? "stream.apply_ms.insert"
                                         : "stream.apply_ms.delete";
      tracer->Record(apply_kind, stats.seconds * 1e3);
      tracer->Record("stream.best_updates",
                     static_cast<double>(stats.best_updates));
      tracer->Record("stream.pool_joins",
                     static_cast<double>(stats.pool_joins));
      tracer->Record("stream.pool_resweeps",
                     static_cast<double>(stats.pool_resweeps));
      tracer->Record("stream.compactions", stats.compacted ? 1.0 : 0.0);
    }
    if (!stats.compacted) continue;

    // Warm restart of the compacted head: save, reopen, solve on both.
    const std::string path =
        (scratch / ("churn-" + std::to_string(snapshots++) + ".famsnap"))
            .string();
    checker.Attempt();
    Status saved = [&] {
      Span span(tracer, "store.save", op);
      return WorkloadSnapshot::Save(*head, path);
    }();
    if (!checker.Ok(saved, "catalog_churn snapshot save")) continue;
    Result<std::shared_ptr<const WorkloadSnapshot>> snapshot = [&] {
      Span span(tracer, "store.open", op);
      return WorkloadSnapshot::Open(path);
    }();
    if (!checker.Ok(snapshot.status(), "catalog_churn snapshot open")) {
      continue;
    }
    Result<Workload> reopened = [&] {
      Span span(tracer, "store.from_snapshot", op);
      return WorkloadBuilder::FromSnapshot(*snapshot, head->shared_dataset());
    }();
    if (!checker.Ok(reopened.status(), "catalog_churn FromSnapshot")) continue;
    Record(tracer, "store.snapshot_bytes_per_data_byte",
           static_cast<double>((*snapshot)->file_bytes()) /
               static_cast<double>(head->size() * head->dimension() *
                                   sizeof(double)));
    TimedSolve warm =
        SubmitAndWait(*service, *reopened, request, "ratio", tracer, op);
    TimedSolve hot =
        SubmitAndWait(*service, *head, request, "ratio", tracer, op);
    if (tracer != nullptr && reopened->kernel().paged()) {
      const TileBufferPool::Stats pool = reopened->kernel().page_pool()->stats();
      tracer->Record("store.tile_pool.hits", static_cast<double>(pool.hits));
      tracer->Record("store.tile_pool.misses",
                     static_cast<double>(pool.misses));
      tracer->Record("store.tile_pool.evictions",
                     static_cast<double>(pool.evictions));
    }
    std::filesystem::remove(path);
    if (!warm.response.ok() || !hot.response.ok()) {
      checker.Attempt();
      checker.Ok(!warm.response.ok() ? warm.response.status()
                                     : hot.response.status(),
                 "catalog_churn warm solve");
      continue;
    }
    if (!SameSelection(*warm.response, *hot.response)) {
      checker.Fail("catalog_churn: reopened solve differs from the head's");
    }
    checker.CheckSolve(*reopened, kSolveK, *std::move(warm.response),
                       "catalog_churn warm solve");
  }
  e2e.window_s = NowSeconds() - start;

  // The head must equal a from-scratch build of its dataset on the same Θ.
  checker.Attempt();
  BuildSpec rebuild_spec = base_spec;
  rebuild_spec.dataset = head->shared_dataset();
  Result<Workload> rebuilt = WorkloadBuilder()
                                 .WithDataset(rebuild_spec.dataset)
                                 .WithNumUsers(rebuild_spec.num_users)
                                 .WithSeed(rebuild_spec.seed)
                                 .WithPruning(rebuild_spec.prune)
                                 .Build();
  if (checker.Ok(rebuilt.status(), "catalog_churn rebuild")) {
    Digest a, b;
    a.AddWorkload(*head);
    b.AddWorkload(*rebuilt);
    TimedSolve head_solve =
        SubmitAndWait(*service, *head, request, "ratio", nullptr, 0);
    TimedSolve fresh_solve =
        SubmitAndWait(*service, *rebuilt, request, "ratio", nullptr, 0);
    if (a.value() != b.value()) {
      checker.Fail("catalog_churn: head best values/candidates != rebuild");
    } else if (!head_solve.response.ok() || !fresh_solve.response.ok() ||
               !SameSelection(*head_solve.response, *fresh_solve.response)) {
      checker.Fail("catalog_churn: head solve != rebuild solve");
    }
  }
  Record(tracer, "fam.service.rejected",
         static_cast<double>(service->stats().rejected));
  report.notes.push_back("compactions with a snapshot reopen: " +
                         std::to_string(snapshots) + "; head candidates: " +
                         std::to_string(head->candidate_count()));
  ReportEndToEnd(e2e, report);
  report.digest = digest.value();
  return report;
}

}  // namespace fam::perfbench
