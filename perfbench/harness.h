// Shared machinery of the end-to-end benchmark: run options and input
// sizes, the in-memory span tracer, answer checks, output digests, and the
// metric report printed as the run's last line.
//
// The benchmark drives the library only through its public entry points.
// Spans are recorded here, around the calls into each layer, never inside
// src/: an untraced run (trace 0) carries no tracer at all, and a traced
// run (trace 1) keeps every span in memory and writes them out when the
// run ends.

#ifndef FAM_PERFBENCH_HARNESS_H_
#define FAM_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "fam/fam.h"

namespace fam::perfbench {

/// Input sizes of one scale. `Full` is what the benchmark measures;
/// `Toy` runs every workload in seconds for the self-test.
struct Sizes {
  // cold_build: one independent dataset, a fresh Θ seed per build.
  size_t cold_points = 0;
  size_t cold_users = 0;
  // serve_mix: a large anti-correlated dataset (arr + topk:5 tenants) and
  // a small one (cvar:0.9 + rank-regret tenants).
  size_t serve_points = 0;
  size_t serve_users = 0;
  size_t serve_small_points = 0;
  size_t serve_small_users = 0;
  // catalog_churn: an independent base catalog and its mutation batches.
  size_t churn_points = 0;
  size_t churn_users = 0;
  size_t churn_insert_batch = 0;
  size_t churn_delete_batch = 0;
  // Traced runs: the small instance that covers layers a workload lacks.
  size_t probe_points = 0;
  size_t probe_users = 0;
  /// Set-ups per run; setup_s is their median.
  size_t setup_repeats = 0;
  /// Ops every run completes however short --seconds is; the output
  /// digest covers exactly this prefix, so it is the same on every run
  /// of one seed.
  size_t digest_ops = 0;

  static Sizes Full();
  static Sizes Toy();
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  /// Index of the checked solve whose selection is corrupted after the
  /// solve (one index flipped); -1 = none. The self-test uses it to prove
  /// that a wrong answer is counted as a failed op.
  int64_t inject_wrong = -1;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
  /// Directory for snapshot files; created and emptied by the run.
  std::string scratch_dir = ".bench_build/scratch";
  /// Expected output digests, keyed "<scale>/<workload>/<seed>".
  std::string expected_path;
  /// Build stamp handed in by run.py (commit, source digest).
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Seed of every workload's catalog (its datasets). Catalogs are fixed;
/// --seed draws the users Θ, the request order and k, and the mutation
/// stream. Runs on different seeds thus vary what users ask of one
/// catalog, not the catalog's shape: an anti-correlated catalog's skyline
/// alone moves solve times by 15% from one generator seed to the next.
inline constexpr uint64_t kCatalogSeed = 0;

/// Derives an independent 64-bit seed for one input from the run seed.
uint64_t DeriveSeed(uint64_t run_seed, std::string_view tag,
                    uint64_t index = 0);

double NowSeconds();

/// Fisher–Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`; NaN if empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// --- Tracing -------------------------------------------------------------

/// In-memory span recorder. Thread-safe. Every span carries its name,
/// start and end (ns since the tracer was created), the id of the span
/// that was open on the same thread when it began (0 = none), and the id
/// of the op it belongs to, shared by every span of one op.
class Tracer {
 public:
  Tracer();

  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  uint32_t Begin(std::string_view name, uint64_t op);
  void End(uint32_t id);

  /// A value the program reported (a response counter, a query time, a
  /// byte count), recorded under `name`.
  void Record(std::string_view name, double value);

  std::vector<double> DurationsMs(std::string_view name) const;
  std::vector<double> Values(std::string_view name) const;
  size_t span_count() const;

  /// Appends `"spans":[...],"values":{...}` (no braces) to `out`.
  void AppendJson(std::string& out) const;

 private:
  struct SpanRecord {
    std::string name;
    uint32_t parent = 0;
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  int64_t Now() const;

  const int64_t origin_ns_;
  std::atomic<uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // span id = index + 1
  std::vector<std::pair<std::string, double>> values_;
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_ = 0;
};

inline void Record(Tracer* tracer, std::string_view name, double value) {
  if (tracer != nullptr) tracer->Record(name, value);
}

// --- Answer checks and digests -------------------------------------------

/// Counts attempted and failed ops. An op fails when its call returns an
/// error or its answer does not re-score exactly; there is no silent pass.
class Checker {
 public:
  explicit Checker(int64_t inject_wrong) : inject_wrong_(inject_wrong) {}

  void Attempt() { ++attempted_; }
  void Fail(std::string_view what);
  /// Fails unless `status` is OK.
  bool Ok(const Status& status, std::string_view what);

  /// Re-scores `response`'s selection on `workload` independently of the
  /// solver — RegretEvaluator::AverageRegretRatio for arr, the measure's
  /// own SelectionObjective otherwise — and requires exact equality with
  /// the response, k distinct in-range indices, and no truncation. Counts
  /// one attempted op. Applies the injected corruption first when this is
  /// the chosen checked solve.
  bool CheckSolve(const Workload& workload, size_t k,
                  SolveResponse response, std::string_view what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<int64_t> checked_solves_{0};
  const int64_t inject_wrong_;
};

/// Order-sensitive digest of a run's outputs.
class Digest {
 public:
  void Add(std::string_view tag) { hash_.String(tag); }
  void AddSelection(const Selection& selection);
  /// Best-in-DB values and points plus the candidate list.
  void AddWorkload(const Workload& workload);
  uint64_t value() const { return hash_.hash(); }

 private:
  Fnv64 hash_;
};

// --- Serving ---------------------------------------------------------------

struct TimedSolve {
  Result<SolveResponse> response = Status::Internal("not run");
  /// Client-side latency: Submit through Wait.
  double client_ms = 0.0;
};

/// One closed-loop request: Service::Submit, then JobHandle::Wait. When
/// traced, records the submit/wait spans and the response's own numbers:
/// `core.<solver>.<measure_class>.query_ms` (SolveResponse::query_seconds),
/// `fam.service.wait_ms` (client latency − query time), and the kernel
/// counters (batch-gain ns and elements, lazy-queue hits and re-evaluations).
TimedSolve SubmitAndWait(Service& service, const Workload& workload,
                         const SolveRequest& request,
                         std::string_view measure_class, Tracer* tracer,
                         uint64_t op);

// --- The report ----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run hands back to main(): its metrics (end-to-end ones when
/// untraced, per-layer ones when traced) and its output digest.
struct RunReport {
  std::vector<Metric> metrics;
  uint64_t digest = 0;
  /// Human-readable lines printed before the result (sample counts...).
  std::vector<std::string> notes;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// Latency samples of one kind of op, split into classes (a solver and
/// measure, an insert or a delete) whose latencies differ by up to
/// orders of magnitude.
using ClassedSamples = std::map<std::string, std::vector<double>>;

/// Samples every workload reports for the end-to-end metrics: the set-up
/// times, the headline op ("op") and the workload's second kind of op
/// ("op2") latencies, and the measured window.
struct EndToEnd {
  std::vector<double> setup_s;
  /// Peak RSS when set-up ends (PeakRssMb), before the measured loop: the
  /// memory a workload needs to start serving. Later peaks follow
  /// allocator history, which varies from run to run by ±20% on the
  /// mutation-heavy workload.
  double setup_rss_mb = 0.0;
  ClassedSamples op_ms;
  ClassedSamples op2_ms;
  double window_s = 0.0;
};

/// The geometric mean over classes of each class's percentile p. A pooled
/// percentile of a multi-modal mix moves whenever the mix shifts a little;
/// this one depends only on each class's own latencies.
double ClassPercentile(const ClassedSamples& samples, double p);

/// Turns `e2e` into the end-to-end metrics: setup_s (median of the
/// set-ups), peak_rss_mb (setup_rss_mb), op_ms_p50 / op_ms_p90 / op2_ms_p50
/// (ClassPercentile), and ops_per_s (op and op2 completed per second of
/// the window). Sample counts go to the notes.
void ReportEndToEnd(const EndToEnd& e2e, RunReport& report);

struct RunContext {
  const Options& options;
  const Sizes& sizes;
  /// Null in untraced runs.
  Tracer* tracer;
  /// The layer probe's own tracer (traced runs only).
  Tracer* probe_tracer;
  Checker& checker;
};

}  // namespace fam::perfbench

#endif  // FAM_PERFBENCH_HARNESS_H_
