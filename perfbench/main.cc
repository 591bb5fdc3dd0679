// GRETA benchmark binary. Runs one named workload (workloads.cc) through the
// production ingest path — EventBatch -> GretaEngine, or EventBatch ->
// ShardedRuntime (ShardRouter, SPSC queues, shard engines, ResultMerger) —
// timing every layer from outside through its public calls. Every pass's
// result rows are checked against a scalar reference that is itself anchored
// on the SASE oracle. The last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit status is 1 when any operation failed, so a failed
// correctness gate is never a pass. See README.md for the metric definitions.
//
// Usage: greta_perfbench --workload NAME --seed N --seconds S --trace 0|1
//        [--small] [--corrupt N] [--trace-out FILE]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "sharing/sharing_planner.h"
#include "storage/window.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using greta::EventBatch;
using greta::QuerySpec;
using greta::ResultRow;
using greta::Status;
using greta::runtime::ShardedRuntime;
using greta::sharing::SharedWorkloadEngine;

constexpr size_t kBatchRows = 256;
// Set-up is sampled in the gaps between the timed passes, so it spans the
// same stretch of the run as the passes do. Each gap first sets up once
// untimed, because the first set-up after a pass runs about 2x slower on
// caches the pass evicted, then times kSetupsPerGap set-ups. A set-up of the
// mix takes about 1 ms, and gap by gap it lands at random on one of two
// levels about 1.7x apart as the host's memory contention comes and goes, so
// the median of all samples flips between them from run to run. setup_s
// takes the fastest set-up of each block of kGapsPerBlock consecutive gaps,
// the cost without that contention, and reports the median over blocks.
constexpr int kSetupsPerGap = 3;
constexpr size_t kGapsPerBlock = 3;
constexpr int kPlanReps = 25;  // PlanSharing calls timed in a traced run
constexpr int64_t kWarmupNs = 2'000'000'000;
constexpr int64_t kExportIntervalNs = 100'000'000;  // traced runs only

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Linear-interpolated quantile; NaN for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ------------------------------------------------------------------ spans

// In-memory span log of a traced run: one span per call into a layer, with
// its parent (the span open when it began). Written out when the run ends.
class Spans {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  int Begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  // Durations (ns) of the spans named `name`.
  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }
  double TotalNs(const char* name) const {
    double total = 0.0;
    for (double d : Durations(name)) total += d;
    return total;
  }
  size_t size() const { return spans_.size(); }

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name, (s.start_ns - base) * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; a null log
// (untraced pass) records nothing.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// --------------------------------------------------------------- context

// Every operation the run attempted, and those that failed: non-OK Status
// calls, plus missing, extra or unequal rows against the reference.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;

  void Check(const greta::Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
  }
  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  void Rows(const RowCheck& check, const std::string& what) {
    attempted += check.compared;
    failed += check.failed;
    if (first_failure.empty() && check.failed > 0) {
      first_failure = what + ": " + check.first_diff;
    }
  }
};

struct Context {
  WorkloadDef def;
  greta::Catalog catalog;
  std::vector<QuerySpec> specs;
  std::vector<EventBatch> batches;
  std::vector<greta::Ts> batch_last_time;  // time of each batch's last row
  std::vector<size_t> batch_end_row;       // rows sent through batch b
  size_t events = 0;
  Reference reference;
  Tally tally;
};

// The system under test: one GretaEngine (q1_single) or a ShardedRuntime.
struct System {
  std::unique_ptr<greta::GretaEngine> single;
  std::unique_ptr<ShardedRuntime> sharded;

  greta::EngineInterface* engine() const {
    return single != nullptr ? static_cast<greta::EngineInterface*>(
                                   single.get())
                             : sharded.get();
  }
  std::vector<ResultRow> Take(size_t q) {
    return single != nullptr ? single->TakeResults() : sharded->TakeResults(q);
  }
  size_t PeakBytes() const {
    return single != nullptr ? single->memory().peak_bytes()
                             : sharded->memory().peak_bytes();
  }
  size_t ShardPeakMaxBytes() const {
    if (single != nullptr) return single->memory().peak_bytes();
    size_t peak = 0;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      peak = std::max(peak, sharded->shard_memory(s).peak_bytes());
    }
    return peak;
  }
  double EmitMs() const {
    const std::vector<greta::QueryExecStats> stats =
        single != nullptr ? single->query_exec_stats()
                          : sharded->WorkloadQueryExecStats();
    uint64_t ns = 0;
    for (const greta::QueryExecStats& q : stats) ns += q.emit_ns;
    return static_cast<double>(ns) * 1e-6;
  }
};

Status CreateSystem(const Context& ctx, const std::vector<QuerySpec>& specs,
                    System* out) {
  if (ctx.def.shards == 0) {
    auto engine = greta::GretaEngine::Create(&ctx.catalog, specs[0],
                                             ModularOptions());
    if (!engine.ok()) return engine.status();
    out->single = std::move(engine).value();
    return Status::Ok();
  }
  greta::runtime::ShardedOptions options;
  options.num_shards = ctx.def.shards;
  options.batch_size = kBatchRows;
  options.workload.engine = ModularOptions();
  auto rt = ShardedRuntime::Create(&ctx.catalog, specs, options);
  if (!rt.ok()) return rt.status();
  out->sharded = std::move(rt).value();
  return Status::Ok();
}

// --------------------------------------------------------------- set-up

// One set-up sample: parse, plan (multi-query workloads), Create, and the
// first batch accepted. The system is torn down after the clock stops.
double SetupOnce(Context* ctx, Spans* spans) {
  const int64_t t0 = NowNs();
  System sys;
  std::vector<QuerySpec> specs;
  {
    SpanScope span(spans, "parse");
    auto parsed = ParseAll(ctx->def.queries, &ctx->catalog);
    ctx->tally.Check(parsed.status(), "parse");
    if (!parsed.ok()) return 0.0;
    specs = std::move(parsed).value();
  }
  if (specs.size() > 1) {
    SpanScope span(spans, "plan");
    auto plan = greta::sharing::PlanSharing(specs, ctx->catalog);
    ctx->tally.Check(plan.status(), "plan");
  }
  Status s;
  {
    SpanScope span(spans, "create");
    s = CreateSystem(*ctx, specs, &sys);
  }
  ctx->tally.Check(s, "create");
  if (!s.ok()) return 0.0;
  {
    SpanScope span(spans, "first_batch");
    s = sys.engine()->ProcessBatch(ctx->batches[0]);
  }
  ctx->tally.Check(s, "first batch");
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

// setup_s from the timed set-ups of each gap (see kGapsPerBlock). A run of
// fewer than kGapsPerBlock gaps is one block.
double SetupSeconds(const std::vector<std::vector<double>>& gaps) {
  std::vector<double> fastest;
  const size_t blocks = std::max<size_t>(1, gaps.size() / kGapsPerBlock);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = std::min(gaps.size(), (b + 1) * kGapsPerBlock);
    double best = std::numeric_limits<double>::infinity();
    for (size_t g = b * kGapsPerBlock; g < end; ++g) {
      for (double s : gaps[g]) best = std::min(best, s);
    }
    fastest.push_back(best);
  }
  return Median(fastest);
}

// Checks the plan shape the workload is defined by (clusters by kind).
void CheckPlanShape(Context* ctx, size_t* shared, size_t* partial,
                    size_t* dedicated) {
  auto plan = greta::sharing::PlanSharing(ctx->specs, ctx->catalog);
  ctx->tally.Check(plan.status(), "plan");
  *shared = *partial = *dedicated = 0;
  if (!plan.ok()) return;
  for (const greta::sharing::QueryCluster& c : plan.value().clusters) {
    ++(!c.shared ? *dedicated : c.partial ? *partial : *shared);
  }
  if (*shared != ctx->def.expect_shared ||
      *partial != ctx->def.expect_partial ||
      *dedicated != ctx->def.expect_dedicated) {
    ctx->tally.Fail("sharing plan shape differs from the workload's");
  }
}

// Anchors the scalar reference on the SASE oracle over a scaled-down stream
// of the same generator, for every query of the workload.
void AnchorReference(Context* ctx) {
  const std::vector<EventBatch> batches =
      MakeBatches(&ctx->catalog, ctx->def.anchor, kBatchRows);
  auto greta_rows = ReferenceRows(ctx->catalog, ctx->specs, batches);
  auto oracle_rows = OracleRows(ctx->catalog, ctx->specs, batches);
  ctx->tally.Check(greta_rows.status(), "anchor reference");
  ctx->tally.Check(oracle_rows.status(), "anchor oracle");
  if (!greta_rows.ok() || !oracle_rows.ok()) return;
  size_t rows = 0;
  for (size_t q = 0; q < ctx->specs.size(); ++q) {
    rows += oracle_rows.value()[q].size();
    ctx->tally.Rows(CompareRows(greta_rows.value().rows[q],
                                oracle_rows.value()[q],
                                greta_rows.value().plans[q]),
                    "anchor query " + std::to_string(q));
  }
  ++ctx->tally.attempted;
  if (rows == 0) ctx->tally.Fail("the SASE anchor produced no rows");
  std::printf("anchor: %zu oracle rows over %zu events, %zu queries\n", rows,
              TotalRows(batches), ctx->specs.size());
}

// ---------------------------------------------------------------- passes

struct PassResult {
  double wall_s = 0.0;  // first send until Flush returns
  double cpu_s = 0.0;   // process user+sys over the same interval
  double sender_cpu_s = 0.0;
  std::vector<double> latency_ms;  // one per window closed before Flush
  std::vector<double> late_ms;     // one per send
  double peak_mb = 0.0;
  double shard_peak_mb_max = 0.0;
  double producer_stalls = 0.0;
  double queue_depth_hwm = 0.0;
  double emit_ms = 0.0;
  std::vector<double> export_ms;
  size_t series = 0;
};

void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t now = NowNs();
    if (now >= due_ns) return;
    // Sleep through most of a long wait, spin the last stretch.
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
    }
  }
}

size_t CountSeries(const std::string& exposition) {
  size_t n = 0;
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    if (end > pos && exposition[pos] != '#') ++n;
    pos = end + 1;
  }
  return n;
}

// One pass of the whole stream through a fresh system. Creation and
// teardown are outside the timed interval.
PassResult RunPass(Context* ctx, Spans* spans, bool corrupt) {
  PassResult r;
  System sys;
  Status s = CreateSystem(*ctx, ctx->specs, &sys);
  ctx->tally.Check(s, "create");
  if (!s.ok()) return r;

  const size_t nq = ctx->specs.size();
  const size_t nb = ctx->batches.size();
  const bool paced = ctx->def.paced_events_per_s > 0.0;
  std::vector<int64_t> send_ns(nb, 0);
  std::vector<std::vector<int64_t>> first_take(nq);  // [query][wid]
  QueryRows got(nq);
  auto take_all = [&](bool sample) {
    SpanScope span(spans, "take_results");
    for (size_t q = 0; q < nq; ++q) {
      std::vector<ResultRow> rows = sys.Take(q);
      const int64_t now = NowNs();
      for (ResultRow& row : rows) {
        if (sample) {
          std::vector<int64_t>& seen = first_take[q];
          const size_t wid = static_cast<size_t>(row.wid);
          if (wid >= seen.size()) seen.resize(wid + 1, -1);
          if (seen[wid] < 0) seen[wid] = now;
        }
        got[q].push_back(std::move(row));
      }
    }
  };

  SpanScope pass_span(spans, "pass");
  const double cpu0 = ProcessCpuS();
  const double sender0 = ThreadCpuS();
  const int64_t t0 = NowNs();
  int64_t next_export = t0 + kExportIntervalNs;
  int64_t accepted = t0;  // when the previous send returned
  for (size_t b = 0; b < nb; ++b) {
    // Open loop: batch b is due when its last event is due at the offered
    // rate. Closed loop: it is due as soon as the previous send returned.
    // Either way a send is late by how long after its due time the system
    // accepted it.
    int64_t due = accepted;
    if (paced) {
      due = t0 + static_cast<int64_t>(
                     static_cast<double>(ctx->batch_end_row[b]) * 1e9 /
                     ctx->def.paced_events_per_s);
      WaitUntil(due);
    }
    send_ns[b] = paced ? due : NowNs();
    {
      SpanScope span(spans, "ingest");
      s = sys.engine()->ProcessBatch(ctx->batches[b]);
    }
    accepted = NowNs();
    r.late_ms.push_back(static_cast<double>(accepted - due) * 1e-6);
    ctx->tally.Check(s, "ProcessBatch");
    take_all(/*sample=*/true);
    if (spans != nullptr && NowNs() >= next_export) {
      const int64_t e0 = NowNs();
      SpanScope span(spans, "export");
      const std::string text = greta::telemetry::ExportPrometheus(
          greta::telemetry::MetricRegistry::Default());
      r.series = CountSeries(text);
      r.export_ms.push_back(static_cast<double>(NowNs() - e0) * 1e-6);
      next_export += kExportIntervalNs;
    }
  }
  {
    SpanScope span(spans, "flush");
    s = sys.engine()->Flush();
  }
  const int64_t t_end = NowNs();
  r.cpu_s = ProcessCpuS() - cpu0;
  r.sender_cpu_s = ThreadCpuS() - sender0;
  ctx->tally.Check(s, "Flush");
  r.wall_s = static_cast<double>(t_end - t0) * 1e-9;
  take_all(/*sample=*/false);  // rows drained at Flush carry no latency

  // Window latency: from the send of the first event at or past the
  // window's close time to the TakeResults that returned its rows.
  for (size_t q = 0; q < nq; ++q) {
    const greta::WindowSpec& w = ctx->specs[q].window;
    for (size_t wid = 0; wid < first_take[q].size(); ++wid) {
      if (first_take[q][wid] < 0) continue;
      const greta::Ts close =
          greta::WindowCloseTime(static_cast<greta::WindowId>(wid), w);
      auto it = std::lower_bound(ctx->batch_last_time.begin(),
                                 ctx->batch_last_time.end(), close);
      if (it == ctx->batch_last_time.end()) continue;
      const size_t b = static_cast<size_t>(it - ctx->batch_last_time.begin());
      r.latency_ms.push_back(
          static_cast<double>(first_take[q][wid] - send_ns[b]) * 1e-6);
    }
  }

  r.peak_mb = static_cast<double>(sys.PeakBytes()) * 1e-6;
  r.shard_peak_mb_max = static_cast<double>(sys.ShardPeakMaxBytes()) * 1e-6;
  r.emit_ms = sys.EmitMs();
  if (sys.sharded != nullptr) {
    for (size_t sh = 0; sh < sys.sharded->num_shards(); ++sh) {
      const ShardedRuntime::ShardQueueStats qs =
          sys.sharded->shard_queue_stats(sh);
      r.producer_stalls += static_cast<double>(qs.producer_stalls);
      r.queue_depth_hwm = std::max(r.queue_depth_hwm,
                                   static_cast<double>(qs.depth_high_watermark));
    }
  }

  if (corrupt && !got[0].empty()) {
    got[0][0].aggs.count.AddOne(greta::CounterMode::kModular);
  }
  for (size_t q = 0; q < nq; ++q) {
    ctx->tally.Rows(CompareRows(got[q], ctx->reference.rows[q],
                                ctx->reference.plans[q]),
                    "query " + std::to_string(q));
  }
  return r;
}

// ---------------------------------------------------- standalone replays

struct ReplayResult {
  double route_ns_per_event = 0.0;
  double shard_skew = 0.0;
  std::vector<double> shard_busy_s;
  double engine_ns_per_event = 0.0;
  double edges_per_event = 0.0;
  double batch_rows_frac = 0.0;
  double simd_rows_frac = 0.0;
};

// Routes the stream with the workload's own ShardRouter (timed per
// ShardOfRows call), then replays each shard's slice into a standalone
// engine of the kind the shard runs — single-threaded, so each slice's busy
// time is the shard's engine work without queueing.
ReplayResult ReplayShards(Context* ctx, Spans* spans) {
  ReplayResult r;
  const size_t num_shards = std::max<size_t>(1, ctx->def.shards);
  auto router = greta::runtime::ShardRouter::Create(ctx->specs, ctx->catalog,
                                                    num_shards);
  ctx->tally.Check(router.status(), "ShardRouter::Create");
  if (!router.ok()) return r;
  const greta::runtime::ShardRouter& rt = router.value();

  std::vector<std::vector<EventBatch>> slices(rt.num_shards());
  std::vector<int> targets;
  double route_ns = 0.0;
  for (const EventBatch& batch : ctx->batches) {
    targets.resize(batch.size());
    {
      const int64_t t0 = NowNs();
      SpanScope span(spans, "route");
      rt.ShardOfRows(batch, targets.data());
      route_ns += static_cast<double>(NowNs() - t0);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t sh = 0; sh < slices.size(); ++sh) {
        if (targets[i] != static_cast<int>(sh) &&
            targets[i] != greta::runtime::ShardRouter::kBroadcast) {
          continue;
        }
        std::vector<EventBatch>& slice = slices[sh];
        if (slice.empty() || slice.back().size() >= kBatchRows) {
          slice.emplace_back();
        }
        slice.back().Append(batch.ref(i));
      }
    }
  }
  r.route_ns_per_event = route_ns / static_cast<double>(ctx->events);

  size_t slice_events = 0;
  size_t max_events = 0;
  greta::EngineStats total;
  for (size_t sh = 0; sh < slices.size(); ++sh) {
    const size_t n = TotalRows(slices[sh]);
    slice_events += n;
    max_events = std::max(max_events, n);
    std::unique_ptr<greta::EngineInterface> engine;
    if (ctx->specs.size() == 1) {
      auto e = greta::GretaEngine::Create(&ctx->catalog, ctx->specs[0],
                                          ModularOptions());
      ctx->tally.Check(e.status(), "replay create");
      if (!e.ok()) return r;
      engine = std::move(e).value();
    } else {
      greta::sharing::SharedEngineOptions options;
      options.engine = ModularOptions();
      auto e = SharedWorkloadEngine::Create(&ctx->catalog, ctx->specs, options);
      ctx->tally.Check(e.status(), "replay create");
      if (!e.ok()) return r;
      engine = std::move(e).value();
    }
    const int64_t t0 = NowNs();
    {
      SpanScope span(spans, "shard_replay");
      for (const EventBatch& batch : slices[sh]) {
        ctx->tally.Check(engine->ProcessBatch(batch), "replay ProcessBatch");
      }
      ctx->tally.Check(engine->Flush(), "replay Flush");
      engine->TakeResults();
    }
    r.shard_busy_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    const greta::EngineStats& st = engine->stats();
    total.edges_traversed += st.edges_traversed;
    total.batch_rows_fast += st.batch_rows_fast;
    total.simd_rows += st.simd_rows;
  }
  const double events = static_cast<double>(std::max<size_t>(1, slice_events));
  r.shard_skew = static_cast<double>(max_events) * slices.size() / events;
  double busy = 0.0;
  for (double b : r.shard_busy_s) busy += b;
  r.engine_ns_per_event = busy * 1e9 / events;
  r.edges_per_event = static_cast<double>(total.edges_traversed) / events;
  r.batch_rows_frac = static_cast<double>(total.batch_rows_fast) / events;
  r.simd_rows_frac = static_cast<double>(total.simd_rows) / events;
  return r;
}

// The sharing layer alone: the workload's queries in one standalone
// SharedWorkloadEngine over the whole stream; its rows are checked too.
double SharingNsPerEvent(Context* ctx, Spans* spans) {
  greta::sharing::SharedEngineOptions options;
  options.engine = ModularOptions();
  auto engine = SharedWorkloadEngine::Create(&ctx->catalog, ctx->specs, options);
  ctx->tally.Check(engine.status(), "sharing create");
  if (!engine.ok()) return 0.0;
  SharedWorkloadEngine* e = engine.value().get();
  const int64_t t0 = NowNs();
  {
    SpanScope span(spans, "sharing_replay");
    for (const EventBatch& batch : ctx->batches) {
      ctx->tally.Check(e->ProcessBatch(batch), "sharing ProcessBatch");
    }
    ctx->tally.Check(e->Flush(), "sharing Flush");
  }
  const double ns = static_cast<double>(NowNs() - t0);
  for (size_t q = 0; q < ctx->specs.size(); ++q) {
    ctx->tally.Rows(CompareRows(e->TakeResults(q), ctx->reference.rows[q],
                                ctx->reference.plans[q]),
                    "sharing query " + std::to_string(q));
  }
  return ns / static_cast<double>(ctx->events);
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  size_t corrupt = 0;  // passes whose first row is corrupted (self-test)
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--small") {
      a->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (key == "--corrupt") {
      a->corrupt = std::strtoull(v, nullptr, 10);
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

int Run(const Args& args) {
  Context ctx;
  if (!FindWorkload(args.workload, args.seed, args.small, &ctx.def)) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    std::fprintf(stderr, "unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }

  // Load generation and the reference happen before any timing.
  const int64_t prep0 = NowNs();
  ctx.batches = MakeBatches(&ctx.catalog, ctx.def.stream, kBatchRows);
  for (const EventBatch& b : ctx.batches) {
    ctx.events += b.size();
    ctx.batch_last_time.push_back(b.time(b.size() - 1));
    ctx.batch_end_row.push_back(ctx.events);
  }
  auto specs = ParseAll(ctx.def.queries, &ctx.catalog);
  if (!specs.ok()) {
    std::fprintf(stderr, "parse: %s\n", specs.status().ToString().c_str());
    return 1;
  }
  ctx.specs = std::move(specs).value();
  auto reference = ReferenceRows(ctx.catalog, ctx.specs, ctx.batches);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  ctx.reference = std::move(reference).value();
  const int64_t prep1 = NowNs();
  AnchorReference(&ctx);
  size_t shared = 0, partial = 0, dedicated = 0;
  CheckPlanShape(&ctx, &shared, &partial, &dedicated);
  std::printf("workload %s seed %llu: %zu events in %zu batches, %zu queries, "
              "clusters shared/partial/dedicated %zu/%zu/%zu; inputs and "
              "reference %.2f s, anchor %.2f s\n",
              ctx.def.name.c_str(), static_cast<unsigned long long>(args.seed),
              ctx.events, ctx.batches.size(), ctx.specs.size(), shared,
              partial, dedicated, static_cast<double>(prep1 - prep0) * 1e-9,
              static_cast<double>(NowNs() - prep1) * 1e-9);

  Spans spans;
  Spans* tracer = args.trace ? &spans : nullptr;
  std::vector<std::vector<double>> setup_gaps;  // timed set-ups, per gap

  // Warm-up: the first passes in a process run 1.5-2x slower.
  for (const int64_t t0 = NowNs(); NowNs() - t0 < kWarmupNs;) {
    RunPass(&ctx, nullptr, false);
  }

  // Timed passes. A traced run alternates untraced and traced passes so the
  // tracing overhead is measured inside one process.
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  size_t corrupt_left = args.corrupt;
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    const bool done = static_cast<double>(NowNs() - start) * 1e-9 >=
                      args.seconds;
    if (done && !plain.empty() && (!args.trace || !traced.empty())) break;
    SetupOnce(&ctx, nullptr);
    setup_gaps.emplace_back();
    for (int k = 0; k < kSetupsPerGap; ++k) {
      setup_gaps.back().push_back(SetupOnce(&ctx, tracer));
    }
    const bool traced_pass = args.trace && i % 2 == 1;
    PassResult r = RunPass(&ctx, traced_pass ? tracer : nullptr,
                           corrupt_left > 0);
    if (corrupt_left > 0) --corrupt_left;
    (traced_pass ? traced : plain).push_back(std::move(r));
  }

  auto collect = [](const std::vector<PassResult>& passes, auto field) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(field(p));
    return v;
  };
  auto pooled = [](const std::vector<PassResult>& passes, auto samples) {
    std::vector<double> all;
    for (const PassResult& p : passes) {
      const std::vector<double> s = samples(p);
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };
  const double events = static_cast<double>(ctx.events);
  std::vector<double> setup_all;
  for (const std::vector<double>& gap : setup_gaps) {
    setup_all.insert(setup_all.end(), gap.begin(), gap.end());
  }
  // p50 pools the samples of every timed pass. A p99 is taken per pass and
  // reported as its median over passes: the tail of a typical pass. Pooled,
  // the tail is set by how many passes a host stall happened to hit (on
  // q1_sharded it moved between 6 and 13 ms from run to run); the pooled
  // p99 is printed alongside.
  auto latency_of = [](const PassResult& p) { return p.latency_ms; };
  auto late_of = [](const PassResult& p) { return p.late_ms; };
  const std::vector<double> latency = pooled(plain, latency_of);
  const std::vector<double> late = pooled(plain, late_of);
  auto p99_per_pass = [&](auto samples) {
    std::vector<double> v;
    for (const PassResult& p : plain) {
      if (!samples(p).empty()) v.push_back(Quantile(samples(p), 0.99));
    }
    return Median(v);
  };
  ++ctx.tally.attempted;
  if (latency.empty()) ctx.tally.Fail("no window closed before Flush");

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double> eps = collect(
        plain, [events](const PassResult& p) { return events / p.wall_s; });
    const std::vector<double> cpu = collect(plain, [events](const PassResult& p) {
      return p.cpu_s / (events * 1e-6);
    });
    metrics = {
        {"throughput_eps", Median(eps), "events/s"},
        {"cpu_s_per_mev", Median(cpu), "s/Mevent"},
        {"latency_p50_ms", Quantile(latency, 0.50), "ms"},
        {"latency_p99_ms", p99_per_pass(latency_of), "ms"},
        {"send_late_p99_ms", p99_per_pass(late_of), "ms"},
        {"peak_state_mb",
         Median(collect(plain, [](const PassResult& p) { return p.peak_mb; })),
         "MB"},
        {"setup_s", SetupSeconds(setup_gaps), "s"},
    };
    std::printf("passes: %zu of %zu events; throughput q1/q3 %.0f/%.0f ev/s; "
                "%zu latency samples, pooled p99 %.4g ms; %zu sends, pooled "
                "p99 late %.4g ms; %zu set-ups in %zu gaps, median of all "
                "%.4g s (q1/q3 %.4g/%.4g)\n",
                plain.size(), ctx.events, Quantile(eps, 0.25),
                Quantile(eps, 0.75), latency.size(), Quantile(latency, 0.99),
                late.size(), Quantile(late, 0.99), setup_all.size(),
                setup_gaps.size(), Median(setup_all), Quantile(setup_all, 0.25),
                Quantile(setup_all, 0.75));
  } else {
    const ReplayResult replay = ReplayShards(&ctx, tracer);
    const double sharing_ns = SharingNsPerEvent(&ctx, tracer);
    std::vector<double> plan_ms;
    for (int i = 0; i < kPlanReps; ++i) {
      const int64_t t0 = NowNs();
      SpanScope span(tracer, "plan");
      auto plan = greta::sharing::PlanSharing(ctx.specs, ctx.catalog);
      ctx.tally.Check(plan.status(), "plan");
      plan_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    }
    // Traced passes are the spans recorded after set-up; derive the
    // runtime-layer numbers from them.
    const double traced_events = events * static_cast<double>(traced.size());
    const std::vector<double> take_ns = spans.Durations("take_results");
    const std::vector<double> flush_ns = spans.Durations("flush");
    const std::vector<double> parse_ns = spans.Durations("parse");
    auto med = [&](auto field) { return Median(collect(traced, field)); };
    double busy_max = 0.0;
    double busy_mean = 0.0;
    for (double b : replay.shard_busy_s) {
      busy_max = std::max(busy_max, b);
      busy_mean += b / static_cast<double>(replay.shard_busy_s.size());
    }
    const double traced_wall = med([](const PassResult& p) { return p.wall_s; });
    const double plain_wall =
        Median(collect(plain, [](const PassResult& p) { return p.wall_s; }));
    const double sender_s =
        med([](const PassResult& p) { return p.sender_cpu_s; });
    const std::vector<double> export_ms =
        pooled(traced, [](const PassResult& p) { return p.export_ms; });
    metrics = {
        {"runtime.route_ns_per_event", replay.route_ns_per_event, "ns"},
        {"runtime.ingest_ns_per_event",
         spans.TotalNs("ingest") / traced_events, "ns"},
        {"runtime.producer_stalls",
         med([](const PassResult& p) { return p.producer_stalls; }), "count"},
        {"runtime.queue_depth_hwm",
         med([](const PassResult& p) { return p.queue_depth_hwm; }),
         "batches"},
        {"runtime.shard_skew", replay.shard_skew, "ratio"},
        {"runtime.take_results_us", Median(take_ns) * 1e-3, "us"},
        {"runtime.flush_ms", Median(flush_ns) * 1e-6, "ms"},
        {"runtime.sender_busy_s", sender_s, "s"},
        {"core.engine_ns_per_event", replay.engine_ns_per_event, "ns"},
        {"core.edges_per_event", replay.edges_per_event, "count"},
        {"core.batch_rows_frac", replay.batch_rows_frac, "frac"},
        {"core.simd_rows_frac", replay.simd_rows_frac, "frac"},
        {"core.shard_busy_max_s", busy_max, "s"},
        {"core.shard_busy_mean_s", busy_mean, "s"},
        {"core.emit_ms", med([](const PassResult& p) { return p.emit_ms; }),
         "ms"},
        {"sharing.engine_ns_per_event", sharing_ns, "ns"},
        {"sharing.plan_ms", Median(plan_ms), "ms"},
        {"sharing.clusters_shared", static_cast<double>(shared), "count"},
        {"sharing.clusters_partial", static_cast<double>(partial), "count"},
        {"sharing.clusters_dedicated", static_cast<double>(dedicated),
         "count"},
        {"storage.shard_peak_mb_max",
         med([](const PassResult& p) { return p.shard_peak_mb_max; }), "MB"},
        {"query.parse_us", Median(parse_ns) * 1e-3, "us"},
        {"telemetry.export_ms", Median(export_ms), "ms"},
        {"telemetry.series",
         med([](const PassResult& p) { return static_cast<double>(p.series); }),
         "count"},
        {"trace.overhead_frac", traced_wall / plain_wall - 1.0, "frac"},
    };
    std::printf("tracing overhead: traced pass %.4f s vs untraced median "
                "%.4f s (%zu traced, %zu untraced passes)\n",
                traced_wall, plain_wall, traced.size(), plain.size());
    if (ctx.def.shards > 0 && ctx.def.paced_events_per_s == 0.0) {
      std::printf("critical path %s: sender %.4f s, slowest shard %.4f s, "
                  "wall %.4f s per pass -> serial stage: %s\n",
                  ctx.def.name.c_str(), sender_s, busy_max, traced_wall,
                  sender_s >= busy_max ? "sender" : "slowest shard");
    }
    if (!args.trace_out.empty()) {
      if (spans.Write(args.trace_out)) {
        std::printf("spans: %zu written to %s\n", spans.size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      }
    }
  }
  const double error_frac =
      static_cast<double>(ctx.tally.failed) /
      static_cast<double>(std::max<size_t>(1, ctx.tally.attempted));
  std::printf("error_frac: %.6g (%zu failed of %zu attempted)%s%s\n",
              error_frac, ctx.tally.failed, ctx.tally.attempted,
              ctx.tally.failed > 0 ? "; first: " : "",
              ctx.tally.first_failure.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(ctx.tally, metrics);
  return ctx.tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--small] [--corrupt N] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
