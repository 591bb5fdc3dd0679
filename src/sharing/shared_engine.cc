#include "sharing/shared_engine.h"

#include "telemetry/telemetry.h"

namespace greta::sharing {

namespace {

void Accumulate(QueryExecStats* acc, const QueryExecStats& s) {
  acc->windows_closed += s.windows_closed;
  acc->events_routed += s.events_routed;
  acc->vertices_created += s.vertices_created;
  acc->edges_traversed += s.edges_traversed;
  acc->rows_emitted += s.rows_emitted;
  acc->emit_ns += s.emit_ns;
}

}  // namespace

StatusOr<std::unique_ptr<SharedWorkloadEngine>> SharedWorkloadEngine::Create(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const SharedEngineOptions& options) {
  // Partial sharing leans on skip-till-any-match semantics (the restricted
  // semantics tie per-event bookkeeping to one query's structure); other
  // semantics fall back to exact sharing + dedicated runtimes.
  SharingOptions sharing = options.sharing;
  if (options.engine.semantics != Semantics::kSkipTillAnyMatch) {
    sharing.enable_partial_sharing = false;
  }
  StatusOr<SharingPlan> plan = PlanSharing(workload, *catalog, sharing);
  if (!plan.ok()) return plan.status();

  auto engine =
      std::unique_ptr<SharedWorkloadEngine>(new SharedWorkloadEngine());
  engine->catalog_ = catalog;
  engine->plan_ = std::move(plan).value();
  engine->routes_.resize(workload.size());

  // Every unit runtime accounts into the workload-wide tracker so
  // stats().peak_bytes is a true point-in-time peak. A caller-provided
  // tracker becomes the parent: the workload keeps its own accounting and
  // rolls every allocation up (sharded runtimes aggregate shards this way).
  engine->memory_.set_parent(options.engine.memory);
  engine->unit_options_ = options.engine;
  engine->unit_options_.memory = &engine->memory_;

  engine->clusters_.reserve(engine->plan_.clusters.size());
  for (size_t ci = 0; ci < engine->plan_.clusters.size(); ++ci) {
    QueryCluster& cluster = engine->plan_.clusters[ci];
    ClusterState cs;
    cs.query_ids = cluster.query_ids;
    cs.merged = cluster.shared;
    cs.partial = cluster.partial;
    Status s = engine->BuildClusterEngines(&cs, workload);
    if (!s.ok()) {
      if (cluster.partial && s.code() == StatusCode::kUnsupported) {
        // A partial cluster the merged planner cannot execute (e.g. the
        // union window exceeds the per-event window limit) degrades to
        // dedicated runtimes instead of failing the workload. Any other
        // error means the pooling and the plan builder disagree — a bug
        // that must surface, not be silently papered over.
        cluster.shared = false;
        cs.merged = false;
        cs.partial = false;
        cs.engines.clear();
        s = engine->BuildClusterEngines(&cs, workload);
      }
      if (!s.ok()) return s;
    }

#if GRETA_TELEMETRY
    // Execution mode of the cluster (0 = merged, 1 = dedicated), labeled
    // {shard=,cluster=}; constant for the engine's lifetime.
    if (telemetry::Gauge* mode = telemetry::MetricRegistry::Default().GaugeIf(
            telemetry::Labeled("greta_sharing_cluster_mode", "shard",
                               options.telemetry_shard, "cluster", ci))) {
      mode->Set(cs.merged ? 0.0 : 1.0);
    }
#endif

    for (size_t slot = 0; slot < cs.query_ids.size(); ++slot) {
      engine->routes_[cs.query_ids[slot]] = {ci, slot};
    }
    engine->clusters_.push_back(std::move(cs));
  }
  return engine;
}

Status SharedWorkloadEngine::BuildClusterEngines(
    ClusterState* cluster, const std::vector<QuerySpec>& workload) {
  if (cluster->merged) {
    std::vector<const QuerySpec*> specs;
    specs.reserve(cluster->query_ids.size());
    for (size_t q : cluster->query_ids) specs.push_back(&workload[q]);
    StatusOr<std::unique_ptr<GretaEngine>> unit =
        cluster->partial
            ? GretaEngine::CreatePartial(catalog_, specs, unit_options_)
            : GretaEngine::CreateMulti(catalog_, specs, unit_options_);
    if (!unit.ok()) return unit.status();
    cluster->engines.push_back(std::move(unit).value());
    return Status::Ok();
  }
  for (size_t q : cluster->query_ids) {
    StatusOr<std::unique_ptr<GretaEngine>> unit =
        GretaEngine::Create(catalog_, workload[q], unit_options_);
    if (!unit.ok()) return unit.status();
    cluster->engines.push_back(std::move(unit).value());
  }
  return Status::Ok();
}

GretaEngine* SharedWorkloadEngine::EngineFor(const Route& route) const {
  const ClusterState& c = clusters_[route.cluster];
  return c.merged ? c.engines[0].get() : c.engines[route.slot].get();
}

size_t SharedWorkloadEngine::EngineSlot(const Route& route) const {
  return clusters_[route.cluster].merged ? route.slot : 0;
}

void SharedWorkloadEngine::set_result_callback(
    std::function<void(size_t query_id, const ResultRow& row)> callback) {
  callback_ = std::move(callback);
  for (size_t qid = 0; qid < routes_.size(); ++qid) {
    EngineFor(routes_[qid])
        ->set_result_callback(EngineSlot(routes_[qid]),
                              [this, qid](const ResultRow& row) {
                                if (callback_) callback_(qid, row);
                              });
  }
}

Status SharedWorkloadEngine::Process(const Event& e) {
  for (ClusterState& cluster : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : cluster.engines) {
      Status s = unit->Process(e);
      if (!s.ok()) return s;
    }
  }
  ++events_processed_;
  return Status::Ok();
}

Status SharedWorkloadEngine::Flush() {
  for (ClusterState& cluster : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : cluster.engines) {
      Status s = unit->Flush();
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status SharedWorkloadEngine::AdvanceWatermark(Ts now) {
  for (ClusterState& cluster : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : cluster.engines) {
      Status s = unit->AdvanceWatermark(now);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

WindowSpec SharedWorkloadEngine::emission_window(size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  return EngineFor(routes_[query_id])->plan().window;
}

size_t SharedWorkloadEngine::RecomputeTrackedBytes() const {
  size_t bytes = 0;
  for (const ClusterState& cluster : clusters_) {
    for (const std::unique_ptr<GretaEngine>& unit : cluster.engines) {
      bytes += unit->RecomputeTrackedBytes();
    }
  }
  return bytes;
}

std::vector<ResultRow> SharedWorkloadEngine::TakeResults() {
  std::vector<ResultRow> all;
  for (size_t q = 0; q < routes_.size(); ++q) {
    std::vector<ResultRow> rows = TakeResults(q);
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return all;
}

std::vector<ResultRow> SharedWorkloadEngine::TakeResults(size_t query_id) {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  return EngineFor(route)->TakeResultsFor(EngineSlot(route));
}

const AggPlan& SharedWorkloadEngine::agg_plan_for(size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const ExecPlan& plan = EngineFor(route)->plan();
  return plan.query_aggs.empty() ? plan.agg
                                 : plan.query_aggs[EngineSlot(route)];
}

std::vector<QueryExecStats> SharedWorkloadEngine::query_exec_stats() const {
  std::vector<QueryExecStats> out(routes_.size());
  for (size_t qid = 0; qid < routes_.size(); ++qid) {
    out[qid].query_id = qid;
    const std::vector<QueryExecStats>& unit_stats =
        EngineFor(routes_[qid])->query_exec_stats();
    const size_t slot = EngineSlot(routes_[qid]);
    if (slot < unit_stats.size()) Accumulate(&out[qid], unit_stats[slot]);
  }
  return out;
}

const EngineStats& SharedWorkloadEngine::stats() const {
  // Build the aggregate in a local and publish it in one assignment — the
  // mutable member never holds a half-accumulated state.
  EngineStats total;
  total.events_processed = events_processed_;
  for (const ClusterState& cluster : clusters_) {
    for (const std::unique_ptr<GretaEngine>& unit : cluster.engines) {
      const EngineStats& s = unit->stats();
      total.vertices_stored += s.vertices_stored;
      total.edges_traversed += s.edges_traversed;
      total.work_units += s.work_units;
    }
  }
  // Peak memory comes from the shared tracker: summing per-unit peaks would
  // add maxima reached at different times and overstate the workload peak.
  total.peak_bytes = memory_.peak_bytes();
  stats_ = total;
  return stats_;
}

}  // namespace greta::sharing
