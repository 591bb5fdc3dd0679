// Workload definitions, input generation and the correctness reference of
// the GRETA benchmark binary (main.cc).
#ifndef GRETA_PERFBENCH_WORKLOADS_H_
#define GRETA_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/catalog.h"
#include "common/event_batch.h"
#include "core/engine.h"
#include "query/query.h"
#include "workload/stock.h"

namespace perfbench {

/// One named workload: the query set, the stream it runs over, and how the
/// load is offered.
struct WorkloadDef {
  std::string name;
  std::vector<std::string> queries;  // query text, parsed at set-up
  greta::StockConfig stream;         // the timed stream (seed set by caller)
  greta::StockConfig anchor;         // scaled-down stream for the SASE anchor
  size_t shards = 0;                 // 0: one GretaEngine, no runtime
  double paced_events_per_s = 0.0;   // > 0: open loop at this offered rate
  // The sharing plan PlanSharing must produce for the query set.
  size_t expect_shared = 0;
  size_t expect_partial = 0;
  size_t expect_dedicated = 0;
};

/// Engine options of every engine the benchmark builds: modular counters,
/// as in the paper's benchmark regime.
greta::EngineOptions ModularOptions();

/// Every workload the benchmark knows, in the order `--workload` lists them.
std::vector<std::string> WorkloadNames();

/// Fills `out` with workload `name`; `small` shrinks the streams for the
/// self-test. False for an unknown name.
bool FindWorkload(const std::string& name, uint64_t seed, bool small,
                  WorkloadDef* out);

/// Generates the stream and packs it into time-ordered batches of
/// `batch_size` rows (the load generator's job, done before timing).
std::vector<greta::EventBatch> MakeBatches(greta::Catalog* catalog,
                                           const greta::StockConfig& config,
                                           size_t batch_size);

size_t TotalRows(const std::vector<greta::EventBatch>& batches);

greta::StatusOr<std::vector<greta::QuerySpec>> ParseAll(
    const std::vector<std::string>& queries, greta::Catalog* catalog);

/// Rows of every query, in query order.
using QueryRows = std::vector<std::vector<greta::ResultRow>>;

/// The reference: one GretaEngine per query fed row by row through the
/// scalar Process path, with the counter mode the timed engines use.
struct Reference {
  QueryRows rows;
  std::vector<greta::AggPlan> plans;  // per query, for RowsEquivalent
};
greta::StatusOr<Reference> ReferenceRows(
    const greta::Catalog& catalog, const std::vector<greta::QuerySpec>& specs,
    const std::vector<greta::EventBatch>& batches);

/// The independent oracle: one SASE two-step engine per query, which
/// enumerates every trend. Only tractable on small streams.
greta::StatusOr<QueryRows> OracleRows(
    const greta::Catalog& catalog, const std::vector<greta::QuerySpec>& specs,
    const std::vector<greta::EventBatch>& batches);

/// Row-by-row comparison keyed by (window, group): every reference row is
/// one comparison; a missing, extra or unequal row is one failure. Counts
/// must match exactly, SUM/AVG/MIN/MAX within RowsEquivalent's tolerance.
struct RowCheck {
  size_t compared = 0;
  size_t failed = 0;
  std::string first_diff;  // empty when nothing failed
};
RowCheck CompareRows(const std::vector<greta::ResultRow>& got,
                     const std::vector<greta::ResultRow>& want,
                     const greta::AggPlan& plan);

}  // namespace perfbench

#endif  // GRETA_PERFBENCH_WORKLOADS_H_
