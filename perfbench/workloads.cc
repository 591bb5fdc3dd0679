#include "workloads.h"

#include <map>
#include <memory>
#include <utility>

#include "baselines/sase.h"
#include "common/stream.h"
#include "core/engine.h"
#include "query/parser.h"

namespace perfbench {

using greta::AggPlan;
using greta::Catalog;
using greta::EventBatch;
using greta::QuerySpec;
using greta::ResultRow;
using greta::Status;
using greta::StatusOr;
using greta::StockConfig;

namespace {

// Paper Q1 (down-trends per sector) with the given aggregates, pattern,
// extra WHERE conjuncts and window length; the slide is always 5 seconds.
std::string Q1Text(const std::string& aggs, int within,
                   const std::string& pattern = "Stock S+",
                   const std::string& price_factor = "",
                   const std::string& extra_where = "") {
  return "RETURN sector, " + aggs + " PATTERN " + pattern +
         " WHERE [company, sector] AND S.price" + price_factor +
         " > NEXT(S).price" + extra_where + " GROUP-BY sector WITHIN " +
         std::to_string(within) + " seconds SLIDE 5 seconds";
}

// The 16-query sharing mix: 12 aggregate variants of Q1 (one exact-shared
// cluster), Q1 at WITHIN 20 and 30 (one partial cluster), and two queries
// the planner runs dedicated — one with a negated Halt prefix, one with a
// residual volume predicate.
std::vector<std::string> Mix16Queries() {
  std::vector<std::string> queries;
  for (const char* aggs :
       {"COUNT(*)", "COUNT(S)", "SUM(S.price)", "SUM(S.volume)",
        "AVG(S.price)", "AVG(S.volume)", "MIN(S.price)", "MAX(S.price)",
        "MIN(S.volume)", "MAX(S.volume)", "COUNT(*), SUM(S.volume)",
        "COUNT(*), AVG(S.price), MAX(S.price)"}) {
    queries.push_back(Q1Text(aggs, 10));
  }
  queries.push_back(Q1Text("COUNT(*)", 20));
  queries.push_back(Q1Text("COUNT(*)", 30));
  queries.push_back(Q1Text("COUNT(*)", 10, "SEQ(NOT Halt H, Stock S+)"));
  queries.push_back(
      Q1Text("COUNT(*)", 10, "Stock S+", " * 0.99", " AND S.volume > 100"));
  return queries;
}

StockConfig Stock(uint64_t seed, int companies, int sectors, int rate,
                  greta::Ts duration, double halt_probability) {
  StockConfig config;
  config.seed = seed;
  config.num_companies = companies;
  config.num_sectors = sectors;
  config.rate = rate;
  config.duration = duration;
  config.halt_probability = halt_probability;
  return config;
}

// Feeds every row of `batches` through the scalar Process path.
StatusOr<std::vector<ResultRow>> RunScalar(
    greta::EngineInterface* engine, const std::vector<EventBatch>& batches) {
  for (const EventBatch& batch : batches) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Status s = engine->Process(batch.ToEvent(i));
      if (!s.ok()) return s;
    }
  }
  Status s = engine->Flush();
  if (!s.ok()) return s;
  return engine->TakeResults();
}

std::string RowKey(const ResultRow& row) {
  std::string key = std::to_string(row.wid);
  for (const greta::Value& v : row.group) key += "|" + v.ToString();
  return key;
}

}  // namespace

greta::EngineOptions ModularOptions() {
  greta::EngineOptions options;
  options.counter_mode = greta::CounterMode::kModular;
  return options;
}

std::vector<std::string> WorkloadNames() {
  return {"q1_single", "q1_sharded", "mix16_sharded", "q1_paced"};
}

bool FindWorkload(const std::string& name, uint64_t seed, bool small,
                  WorkloadDef* out) {
  // Full size: 256 companies in 16 sectors. Closed-loop Q1 streams are 120
  // stream-seconds at 4000 events/s (480k events, ~0.4 s per single-engine
  // pass); the mix is 60 s (its shards run ~15x slower per event); the paced
  // stream is 500 s at 1000 events/s, replayed at 1M events per wall-second.
  const int companies = small ? 32 : 256;
  const int sectors = small ? 8 : 16;
  WorkloadDef def;
  def.name = name;
  // The SASE anchor enumerates every trend, so its stream keeps a handful
  // of events per partition and window.
  def.anchor = Stock(seed, 8, 4, 6, 60, 0.0);
  if (name == "q1_single" || name == "q1_sharded") {
    def.queries = {Q1Text("COUNT(*)", 10)};
    def.stream = Stock(seed, companies, sectors, small ? 400 : 4000, 120, 0.0);
    def.shards = name == "q1_sharded" ? 3 : 0;
    def.expect_dedicated = 1;
  } else if (name == "mix16_sharded") {
    def.queries = Mix16Queries();
    def.stream = Stock(seed, companies, sectors, small ? 400 : 4000,
                       small ? 120 : 60, 0.01);
    def.anchor.halt_probability = 0.05;
    def.shards = 3;
    def.expect_shared = 1;
    def.expect_partial = 1;
    def.expect_dedicated = 2;
  } else if (name == "q1_paced") {
    def.queries = {Q1Text("COUNT(*)", 10)};
    def.stream = Stock(seed, companies, sectors, 1000, small ? 60 : 500, 0.0);
    def.shards = 3;
    def.paced_events_per_s = 1e6;
    def.expect_dedicated = 1;
  } else {
    return false;
  }
  *out = std::move(def);
  return true;
}

std::vector<EventBatch> MakeBatches(Catalog* catalog,
                                    const StockConfig& config,
                                    size_t batch_size) {
  greta::Stream stream = greta::GenerateStockStream(catalog, config);
  std::vector<EventBatch> batches;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % batch_size == 0) {
      batches.emplace_back();
      batches.back().reserve(batch_size, 6);
    }
    batches.back().Append(greta::EventRef(stream[i]));
  }
  return batches;
}

size_t TotalRows(const std::vector<EventBatch>& batches) {
  size_t n = 0;
  for (const EventBatch& b : batches) n += b.size();
  return n;
}

StatusOr<std::vector<QuerySpec>> ParseAll(
    const std::vector<std::string>& queries, Catalog* catalog) {
  greta::RegisterStockTypes(catalog);
  std::vector<QuerySpec> specs;
  for (const std::string& text : queries) {
    StatusOr<QuerySpec> spec = greta::ParseQuery(text, catalog);
    if (!spec.ok()) return spec.status();
    specs.push_back(std::move(spec).value());
  }
  return specs;
}

StatusOr<Reference> ReferenceRows(const Catalog& catalog,
                                  const std::vector<QuerySpec>& specs,
                                  const std::vector<EventBatch>& batches) {
  Reference ref;
  for (const QuerySpec& spec : specs) {
    auto engine =
        greta::GretaEngine::Create(&catalog, spec.Clone(), ModularOptions());
    if (!engine.ok()) return engine.status();
    auto got = RunScalar(engine.value().get(), batches);
    if (!got.ok()) return got.status();
    ref.rows.push_back(std::move(got).value());
    ref.plans.push_back(engine.value()->agg_plan());
  }
  return ref;
}

StatusOr<QueryRows> OracleRows(const Catalog& catalog,
                               const std::vector<QuerySpec>& specs,
                               const std::vector<EventBatch>& batches) {
  greta::TwoStepOptions options;
  options.counter_mode = greta::CounterMode::kModular;
  QueryRows rows;
  for (const QuerySpec& spec : specs) {
    auto engine = greta::SaseEngine::Create(&catalog, spec.Clone(), options);
    if (!engine.ok()) return engine.status();
    auto got = RunScalar(engine.value().get(), batches);
    if (!got.ok()) return got.status();
    rows.push_back(std::move(got).value());
  }
  return rows;
}

RowCheck CompareRows(const std::vector<ResultRow>& got,
                     const std::vector<ResultRow>& want,
                     const AggPlan& plan) {
  RowCheck check;
  auto fail = [&check](const std::string& what) {
    ++check.failed;
    if (check.first_diff.empty()) check.first_diff = what;
  };
  std::map<std::string, const ResultRow*> expected;
  for (const ResultRow& row : want) expected[RowKey(row)] = &row;
  check.compared = expected.size();
  for (const ResultRow& row : got) {
    const std::string key = RowKey(row);
    auto it = expected.find(key);
    if (it == expected.end() || it->second == nullptr) {
      fail("extra or duplicate row " + key);
      continue;
    }
    std::string diff;
    if (!greta::RowsEquivalent({row}, {*it->second}, plan, &diff)) {
      fail("row " + key + ": " + diff);
    }
    it->second = nullptr;  // seen
  }
  for (const auto& [key, row] : expected) {
    if (row != nullptr) fail("missing row " + key);
  }
  return check;
}

}  // namespace perfbench
