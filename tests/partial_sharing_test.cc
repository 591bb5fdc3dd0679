// Partial sharing of common Kleene sub-patterns (Hamlet snapshot
// propagation): planner pooling, the merged snapshot-propagating runtime,
// and the equivalence suite asserting that every query of a partially
// shared cluster produces the same rows as its own dedicated engine —
// across differing pattern suffixes, differing window lengths with equal
// slide, grouping, every aggregate kind, unbounded windows, and semantics
// (the restricted semantics fall back to unshared execution and must stay
// equivalent too). A window-diverse cluster on a bursty stream checks the
// static plan end to end: merged == dedicated, sharded == single-threaded,
// push == pull, and each query's rows in window order.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "sharing/shared_engine.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using sharing::PlanSharing;
using sharing::QueryCluster;
using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;
using sharing::SharingOptions;
using sharing::SharingPlan;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

std::unique_ptr<Catalog> StockCatalog() {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  return catalog;
}

Stream StockStream(Catalog* catalog, double halt_probability = 0.05) {
  StockConfig config;
  config.seed = 11;
  config.num_companies = 4;
  config.num_sectors = 2;
  config.rate = 40;
  config.duration = 30;
  config.drift = 1.0;
  config.halt_probability = halt_probability;
  return GenerateStockStream(catalog, config);
}

// Runs the workload both ways and asserts per-query row equivalence;
// returns the shared engine for plan inspection.
std::unique_ptr<SharedWorkloadEngine> ExpectWorkloadEquivalent(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const Stream& stream, const SharedEngineOptions& options = {}) {
  auto shared = SharedWorkloadEngine::Create(catalog, workload, options);
  EXPECT_TRUE(shared.ok()) << shared.status().ToString();
  if (!shared.ok()) return nullptr;
  for (const Event& e : stream.events()) {
    Status s = shared.value()->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(shared.value()->Flush().ok());

  for (size_t q = 0; q < workload.size(); ++q) {
    auto independent =
        GretaEngine::Create(catalog, workload[q].Clone(), options.engine);
    EXPECT_TRUE(independent.ok()) << independent.status().ToString();
    if (!independent.ok()) return nullptr;
    std::vector<ResultRow> expected =
        testing::RunEngine(independent.value().get(), stream);
    std::vector<ResultRow> actual = shared.value()->TakeResults(q);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(actual, expected,
                               shared.value()->agg_plan_for(q), &diff))
        << "query " << q << ": " << diff;
  }
  return std::move(shared).value();
}

size_t NumPartialClusters(const SharingPlan& plan) {
  size_t n = 0;
  for (const QueryCluster& c : plan.clusters) {
    n += (c.shared && c.partial) ? 1 : 0;
  }
  return n;
}

// The common Kleene core of the partial workloads below: down-trend runs
// per company, grouped by sector.
const char* kCoreTail =
    " WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector";

TEST(PartialSharingPlannerTest, PoolsDifferingSuffixesAndWindows) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // Same Kleene core, different suffix.
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Same pattern, different WITHIN under the same slide.
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().clusters.size(), 1u);
  const QueryCluster& cluster = plan.value().clusters[0];
  EXPECT_TRUE(cluster.shared);
  EXPECT_TRUE(cluster.partial);
  EXPECT_EQ(cluster.query_ids, (std::vector<size_t>{0, 1, 2}));
  EXPECT_LT(cluster.shared_cost, cluster.independent_cost);
  EXPECT_NE(plan.value().ToString().find("SHARED-PARTIAL"),
            std::string::npos);
}

TEST(PartialSharingPlannerTest, IneligibleShapesStayDedicated) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // No Kleene prefix.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H, Halt G) "
      "WITHIN 10 seconds",
      catalog.get()));
  // Negation.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN SUM(S.price) PATTERN SEQ(NOT Halt H, Stock S+) "
      "WITHIN 20 seconds",
      catalog.get()));
  // Different slide.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 2 seconds",
      catalog.get()));
  // Core predicates disagree.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 20 "
      "WITHIN 12 seconds SLIDE 6 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 50 "
      "WITHIN 24 seconds SLIDE 6 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
  EXPECT_EQ(plan.value().num_shared_clusters(), 0u);
}

TEST(PartialSharingPlannerTest, DisableFlagKeepsQueriesApart) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  SharingOptions off;
  off.enable_partial_sharing = false;
  auto plan = PlanSharing(workload, *catalog.get(), off);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
}

TEST(PartialSharingEquivalenceTest, DifferingSuffixes) {
  // Three suffixes of the same Kleene core under ONE window: the full
  // patterns (and so the exact fingerprints) all differ, yet the queries
  // run as one snapshot-propagating runtime.
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H, Halt G)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, DifferingWindowsEqualSlide) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  for (Ts within : {4, 8, 12, 20}) {
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 4 seconds",
        catalog.get()));
  }
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
  // One merged graph: the shared core stores each Stock event once, not
  // once per query.
  auto independent = GretaEngine::Create(catalog.get(), workload[0].Clone());
  ASSERT_TRUE(independent.ok());
  std::vector<ResultRow> rows =
      testing::RunEngine(independent.value().get(), stream);
  (void)rows;
  EXPECT_LT(shared->stats().vertices_stored,
            4 * independent.value()->stats().vertices_stored);
}

TEST(PartialSharingEquivalenceTest, AllAggregateKindsFoldThroughSnapshots) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {
      "COUNT(*)", "SUM(S.price)", "MIN(S.price), MAX(S.price)", "COUNT(S)",
      "AVG(S.volume)"};
  for (size_t i = 0; i < aggs.size(); ++i) {
    // Cycle windows so no two queries share an exact fingerprint.
    Ts within = 5 + 5 * static_cast<Ts>(i);
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, SuffixPredicatesStayPerQuery) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Same core predicates; one query filters its suffix Halt events, the
  // other does not — they still pool (suffix predicates are per query).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          " WHERE [company, sector] AND S.price > NEXT(S).price AND "
          "H.sector < 1 GROUP-BY sector WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, UnboundedWindows) {
  auto catalog = StockCatalog();
  StockConfig config;
  config.seed = 3;
  config.num_companies = 3;
  config.num_sectors = 2;
  config.rate = 10;
  config.duration = 12;
  config.drift = 1.0;
  config.halt_probability = 0.1;
  Stream stream = GenerateStockStream(catalog.get(), config);

  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail,
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail,
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, RestrictedSemanticsFallBackUnshared) {
  for (Semantics semantics :
       {Semantics::kSkipTillNextMatch, Semantics::kContiguous}) {
    auto catalog = StockCatalog();
    Stream stream = StockStream(catalog.get());
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 10 seconds SLIDE 5 seconds",
        catalog.get()));
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 20 seconds SLIDE 5 seconds",
        catalog.get()));
    SharedEngineOptions options;
    options.engine.semantics = semantics;
    auto shared =
        ExpectWorkloadEquivalent(catalog.get(), workload, stream, options);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 0u);
  }
}

// Acceptance criterion: an 8-query workload sharing one Kleene sub-pattern
// but differing in pattern suffix or window length runs as one partially
// shared cluster, equivalent to independent engines for every query.
TEST(PartialSharingEquivalenceTest, EightQuerySharedCoreWorkload) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {"COUNT(*)", "SUM(S.price)",
                                         "MIN(S.price)", "AVG(S.price)"};
  // 4 windows x plain core, 4 windows x Halt suffix.
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(5 * (i + 1)) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] +
            " PATTERN SEQ(Stock S+, Halt H)" + kCoreTail + " WITHIN " +
            std::to_string(5 * (i + 1)) + " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  ASSERT_EQ(workload.size(), 8u);
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().clusters.size(), 1u);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, MixedExactPartialAndDedicated) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Exact cluster (identical fingerprints, different aggregates).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Partial pool (same core, one suffixed, one longer window).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 15 seconds SLIDE 5 seconds",
      catalog.get()));
  // Dedicated (no Kleene prefix).
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WHERE [sector] "
      "WITHIN 10 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  const SharingPlan& plan = shared->sharing_plan();
  EXPECT_EQ(plan.clusters.size(), 3u);
  EXPECT_EQ(plan.num_shared_clusters(), 2u);
  EXPECT_EQ(NumPartialClusters(plan), 1u);
}

// --- window-diverse cluster on a bursty stream ---

// Same Kleene core, predicates, keys and slide; WITHINs 2/4/8 and different
// aggregates: exact clustering merges nothing, partial pooling merges all
// three, and the union window (WITHIN 8) makes the merged runtime fold over
// 4x the range of the WITHIN-2 query.
std::vector<QuerySpec> WindowDiverseWorkload(Catalog* catalog) {
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 2 seconds SLIDE 2 seconds",
      catalog));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*), MIN(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 4 seconds SLIDE 2 seconds",
      catalog));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*), AVG(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 8 seconds SLIDE 2 seconds",
      catalog));
  return workload;
}

// Quiet 8 ev/s, one sustained 40x burst in the middle of the stream.
Stream BurstyStockStream(Catalog* catalog) {
  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 60;
  config.drift = 0.0;
  config.bursts.push_back({20, 40, 40.0, 1.0});
  return GenerateStockStream(catalog, config);
}

void Append(std::vector<ResultRow>* out, std::vector<ResultRow> rows) {
  out->insert(out->end(), std::make_move_iterator(rows.begin()),
              std::make_move_iterator(rows.end()));
}

void ExpectWindowOrdered(const std::vector<ResultRow>& rows,
                         const std::string& label) {
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].wid, rows[i].wid) << label << " row " << i;
  }
}

// Same windows, groups and exact counters, row for row; aggregate values
// through RowsEquivalent (fp tolerance for SUM/AVG).
void ExpectSameRows(const std::vector<ResultRow>& actual,
                    const std::vector<ResultRow>& expected,
                    const AggPlan& plan, const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].wid, expected[i].wid) << label << " row " << i;
    EXPECT_EQ(actual[i].aggs.count.ToDecimal(),
              expected[i].aggs.count.ToDecimal())
        << label << " row " << i;
  }
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(actual, expected, plan, &diff))
      << label << ": " << diff;
}

TEST(PartialSharingEquivalenceTest, WindowDiverseClusterOnBurstyStream) {
  auto catalog = StockCatalog();
  Stream stream = BurstyStockStream(catalog.get());
  std::vector<QuerySpec> workload = WindowDiverseWorkload(catalog.get());

  // Merged vs one dedicated engine per query.
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(shared->sharing_plan().clusters.size(), 1u);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);

  // The single-threaded merged rows are the reference for the sharded
  // runtime, drained mid-stream so the merger's gate is crossed often.
  auto reference = SharedWorkloadEngine::Create(catalog.get(), workload);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::vector<ResultRow>> expected(workload.size());
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(reference.value()->Process(e).ok());
  }
  ASSERT_TRUE(reference.value()->Flush().ok());
  for (size_t q = 0; q < workload.size(); ++q) {
    expected[q] = reference.value()->TakeResults(q);
    EXPECT_FALSE(expected[q].empty()) << "query " << q << " is vacuous";
  }

  for (size_t shards : {1u, 4u}) {
    runtime::ShardedOptions options;
    options.num_shards = shards;
    options.batch_size = 16;
    options.heartbeat_events = 64;
    auto rt = runtime::ShardedRuntime::Create(catalog.get(), workload,
                                              options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ASSERT_EQ(rt.value()->num_shards(), shards);
    std::vector<std::vector<ResultRow>> rows(workload.size());
    size_t count = 0;
    for (const Event& e : stream.events()) {
      ASSERT_TRUE(rt.value()->Process(e).ok());
      if (++count % 128 == 0) {
        for (size_t q = 0; q < workload.size(); ++q) {
          Append(&rows[q], rt.value()->TakeResults(q));
        }
      }
    }
    ASSERT_TRUE(rt.value()->Flush().ok());
    for (size_t q = 0; q < workload.size(); ++q) {
      Append(&rows[q], rt.value()->TakeResults(q));
      const std::string label =
          "shards=" + std::to_string(shards) + " query " + std::to_string(q);
      ExpectSameRows(rows[q], expected[q], rt.value()->agg_plan_for(q),
                     label);
      ExpectWindowOrdered(rows[q], label);
    }
  }
}

TEST(PartialSharingEquivalenceTest, BurstyPushedRowsEqualPulledRows) {
  auto catalog = StockCatalog();
  Stream stream = BurstyStockStream(catalog.get());
  std::vector<QuerySpec> workload = WindowDiverseWorkload(catalog.get());

  auto engine = SharedWorkloadEngine::Create(catalog.get(), workload);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::vector<ResultRow>> pushed(workload.size());
  engine.value()->set_result_callback(
      [&pushed](size_t q, const ResultRow& row) {
        pushed[q].push_back(row);
      });
  // Tight pull cadence: every pull lands between window closes.
  std::vector<std::vector<ResultRow>> pulled(workload.size());
  size_t count = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine.value()->Process(e).ok());
    if (++count % 7 == 0) {
      for (size_t q = 0; q < workload.size(); ++q) {
        Append(&pulled[q], engine.value()->TakeResults(q));
      }
    }
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  for (size_t q = 0; q < workload.size(); ++q) {
    Append(&pulled[q], engine.value()->TakeResults(q));
    const std::string label = "query " + std::to_string(q);
    EXPECT_FALSE(pulled[q].empty()) << label << " is vacuous";
    ExpectSameRows(pushed[q], pulled[q], engine.value()->agg_plan_for(q),
                   label);
    ExpectWindowOrdered(pulled[q], label);
  }
}

}  // namespace
}  // namespace greta
