// Persistent result store (src/store): record round-trips and schema
// rejection, append/reopen, torn-tail recovery after a simulated crash, a
// reopen after two writers indexing both writers' records, two-writer
// line-atomicity under contention (this file rides the tsan suite), the
// backfill importer, and the dashboard-reconciles-with-manifests gate
// ISSUE 10's acceptance pins (the BENCH_*.json artifacts import into a
// store whose report agrees field-for-field with the embedded manifests).
#include "store/import.h"
#include "store/record.h"
#include "store/report.h"
#include "store/store.h"

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace store = sitam::store;

namespace {

/// A fully-populated record for round-trip and store tests.
store::StoreRecord make_record(const std::string& scenario,
                               double t_soc = 12345.0) {
  store::StoreRecord record;
  record.manifest.program = "store_test";
  record.manifest.scenario = scenario;
  record.manifest.seed = 42;
  record.manifest.threads = 3;
  record.manifest.build_type = "Release";
  record.manifest.git_describe = "v1-test";
  record.manifest.hardware_threads = 8;
  record.manifest.add_extra("wmax", "16");
  record.scenario = scenario;
  record.config_hash = store::store_hash_hex("config for " + scenario);
  record.result_digest = store::store_hash_hex("result for " + scenario);
  record.metrics["t_soc"] = t_soc;
  record.metrics["seconds"] = 0.125;
  return record;
}

std::filesystem::path temp_store_path(const std::string& name) {
  const auto path = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(path);
  return path;
}

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

TEST(StoreHash, MatchesFnv1a64TestVectors) {
  EXPECT_EQ(store::store_hash_hex(""), "cbf29ce484222325");
  EXPECT_EQ(store::store_hash_hex("a"), "af63dc4c8601ec8c");
  EXPECT_NE(store::store_hash_hex("config a"), store::store_hash_hex("config b"));
}

TEST(StoreRecord, LineRoundTripPreservesEveryField) {
  const store::StoreRecord record = make_record("d695/w16");
  const std::string line = record.to_line();
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "to_line must emit exactly one JSONL line";

  const store::StoreRecord parsed = store::StoreRecord::parse(line);
  EXPECT_EQ(parsed.schema, store::kStoreSchemaVersion);
  EXPECT_EQ(parsed.scenario, record.scenario);
  EXPECT_EQ(parsed.config_hash, record.config_hash);
  EXPECT_EQ(parsed.result_digest, record.result_digest);
  EXPECT_EQ(parsed.metrics, record.metrics);
  EXPECT_EQ(parsed.manifest.program, record.manifest.program);
  EXPECT_EQ(parsed.manifest.scenario, record.manifest.scenario);
  EXPECT_EQ(parsed.manifest.seed, record.manifest.seed);
  EXPECT_EQ(parsed.manifest.threads, record.manifest.threads);
  EXPECT_EQ(parsed.manifest.build_type, record.manifest.build_type);
  EXPECT_EQ(parsed.manifest.git_describe, record.manifest.git_describe);
  EXPECT_EQ(parsed.manifest.hardware_threads, record.manifest.hardware_threads);
  EXPECT_EQ(parsed.manifest.extra, record.manifest.extra);
  EXPECT_EQ(parsed.key(), record.key());
  // Serialization is deterministic: a round-trip re-serializes identically.
  EXPECT_EQ(parsed.to_line(), line);
}

TEST(StoreRecord, ParseRejectsMalformedAndForeignSchema) {
  EXPECT_THROW(static_cast<void>(store::StoreRecord::parse("{\"schema\":1,")),
               std::exception);
  EXPECT_THROW(static_cast<void>(store::StoreRecord::parse("[1,2,3]")),
               std::invalid_argument);

  // A future schema must be skipped, never mis-parsed.
  store::StoreRecord foreign = make_record("d695/w16");
  foreign.schema = store::kStoreSchemaVersion + 1;
  EXPECT_THROW(static_cast<void>(store::StoreRecord::parse(foreign.to_line())),
               std::invalid_argument);
}

TEST(ResultStore, AppendReopenAndSidecarFastPath) {
  const auto path = temp_store_path("store_reopen.jsonl");
  const store::StoreRecord a = make_record("d695/w16");
  const store::StoreRecord b = make_record("d695/w32");
  {
    store::ResultStore db(path.string());
    EXPECT_EQ(db.open_stats().records, 0);
    ASSERT_TRUE(db.append(a));
    ASSERT_TRUE(db.append(b));
    ASSERT_TRUE(db.append(b));  // A re-run of the same cell accumulates.
    EXPECT_EQ(db.records_appended(), 3);
    EXPECT_TRUE(db.contains(a.key()));
    EXPECT_EQ(db.count(b.key()), 2);
  }

  store::ResultStore reopened(path.string());
  const store::StoreOpenStats stats = reopened.open_stats();
  EXPECT_EQ(stats.records, 3);
  EXPECT_EQ(stats.skipped_lines, 0);
  EXPECT_EQ(reopened.count(a.key()), 1);
  EXPECT_EQ(reopened.count(b.key()), 2);

  std::int64_t skipped = -1;
  const auto records = store::ResultStore::read_all(path.string(), &skipped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(skipped, 0);
  EXPECT_EQ(records[0].key(), a.key());  // Append order is read order.
}

TEST(ResultStore, TornTailIsSkippedAndIsolatedByTheNextAppend) {
  const auto path = temp_store_path("store_torn.jsonl");
  {
    store::ResultStore db(path.string());
    ASSERT_TRUE(db.append(make_record("d695/w16")));
    ASSERT_TRUE(db.append(make_record("d695/w32")));
  }
  // Simulate a writer killed mid-append: a partial line, no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"schema\":1,\"scenario\":\"torn";
  }

  // The open scans the file, and the torn tail reads as one skipped line,
  // never an error.
  store::ResultStore reopened(path.string());
  const store::StoreOpenStats stats = reopened.open_stats();
  EXPECT_EQ(stats.records, 2);
  EXPECT_EQ(stats.skipped_lines, 1);

  // The next append starts on a fresh line, so the new record parses and
  // the torn bytes stay confined to their own (skipped) line.
  ASSERT_TRUE(reopened.append(make_record("p93791/w24")));
  std::int64_t skipped = -1;
  const auto records = store::ResultStore::read_all(path.string(), &skipped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(skipped, 1);
  EXPECT_EQ(records[2].scenario, "p93791/w24");
}

TEST(ResultStore, TornAppendIsIsolatedFromTheNextRecord) {
  // A file-size limit turns an append into a short write (the first
  // write() stops at the limit) and then a failed one (EFBIG): the torn
  // bytes stay in the file. The append reports failure, and the next
  // successful one starts on a fresh line, so only the torn line is lost.
  // The limit is set in a forked child, so it never touches this runner.
  const auto path = temp_store_path("store_short_write.jsonl");
  {
    store::ResultStore db(path.string());
    ASSERT_TRUE(db.append(make_record("d695/w16")));
  }
  const auto before = static_cast<rlim_t>(std::filesystem::file_size(path));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int code = 0;
    {
      store::ResultStore db(path.string());
      rlimit limit{};
      ::signal(SIGXFSZ, SIG_IGN);
      if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(10);
      const rlimit unlimited = limit;
      limit.rlim_cur = before + 16;
      if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(11);
      if (db.append(make_record("d695/torn"))) code = 12;
      if (::setrlimit(RLIMIT_FSIZE, &unlimited) != 0) ::_exit(13);
      if (!db.append(make_record("p93791/w24"))) code = 14;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(std::filesystem::file_size(path), [&] {
    // The short write landed exactly up to the limit.
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t torn_end = text.find('\n', before);
    EXPECT_EQ(torn_end, static_cast<std::size_t>(before) + 16);
    return text.size();
  }());

  std::int64_t skipped = -1;
  const auto records = store::ResultStore::read_all(path.string(), &skipped);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(skipped, 1);
  EXPECT_EQ(records[0].scenario, "d695/w16");
  EXPECT_EQ(records[1].scenario, "p93791/w24");
  const store::ResultStore reopened(path.string());
  EXPECT_EQ(reopened.open_stats().records, 2);
}

// Two stores on one file, each the shape of one process: B opens, appends
// and closes while A is open, then A appends and closes. The next open
// must index both records, whichever writer closed last: a resumed fleet
// must not re-run a cell another process stored.
TEST(ResultStore, ReopenAfterTwoWritersIndexesEveryRecord) {
  const auto path = temp_store_path("store_two_writers.jsonl");
  const std::string sidecar = path.string() + ".idx";
  std::filesystem::remove(sidecar);  // A build that persisted one left it.
  const store::StoreRecord a = make_record("cell-a");
  const store::StoreRecord b = make_record("cell-b");
  {
    store::ResultStore first(path.string());
    {
      store::ResultStore second(path.string());
      ASSERT_TRUE(second.append(b));
    }
    ASSERT_TRUE(first.append(a));
    EXPECT_FALSE(first.contains(b.key()))
        << "contains() is the store as of open plus this instance's appends";
  }
  EXPECT_FALSE(std::filesystem::exists(sidecar))
      << "the index is never persisted";

  const store::ResultStore reopened(path.string());
  EXPECT_EQ(reopened.open_stats().records, 2);
  EXPECT_TRUE(reopened.contains(a.key()));
  EXPECT_TRUE(reopened.contains(b.key()));
  EXPECT_EQ(store::ResultStore::read_all(path.string()).size(), 2u);
}

TEST(ResultStore, KeyFieldsWithReservedBytesAreRejected) {
  const auto path = temp_store_path("store_reserved.jsonl");
  store::ResultStore db(path.string());
  store::StoreRecord bad = make_record("d695/w16");
  bad.scenario = "d695\tw16";
  EXPECT_THROW(static_cast<void>(db.append(bad)), std::invalid_argument);
  bad = make_record("d695/w16");
  bad.manifest.git_describe = "v1\ndirty";
  EXPECT_THROW(static_cast<void>(db.append(bad)), std::invalid_argument);
  EXPECT_EQ(db.records_appended(), 0);
}

// Two stores on the same file — the same shape as two fleet processes
// sharing one results file — must interleave whole lines, never bytes.
// Runs under the tsan suite (tests/CMakeLists.txt labels this file).
TEST(ResultStore, TwoWritersUnderContentionInterleaveWholeLines) {
  const auto path = temp_store_path("store_contention.jsonl");
  constexpr int kPerWriter = 100;
  const auto writer = [&path](const std::string& scenario) {
    store::ResultStore db(path.string());
    for (int i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(db.append(make_record(scenario, 1000.0 + i)));
    }
  };
  std::thread first(writer, "writer-a");
  std::thread second(writer, "writer-b");
  first.join();
  second.join();

  std::int64_t skipped = -1;
  const auto records = store::ResultStore::read_all(path.string(), &skipped);
  EXPECT_EQ(skipped, 0) << "concurrent appends must never tear a line";
  ASSERT_EQ(records.size(), 2u * kPerWriter);
  std::int64_t from_a = 0;
  for (const auto& record : records) {
    if (record.scenario == "writer-a") ++from_a;
  }
  EXPECT_EQ(from_a, kPerWriter);

  // One shared store hammered from two threads holds the same contract.
  const auto shared_path = temp_store_path("store_shared.jsonl");
  store::ResultStore shared(shared_path.string());
  const auto shared_writer = [&shared](const std::string& scenario) {
    for (int i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(shared.append(make_record(scenario)));
    }
  };
  std::thread third(shared_writer, "shared-a");
  std::thread fourth(shared_writer, "shared-b");
  third.join();
  fourth.join();
  EXPECT_EQ(shared.records_appended(), 2 * kPerWriter);
  EXPECT_EQ(shared.count(make_record("shared-a").key()), kPerWriter);
}

TEST(StoreImport, FlattensNumbersAndLiftsTheManifest) {
  const std::string text =
      "{\"manifest\":{\"program\":\"bench_x\",\"scenario\":\"d695\","
      "\"seed\":7,\"threads\":2,\"git_describe\":\"v2-g0\"},"
      "\"delta\":{\"seconds\":0.5,\"enabled\":true},"
      "\"rows\":[{\"t_min\":100},{\"t_min\":90}],"
      "\"label\":\"ignored text\"}";
  const store::StoreRecord record =
      store::import_result_document(text, "bench_x_file");
  EXPECT_EQ(record.manifest.program, "bench_x");
  EXPECT_EQ(record.manifest.git_describe, "v2-g0");
  EXPECT_EQ(record.scenario, "d695");
  EXPECT_EQ(record.result_digest, store::store_hash_hex(text));
  EXPECT_EQ(record.metrics.at("delta.seconds"), 0.5);
  EXPECT_EQ(record.metrics.at("delta.enabled"), 1.0);
  EXPECT_EQ(record.metrics.at("rows.0.t_min"), 100.0);
  EXPECT_EQ(record.metrics.at("rows.1.t_min"), 90.0);
  EXPECT_EQ(record.metrics.count("label"), 0u) << "strings are not metrics";

  EXPECT_THROW(static_cast<void>(store::import_result_document(
                   "{\"no_manifest\":1}", "x")),
               std::invalid_argument);
}

TEST(StoreReport, LatestRecordWinsWithinACommitRow) {
  std::vector<store::StoreRecord> records;
  records.push_back(make_record("d695/w16", 5000.0));
  records.push_back(make_record("d695/w16", 4800.0));  // Same key: re-run.
  store::StoreRecord newer = make_record("d695/w16", 4500.0);
  newer.manifest.git_describe = "v2-test";  // New commit: its own row.
  records.push_back(newer);

  const store::Dashboard dashboard = store::Dashboard::build(records);
  EXPECT_EQ(dashboard.records, 3);
  ASSERT_EQ(dashboard.scenarios.size(), 1u);
  const store::ScenarioTrend& trend = dashboard.scenarios[0];
  ASSERT_EQ(trend.rows.size(), 2u);
  EXPECT_EQ(trend.rows[0].git_describe, "v1-test");
  EXPECT_EQ(trend.rows[0].record_count, 2);
  EXPECT_EQ(trend.rows[0].metrics.at("t_soc"), 4800.0);
  EXPECT_EQ(trend.rows[1].git_describe, "v2-test");
  EXPECT_EQ(trend.rows[1].metrics.at("t_soc"), 4500.0);

  const std::string markdown = store::render_dashboard_markdown(dashboard);
  EXPECT_NE(markdown.find("d695/w16"), std::string::npos);
  EXPECT_NE(markdown.find("v2-test"), std::string::npos);
}

// Acceptance gate: importing the repo's committed BENCH_*.json artifacts
// into a store and building the dashboard over it must reproduce each
// artifact's embedded manifest field-for-field — the report never
// synthesizes provenance.
TEST(StoreReport, BackfilledBenchArtifactsReconcileWithTheirManifests) {
  const auto repo_root = std::filesystem::path(SITAM_REPO_ROOT);
  const auto store_path = temp_store_path("store_backfill.jsonl");

  std::vector<store::StoreRecord> imported;
  {
    store::ResultStore db(store_path.string());
    for (const char* name :
         {"BENCH_delta.json", "BENCH_parallel.json", "BENCH_compaction.json"}) {
      const auto artifact = repo_root / name;
      ASSERT_TRUE(std::filesystem::exists(artifact)) << artifact;
      const store::StoreRecord record =
          store::import_result_file(artifact.string());
      const std::string text = read_text_file(artifact);
      EXPECT_EQ(record.result_digest, store::store_hash_hex(text)) << name;
      ASSERT_TRUE(db.append(record)) << name;
      imported.push_back(record);
    }
  }

  std::int64_t skipped = -1;
  const auto stored = store::ResultStore::read_all(store_path.string(), &skipped);
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(stored.size(), imported.size());

  const store::Dashboard dashboard = store::Dashboard::build(stored);
  EXPECT_EQ(dashboard.records, static_cast<std::int64_t>(imported.size()));
  for (const store::StoreRecord& record : imported) {
    const store::ScenarioTrend* trend = nullptr;
    for (const store::ScenarioTrend& candidate : dashboard.scenarios) {
      if (candidate.scenario == record.scenario) trend = &candidate;
    }
    ASSERT_NE(trend, nullptr) << record.scenario;
    const store::CommitRow* row = nullptr;
    for (const store::CommitRow& candidate : trend->rows) {
      if (candidate.config_hash == record.config_hash &&
          candidate.git_describe == record.manifest.git_describe) {
        row = &candidate;
      }
    }
    ASSERT_NE(row, nullptr) << record.scenario;
    // Provenance comes verbatim from the embedded manifest...
    EXPECT_EQ(row->program, record.manifest.program);
    EXPECT_EQ(row->build_type, record.manifest.build_type);
    // ...and every imported metric survives into the dashboard row.
    EXPECT_EQ(row->metrics, record.metrics);
  }
}
