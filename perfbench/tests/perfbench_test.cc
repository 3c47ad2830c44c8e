// Tests of the benchmark's own logic: tail selection, reference ratios,
// the ledger's self-time and unattributed arithmetic, trace parsing,
// metric names, and the delegating reader's pushdown forwarding.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cif/cif.h"
#include "cif/cof.h"
#include "instrument.h"
#include "ledger.h"
#include "mapreduce/engine.h"
#include "metric_names.h"
#include "obs/trace.h"
#include "serde/predicate.h"
#include "stats.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

TEST(TailPercentile, TakesTheSampleWithTenBeyondIt) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const TailSample tail = TailPercentile(samples);
  ASSERT_TRUE(tail.ok);
  EXPECT_EQ(tail.value, 90);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, NeedsElevenSamples) {
  EXPECT_FALSE(TailPercentile(std::vector<double>(10, 1.0)).ok);
  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i);
  const TailSample tail = TailPercentile(eleven);
  ASSERT_TRUE(tail.ok);
  EXPECT_EQ(tail.value, 0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_NEAR(tail.percentile, 100.0 / 11, 1e-12);
}

TEST(TailPercentile, HigherPercentileWithMoreSamples) {
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) samples.push_back(i * 0.001);
  const TailSample tail = TailPercentile(samples);
  EXPECT_DOUBLE_EQ(tail.percentile, 97.5);
  EXPECT_DOUBLE_EQ(tail.value, 0.389);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(OverReference, DividesByTheRunsBeforeAndAfter) {
  // Three ops; the reference ran before each one and once after the last.
  // The second op belongs to another sample set, so it is skipped here.
  const std::vector<double> reference = {1, 3, 5, 7};
  const std::vector<double> ratios = OverReference({4, 12}, {0, 2}, reference);
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_DOUBLE_EQ(ratios[0], 2);  // 4 / ((1 + 3) / 2)
  EXPECT_DOUBLE_EQ(ratios[1], 2);  // 12 / ((5 + 7) / 2)
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(ValidMetricName("op_rel_p50"));
  EXPECT_TRUE(ValidMetricName("hdfs.read.remote_mb"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNames, EveryReportedNameIsValidAndUnique) {
  std::set<std::string> seen;
  for (const MetricSpec& spec : kEndToEnd) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
  for (const MetricSpec& spec : kPerLayer) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
  for (const LedgerMetric& metric : LedgerMetrics()) {
    EXPECT_TRUE(seen.count(metric.metric)) << metric.metric;
  }
}

Span S(const char* name, int64_t start, int64_t end, int tid = 1) {
  return Span{name, start, end, tid};
}

TEST(Ledger, SelfTimeSubtractsChildren) {
  // op [0,100) > job [5,95) > map_task [10,60) > hdfs.read [20,30)
  const Ledger ledger = Attribute({S("op", 0, 100), S("job", 5, 95),
                                   S("map_task", 10, 60),
                                   S("hdfs.read", 20, 30)},
                                  0, 100);
  EXPECT_DOUBLE_EQ(ledger.wall_s, 100e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("map_task"), 40e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("hdfs.read"), 10e-9);
  // Only containers cover [0,10) and [60,100).
  EXPECT_DOUBLE_EQ(ledger.unattributed_s, 50e-9);
  EXPECT_EQ(ledger.self_s.count("job"), 0u);
  EXPECT_NEAR(ledger.Residual(), 0, 1e-18);
}

TEST(Ledger, ConcurrentThreadsShareWallTime) {
  // Driver thread waits in map_phase while two workers overlap on
  // [30,50): each worker gets half of the overlap.
  const Ledger ledger = Attribute({S("op", 0, 100, 1), S("map_phase", 0, 100, 1),
                                   S("map_task", 10, 50, 2),
                                   S("map_task", 30, 70, 3),
                                   S("job.map_fn", 40, 50, 3)},
                                  0, 100);
  // Wall 100: [0,10) and [70,100) unattributed = 40; layers cover 60.
  EXPECT_DOUBLE_EQ(ledger.unattributed_s, 40e-9);
  // map_task: [10,30)=20, [30,40) shared=10, [40,50) half=5, [50,70)=20
  EXPECT_DOUBLE_EQ(ledger.self_s.at("map_task"), 55e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("job.map_fn"), 5e-9);
  EXPECT_NEAR(ledger.Residual(), 0, 1e-18);
}

TEST(Ledger, ClipsOverhangingChildrenAndWindow) {
  // A child that runs 3 ns past its parent (clock quantization) is
  // clipped to the parent; spans outside the window are clipped too.
  const Ledger ledger = Attribute({S("map_task", -10, 50), S("hdfs.read", 40, 53),
                                   S("spill", 60, 200)},
                                  0, 100);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("map_task"), 40e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("hdfs.read"), 10e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("spill"), 40e-9);
  EXPECT_DOUBLE_EQ(ledger.unattributed_s, 10e-9);
  EXPECT_NEAR(ledger.Residual(), 0, 1e-18);
}

TEST(Ledger, IdentityHoldsOnAMessyTimeline) {
  std::vector<Span> spans = {S("op", 0, 1000, 1), S("job", 3, 990, 1)};
  for (int t = 2; t <= 4; ++t) {
    for (int64_t at = t * 7; at + 40 < 1000; at += 97) {
      spans.push_back(S("map_task", at, at + 40, t));
      spans.push_back(S("cif.scan", at + 2, at + 11, t));
      spans.push_back(S("hdfs.read", at + 3, at + 9, t));
      spans.push_back(S("job.map_fn", at + 15, at + 30, t));
      spans.push_back(S("mapreduce.emit", at + 20, at + 29, t));
    }
  }
  const Ledger ledger = Attribute(spans, 0, 1000);
  EXPECT_NEAR(ledger.Residual(), 0, 1e-15);
  EXPECT_GT(ledger.unattributed_s, 0);
}

TEST(TraceParsing, ReadsCollectorOutput) {
  colmr::TraceCollector collector;
  {
    colmr::ScopedSpan outer(&collector, "map_task", "mr");
    outer.AddArg("path", "/a \"quoted\" \\ path");
    outer.AddArg("split", uint64_t{7});
    {
      colmr::ScopedSpan inner(&collector, "hdfs.read", "hdfs");
      inner.AddArg("ratio", 0.5);
    }
    colmr::TraceInstant(&collector, "perfbench.thread", "bench",
                        {{"bench_tid", colmr::TraceCollector::JsonValue(3)}});
  }
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseTraceEvents(collector.ToJson(), &events, &error)) << error;
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, TraceEvent> by_name;
  for (const TraceEvent& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name.at("map_task").phase, 'X');
  EXPECT_EQ(by_name.at("map_task").args.at("split"), 7);
  EXPECT_EQ(by_name.at("map_task").args.count("path"), 0u);
  EXPECT_EQ(by_name.at("hdfs.read").args.at("ratio"), 0.5);
  EXPECT_EQ(by_name.at("perfbench.thread").phase, 'i');
  EXPECT_EQ(by_name.at("perfbench.thread").args.at("bench_tid"), 3);
  EXPECT_LE(by_name.at("map_task").ts_us, by_name.at("hdfs.read").ts_us);
}

TEST(TraceParsing, RejectsMalformedDocuments) {
  std::vector<TraceEvent> events;
  std::string error;
  EXPECT_FALSE(ParseTraceEvents("", &events, &error));
  EXPECT_FALSE(ParseTraceEvents("{\"traceEvents\":[{\"name\":\"x\"", &events, &error));
  EXPECT_FALSE(ParseTraceEvents("{\"other\":1}", &events, &error));
  EXPECT_FALSE(ParseTraceEvents("{\"traceEvents\":[]} x", &events, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(ParseTraceEvents("{\"traceEvents\":[]}", &events, &error));
}

TEST(Recorder, PutsIntervalsOnTheCollectorsThreadTracks) {
  const auto before = std::chrono::steady_clock::now();
  colmr::TraceCollector collector;
  const auto after = std::chrono::steady_clock::now();
  Recorder recorder;
  recorder.Begin(&collector, before + (after - before) / 2);
  std::thread worker([&] {
    colmr::ScopedSpan task(&collector, "map_task", "mr");
    Timed timed(&recorder, Layer::kMapFn);
  });
  worker.join();
  { Timed timed(&recorder, Layer::kOp); }
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseTraceEvents(collector.ToJson(), &events, &error)) << error;
  const std::vector<Span> spans = recorder.End(events);
  std::map<std::string, int> tid;
  for (const Span& span : spans) tid[span.name] = span.tid;
  ASSERT_EQ(tid.size(), 3u);
  EXPECT_EQ(tid.at("job.map_fn"), tid.at("map_task"));
  EXPECT_NE(tid.at("op"), tid.at("map_task"));
}

class DelegatingReaderTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 6000;
  static constexpr int64_t kCutoff = 1234;

  void SetUp() override {
    colmr::ClusterConfig cluster;
    cluster.num_nodes = 2;
    fs_ = std::make_unique<colmr::MiniHdfs>(
        cluster, std::make_unique<colmr::ColumnPlacementPolicy>(5));
    colmr::CofOptions options;
    options.split_target_bytes = 64 * 1024;  // several splits
    options.default_column.layout = colmr::ColumnLayout::kSkipList;
    std::unique_ptr<colmr::CofWriter> writer;
    ASSERT_TRUE(colmr::CofWriter::Open(fs_.get(), "/z", colmr::ZonedSchema(),
                                       options, &writer)
                    .ok());
    colmr::ZonedGenerator gen(11);
    const int int0 = colmr::ZonedSchema()->FieldIndex("int0");
    for (int64_t i = 0; i < kRows; ++i) {
      const colmr::Value record = gen.Next();
      if (i < kCutoff) expected_sum_ += record.elements()[int0].int64_value();
      ASSERT_TRUE(writer->WriteRecord(record).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
    ASSERT_GT(writer->split_count(), 1);
    colmr::Predicate predicate;
    ASSERT_TRUE(colmr::ParsePredicate("seq < " + std::to_string(kCutoff),
                                      &predicate)
                    .ok());
    config_.input_paths = {"/z"};
    config_.projection = {"seq", "int0"};
    config_.predicate =
        std::make_shared<const colmr::Predicate>(std::move(predicate));
    config_.parallelism = 2;
  }

  // Runs sum(int0) where seq < kCutoff; returns {sum, count}.
  std::pair<int64_t, int64_t> RunJob(std::shared_ptr<colmr::InputFormat> format,
                                     Recorder* recorder) {
    colmr::Job job;
    job.config = config_;
    job.input_format = std::move(format);
    job.mapper = [](colmr::Record& record, colmr::Emitter* out) {
      out->Emit(colmr::Value::Null(), record.GetOrDie("int0"));
    };
    job.reducer = [](const colmr::Value& key,
                     const std::vector<colmr::Value>& values,
                     colmr::Emitter* out) {
      int64_t sum = 0;
      for (const colmr::Value& v : values) sum += v.int64_value();
      out->Emit(key, colmr::Value::Array(
                         {colmr::Value::Int64(sum),
                          colmr::Value::Int64(static_cast<int64_t>(values.size()))}));
    };
    if (recorder != nullptr) job.mapper = TimedMap(std::move(job.mapper), recorder);
    colmr::JobReport report;
    EXPECT_TRUE(colmr::JobRunner(fs_.get()).Run(job, &report).ok());
    if (report.output.size() != 1) return {-1, -1};
    const auto& pair = report.output[0].second.elements();
    return {pair[0].int64_value(), pair[1].int64_value()};
  }

  std::unique_ptr<colmr::MiniHdfs> fs_;
  colmr::JobConfig config_;
  int64_t expected_sum_ = 0;
};

TEST_F(DelegatingReaderTest, ForwardsSelection) {
  auto inner = std::make_shared<colmr::ColumnInputFormat>();
  ScanCounts counts;
  TimedInputFormat timed(inner, nullptr, &counts);
  std::vector<colmr::InputSplit> splits;
  ASSERT_TRUE(timed.GetSplits(fs_.get(), config_, &splits).ok());
  ASSERT_FALSE(splits.empty());
  bool saw_selection = false;
  for (const colmr::InputSplit& split : splits) {
    std::unique_ptr<colmr::RecordReader> direct, wrapped;
    ASSERT_TRUE(inner->CreateRecordReader(fs_.get(), config_, split,
                                          colmr::ReadContext{}, &direct)
                    .ok());
    ASSERT_TRUE(timed.CreateRecordReader(fs_.get(), config_, split,
                                         colmr::ReadContext{}, &wrapped)
                    .ok());
    for (;;) {
      const uint64_t a = direct->FillBatch(256);
      const uint64_t b = wrapped->FillBatch(256);
      ASSERT_EQ(a, b);
      if (a == 0) break;
      const std::vector<uint32_t>* want = direct->selection();
      const std::vector<uint32_t>* got = wrapped->selection();
      ASSERT_EQ(want == nullptr, got == nullptr);
      if (want != nullptr) {
        saw_selection = true;
        EXPECT_EQ(*want, *got);
      }
    }
  }
  EXPECT_TRUE(saw_selection) << "pushdown produced no selection to forward";
  EXPECT_LT(counts.rows_selected.load(), counts.rows_scanned.load());
}

TEST_F(DelegatingReaderTest, PushdownResultsSameWithAndWithoutWrapper) {
  auto inner = std::make_shared<colmr::ColumnInputFormat>();
  const auto plain = RunJob(inner, nullptr);
  EXPECT_EQ(plain.first, expected_sum_);
  EXPECT_EQ(plain.second, kCutoff);

  const auto before = std::chrono::steady_clock::now();
  colmr::TraceCollector collector;
  const auto after = std::chrono::steady_clock::now();
  Recorder recorder;
  ScanCounts counts;
  recorder.Begin(&collector, before + (after - before) / 2);
  config_.trace = &collector;
  const auto wrapped =
      RunJob(std::make_shared<TimedInputFormat>(inner, &recorder, &counts),
             &recorder);
  EXPECT_EQ(wrapped, plain);
  // The format pruned and selected: fewer rows reached the mapper than
  // the readers scanned, exactly the matching ones.
  EXPECT_EQ(counts.rows_selected.load(), static_cast<uint64_t>(kCutoff));
  EXPECT_GT(counts.opens.load(), 0u);
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseTraceEvents(collector.ToJson(), &events, &error)) << error;
  const std::vector<Span> spans = recorder.End(events);
  std::set<std::string> names;
  for (const Span& span : spans) names.insert(span.name);
  for (const char* name : {"map_task", "cif.open", "cif.scan", "job.map_fn",
                           "plan.get_splits", "mapreduce.emit"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

}  // namespace
}  // namespace perfbench
