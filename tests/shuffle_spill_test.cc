// External sort-merge shuffle (DESIGN.md §12). The load-bearing invariant:
// a job's output is byte-for-byte identical whether the shuffle runs
// in-memory (sort_buffer_bytes == 0) or through the bounded-memory
// spill/merge path — across parallelism, combiner on/off, spill codecs,
// merge factors, and injected write faults. On top of that, the spill
// accounting (spill_count, merge_passes, peak_spill_buffer_bytes) must
// demonstrate that memory actually stayed bounded.
//
// Also home of the pinned-vector tests for the stable shuffle hash: the
// partitioner is a specified function (common/hash.h FNV-1a + splitmix64),
// not std::hash, so its exact outputs are part of the contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cif/column_stats.h"
#include "cif/column_writer.h"
#include "common/hash.h"
#include "formats/text/text_format.h"
#include "hdfs/fault_injector.h"
#include "mapreduce/committer.h"
#include "mapreduce/engine.h"
#include "mapreduce/spill.h"
#include "obs/metrics.h"
#include "serde/encoding.h"

namespace colmr {
namespace {

// CI sweeps the fault schedule seed (COLMR_FAULT_SEED) so probabilistic
// tests hold for every schedule, not one lucky draw.
uint64_t FaultSeed() {
  const char* env = std::getenv("COLMR_FAULT_SEED");
  return env == nullptr ? 17 : std::strtoull(env, nullptr, 10);
}

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 8;
  config.map_slots_per_node = 2;
  config.block_size = 1024;
  config.io_buffer_size = 256;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(17));
}

// A text dataset of several files of synthetic "words": many distinct keys
// so every reduce partition is non-empty, plus a heavily repeated key so
// the combiner has something to fold.
void WriteWords(MiniHdfs* fs, const std::string& dir, int files,
                int words_per_file) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record S { text: string }", &schema).ok());
  int next = 0;
  for (int f = 0; f < files; ++f) {
    std::unique_ptr<TextWriter> writer;
    ASSERT_TRUE(
        TextWriter::Open(fs, dir + "/f" + std::to_string(f), schema, &writer)
            .ok());
    for (int w = 0; w < words_per_file; ++w) {
      std::string sentence = "word" + std::to_string(next % 509) + " common";
      ++next;
      ASSERT_TRUE(
          writer->WriteRecord(Value::Record({Value::String(sentence)})).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
}

Job WordCountJob(const std::string& out, bool with_combiner) {
  Job job;
  job.config.input_paths = {"/in"};
  job.config.output_path = out;
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record& record, Emitter* emit) {
    std::istringstream words(record.GetOrDie("text").string_value());
    std::string word;
    while (words >> word) emit->Emit(Value::String(word), Value::Int32(1));
  };
  ReduceFn sum = [](const Value& key, const std::vector<Value>& values,
                    Emitter* emit) {
    int64_t total = 0;
    for (const Value& v : values) {
      total +=
          v.kind() == TypeKind::kInt32 ? v.int32_value() : v.int64_value();
    }
    emit->Emit(key, Value::Int64(total));
  };
  job.reducer = sum;
  if (with_combiner) job.combiner = sum;
  return job;
}

std::string ReadFile(MiniHdfs* fs, const std::string& path) {
  std::unique_ptr<FileReader> reader;
  EXPECT_TRUE(fs->Open(path, ReadContext{}, &reader).ok());
  std::string data;
  EXPECT_TRUE(reader->Read(0, reader->size(), &data).ok());
  return data;
}

// Every visible output file (name -> bytes), asserting the committed
// layout: a _SUCCESS marker, part files, and no _temporary residue.
std::map<std::string, std::string> CommittedOutput(MiniHdfs* fs,
                                                   const std::string& out) {
  std::map<std::string, std::string> files;
  std::vector<std::string> children;
  EXPECT_TRUE(fs->ListDir(out, &children).ok());
  bool success = false;
  for (const std::string& child : children) {
    EXPECT_NE(child, std::string(OutputCommitter::kTemporaryDir));
    if (child == OutputCommitter::kSuccessMarker) {
      success = true;
      continue;
    }
    files[child] = ReadFile(fs, out + "/" + child);
  }
  EXPECT_TRUE(success) << "no _SUCCESS marker in " << out;
  return files;
}

// report.output rendered to one comparable string.
std::string OutputToString(const JobReport& report) {
  std::string s;
  for (const auto& [key, value] : report.output) {
    s += key.ToString();
    s += '\t';
    s += value.ToString();
    s += '\n';
  }
  return s;
}

// ---------------------------------------------------------------------
// Pinned vectors: the specified hash and the partitioner built on it.
// These exact values are the cross-platform contract — std::hash gave a
// different partition assignment per stdlib, which is the bug this PR
// fixes. If one of these fails, the hash function changed and every
// existing partition assignment and sync marker silently moved.
// ---------------------------------------------------------------------

TEST(StableHashTest, HashBytesVectorsArePinned) {
  EXPECT_EQ(HashBytes(Slice("", 0), 0), 0x5b21f68ffa77f14cull);
  EXPECT_EQ(HashBytes(Slice("hello"), 0), 0x231ca7b6003c0723ull);
  EXPECT_EQ(HashBytes(Slice("hello"), 1), 0x1a322cf0c41ba363ull);
}

TEST(StableHashTest, TaggedValueHashVectorsArePinned) {
  const uint64_t seed = kShufflePartitionSeed;
  EXPECT_EQ(HashTaggedValue(Value::String("the"), seed),
            0x2b16a336a4f586d9ull);
  EXPECT_EQ(HashTaggedValue(Value::Int32(42), seed), 0x838a6579c0a87f56ull);
  EXPECT_EQ(HashTaggedValue(Value::Int64(-7), seed), 0x9d31333e481930a1ull);
  EXPECT_EQ(HashTaggedValue(Value::Double(2.5), seed),
            0xc57597ef7fd96534ull);
  EXPECT_EQ(HashTaggedValue(Value::Null(), seed), 0xd22612d33348f049ull);
}

// The streaming hash must agree with hashing the materialized encoding —
// that equivalence is what lets the partitioner skip the per-pair
// ToString()/Encode allocation the old code paid.
TEST(StableHashTest, StreamingHashMatchesMaterializedEncoding) {
  std::vector<Value> values = {
      Value::Null(),        Value::Bool(true),     Value::Int32(-123456),
      Value::Int64(1ll << 40), Value::Double(3.25), Value::String("shuffle"),
      Value::Record({Value::Int32(7), Value::String("x")}),
  };
  for (const Value& v : values) {
    Buffer encoded;
    EncodeTaggedValue(v, &encoded);
    EXPECT_EQ(HashTaggedValue(v, 99), HashBytes(encoded.AsSlice(), 99))
        << v.ToString();
  }
}

TEST(StableHashTest, ShufflePartitionVectorsArePinned) {
  struct Case {
    const char* word;
    uint32_t part4;
    uint32_t part7;
  };
  const Case cases[] = {
      {"the", 1, 1},  {"quick", 0, 6}, {"brown", 1, 2}, {"fox", 2, 3},
      {"lazy", 1, 5}, {"dog", 0, 0},   {"again", 1, 5},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ShufflePartition(Value::String(c.word), 4), c.part4) << c.word;
    EXPECT_EQ(ShufflePartition(Value::String(c.word), 7), c.part7) << c.word;
  }
}

// ---------------------------------------------------------------------
// Differential matrix: external output must be byte-identical to the
// in-memory path across buffer sizes, parallelism, combiner, codec, and
// write faults.
// ---------------------------------------------------------------------

struct MatrixReference {
  std::string output;                          // report.output, stringified
  std::map<std::string, std::string> files;    // committed part bytes
};

MatrixReference Baseline() {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.parallelism = 1;
  JobRunner runner(fs.get());
  JobReport report;
  EXPECT_TRUE(runner.Run(job, &report).ok());
  return {OutputToString(report), CommittedOutput(fs.get(), "/out")};
}

TEST(ShuffleSpillTest, ExternalOutputIsByteIdenticalToInMemory) {
  const MatrixReference reference = Baseline();
  ASSERT_FALSE(reference.output.empty());

  // sort_buffer_bytes: tiny (many spills per task), large enough that the
  // only spill is the Finish() flush (exactly one run per task), and 0
  // (the in-memory control arm re-run through the same matrix).
  const uint64_t buffers[] = {64, 1 << 20, 0};
  const int parallelisms[] = {1, 4};
  const bool combiners[] = {false, true};
  // A tiny buffer means dozens of spill files per attempt, i.e. dozens of
  // block seals the injector can bite on — the probability is kept low
  // and the attempt budget high so every seed schedule converges.
  const double fault_ps[] = {0.0, 0.01};

  for (uint64_t sort_buffer : buffers) {
    for (int parallelism : parallelisms) {
      for (bool with_combiner : combiners) {
        for (double fault_p : fault_ps) {
          SCOPED_TRACE("sort_buffer=" + std::to_string(sort_buffer) +
                       " parallelism=" + std::to_string(parallelism) +
                       " combiner=" + std::to_string(with_combiner) +
                       " fault_p=" + std::to_string(fault_p));
          auto fs = MakeFs();
          WriteWords(fs.get(), "/in", 3, 400);
          if (fault_p > 0) {
            FaultConfig faults;
            faults.seed = FaultSeed();
            faults.write_error_p = fault_p;
            fs->SetFaultConfig(faults);
          }
          Job job = WordCountJob("/out", with_combiner);
          job.config.sort_buffer_bytes = sort_buffer;
          job.config.parallelism = parallelism;
          job.config.max_task_attempts = 10;
          job.config.node_blacklist_failures = 1000;
          JobRunner runner(fs.get());
          JobReport report;
          ASSERT_TRUE(runner.Run(job, &report).ok());

          EXPECT_EQ(OutputToString(report), reference.output);
          EXPECT_EQ(CommittedOutput(fs.get(), "/out"), reference.files);
          EXPECT_LE(report.shuffle_bytes, report.map_output_bytes);
          if (sort_buffer == 0) {
            EXPECT_EQ(report.spill_count, 0u);
            EXPECT_EQ(report.spill_bytes, 0u);
          } else {
            EXPECT_GT(report.spill_count, 0u);
            EXPECT_GT(report.spill_bytes, 0u);
            // Bounded memory: the buffer never grew past the cap by more
            // than the single record that tipped it over.
            EXPECT_LE(report.peak_spill_buffer_bytes, sort_buffer + 64);
          }
        }
      }
    }
  }
}

TEST(ShuffleSpillTest, SpillCodecsPreserveOutput) {
  const MatrixReference reference = Baseline();
  for (CodecType codec : {CodecType::kLzf, CodecType::kZlite}) {
    SCOPED_TRACE(static_cast<int>(codec));
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 3, 400);
    Job job = WordCountJob("/out", /*with_combiner=*/false);
    job.config.sort_buffer_bytes = 256;
    job.config.parallelism = 4;
    job.config.spill_codec = codec;
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    EXPECT_EQ(OutputToString(report), reference.output);
    EXPECT_EQ(CommittedOutput(fs.get(), "/out"), reference.files);
    EXPECT_GT(report.spill_count, 0u);
  }
}

TEST(ShuffleSpillTest, SpeculationAndBatchRowsPreserveOutput) {
  const MatrixReference reference = Baseline();
  for (uint64_t batch_rows : {uint64_t{1}, uint64_t{1024}}) {
    SCOPED_TRACE(batch_rows);
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 3, 400);
    Job job = WordCountJob("/out", /*with_combiner=*/true);
    job.config.sort_buffer_bytes = 128;
    job.config.parallelism = 4;
    job.config.batch_rows = batch_rows;
    job.config.speculative_execution = true;
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    EXPECT_EQ(OutputToString(report), reference.output);
    EXPECT_EQ(CommittedOutput(fs.get(), "/out"), reference.files);
  }
}

// ---------------------------------------------------------------------
// Spill accounting invariants.
// ---------------------------------------------------------------------

TEST(ShuffleSpillTest, SpillsAtLeastTwicePerTaskWhenOutputExceedsBuffer) {
  // First pass in-memory to learn the job's true map output volume. The
  // tail split of each input file is smaller than the rest, so size the
  // buffer off the smallest substantial task, not the average: every
  // eligible task's output must exceed 4x the buffer.
  uint64_t min_task_records = 0;
  size_t eligible_tasks = 0;
  uint64_t avg_record_bytes = 0;
  {
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 3, 400);
    Job job = WordCountJob("/out", /*with_combiner=*/false);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    ASSERT_GT(report.map_output_records, 0u);
    avg_record_bytes = report.map_output_bytes / report.map_output_records;
    for (const TaskReport& task : report.map_tasks) {
      if (task.output_records < 10) continue;  // runt tail split
      ++eligible_tasks;
      if (min_task_records == 0 || task.output_records < min_task_records) {
        min_task_records = task.output_records;
      }
    }
  }
  ASSERT_GT(eligible_tasks, 0u);
  ASSERT_GT(avg_record_bytes, 0u);

  // >= 5x the smallest eligible task's output, so even that task spills
  // at least four times before the Finish() flush.
  const uint64_t sort_buffer = min_task_records * avg_record_bytes / 5;
  ASSERT_GT(sort_buffer, 0u);

  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  MetricsRegistry registry;
  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = sort_buffer;
  job.config.merge_factor = 2;  // force intermediate merge passes
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  // >= 2 spills per eligible map task: output exceeded the buffer several
  // times over, so no such task fit in a single Finish() flush.
  EXPECT_GE(report.spill_count, 2 * eligible_tasks);
  EXPECT_GT(report.spill_bytes, 0u);
  // merge_factor 2 with >= 2 runs/task forces intermediate passes, and
  // the final reduce-side merge consumes segments too.
  EXPECT_GT(report.merge_passes, 0u);
  EXPECT_GT(report.merge_segments, 0u);
  EXPECT_LE(report.peak_spill_buffer_bytes, sort_buffer + 64);
  EXPECT_LE(report.shuffle_bytes, report.map_output_bytes);

  // The metrics registry saw the same story the report tells.
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("mr.spill.count"), report.spill_count);
  EXPECT_EQ(snapshot.counters.at("mr.spill.bytes"), report.spill_bytes);
  EXPECT_EQ(snapshot.counters.at("mr.spill.merge_passes"),
            report.merge_passes);
  EXPECT_EQ(snapshot.counters.at("mr.spill.merge_segments"),
            report.merge_segments);
}

// serde.shuffle.values_{encoded,decoded} count shuffle records only: a
// spilling job moves them by two tagged values (key, value) per record
// spilled and per record merged back, while the tagged min/max values in
// CIF zone-map footers (CST1) leave them alone.
TEST(ShuffleSpillTest, ShuffleValueCountersCountOnlySpillRecords) {
  Counter* encoded =
      MetricsRegistry::Default().counter("serde.shuffle.values_encoded");
  Counter* decoded =
      MetricsRegistry::Default().counter("serde.shuffle.values_decoded");
  auto fs = MakeFs();

  uint64_t encoded_before = encoded->value();
  uint64_t decoded_before = decoded->value();
  std::unique_ptr<ColumnFileWriter> column;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/stats.col",
                                       Schema::Int64(), ColumnOptions{},
                                       &column)
                  .ok());
  for (int64_t i = 0; i < 2500; ++i) {
    ASSERT_TRUE(column->Append(Value::Int64(i)).ok());
  }
  ASSERT_TRUE(column->Close().ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(ReadColumnStats(fs.get(), "/stats.col", ReadContext{}, &stats,
                              &present)
                  .ok());
  ASSERT_TRUE(present);
  ASSERT_TRUE(stats.groups.size() > 1 && stats.groups[0].has_min);
  EXPECT_EQ(encoded->value() - encoded_before, 0u);
  EXPECT_EQ(decoded->value() - decoded_before, 0u);

  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob(/*out=*/"", /*with_combiner=*/false);
  job.config.parallelism = 1;
  job.config.sort_buffer_bytes = 256;
  job.config.merge_factor = 1000;  // one merge: each record is read once
  JobRunner runner(fs.get());
  JobReport report;
  encoded_before = encoded->value();
  decoded_before = decoded->value();
  ASSERT_TRUE(runner.Run(job, &report).ok());
  ASSERT_GT(report.spill_count, report.map_tasks.size());
  ASSERT_EQ(report.merge_passes, 0u);
  uint64_t merged = 0;
  for (uint64_t n : report.reduce_input_records) merged += n;
  EXPECT_EQ(merged, report.map_output_records);
  EXPECT_EQ(encoded->value() - encoded_before, 2 * report.map_output_records);
  EXPECT_EQ(decoded->value() - decoded_before, 2 * merged);
}

// A certain write fault on every block seal must fail the job cleanly —
// spill I/O reaches the same sticky-failure path as output writes — and
// leave no visible output.
TEST(ShuffleSpillTest, CertainSpillFaultFailsJobCleanly) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 2, 200);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_error_p = 1.0;
  fs->SetFaultConfig(faults);

  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 128;
  JobRunner runner(fs.get());
  JobReport report;
  Status s = runner.Run(job, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_GT(report.write_faults, 0u);
  EXPECT_FALSE(fs->Exists("/out"));
}

// Jobs without an output path (report-only) also take the external path;
// their scratch lives under /_shuffle and is torn down with the run.
TEST(ShuffleSpillTest, ReportOnlyJobCleansScratch) {
  const MatrixReference reference = Baseline();
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob(/*out=*/"", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 128;
  job.config.parallelism = 4;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(OutputToString(report), reference.output);
  EXPECT_GT(report.spill_count, 0u);
  EXPECT_FALSE(fs->Exists("/_shuffle"));
}


// Keys that Value::Compare calls equal must share a shuffle partition, or
// the in-memory and external paths group them differently. +0.0 and -0.0
// compare equal, so a combiner job emitting 50 of each must reduce to one
// +0.0 group of 100 at every reducer count, buffer size and parallelism.
TEST(ShuffleSpillTest, SignedZeroKeysShareOnePartition) {
  std::string reference;
  for (int reducers = 1; reducers <= 8; ++reducers) {
    for (uint64_t sort_buffer : {uint64_t{0}, uint64_t{64}}) {
      for (int parallelism : {1, 4}) {
        SCOPED_TRACE("reducers=" + std::to_string(reducers) +
                     " sort_buffer=" + std::to_string(sort_buffer) +
                     " parallelism=" + std::to_string(parallelism));
        auto fs = MakeFs();
        WriteWords(fs.get(), "/in", 4, 25);  // word0 .. word99
        Job job = WordCountJob(/*out=*/"", /*with_combiner=*/true);
        job.mapper = [](Record& record, Emitter* emit) {
          // Even words (word0 first) key +0.0, odd ones -0.0.
          const std::string& text = record.GetOrDie("text").string_value();
          const bool even = (text[text.find(' ') - 1] - '0') % 2 == 0;
          emit->Emit(Value::Double(even ? 0.0 : -0.0), Value::Int32(1));
        };
        job.config.num_reduce_tasks = reducers;
        job.config.sort_buffer_bytes = sort_buffer;
        job.config.parallelism = parallelism;
        JobRunner runner(fs.get());
        JobReport report;
        ASSERT_TRUE(runner.Run(job, &report).ok());
        ASSERT_EQ(report.output.size(), 1u) << OutputToString(report);
        EXPECT_EQ(report.output[0].first.kind(), TypeKind::kDouble);
        EXPECT_FALSE(std::signbit(report.output[0].first.double_value()));
        EXPECT_EQ(report.output[0].second.int64_value(), 100);
        if (reference.empty()) reference = OutputToString(report);
        EXPECT_EQ(OutputToString(report), reference);
      }
    }
  }
}

// Value::Compare orders every NaN after all numbers and equal to every
// other NaN, so the shuffle sort is a strict weak order with NaN keys too:
// 60 records keyed in turn NaN, 1.0, 2.0 reduce to three groups of 20 on
// both shuffle paths and at any parallelism, and NaN payloads that differ
// in their bits still share a partition.
TEST(ShuffleSpillTest, NaNKeysFormOneGroup) {
  std::string reference;
  for (uint64_t sort_buffer : {uint64_t{0}, uint64_t{64}}) {
    for (int parallelism : {1, 4}) {
      SCOPED_TRACE("sort_buffer=" + std::to_string(sort_buffer) +
                   " parallelism=" + std::to_string(parallelism));
      auto fs = MakeFs();
      WriteWords(fs.get(), "/in", 3, 20);  // word0 .. word59
      Job job = WordCountJob(/*out=*/"", /*with_combiner=*/true);
      job.mapper = [](Record& record, Emitter* emit) {
        const std::string& text = record.GetOrDie("text").string_value();
        const int n = std::stoi(text.substr(4, text.find(' ') - 4));
        const double keys[] = {std::nan(""), 1.0, 2.0};
        emit->Emit(Value::Double(keys[n % 3]), Value::Int32(1));
      };
      job.config.num_reduce_tasks = 1;
      job.config.sort_buffer_bytes = sort_buffer;
      job.config.parallelism = parallelism;
      JobRunner runner(fs.get());
      JobReport report;
      ASSERT_TRUE(runner.Run(job, &report).ok());
      ASSERT_EQ(report.output.size(), 3u) << OutputToString(report);
      EXPECT_EQ(report.output[0].first.double_value(), 1.0);
      EXPECT_EQ(report.output[1].first.double_value(), 2.0);
      EXPECT_TRUE(std::isnan(report.output[2].first.double_value()));
      for (const auto& [key, count] : report.output) {
        EXPECT_EQ(count.int64_value(), 20);
      }
      if (reference.empty()) reference = OutputToString(report);
      EXPECT_EQ(OutputToString(report), reference);
    }
  }
  const double nans[] = {std::numeric_limits<double>::quiet_NaN(),
                         -std::nan("1")};
  uint64_t bits[2];
  std::memcpy(bits, nans, sizeof(bits));
  ASSERT_NE(bits[0], bits[1]);
  const Value quiet = Value::Double(nans[0]);
  const Value payload = Value::Double(nans[1]);
  EXPECT_EQ(quiet.Compare(payload), 0);
  for (uint32_t partitions = 1; partitions <= 8; ++partitions) {
    EXPECT_EQ(ShufflePartition(quiet, partitions),
              ShufflePartition(payload, partitions));
  }
}

// ---- GroupThenOrder: the shuffle's one sort ------------------------------

// Keys that stress grouping: repeated strings, Int32 and Int64 of equal
// value (distinct kinds, so distinct keys), ±0.0 and NaN payloads (one
// group each, whose first member's bits must survive), nested arrays and
// maps holding them, plus random words for cardinality.
Value DifferentialKey(std::mt19937_64& rng) {
  const double nan_a = std::numeric_limits<double>::quiet_NaN();
  const double nan_b = -std::nan("1");
  const double nan_c = std::nan("7");
  const Value pool[] = {
      Value::String("dup"),
      Value::String(""),
      Value::Int32(7),
      Value::Int64(7),
      Value::Int32(-1),
      Value::Int64(-1),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(nan_a),
      Value::Double(nan_b),
      Value::Double(nan_c),
      Value::Double(7.0),
      Value::Null(),
      Value::Array({}),
      Value::Array({Value::Int32(1), Value::Double(-0.0)}),
      Value::Array({Value::Int32(1), Value::Double(0.0)}),
      Value::Array({Value::Double(nan_b), Value::String("dup")}),
      Value::Array({Value::Double(nan_a), Value::String("dup")}),
      Value::Map({{"k", Value::Double(nan_c)}}),
      Value::Map({{"k", Value::Double(nan_a)}}),
      Value::Map({{"k", Value::Array({Value::Int64(7)})}, {"z", Value()}}),
  };
  constexpr size_t kPool = sizeof(pool) / sizeof(pool[0]);
  const uint64_t pick = rng() % (kPool + 40);
  if (pick < kPool) return pool[pick];
  return Value::String("w" + std::to_string(pick - kPool));
}

std::string TaggedBytes(const Value& value) {
  Buffer buffer;
  EncodeTaggedValue(value, &buffer);
  return buffer.AsSlice().ToString();
}

// The kernel against a test-local stable sort by (partition, key) folded
// through EqualKeyFold: identical member order, group boundaries, first
// keys (bit for bit) and value order. The constant hash sends every key
// down one probe chain, so Value::Compare alone tells the groups apart.
TEST(GroupThenOrderTest, MatchesStableSortAndEqualKeyFold) {
  const ReduceFn collect = [](const Value& key,
                              const std::vector<Value>& values,
                              Emitter* out) {
    out->Emit(key, Value::Array(values));
  };
  for (const bool constant_hash : {false, true}) {
    for (const uint32_t partitions : {1u, 3u, 8u}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("constant_hash=" + std::to_string(constant_hash) +
                     " partitions=" + std::to_string(partitions) +
                     " seed=" + std::to_string(seed));
        std::mt19937_64 rng(seed);
        std::vector<std::pair<Value, Value>> pairs;
        std::vector<uint64_t> hashes;
        for (int64_t i = 0; i < 400; ++i) {
          pairs.emplace_back(DifferentialKey(rng), Value::Int64(i));
          hashes.push_back(constant_hash ? 0x5eed
                                         : ShuffleHash(pairs.back().first));
        }

        std::vector<uint32_t> sorted(pairs.size());
        std::iota(sorted.begin(), sorted.end(), 0u);
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](uint32_t a, uint32_t b) {
                           const uint64_t pa = hashes[a] % partitions;
                           const uint64_t pb = hashes[b] % partitions;
                           if (pa != pb) return pa < pb;
                           return pairs[a].first.Compare(pairs[b].first) < 0;
                         });
        std::vector<uint32_t> ends;
        for (size_t k = 1; k <= sorted.size(); ++k) {
          if (k == sorted.size() || pairs[sorted[k]].first.Compare(
                                        pairs[sorted[k - 1]].first) != 0) {
            ends.push_back(static_cast<uint32_t>(k));
          }
        }
        VectorEmitter expected;
        EqualKeyFold fold(collect, &expected);
        for (uint32_t i : sorted) fold.Add(pairs[i].first, pairs[i].second);
        fold.Flush();

        const KeyGroups groups = GroupThenOrder(pairs, hashes, partitions);
        EXPECT_EQ(groups.order, sorted);
        EXPECT_EQ(groups.ends, ends);
        VectorEmitter actual;
        FoldGroups(groups, &pairs, collect, &actual);
        ASSERT_EQ(actual.pairs().size(), expected.pairs().size());
        for (size_t g = 0; g < actual.pairs().size(); ++g) {
          EXPECT_EQ(TaggedBytes(actual.pairs()[g].first),
                    TaggedBytes(expected.pairs()[g].first))
              << "group " << g;
          EXPECT_EQ(TaggedBytes(actual.pairs()[g].second),
                    TaggedBytes(expected.pairs()[g].second))
              << "group " << g;
        }
      }
    }
  }
}

// Intermediate merge passes write runs like any other write attempt: their
// faults reach report.write_faults and their re-executions count as write
// retries, so the report agrees with the hdfs.write.* counters.
TEST(ShuffleSpillTest, MergePassWriteFaultsAndRetriesAreCounted) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_error_p = 0.05;
  fs->SetFaultConfig(faults);
  MetricsRegistry registry;
  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 256;
  job.config.merge_factor = 2;
  job.config.parallelism = 1;
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  ASSERT_GT(report.merge_passes, 0u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(report.write_faults, snapshot.counters.at("hdfs.write.faults"));
  EXPECT_EQ(report.write_retries, snapshot.counters.at("hdfs.write.retries"));
  EXPECT_GT(report.write_retries, 0u);
}

// A terminal DataLoss (no replica of a block can serve it) ends the job
// without retries. Run serially, the job stops at the failed task: one
// launch, no retry, no blacklist. Run in parallel, every queued split
// still runs once before the lowest-index failure is reported.
TEST(ShuffleSpillTest, DataLossStopsSerialJobAtFirstTask) {
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 4, 250);
    std::vector<BlockInfo> blocks;
    ASSERT_TRUE(fs->GetBlockLocations("/in/f0/part-00000", &blocks).ok());
    ASSERT_FALSE(blocks.empty());
    for (NodeId node : blocks[0].replicas) {
      ASSERT_TRUE(fs->MarkReplicaBad(blocks[0].id, node).ok());
    }
    MetricsRegistry registry;
    Job job = WordCountJob("/out", /*with_combiner=*/false);
    job.config.parallelism = parallelism;
    job.config.metrics = &registry;
    std::vector<InputSplit> splits;
    ASSERT_TRUE(
        job.input_format->GetSplits(fs.get(), job.config, &splits).ok());
    ASSERT_GT(splits.size(), 4u);
    JobRunner runner(fs.get());
    JobReport report;
    const Status s = runner.Run(job, &report);
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
    const uint64_t launched =
        registry.Snapshot().counters.at("mr.task.launched");
    EXPECT_EQ(launched, parallelism == 1 ? 1u : splits.size());
    EXPECT_EQ(report.task_retries, 0u);
    EXPECT_TRUE(report.blacklisted_nodes.empty());
    EXPECT_FALSE(fs->Exists("/out"));
  }
}

}  // namespace
}  // namespace colmr
