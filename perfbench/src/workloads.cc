#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/column_format.h"
#include "common/random.h"
#include "mapreduce/engine.h"
#include "serde/encoding.h"
#include "serde/predicate.h"
#include "workload/crawl.h"
#include "workload/synthetic.h"
#include "workload/weblog.h"

namespace perfbench {
namespace {

using colmr::ColumnInputFormat;
using colmr::ColumnLayout;
using colmr::ColumnOptions;
using colmr::CofOptions;
using colmr::CofWriter;
using colmr::Emitter;
using colmr::Job;
using colmr::JobReport;
using colmr::JobRunner;
using colmr::MiniHdfs;
using colmr::Record;
using colmr::Schema;
using colmr::Status;
using colmr::Value;

// ---- Data sizes (see perfbench/README.md for the reasoning) ----
constexpr uint64_t kCrawlRecords = 24000;   // ~74 MB raw, ~45 MB on HDFS
constexpr uint64_t kZonedRecords = 150000;  // ~16 MB, 151 rowgroups
constexpr uint64_t kWeblogRecords = 60000;  // ~9 MB
constexpr uint64_t kIngestRecords = 2000;   // ~6 MB per op
constexpr uint64_t kSplitTargetBytes = 1 << 20;
constexpr uint64_t kZonedSplitTargetBytes = 8 << 20;
/// Cutoffs in the zoned sequence, and their selectivity range.
constexpr int kZonedCutoffs = 32;
constexpr double kMinSelectivity = 0.001;
constexpr double kMaxSelectivity = 0.20;
/// Sort-buffer refills per weblog map task (so several spills each).
constexpr uint64_t kSpillsPerTask = 4;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::unique_ptr<MiniHdfs> NewFs(uint64_t seed) {
  colmr::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.map_slots_per_node = 6;
  cluster.reduce_slots_per_node = 1;
  cluster.replication = 3;
  cluster.block_size = 4ull << 20;
  cluster.io_buffer_size = 128 * 1024;
  return std::make_unique<MiniHdfs>(
      cluster, std::make_unique<colmr::ColumnPlacementPolicy>(Mix(seed, 99)));
}

// The paper's Table 1 layout: metadata as DCSL, content in LZF blocks,
// everything else plain.
CofOptions CrawlLayout() {
  CofOptions options;
  options.split_target_bytes = kSplitTargetBytes;
  options.column_overrides["metadata"] =
      ColumnOptions{ColumnLayout::kDictSkipList, colmr::CodecType::kNone, 0};
  options.column_overrides["content"] = ColumnOptions{
      ColumnLayout::kCompressedBlocks, colmr::CodecType::kLzf, 64 * 1024};
  return options;
}

// Compact-content crawl pages: 1-3 KB of content, HTTP-style metadata.
colmr::CrawlGeneratorOptions CompactCrawl() {
  colmr::CrawlGeneratorOptions options;
  options.metadata_entries = 12;
  options.metadata_value_words = 5;
  options.min_content_bytes = 1000;
  options.max_content_bytes = 3000;
  return options;
}

uint64_t DirBytes(MiniHdfs* fs, const std::string& dir,
                  const std::set<std::string>* only_names = nullptr) {
  std::vector<std::string> files;
  if (!colmr::ExpandInputPaths(fs, {dir}, &files).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& file : files) {
    const std::string base = file.substr(file.rfind('/') + 1);
    if (only_names != nullptr && only_names->count(base) == 0) continue;
    uint64_t size = 0;
    if (fs->GetFileSize(file, &size).ok()) total += size;
  }
  return total;
}

std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(bytes) / 1e6);
  return buf;
}

// Sums [count, bytes]-style Int64 pairs: the combiner and reducer of the
// aggregation workloads.
void SumPairs(const Value& key, const std::vector<Value>& values,
              Emitter* out) {
  int64_t a = 0;
  int64_t b = 0;
  for (const Value& value : values) {
    a += value.elements()[0].int64_value();
    b += value.elements()[1].int64_value();
  }
  out->Emit(key, Value::Array({Value::Int64(a), Value::Int64(b)}));
}

// Order-sensitive checksum over row hashes: the ingest reference folds
// the in-memory records and the read-back folds what HDFS returned.
uint64_t FoldRowHash(uint64_t checksum, uint64_t row_hash) {
  return Mix(checksum, row_hash);
}

Value Pair(int64_t a, int64_t b) {
  return Value::Array({Value::Int64(a), Value::Int64(b)});
}

// Workloads that run one MapReduce job per op.
class JobWorkload : public Workload {
 public:
  void Prepare(uint64_t op, const Instrumentation* inst) override {
    job_ = BaseJob(op);
    job_.config.metrics = &job_metrics_;
    job_.config.parallelism = kEngineThreads;
    if (inst != nullptr) {
      job_.config.trace = inst->trace;
      job_.input_format = std::make_shared<TimedInputFormat>(
          job_.input_format, inst->recorder, inst->counts);
      job_.mapper = TimedMap(std::move(job_.mapper), inst->recorder);
      if (job_.combiner) {
        job_.combiner = TimedReduce(std::move(job_.combiner), inst->recorder,
                                    Layer::kCombineFn);
      }
      if (job_.reducer) {
        job_.reducer = TimedReduce(std::move(job_.reducer), inst->recorder,
                                   Layer::kReduceFn);
      }
    }
  }

  Status Run() override { return runner_->Run(job_, &report_); }

  const JobReport* report() const override { return &report_; }
  double SpaceAmp() const override {
    return static_cast<double>(dataset_bytes_) /
           static_cast<double>(user_bytes_);
  }

 protected:
  virtual Job BaseJob(uint64_t op) = 0;

  // Runs `ops` untimed ops end to end, checking each.
  Status WarmUp(int ops) {
    for (int i = 0; i < ops; ++i) {
      Prepare(static_cast<uint64_t>(i), nullptr);
      COLMR_RETURN_IF_ERROR(Run());
      OpFacts facts;
      std::string why;
      if (!Check(&facts, &why)) {
        return Status::Corruption("warm-up output wrong: " + why);
      }
      COLMR_RETURN_IF_ERROR(Cleanup());
    }
    return Status::OK();
  }

  // Streams `records` records of `gen` into a CIF dataset at `path`,
  // calling `observe` on each; fills dataset_bytes_ and user_bytes_.
  template <typename Generator, typename Observe>
  Status Load(const std::string& path, const Schema::Ptr& schema,
              const CofOptions& options, Generator& gen, uint64_t records,
              Observe observe) {
    std::unique_ptr<CofWriter> writer;
    COLMR_RETURN_IF_ERROR(
        CofWriter::Open(fs_.get(), path, schema, options, &writer));
    for (uint64_t i = 0; i < records; ++i) {
      const Value record = gen.Next();
      user_bytes_ += colmr::EncodedSize(*schema, record);
      observe(record);
      COLMR_RETURN_IF_ERROR(writer->WriteRecord(record));
    }
    COLMR_RETURN_IF_ERROR(writer->Close());
    splits_ = static_cast<uint64_t>(writer->split_count());
    dataset_bytes_ = DirBytes(fs_.get(), path);
    return Status::OK();
  }

  std::unique_ptr<JobRunner> runner_;
  Job job_;
  JobReport report_;
  uint64_t dataset_bytes_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t splits_ = 0;
};

// ---- crawl-contenttype: the paper's Table 1 job, cache-resident ----
class CrawlContentType final : public JobWorkload {
 public:
  explicit CrawlContentType(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    fs_ = NewFs(seed_);
    runner_ = std::make_unique<JobRunner>(fs_.get());
    const Schema::Ptr schema = colmr::CrawlSchema();
    const int url = schema->FieldIndex("url");
    const int metadata = schema->FieldIndex("metadata");
    colmr::CrawlGenerator gen(Mix(seed_, 1), CompactCrawl());
    COLMR_RETURN_IF_ERROR(Load(
        "/crawl", schema, CrawlLayout(), gen, kCrawlRecords,
        [&](const Value& record) {
          const std::string& u = record.elements()[url].string_value();
          if (u.find(colmr::kCrawlFilterPattern) == std::string::npos) return;
          const Value* ct = record.elements()[metadata].FindMapEntry(
              colmr::kContentTypeKey);
          if (ct != nullptr) expected_.insert(ct->string_value());
        }));
    const std::set<std::string> projected = {"url.col", "metadata.col",
                                            colmr::kCifSchemaFileName};
    projected_bytes_ = DirBytes(fs_.get(), "/crawl", &projected);
    // The cache picks a shard by block id modulo 8, and a split's files
    // get consecutive ids, so every metadata block lands in one shard.
    // Budgeting each of the 8 shards for all projected bytes keeps the
    // warm scan served entirely from cache.
    cache_bytes_ = 8 * projected_bytes_;
    // Two passes: the first fills the cache, the second runs warm.
    return WarmUp(2);
  }

  bool Check(OpFacts* facts, std::string* why) override {
    facts->input_rows = kCrawlRecords;
    std::set<std::string> got;
    for (const auto& [key, value] : report_.output) {
      if (key.kind() != colmr::TypeKind::kString || !value.is_null() ||
          !got.insert(key.string_value()).second) {
        *why = "unexpected or duplicate output pair " + key.ToString();
        return false;
      }
    }
    if (got != expected_) {
      *why = "content-type set differs: " + std::to_string(got.size()) +
             " keys, expected " + std::to_string(expected_.size());
      return false;
    }
    return true;
  }

  std::string Describe() const override {
    return std::to_string(kCrawlRecords) + " crawl records, " +
           Mb(dataset_bytes_) + " on HDFS in " + std::to_string(splits_) +
           " splits; projected columns " + Mb(projected_bytes_) +
           ", block cache " + Mb(cache_bytes_);
  }

 private:
  Job BaseJob(uint64_t) override {
    Job job;
    job.config.input_paths = {"/crawl"};
    job.config.projection = {"url", "metadata"};
    job.config.lazy_records = true;
    job.config.cache_bytes = cache_bytes_;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      const std::string& url = record.GetOrDie("url").string_value();
      if (url.find(colmr::kCrawlFilterPattern) == std::string::npos) return;
      const Value* ct =
          record.GetOrDie("metadata").FindMapEntry(colmr::kContentTypeKey);
      if (ct != nullptr) {
        out->Emit(Value::String(ct->string_value()), Value::Null());
      }
    };
    job.reducer = [](const Value& key, const std::vector<Value>&,
                     Emitter* out) { out->Emit(key, Value::Null()); };
    return job;
  }

  uint64_t seed_;
  std::set<std::string> expected_;
  uint64_t projected_bytes_ = 0;
  uint64_t cache_bytes_ = 0;
};

// ---- zoned-pushdown: selective scans with zone-map pruning, no cache ----
class ZonedPushdown final : public JobWorkload {
 public:
  explicit ZonedPushdown(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    fs_ = NewFs(seed_);
    runner_ = std::make_unique<JobRunner>(fs_.get());
    const Schema::Ptr schema = colmr::ZonedSchema();
    const int seq = schema->FieldIndex("seq");
    const int int0 = schema->FieldIndex("int0");
    CofOptions options;
    options.split_target_bytes = kZonedSplitTargetBytes;
    options.default_column.layout = ColumnLayout::kSkipList;
    colmr::ZonedGenerator gen(Mix(seed_, 2));
    prefix_sum_.assign(1, 0);
    Status order;
    COLMR_RETURN_IF_ERROR(Load(
        "/zoned", schema, options, gen, kZonedRecords,
        [&](const Value& record) {
          const int64_t row = static_cast<int64_t>(prefix_sum_.size()) - 1;
          if (record.elements()[seq].int64_value() != row) {
            order = Status::Corruption("zoned generator: seq is not 0,1,2,...");
          }
          prefix_sum_.push_back(prefix_sum_.back() +
                                record.elements()[int0].int64_value());
        }));
    COLMR_RETURN_IF_ERROR(order);
    // A fixed log-spaced grid of selectivities; the seed picks the order
    // the ops visit it in (and, through the data, every cutoff's sum).
    for (int k = 0; k < kZonedCutoffs; ++k) {
      const double selectivity =
          kMinSelectivity *
          std::pow(kMaxSelectivity / kMinSelectivity,
                   static_cast<double>(k) / (kZonedCutoffs - 1));
      cutoffs_.push_back(std::max<int64_t>(
          1, std::llround(selectivity * static_cast<double>(kZonedRecords))));
    }
    colmr::Random rng(Mix(seed_, 3));
    for (int k = kZonedCutoffs - 1; k > 0; --k) {
      std::swap(cutoffs_[k], cutoffs_[rng.Uniform(k + 1)]);
    }
    for (const int64_t cutoff : cutoffs_) {
      colmr::Predicate predicate;
      COLMR_RETURN_IF_ERROR(colmr::ParsePredicate(
          "seq < " + std::to_string(cutoff), &predicate));
      predicates_.push_back(
          std::make_shared<const colmr::Predicate>(std::move(predicate)));
    }
    // Warm up on every cutoff once, so no timed op is the first of its kind.
    return WarmUp(kZonedCutoffs);
  }

  bool Check(OpFacts* facts, std::string* why) override {
    facts->input_rows = kZonedRecords;
    const Value expected = Pair(prefix_sum_[cutoff_], cutoff_);
    if (report_.output.size() != 1 ||
        report_.output[0].first != Value::String("sum") ||
        report_.output[0].second != expected) {
      *why = "seq < " + std::to_string(cutoff_) + ": expected " +
             expected.ToString() + ", got " +
             std::to_string(report_.output.size()) + " pairs";
      return false;
    }
    return true;
  }

  std::string Describe() const override {
    return std::to_string(kZonedRecords) + " zoned rows, " +
           Mb(dataset_bytes_) + " on HDFS in " + std::to_string(splits_) +
           " splits; no block cache; " + std::to_string(kZonedCutoffs) +
           " cutoffs at 0.1%-20% selectivity";
  }

 private:
  Job BaseJob(uint64_t op) override {
    cutoff_ = cutoffs_[op % cutoffs_.size()];
    Job job;
    job.config.input_paths = {"/zoned"};
    job.config.projection = {"seq", "int0"};
    job.config.predicate = predicates_[op % predicates_.size()];
    job.config.predicate_pushdown = true;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      out->Emit(Value::String("sum"),
                Pair(record.GetOrDie("int0").int64_value(), 1));
    };
    job.combiner = SumPairs;
    job.reducer = SumPairs;
    return job;
  }

  uint64_t seed_;
  std::vector<int64_t> prefix_sum_;
  std::vector<int64_t> cutoffs_;
  std::vector<std::shared_ptr<const colmr::Predicate>> predicates_;
  int64_t cutoff_ = 0;
};

// ---- weblog-ip-rollup: shuffle-heavy aggregation with spills + commit ----
class WeblogIpRollup final : public JobWorkload {
 public:
  explicit WeblogIpRollup(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    fs_ = NewFs(seed_);
    runner_ = std::make_unique<JobRunner>(fs_.get());
    const Schema::Ptr schema = colmr::WeblogSchema();
    const int ip = schema->FieldIndex("ip");
    const int bytes = schema->FieldIndex("bytes");
    CofOptions options;
    options.split_target_bytes = kSplitTargetBytes;
    colmr::WeblogGenerator gen(Mix(seed_, 4));
    uint64_t map_output_bytes = 0;
    COLMR_RETURN_IF_ERROR(Load(
        "/weblog", schema, options, gen, kWeblogRecords,
        [&](const Value& record) {
          const Value& key = record.elements()[ip];
          const int64_t b = record.elements()[bytes].int64_value();
          auto& [count, total] = expected_[key.string_value()];
          count += 1;
          total += b;
          map_output_bytes +=
              colmr::TaggedEncodedSize(key) + colmr::TaggedEncodedSize(Pair(1, b));
        }));
    sort_buffer_bytes_ = std::max<uint64_t>(
        4096, map_output_bytes / std::max<uint64_t>(1, splits_) / kSpillsPerTask);
    return WarmUp(1);
  }

  bool Check(OpFacts* facts, std::string* why) override {
    facts->input_rows = kWeblogRecords;
    facts->written_bytes = report_.spill_bytes + DirBytes(fs_.get(), kOutput);
    if (!fs_->Exists(std::string(kOutput) + "/_SUCCESS")) {
      *why = "output has no _SUCCESS marker";
      return false;
    }
    if (report_.output.size() != expected_.size()) {
      *why = std::to_string(report_.output.size()) + " ips, expected " +
             std::to_string(expected_.size());
      return false;
    }
    for (const auto& [key, value] : report_.output) {
      auto it = expected_.find(key.string_value());
      if (it == expected_.end() ||
          value != Pair(it->second.first, it->second.second)) {
        *why = "wrong totals for ip " + key.ToString();
        return false;
      }
    }
    return true;
  }

  Status Cleanup() override { return fs_->DeleteRecursive(kOutput); }

  std::string Describe() const override {
    return std::to_string(kWeblogRecords) + " weblog rows (" +
           std::to_string(expected_.size()) + " distinct ips), " +
           Mb(dataset_bytes_) + " on HDFS in " + std::to_string(splits_) +
           " splits; sort buffer " + std::to_string(sort_buffer_bytes_) +
           " bytes; no block cache";
  }

 private:
  static constexpr const char* kOutput = "/out/ip-rollup";

  Job BaseJob(uint64_t) override {
    Job job;
    job.config.input_paths = {"/weblog"};
    job.config.output_path = kOutput;
    job.config.projection = {"ip", "bytes"};
    job.config.sort_buffer_bytes = sort_buffer_bytes_;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      out->Emit(record.GetOrDie("ip"),
                Pair(1, record.GetOrDie("bytes").int64_value()));
    };
    job.combiner = SumPairs;
    job.reducer = SumPairs;
    return job;
  }

  uint64_t seed_;
  std::map<std::string, std::pair<int64_t, int64_t>> expected_;
  uint64_t sort_buffer_bytes_ = 0;
};

// ---- crawl-ingest: the Table 2 load path ----
class CrawlIngest final : public Workload {
 public:
  explicit CrawlIngest(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    fs_ = NewFs(seed_);
    schema_ = colmr::CrawlSchema();
    colmr::CrawlGenerator gen(Mix(seed_, 5), CompactCrawl());
    records_.reserve(kIngestRecords);
    for (uint64_t i = 0; i < kIngestRecords; ++i) {
      records_.push_back(gen.Next());
      user_bytes_ += colmr::EncodedSize(*schema_, records_.back());
      expected_checksum_ =
          FoldRowHash(expected_checksum_, RowHash(records_.back().elements()));
    }
    Prepare(0, nullptr);
    COLMR_RETURN_IF_ERROR(Run());
    OpFacts facts;
    std::string why;
    if (!Check(&facts, &why)) {
      return Status::Corruption("warm-up ingest wrong: " + why);
    }
    return Cleanup();
  }

  void Prepare(uint64_t op, const Instrumentation* inst) override {
    path_ = "/ingest/op-" + std::to_string(op);
    recorder_ = inst != nullptr ? inst->recorder : nullptr;
  }

  Status Run() override {
    std::unique_ptr<CofWriter> writer;
    {
      Timed timed(recorder_, Layer::kWrite);
      COLMR_RETURN_IF_ERROR(
          CofWriter::Open(fs_.get(), path_, schema_, CrawlLayout(), &writer));
    }
    for (const Value& record : records_) {
      Timed timed(recorder_, Layer::kWrite);
      COLMR_RETURN_IF_ERROR(writer->WriteRecord(record));
    }
    {
      Timed timed(recorder_, Layer::kClose);
      COLMR_RETURN_IF_ERROR(writer->Close());
    }
    write_splits_ = static_cast<uint64_t>(writer->split_count());
    return Status::OK();
  }

  bool Check(OpFacts* facts, std::string* why) override {
    facts->input_rows = kIngestRecords;
    facts->written_bytes = dataset_bytes_ = DirBytes(fs_.get(), path_);
    facts->write_splits = write_splits_;
    // Read every column back through the public InputFormat.
    ColumnInputFormat format;
    colmr::JobConfig config;
    config.input_paths = {path_};
    std::vector<colmr::InputSplit> splits;
    Status status = format.GetSplits(fs_.get(), config, &splits);
    uint64_t rows = 0;
    uint64_t checksum = 0;
    std::vector<Value> fields(schema_->fields().size());
    for (size_t s = 0; status.ok() && s < splits.size(); ++s) {
      std::unique_ptr<colmr::RecordReader> reader;
      status = format.CreateRecordReader(fs_.get(), config, splits[s],
                                         colmr::ReadContext{}, &reader);
      if (!status.ok()) break;
      uint64_t filled;
      while (status.ok() && (filled = reader->FillBatch(1024)) > 0) {
        for (uint64_t r = 0; status.ok() && r < filled; ++r) {
          Record& record = reader->RecordAt(r);
          for (size_t f = 0; f < fields.size(); ++f) {
            const Value* value = nullptr;
            status = record.Get(schema_->fields()[f].name, &value);
            if (!status.ok()) break;
            fields[f] = *value;
          }
          checksum = FoldRowHash(checksum, RowHash(fields));
          ++rows;
        }
      }
      if (status.ok()) status = reader->status();
    }
    if (!status.ok()) {
      *why = "read-back failed: " + status.ToString();
      return false;
    }
    if (rows != kIngestRecords || checksum != expected_checksum_) {
      *why = "read back " + std::to_string(rows) + " rows, checksum " +
             (checksum == expected_checksum_ ? "equal" : "different");
      return false;
    }
    return true;
  }

  Status Cleanup() override { return fs_->DeleteRecursive(path_); }

  double SpaceAmp() const override {
    return static_cast<double>(dataset_bytes_) /
           static_cast<double>(user_bytes_);
  }

  std::string Describe() const override {
    return std::to_string(kIngestRecords) + " crawl records per op (" +
           Mb(user_bytes_) + " user bytes), " + Mb(dataset_bytes_) +
           " on HDFS in " + std::to_string(write_splits_) + " splits";
  }

 private:
  static uint64_t RowHash(const std::vector<Value>& fields) {
    uint64_t hash = 0;
    for (const Value& field : fields) hash = colmr::HashTaggedValue(field, hash);
    return hash;
  }

  uint64_t seed_;
  Schema::Ptr schema_;
  std::vector<Value> records_;
  uint64_t user_bytes_ = 0;
  uint64_t expected_checksum_ = 0;
  std::string path_;
  Recorder* recorder_ = nullptr;
  uint64_t write_splits_ = 0;
  uint64_t dataset_bytes_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "crawl-contenttype", "zoned-pushdown", "weblog-ip-rollup",
      "crawl-ingest"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "crawl-contenttype") return std::make_unique<CrawlContentType>(seed);
  if (name == "zoned-pushdown") return std::make_unique<ZonedPushdown>(seed);
  if (name == "weblog-ip-rollup") return std::make_unique<WeblogIpRollup>(seed);
  if (name == "crawl-ingest") return std::make_unique<CrawlIngest>(seed);
  return nullptr;
}

}  // namespace perfbench
