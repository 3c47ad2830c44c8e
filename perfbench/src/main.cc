// End-to-end benchmark of the colmr MapReduce stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <dir>]
//
// Runs one workload (workloads.h) as a closed loop from a single client:
// the next op starts only after the previous one returned and was
// checked against the workload's reference. Prints a human-readable
// report, then one JSON line:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 the metrics are the end-to-end ones, from untraced ops;
// their op times are ratios to a fixed reference task timed right before
// each op (ReferenceTask), and the wall-clock figures go to the report.
// With --trace 1 traced and untraced ops alternate and the metrics are
// the per-layer ones, from the traced ops' ledgers (ledger.h). See
// perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "instrument.h"
#include "ledger.h"
#include "metric_names.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up runs per invocation; setup_s is their median.
constexpr int kSetupRuns = 3;
/// Minimum timed ops of each kind, so the tail percentile has ten
/// samples beyond it and sits at p66 or higher.
constexpr uint64_t kMinOps = 31;
/// Hard stop for the loop, well inside the 180 s budget of one run.
constexpr double kMaxLoopSeconds = 120;
/// Traced ops whose spans are written out in full (the first ones).
constexpr size_t kDetailOps = 1;
/// Largest |wall - attributed| an op's ledger may show.
constexpr double kLedgerTolerance = 1e-6;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Spin probe: `threads` spinners at once against one alone. Returns the
/// effective core count, threads * (one spinner's time / N spinners'
/// wall time).
double EffectiveCores(int threads) {
  std::atomic<uint64_t> sink{0};
  auto spin = [&sink] {
    uint64_t x = sink.load(std::memory_order_relaxed) | 1;
    for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + 1;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  Clock::time_point start = Clock::now();
  spin();
  const double alone = Since(start);
  start = Clock::now();
  std::vector<std::thread> spinners;
  for (int t = 0; t < threads; ++t) spinners.emplace_back(spin);
  for (std::thread& spinner : spinners) spinner.join();
  const double together = Since(start);
  return together > 0 ? threads * alone / together : 0;
}

/// The reference task: a fixed piece of allocation, string and
/// ordered-map work in plain C++, none of it colmr code. The loop runs it
/// on the client thread before every op (and once after the last) and
/// reports op times as multiples of it (OverReference). On a shared host
/// the speed of a core moves by up to half from one minute to the next,
/// as neighbours come and go; the op and the task slow together, so their
/// ratio stays put while each one's seconds do not. Returns the task's
/// wall time in seconds.
double ReferenceTask() {
  static volatile size_t sink = 0;
  const Clock::time_point start = Clock::now();
  std::map<std::string, int> counts;
  uint64_t x = 7;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ++counts["text/html; charset=" + std::to_string(x >> 50)];
  }
  sink = sink + counts.size();
  return Since(start);
}

uint64_t Count(const colmr::MetricsSnapshot& a, const colmr::MetricsSnapshot& b,
               const char* name) {
  uint64_t total = 0;
  for (const colmr::MetricsSnapshot* s : {&a, &b}) {
    auto it = s->counters.find(name);
    if (it != s->counters.end()) total += it->second;
  }
  return total;
}

uint64_t HistogramSum(const colmr::MetricsSnapshot& a,
                      const colmr::MetricsSnapshot& b, const char* name) {
  uint64_t total = 0;
  for (const colmr::MetricsSnapshot* s : {&a, &b}) {
    auto it = s->histograms.find(name);
    if (it != s->histograms.end()) total += it->second.sum;
  }
  return total;
}

/// Sums of per-op values over the traced ops.
class LayerTotals {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  double Mean(const std::string& name, uint64_t ops) const {
    return ops == 0 ? 0 : Get(name) / static_cast<double>(ops);
  }
  double Ratio(const std::string& num, const std::string& den) const {
    const double d = Get(den);
    return d > 0 ? Get(num) / d : 0;
  }

 private:
  double Get(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0 : it->second;
  }
  std::map<std::string, double> sums_;
};

struct Samples {
  std::vector<double> op_s;
  std::vector<double> op_cpu_s;
  /// Per op: the index of the reference-task run right before it.
  std::vector<size_t> reference_at;
  double cpu_s = 0;
  double rows = 0;
  double read_bytes = 0;
  double datanode_bytes = 0;
  double written_bytes = 0;
};

/// Adds one traced op's ledger to the per-layer time metrics.
void AddLedger(const Ledger& ledger, LayerTotals* layers) {
  double mapped = 0;
  for (const LedgerMetric& m : LedgerMetrics()) {
    double seconds = 0;
    for (const char* span : m.spans) {
      auto it = ledger.self_s.find(span);
      if (it != ledger.self_s.end()) seconds += it->second;
    }
    layers->Add(m.metric, seconds);
    mapped += seconds;
  }
  double all_self = 0;
  for (const auto& [name, seconds] : ledger.self_s) all_self += seconds;
  layers->Add("obs.other_spans_s", all_self - mapped);
  layers->Add("mapreduce.unattributed_s", ledger.unattributed_s);
}

/// Adds one traced op's counts: the wrappers' tallies, the registry
/// deltas and the engine report.
void AddCounts(const colmr::MetricsSnapshot& job_delta,
               const colmr::MetricsSnapshot& default_delta,
               const ScanCounts& counts, const OpFacts& facts,
               const colmr::JobReport* report, LayerTotals* layers) {
  auto count = [&](const char* name) {
    return static_cast<double>(Count(job_delta, default_delta, name));
  };
  layers->Add("mapreduce.splits", static_cast<double>(counts.splits.load()));
  layers->Add("cif.prune.splits", count("cif.prune.splits"));
  layers->Add("cif.open.count", static_cast<double>(counts.opens.load()));
  layers->Add("cif.rows_scanned", static_cast<double>(counts.rows_scanned.load()));
  layers->Add("cif.rows_selected", static_cast<double>(counts.rows_selected.load()));
  layers->Add("cif.prune.rowgroups", count("cif.prune.rowgroups"));
  layers->Add("cif.scan.rowgroups_skipped", count("cif.scan.rowgroups_skipped"));
  layers->Add("cif.scan.skipped_mb", count("cif.scan.skipped_bytes") / 1e6);
  layers->Add("cif.lazy.field_reads", count("cif.lazy.field_reads"));
  layers->Add("cif.write.splits", static_cast<double>(facts.write_splits));
  layers->Add("serde.fallback_values", count("serde.batch.fallback_values"));
  // The boxed lane bumps serde.decode.values as well as batch.rows.
  layers->Add("serde.values_decoded", count("serde.batch.rows") +
                                         count("serde.decode.values") -
                                         count("serde.batch.fallback_values"));
  layers->Add("serde.decode.values", count("serde.decode.values"));
  layers->Add("serde.shuffle.values_encoded", count("serde.shuffle.values_encoded"));
  layers->Add("serde.shuffle.values_decoded", count("serde.shuffle.values_decoded"));
  layers->Add("serde.encode.values", count("serde.encode.values"));
  layers->Add("hdfs.read.ops", count("hdfs.read.ops"));
  layers->Add("hdfs.read.mb", (count("hdfs.read.local_bytes") +
                              count("hdfs.read.remote_bytes")) / 1e6);
  layers->Add("hdfs.read.remote_mb", count("hdfs.read.remote_bytes") / 1e6);
  layers->Add("hdfs.seek.count", count("hdfs.seek.count"));
  layers->Add("hdfs.open.count", count("hdfs.open.count"));
  layers->Add("hdfs.cache.hits", count("hdfs.cache.hits"));
  layers->Add("hdfs.cache.lookups", count("hdfs.cache.hits") + count("hdfs.cache.misses"));
  layers->Add("hdfs.cache.evictions", count("hdfs.cache.evictions"));
  layers->Add("hdfs.read.checksum_failures", count("hdfs.read.checksum_failures"));
  layers->Add("hdfs.read.failover", count("hdfs.read.failover"));
  layers->Add("hdfs.write.mb", static_cast<double>(facts.written_bytes) / 1e6);
  layers->Add("hdfs.placement.colocated", count("hdfs.placement.colocated_blocks"));
  layers->Add("hdfs.placement.blocks", count("hdfs.placement.colocated_blocks") +
                                          count("hdfs.placement.default_blocks"));
  if (report != nullptr) {
    uint64_t shuffle_records = 0;
    for (uint64_t r : report->reduce_input_records) shuffle_records += r;
    layers->Add("mapreduce.tasks", static_cast<double>(report->map_tasks.size()));
    layers->Add("mapreduce.task_retries", static_cast<double>(report->task_retries));
    layers->Add("mapreduce.spill.count", static_cast<double>(report->spill_count));
    layers->Add("mapreduce.spill.mb", static_cast<double>(report->spill_bytes) / 1e6);
    layers->Add("mapreduce.merge.passes", static_cast<double>(report->merge_passes));
    layers->Add("mapreduce.shuffle.mb", static_cast<double>(report->shuffle_bytes) / 1e6);
    layers->Add("mapreduce.shuffle_records", static_cast<double>(shuffle_records));
    layers->Add("mapreduce.map_output_records",
               static_cast<double>(report->map_output_records));
  }
}

void WriteTraceFile(const std::string& path,
                    const std::vector<std::pair<uint64_t, std::vector<Span>>>& detail,
                    const std::vector<std::pair<uint64_t, Ledger>>& ledgers) {
  colmr::JsonWriter w;
  w.BeginObject();
  w.BeginArray("traceEvents");
  for (const auto& [op, spans] : detail) {
    for (const Span& span : spans) {
      w.BeginObject();
      w.Field("name", span.name);
      w.Field("ph", "X");
      w.Field("ts", static_cast<double>(span.start_ns) / 1e3);
      w.Field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      w.Field("pid", op);
      w.Field("tid", static_cast<int64_t>(span.tid));
      w.EndObject();
    }
  }
  w.EndArray();
  w.BeginArray("perfbenchLedgers");
  for (const auto& [op, ledger] : ledgers) {
    w.BeginObject();
    w.Field("op", op);
    w.Field("wall_s", ledger.wall_s);
    w.Field("unattributed_s", ledger.unattributed_s);
    w.BeginObject("self_s");
    for (const auto& [name, seconds] : ledger.self_s) w.Field(name, seconds);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string& text = w.str();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    return;
  }
  std::printf("trace: %s (%zu ops in full, %zu ledgers)\n", path.c_str(),
              detail.size(), ledgers.size());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSpec* specs, size_t n,
                 const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", values.at(specs[i].name));
    line += i > 0 ? ", \"" : "\"";
    line += specs[i].name;
    line += "\": {\"value\": ";
    line += value;
    line += ", \"unit\": \"";
    line += specs[i].unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      std::find(WorkloadNames().begin(), WorkloadNames().end(),
                args.workload) == WorkloadNames().end()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <dir>]\nworkloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const int cpus = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double effective_cores = EffectiveCores(cpus);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("cpus: nproc=%d effective_cores=%.2f (spin probe); engine "
              "workers=%d, prefetch threads=0\n",
              cpus, effective_cores, kEngineThreads);

  // ---- Set-up, several times; the last instance is measured.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  for (int run = 0; run < kSetupRuns; ++run) {
    workload.reset();
    malloc_trim(0);  // so an earlier instance's free pages do not linger
    const Clock::time_point start = Clock::now();
    workload = MakeWorkload(args.workload, args.seed);
    const colmr::Status status = workload->Setup();
    setup_times.push_back(Since(start));
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  // ---- The closed loop.
  Samples plain, traced;
  uint64_t attempted = 0, failed = 0;
  uint64_t traced_ops = 0;
  double worst_residual = 0;
  LayerTotals layers;
  Recorder recorder;
  ScanCounts counts;
  std::vector<std::pair<uint64_t, std::vector<Span>>> detail;
  std::vector<std::pair<uint64_t, Ledger>> ledgers;
  colmr::MetricsRegistry& default_metrics = colmr::MetricsRegistry::Default();
  std::vector<double> reference_s;  // every op's reference-task run, in order

  const Clock::time_point loop_start = Clock::now();
  for (uint64_t op = 0;; ++op) {
    const double elapsed = Since(loop_start);
    const bool enough = plain.op_s.size() >= kMinOps &&
                        (!args.trace || traced.op_s.size() >= kMinOps);
    if ((elapsed >= args.seconds && enough) || elapsed > kMaxLoopSeconds) break;

    const bool is_traced = args.trace && op % 2 == 1;
    std::unique_ptr<colmr::TraceCollector> collector;
    Clock::time_point epoch;
    Instrumentation inst;
    if (is_traced) {
      const Clock::time_point before = Clock::now();
      collector = std::make_unique<colmr::TraceCollector>();
      const Clock::time_point after = Clock::now();
      epoch = before + (after - before) / 2;
      counts.Reset();
      inst = {&recorder, &counts, collector.get()};
    }
    workload->Prepare(op, is_traced ? &inst : nullptr);
    reference_s.push_back(ReferenceTask());
    const colmr::MetricsSnapshot job_before = workload->job_metrics()->Snapshot();
    const colmr::MetricsSnapshot default_before = default_metrics.Snapshot();
    if (is_traced) recorder.Begin(collector.get(), epoch);

    const double cpu_start = CpuSeconds();
    const Clock::time_point start = Clock::now();
    const colmr::Status status = workload->Run();
    const Clock::time_point end = Clock::now();
    const double cpu = CpuSeconds() - cpu_start;

    const colmr::MetricsSnapshot job_delta =
        workload->job_metrics()->Snapshot().Diff(job_before);
    const colmr::MetricsSnapshot default_delta =
        default_metrics.Snapshot().Diff(default_before);
    ++attempted;
    OpFacts facts;
    std::string why;
    bool ok = status.ok();
    if (!ok) why = status.ToString();
    if (ok) ok = workload->Check(&facts, &why);
    const colmr::Status cleanup = workload->Cleanup();
    if (ok && !cleanup.ok()) {
      ok = false;
      why = "cleanup: " + cleanup.ToString();
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                   static_cast<unsigned long long>(op), why.c_str());
    }

    const double wall = std::chrono::duration<double>(end - start).count();
    const double read_bytes =
        static_cast<double>(HistogramSum(job_delta, default_delta, "hdfs.read.bytes"));
    Samples& samples = is_traced ? traced : plain;
    samples.op_s.push_back(wall);
    samples.op_cpu_s.push_back(cpu);
    samples.reference_at.push_back(reference_s.size() - 1);
    samples.cpu_s += cpu;
    samples.rows += static_cast<double>(facts.input_rows);
    samples.read_bytes += read_bytes;
    samples.datanode_bytes += static_cast<double>(
        Count(job_delta, default_delta, "hdfs.read.local_bytes") +
        Count(job_delta, default_delta, "hdfs.read.remote_bytes"));
    samples.written_bytes += static_cast<double>(facts.written_bytes);
    if (!is_traced) continue;

    // ---- Traced op: build the ledger and the per-layer values.
    ++traced_ops;
    recorder.Add(Layer::kOp, Nanos(start - epoch), Nanos(end - epoch));
    std::vector<TraceEvent> events;
    std::string parse_error;
    if (!ParseTraceEvents(collector->ToJson(), &events, &parse_error)) {
      std::fprintf(stderr, "perfbench: unreadable trace: %s\n",
                   parse_error.c_str());
      return 1;
    }
    std::vector<Span> spans = recorder.End(events);
    const Ledger ledger =
        Attribute(spans, Nanos(start - epoch), Nanos(end - epoch));
    worst_residual = std::max(worst_residual, std::abs(ledger.Residual()));
    AddLedger(ledger, &layers);
    ledgers.emplace_back(op, ledger);
    if (detail.size() < kDetailOps) detail.emplace_back(op, std::move(spans));

    AddCounts(job_delta, default_delta, counts, facts, workload->report(),
              &layers);
  }

  reference_s.push_back(ReferenceTask());  // the one after the last op
  const std::vector<double> op_rel =
      OverReference(plain.op_s, plain.reference_at, reference_s);

  // ---- End-to-end figures from the untraced ops.
  const TailSample tail = TailPercentile(op_rel);
  const double ops = static_cast<double>(plain.op_s.size());
  double timed_seconds = 0;
  for (double s : plain.op_s) timed_seconds += s;
  std::map<std::string, double> e2e = {
      {"op_rel_p50", Median(op_rel)},
      {"op_rel_tail", tail.value},
      {"cpu_rel_per_op",
       Median(OverReference(plain.op_cpu_s, plain.reference_at, reference_s))},
      {"hdfs_mb_per_op", (plain.read_bytes + plain.written_bytes) / ops / 1e6},
      {"space_amp", workload->SpaceAmp()},
      {"peak_rss_mb", PeakRssMb()},
      {"setup_s", Median(setup_times)},
  };
  const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("data: %s\n", workload->Describe().c_str());
  std::printf("ops: attempted %llu, failed %llu, error_rate %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), error_rate);
  std::printf("op_rel_tail: p%.1f of %zu untraced ops (%zu beyond)\n",
              tail.percentile, plain.op_s.size(), tail.beyond);
  std::printf("wall clock, host-dependent: op_s_p50 %.6g s, op_s_tail %.6g s, "
              "rows_per_s %.6g rows/s, cpu_s_per_op %.6g s, reference "
              "task p50 %.6g s\n",
              Median(plain.op_s), TailPercentile(plain.op_s).value,
              timed_seconds > 0 ? plain.rows / timed_seconds : 0,
              plain.cpu_s / ops, Median(reference_s));
  std::printf("hdfs per op: read_mb_per_op %.4f MB (%.4f MB from datanodes, "
              "rest from the block cache), write_mb_per_op %.4f MB\n",
              plain.read_bytes / ops / 1e6, plain.datanode_bytes / ops / 1e6,
              plain.written_bytes / ops / 1e6);
  std::printf("setup_s runs:");
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf("\n");
  for (const MetricSpec& spec : kEndToEnd) {
    std::printf("  %-28s %14.6g %s\n", spec.name, e2e.at(spec.name), spec.unit);
  }

  std::map<std::string, double> per_layer;
  if (args.trace) {
    const uint64_t n = traced_ops;
    for (const MetricSpec& spec : kPerLayer) {
      per_layer[spec.name] = layers.Mean(spec.name, n);
    }
    per_layer["mapreduce.combine_yield"] =
        layers.Ratio("mapreduce.shuffle_records", "mapreduce.map_output_records");
    per_layer["cif.select_yield"] = layers.Ratio("cif.rows_selected", "cif.rows_scanned");
    per_layer["serde.fallback_share"] =
        layers.Ratio("serde.fallback_values", "serde.values_decoded");
    per_layer["hdfs.cache.hit_rate"] = layers.Ratio("hdfs.cache.hits", "hdfs.cache.lookups");
    per_layer["hdfs.placement.colocated_share"] =
        layers.Ratio("hdfs.placement.colocated", "hdfs.placement.blocks");
    const double traced_p50 = Median(traced.op_s);
    per_layer["obs.trace_overhead"] =
        Median(OverReference(traced.op_s, traced.reference_at, reference_s)) /
            e2e.at("op_rel_p50") -
        1;
    std::printf("traced ops: %llu, traced op_s_p50 %.6g s, ledger worst "
                "|wall - attributed| %.3g s\n",
                static_cast<unsigned long long>(n), traced_p50, worst_residual);
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("  %-32s %14.6g %s\n", spec.name, per_layer.at(spec.name), spec.unit);
    }
    if (!args.trace_out.empty()) {
      WriteTraceFile(args.trace_out + "/" + args.workload + "-seed" +
                         std::to_string(args.seed) + ".json",
                     detail, ledgers);
    }
  }

  const bool correct = failed == 0 && worst_residual <= kLedgerTolerance &&
                       tail.ok;
  if (args.trace) {
    PrintResult(correct, attempted, failed, kPerLayer, std::size(kPerLayer),
                per_layer);
  } else {
    PrintResult(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), e2e);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
