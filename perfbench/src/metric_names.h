#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

// Every metric the benchmark reports, in the order BENCHMARK.json lists
// them, and the ledger spans behind each per-layer time metric.

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"op_rel_p50", "ratio"},     {"op_rel_tail", "ratio"},
    {"cpu_rel_per_op", "ratio"}, {"hdfs_mb_per_op", "MB"},
    {"space_amp", "ratio"},      {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"mapreduce.plan_s", "s"},
    {"mapreduce.splits", "count"},
    {"cif.prune.splits", "count"},
    {"mapreduce.slot_wait_s", "s"},
    {"mapreduce.map_task_self_s", "s"},
    {"mapreduce.tasks", "count"},
    {"mapreduce.task_retries", "count"},
    {"mapreduce.emit_s", "s"},
    {"mapreduce.spill_s", "s"},
    {"mapreduce.spill.count", "count"},
    {"mapreduce.spill.mb", "MB"},
    {"mapreduce.merge_s", "s"},
    {"mapreduce.merge.passes", "count"},
    {"mapreduce.shuffle_s", "s"},
    {"mapreduce.shuffle.mb", "MB"},
    {"mapreduce.combine_yield", "ratio"},
    {"mapreduce.reduce_task_self_s", "s"},
    {"mapreduce.output_write_s", "s"},
    {"mapreduce.commit_s", "s"},
    {"mapreduce.unattributed_s", "s"},
    {"job.map_fn_s", "s"},
    {"job.combine_fn_s", "s"},
    {"job.reduce_fn_s", "s"},
    {"cif.open_s", "s"},
    {"cif.open.count", "count"},
    {"cif.scan_s", "s"},
    {"cif.reader_close_s", "s"},
    {"cif.rows_scanned", "count"},
    {"cif.rows_selected", "count"},
    {"cif.select_yield", "ratio"},
    {"cif.prune.rowgroups", "count"},
    {"cif.scan.rowgroups_skipped", "count"},
    {"cif.scan.skipped_mb", "MB"},
    {"cif.lazy.field_reads", "count"},
    {"cif.write_s", "s"},
    {"cif.close_s", "s"},
    {"cif.write.splits", "count"},
    {"serde.fallback_share", "ratio"},
    {"serde.decode.values", "count"},
    {"serde.shuffle.values_encoded", "count"},
    {"serde.shuffle.values_decoded", "count"},
    {"serde.encode.values", "count"},
    {"hdfs.read_s", "s"},
    {"hdfs.read.ops", "count"},
    {"hdfs.read.mb", "MB"},
    {"hdfs.read.remote_mb", "MB"},
    {"hdfs.seek.count", "count"},
    {"hdfs.open.count", "count"},
    {"hdfs.cache.hit_rate", "ratio"},
    {"hdfs.cache.evictions", "count"},
    {"hdfs.read.checksum_failures", "count"},
    {"hdfs.read.failover", "count"},
    {"hdfs.write.mb", "MB"},
    {"hdfs.placement.colocated_share", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.other_spans_s", "s"},
};

/// Per-layer time metrics and the ledger spans each one sums. Spans
/// outside this table land in obs.other_spans_s, so the metrics with
/// mapreduce.unattributed_s always add up to the op's wall time.
struct LedgerMetric {
  const char* metric;
  std::vector<const char*> spans;
};
inline const std::vector<LedgerMetric>& LedgerMetrics() {
  static const std::vector<LedgerMetric> table = {
      {"mapreduce.plan_s", {"plan.splits", "plan.get_splits"}},
      {"mapreduce.slot_wait_s", {"slot_wait"}},
      {"mapreduce.map_task_self_s", {"map_task"}},
      {"mapreduce.emit_s", {"mapreduce.emit"}},
      {"mapreduce.spill_s", {"spill"}},
      {"mapreduce.merge_s", {"merge"}},
      {"mapreduce.shuffle_s", {"shuffle"}},
      {"mapreduce.reduce_task_self_s", {"reduce_task"}},
      {"mapreduce.output_write_s", {"output.write"}},
      {"mapreduce.commit_s", {"task_commit", "job_commit"}},
      {"job.map_fn_s", {"job.map_fn"}},
      {"job.combine_fn_s", {"job.combine_fn"}},
      {"job.reduce_fn_s", {"job.reduce_fn"}},
      {"cif.open_s", {"cif.open"}},
      {"cif.scan_s", {"cif.scan", "cif_next_batch"}},
      {"cif.reader_close_s", {"cif.reader_close"}},
      {"cif.write_s", {"cif.write"}},
      {"cif.close_s", {"cif.close"}},
      {"hdfs.read_s", {"hdfs.read"}},
  };
  return table;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
