#include "mapreduce/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/committer.h"
#include "mapreduce/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

/// Admission control faithful to the simulated cluster: at most
/// map_slots_per_node tasks execute concurrently on any node, whatever the
/// pool size. Counters are mutex-guarded; Acquire blocks until the task's
/// assigned node has a free slot (slots are only ever held by running
/// tasks, so waiters always make progress). Peaks are recorded for the
/// report — and for the tests that assert slot-faithfulness.
class SlotGate {
 public:
  SlotGate(int num_nodes, int slots_per_node)
      : slots_per_node_(std::max(1, slots_per_node)),
        active_(std::max(0, num_nodes), 0),
        peak_(std::max(0, num_nodes), 0) {}

  void Acquire(NodeId node) {
    if (node < 0 || node >= static_cast<NodeId>(active_.size())) return;
    std::unique_lock<std::mutex> lock(mu_);
    slot_freed_.wait(lock,
                     [&] { return active_[node] < slots_per_node_; });
    ++active_[node];
    peak_[node] = std::max(peak_[node], active_[node]);
  }

  void Release(NodeId node) {
    if (node < 0 || node >= static_cast<NodeId>(active_.size())) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_[node];
    }
    slot_freed_.notify_all();
  }

  std::vector<int> peaks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  const int slots_per_node_;
  mutable std::mutex mu_;
  std::condition_variable slot_freed_;
  std::vector<int> active_;
  std::vector<int> peak_;
};

/// One reducer's output, produced on a pool thread and merged in partition
/// order afterwards.
struct ReduceTaskResult {
  std::vector<std::pair<Value, Value>> pairs;
  double cpu_seconds = 0;
  uint64_t input_records = 0;
  /// External shuffle: a spill-read failure in this partition's merge.
  Status status;
};

/// Everything one map task hands back to the merge step. Each task owns
/// its TaskReport (and the IoStats inside it) exclusively while running;
/// nothing is written to shared sinks until the join. Exactly one of
/// `pairs` (in-memory shuffle) and `runs` (external shuffle) is used.
struct MapTaskResult {
  TaskReport task;
  std::vector<std::pair<Value, Value>> pairs;
  std::vector<SpillRun> runs;
  uint64_t peak_buffer_bytes = 0;
  Status status;
};

/// Per-job failure bookkeeping shared by concurrently retrying tasks: how
/// many attempts failed on each node, and which nodes crossed the
/// blacklist threshold (Hadoop's per-job tracker blacklist).
class RetryTracker {
 public:
  explicit RetryTracker(int blacklist_threshold)
      : threshold_(std::max(1, blacklist_threshold)) {}

  /// Returns true when this failure crossed the blacklist threshold (the
  /// node was just blacklisted).
  bool RecordFailure(NodeId node) {
    if (node == kAnyNode) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (++failures_[node] >= threshold_) {
      return blacklist_.insert(node).second;
    }
    return false;
  }

  bool IsBlacklisted(NodeId node) const {
    if (node == kAnyNode) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return blacklist_.count(node) > 0;
  }

  std::vector<NodeId> blacklisted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<NodeId>(blacklist_.begin(), blacklist_.end());
  }

 private:
  const int threshold_;
  mutable std::mutex mu_;
  std::map<NodeId, int> failures_;
  std::set<NodeId> blacklist_;
};

/// Node for a retry attempt: an untried live, unblacklisted replica
/// holder when one exists (the retry keeps its locality), else the
/// lowest-id untried live, unblacklisted node, else any live
/// unblacklisted node (attempts may outnumber nodes), else `fallback`.
NodeId PickRetryNode(const MiniHdfs& fs, const InputSplit& split,
                     const std::set<NodeId>& tried, const RetryTracker& retry,
                     NodeId fallback) {
  const int num_nodes = fs.config().num_nodes;
  for (NodeId node : split.locations) {
    if (node < 0 || node >= num_nodes) continue;
    if (fs.IsNodeDead(node) || retry.IsBlacklisted(node)) continue;
    if (tried.count(node) == 0) return node;
  }
  NodeId reusable = kAnyNode;
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (fs.IsNodeDead(node) || retry.IsBlacklisted(node)) continue;
    if (tried.count(node) == 0) return node;
    if (reusable == kAnyNode) reusable = node;
  }
  return reusable != kAnyNode ? reusable : fallback;
}

bool SplitIsLocalTo(const InputSplit& split, NodeId node) {
  return std::find(split.locations.begin(), split.locations.end(), node) !=
         split.locations.end();
}

/// Picks the execution node for a split: the least-loaded live node
/// holding the split's files, unless it is overloaded relative to a
/// balanced assignment, in which case the scheduler falls back to the
/// globally least-loaded node and the task reads remotely — Hadoop's
/// "Node 1 is busy" situation from the paper's Fig. 3 discussion.
NodeId ScheduleSplit(const MiniHdfs& fs, const InputSplit& split,
                     const std::vector<int>& node_load, int total_splits) {
  const int num_nodes = fs.config().num_nodes;
  // A node is "busy" once it holds more than its balanced share of tasks.
  const int fair_share =
      (total_splits + num_nodes - 1) / std::max(1, num_nodes);
  NodeId best_local = kAnyNode;
  for (NodeId node : split.locations) {
    if (node < 0 || node >= num_nodes || fs.IsNodeDead(node)) continue;
    if (best_local == kAnyNode || node_load[node] < node_load[best_local]) {
      best_local = node;
    }
  }
  if (best_local != kAnyNode && node_load[best_local] < fair_share) {
    return best_local;
  }
  // Fall back to the globally least-loaded live node (rack-locality is
  // not modelled): the task will read some or all of its data remotely.
  NodeId least = kAnyNode;
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (fs.IsNodeDead(node)) continue;
    if (least == kAnyNode || node_load[node] < node_load[least]) least = node;
  }
  return least;
}

/// Fault-salt domain for reduce-output write attempts: the high bit keeps
/// them disjoint from map-attempt salts (split * 131 + attempt) — see the
/// draw-keying contract in fault_injector.h.
constexpr uint64_t kReduceWriteSaltDomain = 0x8000000000000000ull;
/// Fault-salt domains for spill-run writes (map side) and intermediate
/// merge-run writes: each gets its own high bits so write-fault draws
/// never collide across the three write paths of one job.
constexpr uint64_t kSpillWriteSaltDomain = 0x4000000000000000ull;
constexpr uint64_t kMergeWriteSaltDomain = 0xC000000000000000ull;

/// Shared state of one map task's attempts under speculative execution.
/// The mutex serializes "who records the task's result": exactly one of
/// the primary retry chain and the (at most one) backup attempt writes
/// results[i], whatever order they finish in. `done` doubles as the
/// supersede hint losing attempts poll to exit early.
struct TaskControl {
  std::mutex mu;
  /// A result (success or terminal failure) has been recorded.
  bool recorded = false;
  /// The monitor launched (and has not yet seen finish) a backup attempt.
  bool backup_launched = false;
  bool backup_inflight = false;
  /// The primary chain failed terminally while a backup was in flight;
  /// the backup's completion decides whether the failure stands.
  bool primary_failed = false;
  Status primary_status;
  /// Nodes any attempt of this task has executed on (backup placement
  /// avoids them).
  std::set<NodeId> tried;
  /// Wall-clock duration of the recorded result, for the monitor's
  /// completed-task median.
  double duration = 0;
  std::atomic<bool> done{false};
  /// Seconds on the phase clock when the primary chain started executing;
  /// < 0 until then (queued tasks are not stragglers).
  std::atomic<double> started_at{-1.0};
};

/// `prefix` and a five-digit index: m_00007 (map task 7), r_00002 and
/// part-r-00002 (reduce partition 2's task and part file).
std::string IndexedName(const char* prefix, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%05zu", prefix, index);
  return name;
}

/// Returns `pairs` folded through `fn` (combiner or reducer) one group of
/// equal keys at a time, groups in key order; hashes[i] is pairs[i]'s
/// ShuffleHash.
std::vector<std::pair<Value, Value>> FoldByKey(
    std::vector<std::pair<Value, Value>> pairs,
    const std::vector<uint64_t>& hashes, const ReduceFn& fn) {
  const KeyGroups groups = GroupThenOrder(pairs, hashes, 1);
  VectorEmitter out;
  out.pairs().reserve(groups.ends.size());
  FoldGroups(groups, &pairs, fn, &out);
  return std::move(out.pairs());
}

/// Adds every JobReport counter that has a registry twin to that twin —
/// the twins' only writer, so each equals its field once Run returns (on
/// a private registry). `job_committed` feeds mr.commit.job.
void PublishReportCounters(const JobReport& report, bool job_committed,
                           MetricsRegistry* metrics) {
  uint64_t reduce_input_records = 0;
  for (uint64_t n : report.reduce_input_records) reduce_input_records += n;
  const std::pair<const char*, uint64_t> twins[] = {
      {"mr.map.input_records", report.map_input_records},
      {"mr.map.output_records", report.map_output_records},
      {"mr.reduce.input_records", reduce_input_records},
      {"mr.shuffle.bytes", report.shuffle_bytes},
      {"mr.task.retries", report.task_retries},
      {"mr.speculative.launched", report.speculative_launched},
      {"mr.speculative.won", report.speculative_won},
      {"mr.speculative.lost", report.speculative_lost},
      {"mr.spill.count", report.spill_count},
      {"mr.spill.bytes", report.spill_bytes},
      {"mr.spill.merge_passes", report.merge_passes},
      {"mr.spill.merge_segments", report.merge_segments},
      {"mr.commit.task", report.tasks_committed},
      {"mr.commit.job", job_committed ? 1u : 0u},
      {"mr.commit.aborts", report.commit_aborts},
      {"hdfs.write.retries", report.write_retries},
  };
  for (const auto& [name, value] : twins) {
    metrics->counter(name)->Increment(value);
  }
}

/// Writes `pairs` as "key<TAB>value" lines to a new file at `path`.
Status WriteTextPart(MiniHdfs* fs, const std::string& path,
                     const WriteContext& context,
                     const std::vector<std::pair<Value, Value>>& pairs) {
  std::unique_ptr<FileWriter> writer;
  COLMR_RETURN_IF_ERROR(fs->Create(path, context, &writer));
  std::string line;
  for (const auto& [key, value] : pairs) {
    line.clear();
    key.AppendTo(&line);
    line += '\t';
    value.AppendTo(&line);
    line += '\n';
    writer->Append(line);
    if (!writer->status().ok()) break;
  }
  return writer->Close();
}

}  // namespace

/// One run of one job: the state its phases share, from the split plan to
/// the committed output. ExecutePhases calls the public phases in order.
class JobRunner::Execution {
 public:
  Execution(JobRunner* runner, const Job& job, JobReport* report,
            MetricsRegistry* metrics, TraceCollector* trace,
            OutputCommitter* committer)
      : fs_(runner->fs_),
        cost_model_(runner->cost_model_),
        job_(job),
        config_(job.config),
        report_(report),
        metrics_(metrics),
        trace_(trace),
        committer_(committer) {}
  /// Deletes a report-only job's shuffle scratch on every exit path.
  ~Execution() {
    if (!scratch_root_.empty()) fs_->DeleteRecursive(scratch_root_);
  }
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  Status Plan();
  void MapPhase();
  Status JoinMapResults();
  Status Shuffle();
  Status RunReducers();
  Status CommitOutput();
  void CollectOutput();

 private:
  void Dispatch(size_t n, const std::function<void(size_t)>& task,
                const std::function<bool(size_t)>& failed,
                const std::function<void()>& while_running);
  void RunTask(size_t i);
  void RunBackup(size_t i);
  void RecordResult(size_t i, TaskControl* ctrl, MapTaskResult result);
  void MonitorStragglers();
  Status RunAttempt(size_t i, int attempt, NodeId node, MapTaskResult* out,
                    const std::atomic<bool>* superseded);
  Status MapRecords(size_t i, int attempt, const ReadContext& context,
                    std::unique_ptr<RecordReader> reader, MapTaskResult* out);
  std::unique_ptr<MapOutputBuffer> NewSpillBuffer(
      size_t i, int attempt, const ReadContext& context) const;
  Status PollAttempt(size_t i, int attempt,
                     const std::atomic<bool>* superseded,
                     const MapOutputBuffer* spill_buffer,
                     const Stopwatch& attempt_watch) const;
  Status MergePasses();
  Status MergeGroup(int pass, size_t g,
                    const std::vector<const SpillRun*>& group,
                    SpillRun* merged);
  void ReduceTask(size_t p);
  Status WritePartition(size_t p);
  NodeId PickOutputNode(size_t p, const std::set<NodeId>& tried) const;
  std::string AttemptDir(const std::string& task_id, int attempt) const;
  void RecordNodeFailure(NodeId node);
  void CountWriteAttempt(const IoStats& io, int attempt, bool failed);

  MiniHdfs* const fs_;
  const CostModel& cost_model_;
  const Job& job_;
  const JobConfig& config_;
  JobReport* const report_;
  MetricsRegistry* const metrics_;
  TraceCollector* const trace_;
  OutputCommitter* const committer_;  // null when the job has no output
  /// Reads outside map attempts: split planning and spill runs.
  const ReadContext read_context_{kAnyNode, nullptr, 0, metrics_, trace_};

  // The reducer count is fixed before any map task runs because the
  // external path partitions at emit time. Map-only jobs have no shuffle
  // to externalize, so sort_buffer_bytes is ignored for them.
  const int num_reducers_ =
      !job_.reducer ? 0
      : config_.num_reduce_tasks > 0
          ? config_.num_reduce_tasks
          : fs_->config().num_nodes * fs_->config().reduce_slots_per_node;
  const bool external_shuffle_ =
      config_.sort_buffer_bytes > 0 && job_.reducer != nullptr;
  const bool speculate_ =
      config_.speculative_execution && config_.parallelism != 1;
  const int max_attempts_ = std::max(1, config_.max_task_attempts);
  /// Report-only external-shuffle jobs keep their runs under this private
  /// /_shuffle directory; empty otherwise.
  std::string scratch_root_;

  Counter* const m_tasks_launched_ = metrics_->counter("mr.task.launched");
  Counter* const m_nodes_blacklisted_ =
      metrics_->counter("mr.node.blacklisted");
  Gauge* const m_slots_active_ = metrics_->gauge("mr.slots.active");
  Histogram* const m_task_cpu_micros_ =
      metrics_->histogram("mr.task.cpu_micros");

  std::vector<InputSplit> splits_;
  std::vector<NodeId> assigned_node_;
  SlotGate gate_{fs_->config().num_nodes, fs_->config().map_slots_per_node};
  RetryTracker retry_{config_.node_blacklist_failures};
  std::vector<MapTaskResult> results_;
  std::vector<TaskControl> controls_;
  Stopwatch phase_clock_;
  std::atomic<uint64_t> spec_won_{0}, spec_lost_{0};

  /// In-memory shuffle: map output in split order, then its partitions.
  std::vector<std::pair<Value, Value>> map_output_;
  std::vector<std::vector<std::pair<Value, Value>>> partitions_;
  std::vector<std::vector<uint64_t>> partition_hashes_;  // their ShuffleHash
  /// External shuffle: winning tasks' runs in (split, spill) order — the
  /// global sequence order the merge's tie-break reproduces stable sorting
  /// with — and, after MergePasses, the runs the reducers merge.
  std::vector<SpillRun> runs_;
  std::vector<ReduceTaskResult> reduced_;

  // Pools last, so they are joined before the state their tasks use goes.
  std::unique_ptr<ThreadPool> prefetch_pool_;
  std::unique_ptr<ThreadPool> pool_;
};

Status JobRunner::Run(const Job& job, JobReport* report) {
  MetricsRegistry* metrics = job.config.metrics != nullptr
                                 ? job.config.metrics
                                 : &MetricsRegistry::Default();
  // Trace lifecycle: use the caller's collector when given; otherwise own
  // one for the duration of the run iff a trace_path asks for output.
  std::unique_ptr<TraceCollector> owned_trace;
  TraceCollector* trace = job.config.trace;
  if (trace == nullptr && !job.config.trace_path.empty()) {
    owned_trace = std::make_unique<TraceCollector>();
    trace = owned_trace.get();
  }

  Status status;
  {
    // Scope the root span so it closes before the collector is flushed.
    ScopedSpan job_span(trace, "job", "mr");
    status = RunImpl(job, report, metrics, trace);
    if (job_span.active() && !status.ok()) {
      job_span.AddArg("error", status.message());
    }
  }
  if (trace != nullptr && !job.config.trace_path.empty()) {
    Status write_status = trace->WriteFile(job.config.trace_path);
    if (status.ok()) status = write_status;
  }
  return status;
}

Status JobRunner::RunImpl(const Job& job, JobReport* report,
                          MetricsRegistry* metrics, TraceCollector* trace) {
  Stopwatch wall;
  *report = JobReport();
  if (!job.input_format) {
    return Status::InvalidArgument("job has no input format");
  }
  if (!job.mapper) {
    return Status::InvalidArgument("job has no mapper");
  }
  metrics->counter("mr.job.runs")->Increment();

  // Output guard + commit protocol (DESIGN.md §11): claim the output
  // directory before any task runs, and make sure a failed job leaves no
  // visible output — a crash, fault, or exhausted retry at any point
  // below rolls the directory back to empty.
  std::unique_ptr<OutputCommitter> committer;
  if (!job.config.output_path.empty()) {
    committer =
        std::make_unique<OutputCommitter>(fs_, job.config.output_path, trace);
    COLMR_RETURN_IF_ERROR(committer->SetupJob());
  }
  Status status = ExecutePhases(job, report, metrics, trace, committer.get());
  if (!status.ok() && committer != nullptr) {
    committer->AbortJob();
    report->commit_aborts += 1;
  }
  // The returns above leave every report field zero; from here the report
  // is final, so its registry twins are published once, whatever the
  // status. CommitJob is the last step that can fail, and only jobs with
  // an output path and a reducer run it.
  PublishReportCounters(*report,
                        status.ok() && committer != nullptr && job.reducer,
                        metrics);
  report->wall_seconds = wall.ElapsedSeconds();
  return status;
}

Status JobRunner::ExecutePhases(const Job& job, JobReport* report,
                                MetricsRegistry* metrics,
                                TraceCollector* trace,
                                OutputCommitter* committer) {
  Execution run(this, job, report, metrics, trace, committer);
  COLMR_RETURN_IF_ERROR(run.Plan());
  run.MapPhase();
  COLMR_RETURN_IF_ERROR(run.JoinMapResults());
  if (job.reducer) {
    COLMR_RETURN_IF_ERROR(run.Shuffle());
    COLMR_RETURN_IF_ERROR(run.RunReducers());
    COLMR_RETURN_IF_ERROR(run.CommitOutput());
  }
  run.CollectOutput();
  return Status::OK();
}

// Attaches the block cache, checks the shuffle settings, plans the splits
// and assigns each its node.
Status JobRunner::Execution::Plan() {
  // Block cache + prefetch (DESIGN.md §9): attach the shared cache
  // (idempotent, so repeated jobs share one warm cache) and stand up the
  // dedicated warm-task pool. Prefetch must NOT share the map-task pool:
  // its FIFO queue would order warm tasks after every queued map task,
  // by which time the scan they were meant to overlap has finished.
  if (config_.cache_bytes > 0) {
    fs_->EnsureBlockCache(config_.cache_bytes, metrics_);
    if (config_.prefetch_depth > 0) {
      prefetch_pool_ = std::make_unique<ThreadPool>(2);
    }
  }
  // External sort-merge shuffle (DESIGN.md §12). Spill scratch: with a
  // committer, runs live inside the task attempt's _temporary scratch
  // (CommitJob/AbortJob tear them down with it); a job with no output
  // path gets a private /_shuffle directory, removed by the destructor.
  if (external_shuffle_ && GetCodec(config_.spill_codec) == nullptr) {
    return Status::InvalidArgument("unknown spill codec");
  }
  if (external_shuffle_ && committer_ == nullptr) {
    static std::atomic<uint64_t> scratch_seq{0};
    scratch_root_ = "/_shuffle/job-" + std::to_string(scratch_seq.fetch_add(1));
  }
  {
    ScopedSpan plan_span(trace_, "plan.splits", "mr");
    ReadContext plan_context = read_context_;
    plan_context.readahead_bytes = config_.readahead_bytes;
    COLMR_RETURN_IF_ERROR(
        job_.input_format->GetSplits(fs_, config_, plan_context, &splits_));
    if (plan_span.active()) {
      plan_span.AddArg("splits", static_cast<uint64_t>(splits_.size()));
    }
  }
  if (splits_.empty()) {
    return Status::InvalidArgument("input produced no splits");
  }
  // Assign every split its node serially, in split order, before any task
  // runs: the assignment (and with it all locality accounting) is
  // independent of the thread count tasks later execute with.
  std::vector<int> node_load(fs_->config().num_nodes, 0);
  for (const InputSplit& split : splits_) {
    const NodeId node = ScheduleSplit(*fs_, split, node_load,
                                      static_cast<int>(splits_.size()));
    if (node != kAnyNode) node_load[node] += 1;
    assigned_node_.push_back(node);
  }
  results_.resize(splits_.size());
  controls_ = std::vector<TaskControl>(splits_.size());
  return Status::OK();
}

// Runs every map task, retries and backups included, then fills the
// failure and recovery counters — before the join, so a failed job still
// reports what its recovery machinery did.
void JobRunner::Execution::MapPhase() {
  const int total_slots = fs_->config().TotalMapSlots();
  int threads = 1;
  if (config_.parallelism > 1) {
    // More threads than cluster slots cannot run: the gate would park them.
    threads = std::min(config_.parallelism, std::max(1, total_slots));
  } else if (config_.parallelism != 1) {
    threads = ThreadPool::DefaultThreads(total_slots);
  }
  report_->worker_threads = threads;
  {
    ScopedSpan map_span(trace_, "map_phase", "mr");
    if (map_span.active()) {
      map_span.AddArg("tasks", static_cast<uint64_t>(splits_.size()));
      map_span.AddArg("threads", threads);
    }
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
    Dispatch(
        splits_.size(), [this](size_t i) { RunTask(i); },
        [this](size_t i) { return !results_[i].status.ok(); },
        [this] { MonitorStragglers(); });
  }
  report_->speculative_won = spec_won_.load();
  report_->speculative_lost = spec_lost_.load();
  for (const MapTaskResult& result : results_) {
    report_->task_retries += static_cast<uint64_t>(result.task.attempts - 1);
    report_->checksum_failures += result.task.io.checksum_failures;
    report_->failover_reads += result.task.io.failover_reads;
    // Spill-write faults of every attempt, winning or not (the in-memory
    // map path writes nothing, so this is zero there).
    report_->write_faults += result.task.io.write_faults;
  }
  report_->blacklisted_nodes = retry_.blacklisted();
  report_->peak_node_slots = gate_.peaks();
}

// Runs task(0) ... task(n - 1). With no pool (parallelism 1), inline on
// this thread and in order, stopping after the first task `failed`
// reports. With a pool, every task runs (`failed` is never called: a task
// may still be recording) and `while_running` (may be empty) runs on this
// thread until the pool drains.
void JobRunner::Execution::Dispatch(
    size_t n, const std::function<void(size_t)>& task,
    const std::function<bool(size_t)>& failed,
    const std::function<void()>& while_running) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      task(i);
      if (failed(i)) return;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) pool_->Submit([&task, i] { task(i); });
  if (while_running) while_running();
  pool_->Wait();
}

// The primary execution of map task i: up to max_task_attempts attempts,
// a fresh node per retry, blacklist feedback. Whichever of it and the
// task's backup (RunBackup) finishes first records the result under the
// control lock; the other finds ctrl.done and its output is discarded —
// exactly one writer of results_[i], ever.
void JobRunner::Execution::RunTask(size_t i) {
  TaskControl& ctrl = controls_[i];
  const std::atomic<bool>* supersede_flag = speculate_ ? &ctrl.done : nullptr;
  // Stamped here, not at submit time, so a task still queued behind others
  // is never mistaken for a straggler by the monitor.
  ctrl.started_at.store(phase_clock_.ElapsedSeconds(),
                        std::memory_order_relaxed);
  NodeId node = assigned_node_[i];
  IoStats failed_io;
  double failed_cpu = 0;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (ctrl.done.load(std::memory_order_relaxed)) return;  // backup won
    {
      // Move off the scheduled node when it has been blacklisted since
      // scheduling, and always onto a fresh node for a retry. The tried
      // set lives in ctrl so a backup can pick a disjoint node.
      std::lock_guard<std::mutex> lock(ctrl.mu);
      if (retry_.IsBlacklisted(node) || ctrl.tried.count(node) > 0) {
        node = PickRetryNode(*fs_, splits_[i], ctrl.tried, retry_, node);
      }
      ctrl.tried.insert(node);
    }
    MapTaskResult local;
    Status status = RunAttempt(i, attempt, node, &local, supersede_flag);
    // DataLoss is terminal: no replica anywhere can serve the bytes, so
    // burning the remaining attempts (or blaming the node) is wrong.
    if (status.ok() || status.IsDataLoss() || attempt + 1 >= max_attempts_) {
      local.task.attempts = attempt + 1;
      // The task's cost includes what its failed attempts consumed.
      local.task.cpu_seconds += failed_cpu;
      local.task.io.Add(failed_io);
      std::lock_guard<std::mutex> lock(ctrl.mu);
      if (ctrl.recorded) return;  // the backup finished first
      if (!status.ok() && ctrl.backup_inflight) {
        // Terminal failure while a backup is still running: defer the
        // verdict — the backup may yet succeed.
        ctrl.primary_failed = true;
        ctrl.primary_status = std::move(status);
        return;
      }
      ctrl.duration = phase_clock_.ElapsedSeconds() -
                      ctrl.started_at.load(std::memory_order_relaxed);
      local.status = std::move(status);
      RecordResult(i, &ctrl, std::move(local));
      return;
    }
    // Retryable failure — unless this attempt was aborted because the
    // backup already recorded the task, which is no node's fault.
    if (ctrl.done.load(std::memory_order_relaxed)) return;
    TraceInstant(trace_, "task_retry", "mr",
                 {{"split", TraceCollector::JsonValue(
                                static_cast<uint64_t>(i))},
                  {"node", TraceCollector::JsonValue(node)},
                  {"error", TraceCollector::JsonValue(status.message())}});
    RecordNodeFailure(node);
    failed_cpu += local.task.cpu_seconds;
    failed_io.Add(local.task.io);
  }
}

// The single speculative backup of map task i: one attempt, on a node the
// primary has not tried (reused when the cluster is exhausted). Its
// attempt index sits past the primary's range so its fault-schedule salt
// never collides.
void JobRunner::Execution::RunBackup(size_t i) {
  TaskControl& ctrl = controls_[i];
  NodeId node;
  {
    std::lock_guard<std::mutex> lock(ctrl.mu);
    node = PickRetryNode(*fs_, splits_[i], ctrl.tried, retry_,
                         assigned_node_[i]);
  }
  MapTaskResult local;
  const Status status = RunAttempt(i, max_attempts_, node, &local, &ctrl.done);
  bool won = false;
  {
    std::lock_guard<std::mutex> lock(ctrl.mu);
    ctrl.backup_inflight = false;
    if (status.ok() && !ctrl.recorded) {
      local.task.attempts = 1;
      RecordResult(i, &ctrl, std::move(local));
      won = true;
    } else if (!status.ok() && ctrl.primary_failed && !ctrl.recorded) {
      // The primary already failed terminally and deferred to us; the
      // backup failed too, so the task fails with the primary's error.
      MapTaskResult failed;
      failed.status = ctrl.primary_status;
      RecordResult(i, &ctrl, std::move(failed));
    }
  }
  (won ? spec_won_ : spec_lost_).fetch_add(1);
  TraceInstant(trace_, won ? "speculative_won" : "speculative_lost", "mr",
               {{"split", TraceCollector::JsonValue(
                              static_cast<uint64_t>(i))}});
}

// Stores task i's result. The caller holds ctrl->mu.
void JobRunner::Execution::RecordResult(size_t i, TaskControl* ctrl,
                                        MapTaskResult result) {
  ctrl->recorded = true;
  result.task.sim_seconds =
      cost_model_.TaskSeconds({result.task.cpu_seconds,
                                        result.task.io});
  results_[i] = std::move(result);
  ctrl->done.store(true, std::memory_order_relaxed);
}

// Straggler monitor (Hadoop semantics): once completed tasks give a median
// duration, any running task lagging past max(2 × median, 10 ms) gets ONE
// backup attempt on another node. The driver thread plays the JobTracker
// here, polling while the pool drains; it returns at once unless the job
// speculates.
void JobRunner::Execution::MonitorStragglers() {
  while (speculate_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<double> durations;
    for (TaskControl& control : controls_) {
      std::lock_guard<std::mutex> lock(control.mu);
      if (control.recorded) durations.push_back(control.duration);
    }
    if (durations.size() == splits_.size()) return;
    if (durations.empty()) continue;
    std::nth_element(durations.begin(),
                     durations.begin() + durations.size() / 2,
                     durations.end());
    const double median = durations[durations.size() / 2];
    const double threshold = std::max(2 * median, 0.01);
    const double now = phase_clock_.ElapsedSeconds();
    for (size_t i = 0; i < splits_.size(); ++i) {
      TaskControl& ctrl = controls_[i];
      const double started = ctrl.started_at.load(std::memory_order_relaxed);
      if (started < 0 || ctrl.done.load(std::memory_order_relaxed) ||
          now - started <= threshold) {
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(ctrl.mu);
        if (ctrl.recorded || ctrl.backup_launched) continue;
        ctrl.backup_launched = true;
        ctrl.backup_inflight = true;
      }
      report_->speculative_launched += 1;  // only this thread writes it
      TraceInstant(trace_, "speculative_launch", "mr",
                   {{"split", TraceCollector::JsonValue(
                                  static_cast<uint64_t>(i))}});
      pool_->Submit([this, i] { RunBackup(i); });
    }
  }
}

// One execution of map task i on `node`. Everything the attempt produces
// lands in *out, so a failed attempt can be discarded wholesale and
// retried. `superseded` (may be null) is the early-exit hint: once another
// attempt of the task has recorded the result, this one stops reading —
// its output is discarded either way, and a losing straggler must not hold
// the job's wall clock hostage.
Status JobRunner::Execution::RunAttempt(size_t i, int attempt, NodeId node,
                                        MapTaskResult* out,
                                        const std::atomic<bool>* superseded) {
  TaskReport* task = &out->task;
  task->split_index = static_cast<int>(i);
  task->node = node;
  task->data_local = SplitIsLocalTo(splits_[i], node);
  {
    ScopedSpan wait_span(trace_, "slot_wait", "mr");
    gate_.Acquire(node);
    if (wait_span.active()) wait_span.AddArg("node", node);
  }
  m_slots_active_->Add(1);
  m_tasks_launched_->Increment();
  // The map_task span lives on the executing thread, so the hdfs.read
  // spans its record reader emits nest inside it on the same track.
  ScopedSpan task_span(trace_, "map_task", "mr");
  if (task_span.active()) {
    task_span.AddArg("split", static_cast<uint64_t>(i));
    task_span.AddArg("node", node);
    task_span.AddArg("attempt", attempt);
    task_span.AddArg("data_local", task->data_local);
  }
  // The salt keys this attempt's deterministic fault schedule: a retry of
  // the same split draws fresh outcomes, whatever thread runs it.
  ReadContext context{node, &task->io,
                      static_cast<uint64_t>(i) * 131 +
                          static_cast<uint64_t>(attempt),
                      metrics_, trace_};
  context.readahead_bytes = config_.readahead_bytes;
  context.prefetch_depth = config_.prefetch_depth;
  context.prefetch_pool = prefetch_pool_.get();
  context.cancel = superseded;
  std::unique_ptr<RecordReader> reader;
  Status status = job_.input_format->CreateRecordReader(
      fs_, config_, splits_[i], context, &reader);
  if (status.ok()) {
    status = MapRecords(i, attempt, context, std::move(reader), out);
    if (task_span.active()) {
      task_span.AddArg("input_records", task->input_records);
      task_span.AddArg("output_records", task->output_records);
    }
    m_task_cpu_micros_->Observe(
        static_cast<uint64_t>(task->cpu_seconds * 1e6));
  }
  task_span.End();
  m_slots_active_->Add(-1);
  gate_.Release(node);
  return status;
}

// Maps every record of the attempt's reader into its emitter, polling for
// abort once per batch, and closes the reader.
Status JobRunner::Execution::MapRecords(size_t i, int attempt,
                                        const ReadContext& context,
                                        std::unique_ptr<RecordReader> reader,
                                        MapTaskResult* out) {
  TaskReport* task = &out->task;
  std::unique_ptr<MapOutputBuffer> spill_buffer;
  if (external_shuffle_) spill_buffer = NewSpillBuffer(i, attempt, context);
  Stopwatch attempt_watch;
  Status abort_status;
  auto interrupted = [&] {
    abort_status = PollAttempt(i, attempt, context.cancel, spill_buffer.get(),
                               attempt_watch);
    return !abort_status.ok();
  };
  VectorEmitter emitter;
  Emitter* map_out = spill_buffer != nullptr
                         ? static_cast<Emitter*>(spill_buffer.get())
                         : &emitter;
  ThreadCpuStopwatch watch;
  // Predicate filter (DESIGN.md §13): rows reach the mapper only when the
  // job predicate is TRUE, whether the format evaluated it (selection())
  // or the loop does row-wise, so output is identical with pushdown on or
  // off.
  const Status scan = ScanRecords(
      reader.get(), config_.batch_rows, config_.predicate.get(), interrupted,
      [&](Record& record) { job_.mapper(record, map_out); },
      &task->input_records);
  if (abort_status.ok()) abort_status = scan;
  // Map-side combine (in-memory path; the spill buffer combines at spill
  // time instead): ship the task's output folded through the combiner.
  if (abort_status.ok() && spill_buffer == nullptr && job_.combiner) {
    std::vector<uint64_t> hashes;
    hashes.reserve(emitter.pairs().size());
    for (const auto& [key, value] : emitter.pairs()) {
      hashes.push_back(ShuffleHash(key));
    }
    emitter.pairs() =
        FoldByKey(std::move(emitter.pairs()), hashes, job_.combiner);
  }
  // External shuffle: spill the buffer's tail inside the CPU window — the
  // final sort is map work like the in-memory combine above.
  if (abort_status.ok() && spill_buffer != nullptr) {
    abort_status = spill_buffer->Finish();
  }
  task->cpu_seconds = watch.ElapsedSeconds();
  const Status status = abort_status.ok() ? reader->status() : abort_status;
  // Close the reader inside this attempt's span and slot: its teardown is
  // part of the task, not of whatever the thread runs next.
  reader.reset();
  if (spill_buffer != nullptr) {
    out->runs = spill_buffer->TakeRuns();
    out->peak_buffer_bytes = spill_buffer->peak_buffer_bytes();
    for (const SpillRun& run : out->runs) {
      task->output_records += run.Total(&SpillSegment::records);
    }
  } else {
    task->output_records = emitter.pairs().size();
    out->pairs = std::move(emitter.pairs());
  }
  return status;
}

// External shuffle: the attempt's emitter is a bounded sort buffer that
// spills sorted runs into the attempt's private scratch. Spill writes draw
// from their own fault-salt domain, so injected write faults hit spills
// and output writes independently.
std::unique_ptr<MapOutputBuffer> JobRunner::Execution::NewSpillBuffer(
    size_t i, int attempt, const ReadContext& context) const {
  MapOutputBuffer::Options opts;
  opts.fs = fs_;
  opts.scratch_dir = AttemptDir(IndexedName("m_", i), attempt);
  opts.write_context =
      WriteContext{context.node, context.stats,
                   kSpillWriteSaltDomain | context.fault_salt, metrics_};
  opts.num_partitions = num_reducers_;
  opts.sort_buffer_bytes = config_.sort_buffer_bytes;
  opts.combiner = job_.combiner ? &job_.combiner : nullptr;
  opts.codec = config_.spill_codec;
  opts.trace = trace_;
  return std::make_unique<MapOutputBuffer>(std::move(opts));
}

// Why a running map attempt must stop, else OK: another attempt recorded
// the task (`superseded`), a spill write failed (the buffer is sticky-bad
// and mapping on would only drop output), or task_timeout_ms passed. Cheap
// but not free (an atomic load, a steady_clock read), so the map loop
// polls once per batch.
Status JobRunner::Execution::PollAttempt(
    size_t i, int attempt, const std::atomic<bool>* superseded,
    const MapOutputBuffer* spill_buffer, const Stopwatch& attempt_watch) const {
  if (superseded != nullptr && superseded->load(std::memory_order_relaxed)) {
    return Status::IoError("attempt superseded: task " + std::to_string(i) +
                           " already has a recorded result");
  }
  if (spill_buffer != nullptr && !spill_buffer->status().ok()) {
    return spill_buffer->status();
  }
  if (config_.task_timeout_ms > 0 &&
      attempt_watch.ElapsedSeconds() > config_.task_timeout_ms / 1e3) {
    return Status::IoError("task " + std::to_string(i) + " attempt " +
                           std::to_string(attempt) +
                           " exceeded task_timeout_ms=" +
                           std::to_string(config_.task_timeout_ms));
  }
  return Status::OK();
}

Status JobRunner::Execution::JoinMapResults() {
  // In split order, so map output (and everything derived from it) is
  // byte-identical to the serial engine's. Exactly one of pairs and runs
  // is used, so the other's terms add nothing.
  std::vector<double> task_times;
  task_times.reserve(splits_.size());
  for (MapTaskResult& result : results_) {
    COLMR_RETURN_IF_ERROR(result.status);
    TaskReport& task = result.task;
    task_times.push_back(task.sim_seconds);
    report_->map_input_records += task.input_records;
    report_->map_output_records += task.output_records;
    report_->bytes_read_local += task.io.local_bytes;
    report_->bytes_read_remote += task.io.remote_bytes;
    if (task.data_local) {
      report_->data_local_tasks += 1;
    } else {
      report_->remote_tasks += 1;
    }
    // External shuffle: post-spill-combine tagged bytes, the analog of the
    // in-memory sum below (which also measures post-combine pairs).
    for (SpillRun& run : result.runs) {
      report_->map_output_bytes += run.Total(&SpillSegment::kv_bytes);
      report_->spill_bytes += run.Total(&SpillSegment::bytes);
      report_->spill_count += 1;
      runs_.push_back(std::move(run));
    }
    report_->peak_spill_buffer_bytes = std::max(
        report_->peak_spill_buffer_bytes, result.peak_buffer_bytes);
    for (auto& pair : result.pairs) {
      report_->map_output_bytes +=
          TaggedEncodedSize(pair.first) + TaggedEncodedSize(pair.second);
      map_output_.push_back(std::move(pair));
    }
    report_->map_tasks.push_back(std::move(task));
  }
  report_->map_phase_seconds = cost_model_.MapPhaseSeconds(task_times);
  double task_time_sum = 0;
  for (double t : task_times) task_time_sum += t;
  report_->map_slot_seconds =
      task_time_sum / std::max(1, fs_->config().TotalMapSlots());
  return Status::OK();
}

Status JobRunner::Execution::Shuffle() {
  if (external_shuffle_) {
    COLMR_RETURN_IF_ERROR(MergePasses());
    // Bytes actually shuffled: what survives all map-side combining and
    // enters the reduce merge.
    for (const SpillRun& run : runs_) {
      report_->shuffle_bytes += run.Total(&SpillSegment::kv_bytes);
    }
  } else {
    // Partition by the stable key hash, which each reducer reuses to
    // group its partition (Hadoop's sort-merge shuffle, collapsed to an
    // in-memory sort). Partitions keep map-output order, so their
    // groups' members do too.
    partitions_.resize(static_cast<size_t>(num_reducers_));
    partition_hashes_.resize(partitions_.size());
    ScopedSpan shuffle_span(trace_, "shuffle", "mr");
    for (auto& pair : map_output_) {
      const uint64_t hash = ShuffleHash(pair.first);
      const size_t p = hash % partitions_.size();
      partitions_[p].push_back(std::move(pair));
      partition_hashes_[p].push_back(hash);
    }
    if (shuffle_span.active()) {
      shuffle_span.AddArg("partitions",
                          static_cast<uint64_t>(partitions_.size()));
      shuffle_span.AddArg("bytes", report_->map_output_bytes);
    }
    report_->shuffle_bytes = report_->map_output_bytes;
  }
  return Status::OK();
}

// Intermediate merge passes (io.sort.factor): while more runs exist than
// merge_factor, merge contiguous groups of merge_factor runs into one run
// each. Contiguous grouping preserves the global sequence order, so the
// final merge's tie-break semantics are unchanged.
Status JobRunner::Execution::MergePasses() {
  const size_t merge_factor =
      static_cast<size_t>(std::max(2, config_.merge_factor));
  for (int pass = 0; runs_.size() > merge_factor; ++pass) {
    std::vector<SpillRun> next;
    for (size_t g = 0; g * merge_factor < runs_.size(); ++g) {
      const size_t begin = g * merge_factor;
      const size_t end = std::min(runs_.size(), begin + merge_factor);
      if (end - begin == 1) {
        next.push_back(std::move(runs_[begin]));
        continue;
      }
      std::vector<const SpillRun*> group;
      for (size_t r = begin; r < end; ++r) group.push_back(&runs_[r]);
      next.emplace_back();
      COLMR_RETURN_IF_ERROR(MergeGroup(pass, g, group, &next.back()));
      for (const SpillRun* run : group) {
        report_->merge_segments += run->NonEmptySegments();
      }
    }
    runs_ = std::move(next);
    report_->merge_passes += 1;
  }
  return Status::OK();
}

// Merges one group of runs into *merged. A write fault retries the group
// with a fresh salt and path, like any other write attempt.
Status JobRunner::Execution::MergeGroup(
    int pass, size_t g, const std::vector<const SpillRun*>& group,
    SpillRun* merged) {
  const std::string task_id =
      "merge-" + std::to_string(pass) + "-" + std::to_string(g);
  Status last;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    ScopedSpan merge_span(trace_, "merge", "mr");
    if (merge_span.active()) {
      merge_span.AddArg("pass", pass);
      merge_span.AddArg("group", static_cast<uint64_t>(g));
      merge_span.AddArg("runs", static_cast<uint64_t>(group.size()));
      merge_span.AddArg("attempt", attempt);
    }
    const uint64_t salt = kMergeWriteSaltDomain |
                          ((static_cast<uint64_t>(pass) * 8191 + g) * 131 +
                           static_cast<uint64_t>(attempt));
    IoStats io;
    last = MergeSpillRuns(fs_, group, AttemptDir(task_id, attempt) + "/run",
                          WriteContext{kAnyNode, &io, salt, metrics_},
                          read_context_, config_.spill_codec, num_reducers_,
                          job_.combiner ? &job_.combiner : nullptr, merged);
    CountWriteAttempt(io, attempt, !last.ok());
    if (last.ok()) return last;
    TraceInstant(
        trace_, "merge_retry", "mr",
        {{"pass", TraceCollector::JsonValue(pass)},
         {"group", TraceCollector::JsonValue(static_cast<uint64_t>(g))},
         {"error", TraceCollector::JsonValue(last.message())}});
  }
  return last;
}

Status JobRunner::Execution::RunReducers() {
  reduced_.resize(static_cast<size_t>(num_reducers_));
  {
    ScopedSpan reduce_phase_span(trace_, "reduce_phase", "mr");
    Dispatch(
        reduced_.size(), [this](size_t p) { ReduceTask(p); },
        [this](size_t p) { return !reduced_[p].status.ok(); }, nullptr);
  }
  // Spill-read failures surface after the pool joins, lowest partition
  // first (matching the map phase's lowest-index-failure contract).
  for (const ReduceTaskResult& result : reduced_) {
    COLMR_RETURN_IF_ERROR(result.status);
  }
  if (external_shuffle_) {
    for (const SpillRun& run : runs_) {
      report_->merge_segments += run.NonEmptySegments();
    }
  }
  return Status::OK();
}

void JobRunner::Execution::ReduceTask(size_t p) {
  ReduceTaskResult& result = reduced_[p];
  ScopedSpan reduce_span(trace_, "reduce_task", "mr");
  if (reduce_span.active()) {
    reduce_span.AddArg("partition", static_cast<uint64_t>(p));
  }
  ThreadCpuStopwatch watch;
  VectorEmitter emitter;
  if (external_shuffle_) {
    // Stream this partition through a heap merge over every final run —
    // the partition never materializes as a vector. The merge order equals
    // the group order the in-memory path folds in, so the reducer sees
    // identical (key, [values]) calls.
    SpillMerger merger;
    for (size_t r = 0; r < runs_.size(); ++r) {
      if (runs_[r].segments[p].records == 0) continue;
      std::unique_ptr<SpillSegmentCursor> cursor;
      result.status = SpillSegmentCursor::Open(
          fs_, runs_[r], static_cast<int>(p), read_context_, &cursor);
      if (!result.status.ok()) return;
      merger.Add(std::move(cursor), r);
    }
    EqualKeyFold fold(job_.reducer, &emitter);
    while (merger.Next()) {
      ++result.input_records;
      fold.Add(merger.key(), std::move(*merger.mutable_value()));
    }
    result.status = merger.status();
    if (!result.status.ok()) return;
    fold.Flush();
  } else {
    result.input_records = partitions_[p].size();
    emitter.pairs() = FoldByKey(std::move(partitions_[p]),
                                partition_hashes_[p], job_.reducer);
  }
  if (reduce_span.active()) {
    reduce_span.AddArg("input_records", result.input_records);
  }
  result.cpu_seconds = watch.ElapsedSeconds();
  result.pairs = std::move(emitter.pairs());
}

// Output commit (DESIGN.md §11). Each partition is one output task: an
// attempt writes part-r-NNNNN into its private _temporary attempt dir,
// then commits with one atomic rename. Exhausting a partition's attempts
// fails the job (and RunImpl's AbortJob leaves no visible output). Empty
// partitions still write their part file, matching Hadoop's
// one-file-per-reducer layout.
Status JobRunner::Execution::CommitOutput() {
  if (committer_ == nullptr) return Status::OK();
  for (size_t p = 0; p < reduced_.size(); ++p) {
    COLMR_RETURN_IF_ERROR(WritePartition(p));
  }
  return committer_->CommitJob(kReduceWriteSaltDomain);
}

// Writes and commits partition p's part file. A write or commit fault
// retries the whole attempt on another node, feeding the same blacklist
// as map retries.
Status JobRunner::Execution::WritePartition(size_t p) {
  const std::string task_id = IndexedName("r_", p);
  std::set<NodeId> tried;
  Status status;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    const NodeId node = PickOutputNode(p, tried);
    tried.insert(node);
    ScopedSpan output_span(trace_, "output.write", "mr");
    if (output_span.active()) {
      output_span.AddArg("partition", static_cast<uint64_t>(p));
      output_span.AddArg("attempt", attempt);
      output_span.AddArg("node", node);
    }
    // Write-fault salt: the reduce-output domain bit keeps these draws
    // disjoint from map-read salts (see fault_injector.h).
    const uint64_t salt = kReduceWriteSaltDomain |
                          (static_cast<uint64_t>(p) * 131 +
                           static_cast<uint64_t>(attempt));
    IoStats io;
    status = WriteTextPart(
        fs_, committer_->TaskAttemptDir(task_id, attempt) + "/" +
            IndexedName("part-r-", p),
        WriteContext{node, &io, salt, metrics_}, reduced_[p].pairs);
    bool won = false;
    if (status.ok()) {
      status = committer_->CommitTask(task_id, attempt, salt, &won);
    }
    CountWriteAttempt(io, attempt, !status.ok());
    if (status.ok() && won) {
      report_->tasks_committed += 1;
      return status;
    }
    // A failed attempt, or one that lost the commit rename race to a
    // duplicate attempt (the task is committed then): its scratch must go.
    committer_->AbortTask(task_id, attempt);
    report_->commit_aborts += 1;
    if (status.ok()) return status;
    RecordNodeFailure(node);
  }
  return status;
}

// Deterministic node choice: round-robin from the partition index over
// live, unblacklisted, untried nodes, reusing a tried node only when the
// cluster is exhausted.
NodeId JobRunner::Execution::PickOutputNode(
    size_t p, const std::set<NodeId>& tried) const {
  const size_t num_nodes = static_cast<size_t>(fs_->config().num_nodes);
  for (size_t off = 0; off < num_nodes; ++off) {
    const NodeId node = static_cast<NodeId>((p + off) % num_nodes);
    if (!fs_->IsNodeDead(node) && !retry_.IsBlacklisted(node) &&
        tried.count(node) == 0) {
      return node;
    }
  }
  return static_cast<NodeId>(p % num_nodes);
}

// Moves the job's output into the report and fills the phase times.
void JobRunner::Execution::CollectOutput() {
  if (!job_.reducer) {
    report_->output = std::move(map_output_);
  } else {
    // Reduce output in partition order — identical to running the
    // reducers one after another.
    double max_reducer_seconds = 0;
    report_->reduce_input_records.reserve(reduced_.size());
    size_t output_records = 0;
    for (const ReduceTaskResult& result : reduced_) {
      output_records += result.pairs.size();
    }
    report_->output.reserve(output_records);
    for (ReduceTaskResult& result : reduced_) {
      max_reducer_seconds = std::max(max_reducer_seconds, result.cpu_seconds);
      report_->reduce_input_records.push_back(result.input_records);
      for (auto& pair : result.pairs) {
        report_->output.push_back(std::move(pair));
      }
    }
    report_->reduce_output_records = report_->output.size();
    report_->reduce_phase_seconds = max_reducer_seconds;
    // Reducers pull their partitions in parallel over the network; the
    // shuffle lasts as long as the largest per-reducer pull, sized by the
    // bytes actually shuffled (post all map-side combining).
    const double bytes_per_reducer =
        static_cast<double>(report_->shuffle_bytes) /
        std::max(1, num_reducers_);
    report_->shuffle_seconds =
        bytes_per_reducer / (fs_->config().network_bandwidth_mbps * 1e6);
  }
  report_->total_seconds = report_->map_phase_seconds +
                           report_->shuffle_seconds +
                           report_->reduce_phase_seconds;
}

// Scratch directory of one attempt of a task: inside the committer's
// _temporary when the job has output, else under scratch_root_.
std::string JobRunner::Execution::AttemptDir(const std::string& task_id,
                                             int attempt) const {
  if (committer_ != nullptr) {
    return committer_->TaskAttemptDir(task_id, attempt);
  }
  return scratch_root_ + "/attempt_" + task_id + "_" + std::to_string(attempt);
}

void JobRunner::Execution::RecordNodeFailure(NodeId node) {
  if (retry_.RecordFailure(node)) {
    m_nodes_blacklisted_->Increment();
    TraceInstant(trace_, "node_blacklisted", "mr",
                 {{"node", TraceCollector::JsonValue(node)}});
  }
}

// Books one output or merge write attempt: its faults, and a retry when it
// failed with attempts left.
void JobRunner::Execution::CountWriteAttempt(const IoStats& io, int attempt,
                                             bool failed) {
  report_->write_faults += io.write_faults;
  if (failed && attempt + 1 < max_attempts_) {
    report_->write_retries += 1;
  }
}

}  // namespace colmr
