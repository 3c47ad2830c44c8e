#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four benchmark workloads. Each one owns an in-process MiniHdfs, a
// private MetricsRegistry passed to its jobs through JobConfig::metrics,
// and an independent reference computed from the generated records in
// memory, without the engine. The program under test only ever sees the
// generated inputs; the seed stays on this side.
//
// Life cycle, driven by main.cc:
//   Setup()                      generation, load, reference, warm-up
//   per op: Prepare() untimed -> Run() timed -> Check() untimed
//           -> Cleanup() untimed

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdfs/mini_hdfs.h"
#include "instrument.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"

namespace perfbench {

/// Engine worker threads for every job: the serial engine. On a shared
/// VM whose free cores come and go, a two-worker job's wall time tracks
/// the neighbours' load; one worker (and no prefetch pool) keeps the
/// thread budget at 1 of the 4 CPUs and the timings steady.
inline constexpr int kEngineThreads = 1;

/// The traced-op hooks; null for untraced ops.
struct Instrumentation {
  Recorder* recorder = nullptr;
  ScanCounts* counts = nullptr;
  colmr::TraceCollector* trace = nullptr;
};

/// What Check() learns about the op it checked.
struct OpFacts {
  uint64_t input_rows = 0;
  /// Spill runs plus committed output, or the ingested dataset.
  uint64_t written_bytes = 0;
  /// Split-directories the ingest writer produced.
  uint64_t write_splits = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual colmr::Status Setup() = 0;
  /// Builds op number `op` (instrumented when `inst` is non-null).
  virtual void Prepare(uint64_t op, const Instrumentation* inst) = 0;
  /// The timed operation.
  virtual colmr::Status Run() = 0;
  /// Compares the op's output with the reference. Returns false and
  /// explains why on a mismatch.
  virtual bool Check(OpFacts* facts, std::string* why) = 0;
  /// Removes what the op wrote.
  virtual colmr::Status Cleanup() { return colmr::Status::OK(); }

  /// Engine report of the last op; null for the ingest workload.
  virtual const colmr::JobReport* report() const { return nullptr; }
  /// HDFS file bytes of the workload's dataset per serde-encoded user
  /// byte of its records.
  virtual double SpaceAmp() const = 0;
  /// Data sizes, for the human-readable report.
  virtual std::string Describe() const = 0;

  colmr::MetricsRegistry* job_metrics() { return &job_metrics_; }

 protected:
  std::unique_ptr<colmr::MiniHdfs> fs_;
  colmr::MetricsRegistry job_metrics_;
};

const std::vector<std::string>& WorkloadNames();

/// Null when `name` is not a workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
