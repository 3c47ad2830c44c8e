#ifndef PERFBENCH_INSTRUMENT_H_
#define PERFBENCH_INSTRUMENT_H_

// The benchmark's own side of a traced op: a per-thread interval recorder
// on the engine's trace clock, and delegating wrappers around the public
// calls the benchmark makes (InputFormat, RecordReader) or owns (the map,
// combine and reduce functions, and the emitter the map function writes
// to). Wrappers time every call into the layer beneath them; the
// intervals become spans in the op's ledger (ledger.h).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ledger.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "obs/trace.h"

namespace perfbench {

/// Span names the benchmark records itself.
enum class Layer : uint8_t {
  kOp,           // "op": one operation, root of the op's spans
  kPlan,         // "plan.get_splits": InputFormat::GetSplits
  kOpen,         // "cif.open": InputFormat::CreateRecordReader
  kScan,         // "cif.scan": RecordReader::FillBatch / Next / RecordAt
  kReaderClose,  // "cif.reader_close": destroying a RecordReader
  kMapFn,        // "job.map_fn": the benchmark's map function
  kEmit,         // "mapreduce.emit": Emitter::Emit from the map function
  kCombineFn,    // "job.combine_fn"
  kReduceFn,     // "job.reduce_fn"
  kWrite,        // "cif.write": CofWriter::Open and WriteRecord
  kClose,        // "cif.close": CofWriter::Close
};
const char* LayerName(Layer layer);

/// Collects the benchmark's intervals for one traced op. Begin() aligns
/// the recorder with a freshly made TraceCollector; Add() is the hot path
/// (a thread-local buffer append); End() returns every interval as a Span
/// whose tid matches the collector's own thread numbering.
///
/// Thread mapping: the first Add() of a thread in an op emits one instant
/// event, "perfbench.thread", on the collector from that thread. The
/// collector stamps it with its tid for the thread, and End() reads that
/// back from the parsed trace.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// `epoch` is the steady_clock instant the collector counts from.
  void Begin(colmr::TraceCollector* collector,
             std::chrono::steady_clock::time_point epoch);

  /// Nanoseconds on the collector's clock.
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void Add(Layer layer, int64_t start_ns, int64_t end_ns);

  /// Ends the op. `events` is the parsed collector trace; the returned
  /// spans are the engine's complete events plus the recorder's.
  std::vector<Span> End(const std::vector<TraceEvent>& events);

 private:
  struct Interval {
    int64_t start_ns;
    int64_t end_ns;
    Layer layer;
  };
  struct ThreadBuffer {
    int bench_tid = 0;
    std::vector<Interval> intervals;
  };
  ThreadBuffer* BufferForThisThread();

  colmr::TraceCollector* collector_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t generation_ = 0;
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII interval: Add()s [construction, destruction) under `layer` when
/// the recorder is non-null.
class Timed {
 public:
  Timed(Recorder* recorder, Layer layer)
      : recorder_(recorder),
        layer_(layer),
        start_ns_(recorder == nullptr ? 0 : recorder->Now()) {}
  ~Timed() {
    if (recorder_ != nullptr) recorder_->Add(layer_, start_ns_, recorder_->Now());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Recorder* recorder_;
  Layer layer_;
  int64_t start_ns_;
};

/// Counts the delegating wrappers keep per op.
struct ScanCounts {
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> rows_selected{0};

  void Reset() {
    splits = 0;
    opens = 0;
    rows_scanned = 0;
    rows_selected = 0;
  }
};

/// An InputFormat that forwards to `inner`, timing GetSplits (kPlan) and
/// CreateRecordReader (kOpen), and wraps every reader it opens in a
/// reader that times each call (kScan) and its own destruction
/// (kReaderClose), counts rows, and forwards selection() so pushdown
/// stays in the format.
class TimedInputFormat final : public colmr::InputFormat {
 public:
  TimedInputFormat(std::shared_ptr<colmr::InputFormat> inner,
                   Recorder* recorder, ScanCounts* counts)
      : inner_(std::move(inner)), recorder_(recorder), counts_(counts) {}

  std::string name() const override { return inner_->name(); }
  using colmr::InputFormat::GetSplits;
  colmr::Status GetSplits(colmr::MiniHdfs* fs, const colmr::JobConfig& config,
                          const colmr::ReadContext& context,
                          std::vector<colmr::InputSplit>* splits) override;
  colmr::Status CreateRecordReader(
      colmr::MiniHdfs* fs, const colmr::JobConfig& config,
      const colmr::InputSplit& split, const colmr::ReadContext& context,
      std::unique_ptr<colmr::RecordReader>* reader) override;

 private:
  std::shared_ptr<colmr::InputFormat> inner_;
  Recorder* recorder_;
  ScanCounts* counts_;
};

/// Wraps user functions so each call is an interval: the map function
/// under kMapFn with its Emit calls under kEmit, the combiner under
/// kCombineFn, the reducer under kReduceFn.
colmr::MapFn TimedMap(colmr::MapFn fn, Recorder* recorder);
colmr::ReduceFn TimedReduce(colmr::ReduceFn fn, Recorder* recorder,
                            Layer layer);

}  // namespace perfbench

#endif  // PERFBENCH_INSTRUMENT_H_
