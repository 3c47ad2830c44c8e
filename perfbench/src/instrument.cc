#include "instrument.h"

#include <map>
#include <utility>

namespace perfbench {
namespace {

using colmr::Emitter;
using colmr::Record;
using colmr::RecordReader;
using colmr::Status;
using colmr::Value;

std::atomic<uint64_t> g_generation{0};

// Which recorder generation this thread last registered with, and its
// buffer there. A stale generation means "register again".
struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

class TimedRecordReader final : public RecordReader {
 public:
  TimedRecordReader(std::unique_ptr<RecordReader> inner, Recorder* recorder,
                    ScanCounts* counts)
      : inner_(std::move(inner)), recorder_(recorder), counts_(counts) {}
  // The engine drops a task's reader after its map_task span has ended.
  ~TimedRecordReader() override {
    Timed timed(recorder_, Layer::kReaderClose);
    inner_.reset();
  }

  bool Next() override {
    bool more;
    {
      Timed timed(recorder_, Layer::kScan);
      more = inner_->Next();
    }
    if (more) {
      counts_->rows_scanned += 1;
      counts_->rows_selected += 1;
    }
    return more;
  }
  Record& record() override { return inner_->record(); }
  Status status() const override { return inner_->status(); }

  uint64_t FillBatch(uint64_t max_rows) override {
    uint64_t filled;
    {
      Timed timed(recorder_, Layer::kScan);
      filled = inner_->FillBatch(max_rows);
    }
    const std::vector<uint32_t>* selection = inner_->selection();
    counts_->rows_scanned += filled;
    counts_->rows_selected += selection != nullptr ? selection->size() : filled;
    return filled;
  }
  Record& RecordAt(uint64_t i) override {
    Timed timed(recorder_, Layer::kScan);
    return inner_->RecordAt(i);
  }
  const std::vector<uint32_t>* selection() const override {
    return inner_->selection();
  }

 private:
  std::unique_ptr<RecordReader> inner_;
  Recorder* recorder_;
  ScanCounts* counts_;
};

class TimedEmitter final : public Emitter {
 public:
  TimedEmitter(Emitter* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}
  void Emit(Value key, Value value) override {
    Timed timed(recorder_, Layer::kEmit);
    inner_->Emit(std::move(key), std::move(value));
  }

 private:
  Emitter* inner_;
  Recorder* recorder_;
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kPlan: return "plan.get_splits";
    case Layer::kOpen: return "cif.open";
    case Layer::kScan: return "cif.scan";
    case Layer::kReaderClose: return "cif.reader_close";
    case Layer::kMapFn: return "job.map_fn";
    case Layer::kEmit: return "mapreduce.emit";
    case Layer::kCombineFn: return "job.combine_fn";
    case Layer::kReduceFn: return "job.reduce_fn";
    case Layer::kWrite: return "cif.write";
    case Layer::kClose: return "cif.close";
  }
  return "unknown";
}

void Recorder::Begin(colmr::TraceCollector* collector,
                     std::chrono::steady_clock::time_point epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  collector_ = collector;
  epoch_ = epoch;
  generation_ = g_generation.fetch_add(1) + 1;
  buffers_.clear();
}

Recorder::ThreadBuffer* Recorder::BufferForThisThread() {
  if (t_slot.generation == generation_) {
    return static_cast<ThreadBuffer*>(t_slot.buffer);
  }
  ThreadBuffer* buffer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->bench_tid = static_cast<int>(buffers_.size()) - 1;
    buffer->intervals.reserve(4096);
  }
  collector_->AddInstant(
      "perfbench.thread", "bench",
      {{"bench_tid", colmr::TraceCollector::JsonValue(buffer->bench_tid)}});
  t_slot = {generation_, buffer};
  return buffer;
}

void Recorder::Add(Layer layer, int64_t start_ns, int64_t end_ns) {
  if (collector_ == nullptr) return;  // not inside a traced op
  BufferForThisThread()->intervals.push_back({start_ns, end_ns, layer});
}

std::vector<Span> Recorder::End(const std::vector<TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<int, int> tid_of_bench_tid;
  for (const TraceEvent& event : events) {
    if (event.phase == 'X') {
      spans.push_back({event.name, event.ts_us * 1000,
                       (event.ts_us + event.dur_us) * 1000, event.tid});
    } else if (event.name == "perfbench.thread") {
      auto it = event.args.find("bench_tid");
      if (it != event.args.end()) {
        tid_of_bench_tid[static_cast<int>(it->second)] = event.tid;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    auto it = tid_of_bench_tid.find(buffer->bench_tid);
    // A thread the collector never saw gets a track of its own.
    const int tid = it != tid_of_bench_tid.end() ? it->second
                                                 : -1 - buffer->bench_tid;
    for (const Interval& interval : buffer->intervals) {
      spans.push_back({LayerName(interval.layer), interval.start_ns,
                       interval.end_ns, tid});
    }
  }
  buffers_.clear();
  collector_ = nullptr;
  return spans;
}

Status TimedInputFormat::GetSplits(colmr::MiniHdfs* fs,
                                   const colmr::JobConfig& config,
                                   const colmr::ReadContext& context,
                                   std::vector<colmr::InputSplit>* splits) {
  Status status;
  {
    Timed timed(recorder_, Layer::kPlan);
    status = inner_->GetSplits(fs, config, context, splits);
  }
  if (status.ok()) counts_->splits += splits->size();
  return status;
}

Status TimedInputFormat::CreateRecordReader(
    colmr::MiniHdfs* fs, const colmr::JobConfig& config,
    const colmr::InputSplit& split, const colmr::ReadContext& context,
    std::unique_ptr<RecordReader>* reader) {
  std::unique_ptr<RecordReader> inner;
  Status status;
  {
    Timed timed(recorder_, Layer::kOpen);
    status = inner_->CreateRecordReader(fs, config, split, context, &inner);
  }
  if (!status.ok()) return status;
  counts_->opens += 1;
  *reader = std::make_unique<TimedRecordReader>(std::move(inner), recorder_,
                                                counts_);
  return Status::OK();
}

colmr::MapFn TimedMap(colmr::MapFn fn, Recorder* recorder) {
  return [fn = std::move(fn), recorder](Record& record, Emitter* out) {
    TimedEmitter emitter(out, recorder);
    Timed timed(recorder, Layer::kMapFn);
    fn(record, &emitter);
  };
}

colmr::ReduceFn TimedReduce(colmr::ReduceFn fn, Recorder* recorder,
                            Layer layer) {
  return [fn = std::move(fn), recorder, layer](
             const Value& key, const std::vector<Value>& values, Emitter* out) {
    Timed timed(recorder, layer);
    fn(key, values, out);
  };
}

}  // namespace perfbench
