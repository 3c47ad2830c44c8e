#ifndef COLMR_MAPREDUCE_INPUT_FORMAT_H_
#define COLMR_MAPREDUCE_INPUT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "serde/predicate.h"
#include "serde/record.h"

namespace colmr {

struct JobConfig;

/// A unit of map-task scheduling: a non-overlapping partition of the input
/// (paper Section 2). Row formats produce one split per byte range of a
/// file; CIF produces one split per split-directory (a set of column
/// files).
struct InputSplit {
  /// Files the split reads. Row formats: exactly one. CIF: one per
  /// projected column plus the schema file.
  std::vector<std::string> paths;
  /// Byte range within paths[0] for row formats ([0, file size) for CIF).
  uint64_t offset = 0;
  uint64_t length = 0;
  /// Nodes on which every path of the split is fully local. Used by the
  /// scheduler for locality-aware assignment; may be empty (Fig. 3a).
  std::vector<NodeId> locations;
};

/// Iterates the records of one split. The Next()/record() protocol mirrors
/// Hadoop's RecordReader: the Record reference stays valid until the next
/// call to Next().
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record. Returns false at end of split or on
  /// error; check status() to distinguish.
  virtual bool Next() = 0;

  /// The current record. Only valid after Next() returned true.
  virtual Record& record() = 0;

  /// OK unless iteration stopped due to an error.
  virtual Status status() const = 0;

  // ---- Batch protocol (DESIGN.md §10) ----
  // The map loop (ScanRecords below) drives every reader batch-at-a-time:
  // FillBatch makes up to JobConfig::batch_rows records resident, RecordAt
  // addresses them. The base implementation adapts any scalar reader as a
  // one-row batch, so row formats participate without changes; CIF
  // overrides both to decode columns in bulk.

  /// Makes up to max_rows records resident and returns how many (0 = end
  /// of split or error; check status()). Invalidates the previous batch,
  /// including every Record obtained through RecordAt — the batched form
  /// of Hadoop's record-reuse contract.
  virtual uint64_t FillBatch(uint64_t max_rows) {
    (void)max_rows;
    return Next() ? 1 : 0;
  }

  /// The i'th resident record, i < the last FillBatch return value.
  virtual Record& RecordAt(uint64_t i) {
    (void)i;
    return record();
  }

  /// Selection over the current batch (DESIGN.md §13): when non-null, the
  /// reader has already evaluated the job predicate and the engine must
  /// map exactly the rows whose indices appear here (ascending, each <
  /// the last FillBatch return value), skipping the rest. Null (the
  /// default) means the reader made no selection and the engine filters
  /// rows itself. Valid until the next FillBatch call.
  virtual const std::vector<uint32_t>* selection() const { return nullptr; }
};

/// The map loop (DESIGN.md §10, §13), shared by the engine's map attempts
/// and the bench scans. Drives `reader` through FillBatch(batch_rows)
/// (0 counts as 1) and calls fn(Record&) on every row that reaches the map
/// function, adding their number to *mapped once per batch. The rows of a
/// batch are the reader's selection() when it made one; else, with a
/// predicate, the rows EvalPredicateRow finds TRUE, each evaluated and
/// mapped in one forward pass so lazy records stay forward-only; else all
/// of them. interrupted() is polled once per filled batch and ends the
/// loop when true. Returns the first predicate evaluation error; reader
/// errors stay in reader->status().
template <typename Interrupted, typename Fn>
Status ScanRecords(RecordReader* reader, uint64_t batch_rows,
                   const Predicate* predicate, Interrupted&& interrupted,
                   Fn&& fn, uint64_t* mapped) {
  const uint64_t max_rows = batch_rows > 0 ? batch_rows : 1;
  uint64_t filled;
  while ((filled = reader->FillBatch(max_rows)) > 0) {
    if (interrupted()) break;
    if (const std::vector<uint32_t>* selection = reader->selection()) {
      for (const uint32_t r : *selection) fn(reader->RecordAt(r));
      *mapped += selection->size();
    } else if (predicate != nullptr) {
      uint64_t passed = 0;
      Status eval;
      for (uint64_t r = 0; r < filled; ++r) {
        Record& record = reader->RecordAt(r);
        const Tri pass = EvalPredicateRow(*predicate, record, &eval);
        if (!eval.ok()) break;
        if (pass != Tri::kTrue) continue;
        fn(record);
        ++passed;
      }
      *mapped += passed;
      if (!eval.ok()) return eval;
    } else {
      for (uint64_t r = 0; r < filled; ++r) fn(reader->RecordAt(r));
      *mapped += filled;
    }
  }
  return Status::OK();
}

/// The central Hadoop extensibility point the paper builds on (Section 2):
/// generates splits for the scheduler and turns a split into typed records
/// for the map function.
class InputFormat {
 public:
  virtual ~InputFormat() = default;

  virtual std::string name() const = 0;

  /// Enumerates the splits of the job's input paths. The read context
  /// carries the metrics/trace sinks of the job doing the planning, so
  /// footer and schema reads account to the job rather than the process.
  virtual Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                           const ReadContext& context,
                           std::vector<InputSplit>* splits) = 0;

  /// Convenience overload for context-free callers (tests, tools).
  /// Derived classes re-expose it with `using InputFormat::GetSplits`.
  Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                   std::vector<InputSplit>* splits) {
    return GetSplits(fs, config, ReadContext{}, splits);
  }

  /// Opens a reader over one split in the given read context (the node the
  /// map task was scheduled on, plus its IoStats sink).
  virtual Status CreateRecordReader(
      MiniHdfs* fs, const JobConfig& config, const InputSplit& split,
      const ReadContext& context,
      std::unique_ptr<RecordReader>* reader) = 0;
};

/// Splits each input file into block-sized byte ranges whose locations are
/// the block's replica nodes — the generic splitter row formats share.
/// Ranges are later snapped to record boundaries by the format's reader
/// (sync markers, newline scan).
Status ComputeFileSplits(MiniHdfs* fs,
                         const std::vector<std::string>& input_paths,
                         uint64_t split_size,
                         std::vector<InputSplit>* splits);

/// Expands a path to the files beneath it: a file path yields itself; a
/// directory yields all (recursive) files under it, sorted.
Status ExpandInputPaths(MiniHdfs* fs, const std::vector<std::string>& paths,
                        std::vector<std::string>* files);

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_INPUT_FORMAT_H_
