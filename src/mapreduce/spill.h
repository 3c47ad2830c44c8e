#ifndef COLMR_MAPREDUCE_SPILL_H_
#define COLMR_MAPREDUCE_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "compress/codec.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "serde/encoding.h"
#include "serde/value.h"

namespace colmr {

class TraceCollector;

// External sort-merge shuffle (DESIGN.md §12) — the bounded-memory spill
// path Hadoop calls the map-side sort (io.sort.mb / io.sort.factor). A map
// task accumulates output pairs up to JobConfig::sort_buffer_bytes, sorts
// the buffer by (partition, key), optionally folds it through the
// combiner, and writes one *run* file; the reduce side streams each
// partition through a heap-based k-way merge over every run instead of
// materializing the partition in memory.
//
// Run file byte layout (all integers varint/fixed little-endian per
// common/coding.h):
//
//   run      := segment*          one per partition, ascending partition
//                                 order; an empty partition occupies zero
//                                 bytes (its SpillSegment records that)
//   segment  := block*
//   block    := varint raw_len    bytes of `raw` before compression
//               varint stored_len bytes of `stored` as written
//               fixed32 crc       CRC-32 of `stored`
//               stored            codec(raw) when codec != kNone, else raw
//   raw      := record*
//   record   := varint key_len  | tagged key   (serde EncodeTaggedValue)
//               varint value_len | tagged value
//
// Blocks never span segments, so a reader of one partition touches only
// that partition's byte range. Segment offsets/lengths live in the
// in-memory SpillRun — runs are job-transient scratch, re-created from
// scratch by any re-run, so nothing needs to be recoverable from the file
// alone. Within a run each segment is key-sorted (ties keep buffer order);
// the merge layer restores the global stable order via sequence-numbered
// cursors (see SpillMerger).

/// Seed of the stable shuffle partitioner. Fixed; changing it reassigns
/// every key to a new partition and is an output-format break (the
/// pinned-vector test in shuffle_spill_test.cc will say so).
inline constexpr uint64_t kShufflePartitionSeed = 0x636f6c6d72736866ull;

/// The stable HashPartitioner contract: partition of a key is
/// HashTaggedValue(key, kShufflePartitionSeed) % num_partitions —
/// identical on every platform/stdlib, allocation-free. Declared here,
/// implemented in spill.cc next to the run format it feeds.
uint32_t ShufflePartition(const Value& key, uint32_t num_partitions);

/// HashTaggedValue(key, kShufflePartitionSeed): computed once where a
/// pair enters the shuffle, it picks the partition (hash % partitions)
/// and finds the key's group in GroupThenOrder.
inline uint64_t ShuffleHash(const Value& key) {
  return HashTaggedValue(key, kShufflePartitionSeed);
}

/// The shuffle's one sort (DESIGN.md §12): pair indices grouped by key and
/// ordered group after group.
struct KeyGroups {
  /// Indices into the grouped pairs, group after group; each group's
  /// members in input order.
  std::vector<uint32_t> order;
  /// One past each group's last member in `order`.
  std::vector<uint32_t> ends;
};

/// Groups `pairs` whose keys Value::Compare calls equal — a hash match
/// confirmed by Compare, never the hash alone — and orders the groups by
/// (partition, key), where hashes[i] is pairs[i]'s ShuffleHash and its
/// partition is hashes[i] % num_partitions. Read in `order`, the pairs are
/// exactly a stable sort by (partition, key), but only the distinct keys
/// are sorted and no pair moves. Relies on Compare-equal keys hashing
/// equal.
KeyGroups GroupThenOrder(const std::vector<std::pair<Value, Value>>& pairs,
                         const std::vector<uint64_t>& hashes,
                         uint32_t num_partitions);

/// Folds each group of `groups` through fn (combiner or reducer), in
/// group order: fn(the first member's key, the members' values in input
/// order, out) — what EqualKeyFold gives over the stable sort. Moves the
/// values out of `pairs`.
void FoldGroups(const KeyGroups& groups,
                std::vector<std::pair<Value, Value>>* pairs,
                const ReduceFn& fn, Emitter* out);

/// Emitter that appends into a vector: in-memory map output, and the
/// output of combiners and reducers.
class VectorEmitter final : public Emitter {
 public:
  void Emit(Value key, Value value) override {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  std::vector<std::pair<Value, Value>>& pairs() { return pairs_; }

 private:
  std::vector<std::pair<Value, Value>> pairs_;
};

/// Folds a key-sorted stream of pairs through a combiner or reducer: each
/// run of keys that Value::Compare calls equal becomes one fn(first key,
/// values, out) call. Add() folds the open run first when the key differs;
/// Flush() folds the last run. Equal keys share a shuffle partition, so a
/// (partition, key)-sorted stream folds the same way.
class EqualKeyFold {
 public:
  EqualKeyFold(const ReduceFn& fn, Emitter* out) : fn_(fn), out_(out) {}

  template <typename K, typename V>
  void Add(K&& key, V&& value) {
    if (!values_.empty() && key.Compare(key_) != 0) Flush();
    if (values_.empty()) key_ = std::forward<K>(key);
    values_.push_back(std::forward<V>(value));
  }

  void Flush() {
    if (values_.empty()) return;
    fn_(key_, values_, out_);
    values_.clear();
  }

 private:
  const ReduceFn& fn_;
  Emitter* out_;
  Value key_;
  std::vector<Value> values_;
};

/// One partition's byte range inside a run file.
struct SpillSegment {
  uint64_t offset = 0;    // first byte of the segment in the file
  uint64_t bytes = 0;     // stored length (framing + stored blocks)
  uint64_t records = 0;   // KV records in the segment
  /// Tagged-encoding bytes of the segment's keys+values (excluding the
  /// record length prefixes and block framing): the unit map_output_bytes
  /// and shuffle_bytes are accounted in, so in-memory and external runs
  /// report comparable byte counts.
  uint64_t kv_bytes = 0;
};

/// One sorted, partitioned run on scratch storage.
struct SpillRun {
  std::string path;
  CodecType codec = CodecType::kNone;
  std::vector<SpillSegment> segments;  // indexed by partition

  /// One SpillSegment field summed over the run, e.g.
  /// Total(&SpillSegment::bytes) for the run's file bytes.
  uint64_t Total(uint64_t SpillSegment::*field) const {
    uint64_t total = 0;
    for (const SpillSegment& s : segments) total += s.*field;
    return total;
  }
  /// Segments a merge over this run consumes: those holding records.
  uint64_t NonEmptySegments() const {
    uint64_t count = 0;
    for (const SpillSegment& s : segments) count += s.records > 0 ? 1 : 0;
    return count;
  }
};

/// Writes one run file. Append() must be called with non-decreasing
/// partition ids and key-sorted records within each partition — the
/// caller (MapOutputBuffer, MergeSpillRuns) owns the sort. Write faults
/// surface through the underlying FileWriter exactly as reduce-output
/// writes do: the writer goes sticky-bad and Close returns the first
/// error, so a faulted spill fails the whole map attempt and the retry
/// machinery re-executes it on a fresh node.
class SpillRunWriter {
 public:
  static Status Open(MiniHdfs* fs, const std::string& path,
                     const WriteContext& context, CodecType codec,
                     int num_partitions,
                     std::unique_ptr<SpillRunWriter>* writer);

  Status Append(int partition, const Value& key, const Value& value);

  /// Flushes the tail block, seals the file, and fills *out.
  Status Close(SpillRun* out);

 private:
  SpillRunWriter(std::string path, std::unique_ptr<FileWriter> file,
                 CodecType codec, int num_partitions);

  Status FlushBlock();

  std::string path_;
  std::unique_ptr<FileWriter> file_;
  const Codec* codec_;
  CodecType codec_type_;
  std::vector<SpillSegment> segments_;
  int current_partition_ = 0;
  uint64_t offset_ = 0;  // file offset of the next byte to be written
  Buffer block_;         // raw bytes of the open block
  Buffer scratch_;       // per-record tagged-encoding scratch
  Buffer stored_;        // compression scratch
};

/// Streams the records of one partition's segment out of a run file,
/// block by block — memory held is one block's raw + stored bytes,
/// never the segment. CRC mismatches and truncation surface as
/// Corruption through status().
class SpillSegmentCursor {
 public:
  static Status Open(MiniHdfs* fs, const SpillRun& run, int partition,
                     const ReadContext& context,
                     std::unique_ptr<SpillSegmentCursor>* cursor);

  /// Advances to the next record; false at segment end or on error
  /// (check status()). key()/value() are valid until the next call.
  bool Next();

  const Value& key() const { return key_; }
  const Value& value() const { return value_; }
  Value* mutable_value() { return &value_; }
  const Status& status() const { return status_; }

 private:
  SpillSegmentCursor(std::unique_ptr<FileReader> reader, const SpillRun& run,
                     const SpillSegment& segment);

  bool FillBlock();  // loads the next block into cursor_

  std::unique_ptr<FileReader> reader_;
  const Codec* codec_;
  uint64_t pos_;  // next unread file offset
  uint64_t end_;  // one past the segment's last byte
  std::string stored_;
  Buffer raw_;
  Slice cursor_;  // unread bytes of the current block
  Value key_;
  Value value_;
  Status status_;
};

/// Heap-based k-way merge over segment cursors. Pop order is
/// (key ascending, sequence ascending, in-cursor position) — with
/// sequence numbers assigned in (map task, spill index) order this is
/// exactly the order a stable sort of the concatenated map output gives,
/// which is what makes external output byte-identical to the in-memory
/// path (DESIGN.md §12 determinism argument).
class SpillMerger {
 public:
  /// Takes ownership. Cursors must not have been advanced yet.
  void Add(std::unique_ptr<SpillSegmentCursor> cursor, uint64_t sequence);

  /// Advances to the next (key, value); false when drained or on error.
  bool Next();

  const Value& key() const { return current_->key(); }
  const Value& value() const { return current_->value(); }
  /// The current value, for a caller to move from: the cursor overwrites
  /// it on its next record.
  Value* mutable_value() { return current_->mutable_value(); }
  const Status& status() const { return status_; }

 private:
  struct HeapEntry {
    SpillSegmentCursor* cursor;
    uint64_t sequence;
  };
  /// Min-heap ordering (std::push_heap builds a max-heap, so this is the
  /// inverted comparison).
  static bool HeapAfter(const HeapEntry& a, const HeapEntry& b);

  void Push(SpillSegmentCursor* cursor, uint64_t sequence);

  std::vector<std::unique_ptr<SpillSegmentCursor>> owned_;
  std::vector<std::pair<SpillSegmentCursor*, uint64_t>> pending_;
  std::vector<HeapEntry> heap_;
  SpillSegmentCursor* current_ = nullptr;
  uint64_t current_sequence_ = 0;
  bool primed_ = false;
  Status status_;
};

/// Merges a group of runs (ascending sequence order) into one run at
/// `path`, partition by partition, optionally folding equal-key groups
/// through the combiner (which must preserve the key — the Hadoop
/// combiner contract; its output stays in the group's partition).
Status MergeSpillRuns(MiniHdfs* fs, const std::vector<const SpillRun*>& runs,
                      const std::string& path, const WriteContext& write_ctx,
                      const ReadContext& read_ctx, CodecType codec,
                      int num_partitions, const ReduceFn* combiner,
                      SpillRun* out);

/// The map-side accumulator: an Emitter that buffers (partition, key,
/// value) triples up to `sort_buffer_bytes` of tagged-encoding payload,
/// then sorts, combines, and spills a run. Spill I/O errors latch into
/// status() and make further Emits no-ops, so the map loop can poll and
/// abort the attempt — mirroring FileWriter's sticky-failure contract.
class MapOutputBuffer final : public Emitter {
 public:
  struct Options {
    MiniHdfs* fs = nullptr;
    /// Directory the run files land in (the task attempt's private
    /// scratch: runs are torn down with it on abort/commit).
    std::string scratch_dir;
    WriteContext write_context;
    int num_partitions = 1;
    uint64_t sort_buffer_bytes = 0;
    const ReduceFn* combiner = nullptr;  // may be null
    CodecType codec = CodecType::kNone;
    TraceCollector* trace = nullptr;  // may be null
  };

  explicit MapOutputBuffer(Options options);

  void Emit(Value key, Value value) override;

  /// Spills whatever the buffer still holds (so every task that emitted
  /// anything owns at least one run). Returns the sticky error, if any.
  Status Finish();

  const Status& status() const { return status_; }
  /// The task's runs: its spill count, spilled bytes and post-combine
  /// records and tagged bytes are their sizes and Total()s.
  std::vector<SpillRun> TakeRuns() { return std::move(runs_); }
  /// High-water mark of buffered tagged bytes: the bounded-memory claim.
  /// At most sort_buffer_bytes plus one record.
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  Status SortAndSpill();

  Options options_;
  std::vector<std::pair<Value, Value>> entries_;
  std::vector<uint64_t> hashes_;  // ShuffleHash of each entry's key
  uint64_t buffer_bytes_ = 0;
  uint64_t peak_buffer_bytes_ = 0;
  std::vector<SpillRun> runs_;
  Status status_;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_SPILL_H_
