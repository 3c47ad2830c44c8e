#include "mapreduce/spill.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

/// Raw bytes a block accumulates before it is framed and flushed. Small
/// enough that a segment reader holds two blocks' worth of memory at
/// most; large enough that varint+crc framing is amortized away. A
/// single record larger than this becomes its own oversized block —
/// blocks frame records, they never split one.
constexpr size_t kSpillBlockBytes = 64 * 1024;

}  // namespace

uint32_t ShufflePartition(const Value& key, uint32_t num_partitions) {
  assert(num_partitions > 0);
  return static_cast<uint32_t>(ShuffleHash(key) % num_partitions);
}

// ---- GroupThenOrder ----

KeyGroups GroupThenOrder(const std::vector<std::pair<Value, Value>>& pairs,
                         const std::vector<uint64_t>& hashes,
                         uint32_t num_partitions) {
  assert(num_partitions > 0 && hashes.size() == pairs.size());
  constexpr uint32_t kNone = UINT32_MAX;
  assert(pairs.size() < kNone);
  const uint32_t n = static_cast<uint32_t>(pairs.size());
  // Open addressing over groups, at most half full; each slot holds its
  // group's hash and first and last member. A slot is picked by the
  // hash's top bits, since one partition's keys share hash % partitions
  // and so, for a power-of-two count, their low bits.
  struct Slot {
    uint64_t hash = 0;
    uint32_t first = kNone;
    uint32_t last = kNone;
  };
  int bits = 4;
  std::vector<Slot> slots(size_t{1} << bits);
  size_t mask = slots.size() - 1;
  const auto probe_start = [&](uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - bits));
  };
  std::vector<uint32_t> next(n, kNone);  // next member of the same group
  // One sort key per group: partition in the high half, first member in
  // the low half.
  std::vector<uint64_t> groups;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t hash = hashes[i];
    for (size_t s = probe_start(hash);; s = (s + 1) & mask) {
      Slot& slot = slots[s];
      if (slot.first == kNone) {
        slot = Slot{hash, i, i};
        groups.push_back((hash % num_partitions) << 32 | i);
        break;
      }
      if (slot.hash == hash &&
          pairs[slot.first].first.Compare(pairs[i].first) == 0) {
        next[slot.last] = i;
        slot.last = i;
        break;
      }
    }
    if (2 * groups.size() > slots.size()) {
      std::vector<Slot> old(slots.size() * 2);
      old.swap(slots);
      ++bits;
      mask = slots.size() - 1;
      for (const Slot& slot : old) {
        if (slot.first == kNone) continue;
        size_t s = probe_start(slot.hash);
        while (slots[s].first != kNone) s = (s + 1) & mask;
        slots[s] = slot;
      }
    }
  }
  // Distinct groups never compare equal, so this unstable sort of the
  // distinct keys is deterministic.
  std::sort(groups.begin(), groups.end(), [&](uint64_t a, uint64_t b) {
    if ((a >> 32) != (b >> 32)) return a < b;
    return pairs[static_cast<uint32_t>(a)].first.Compare(
               pairs[static_cast<uint32_t>(b)].first) < 0;
  });
  KeyGroups out;
  out.order.reserve(n);
  out.ends.reserve(groups.size());
  for (uint64_t group : groups) {
    for (uint32_t m = static_cast<uint32_t>(group); m != kNone; m = next[m]) {
      out.order.push_back(m);
    }
    out.ends.push_back(static_cast<uint32_t>(out.order.size()));
  }
  return out;
}

void FoldGroups(const KeyGroups& groups,
                std::vector<std::pair<Value, Value>>* pairs,
                const ReduceFn& fn, Emitter* out) {
  std::vector<Value> values;
  uint32_t begin = 0;
  for (uint32_t end : groups.ends) {
    values.clear();
    values.reserve(end - begin);
    for (uint32_t k = begin; k < end; ++k) {
      values.push_back(std::move((*pairs)[groups.order[k]].second));
    }
    fn((*pairs)[groups.order[begin]].first, values, out);
    begin = end;
  }
}

// ---- SpillRunWriter ----

SpillRunWriter::SpillRunWriter(std::string path,
                               std::unique_ptr<FileWriter> file,
                               CodecType codec, int num_partitions)
    : path_(std::move(path)),
      file_(std::move(file)),
      codec_(GetCodec(codec)),
      codec_type_(codec),
      segments_(static_cast<size_t>(num_partitions)) {}

Status SpillRunWriter::Open(MiniHdfs* fs, const std::string& path,
                            const WriteContext& context, CodecType codec,
                            int num_partitions,
                            std::unique_ptr<SpillRunWriter>* writer) {
  if (GetCodec(codec) == nullptr) {
    return Status::InvalidArgument("spill: unknown codec");
  }
  if (num_partitions <= 0) {
    return Status::InvalidArgument("spill: num_partitions must be positive");
  }
  std::unique_ptr<FileWriter> file;
  COLMR_RETURN_IF_ERROR(fs->Create(path, context, &file));
  writer->reset(
      new SpillRunWriter(path, std::move(file), codec, num_partitions));
  return Status::OK();
}

Status SpillRunWriter::Append(int partition, const Value& key,
                              const Value& value) {
  if (partition < current_partition_ ||
      partition >= static_cast<int>(segments_.size())) {
    return Status::InvalidArgument("spill: partition out of order");
  }
  if (partition != current_partition_) {
    // Blocks never span segments: seal the open block so the previous
    // partition's byte range ends here.
    COLMR_RETURN_IF_ERROR(FlushBlock());
    current_partition_ = partition;
  }
  SpillSegment& seg = segments_[static_cast<size_t>(partition)];
  if (seg.records == 0 && block_.empty()) seg.offset = offset_;

  scratch_.Clear();
  EncodeTaggedValue(key, &scratch_);
  const size_t key_len = scratch_.size();
  EncodeTaggedValue(value, &scratch_);
  const size_t value_len = scratch_.size() - key_len;
  // serde.shuffle.values_{encoded,decoded} count the tagged values of
  // spill records only (a key and a value each), in the process-global
  // registry with the other serde.* counters.
  static Counter* encoded =
      MetricsRegistry::Default().counter("serde.shuffle.values_encoded");
  encoded->Increment(2);

  PutVarint64(&block_, key_len);
  block_.Append(scratch_.AsSlice().Prefix(key_len));
  PutVarint64(&block_, value_len);
  block_.Append(Slice(scratch_.data() + key_len, value_len));
  seg.records += 1;
  seg.kv_bytes += scratch_.size();

  if (block_.size() >= kSpillBlockBytes) {
    COLMR_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status SpillRunWriter::FlushBlock() {
  if (block_.empty()) return Status::OK();
  Slice stored = block_.AsSlice();
  if (codec_type_ != CodecType::kNone) {
    stored_.Clear();
    COLMR_RETURN_IF_ERROR(codec_->Compress(block_.AsSlice(), &stored_));
    stored = stored_.AsSlice();
  }
  Buffer header;
  PutVarint64(&header, block_.size());
  PutVarint64(&header, stored.size());
  PutFixed32(&header, Crc32(stored));
  file_->Append(header.AsSlice());
  file_->Append(stored);
  const uint64_t wrote = header.size() + stored.size();
  segments_[static_cast<size_t>(current_partition_)].bytes += wrote;
  offset_ += wrote;
  block_.Clear();
  return file_->status();
}

Status SpillRunWriter::Close(SpillRun* out) {
  COLMR_RETURN_IF_ERROR(FlushBlock());
  COLMR_RETURN_IF_ERROR(file_->Close());
  out->path = path_;
  out->codec = codec_type_;
  out->segments = std::move(segments_);
  return Status::OK();
}

// ---- SpillSegmentCursor ----

SpillSegmentCursor::SpillSegmentCursor(std::unique_ptr<FileReader> reader,
                                       const SpillRun& run,
                                       const SpillSegment& segment)
    : reader_(std::move(reader)),
      codec_(GetCodec(run.codec)),
      pos_(segment.offset),
      end_(segment.offset + segment.bytes) {}

Status SpillSegmentCursor::Open(MiniHdfs* fs, const SpillRun& run,
                                int partition, const ReadContext& context,
                                std::unique_ptr<SpillSegmentCursor>* cursor) {
  if (partition < 0 || partition >= static_cast<int>(run.segments.size())) {
    return Status::InvalidArgument("spill: partition out of range");
  }
  if (GetCodec(run.codec) == nullptr) {
    return Status::Corruption("spill: unknown codec in run");
  }
  std::unique_ptr<FileReader> reader;
  COLMR_RETURN_IF_ERROR(fs->Open(run.path, context, &reader));
  cursor->reset(new SpillSegmentCursor(
      std::move(reader), run, run.segments[static_cast<size_t>(partition)]));
  return Status::OK();
}

bool SpillSegmentCursor::FillBlock() {
  if (pos_ >= end_) return false;  // segment drained
  // Block header: two varints plus a fixed32 CRC — at most 24 bytes.
  std::string header;
  const size_t header_cap =
      static_cast<size_t>(std::min<uint64_t>(24, end_ - pos_));
  status_ = reader_->Read(pos_, header_cap, &header);
  if (!status_.ok()) return false;
  Slice h(header);
  uint64_t raw_len = 0, stored_len = 0;
  uint32_t crc = 0;
  status_ = GetVarint64(&h, &raw_len);
  if (status_.ok()) status_ = GetVarint64(&h, &stored_len);
  if (status_.ok()) status_ = GetFixed32(&h, &crc);
  if (!status_.ok()) {
    status_ = Status::Corruption("spill: truncated block header");
    return false;
  }
  const uint64_t header_len = header.size() - h.size();
  if (pos_ + header_len + stored_len > end_) {
    status_ = Status::Corruption("spill: block overruns segment");
    return false;
  }
  status_ = reader_->Read(pos_ + header_len, stored_len, &stored_);
  if (!status_.ok()) return false;
  if (stored_.size() != stored_len) {
    status_ = Status::Corruption("spill: truncated block");
    return false;
  }
  if (Crc32(Slice(stored_)) != crc) {
    status_ = Status::Corruption("spill: block checksum mismatch");
    return false;
  }
  if (codec_->type() != CodecType::kNone) {
    raw_.Clear();
    status_ = codec_->Decompress(Slice(stored_), &raw_);
    if (!status_.ok()) return false;
    if (raw_.size() != raw_len) {
      status_ = Status::Corruption("spill: block raw-length mismatch");
      return false;
    }
    cursor_ = raw_.AsSlice();
  } else {
    if (stored_.size() != raw_len) {
      status_ = Status::Corruption("spill: block raw-length mismatch");
      return false;
    }
    cursor_ = Slice(stored_);
  }
  pos_ += header_len + stored_len;
  return true;
}

bool SpillSegmentCursor::Next() {
  if (!status_.ok()) return false;
  if (cursor_.empty() && !FillBlock()) return false;

  uint64_t key_len = 0;
  status_ = GetVarint64(&cursor_, &key_len);
  if (status_.ok() && key_len > cursor_.size()) {
    status_ = Status::Corruption("spill: record overruns block");
  }
  if (!status_.ok()) return false;
  Slice key_bytes = cursor_.Prefix(key_len);
  status_ = DecodeTaggedValue(&key_bytes, &key_);
  if (status_.ok() && !key_bytes.empty()) {
    status_ = Status::Corruption("spill: trailing bytes after key");
  }
  if (!status_.ok()) return false;
  cursor_.RemovePrefix(key_len);

  uint64_t value_len = 0;
  status_ = GetVarint64(&cursor_, &value_len);
  if (status_.ok() && value_len > cursor_.size()) {
    status_ = Status::Corruption("spill: record overruns block");
  }
  if (!status_.ok()) return false;
  Slice value_bytes = cursor_.Prefix(value_len);
  status_ = DecodeTaggedValue(&value_bytes, &value_);
  if (status_.ok() && !value_bytes.empty()) {
    status_ = Status::Corruption("spill: trailing bytes after value");
  }
  if (!status_.ok()) return false;
  cursor_.RemovePrefix(value_len);
  static Counter* decoded =
      MetricsRegistry::Default().counter("serde.shuffle.values_decoded");
  decoded->Increment(2);
  return true;
}

// ---- SpillMerger ----

bool SpillMerger::HeapAfter(const HeapEntry& a, const HeapEntry& b) {
  // True when a pops after b. std::push_heap keeps the maximum at the
  // front, so "pops after" == "greater" gives a min-heap.
  const int c = a.cursor->key().Compare(b.cursor->key());
  if (c != 0) return c > 0;
  return a.sequence > b.sequence;
}

void SpillMerger::Add(std::unique_ptr<SpillSegmentCursor> cursor,
                      uint64_t sequence) {
  pending_.emplace_back(cursor.get(), sequence);
  owned_.push_back(std::move(cursor));
}

void SpillMerger::Push(SpillSegmentCursor* cursor, uint64_t sequence) {
  if (cursor->Next()) {
    heap_.push_back(HeapEntry{cursor, sequence});
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  } else if (!cursor->status().ok() && status_.ok()) {
    status_ = cursor->status();
  }
}

bool SpillMerger::Next() {
  if (!status_.ok()) return false;
  if (!primed_) {
    primed_ = true;
    for (const auto& [cursor, sequence] : pending_) Push(cursor, sequence);
    pending_.clear();
  } else if (current_ != nullptr) {
    Push(current_, current_sequence_);
    current_ = nullptr;
  }
  if (!status_.ok() || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
  current_ = heap_.back().cursor;
  current_sequence_ = heap_.back().sequence;
  heap_.pop_back();
  return true;
}

// ---- MergeSpillRuns ----

Status MergeSpillRuns(MiniHdfs* fs, const std::vector<const SpillRun*>& runs,
                      const std::string& path, const WriteContext& write_ctx,
                      const ReadContext& read_ctx, CodecType codec,
                      int num_partitions, const ReduceFn* combiner,
                      SpillRun* out) {
  std::unique_ptr<SpillRunWriter> writer;
  COLMR_RETURN_IF_ERROR(SpillRunWriter::Open(fs, path, write_ctx, codec,
                                             num_partitions, &writer));
  VectorEmitter combined;
  // Appends the combiner's pending output to partition p of the new run.
  auto append_combined = [&](int p) -> Status {
    for (auto& [k, v] : combined.pairs()) {
      COLMR_RETURN_IF_ERROR(writer->Append(p, k, v));
    }
    combined.pairs().clear();
    return Status::OK();
  };
  for (int p = 0; p < num_partitions; ++p) {
    SpillMerger merger;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (runs[i]->segments[static_cast<size_t>(p)].records == 0) continue;
      std::unique_ptr<SpillSegmentCursor> cursor;
      COLMR_RETURN_IF_ERROR(
          SpillSegmentCursor::Open(fs, *runs[i], p, read_ctx, &cursor));
      merger.Add(std::move(cursor), i);
    }
    if (combiner == nullptr) {
      while (merger.Next()) {
        COLMR_RETURN_IF_ERROR(writer->Append(p, merger.key(), merger.value()));
      }
      COLMR_RETURN_IF_ERROR(merger.status());
      continue;
    }
    // Combine equal-key groups as they stream off the heap. The combiner
    // must preserve the key (Hadoop's contract), so outputs stay in this
    // partition and remain key-sorted.
    EqualKeyFold fold(*combiner, &combined);
    while (merger.Next()) {
      fold.Add(merger.key(), std::move(*merger.mutable_value()));
      COLMR_RETURN_IF_ERROR(append_combined(p));
    }
    COLMR_RETURN_IF_ERROR(merger.status());
    fold.Flush();
    COLMR_RETURN_IF_ERROR(append_combined(p));
  }
  return writer->Close(out);
}

// ---- MapOutputBuffer ----

MapOutputBuffer::MapOutputBuffer(Options options)
    : options_(std::move(options)) {}

void MapOutputBuffer::Emit(Value key, Value value) {
  if (!status_.ok()) return;  // sticky: the attempt is already doomed
  buffer_bytes_ += TaggedEncodedSize(key) + TaggedEncodedSize(value);
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_bytes_);
  hashes_.push_back(ShuffleHash(key));
  entries_.emplace_back(std::move(key), std::move(value));
  if (buffer_bytes_ >= options_.sort_buffer_bytes) {
    status_ = SortAndSpill();
  }
}

Status MapOutputBuffer::Finish() {
  if (status_.ok() && !entries_.empty()) status_ = SortAndSpill();
  return status_;
}

Status MapOutputBuffer::SortAndSpill() {
  if (entries_.empty()) return Status::OK();
  ScopedSpan span(options_.trace, "spill", "mr");
  span.AddArg("records_in", static_cast<uint64_t>(entries_.size()));

  // The order the whole determinism argument leans on: equal
  // (partition, key) entries keep emission order, so every run is a
  // contiguous slice of the stable sort of this task's output.
  const uint32_t partitions = static_cast<uint32_t>(options_.num_partitions);
  KeyGroups groups = GroupThenOrder(entries_, hashes_, partitions);
  if (options_.combiner != nullptr) {
    // Fold each key group through the combiner — Hadoop's spill-time
    // combine. Outputs are re-partitioned by their own key and re-ordered,
    // exactly as the in-memory path treats combiner output; a
    // key-preserving combiner leaves them in order already.
    VectorEmitter outputs;
    FoldGroups(groups, &entries_, *options_.combiner, &outputs);
    entries_.clear();
    hashes_.clear();
    for (auto& pair : outputs.pairs()) {
      hashes_.push_back(ShuffleHash(pair.first));
      entries_.push_back(std::move(pair));
    }
    const auto before = [&](size_t a, size_t b) {  // (partition, key) order
      const uint64_t pa = hashes_[a] % partitions;
      const uint64_t pb = hashes_[b] % partitions;
      if (pa != pb) return pa < pb;
      return entries_[a].first.Compare(entries_[b].first) < 0;
    };
    bool in_order = true;
    for (size_t i = 1; i < entries_.size(); ++i) in_order &= !before(i, i - 1);
    if (in_order) {
      groups.order.resize(entries_.size());
      std::iota(groups.order.begin(), groups.order.end(), 0u);
    } else {
      groups = GroupThenOrder(entries_, hashes_, partitions);
    }
  }

  const std::string path =
      options_.scratch_dir + "/spill-" + std::to_string(runs_.size());
  std::unique_ptr<SpillRunWriter> writer;
  COLMR_RETURN_IF_ERROR(SpillRunWriter::Open(
      options_.fs, path, options_.write_context, options_.codec,
      options_.num_partitions, &writer));
  for (uint32_t i : groups.order) {
    COLMR_RETURN_IF_ERROR(
        writer->Append(static_cast<int>(hashes_[i] % partitions),
                       entries_[i].first, entries_[i].second));
  }
  SpillRun run;
  COLMR_RETURN_IF_ERROR(writer->Close(&run));

  span.AddArg("records_out", static_cast<uint64_t>(entries_.size()));
  span.AddArg("bytes", run.Total(&SpillSegment::bytes));

  runs_.push_back(std::move(run));
  entries_.clear();
  hashes_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

}  // namespace colmr
