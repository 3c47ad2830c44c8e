#ifndef COLMR_CIF_LAZY_RECORD_H_
#define COLMR_CIF_LAZY_RECORD_H_

#include <memory>
#include <vector>

#include "cif/column_reader.h"
#include "serde/record.h"

namespace colmr {

/// Lazy record construction (paper Section 5.1, Fig. 5). The reader holds
/// one split-level position, curPos, advanced by the RecordReader on every
/// Next(); each column file keeps its own lastPos (the ColumnFileReader's
/// current row). Nothing is read or deserialized until the map function
/// calls Get(): the column then skips curPos - lastPos rows — through its
/// skip list if it has one — and deserializes exactly one value.
class LazyRecord final : public Record {
 public:
  /// Column readers are owned by the caller (the CIF RecordReader) and
  /// must outlive the LazyRecord; index i corresponds to schema field i,
  /// nullptr for fields outside the projection. field_reads, when given,
  /// counts Get() calls that materialize a column value
  /// (cif.lazy.field_reads).
  LazyRecord(Schema::Ptr schema, std::vector<ColumnFileReader*> columns,
             Counter* field_reads = nullptr);

  const Schema& schema() const override { return *schema_; }
  Status Get(std::string_view name, const Value** value) override;

  /// Advances the split-level position. Does no I/O.
  void AdvanceTo(uint64_t row) { cur_pos_ = row; }
  uint64_t cur_pos() const { return cur_pos_; }

  /// Declares the resident row window [start, start + rows) of the
  /// enclosing batch (DESIGN.md §10). While a window is set, the first
  /// Get() of a typed-lane column (bool/int/double/string/bytes) inside it
  /// decodes that column in bulk to the window's end, so a touched
  /// primitive column pays one NextBatch instead of one ReadValue per row.
  /// Array, map and record columns never decode ahead: they always take
  /// the per-value path, SkipRows(curPos - lastPos) + ReadValue, so only
  /// the values the map function reads are built. Untouched columns still
  /// skip. rows == 0 restores pure per-row laziness for every column.
  void SetBatchWindow(uint64_t start, uint64_t rows) {
    win_start_ = start;
    win_rows_ = rows;
  }

 private:
  struct ColumnState {
    ColumnFileReader* reader = nullptr;
    /// What Get() hands out for cached_row.
    Value cached;
    uint64_t cached_row = UINT64_MAX;
    /// Typed-lane columns: rows [batch_start, batch_start + batch.size())
    /// decoded ahead.
    ColumnBatch batch;
    uint64_t batch_start = 0;
  };

  Schema::Ptr schema_;
  std::vector<ColumnState> columns_;
  uint64_t cur_pos_ = 0;
  uint64_t win_start_ = 0;
  uint64_t win_rows_ = 0;
  Counter* field_reads_ = nullptr;
};

}  // namespace colmr

#endif  // COLMR_CIF_LAZY_RECORD_H_
