#include "cif/lazy_record.h"

#include "obs/metrics.h"

namespace colmr {

LazyRecord::LazyRecord(Schema::Ptr schema,
                       std::vector<ColumnFileReader*> columns,
                       Counter* field_reads)
    : schema_(std::move(schema)), field_reads_(field_reads) {
  columns_.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    columns_[i].reader = columns[i];
  }
}

Status LazyRecord::Get(std::string_view name, const Value** value) {
  const int index = schema_->FieldIndex(std::string(name));
  if (index < 0) {
    return Status::NotFound("no such field: " + std::string(name));
  }
  ColumnState& column = columns_[index];
  if (column.reader == nullptr) {
    return Status::NotFound("field not in projection: " + std::string(name));
  }
  if (column.cached_row != cur_pos_) {
    // Only typed-lane columns decode ahead inside a batch window; a boxed
    // column (array/map/record) would build a Value per row of the window
    // that the map function mostly never reads.
    const bool in_window = win_rows_ > 0 && cur_pos_ >= win_start_ &&
                           cur_pos_ < win_start_ + win_rows_ &&
                           !IsBoxedKind(column.reader->type()->kind());
    const bool resident = in_window && cur_pos_ >= column.batch_start &&
                          cur_pos_ < column.batch_start + column.batch.size();
    if (!resident) {
      // lastPos (reader->current_row()) lags curPos by however many
      // records the map function never touched; skip them in one jump.
      const uint64_t last_pos = column.reader->current_row();
      if (last_pos > cur_pos_) {
        return Status::InvalidArgument("lazy record: column past cur_pos");
      }
      COLMR_RETURN_IF_ERROR(column.reader->SkipRows(cur_pos_ - last_pos));
      if (in_window) {
        // First touch inside the window: decode ahead to its end.
        COLMR_RETURN_IF_ERROR(column.reader->NextBatch(
            win_start_ + win_rows_ - cur_pos_, &column.batch));
        column.batch_start = cur_pos_;
      }
    }
    if (in_window) {
      column.batch.MaterializeInto(
          static_cast<size_t>(cur_pos_ - column.batch_start), &column.cached);
    } else {
      COLMR_RETURN_IF_ERROR(column.reader->ReadValue(&column.cached));
    }
    column.cached_row = cur_pos_;
    if (field_reads_ != nullptr) field_reads_->Increment();
  }
  *value = &column.cached;
  return Status::OK();
}

}  // namespace colmr
