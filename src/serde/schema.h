#ifndef COLMR_SERDE_SCHEMA_H_
#define COLMR_SERDE_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace colmr {

/// Type tags for schema nodes and runtime values.
enum class TypeKind : uint8_t {
  kNull = 0,
  kBool,
  kInt32,
  kInt64,
  kDouble,
  kString,
  kBytes,
  kArray,   // array<T>
  kMap,     // map<T> — keys are always strings, as in the paper's datasets
  kRecord,  // record { name: T, ... }
};

/// True for the nested kinds (array/map/record): a ColumnBatch keeps their
/// values in its boxed Value lane rather than a typed lane.
inline bool IsBoxedKind(TypeKind kind) {
  return kind == TypeKind::kArray || kind == TypeKind::kMap ||
         kind == TypeKind::kRecord;
}

/// Immutable type descriptor, shared via shared_ptr. Models the complex
/// types the paper targets (Fig. 2): primitives, arrays, string-keyed maps,
/// and nested records. Schemas are written to CIF split-directories and to
/// SequenceFile/RCFile headers in the text form produced by ToString() and
/// parsed back by Parse().
class Schema {
 public:
  using Ptr = std::shared_ptr<const Schema>;

  struct Field {
    std::string name;
    Ptr type;
  };

  // Factory functions; primitives are shared singletons.
  static Ptr Null();
  static Ptr Bool();
  static Ptr Int32();
  static Ptr Int64();
  static Ptr Double();
  static Ptr String();
  static Ptr Bytes();
  static Ptr Array(Ptr element);
  static Ptr Map(Ptr value);
  static Ptr Record(std::string name, std::vector<Field> fields);

  /// Parses the compact text syntax, e.g.
  ///   record URLInfo { url: string, fetchTime: long, inlink: array<string>,
  ///                    metadata: map<string>, content: bytes }
  /// Primitive names: null, bool, int, long, double, string, bytes.
  static Status Parse(const std::string& text, Ptr* schema);

  TypeKind kind() const { return kind_; }
  bool is_primitive() const { return !IsBoxedKind(kind_); }

  /// Element type of an array, or value type of a map.
  const Ptr& element() const { return element_; }

  /// Record accessors.
  const std::string& record_name() const { return name_; }
  const std::vector<Field>& fields() const { return fields_; }
  /// Index of the named field, or -1.
  int FieldIndex(const std::string& name) const;

  /// Canonical text form; Parse(ToString()) reproduces the schema.
  std::string ToString() const;

  /// Structural equality (record names included).
  bool Equals(const Schema& other) const;

  /// Returns a record schema with `field` appended — the cheap
  /// "add a column" operation CIF supports (paper Section 4.3).
  static Ptr WithField(const Ptr& record, Field field);

 private:
  friend struct SchemaBuilder;

  explicit Schema(TypeKind kind) : kind_(kind) {}

  TypeKind kind_;
  Ptr element_;                 // array/map
  std::string name_;            // record
  std::vector<Field> fields_;   // record
};

}  // namespace colmr

#endif  // COLMR_SERDE_SCHEMA_H_
