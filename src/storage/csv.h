#ifndef IDLOG_STORAGE_CSV_H_
#define IDLOG_STORAGE_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "storage/database.h"

namespace idlog {

/// Upper bound on a single CSV field, enforced by ParseCsvRecord.
/// Fields past this size are almost certainly a missing quote or a
/// corrupt file, and letting them grow unbounded is a memory hazard.
inline constexpr size_t kMaxCsvFieldBytes = 1 << 20;  // 1 MiB

/// Strictly parses CSV records (RFC-4180 style) into fields that are
/// views, not strings: into the line itself, or into the reader's one
/// scratch buffer for a quoted field holding doubled quotes. A reader
/// reused across lines costs no allocation per field or record once
/// its buffers have grown. Handles double-quoted fields with embedded
/// commas, CRLF line endings (one trailing '\r' is stripped), and
/// doubled quotes ("" escapes a quote). Parse returns ParseError for:
///  - an unterminated quoted field,
///  - text after a closing quote (`"ab"x`),
///  - a quote opening mid-field (`ab"cd"`),
///  - a stray carriage return outside quotes,
///  - a field longer than kMaxCsvFieldBytes.
class CsvRecordReader {
 public:
  /// Parses one line (without its '\n'). On success fields() holds the
  /// record's fields, valid until the next Parse and while `line`'s
  /// characters stay unchanged.
  Status Parse(std::string_view line);

  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  std::vector<std::string_view> fields_;
  /// Unescaped text of the current record's fields with doubled quotes.
  std::string unescaped_;
};

/// Strictly parses one CSV record with CsvRecordReader's rules and
/// returns its fields as strings.
Result<std::vector<std::string>> ParseCsvRecord(std::string_view line);

/// Loads `path` into relation `name`: one tuple per non-empty line,
/// fields comma-separated; all-digit fields become sort-i values, the
/// rest are interned as sort-u constants (ParseFieldValue, as
/// Database::AddRow reads them). With `skip_header`, the first line is
/// dropped. The relation is resolved once per file, and each line is
/// parsed in place in one reused buffer.
///
/// Malformed rows (bad quoting, oversized fields, arity mismatch
/// against the relation or earlier rows, out-of-range integers) fail
/// with ParseError naming the offending line; sort mismatches keep
/// their TypeError code, also with the line number.
///
/// With `governor` set, each loaded row charges the tuple and memory
/// budgets, so --max-tuples / --max-memory-mb also cap bulk loads.
Status LoadCsvRelation(Database* database, const std::string& name,
                       const std::string& path, bool skip_header = false,
                       ResourceGovernor* governor = nullptr);

/// Writes `rel` to `path` as CSV (values in canonical sorted order),
/// quoting fields that contain commas or quotes.
Status SaveRelationCsv(const Relation& rel, const SymbolTable& symbols,
                       const std::string& path);

/// Parses CSV content from a string instead of a file (for tests).
Status LoadCsvRelationFromString(Database* database, const std::string& name,
                                 const std::string& content,
                                 bool skip_header = false,
                                 ResourceGovernor* governor = nullptr);

}  // namespace idlog

#endif  // IDLOG_STORAGE_CSV_H_
