#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "store/atomic_file.h"

namespace idlog {

Status CsvRecordReader::Parse(std::string_view line) {
  // std::getline already consumed the '\n'; strip the '\r' of a CRLF
  // ending here so quoted-field handling below never sees it.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  fields_.clear();
  unescaped_.clear();
  // Unescaped text is never longer than the line, so the buffer never
  // reallocates under the views already taken into it.
  unescaped_.reserve(line.size());

  // A field past kMaxCsvFieldBytes fails on its size, also when it
  // holds a later error: a scanner that checks the size as the field
  // grows stops there first.
  auto fail = [&](size_t field_bytes, const char* what,
                  const char* suffix = "") {
    const std::string field_no = std::to_string(fields_.size() + 1);
    if (field_bytes > kMaxCsvFieldBytes) {
      return Status::ParseError("CSV field " + field_no + " exceeds " +
                                std::to_string(kMaxCsvFieldBytes) +
                                " bytes");
    }
    return Status::ParseError(what + field_no + suffix);
  };
  const size_t end = line.size();
  size_t i = 0;
  for (;;) {
    std::string_view field;
    if (i < end && line[i] == '"') {
      // Quoted: the field runs to the closing quote, and "" stands for
      // one quote, which moves the field into the scratch buffer.
      const size_t start = ++i;
      const size_t copied = unescaped_.size();
      bool escaped = false;
      for (;;) {
        const size_t q = line.find('"', i);
        if (q == std::string_view::npos) {
          const size_t bytes =
              escaped ? unescaped_.size() - copied + (end - i) : end - start;
          return fail(bytes, "unterminated quoted CSV field ");
        }
        if (q + 1 < end && line[q + 1] == '"') {
          unescaped_.append(line.substr(i, q + 1 - i));
          escaped = true;
          i = q + 2;
          continue;
        }
        if (escaped) {
          unescaped_.append(line.substr(i, q - i));
          field = std::string_view(unescaped_).substr(copied);
        } else {
          field = line.substr(start, q - start);
        }
        i = q + 1;
        break;
      }
      if (i < end && line[i] != ',') {
        return fail(field.size(),
                    "unexpected character after closing quote in CSV "
                    "field ");
      }
    } else {
      const size_t start = i;
      for (; i < end && line[i] != ','; ++i) {
        if (line[i] == '"') {
          return fail(i - start, "quote opens mid-field in CSV field ",
                      " (quoted fields must start with '\"')");
        }
        if (line[i] == '\r') {
          return fail(i - start, "stray carriage return in CSV field ");
        }
      }
      field = line.substr(start, i - start);
    }
    if (field.size() > kMaxCsvFieldBytes) return fail(field.size(), "");
    fields_.push_back(field);
    if (i == end) return Status::OK();
    ++i;  // The comma; a trailing one leaves an empty last field.
  }
}

Result<std::vector<std::string>> ParseCsvRecord(std::string_view line) {
  CsvRecordReader reader;
  IDLOG_RETURN_NOT_OK(reader.Parse(line));
  return std::vector<std::string>(reader.fields().begin(),
                                  reader.fields().end());
}

namespace {

Status LoadFromStream(Database* database, const std::string& name,
                      std::istream& in, bool skip_header,
                      const std::string& what, ResourceGovernor* governor) {
  if (governor != nullptr) governor->set_scope("csv loader");
  // The target relation, resolved once: an existing one fixes the
  // arity, or else the first row does and the first stored row creates
  // the relation from its sorts.
  Relation* rel = nullptr;
  if (Result<Relation*> existing = database->GetMutable(name);
      existing.ok()) {
    rel = *existing;
  }
  size_t expected_arity = rel != nullptr ? rel->type().size() : 0;

  CsvRecordReader reader;
  std::string line;
  int line_no = 0;
  auto at_line = [&](const Status& st) {
    return Status(st.code(), what + " line " + std::to_string(line_no) +
                                 ": " + st.message());
  };
  while (std::getline(in, line)) {
    ++line_no;
    IDLOG_FAILPOINT("csv.load.row");
    if (skip_header && line_no == 1) continue;
    if (line.empty() || line == "\r") continue;
    if (Status st = reader.Parse(line); !st.ok()) return at_line(st);
    const std::vector<std::string_view>& fields = reader.fields();
    if (expected_arity == 0) {
      expected_arity = fields.size();
    } else if (fields.size() != expected_arity) {
      return at_line(Status::ParseError(
          "row has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(expected_arity)));
    }
    if (governor != nullptr) {
      Status st = governor->OnDerived(1, ApproxTupleBytes(fields.size()));
      if (!st.ok()) return st;
    }
    Tuple t;
    t.reserve(fields.size());
    for (std::string_view field : fields) {
      Result<Value> v = ParseFieldValue(field, database->symbols());
      if (!v.ok()) return at_line(v.status());
      t.push_back(*v);
    }
    if (rel == nullptr) {
      Result<Relation*> created = database->Resolve(name, t);
      if (!created.ok()) return at_line(created.status());
      rel = *created;
    }
    Status st = database->Insert(rel, std::move(t));
    if (!st.ok()) return at_line(st);
  }
  return Status::OK();
}

}  // namespace

Status LoadCsvRelation(Database* database, const std::string& name,
                       const std::string& path, bool skip_header,
                       ResourceGovernor* governor) {
  IDLOG_FAILPOINT("csv.load.open");
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  return LoadFromStream(database, name, in, skip_header, path, governor);
}

Status LoadCsvRelationFromString(Database* database, const std::string& name,
                                 const std::string& content,
                                 bool skip_header,
                                 ResourceGovernor* governor) {
  std::istringstream in(content);
  return LoadFromStream(database, name, in, skip_header, "<string>",
                        governor);
}

Status SaveRelationCsv(const Relation& rel, const SymbolTable& symbols,
                       const std::string& path) {
  // Rendered in memory and written atomically: a crash mid-save leaves
  // either the previous file or the new one, never a torn CSV.
  std::ostringstream out;
  for (const Tuple& t : rel.SortedTuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << ',';
      std::string field = t[i].ToString(symbols);
      if (field.find(',') != std::string::npos ||
          field.find('"') != std::string::npos) {
        std::string quoted = "\"";
        for (char c : field) {
          if (c == '"') quoted += '"';
          quoted += c;
        }
        quoted += '"';
        out << quoted;
      } else {
        out << field;
      }
    }
    out << '\n';
  }
  return WriteFileAtomic(path, out.str());
}

}  // namespace idlog
