#include "storage/database.h"

#include <algorithm>
#include <charconv>

namespace idlog {

Status Database::CreateRelation(const std::string& name, RelationType type) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.type() != type) {
      return Status::TypeError("relation '" + name +
                               "' already exists with a different type");
    }
    return Status::OK();
  }
  relations_.emplace(name, Relation(std::move(type)));
  names_.push_back(name);
  return Status::OK();
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return static_cast<const Relation*>(&it->second);
}

Result<Relation*> Database::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return &it->second;
}

Result<Relation*> Database::Resolve(const std::string& name,
                                   const Tuple& first) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    RelationType type;
    type.reserve(first.size());
    for (const Value& v : first) type.push_back(v.sort());
    IDLOG_RETURN_NOT_OK(CreateRelation(name, std::move(type)));
    it = relations_.find(name);
  }
  return &it->second;
}

Status Database::Insert(Relation* rel, Tuple t) {
  const size_t before = rel->size();
  IDLOG_RETURN_NOT_OK(rel->InsertChecked(std::move(t)));
  // A duplicate's constants joined the u-domain when it was stored.
  if (rel->size() > before) {
    for (const Value& v : rel->tuples().back()) {
      if (v.is_symbol()) u_domain_.Insert(v.symbol());
    }
  }
  return Status::OK();
}

Status Database::AddTuple(const std::string& name, Tuple t) {
  IDLOG_ASSIGN_OR_RETURN(Relation * rel, Resolve(name, t));
  return Insert(rel, std::move(t));
}

Result<bool> Database::EraseTuple(const std::string& name, const Tuple& t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return it->second.Erase(t);
}

Status Database::AddRow(const std::string& name,
                        const std::vector<std::string>& fields) {
  Tuple t;
  t.reserve(fields.size());
  for (const std::string& f : fields) {
    IDLOG_ASSIGN_OR_RETURN(Value v, ParseFieldValue(f, symbols_));
    t.push_back(v);
  }
  return AddTuple(name, std::move(t));
}

Result<Value> ParseFieldValue(std::string_view field, SymbolTable* symbols) {
  const bool numeric =
      !field.empty() && std::all_of(field.begin(), field.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (!numeric) return Value::Symbol(symbols->Intern(field));
  // Past the int64 range: more than 19 significant digits, or 19 that
  // compare above its maximum (lexicographic order at equal length).
  const size_t nz = field.find_first_not_of('0');
  const std::string_view digits =
      nz == std::string_view::npos ? std::string_view() : field.substr(nz);
  if (digits.size() > 19 ||
      (digits.size() == 19 && digits > "9223372036854775807")) {
    return Status::ParseError("integer field '" + std::string(field) +
                              "' overflows 64-bit range");
  }
  int64_t n = 0;  // All zeros leave `digits` empty and `n` zero.
  std::from_chars(digits.data(), digits.data() + digits.size(), n);
  return Value::Number(n);
}

}  // namespace idlog
