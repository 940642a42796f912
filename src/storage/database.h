#ifndef IDLOG_STORAGE_DATABASE_H_
#define IDLOG_STORAGE_DATABASE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"
#include "storage/relation.h"

namespace idlog {

/// An extensional database: named typed relations over a shared symbol
/// table, plus the explicit uninterpreted domain D of Section 2.1.
///
/// The u-domain is maintained as the set of all sort-u constants in any
/// stored tuple plus any constants registered explicitly (the paper's
/// database is a pair (u-domain=D; r1..rn) where D may exceed the active
/// domain). It is a bitset over the dense symbol ids, read in ascending
/// id order.
///
/// Evaluation builds column indexes inside the stored relations (see
/// Relation::IndexOn), through a const Database too, and they outlive
/// the run until DropIndexes; so two evaluations must not read one
/// Database at once.
class Database {
 public:
  explicit Database(SymbolTable* symbols) : symbols_(symbols) {}

  Database(const Database&) = default;
  Database& operator=(const Database&) = default;

  SymbolTable* symbols() const { return symbols_; }

  /// Creates an empty relation. Error if the name is already taken with
  /// a different type.
  Status CreateRelation(const std::string& name, RelationType type);

  bool HasRelation(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// Returns the relation or NotFound.
  Result<const Relation*> Get(const std::string& name) const;
  Result<Relation*> GetMutable(const std::string& name);

  /// Adds a tuple, creating the relation from the tuple's sorts if it
  /// does not exist yet. Once the tuple is stored, its sort-u constants
  /// join the u-domain.
  Status AddTuple(const std::string& name, Tuple t);

  /// The relation `name`, created from the sorts of `first` (a tuple
  /// about to be added) if it does not exist yet. A bulk loader
  /// resolves its relation once and then calls Insert per tuple.
  Result<Relation*> Resolve(const std::string& name, const Tuple& first);

  /// Inserts `t` into `rel`, one of this database's relations, checking
  /// arity and sorts against its type. Once the tuple is stored, its
  /// sort-u constants join the u-domain; a refused tuple adds nothing.
  Status Insert(Relation* rel, Tuple t);

  /// Convenience: interns `fields` that look like numbers as sort-i and
  /// the rest as sort-u symbols (see ParseFieldValue).
  Status AddRow(const std::string& name, const std::vector<std::string>& fields);

  /// Removes one tuple from an existing relation; true if it was
  /// present. The u-domain is deliberately NOT shrunk: the paper's
  /// database pairs relations with a domain D that may exceed the
  /// active domain, and retractions never retroactively narrow D.
  Result<bool> EraseTuple(const std::string& name, const Tuple& t);

  /// Registers an extra u-domain constant not present in any tuple.
  void AddDomainConstant(SymbolId id) { u_domain_.Insert(id); }

  /// The u-domain; iterates its symbol ids in ascending order.
  const SymbolSet& u_domain() const { return u_domain_; }

  /// Frees every index built in the stored relations. IdlogEngine
  /// calls it when it loads a program, which probes other columns.
  void DropIndexes() {
    for (auto& entry : relations_) entry.second.DropIndexes();
  }

  /// Relation names in creation order.
  const std::vector<std::string>& relation_names() const { return names_; }

 private:
  SymbolTable* symbols_;
  std::map<std::string, Relation> relations_;
  std::vector<std::string> names_;
  SymbolSet u_domain_;
};

/// Reads one text field as a value, the rule CSV loads and AddRow share:
/// a non-empty all-digit field is a sort-i number (ParseError past the
/// int64 range: more than 19 significant digits, or 19 above
/// 9223372036854775807), anything else an interned sort-u symbol.
Result<Value> ParseFieldValue(std::string_view field, SymbolTable* symbols);

}  // namespace idlog

#endif  // IDLOG_STORAGE_DATABASE_H_
