#ifndef IDLOG_STORAGE_DATABASE_H_
#define IDLOG_STORAGE_DATABASE_H_

#include <map>
#include <set>
#include <string>
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
/// domain).
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
  /// does not exist yet. Sort-u constants are added to the u-domain.
  Status AddTuple(const std::string& name, Tuple t);

  /// Convenience: interns `fields` that look like numbers as sort-i and
  /// the rest as sort-u symbols.
  Status AddRow(const std::string& name, const std::vector<std::string>& fields);

  /// Removes one tuple from an existing relation; true if it was
  /// present. The u-domain is deliberately NOT shrunk: the paper's
  /// database pairs relations with a domain D that may exceed the
  /// active domain, and retractions never retroactively narrow D.
  Result<bool> EraseTuple(const std::string& name, const Tuple& t);

  /// Registers an extra u-domain constant not present in any tuple.
  void AddDomainConstant(SymbolId id) { u_domain_.insert(id); }

  /// The u-domain as a sorted set of symbol ids.
  const std::set<SymbolId>& u_domain() const { return u_domain_; }

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
  std::set<SymbolId> u_domain_;
};

}  // namespace idlog

#endif  // IDLOG_STORAGE_DATABASE_H_
