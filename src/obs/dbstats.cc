#include "obs/dbstats.h"

#include <algorithm>
#include <sstream>

#include "obs/json.h"

namespace idlog {

namespace {

/// ApproxTupleBytes over a whole relation — the governor's per-tuple
/// charge formula, applied uniformly so component sums reconcile.
uint64_t RelationApproxBytes(const Relation& rel) {
  return static_cast<uint64_t>(rel.size()) *
         ApproxTupleBytes(static_cast<size_t>(rel.arity()));
}

RelationStorageStats MakeRow(std::string name, std::string kind,
                             const Relation& rel) {
  RelationStorageStats row;
  row.name = std::move(name);
  row.kind = std::move(kind);
  row.arity = rel.arity();
  row.tuples = rel.size();
  row.version = rel.version();
  row.clear_generation = rel.clear_generation();
  row.approx_bytes = RelationApproxBytes(rel);
  for (const auto& [cols, index] : rel.indexes()) {
    (void)cols;
    row.indexes += 1;
    row.index_keys += index.num_keys();
    row.index_entries += index.num_entries();
    row.index_bytes += index.approx_bytes();
  }
  return row;
}

std::string GroupLabel(const std::vector<int>& group) {
  std::string s = "[";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(group[i]);
  }
  return s + "]";
}

void AppendGroupJson(const std::vector<int>& group, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(group[i]);
  }
  out->push_back(']');
}

}  // namespace

StorageStats CollectStorageStats(const StorageStatsView& view) {
  StorageStats out;

  // EDB relations, in creation order (deterministic: creation happens
  // during program/CSV load, before any parallel evaluation).
  if (view.database != nullptr) {
    for (const std::string& name : view.database->relation_names()) {
      auto rel = view.database->Get(name);
      if (!rel.ok()) continue;
      RelationStorageStats row = MakeRow(name, "edb", *rel.value());
      out.edb_tuples += row.tuples;
      out.edb_bytes += row.approx_bytes;
      out.edb_index_bytes += row.index_bytes;
      out.relations.push_back(std::move(row));
    }
  }

  // Derived (IDB) relations in map (name) order.
  if (view.derived != nullptr) {
    for (const auto& [name, rel] : *view.derived) {
      RelationStorageStats row = MakeRow(name, "derived", rel);
      out.derived_tuples += row.tuples;
      out.derived_bytes += row.approx_bytes;
      out.relations.push_back(std::move(row));
    }
  }

  // The synthesized u-domain relation, when the program materialized it.
  if (view.udom != nullptr && !view.udom->empty()) {
    RelationStorageStats row = MakeRow("udom", "udom", *view.udom);
    out.udom_tuples += row.tuples;
    out.udom_bytes += row.approx_bytes;
    out.relations.push_back(std::move(row));
  }

  // Materialized ID-relations in (predicate, group) map order.
  if (view.id_relations != nullptr) {
    for (const auto& [key, rel] : *view.id_relations) {
      RelationStorageStats row = MakeRow(key.first, "id", rel);
      row.group = key.second;
      out.id_tuples += row.tuples;
      out.id_bytes += row.approx_bytes;
      out.id_relations.push_back(std::move(row));
    }
  }

  if (view.symbols != nullptr) {
    out.symbol_count = view.symbols->size();
    out.symbol_bytes = view.symbols->approx_bytes();
  }

  if (view.assigner != nullptr) {
    out.assigner_kind = view.assigner->kind();
    out.assigner_state_bytes = view.assigner->SaveState().size();
  }

  if (view.provenance != nullptr) {
    out.provenance_nodes = view.provenance->size();
    out.provenance_premises = view.provenance->num_premises();
    out.provenance_bytes = view.provenance->approx_bytes();
  }

  // Governor reconciliation: the run charges exactly the derived
  // commits, the ID-materializations and the provenance arena.
  out.accounted_bytes = out.derived_bytes + out.id_bytes +
                        out.provenance_bytes;
  if (view.governor != nullptr) {
    out.has_governor = true;
    out.governor_memory_bytes = view.governor->memory_charged();
  }

  for (const RelationStorageStats& row : out.relations) {
    out.total_indexes += row.indexes;
    out.total_index_keys += row.index_keys;
    out.total_index_entries += row.index_entries;
    out.total_index_bytes += row.index_bytes;
  }
  for (const RelationStorageStats& row : out.id_relations) {
    out.total_indexes += row.indexes;
    out.total_index_keys += row.index_keys;
    out.total_index_entries += row.index_entries;
    out.total_index_bytes += row.index_bytes;
  }

  return out;
}

std::string StorageStats::ToTable() const {
  std::ostringstream os;
  // Column widths: name column sized to contents, numbers right-aligned.
  size_t name_w = 8;
  for (const auto& r : relations) name_w = std::max(name_w, r.name.size());
  for (const auto& r : id_relations) {
    name_w = std::max(name_w, r.name.size() + GroupLabel(r.group).size());
  }
  name_w = std::min<size_t>(name_w, 40) + 2;

  auto pad = [&os](const std::string& s, size_t w) {
    os << s;
    for (size_t i = s.size(); i < w; ++i) os << ' ';
  };
  auto num = [&os](uint64_t v, size_t w) {
    std::string s = std::to_string(v);
    for (size_t i = s.size(); i < w; ++i) os << ' ';
    os << s;
  };

  os << "storage statistics\n";
  pad("relation", name_w);
  os << "kind      arity      tuples     version  clears       ~bytes"
        "   idx        keys     entries   ~idx-bytes\n";
  auto emit = [&](const RelationStorageStats& r, const std::string& name) {
    pad(name, name_w);
    pad(r.kind, 10);
    num(static_cast<uint64_t>(r.arity), 5);
    num(r.tuples, 12);
    num(r.version, 12);
    num(r.clear_generation, 8);
    num(r.approx_bytes, 13);
    num(r.indexes, 6);
    num(r.index_keys, 12);
    num(r.index_entries, 12);
    num(r.index_bytes, 13);
    os << "\n";
  };
  for (const auto& r : relations) emit(r, r.name);
  for (const auto& r : id_relations) emit(r, r.name + GroupLabel(r.group));

  os << "\ncomponents (~bytes)\n";
  os << "  edb tuples        " << edb_bytes << "  (" << edb_tuples
     << " tuples)\n";
  os << "  derived tuples    " << derived_bytes << "  (" << derived_tuples
     << " tuples)\n";
  if (udom_tuples > 0) {
    os << "  udom tuples       " << udom_bytes << "  (" << udom_tuples
       << " tuples)\n";
  }
  os << "  id-relations      " << id_bytes << "  (" << id_tuples
     << " tuples)\n";
  os << "  intern pool       " << symbol_bytes << "  (" << symbol_count
     << " symbols)\n";
  os << "  provenance        " << provenance_bytes << "  ("
     << provenance_nodes << " nodes, " << provenance_premises
     << " premises)\n";
  if (!assigner_kind.empty()) {
    os << "  tid-assigner      " << assigner_state_bytes << "  ("
       << assigner_kind << " state)\n";
  }
  os << "  indexes (phys)    " << total_index_bytes << "  ("
     << total_indexes << " indexes, " << total_index_entries
     << " entries)\n";
  os << "  total (logical)   " << total_approx_bytes() << "\n";
  if (has_governor) {
    os << "governor: memory_charged=" << governor_memory_bytes
       << "  accounted(derived+id+provenance)=" << accounted_bytes
       << "  uncharged edb indexes=" << edb_index_bytes << "\n";
  }
  return os.str();
}

std::string StorageStats::ToJson() const {
  // Logical fields only: every number here is part of the --jobs
  // byte-identity contract. Index data is deliberately absent
  // (physical; see the text table).
  std::string out;
  out += "{\"schema\":\"idlog-dbstats-v1\",\"relations\":[";
  bool first = true;
  for (const auto& r : relations) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonQuote(r.name);
    out += ",\"kind\":" + JsonQuote(r.kind);
    out += ",\"arity\":" + std::to_string(r.arity);
    out += ",\"tuples\":" + std::to_string(r.tuples);
    out += ",\"version\":" + std::to_string(r.version);
    out += ",\"clear_generation\":" + std::to_string(r.clear_generation);
    out += ",\"approx_bytes\":" + std::to_string(r.approx_bytes);
    out += "}";
  }
  out += "],\"id_relations\":[";
  first = true;
  for (const auto& r : id_relations) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonQuote(r.name);
    out += ",\"group\":";
    AppendGroupJson(r.group, &out);
    out += ",\"arity\":" + std::to_string(r.arity);
    out += ",\"tuples\":" + std::to_string(r.tuples);
    out += ",\"approx_bytes\":" + std::to_string(r.approx_bytes);
    out += "}";
  }
  out += "],\"symbols\":{\"count\":" + std::to_string(symbol_count);
  out += ",\"approx_bytes\":" + std::to_string(symbol_bytes);
  out += "},\"tid_assigner\":{\"kind\":" +
         JsonQuote(assigner_kind.empty() ? "none" : assigner_kind);
  out += ",\"state_bytes\":" + std::to_string(assigner_state_bytes);
  out += "},\"provenance\":{\"nodes\":" + std::to_string(provenance_nodes);
  out += ",\"premises\":" + std::to_string(provenance_premises);
  out += ",\"approx_bytes\":" + std::to_string(provenance_bytes);
  out += "},\"totals\":{\"relations\":" + std::to_string(relations.size());
  out += ",\"id_relations\":" + std::to_string(id_relations.size());
  out += ",\"tuples\":" + std::to_string(total_tuples());
  out += ",\"edb_tuples\":" + std::to_string(edb_tuples);
  out += ",\"edb_bytes\":" + std::to_string(edb_bytes);
  out += ",\"derived_tuples\":" + std::to_string(derived_tuples);
  out += ",\"derived_bytes\":" + std::to_string(derived_bytes);
  out += ",\"udom_tuples\":" + std::to_string(udom_tuples);
  out += ",\"udom_bytes\":" + std::to_string(udom_bytes);
  out += ",\"id_tuples\":" + std::to_string(id_tuples);
  out += ",\"id_bytes\":" + std::to_string(id_bytes);
  out += ",\"approx_bytes\":" + std::to_string(total_approx_bytes());
  out += "},\"governor\":{\"present\":";
  out += has_governor ? "true" : "false";
  out += ",\"memory_charged\":" + std::to_string(governor_memory_bytes);
  out += ",\"accounted_bytes\":" + std::to_string(accounted_bytes);
  out += "}}\n";
  return out;
}

}  // namespace idlog
