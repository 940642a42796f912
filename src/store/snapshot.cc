#include "store/snapshot.h"

#include <algorithm>
#include <cstring>

#include "store/atomic_file.h"
#include "common/failpoint.h"
#include "obs/flight_recorder.h"

namespace idlog {

namespace {

// Section tags, in required file order.
constexpr uint32_t kSectionEnd = 0;
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionSymbols = 2;
constexpr uint32_t kSectionDatabase = 3;
constexpr uint32_t kSectionDerived = 4;
constexpr uint32_t kSectionIdRels = 5;
constexpr uint32_t kSectionDelta = 6;
constexpr uint32_t kSectionAnalysis = 7;
constexpr uint32_t kSectionProfile = 8;
constexpr uint32_t kSectionDeriv = 9;
constexpr uint32_t kSectionWalPos = 10;

/// Encoded size of one value: a sort byte and a u64 payload.
constexpr size_t kValueBytes = 1 + 8;

const char* SectionName(uint32_t tag) {
  switch (tag) {
    case kSectionEnd: return "END";
    case kSectionMeta: return "META";
    case kSectionSymbols: return "SYMBOLS";
    case kSectionDatabase: return "DATABASE";
    case kSectionDerived: return "DERIVED";
    case kSectionIdRels: return "IDRELS";
    case kSectionDelta: return "DELTA";
    case kSectionAnalysis: return "ANALYSIS";
    case kSectionProfile: return "PROFILE";
    case kSectionDeriv: return "DERIV";
    case kSectionWalPos: return "WALPOS";
    default: return "?";
  }
}

// ---- encoding -------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutTuple(std::string* out, const Tuple& t) {
  for (const Value& v : t) {
    PutU8(out, static_cast<uint8_t>(v.sort()));
    PutU64(out, v.is_symbol() ? static_cast<uint64_t>(v.symbol())
                              : static_cast<uint64_t>(v.number()));
  }
}

/// Writes `rel`'s type, its rows from `first` on and the two counters.
void PutRows(std::string* out, const Relation& rel, size_t first,
             uint64_t version, uint64_t clear_generation) {
  const RelationType& type = rel.type();
  PutU32(out, static_cast<uint32_t>(type.size()));
  for (Sort s : type) PutU8(out, static_cast<uint8_t>(s));
  // Insertion order, deliberately: canonical tid assignment and index
  // bucket order both follow it, so a resumed run must reproduce it.
  PutU64(out, rel.size() - first);
  for (size_t r = first; r < rel.size(); ++r) PutTuple(out, rel.tuples()[r]);
  PutU64(out, version);
  PutU64(out, clear_generation);
}

void PutRelation(std::string* out, const Relation& rel) {
  // Logical change counters: db-stats reports them, so a recovered run
  // must see the same values an uninterrupted one would.
  PutRows(out, rel, 0, rel.version(), rel.clear_generation());
}

void PutStats(std::string* out, const EvalStats& s) {
  PutU64(out, s.tuples_considered);
  PutU64(out, s.facts_derived);
  PutU64(out, s.facts_inserted);
  PutU64(out, s.rule_firings);
  PutU64(out, s.iterations);
  PutU64(out, s.strata_evaluated);
  PutU64(out, s.id_groups_assigned);
  PutU64(out, s.id_tuples_materialized);
  PutU64(out, s.index_probes);
  PutU64(out, s.index_builds);
  PutU64(out, s.index_cache_misses);
  PutU64(out, s.eval_wall_ns);
  PutU64(out, s.provenance_nodes);
  PutU64(out, s.provenance_premises);
  PutU64(out, s.provenance_bytes);
}

void PutSection(std::string* out, uint32_t tag, const std::string& payload) {
  std::string header;
  PutU32(&header, tag);
  PutU64(&header, payload.size());
  uint32_t crc = Crc32(header);
  crc = Crc32(payload, crc);
  out->append(header);
  out->append(payload);
  PutU32(out, crc);
  // Black-box breadcrumb per serialized section: a crash between here
  // and the atomic rename shows exactly which sections were composed.
  FlightRecorder::Record(FlightEventKind::kCheckpointSection,
                         SectionName(tag),
                         static_cast<int64_t>(payload.size()),
                         static_cast<int64_t>(crc));
}

// ---- decoding -------------------------------------------------------

/// Bounds-checked little-endian reader over one section payload (or the
/// file header). Every primitive read returns a Status so a truncated
/// or lying length field surfaces as a clean error, never a wild read.
struct Reader {
  std::string_view data;
  size_t pos = 0;
  std::string where;  ///< Section name, for error messages.

  Status Need(size_t n) {
    if (data.size() - pos < n) {
      return Status::InvalidArgument("snapshot corrupt: section " + where +
                                     " ends mid-field");
    }
    return Status::OK();
  }
  bool AtEnd() const { return pos == data.size(); }

  /// Rejects `count` elements of at least `min_bytes` each when the
  /// bytes left in the section cannot hold them. Checked before every
  /// resize or reserve, so a lying count is an error rather than an
  /// allocation of whatever the file claims.
  Status Fits(uint64_t count, size_t min_bytes) {
    if (count > (data.size() - pos) / min_bytes) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + where + " claims " +
          std::to_string(count) + " entries in " +
          std::to_string(data.size() - pos) + " remaining bytes");
    }
    return Status::OK();
  }

  Status U8(uint8_t* v) {
    IDLOG_RETURN_NOT_OK(Need(1));
    *v = static_cast<uint8_t>(data[pos++]);
    return Status::OK();
  }
  Status U32(uint32_t* v) {
    IDLOG_RETURN_NOT_OK(Need(4));
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    *v = r;
    return Status::OK();
  }
  Status U64(uint64_t* v) {
    IDLOG_RETURN_NOT_OK(Need(8));
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    *v = r;
    return Status::OK();
  }
  Status I32(int32_t* v) {
    uint32_t u = 0;
    IDLOG_RETURN_NOT_OK(U32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }
  Status Str(std::string* s) {
    uint32_t len = 0;
    IDLOG_RETURN_NOT_OK(U32(&len));
    IDLOG_RETURN_NOT_OK(Need(len));
    s->assign(data.substr(pos, len));
    pos += len;
    return Status::OK();
  }
};

Status ReadStats(Reader* r, EvalStats* s) {
  IDLOG_RETURN_NOT_OK(r->U64(&s->tuples_considered));
  IDLOG_RETURN_NOT_OK(r->U64(&s->facts_derived));
  IDLOG_RETURN_NOT_OK(r->U64(&s->facts_inserted));
  IDLOG_RETURN_NOT_OK(r->U64(&s->rule_firings));
  IDLOG_RETURN_NOT_OK(r->U64(&s->iterations));
  IDLOG_RETURN_NOT_OK(r->U64(&s->strata_evaluated));
  IDLOG_RETURN_NOT_OK(r->U64(&s->id_groups_assigned));
  IDLOG_RETURN_NOT_OK(r->U64(&s->id_tuples_materialized));
  IDLOG_RETURN_NOT_OK(r->U64(&s->index_probes));
  IDLOG_RETURN_NOT_OK(r->U64(&s->index_builds));
  IDLOG_RETURN_NOT_OK(r->U64(&s->index_cache_misses));
  IDLOG_RETURN_NOT_OK(r->U64(&s->eval_wall_ns));
  IDLOG_RETURN_NOT_OK(r->U64(&s->provenance_nodes));
  IDLOG_RETURN_NOT_OK(r->U64(&s->provenance_premises));
  IDLOG_RETURN_NOT_OK(r->U64(&s->provenance_bytes));
  return Status::OK();
}

Status ReadRelation(Reader* r, size_t num_symbols, bool with_counters,
                    Relation* out) {
  uint32_t arity = 0;
  IDLOG_RETURN_NOT_OK(r->U32(&arity));
  IDLOG_RETURN_NOT_OK(r->Fits(arity, 1));
  RelationType type;
  type.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    uint8_t sort = 0;
    IDLOG_RETURN_NOT_OK(r->U8(&sort));
    if (sort > 1) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + r->where + " has invalid sort " +
          std::to_string(sort));
    }
    type.push_back(static_cast<Sort>(sort));
  }
  uint64_t nrows = 0;
  IDLOG_RETURN_NOT_OK(r->U64(&nrows));
  if (arity > 0) IDLOG_RETURN_NOT_OK(r->Fits(nrows, arity * kValueBytes));
  *out = Relation(type);
  for (uint64_t row = 0; row < nrows; ++row) {
    Tuple t;
    t.reserve(arity);
    for (uint32_t i = 0; i < arity; ++i) {
      uint8_t sort = 0;
      uint64_t payload = 0;
      IDLOG_RETURN_NOT_OK(r->U8(&sort));
      IDLOG_RETURN_NOT_OK(r->U64(&payload));
      if (sort != static_cast<uint8_t>(type[i])) {
        return Status::InvalidArgument("snapshot corrupt: section " +
                                       r->where +
                                       " tuple sort disagrees with type");
      }
      if (type[i] == Sort::kU) {
        if (payload >= num_symbols) {
          return Status::InvalidArgument(
              "snapshot corrupt: section " + r->where + " references " +
              "symbol id " + std::to_string(payload) + " beyond the " +
              std::to_string(num_symbols) + " interned symbols");
        }
        t.push_back(Value::Symbol(static_cast<SymbolId>(payload)));
      } else {
        t.push_back(Value::Number(static_cast<int64_t>(payload)));
      }
    }
    if (!out->Insert(std::move(t))) {
      return Status::InvalidArgument("snapshot corrupt: section " +
                                     r->where + " contains duplicate tuples");
    }
  }
  if (with_counters) {
    uint64_t version = 0;
    uint64_t clear_generation = 0;
    IDLOG_RETURN_NOT_OK(r->U64(&version));
    IDLOG_RETURN_NOT_OK(r->U64(&clear_generation));
    if (version < nrows) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + r->where + " claims version " +
          std::to_string(version) + " below its own row count " +
          std::to_string(nrows));
    }
    out->RestoreCounters(version, clear_generation);
  }
  // Without stored counters (v1) the relation keeps what the inserts
  // above produced: version == row count, clear generation 0 — exactly
  // what a v1-era decode reported.
  return Status::OK();
}

/// Reads `count` values of the DERIV section's self-describing tuple
/// encoding (sort byte + payload each, same as relation rows but with
/// no relation type to check against).
Status ReadValues(Reader* r, size_t num_symbols, uint32_t count,
                  Tuple* out) {
  IDLOG_RETURN_NOT_OK(r->Fits(count, kValueBytes));
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t sort = 0;
    uint64_t payload = 0;
    IDLOG_RETURN_NOT_OK(r->U8(&sort));
    IDLOG_RETURN_NOT_OK(r->U64(&payload));
    if (sort > 1) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + r->where + " has invalid sort " +
          std::to_string(sort));
    }
    if (static_cast<Sort>(sort) == Sort::kU) {
      if (payload >= num_symbols) {
        return Status::InvalidArgument(
            "snapshot corrupt: section " + r->where + " references " +
            "symbol id " + std::to_string(payload) + " beyond the " +
            std::to_string(num_symbols) + " interned symbols");
      }
      out->push_back(Value::Symbol(static_cast<SymbolId>(payload)));
    } else {
      out->push_back(Value::Number(static_cast<int64_t>(payload)));
    }
  }
  return Status::OK();
}

Status ExpectConsumed(const Reader& r) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot corrupt: section " + r.where +
                                   " has " +
                                   std::to_string(r.data.size() - r.pos) +
                                   " trailing bytes");
  }
  return Status::OK();
}

// ---- semantic invariants -------------------------------------------

/// The mark of a DELTA entry. A round's new facts are the last rows of
/// its derived relation, so the entry must equal them, in order, or a
/// resume would differentiate on facts the round did not make new.
Result<size_t> DeltaMark(const SnapshotData& snap, const std::string& pred,
                         const Relation& delta) {
  auto it = snap.eval.derived.find(pred);
  if (it == snap.eval.derived.end()) {
    return Status::InvalidArgument(
        "snapshot fails invariant: delta relation '" + pred +
        "' has no derived relation");
  }
  const std::vector<Tuple>& rows = it->second.tuples();
  if (delta.size() > rows.size() ||
      !std::equal(delta.tuples().begin(), delta.tuples().end(),
                  rows.end() - static_cast<std::ptrdiff_t>(delta.size()))) {
    return Status::InvalidArgument(
        "snapshot fails invariant: delta of '" + pred +
        "' is not the tail of its derived relation");
  }
  return rows.size() - delta.size();
}

Status CheckInvariants(const SnapshotData& snap) {
  // ID-relation tuples project (tid removed) onto their base relation.
  // The materialization may be a prefix (tid-bound pushdown), so subset
  // is the right check, not equality.
  for (const auto& [key, id_rel] : snap.eval.id_relations) {
    const std::string& pred = key.first;
    const Relation* base = nullptr;
    auto derived_it = snap.eval.derived.find(pred);
    if (derived_it != snap.eval.derived.end()) {
      base = &derived_it->second;
    } else {
      for (const auto& named : snap.edb) {
        if (named.name == pred) {
          base = &named.relation;
          break;
        }
      }
    }
    if (base == nullptr) continue;  // Empty-base ID-relation.
    if (id_rel.arity() != base->arity() + 1) {
      return Status::InvalidArgument(
          "snapshot fails invariant: ID-relation of '" + pred +
          "' has arity " + std::to_string(id_rel.arity()) +
          ", base has " + std::to_string(base->arity()));
    }
    for (const Tuple& t : id_rel.tuples()) {
      Tuple projected(t.begin(), t.end() - 1);
      if (!base->Contains(projected)) {
        return Status::InvalidArgument(
            "snapshot fails invariant: ID-relation tuple of '" + pred +
            "' projects to a tuple outside its base relation");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string SerializeSnapshot(const SnapshotView& view) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&out, kSnapshotVersion);

  {
    std::string meta;
    PutU64(&meta, view.config.program_hash);
    PutU8(&meta, view.config.seminaive ? 1 : 0);
    PutU8(&meta, view.config.tid_bound_pushdown ? 1 : 0);
    PutU8(&meta, view.config.use_indexes ? 1 : 0);
    PutU8(&meta, view.progress.completed ? 1 : 0);
    PutI32(&meta, view.progress.stratum);
    PutU64(&meta, view.progress.round);
    PutU8(&meta, view.progress.in_stratum ? 1 : 0);
    PutStats(&meta, view.stats != nullptr ? *view.stats : EvalStats());
    PutStr(&meta, view.config.assigner_kind);
    PutStr(&meta, view.config.assigner_state);
    PutSection(&out, kSectionMeta, meta);
  }

  {
    std::string syms;
    PutU64(&syms, view.symbols->size());
    for (SymbolId id = 0; id < view.symbols->size(); ++id) {
      PutStr(&syms, view.symbols->NameOf(id));
    }
    PutSection(&out, kSectionSymbols, syms);
  }

  {
    std::string db;
    const std::vector<std::string>& names = view.database->relation_names();
    PutU32(&db, static_cast<uint32_t>(names.size()));
    for (const std::string& name : names) {
      PutStr(&db, name);
      PutRelation(&db, *view.database->Get(name).ValueOrDie());
    }
    PutU64(&db, view.database->u_domain().size());
    for (SymbolId id : view.database->u_domain()) PutU32(&db, id);
    PutSection(&out, kSectionDatabase, db);
  }

  {
    std::string der;
    PutU32(&der, static_cast<uint32_t>(view.derived->size()));
    for (const auto& [name, rel] : *view.derived) {
      PutStr(&der, name);
      PutRelation(&der, rel);
    }
    PutSection(&out, kSectionDerived, der);
  }

  {
    std::string ids;
    PutU32(&ids, static_cast<uint32_t>(view.id_relations->size()));
    for (const auto& [key, rel] : *view.id_relations) {
      PutStr(&ids, key.first);
      PutU32(&ids, static_cast<uint32_t>(key.second.size()));
      for (int col : key.second) PutI32(&ids, col);
      PutRelation(&ids, rel);
    }
    PutSection(&out, kSectionIdRels, ids);
  }

  {
    std::string delta;
    size_t n = view.delta != nullptr ? view.delta->size() : 0;
    PutU32(&delta, static_cast<uint32_t>(n));
    if (view.delta != nullptr) {
      // Each marked tail as a relation of just those rows (version =
      // row count, clear generation 0), the bytes the format defines.
      for (const auto& [name, mark] : *view.delta) {
        const Relation& rel = view.derived->at(name);
        PutStr(&delta, name);
        PutRows(&delta, rel, mark, rel.size() - mark, 0);
      }
    }
    PutSection(&out, kSectionDelta, delta);
  }

  {
    std::string ana;
    PutU8(&ana, view.analysis != nullptr ? 1 : 0);
    if (view.analysis != nullptr) {
      PutU32(&ana, static_cast<uint32_t>(view.analysis->rules.size()));
      for (const RuleStepStats& rule : view.analysis->rules) {
        PutU32(&ana, static_cast<uint32_t>(rule.steps.size()));
        for (const StepCounters& c : rule.steps) {
          PutU64(&ana, c.rows_in);
          PutU64(&ana, c.rows_scanned);
          PutU64(&ana, c.index_probes);
          PutU64(&ana, c.index_hits);
          PutU64(&ana, c.index_misses);
          PutU64(&ana, c.rows_emitted);
        }
      }
      PutU32(&ana, static_cast<uint32_t>(view.analysis->strata.size()));
      for (const StratumRoundStats& s : view.analysis->strata) {
        PutI32(&ana, s.stratum);
        PutU64(&ana, s.new_facts_per_round.size());
        for (uint64_t n : s.new_facts_per_round) PutU64(&ana, n);
      }
    }
    PutSection(&out, kSectionAnalysis, ana);
  }

  // The profile is rendered from ANALYSIS, so nothing is stored here.
  PutSection(&out, kSectionProfile, std::string(1, '\0'));

  {
    // Derivations in recording order: the predicate interner table,
    // then one node per recorded fact with its premises inline. Decode
    // replays Record() in the same order, so a round-trip reproduces
    // the store (and thus proof trees) byte-for-byte.
    std::string der;
    PutU8(&der, view.provenance != nullptr ? 1 : 0);
    if (view.provenance != nullptr) {
      const ProvenanceStore& store = *view.provenance;
      PutU64(&der, store.num_interned_predicates());
      for (size_t i = 0; i < store.num_interned_predicates(); ++i) {
        PutStr(&der, store.PredicateName(
                         static_cast<ProvenanceStore::PredId>(i)));
      }
      PutU64(&der, store.size());
      for (size_t i = 0; i < store.size(); ++i) {
        ProvenanceStore::NodeView n = store.node(i);
        PutU32(&der, n.pred);
        PutU32(&der, static_cast<uint32_t>(n.tuple.size()));
        PutTuple(&der, n.tuple);
        PutI32(&der, n.clause_index);
        PutU32(&der, n.premise_count);
        for (uint32_t pi = 0; pi < n.premise_count; ++pi) {
          const Premise& p = n.premises[pi];
          PutU8(&der, static_cast<uint8_t>(p.kind));
          PutStr(&der, p.predicate);
          PutU32(&der, static_cast<uint32_t>(p.group.size()));
          for (int col : p.group) PutI32(&der, col);
          PutU32(&der, static_cast<uint32_t>(p.tuple.size()));
          PutTuple(&der, p.tuple);
          PutStr(&der, p.builtin_text);
        }
      }
    }
    PutSection(&out, kSectionDeriv, der);
  }

  {
    std::string wal;
    PutU8(&wal, view.wal_pos.present ? 1 : 0);
    PutU64(&wal, view.wal_pos.epoch);
    PutU64(&wal, view.wal_pos.offset);
    PutU64(&wal, view.wal_pos.commits);
    PutSection(&out, kSectionWalPos, wal);
  }

  PutSection(&out, kSectionEnd, std::string());
  return out;
}

Result<SnapshotData> ParseSnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::InvalidArgument(
        "not an idlog snapshot (bad or missing magic)");
  }
  size_t pos = sizeof(kSnapshotMagic);
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
               << (8 * i);
  }
  pos += 4;
  if (version != kSnapshotVersion && version != 1) {
    return Status::Unsupported(
        "snapshot version " + std::to_string(version) +
        "; this build reads idlog-snap-v2 (and the older v1) only");
  }
  // v1 files predate the per-relation counters and the WALPOS section;
  // both default (counters to what re-insertion produces, WAL position
  // to absent), so old checkpoints stay resumable.
  const bool with_counters = version >= 2;
  const uint32_t last_section =
      version >= 2 ? kSectionWalPos : kSectionDeriv;

  SnapshotData snap;
  uint32_t expected_tag = kSectionMeta;
  bool saw_end = false;
  while (!saw_end) {
    if (bytes.size() - pos < 12) {
      return Status::InvalidArgument(
          "snapshot truncated: section header cut short at byte " +
          std::to_string(pos));
    }
    std::string_view header = bytes.substr(pos, 12);
    uint32_t tag = 0;
    uint64_t len = 0;
    for (int i = 0; i < 4; ++i) {
      tag |= static_cast<uint32_t>(static_cast<uint8_t>(header[i]))
             << (8 * i);
    }
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<uint64_t>(static_cast<uint8_t>(header[4 + i]))
             << (8 * i);
    }
    if (bytes.size() - pos - 12 < len ||
        bytes.size() - pos - 12 - len < 4) {
      return Status::InvalidArgument(
          "snapshot truncated: section " + std::string(SectionName(tag)) +
          " claims " + std::to_string(len) + " bytes past end of file");
    }
    std::string_view payload = bytes.substr(pos + 12, len);
    uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |= static_cast<uint32_t>(static_cast<uint8_t>(
                        bytes[pos + 12 + len + i]))
                    << (8 * i);
    }
    uint32_t crc = Crc32(header);
    crc = Crc32(payload, crc);
    if (crc != stored_crc) {
      return Status::InvalidArgument(
          "snapshot corrupt: CRC mismatch in section " +
          std::string(SectionName(tag)));
    }
    pos += 12 + len + 4;

    if (tag == kSectionEnd) {
      if (expected_tag <= last_section) {
        return Status::InvalidArgument(
            "snapshot corrupt: END before section " +
            std::string(SectionName(expected_tag)));
      }
      saw_end = true;
      break;
    }
    if (tag != expected_tag) {
      return Status::InvalidArgument(
          "snapshot corrupt: expected section " +
          std::string(SectionName(expected_tag)) + ", found " +
          std::string(SectionName(tag)));
    }
    ++expected_tag;

    Reader r{payload, 0, SectionName(tag)};
    switch (tag) {
      case kSectionMeta: {
        uint8_t flag = 0;
        IDLOG_RETURN_NOT_OK(r.U64(&snap.config.program_hash));
        IDLOG_RETURN_NOT_OK(r.U8(&flag));
        snap.config.seminaive = flag != 0;
        IDLOG_RETURN_NOT_OK(r.U8(&flag));
        snap.config.tid_bound_pushdown = flag != 0;
        IDLOG_RETURN_NOT_OK(r.U8(&flag));
        snap.config.use_indexes = flag != 0;
        IDLOG_RETURN_NOT_OK(r.U8(&flag));
        snap.eval.frame.completed = flag != 0;
        int32_t stratum = 0;
        IDLOG_RETURN_NOT_OK(r.I32(&stratum));
        snap.eval.frame.stratum = stratum;
        IDLOG_RETURN_NOT_OK(r.U64(&snap.eval.frame.round));
        IDLOG_RETURN_NOT_OK(r.U8(&flag));
        snap.eval.frame.in_stratum = flag != 0;
        IDLOG_RETURN_NOT_OK(ReadStats(&r, &snap.eval.stats));
        IDLOG_RETURN_NOT_OK(r.Str(&snap.config.assigner_kind));
        IDLOG_RETURN_NOT_OK(r.Str(&snap.config.assigner_state));
        break;
      }
      case kSectionSymbols: {
        uint64_t count = 0;
        IDLOG_RETURN_NOT_OK(r.U64(&count));
        for (uint64_t i = 0; i < count; ++i) {
          std::string name;
          IDLOG_RETURN_NOT_OK(r.Str(&name));
          SymbolId id = snap.symbols.Intern(name);
          if (id != i) {
            return Status::InvalidArgument(
                "snapshot corrupt: SYMBOLS table repeats '" + name + "'");
          }
        }
        break;
      }
      case kSectionDatabase: {
        uint32_t nrel = 0;
        IDLOG_RETURN_NOT_OK(r.U32(&nrel));
        for (uint32_t i = 0; i < nrel; ++i) {
          SnapshotData::NamedRelation named;
          IDLOG_RETURN_NOT_OK(r.Str(&named.name));
          IDLOG_RETURN_NOT_OK(
              ReadRelation(&r, snap.symbols.size(), with_counters,
                           &named.relation));
          snap.edb.push_back(std::move(named));
        }
        uint64_t ndom = 0;
        IDLOG_RETURN_NOT_OK(r.U64(&ndom));
        for (uint64_t i = 0; i < ndom; ++i) {
          uint32_t id = 0;
          IDLOG_RETURN_NOT_OK(r.U32(&id));
          if (id >= snap.symbols.size()) {
            return Status::InvalidArgument(
                "snapshot corrupt: u-domain id " + std::to_string(id) +
                " beyond the symbol table");
          }
          snap.u_domain.push_back(id);
        }
        break;
      }
      case kSectionDerived:
      case kSectionDelta: {
        uint32_t nrel = 0;
        IDLOG_RETURN_NOT_OK(r.U32(&nrel));
        for (uint32_t i = 0; i < nrel; ++i) {
          std::string name;
          IDLOG_RETURN_NOT_OK(r.Str(&name));
          Relation rel;
          IDLOG_RETURN_NOT_OK(
              ReadRelation(&r, snap.symbols.size(), with_counters, &rel));
          bool added = false;
          if (tag == kSectionDerived) {
            added = snap.eval.derived.emplace(name, std::move(rel)).second;
          } else {
            IDLOG_ASSIGN_OR_RETURN(size_t mark, DeltaMark(snap, name, rel));
            added = snap.eval.delta.emplace(name, mark).second;
          }
          if (!added) {
            return Status::InvalidArgument(
                "snapshot corrupt: relation '" + name + "' appears twice");
          }
        }
        break;
      }
      case kSectionIdRels: {
        uint32_t n = 0;
        IDLOG_RETURN_NOT_OK(r.U32(&n));
        for (uint32_t i = 0; i < n; ++i) {
          std::string pred;
          IDLOG_RETURN_NOT_OK(r.Str(&pred));
          uint32_t ngroup = 0;
          IDLOG_RETURN_NOT_OK(r.U32(&ngroup));
          std::vector<int> group;
          for (uint32_t g = 0; g < ngroup; ++g) {
            int32_t col = 0;
            IDLOG_RETURN_NOT_OK(r.I32(&col));
            group.push_back(col);
          }
          Relation rel;
          IDLOG_RETURN_NOT_OK(
              ReadRelation(&r, snap.symbols.size(), with_counters, &rel));
          snap.eval.id_relations.emplace(
              std::make_pair(std::move(pred), std::move(group)),
              std::move(rel));
        }
        break;
      }
      case kSectionAnalysis: {
        uint8_t present = 0;
        IDLOG_RETURN_NOT_OK(r.U8(&present));
        snap.eval.has_analysis = present != 0;
        if (snap.eval.has_analysis) {
          uint32_t nrules = 0;
          IDLOG_RETURN_NOT_OK(r.U32(&nrules));
          IDLOG_RETURN_NOT_OK(r.Fits(nrules, 4));  // u32 step count
          snap.eval.analysis.rules.resize(nrules);
          for (uint32_t i = 0; i < nrules; ++i) {
            uint32_t nsteps = 0;
            IDLOG_RETURN_NOT_OK(r.U32(&nsteps));
            IDLOG_RETURN_NOT_OK(r.Fits(nsteps, 6 * 8));  // six u64
            snap.eval.analysis.rules[i].steps.resize(nsteps);
            for (StepCounters& c : snap.eval.analysis.rules[i].steps) {
              IDLOG_RETURN_NOT_OK(r.U64(&c.rows_in));
              IDLOG_RETURN_NOT_OK(r.U64(&c.rows_scanned));
              IDLOG_RETURN_NOT_OK(r.U64(&c.index_probes));
              IDLOG_RETURN_NOT_OK(r.U64(&c.index_hits));
              IDLOG_RETURN_NOT_OK(r.U64(&c.index_misses));
              IDLOG_RETURN_NOT_OK(r.U64(&c.rows_emitted));
            }
          }
          uint32_t nstrata = 0;
          IDLOG_RETURN_NOT_OK(r.U32(&nstrata));
          IDLOG_RETURN_NOT_OK(r.Fits(nstrata, 4 + 8));  // i32, u64
          snap.eval.analysis.strata.resize(nstrata);
          for (StratumRoundStats& s : snap.eval.analysis.strata) {
            IDLOG_RETURN_NOT_OK(r.I32(&s.stratum));
            uint64_t nrounds = 0;
            IDLOG_RETURN_NOT_OK(r.U64(&nrounds));
            IDLOG_RETURN_NOT_OK(r.Fits(nrounds, 8));
            s.new_facts_per_round.resize(nrounds);
            for (uint64_t& v : s.new_facts_per_round) {
              IDLOG_RETURN_NOT_OK(r.U64(&v));
            }
          }
        }
        break;
      }
      case kSectionProfile: {
        // Older writers stored a copy of the profile after the presence
        // byte; it is rendered from ANALYSIS now, so a present payload
        // is skipped once the framing and CRC above have held.
        uint8_t present = 0;
        IDLOG_RETURN_NOT_OK(r.U8(&present));
        if (present != 0) r.pos = payload.size();
        break;
      }
      case kSectionDeriv: {
        uint8_t present = 0;
        IDLOG_RETURN_NOT_OK(r.U8(&present));
        snap.eval.has_provenance = present != 0;
        if (snap.eval.has_provenance) {
          uint64_t npreds = 0;
          IDLOG_RETURN_NOT_OK(r.U64(&npreds));
          // Re-intern the table in file order: ids 0..n-1 come back
          // exactly as saved (a predicate may be interned without any
          // node, e.g. the head of a rule that never fired).
          for (uint64_t i = 0; i < npreds; ++i) {
            std::string name;
            IDLOG_RETURN_NOT_OK(r.Str(&name));
            if (snap.eval.provenance.InternPredicate(name) != i) {
              return Status::InvalidArgument(
                  "snapshot corrupt: DERIV predicate table repeats '" +
                  name + "'");
            }
          }
          uint64_t nnodes = 0;
          IDLOG_RETURN_NOT_OK(r.U64(&nnodes));
          for (uint64_t i = 0; i < nnodes; ++i) {
            uint32_t pred_id = 0;
            IDLOG_RETURN_NOT_OK(r.U32(&pred_id));
            if (pred_id >= npreds) {
              return Status::InvalidArgument(
                  "snapshot corrupt: DERIV node references predicate id " +
                  std::to_string(pred_id) + " beyond the " +
                  std::to_string(npreds) + " interned predicates");
            }
            uint32_t tuple_size = 0;
            IDLOG_RETURN_NOT_OK(r.U32(&tuple_size));
            Tuple tuple;
            IDLOG_RETURN_NOT_OK(
                ReadValues(&r, snap.symbols.size(), tuple_size, &tuple));
            int32_t clause_index = 0;
            IDLOG_RETURN_NOT_OK(r.I32(&clause_index));
            uint32_t npremises = 0;
            IDLOG_RETURN_NOT_OK(r.U32(&npremises));
            // A kind byte, two strings and two u32 counts.
            IDLOG_RETURN_NOT_OK(r.Fits(npremises, 1 + 2 * 4 + 2 * 4));
            std::vector<Premise> premises;
            premises.reserve(npremises);
            for (uint32_t pi = 0; pi < npremises; ++pi) {
              uint8_t kind = 0;
              IDLOG_RETURN_NOT_OK(r.U8(&kind));
              if (kind > static_cast<uint8_t>(Premise::Kind::kBuiltin)) {
                return Status::InvalidArgument(
                    "snapshot corrupt: DERIV premise has invalid kind " +
                    std::to_string(kind));
              }
              Premise p;
              p.kind = static_cast<Premise::Kind>(kind);
              IDLOG_RETURN_NOT_OK(r.Str(&p.predicate));
              uint32_t ngroup = 0;
              IDLOG_RETURN_NOT_OK(r.U32(&ngroup));
              IDLOG_RETURN_NOT_OK(r.Fits(ngroup, 4));
              p.group.reserve(ngroup);
              for (uint32_t g = 0; g < ngroup; ++g) {
                int32_t col = 0;
                IDLOG_RETURN_NOT_OK(r.I32(&col));
                p.group.push_back(col);
              }
              uint32_t ptuple_size = 0;
              IDLOG_RETURN_NOT_OK(r.U32(&ptuple_size));
              IDLOG_RETURN_NOT_OK(ReadValues(&r, snap.symbols.size(),
                                             ptuple_size, &p.tuple));
              IDLOG_RETURN_NOT_OK(r.Str(&p.builtin_text));
              premises.push_back(std::move(p));
            }
            // Replaying Record in node order reproduces the original
            // arena layout exactly.
            snap.eval.provenance.Record(
                static_cast<ProvenanceStore::PredId>(pred_id), tuple,
                clause_index, std::move(premises));
          }
        }
        break;
      }
      case kSectionWalPos: {
        uint8_t present = 0;
        IDLOG_RETURN_NOT_OK(r.U8(&present));
        snap.wal_pos.present = present != 0;
        IDLOG_RETURN_NOT_OK(r.U64(&snap.wal_pos.epoch));
        IDLOG_RETURN_NOT_OK(r.U64(&snap.wal_pos.offset));
        IDLOG_RETURN_NOT_OK(r.U64(&snap.wal_pos.commits));
        break;
      }
      default:
        return Status::InvalidArgument(
            "snapshot corrupt: unknown section tag " + std::to_string(tag));
    }
    IDLOG_RETURN_NOT_OK(ExpectConsumed(r));
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument(
        "snapshot corrupt: " + std::to_string(bytes.size() - pos) +
        " trailing bytes after END section");
  }
  IDLOG_RETURN_NOT_OK(CheckInvariants(snap));
  return snap;
}

Result<SnapshotData> LoadSnapshotFile(const std::string& path) {
  std::string bytes;
  IDLOG_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  IDLOG_FAILPOINT("store.read.header");
  Result<SnapshotData> snap = ParseSnapshot(bytes);
  if (!snap.ok()) {
    return Status(snap.status().code(),
                  "'" + path + "': " + snap.status().message());
  }
  IDLOG_FAILPOINT("store.read.section");
  return snap;
}

Status ValidateSnapshotFile(const std::string& path) {
  return LoadSnapshotFile(path).status();
}

}  // namespace idlog
