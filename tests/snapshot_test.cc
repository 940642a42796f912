// idlog-snap-v2 format tests: round-trip fidelity, exhaustive
// corruption rejection (every single-byte flip, every truncation
// length, wrong magic/version, trailing garbage), and the atomicity of
// WriteFileAtomic — the primitive behind checkpoints and every
// machine-readable output file.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "obs/trace.h"
#include "storage/csv.h"
#include "store/atomic_file.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_snapshot_test_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  const fs::path& dir() const { return dir_; }

 private:
  fs::path dir_;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int TmpFileCount(const fs::path& dir) {
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find(".tmp") != std::string::npos) ++n;
  }
  return n;
}

/// A small program exercising every snapshot section: interned symbols,
/// numbers, two strata (negation), and an ID-literal whose tids come
/// from a random assigner.
constexpr const char* kSampleProgram =
    "one(N, D) :- emp[2](N, D, 0).\n"
    "senior(N) :- lvl(N, L), L > 4.\n"
    "both(N) :- one(N, D), not senior(N).\n";

void SetUpSampleEngine(IdlogEngine* engine) {
  ASSERT_TRUE(engine->AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine->AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine->AddRow("emp", {"cal", "dev"}).ok());
  ASSERT_TRUE(engine->AddRow("lvl", {"ann", "3"}).ok());
  ASSERT_TRUE(engine->AddRow("lvl", {"bob", "5"}).ok());
  ASSERT_TRUE(engine->LoadProgramText(kSampleProgram).ok());
  engine->SetTidAssigner(std::make_unique<RandomTidAssigner>(11));
}

std::string QueryDump(IdlogEngine* engine, const std::string& pred) {
  auto rel = engine->Query(pred);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? Dump(**rel, engine->symbols()) : std::string();
}

TEST(Snapshot, CompletedRunRoundTrips) {
  ScratchDir scratch("roundtrip");
  std::string snap = scratch.Path("done.snap");

  IdlogEngine source;
  SetUpSampleEngine(&source);
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());

  // The file parses and its sections carry what was saved.
  auto data = LoadSnapshotFile(snap);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(data->eval.frame.completed);
  EXPECT_EQ(data->symbols.size(), source.symbols().size());
  EXPECT_EQ(data->edb.size(), 2u);
  EXPECT_TRUE(data->eval.has_analysis);
  EXPECT_EQ(data->config.assigner_kind, "random");
  EXPECT_EQ(data->eval.stats.facts_derived, source.stats().facts_derived);

  // A fresh engine resumed from it answers identically without
  // re-evaluating, down to tid assignments (the ID-relation contents).
  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText(kSampleProgram).ok());
  for (const char* pred : {"one", "senior", "both"}) {
    EXPECT_EQ(QueryDump(&resumed, pred), QueryDump(&source, pred)) << pred;
  }
  // emp[2] groups by the second attribute, keyed 0-based internally.
  auto src_id = source.QueryIdRelation("emp", {1});
  auto res_id = resumed.QueryIdRelation("emp", {1});
  ASSERT_TRUE(src_id.ok() && res_id.ok());
  EXPECT_EQ(Dump(**res_id, resumed.symbols()),
            Dump(**src_id, source.symbols()));
  EXPECT_EQ(resumed.stats().facts_derived, source.stats().facts_derived);
  EXPECT_EQ(resumed.stats().iterations, source.stats().iterations);
}

TEST(Snapshot, ResumeNeedsFreshEngine) {
  ScratchDir scratch("fresh");
  std::string snap = scratch.Path("done.snap");
  IdlogEngine source;
  SetUpSampleEngine(&source);
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());

  Status st = source.ResumeFromCheckpoint(snap);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fresh engine"), std::string::npos);

  IdlogEngine dirty;
  ASSERT_TRUE(dirty.AddRow("x", {"a"}).ok());
  EXPECT_FALSE(dirty.ResumeFromCheckpoint(snap).ok());
}

TEST(Snapshot, ProgramHashGuardsResume) {
  ScratchDir scratch("hash");
  std::string snap = scratch.Path("done.snap");
  IdlogEngine source;
  SetUpSampleEngine(&source);
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  Status st = resumed.LoadProgramText("other(X) :- lvl(X, L).\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hash mismatch"), std::string::npos);
}

// --------------------------------------------------------------------
// Corruption: every damage mode must be rejected, never crash, and
// carry a precise message.

std::string SampleSnapshotBytes(ScratchDir* scratch) {
  std::string snap = scratch->Path("sample.snap");
  IdlogEngine source;
  SetUpSampleEngine(&source);
  EXPECT_TRUE(source.Run().ok());
  EXPECT_TRUE(source.SaveCheckpoint(snap).ok());
  return Slurp(snap);
}

TEST(SnapshotCorruption, EverySingleByteFlipIsRejected) {
  ScratchDir scratch("flip");
  std::string bytes = SampleSnapshotBytes(&scratch);
  ASSERT_GT(bytes.size(), 100u);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    auto parsed = ParseSnapshot(damaged);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(SnapshotCorruption, EveryTruncationIsRejected) {
  ScratchDir scratch("trunc");
  std::string bytes = SampleSnapshotBytes(&scratch);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ParseSnapshot(std::string_view(bytes.data(), len));
    EXPECT_FALSE(parsed.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(SnapshotCorruption, PreciseMessages) {
  ScratchDir scratch("messages");
  std::string bytes = SampleSnapshotBytes(&scratch);

  auto not_snap = ParseSnapshot("definitely not a snapshot");
  ASSERT_FALSE(not_snap.ok());
  EXPECT_NE(not_snap.status().message().find("magic"), std::string::npos);

  std::string wrong_version = bytes;
  wrong_version[8] = 9;  // little-endian u32 version after the magic
  auto versioned = ParseSnapshot(wrong_version);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("idlog-snap-v2"),
            std::string::npos);

  auto trailing = ParseSnapshot(bytes + "x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"),
            std::string::npos);

  // Byte 24 is the first payload byte of the META section (8 magic +
  // 4 version + 4 tag + 8 length), safely past the framing fields.
  std::string crc_flip = bytes;
  crc_flip[24] = static_cast<char>(crc_flip[24] ^ 0x40);
  auto crc = ParseSnapshot(crc_flip);
  ASSERT_FALSE(crc.ok());
  EXPECT_NE(crc.status().message().find("CRC mismatch"),
            std::string::npos);

  auto missing = LoadSnapshotFile(scratch.Path("nope.snap"));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(ValidateSnapshotFile(scratch.Path("sample.snap")).ok());
}

// --------------------------------------------------------------------
// Lying counts. A snapshot is outside input, and a recomputed CRC passes
// the framing check, so every count the decoder sizes a container from
// must fit in the bytes left in its section: a crafted count is an
// InvalidArgument, never an allocation of whatever the file claims.

constexpr uint32_t kMetaTag = 1;
constexpr uint32_t kDatabaseTag = 3;
constexpr uint32_t kAnalysisTag = 7;
constexpr uint32_t kProfileTag = 8;
constexpr uint32_t kDerivTag = 9;

uint64_t GetLe(const std::string& s, size_t pos, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(s[pos + i])) << (8 * i);
  }
  return v;
}

void PutLe(std::string* s, size_t pos, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    (*s)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Walks a section payload to the count field a test overwrites.
struct Cursor {
  const std::string& payload;
  size_t pos = 0;
  uint64_t Read(int bytes) {
    uint64_t v = GetLe(payload, pos, bytes);
    pos += static_cast<size_t>(bytes);
    return v;
  }
  void Skip(uint64_t n) { pos += static_cast<size_t>(n); }
  void SkipStr() { Skip(Read(4)); }
};

/// `bytes` with section `tag`'s payload edited by `edit`, re-framed
/// with its new length and a recomputed CRC.
std::string EditSection(const std::string& bytes, uint32_t tag,
                        const std::function<void(std::string*)>& edit) {
  size_t pos = sizeof(kSnapshotMagic) + 4;
  while (pos + 12 <= bytes.size()) {
    const uint64_t len = GetLe(bytes, pos + 4, 8);
    if (GetLe(bytes, pos, 4) == tag) {
      std::string payload = bytes.substr(pos + 12, len);
      edit(&payload);
      std::string framed = bytes.substr(pos, 12);
      PutLe(&framed, 4, payload.size(), 8);
      const uint32_t crc = Crc32(payload, Crc32(framed));
      framed += payload + std::string(4, '\0');
      PutLe(&framed, framed.size() - 4, crc, 4);
      return bytes.substr(0, pos) + framed +
             bytes.substr(pos + 12 + len + 4);
    }
    pos += 12 + len + 4;
  }
  ADD_FAILURE() << "snapshot has no section " << tag;
  return bytes;
}

std::string SampleSnapshotWithProvenance(ScratchDir* scratch) {
  std::string snap = scratch->Path("prov.snap");
  IdlogEngine source;
  SetUpSampleEngine(&source);
  source.EnableProvenance(true);
  EXPECT_TRUE(source.Run().ok());
  EXPECT_TRUE(source.SaveCheckpoint(snap).ok());
  return Slurp(snap);
}

// Positions the cursor at the first DERIV node's tuple size.
size_t FirstTupleSize(Cursor* c) {
  c->Skip(1);                                              // present
  for (uint64_t n = c->Read(8); n > 0; --n) c->SkipStr();  // predicates
  c->Read(8);                                              // node count
  c->Read(4);                                              // predicate id
  return c->pos;
}

// Positions the cursor at the first DERIV node's premise count.
size_t FirstPremiseCount(Cursor* c) {
  FirstTupleSize(c);
  c->Skip(c->Read(4) * 9);  // tuple values: sort byte + u64 each
  c->Read(4);               // clause index
  return c->pos;
}

// Positions the cursor at the ANALYSIS stratum count.
size_t AnalysisStrataCount(Cursor* c) {
  c->Skip(1);  // present
  for (uint64_t n = c->Read(4); n > 0; --n) {
    c->Skip(c->Read(4) * 6 * 8);  // six u64 counters per step
  }
  return c->pos;
}

/// One count the decoder sizes a container from: where it sits, and
/// how wide it is. The test sets it to the field's maximum.
struct LyingCount {
  const char* site;
  uint32_t tag;
  bool in_deriv;  ///< Needs a snapshot with provenance recorded.
  size_t (*at)(Cursor*);
  int field_bytes;  ///< 4 (u32) or 8 (u64).
};

TEST(SnapshotLyingCount, EveryDecoderSiteRejectsIt) {
  ScratchDir scratch("lying");
  const std::string plain = SampleSnapshotBytes(&scratch);
  const std::string with_deriv = SampleSnapshotWithProvenance(&scratch);
  const LyingCount cases[] = {
      {"relation arity", kDatabaseTag, false,
       [](Cursor* c) {
         c->Read(4);  // relation count
         c->SkipStr();
         return c->pos;
       },
       4},
      {"relation rows", kDatabaseTag, false,
       [](Cursor* c) {
         c->Read(4);
         c->SkipStr();
         c->Skip(c->Read(4));  // arity, then one sort byte per column
         return c->pos;
       },
       8},
      {"DERIV tuple size", kDerivTag, true, FirstTupleSize, 4},
      {"DERIV premises", kDerivTag, true, FirstPremiseCount, 4},
      {"DERIV premise group", kDerivTag, true,
       [](Cursor* c) {
         FirstPremiseCount(c);
         EXPECT_GT(c->Read(4), 0u);
         c->Skip(1);  // kind
         c->SkipStr();
         return c->pos;
       },
       4},
      {"ANALYSIS rules", kAnalysisTag, false,
       [](Cursor* c) { return c->pos + 1; }, 4},
      {"ANALYSIS steps", kAnalysisTag, false,
       [](Cursor* c) { return c->pos + 5; }, 4},
      {"ANALYSIS strata", kAnalysisTag, false, AnalysisStrataCount, 4},
      {"ANALYSIS rounds", kAnalysisTag, false,
       [](Cursor* c) {
         AnalysisStrataCount(c);
         EXPECT_GT(c->Read(4), 0u);
         c->Skip(4);  // stratum index
         return c->pos;
       },
       8},
  };
  for (const LyingCount& lie : cases) {
    SCOPED_TRACE(lie.site);
    std::string crafted = EditSection(
        lie.in_deriv ? with_deriv : plain, lie.tag, [&](std::string* p) {
          Cursor c{*p};
          const size_t pos = lie.at(&c);
          PutLe(p, pos, lie.field_bytes == 4 ? UINT32_MAX : UINT64_MAX,
                lie.field_bytes);
        });
    Status st;
    EXPECT_NO_THROW(st = ParseSnapshot(crafted).status());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("remaining bytes"), std::string::npos)
        << st.ToString();
  }
}

// The scripted assigner's state string carries two lists, each a length
// and its entries; a length the string cannot hold must not size
// anything. The parse keeps the state as text; the assigner restores it
// when the resumed run starts.
TEST(SnapshotLyingCount, ScriptedAssignerLists) {
  ScratchDir scratch("scripted");
  const std::string bytes = SampleSnapshotBytes(&scratch);
  for (const char* state : {"0 1000000000000000 0", "0 0 1000000000000000"}) {
    SCOPED_TRACE(state);
    std::string crafted = EditSection(bytes, kMetaTag, [&](std::string* p) {
      Cursor c{*p};
      // Program hash, four flags, stratum, round, in-stratum flag and
      // the fifteen EvalStats counters precede the assigner strings.
      c.Skip(8 + 4 + 4 + 8 + 1 + 15 * 8);
      p->resize(c.pos);
      for (const std::string& field : {std::string("scripted"),
                                       std::string(state)}) {
        p->append(4, '\0');
        PutLe(p, p->size() - 4, field.size(), 4);
        p->append(field);
      }
    });
    const std::string path = scratch.Path("scripted.snap");
    ASSERT_TRUE(WriteFileAtomic(path, crafted).ok());
    IdlogEngine engine;
    ASSERT_TRUE(engine.ResumeFromCheckpoint(path).ok());
    ASSERT_TRUE(engine.LoadProgramText(kSampleProgram).ok());
    Status st;
    EXPECT_NO_THROW(st = engine.Run());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("scripted-assigner"), std::string::npos)
        << st.ToString();
  }
}

// --------------------------------------------------------------------
// The DELTA section of a mid-stratum frame. A round's new facts are the
// last rows of its derived relation, so a resume reads them as that
// tail; the decoder must refuse any DELTA that is not exactly the tail,
// or the resumed fixpoint differentiates on the wrong facts and ends in
// a wrong model with no error.

constexpr uint32_t kDerivedTag = 4;
constexpr uint32_t kDeltaTag = 6;

/// A frame cut mid-stratum: chain TC over n0..n30, tripped after five
/// rounds, so DELTA holds the paths of length five.
std::string MidStratumFrameBytes(ScratchDir* scratch) {
  const std::string snap = scratch->Path("mid.snap");
  IdlogEngine tripper;
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(tripper
                    .AddRow("edge", {"n" + std::to_string(i),
                                     "n" + std::to_string(i + 1)})
                    .ok());
  }
  EXPECT_TRUE(tripper
                  .LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                   "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  EvalLimits limits;
  limits.max_iterations = 5;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(snap);
  EXPECT_TRUE(tripper.Run().ok());
  EXPECT_EQ(tripper.last_trip().code(), StatusCode::kResourceExhausted);
  const std::string bytes = Slurp(snap);
  auto data = ParseSnapshot(bytes);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  if (data.ok()) {
    EXPECT_TRUE(data->eval.frame.in_stratum);
    EXPECT_EQ(data->eval.delta.count("tc"), 1u);
  }
  return bytes;
}

// Positions the cursor at the first row of relation `name` in a DERIVED
// or DELTA payload (name, arity, sorts and row count precede the rows).
size_t FirstRowOf(Cursor* c, const std::string& name) {
  for (uint64_t n = c->Read(4); n > 0; --n) {
    const uint64_t len = c->Read(4);
    const std::string entry = c->payload.substr(c->pos, len);
    c->Skip(len);
    const uint64_t arity = c->Read(4);
    c->Skip(arity);
    const uint64_t rows = c->Read(8);
    if (entry == name) return c->pos;
    c->Skip(rows * arity * 9 + 16);  // values, version, clear generation
  }
  ADD_FAILURE() << "no relation " << name;
  return c->pos;
}

TEST(SnapshotDelta, NonTailDeltaIsRejected) {
  ScratchDir scratch("nontail");
  const std::string bytes = MidStratumFrameBytes(&scratch);
  // Two-column rows are 18 bytes: a sort byte and a u64 per value.
  std::string first_derived;
  EditSection(bytes, kDerivedTag, [&](std::string* p) {
    Cursor c{*p};
    first_derived = p->substr(FirstRowOf(&c, "tc"), 18);
  });
  ASSERT_EQ(first_derived.size(), 18u);
  std::string crafted = EditSection(bytes, kDeltaTag, [&](std::string* p) {
    Cursor c{*p};
    p->replace(FirstRowOf(&c, "tc"), 18, first_derived);
  });
  ASSERT_NE(crafted, bytes);
  Status st;
  EXPECT_NO_THROW(st = ParseSnapshot(crafted).status());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("delta of 'tc' is not the tail"),
            std::string::npos)
      << st.ToString();
}

TEST(SnapshotDelta, DeltaWithoutDerivedRelationIsRejected) {
  ScratchDir scratch("orphan");
  const std::string bytes = MidStratumFrameBytes(&scratch);
  std::string crafted = EditSection(bytes, kDeltaTag, [](std::string* p) {
    Cursor c{*p};
    c.Read(4);  // relation count
    const size_t len = c.Read(4);
    ASSERT_EQ(p->substr(c.pos, len), "tc");
    p->replace(c.pos, len, "zz");
  });
  Status st;
  EXPECT_NO_THROW(st = ParseSnapshot(crafted).status());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("delta relation 'zz' has no derived"),
            std::string::npos)
      << st.ToString();
}

// --------------------------------------------------------------------
// WriteFileAtomic and the outputs built on it.

TEST(AtomicFile, Crc32KnownAnswer) {
  // The CRC-32 check value from the ITU-T V.42 / zlib test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(AtomicFile, WritesAndReplaces) {
  ScratchDir scratch("atomic");
  std::string path = scratch.Path("out.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(Slurp(path), "second");
  EXPECT_EQ(TmpFileCount(scratch.dir()), 0);

  Status st = WriteFileAtomic(scratch.Path("no/such/dir/out.txt"), "x");
  EXPECT_FALSE(st.ok());
}

TEST(AtomicFile, FailedWriteLeavesTargetUntouched) {
  ScratchDir scratch("atomic_fail");
  std::string path = scratch.Path("out.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "precious").ok());

  // Injected failures at each stage of the atomic write protocol must
  // leave the previous contents in place and no temp file behind.
  for (const char* site :
       {"store.write.open", "store.write.data", "store.write.fsync",
        "store.write.rename"}) {
    Failpoints::Instance().Reset();
    ASSERT_TRUE(Failpoints::Instance()
                    .ArmFromSpec(std::string(site) + ":1")
                    .ok());
    Status st = WriteFileAtomic(path, "replacement");
    EXPECT_FALSE(st.ok()) << site;
    EXPECT_NE(st.message().find(site), std::string::npos) << st.ToString();
    EXPECT_EQ(Slurp(path), "precious") << site;
    EXPECT_EQ(TmpFileCount(scratch.dir()), 0) << site;
  }
  Failpoints::Instance().Reset();
  ASSERT_TRUE(WriteFileAtomic(path, "replacement").ok());
  EXPECT_EQ(Slurp(path), "replacement");
}

// Regression: the CSV saver and the trace sink write through the atomic
// path, so a failure mid-write preserves the previous file intact.
TEST(AtomicFile, CsvAndTraceOutputsAreAtomic) {
  ScratchDir scratch("outputs");

  SymbolTable symbols;
  Relation rel(RelationType{Sort::kU, Sort::kU});
  rel.Insert(testing_util::T(&symbols, {"a", "b"}));
  std::string csv_path = scratch.Path("rel.csv");
  ASSERT_TRUE(SaveRelationCsv(rel, symbols, csv_path).ok());
  std::string before = Slurp(csv_path);
  EXPECT_EQ(before, "a,b\n");

  rel.Insert(testing_util::T(&symbols, {"c, quoted", "d"}));
  Failpoints::Instance().Reset();
  ASSERT_TRUE(
      Failpoints::Instance().ArmFromSpec("store.write.rename:1").ok());
  EXPECT_FALSE(SaveRelationCsv(rel, symbols, csv_path).ok());
  EXPECT_EQ(Slurp(csv_path), before);
  EXPECT_EQ(TmpFileCount(scratch.dir()), 0);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(SaveRelationCsv(rel, symbols, csv_path).ok());
  std::string after = Slurp(csv_path);
  EXPECT_NE(after, before);
  EXPECT_NE(after.find("\"c, quoted\",d"), std::string::npos);

  TraceSink sink;
  std::string trace_path = scratch.Path("trace.json");
  ASSERT_TRUE(sink.WriteJson(trace_path).ok());
  std::string trace_before = Slurp(trace_path);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(
      Failpoints::Instance().ArmFromSpec("store.write.data:1").ok());
  EXPECT_FALSE(sink.WriteJson(trace_path).ok());
  EXPECT_EQ(Slurp(trace_path), trace_before);
  EXPECT_EQ(TmpFileCount(scratch.dir()), 0);
  Failpoints::Instance().Reset();
}

TEST(AtomicFile, ReadDistinguishesMissingFromUnreadable) {
  ScratchDir scratch("read_errno");
  std::string out;

  // Missing file: NotFound — "nothing durable yet".
  Status missing = ReadFileToString(scratch.Path("nope.bin"), &out);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // Present but unreadable: Internal — durable state exists and must
  // not be mistaken for a cold start. Skipped under root (permission
  // bits do not bind) — the geteuid guard keeps CI containers honest.
  if (::geteuid() != 0) {
    std::string locked = scratch.Path("locked.bin");
    ASSERT_TRUE(WriteFileAtomic(locked, "secret").ok());
    ASSERT_EQ(::chmod(locked.c_str(), 0000), 0);
    Status unreadable = ReadFileToString(locked, &out);
    EXPECT_EQ(unreadable.code(), StatusCode::kInternal)
        << unreadable.ToString();
    ::chmod(locked.c_str(), 0600);
  }

  // A directory opens but does not read: also not NotFound.
  Status dir = ReadFileToString(scratch.dir().string(), &out);
  EXPECT_FALSE(dir.ok());
  EXPECT_NE(dir.code(), StatusCode::kNotFound) << dir.ToString();
}

// Regression: two threads writing different targets in one directory
// must never collide on temp names (the old scheme was pid-only, so
// same-process writers raced on one temp file).
TEST(AtomicFile, ConcurrentWritersInOneDirectory) {
  ScratchDir scratch("concurrent");
  constexpr int kWritersPerTarget = 2;
  constexpr int kRounds = 200;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int w = 0; w < kWritersPerTarget * 2; ++w) {
    writers.emplace_back([&, w]() {
      std::string path = scratch.Path("target" + std::to_string(w % 2));
      std::string payload(64 + w, static_cast<char>('a' + w));
      for (int i = 0; i < kRounds; ++i) {
        if (!WriteFileAtomic(path, payload).ok()) failed = true;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(TmpFileCount(scratch.dir()), 0);
  // Every target holds one writer's complete payload, never a mix.
  for (int target = 0; target < 2; ++target) {
    std::string contents =
        Slurp(scratch.Path("target" + std::to_string(target)));
    ASSERT_FALSE(contents.empty());
    EXPECT_EQ(contents.find_first_not_of(contents[0]), std::string::npos);
  }
}

// The v2 WALPOS section: absent by default, round-trips when present.
TEST(Snapshot, WalPositionRoundTrips) {
  ScratchDir scratch("walpos");
  std::string bytes = SampleSnapshotBytes(&scratch);
  auto plain = ParseSnapshot(bytes);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->wal_pos.present);

  // Session snapshots carry the position; SaveCheckpoint ones do not —
  // recovery uses the flag to refuse a non-session snapshot.
  IdlogEngine engine;
  SetUpSampleEngine(&engine);
  ASSERT_TRUE(engine.Run().ok());
  std::string wal = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal).ok());
  auto session = LoadSnapshotFile(wal + ".snap");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->wal_pos.present);
  EXPECT_EQ(session->wal_pos.epoch, 1u);
  EXPECT_EQ(session->wal_pos.offset, kWalHeaderSize);
  EXPECT_EQ(session->wal_pos.commits, 0u);
}

// Older writers stored a copy of the profile in PROFILE. The profile is
// rendered from ANALYSIS now, so the reader skips a present payload
// after checking its framing and CRC, and the checkpoint resumes to the
// same run as one without it.
TEST(Snapshot, OlderPresentProfileIsSkipped) {
  ScratchDir scratch("oldprofile");
  const std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";
  auto seed = [&program](IdlogEngine* engine) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(engine
                      ->AddRow("edge", {"n" + std::to_string(i),
                                        "n" + std::to_string(i + 1)})
                      .ok());
    }
    ASSERT_TRUE(engine->LoadProgramText(program).ok());
  };
  // The profile columns a run reports, timings left out.
  auto counters = [](const EvalProfile& profile) {
    std::string out;
    for (const RuleProfile& r : profile.rules) {
      out += std::to_string(r.firings) + " " +
             std::to_string(r.tuples_considered) + " " +
             std::to_string(r.facts_derived) + " " +
             std::to_string(r.facts_inserted) + "\n";
    }
    for (const StratumProfile& s : profile.strata) {
      out += std::to_string(s.index) + " " + std::to_string(s.rules) + " " +
             std::to_string(s.rounds) + "\n";
    }
    return out;
  };

  IdlogEngine full;
  seed(&full);
  ASSERT_TRUE(full.Run().ok());

  const std::string snap = scratch.Path("trip.snap");
  IdlogEngine tripper;
  seed(&tripper);
  EvalLimits limits;
  limits.max_iterations = 5;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(snap);
  ASSERT_TRUE(tripper.Run().ok());
  ASSERT_EQ(tripper.last_trip().code(), StatusCode::kResourceExhausted);

  // The tripper's profile in the older layout: per rule its clause
  // index, head, text and stratum, then evals, firings, considered,
  // derived and inserted and its self time; per stratum its index,
  // rules, rounds and wall; then the 15 stats counters and the wall.
  const EvalProfile profile = tripper.profile();
  std::string payload;
  auto put = [&payload](uint64_t v, int bytes) {
    payload.append(static_cast<size_t>(bytes), '\0');
    PutLe(&payload, payload.size() - static_cast<size_t>(bytes), v, bytes);
  };
  auto put_str = [&](const std::string& text) {
    put(text.size(), 4);
    payload += text;
  };
  put(1, 1);  // present
  put(profile.rules.size(), 4);
  for (const RuleProfile& r : profile.rules) {
    put(static_cast<uint32_t>(r.clause_index), 4);
    put_str(r.head_pred);
    put_str(r.rule);
    put(static_cast<uint32_t>(r.stratum), 4);
    for (uint64_t v : {r.firings, r.firings, r.tuples_considered,
                       r.facts_derived, r.facts_inserted, r.self_ns}) {
      put(v, 8);
    }
  }
  put(profile.strata.size(), 4);
  for (const StratumProfile& s : profile.strata) {
    put(static_cast<uint32_t>(s.index), 4);
    for (uint64_t v : {s.rules, s.rounds, s.wall_ns}) put(v, 8);
  }
  for (int i = 0; i < 15; ++i) put(i, 8);  // stats, never read
  put(profile.wall_ns, 8);

  const std::string older = EditSection(
      Slurp(snap), kProfileTag, [&](std::string* p) { *p = payload; });
  ASSERT_NE(older.find(payload), std::string::npos);
  auto parsed = ParseSnapshot(older);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->eval.frame.in_stratum);

  const std::string older_path = scratch.Path("older.snap");
  ASSERT_TRUE(WriteFileAtomic(older_path, older).ok());
  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(older_path).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  ASSERT_TRUE(resumed.Run().ok());
  EXPECT_EQ(QueryDump(&resumed, "tc"), QueryDump(&full, "tc"));
  auto resumed_doc = resumed.ExplainPlanJson(/*analyze=*/true);
  auto full_doc = full.ExplainPlanJson(/*analyze=*/true);
  ASSERT_TRUE(resumed_doc.ok() && full_doc.ok());
  EXPECT_EQ(*resumed_doc, *full_doc);
  EXPECT_EQ(counters(resumed.profile()), counters(full.profile()));

  // The skipped payload is still covered by the section's CRC.
  const size_t at = older.find(payload);
  for (size_t i : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    std::string damaged = older;
    damaged[at + i] = static_cast<char>(damaged[at + i] ^ 0x01);
    auto rejected = ParseSnapshot(damaged);
    ASSERT_FALSE(rejected.ok()) << "flip at payload byte " << i;
    EXPECT_NE(rejected.status().message().find("CRC mismatch in section "
                                               "PROFILE"),
              std::string::npos)
        << rejected.status().ToString();
  }
}

// A hand-rolled idlog-snap-v1 file (no per-relation counters, no
// WALPOS section) must still parse: v2 added both, and checkpoints
// written by v1 builds have to stay resumable.
TEST(Snapshot, V1FilesStillParse) {
  std::string out;
  auto u8 = [&out](uint8_t v) { out.push_back(static_cast<char>(v)); };
  auto u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  auto u64 = [&out](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  auto str = [&](const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    out.append(s);
  };
  // Sections are framed [tag u32][len u64][payload][crc32], CRC over
  // tag + length + payload — same scheme as the v2 writer.
  std::string section_body;
  auto begin_section = [&] {
    section_body = std::move(out);
    out.clear();
  };
  auto end_section = [&](uint32_t tag) {
    std::string payload = std::move(out);
    out = std::move(section_body);
    std::string header;
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((tag >> (8 * i)) & 0xFF));
    }
    uint64_t len = payload.size();
    for (int i = 0; i < 8; ++i) {
      header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    uint32_t crc = Crc32(payload, Crc32(header));
    out.append(header);
    out.append(payload);
    u32(crc);
  };

  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  u32(1);  // version

  begin_section();  // META
  u64(42);          // program hash
  u8(1);            // seminaive
  u8(1);            // tid-bound pushdown
  u8(1);            // use indexes
  u8(1);            // completed
  u32(1);           // stratum (i32)
  u64(0);           // round
  u8(0);            // in_stratum
  for (int i = 0; i < 15; ++i) u64(0);  // EvalStats
  str("identity");  // assigner kind
  str("");          // assigner state
  end_section(1);

  begin_section();  // SYMBOLS
  u64(1);
  str("a");
  end_section(2);

  begin_section();  // DATABASE: e/1 with rows (7) and (9), no counters.
  u32(1);
  str("e");
  u32(1);  // arity
  u8(1);   // sort: number
  u64(2);  // rows
  u8(1);
  u64(7);
  u8(1);
  u64(9);
  u64(0);  // u-domain size
  end_section(3);

  begin_section();  // DERIVED
  u32(0);
  end_section(4);
  begin_section();  // IDRELS
  u32(0);
  end_section(5);
  begin_section();  // DELTA
  u32(0);
  end_section(6);
  begin_section();  // ANALYSIS
  u8(0);
  end_section(7);
  begin_section();  // PROFILE
  u8(0);
  end_section(8);
  begin_section();  // DERIV
  u8(0);
  end_section(9);
  begin_section();  // END
  end_section(0);

  auto snap = ParseSnapshot(out);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap->wal_pos.present);
  ASSERT_EQ(snap->edb.size(), 1u);
  EXPECT_EQ(snap->edb[0].name, "e");
  EXPECT_EQ(snap->edb[0].relation.size(), 2u);
  // The counters default to what re-inserting the rows produces.
  EXPECT_EQ(snap->edb[0].relation.version(), 2u);
  EXPECT_EQ(snap->edb[0].relation.clear_generation(), 0u);

  // A v1 file truncated before DERIV is still corrupt, not "old".
  std::string short_v1 = out.substr(0, out.size() - 32);
  EXPECT_FALSE(ParseSnapshot(short_v1).ok());
}

}  // namespace
}  // namespace idlog
