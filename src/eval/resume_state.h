#ifndef IDLOG_EVAL_RESUME_STATE_H_
#define IDLOG_EVAL_RESUME_STATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "obs/explain.h"
#include "storage/relation.h"

namespace idlog {

/// A delta, by predicate: the row its new facts start at. Inside a
/// fixpoint relations only grow and commits append, so a round's new
/// facts are rows [mark, size). A predicate with no new rows has no
/// entry.
using DeltaMarks = std::map<std::string, size_t>;

/// A position in the stratified fixpoint at a round boundary, as
/// reported to the checkpoint hook and recorded in snapshots.
/// `in_stratum` distinguishes "resume stratum `stratum` after round
/// `round` with the frame's delta" from "enter stratum `stratum` fresh";
/// `completed` marks the boundary that finished the last stratum.
struct FixpointFrame {
  int stratum = 0;
  uint64_t round = 0;
  bool in_stratum = false;
  bool completed = false;
};

/// The checkpoint writer, the one observer of round boundaries: each
/// one inside a stratum that another round follows (with its delta),
/// and each that leaves a stratum (no delta). A non-OK return aborts the
/// run, since a checkpoint that cannot be written must be seen.
using CheckpointHook =
    std::function<Status(const FixpointFrame&, const DeltaMarks& delta)>;

/// Evaluation state a checkpoint carries: what EngineImpl adopts to
/// continue the fixpoint from `frame` (InstallResumeState). The maps are
/// adopted wholesale; `delta` marks the frame's delta in `derived`,
/// empty unless `frame.in_stratum`.
struct EvalResumeState {
  std::map<std::string, Relation> derived;
  std::map<std::pair<std::string, std::vector<int>>, Relation> id_relations;
  DeltaMarks delta;
  EvalStats stats;
  bool has_analysis = false;
  PlanAnalysis analysis;
  bool has_provenance = false;
  ProvenanceStore provenance;
  FixpointFrame frame;
};

}  // namespace idlog

#endif  // IDLOG_EVAL_RESUME_STATE_H_
