#ifndef IDLOG_EVAL_RESUME_STATE_H_
#define IDLOG_EVAL_RESUME_STATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "storage/relation.h"

namespace idlog {

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

/// Evaluation state a checkpoint carries: what EngineImpl adopts to
/// continue the fixpoint from `frame` (InstallResumeState). The maps are
/// adopted wholesale; `delta` is the frame's delta, empty unless
/// `frame.in_stratum`.
struct EvalResumeState {
  std::map<std::string, Relation> derived;
  std::map<std::pair<std::string, std::vector<int>>, Relation> id_relations;
  std::map<std::string, Relation> delta;
  EvalStats stats;
  bool has_analysis = false;
  PlanAnalysis analysis;
  bool has_profile = false;
  EvalProfile profile;
  bool has_provenance = false;
  ProvenanceStore provenance;
  FixpointFrame frame;
};

}  // namespace idlog

#endif  // IDLOG_EVAL_RESUME_STATE_H_
