#ifndef IDLOG_OBS_WHY_H_
#define IDLOG_OBS_WHY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"
#include "eval/provenance.h"
#include "eval/rule_plan.h"
#include "storage/relation.h"

namespace idlog {

/// Bounds on an explanation walk. Both WHY (proof trees) and WHY NOT
/// (failure analysis) stop at these budgets and say so in their output,
/// so a deep recursion or a cyclic ruleset can never hang the surface.
struct WhyBudget {
  int max_depth = 32;   ///< Maximum tree depth / recursion depth.
  int max_nodes = 512;  ///< Maximum nodes across the whole document.
};

// ---------------------------------------------------------------------------
// WHY: bounded proof trees over the provenance store.

/// One node of a rendered proof tree. Labels are pre-rendered with the
/// run's symbol table at build time, so the text and JSON renderers are
/// pure functions of the tree — which keeps `--jobs 1` and `--jobs N`
/// output byte-identical (the parallel merge reproduces the serial
/// provenance store exactly).
struct ProofNode {
  enum class Kind : uint8_t {
    kDerived,       ///< Interior node: fact derived by `clause_index`.
    kDatabaseFact,  ///< Leaf: stored EDB fact.
    kTidChoice,     ///< Leaf: ID-relation tuple (the run's ID-function
                    ///< choice); may carry the base derivation as child.
    kNegation,      ///< Leaf: a fact whose absence was checked.
    kBuiltin,       ///< Leaf: a satisfied built-in constraint.
    kCycle,         ///< Fact already being explained on this path.
    kDepthLimit,    ///< Subtree elided: depth budget reached.
    kNodeLimit,     ///< Siblings elided: node budget reached.
    kUnderivable,   ///< No derivation recorded and not a database fact.
  };
  Kind kind = Kind::kDerived;
  std::string label;      ///< Rendered fact / constraint text.
  int clause_index = -1;  ///< kDerived only.
  std::vector<ProofNode> children;
};

struct ProofTree {
  ProofNode root;
  WhyBudget budget;
  int nodes = 0;
  bool truncated = false;  ///< Some budget cut the tree somewhere.
};

/// Builds a bounded, cycle-safe proof tree for `pred(tuple)` from the
/// recorded derivations. `is_leaf` marks stored database facts: a fact
/// with no recorded derivation is a "[database fact]" leaf if it holds,
/// else "[underivable]".
ProofTree BuildProofTree(const ProvenanceStore& store,
                         const SymbolTable& symbols, const std::string& pred,
                         const Tuple& tuple,
                         const std::function<bool(const std::string&,
                                                  const Tuple&)>& is_leaf,
                         const WhyBudget& budget = WhyBudget());

/// Aligned indented text, one node per line with its annotation.
std::string RenderWhyText(const ProofTree& tree);

/// Deterministic `idlog-why-v1` JSON document (mode "why"); validated
/// against the strict RFC-8259 checker in tests.
std::string RenderWhyJson(const ProofTree& tree);

// ---------------------------------------------------------------------------
// WHY NOT: first-failing-premise analysis for a missing tuple.

/// Why one rule could not (re-)derive the queried tuple: the first
/// premise, in plan order, that has no solution given a satisfiable
/// binding of everything before it.
struct WhyNotFailure {
  enum class Class : uint8_t {
    kMissingSubgoal,   ///< Positive premise with no matching fact.
    kBlockedNegation,  ///< Negated premise whose fact is present.
    kFailedBuiltin,    ///< Built-in with no satisfying solution.
    kTidMismatch,      ///< ID premise: base tuple materialized, but
                       ///< under a different tid than required.
  };
  Class cls = Class::kMissingSubgoal;
  int step_index = -1;
  std::string rendered;   ///< Premise with bound args; `_` = unbound.
  bool ground = false;    ///< Every argument was bound at the failure.
  std::string predicate;  ///< Scan/negation premise base predicate.
  Tuple tuple;            ///< Ground probe (kMissingSubgoal, ground).
  std::string chosen_tid; ///< kTidMismatch: tid the model chose.
};

struct WhyNotNode;

/// Per-rule verdict for one analyzed fact.
struct WhyNotRule {
  int clause_index = -1;
  std::string rule_text;  ///< Source clause (empty if unavailable).
  bool unifies = false;   ///< Head unified with the queried tuple.
  bool derivable = false; ///< Body satisfiable (an interrupted run may
                          ///< have stopped before deriving the fact).
  WhyNotFailure failure;  ///< Valid when unifies && !derivable.
  std::unique_ptr<WhyNotNode> sub;  ///< Bounded recursion into a
                                    ///< ground missing premise.
};

/// One analyzed fact (the query, or a ground missing premise reached
/// by recursion).
struct WhyNotNode {
  std::string label;      ///< Rendered `pred(tuple)`.
  std::string predicate;
  Tuple tuple;
  bool holds = false;     ///< Present in the computed model after all.
  bool cycle = false;     ///< Already being analyzed on this path.
  bool no_rules = false;  ///< No clause derives this predicate.
  bool truncated = false; ///< A budget cut this node's analysis.
  std::string truncation; ///< Human marker naming the budget value.
  std::vector<WhyNotRule> rules;
};

struct WhyNotReport {
  WhyNotNode root;
  WhyBudget budget;
  int nodes = 0;
  bool truncated = false;
};

/// What the WHY NOT walker reads. The resolvers may return null
/// (unknown predicate / never-materialized ID-relation — both treated
/// as empty).
struct WhyNotContext {
  const std::vector<RulePlan>* plans = nullptr;
  /// Source text per clause index (optional; labels the report).
  const std::vector<std::string>* rule_texts = nullptr;
  const SymbolTable* symbols = nullptr;
  std::function<const Relation*(const std::string&)> full;
  std::function<const Relation*(const std::string&,
                                const std::vector<int>&)>
      id_relation;
};

/// Walks every rule whose head predicate matches `pred`, unifies the
/// head against `tuple`, and reports the first failing premise of each
/// unifying rule, recursing (bounded) into fully-ground missing
/// premises. Always terminates: recursion is depth/node-budgeted and
/// cycle-checked, and each step enumerates finite relations.
WhyNotReport BuildWhyNot(const WhyNotContext& ctx, const std::string& pred,
                         const Tuple& tuple,
                         const WhyBudget& budget = WhyBudget());

std::string RenderWhyNotText(const WhyNotReport& report);

/// Deterministic `idlog-why-v1` JSON document (mode "why-not").
std::string RenderWhyNotJson(const WhyNotReport& report);

}  // namespace idlog

#endif  // IDLOG_OBS_WHY_H_
