// Seeded input generators and the engine-free reference answers the
// benchmark checks every output against.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: a small generator whose sequence is fixed by its seed on
/// every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Mixes a workload seed with a stream index into an independent seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

using Edge = std::pair<int, int>;

/// `edges` distinct directed edges without self-loops over nodes
/// 0..nodes-1, in generation order.
std::vector<Edge> RandomGraph(int nodes, int edges, Rng* rng);

/// The transitive closure of `edges`, by breadth-first search from every
/// node, in the numeric order the engine sorts sort-i tuples.
std::vector<Edge> Closure(int nodes, const std::vector<Edge>& edges);

/// Renders pairs exactly as the CLI's PrintRelation prints a binary
/// relation of integers.
std::string RenderPairs(const std::vector<Edge>& pairs);

std::string EdgesCsv(const std::vector<Edge>& edges);

/// Transitive closure over `edge`, left-linear. The declaration gives
/// the integer node columns their sort; without it the program infers
/// sort u for them.
extern const char kTcProgram[];

/// The paper's company program (Examples 4-6): a per-department survey
/// sample, representatives and solo departments via ID-literals and
/// negation, and `staffed`, which OptimizeForOutput rewrites to
/// ID-literals.
extern const char kCompanyProgram[];

struct Employee {
  int dept = 0;
  int salary = 0;
};

/// emp(Name, Dept, Salary) rows, with names "n<index>" and departments
/// "d<dept>"; mgr(Dept, Manager) rows for about half the departments.
struct Company {
  std::vector<Employee> emps;    ///< Indexed by name number.
  std::vector<int> dept_size;    ///< Employees per department.
  std::vector<bool> has_mgr;     ///< Per department.
};

Company RandomCompany(int depts, int max_dept_size, Rng* rng);
std::string EmpCsv(const Company& company);
std::string MgrCsv(const Company& company);

/// Checks a rendered `top` answer against invariants that hold under
/// every legal tid assignment (genericity, paper Section 3.1). Each line
/// is "  (n<i>, d<j>)". Returns "" when all hold, else the first
/// violation.
std::string CheckTop(const Company& company, const std::string& rendered);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
