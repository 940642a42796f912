#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_set>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001B3ull + stream);
  return rng.Next();
}

std::vector<Edge> RandomGraph(int nodes, int edges, Rng* rng) {
  std::vector<Edge> out;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(out.size()) < edges) {
    int a = static_cast<int>(rng->Below(nodes));
    int b = static_cast<int>(rng->Below(nodes));
    if (a == b) continue;
    if (!seen.insert(static_cast<uint64_t>(a) * nodes + b).second) continue;
    out.emplace_back(a, b);
  }
  return out;
}

std::vector<Edge> Closure(int nodes, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> adj(nodes);
  for (const Edge& e : edges) adj[e.first].push_back(e.second);
  std::vector<Edge> out;
  std::vector<int> seen(nodes, -1);
  std::vector<int> queue;
  for (int src = 0; src < nodes; ++src) {
    queue.clear();
    for (int next : adj[src]) {
      if (seen[next] != src) {
        seen[next] = src;
        queue.push_back(next);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      for (int next : adj[queue[i]]) {
        if (seen[next] != src) {
          seen[next] = src;
          queue.push_back(next);
        }
      }
    }
    std::sort(queue.begin(), queue.end());
    for (int dst : queue) out.emplace_back(src, dst);
  }
  return out;
}

std::string RenderPairs(const std::vector<Edge>& pairs) {
  std::string out;
  out.reserve(pairs.size() * 14 + 24);
  char line[64];
  for (const Edge& p : pairs) {
    int n = std::snprintf(line, sizeof(line), "  (%d, %d)\n", p.first,
                          p.second);
    out.append(line, n);
  }
  out += "(" + std::to_string(pairs.size()) + " tuples)\n";
  return out;
}

std::string EdgesCsv(const std::vector<Edge>& edges) {
  std::string out;
  for (const Edge& e : edges) {
    out += std::to_string(e.first) + "," + std::to_string(e.second) + "\n";
  }
  return out;
}

const char kTcProgram[] =
    ".decl edge(i, i).\n"
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- path(X, Y), edge(Y, Z).\n";

const char kCompanyProgram[] =
    "survey(N, D) :- emp[2](N, D, S, T), T < 3.\n"
    "rep(D) :- emp[2](N, D, S, 0).\n"
    "multi(D) :- emp[2](N, D, S, 1).\n"
    "solo(D) :- rep(D), not multi(D).\n"
    "staffed(D) :- emp(N, D, S), mgr(D, M).\n"
    "top(N, D) :- survey(N, D), emp(N, D, S), S > 50, staffed(D), "
    "not solo(D).\n";

Company RandomCompany(int depts, int max_dept_size, Rng* rng) {
  Company c;
  c.dept_size.assign(depts, 0);
  c.has_mgr.assign(depts, false);
  for (int d = 0; d < depts; ++d) {
    c.has_mgr[d] = rng->Below(2) == 0;
    int size = 1 + static_cast<int>(rng->Below(max_dept_size));
    c.dept_size[d] = size;
    for (int i = 0; i < size; ++i) {
      c.emps.push_back(Employee{d, static_cast<int>(rng->Below(101))});
    }
  }
  // Shuffle so the CSV does not list each department contiguously.
  for (size_t i = c.emps.size(); i > 1; --i) {
    std::swap(c.emps[i - 1], c.emps[rng->Below(i)]);
  }
  return c;
}

std::string EmpCsv(const Company& company) {
  std::string out;
  for (size_t i = 0; i < company.emps.size(); ++i) {
    const Employee& e = company.emps[i];
    out += "n" + std::to_string(i) + ",d" + std::to_string(e.dept) + "," +
           std::to_string(e.salary) + "\n";
  }
  return out;
}

std::string MgrCsv(const Company& company) {
  std::string out;
  for (size_t d = 0; d < company.has_mgr.size(); ++d) {
    if (company.has_mgr[d]) {
      out += "d" + std::to_string(d) + ",m" + std::to_string(d) + "\n";
    }
  }
  return out;
}

std::string CheckTop(const Company& company, const std::string& rendered) {
  const int depts = static_cast<int>(company.dept_size.size());
  std::vector<int> top_per_dept(depts, 0);
  std::set<int> names;
  size_t rows = 0;
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t end = rendered.find('\n', pos);
    if (end == std::string::npos) return "unterminated line";
    std::string line = rendered.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("  (", 0) != 0) {
      if (pos != rendered.size()) return "footer before the last line";
      if (line != "(" + std::to_string(rows) + " tuples)") {
        return "bad footer: " + line;
      }
      break;
    }
    int name = -1, dept = -1;
    if (std::sscanf(line.c_str(), "  (n%d, d%d)", &name, &dept) != 2 ||
        name < 0 || name >= static_cast<int>(company.emps.size())) {
      return "unparsable row: " + line;
    }
    ++rows;
    const Employee& e = company.emps[name];
    if (e.dept != dept) return "no emp row for " + line;
    if (e.salary <= 50) return "salary not above 50 in " + line;
    if (!company.has_mgr[dept]) return "department without mgr in " + line;
    if (company.dept_size[dept] < 2) return "solo department in " + line;
    if (!names.insert(name).second) return "duplicate row " + line;
    if (++top_per_dept[dept] > 3) return "more than 3 rows for d" +
                                         std::to_string(dept);
  }
  // Where every employee earns above 50, the survey sample is all top:
  // exactly min(3, size) rows, whatever the tids.
  std::vector<bool> all_high(depts, true);
  for (const Employee& e : company.emps) {
    if (e.salary <= 50) all_high[e.dept] = false;
  }
  for (int d = 0; d < depts; ++d) {
    if (all_high[d] && company.has_mgr[d] && company.dept_size[d] >= 2 &&
        top_per_dept[d] != std::min(3, company.dept_size[d])) {
      return "d" + std::to_string(d) + " has " +
             std::to_string(top_per_dept[d]) + " rows, expected " +
             std::to_string(std::min(3, company.dept_size[d]));
    }
  }
  return "";
}

}  // namespace perfbench
