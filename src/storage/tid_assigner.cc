#include "storage/tid_assigner.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace idlog {

void IdentityTidAssigner::AssignGroup(const GroupContext& ctx, size_t n,
                                      std::vector<uint32_t>* tids) {
  (void)ctx;
  tids->resize(n);
  std::iota(tids->begin(), tids->end(), 0u);
}

void RandomTidAssigner::AssignGroup(const GroupContext& ctx, size_t n,
                                    std::vector<uint32_t>* tids) {
  (void)ctx;
  tids->resize(n);
  std::iota(tids->begin(), tids->end(), 0u);
  std::shuffle(tids->begin(), tids->end(), rng_);
}

std::string RandomTidAssigner::SaveState() const {
  std::ostringstream out;
  out << rng_;
  return out.str();
}

Status RandomTidAssigner::RestoreState(const std::string& state) {
  std::istringstream in(state);
  in >> rng_;
  if (in.fail()) {
    return Status::InvalidArgument(
        "snapshot carries a malformed random-assigner RNG state");
  }
  return Status::OK();
}

std::string ScriptedTidAssigner::SaveState() const {
  std::ostringstream out;
  out << pos_ << ' ' << script_.size();
  for (uint64_t r : script_) out << ' ' << r;
  out << ' ' << radices_.size();
  for (uint64_t r : radices_) out << ' ' << r;
  return out.str();
}

Status ScriptedTidAssigner::RestoreState(const std::string& state) {
  std::istringstream in(state);
  // A list is its length, then its entries. Each entry takes a
  // separator and at least one digit, so a length the state string
  // cannot hold fails the read before anything is sized from it.
  auto read_list = [&in, &state](std::vector<uint64_t>* list) {
    size_t n = 0;
    in >> n;
    if (n > state.size() / 2) in.setstate(std::ios::failbit);
    if (in.fail()) return;
    list->resize(n);
    for (uint64_t& r : *list) in >> r;
  };
  size_t pos = 0;
  std::vector<uint64_t> script;
  std::vector<uint64_t> radices;
  in >> pos;
  read_list(&script);
  read_list(&radices);
  if (in.fail()) {
    return Status::InvalidArgument(
        "snapshot carries a malformed scripted-assigner state");
  }
  pos_ = pos;
  script_ = std::move(script);
  radices_ = std::move(radices);
  return Status::OK();
}

void ScriptedTidAssigner::SetScript(std::vector<uint64_t> ranks) {
  script_ = std::move(ranks);
  pos_ = 0;
}

void ScriptedTidAssigner::AssignGroup(const GroupContext& ctx, size_t n,
                                      std::vector<uint32_t>* tids) {
  (void)ctx;
  uint64_t rank = 0;
  if (pos_ < script_.size()) {
    rank = script_[pos_];
  } else {
    radices_.push_back(SaturatingFactorial(n));
  }
  ++pos_;
  UnrankPermutation(rank, n, tids);
}

uint64_t SaturatingFactorial(size_t n) {
  uint64_t f = 1;
  for (size_t i = 2; i <= n; ++i) {
    if (f > UINT64_MAX / i) return UINT64_MAX;
    f *= i;
  }
  return f;
}

void UnrankPermutation(uint64_t rank, size_t n, std::vector<uint32_t>* perm) {
  perm->resize(n);
  // Factorial number system: digit i (from the most significant) selects
  // among the remaining elements.
  std::vector<uint32_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0u);
  std::vector<uint64_t> fact(n, 1);
  for (size_t i = 1; i < n; ++i) {
    uint64_t prev = fact[i - 1];
    fact[i] = (prev > UINT64_MAX / i) ? UINT64_MAX : prev * i;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t f = fact[n - 1 - i];
    uint64_t digit = (f == 0 || f == UINT64_MAX) ? 0 : rank / f;
    if (digit >= pool.size()) digit = pool.size() - 1;
    if (f != 0 && f != UINT64_MAX) rank %= f;
    (*perm)[i] = pool[static_cast<size_t>(digit)];
    pool.erase(pool.begin() + static_cast<long>(digit));
  }
}

}  // namespace idlog
