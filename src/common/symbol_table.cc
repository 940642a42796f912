#include "common/symbol_table.h"

#include <bit>
#include <functional>
#include <stdexcept>
#include <utility>

namespace idlog {

namespace {

/// The smallest non-empty table: 8 slots (64 bytes).
constexpr int kMinTableBits = 3;

/// Spellings up to this length live inside the std::string itself
/// (libstdc++'s small-string buffer).
constexpr size_t kInlineNameBytes = 15;

/// The upper 32 bits of the spelling's hash after a Fibonacci multiply:
/// a slot's tag, whose top bits are its home slot.
uint32_t TagOf(std::string_view name) {
  const uint64_t h =
      static_cast<uint64_t>(std::hash<std::string_view>()(name));
  return static_cast<uint32_t>((h * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

size_t SymbolTable::Home(uint32_t tag) const {
  return tag >> (32 - std::countr_zero(table_.size()));
}

size_t SymbolTable::Find(std::string_view name, uint32_t tag) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = Home(tag);; i = (i + 1) & mask) {
    const Slot& slot = table_[i];
    if (slot.id1 == 0) return i;
    if (slot.tag == tag && names_[slot.id1 - 1] == name) return i;
  }
}

void SymbolTable::Grow() {
  const size_t capacity =
      table_.empty() ? size_t{1} << kMinTableBits : 2 * table_.size();
  const std::vector<Slot> old =
      std::exchange(table_, std::vector<Slot>(capacity));
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id1 == 0) continue;
    size_t i = Home(slot.tag);
    while (table_[i].id1 != 0) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

SymbolId SymbolTable::Intern(std::string_view name) {
  const uint32_t tag = TagOf(name);
  size_t i = 0;
  if (!table_.empty()) {
    i = Find(name, tag);
    if (table_[i].id1 != 0) return table_[i].id1 - 1;
  }
  if (names_.size() == kMaxSymbols) {
    throw std::length_error("SymbolTable: more than 2^31 symbols");
  }
  if ((names_.size() + 1) * 2 > table_.size()) {
    Grow();
    i = Find(name, tag);
  }
  const SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  table_[i] = Slot{id + 1, tag};
  return id;
}

SymbolId SymbolTable::Lookup(std::string_view name) const {
  if (table_.empty()) return kNoSymbol;
  const Slot& slot = table_[Find(name, TagOf(name))];
  return slot.id1 == 0 ? kNoSymbol : slot.id1 - 1;
}

uint64_t SymbolTable::approx_bytes() const {
  uint64_t bytes = static_cast<uint64_t>(names_.size()) * sizeof(std::string) +
                   static_cast<uint64_t>(table_.size()) * sizeof(Slot);
  for (const std::string& name : names_) {
    if (name.size() > kInlineNameBytes) bytes += name.size() + 1;
  }
  return bytes;
}

bool SymbolSet::Insert(SymbolId id) {
  const size_t w = id / 64;
  if (w >= words_.size()) words_.resize(w + 1);
  const uint64_t bit = uint64_t{1} << (id % 64);
  if ((words_[w] & bit) != 0) return false;
  words_[w] |= bit;
  ++count_;
  return true;
}

size_t SymbolSet::NextFrom(size_t pos) const {
  size_t w = pos / 64;
  if (w >= words_.size()) return Width();
  // The current word's members at or after `pos`, then whole words.
  uint64_t bits = words_[w] & (~uint64_t{0} << (pos % 64));
  while (bits == 0) {
    if (++w == words_.size()) return Width();
    bits = words_[w];
  }
  return w * 64 + static_cast<size_t>(std::countr_zero(bits));
}

}  // namespace idlog
