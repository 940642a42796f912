#ifndef IDLOG_COMMON_SYMBOL_TABLE_H_
#define IDLOG_COMMON_SYMBOL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace idlog {

/// Identifier of an interned uninterpreted constant (sort-u value).
using SymbolId = uint32_t;

/// Interns uninterpreted-domain constants (the paper's universal domain U)
/// as dense integer ids so tuples are flat 64-bit arrays.
///
/// Each spelling is stored once, in `names_` at its id (ids are dense
/// and handed out in first-seen order). Lookup is a flat open-addressing
/// table of ids hashed over those stored names, the layout of
/// Relation's membership table: a slot holds an id and 32 bits of the
/// spelling's hash, which also pick its home slot, so a probe compares
/// a stored name only on a matching hash, and growing the table hashes
/// no name again. The table is a power of two, at most half full, with
/// linear probes. Intern copies text only for a new symbol.
///
/// Not thread-safe; one table per engine / test.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  /// The most symbols a table holds; one more throws std::length_error.
  static constexpr size_t kMaxSymbols = size_t{1} << 31;

  /// Returns the id of `name`, interning it if new.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` or kNoSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the spelling of an interned symbol. `id` must be valid.
  const std::string& NameOf(SymbolId id) const { return names_[id]; }

  /// Number of interned symbols.
  size_t size() const { return names_.size(); }

  /// Approximate heap bytes of the intern pool: one std::string per
  /// symbol, its spelling's heap buffer when it is too long for the
  /// string's inline storage, and the id table's 8-byte slots. A
  /// logical quantity — interning happens during parse/load, so it is
  /// identical across --jobs settings.
  uint64_t approx_bytes() const;

  static constexpr SymbolId kNoSymbol = UINT32_MAX;

 private:
  /// An id-table slot: the id it names plus one (0 = empty), and the
  /// upper 32 bits of the spelling's mixed hash (its tag).
  struct Slot {
    uint32_t id1 = 0;
    uint32_t tag = 0;
  };

  /// The home slot of `tag`: its top log2(capacity) bits.
  size_t Home(uint32_t tag) const;
  /// The slot naming `name`, or the empty slot that ends its probe
  /// chain. The table must not be empty.
  size_t Find(std::string_view name, uint32_t tag) const;
  /// Doubles the table (from empty: its minimum size) and re-places
  /// every slot by its tag.
  void Grow();

  std::vector<std::string> names_;
  /// A power-of-two number of slots, at most half full; empty until the
  /// first Intern.
  std::vector<Slot> table_;
};

/// A set of symbol ids as a bitset over the dense id space: Insert and
/// Contains are one bit operation, and iteration yields the ids in
/// ascending order (the order a std::set<SymbolId> would). The bitset
/// grows to the largest id inserted.
class SymbolSet {
 public:
  /// Forward iterator over the members, ascending.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SymbolId;
    using difference_type = std::ptrdiff_t;
    using pointer = const SymbolId*;
    using reference = SymbolId;

    const_iterator() = default;
    SymbolId operator*() const { return static_cast<SymbolId>(pos_); }
    const_iterator& operator++() {
      pos_ = set_->NextFrom(pos_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class SymbolSet;
    const_iterator(const SymbolSet* set, size_t pos) : set_(set), pos_(pos) {}

    const SymbolSet* set_ = nullptr;
    /// A member id, or the bitset's width for end().
    size_t pos_ = 0;
  };

  /// Adds `id`; true if it was not a member yet.
  bool Insert(SymbolId id);

  bool Contains(SymbolId id) const {
    const size_t w = id / 64;
    return w < words_.size() && ((words_[w] >> (id % 64)) & 1) != 0;
  }

  /// Number of members.
  size_t size() const { return count_; }

  const_iterator begin() const { return const_iterator(this, NextFrom(0)); }
  const_iterator end() const { return const_iterator(this, Width()); }

 private:
  size_t Width() const { return words_.size() * 64; }
  /// The smallest member at or after `pos`, or Width() if none.
  size_t NextFrom(size_t pos) const;

  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace idlog

#endif  // IDLOG_COMMON_SYMBOL_TABLE_H_
