// Dynamic bitset over node IDs.
//
// This is the in-memory form of the paper's "bit-string" headers and
// reachability strings (Section 3.2.3): bit i set means node i is a
// member. Sized at construction to the system's node count.
//
// Two forms:
//  * NodeSet     — owning (worm headers, temporaries). The words of a
//    set of up to 256 nodes live inline, so building, copying and
//    narrowing a worm header allocates nothing; larger sets use the
//    heap.
//  * NodeSetView — non-owning words+bits view. Reachability stores all
//    of a System's strings in one word arena and hands out views, so a
//    per-hop string lookup allocates nothing. A NodeSet converts
//    implicitly to a view; every read-only operation takes views, so
//    the two mix freely. A view of an inline NodeSet points into the
//    set object itself: it does not survive a move of that set.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace irmc {

class NodeSet;

/// Non-owning view of a bitset: a word pointer and a bit count. Valid
/// only while the owning storage (NodeSet or Reachability arena) lives
/// and, for a NodeSet, until that set is moved or reassigned.
class NodeSetView {
 public:
  NodeSetView() = default;
  NodeSetView(const std::uint64_t* words, int num_bits)
      : words_(words), num_bits_(num_bits) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate — lets every
  // read-only set operation accept NodeSet and view alike.
  NodeSetView(const NodeSet& s);

  int capacity() const { return num_bits_; }
  std::size_t num_words() const {
    return static_cast<std::size_t>((num_bits_ + 63) / 64);
  }
  const std::uint64_t* words() const { return words_; }

  bool Test(NodeId n) const {
    IRMC_EXPECT(n >= 0 && n < num_bits_);
    return (words_[static_cast<std::size_t>(n) / 64] &
            (std::uint64_t{1} << (static_cast<std::size_t>(n) % 64))) != 0;
  }

  bool Empty() const {
    for (std::size_t i = 0; i < num_words(); ++i)
      if (words_[i] != 0) return false;
    return true;
  }

  int Count() const {
    int c = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      c += __builtin_popcountll(words_[i]);
    return c;
  }

  bool Intersects(NodeSetView o) const {
    CheckCompat(o);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & o.words_[i]) != 0) return true;
    return false;
  }

  bool IsSubsetOf(NodeSetView o) const {
    CheckCompat(o);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    return true;
  }

  /// True when every member lies in `a` or `b` — IsSubsetOf(a | b)
  /// without materializing the union (hot in tree-worm climbing).
  bool IsSubsetOfUnion(NodeSetView a, NodeSetView b) const {
    CheckCompat(a);
    CheckCompat(b);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & ~(a.words_[i] | b.words_[i])) != 0) return false;
    return true;
  }

  bool operator==(NodeSetView o) const {
    if (num_bits_ != o.num_bits_) return false;
    for (std::size_t i = 0; i < num_words(); ++i)
      if (words_[i] != o.words_[i]) return false;
    return true;
  }

  /// Calls visit(n) for every member n in ascending order.
  template <class Visit>
  void ForEach(Visit visit) const {
    for (std::size_t i = 0; i < num_words(); ++i)
      for (std::uint64_t w = words_[i]; w != 0; w &= w - 1)
        visit(static_cast<NodeId>(
            i * 64 + static_cast<std::size_t>(__builtin_ctzll(w))));
  }

  /// Members in ascending order.
  std::vector<NodeId> ToVector() const {
    std::vector<NodeId> out;
    out.reserve(static_cast<std::size_t>(Count()));
    ForEach([&out](NodeId n) { out.push_back(n); });
    return out;
  }

  /// Materializes an owning copy.
  NodeSet ToSet() const;

  /// Encoded size of the bit-string header in flits (1 flit = 1 byte).
  int HeaderFlits() const { return (num_bits_ + 7) / 8; }

 private:
  void CheckCompat(NodeSetView o) const {
    IRMC_EXPECT(num_bits_ == o.num_bits_);
  }

  const std::uint64_t* words_ = nullptr;
  int num_bits_ = 0;
};

class NodeSet {
 public:
  /// Sets of up to this many nodes keep their words inline (every
  /// configuration in the repository); only larger ones use the heap.
  static constexpr int kInlineNodes = 256;

  NodeSet() = default;
  explicit NodeSet(int num_nodes) : num_bits_(num_nodes) {
    IRMC_EXPECT(num_nodes >= 0);
    if (num_words() > kInlineWords)
      heap_ = std::make_unique<std::uint64_t[]>(num_words());  // zeroed
  }
  /// Keyed on the size, not on `o.heap_`, so the compiler sees that a
  /// copy of an inline set never reaches the heap path.
  NodeSet(const NodeSet& o)
      : num_bits_(o.num_bits_),
        inline_(o.inline_),
        heap_(o.num_words() > kInlineWords
                  ? std::make_unique_for_overwrite<std::uint64_t[]>(
                        o.num_words())
                  : nullptr) {
    if (num_words() > kInlineWords)
      std::copy_n(o.heap_.get(), num_words(), heap_.get());
  }
  /// A moved-from set is empty with capacity 0.
  NodeSet(NodeSet&& o) noexcept
      : num_bits_(std::exchange(o.num_bits_, 0)),
        inline_(o.inline_),
        heap_(std::move(o.heap_)) {}
  NodeSet& operator=(const NodeSet& o) {
    if (this != &o) *this = NodeSet(o);
    return *this;
  }
  NodeSet& operator=(NodeSet&& o) noexcept {
    num_bits_ = std::exchange(o.num_bits_, 0);
    inline_ = o.inline_;
    heap_ = std::move(o.heap_);
    return *this;
  }
  ~NodeSet() = default;

  int capacity() const { return num_bits_; }

  void Set(NodeId n) {
    CheckIndex(n);
    data()[WordOf(n)] |= BitOf(n);
  }

  void Clear(NodeId n) {
    CheckIndex(n);
    data()[WordOf(n)] &= ~BitOf(n);
  }

  bool Test(NodeId n) const {
    CheckIndex(n);
    return (words()[WordOf(n)] & BitOf(n)) != 0;
  }

  bool Empty() const { return NodeSetView(*this).Empty(); }
  int Count() const { return NodeSetView(*this).Count(); }

  NodeSet& operator|=(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= o.words()[i];
    return *this;
  }

  NodeSet& operator&=(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= o.words()[i];
    return *this;
  }

  /// Remove every member of `o` from this set.
  NodeSet& Subtract(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ~o.words()[i];
    return *this;
  }

  bool operator==(const NodeSet& o) const {
    return NodeSetView(*this) == NodeSetView(o);
  }

  bool Intersects(NodeSetView o) const {
    return NodeSetView(*this).Intersects(o);
  }
  bool IsSubsetOf(NodeSetView o) const {
    return NodeSetView(*this).IsSubsetOf(o);
  }
  bool IsSubsetOfUnion(NodeSetView a, NodeSetView b) const {
    return NodeSetView(*this).IsSubsetOfUnion(a, b);
  }

  template <class Visit>
  void ForEach(Visit visit) const {
    NodeSetView(*this).ForEach(visit);
  }

  /// Members in ascending order.
  std::vector<NodeId> ToVector() const {
    return NodeSetView(*this).ToVector();
  }

  static NodeSet FromVector(int num_nodes, const std::vector<NodeId>& v) {
    NodeSet s(num_nodes);
    for (NodeId n : v) s.Set(n);
    return s;
  }

  /// Encoded size of the bit-string header in flits (1 flit = 1 byte).
  int HeaderFlits() const { return (num_bits_ + 7) / 8; }

  const std::uint64_t* words() const {
    return heap_ ? heap_.get() : inline_.data();
  }
  std::size_t num_words() const {
    return static_cast<std::size_t>((num_bits_ + 63) / 64);
  }

 private:
  friend class NodeSetView;  // ToSet fills a fresh set's words

  static constexpr std::size_t kInlineWords = kInlineNodes / 64;

  std::uint64_t* data() { return heap_ ? heap_.get() : inline_.data(); }
  static std::size_t WordOf(NodeId n) {
    return static_cast<std::size_t>(n) / 64;
  }
  static std::uint64_t BitOf(NodeId n) {
    return std::uint64_t{1} << (static_cast<std::size_t>(n) % 64);
  }
  void CheckIndex(NodeId n) const {
    IRMC_EXPECT(n >= 0 && n < num_bits_);
  }
  void CheckCompat(NodeSetView o) const {
    IRMC_EXPECT(num_bits_ == o.capacity());
  }

  int num_bits_ = 0;
  /// The words while num_words() <= kInlineWords (unused beyond them).
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::unique_ptr<std::uint64_t[]> heap_;  ///< the words of a larger set
};

inline NodeSetView::NodeSetView(const NodeSet& s)
    : words_(s.words()), num_bits_(s.capacity()) {}

inline NodeSet NodeSetView::ToSet() const {
  NodeSet out(num_bits_);
  std::copy_n(words_, num_words(), out.data());
  return out;
}

/// Binary set algebra over views (NodeSets convert implicitly); the
/// result is always a fresh owning NodeSet.
inline NodeSet operator|(NodeSetView a, NodeSetView b) {
  NodeSet out = a.ToSet();
  out |= b;
  return out;
}
inline NodeSet operator&(NodeSetView a, NodeSetView b) {
  NodeSet out = a.ToSet();
  out &= b;
  return out;
}

}  // namespace irmc
