// Lazily allocated FIFO ring for the simulator's per-port queues.
//
// Why not a deque: libstdc++'s allocates a map and a 512-byte node as
// soon as it is constructed. The fabric holds one queue per channel and
// one per input port, and the single-multicast panels build a fresh
// Engine + McastDriver per sample, so deques would cost hundreds of
// allocations per sample before a cycle is simulated. A Fifo holds no
// storage until its first push.
// It then keeps a power-of-two ring that doubles when full and never
// shrinks: pushes and pops are amortised O(1), and a queue that keeps
// being refilled stops allocating. Only live elements are constructed,
// so move-only elements (EventQueue::Action) are destroyed exactly once.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/expect.hpp"

namespace irmc {

template <class T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  Fifo() noexcept = default;
  /// A moved-from Fifo is empty and holds no storage.
  Fifo(Fifo&& other) noexcept
      : ring_(std::exchange(other.ring_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      Free();
      ring_ = std::exchange(other.ring_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { Free(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Elements the ring holds before it next grows; 0 until the first push.
  std::size_t capacity() const { return cap_; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    IRMC_EXPECT(i < size_);
    return ring_[Slot(i)];
  }
  const T& operator[](std::size_t i) const {
    IRMC_EXPECT(i < size_);
    return ring_[Slot(i)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) Grow();
    T* slot = ring_ + Slot(size_);
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void pop_front() {
    IRMC_EXPECT(size_ > 0);
    std::destroy_at(ring_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  std::size_t Slot(std::size_t i) const { return (head_ + i) & (cap_ - 1); }

  void Grow() {
    const std::size_t cap = cap_ == 0 ? kFirstCapacity : 2 * cap_;
    T* ring = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = ring_ + Slot(i);
      std::construct_at(ring + i, std::move(*from));
      std::destroy_at(from);
    }
    if (ring_ != nullptr) std::allocator<T>().deallocate(ring_, cap_);
    ring_ = ring;
    cap_ = cap;
    head_ = 0;
  }

  void Free() noexcept {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(ring_ + Slot(i));
    if (ring_ != nullptr) std::allocator<T>().deallocate(ring_, cap_);
    ring_ = nullptr;
    cap_ = head_ = size_ = 0;
  }

  T* ring_ = nullptr;
  std::size_t cap_ = 0;   ///< 0 or a power of two
  std::size_t head_ = 0;  ///< ring index of the front element
  std::size_t size_ = 0;
};

}  // namespace irmc
