// Deterministic discrete-event queue: a calendar of one-cycle buckets.
//
// Events fire in (time, insertion order): equal timestamps run in the
// order they were scheduled, so a simulation is bit-reproducible from its
// seed.
//
// Layout. A ring of kWindow FIFO buckets holds every event due in
// [Now(), Now() + kWindow), one bucket per cycle, with an occupancy bitmap
// to find the next non-empty one. Events due later (message arrivals,
// mostly) wait in a small (time, seq) min-heap. When Now()
// advances, the heap events that enter the window move to their buckets
// in (time, seq) order before any event at the new time runs; a heap
// event is always older than any event scheduled straight into the same
// bucket, so bucket order stays insertion order.
//
// Actions are stored inline (no heap allocation per event) in a recycled
// slot arena of 64-byte slots; buckets and the heap hold 32-bit slot ids.
// The bucket ring is a member array left uninitialised (a bucket is read
// only while its occupancy bit is set, and setting the bit writes it), so
// a fresh queue allocates and clears nothing. The slot arena is allocated
// on the first event, at the size ReserveSlots asked for (the network
// sizes it from its System), and doubles only beyond that; the heap grows
// on the first far event.
//
// Dispatch. RunUntil finds the next timestamp once, then drains that
// cycle's bucket until its occupancy bit clears; an event scheduled at
// Now() during the drain joins the same bucket's tail and runs in the
// same pass. RunNext runs one event through the same pop-and-run step.
// That step recycles the event's slot first, then Action::RunOnce moves
// the callable onto the stack, destroys the source, runs the callable
// and destroys it: one indirect call per event. Nothing touches the slot
// after the callable has moved out, so an event may schedule into its
// own slot or grow the arena while it runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace irmc {

class EventQueue {
 public:
  /// Move-only `void()` callable with a fixed inline buffer. A capture
  /// larger than kInlineBytes is a compile error, not a heap fallback:
  /// capture an index or a pointer instead of a bulky value.
  class Action {
   public:
    /// With the 8-byte ops pointer and the slot's 4-byte link, a slot
    /// is exactly 64 bytes (one cache line's worth, not over-aligned).
    static constexpr std::size_t kInlineBytes = 48;

    Action() noexcept = default;

    // Implicit on purpose: a lambda passes wherever an Action is taken.
    template <class F, class = std::enable_if_t<
                           !std::is_same_v<std::decay_t<F>, Action>>>
    Action(F&& fn) {
      Emplace(std::forward<F>(fn));
    }

    /// Replaces the stored callable with `fn`, constructed in place.
    template <class F>
    void Emplace(F&& fn) {
      using Fn = std::decay_t<F>;
      static_assert(!std::is_same_v<Fn, Action>);
      static_assert(sizeof(Fn) <= kInlineBytes,
                    "event capture exceeds the 48-byte inline buffer");
      static_assert(alignof(Fn) <= alignof(void*),
                    "over-aligned event captures are not supported");
      static_assert(std::is_nothrow_move_constructible_v<Fn>);
      static_assert(std::is_invocable_r_v<void, Fn&>);
      Reset();
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kOps<Fn>;
    }

    Action(Action&& other) noexcept { Take(other); }
    Action& operator=(Action&& other) noexcept {
      if (this != &other) {
        Reset();
        Take(other);
      }
      return *this;
    }
    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;
    ~Action() { Reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }
    void operator()() { ops_->invoke(buf_); }

    /// Runs the callable once and leaves the action empty, in one
    /// indirect call. The callable moves out of this action before it
    /// runs, so the run may overwrite or free the storage this action
    /// lives in.
    void RunOnce() {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->run(buf_);
    }

   private:
    /// Destroys the stored callable (and its captures), leaving it empty.
    void Reset() noexcept {
      if (ops_ != nullptr) {
        ops_->destroy(buf_);
        ops_ = nullptr;
      }
    }

    struct Ops {
      void (*invoke)(void*);
      /// Moves the callable from src onto the stack, destroys src, then
      /// runs and destroys the moved callable.
      void (*run)(void* src);
      /// Move-constructs the callable at dst from src, then destroys src.
      void (*relocate)(void* dst, void* src) noexcept;
      void (*destroy)(void*) noexcept;
    };
    template <class Fn>
    static void Invoke(void* p) {
      (*static_cast<Fn*>(p))();
    }
    template <class Fn>
    static void Run(void* src) {
      Fn* from = static_cast<Fn*>(src);
      Fn fn(std::move(*from));
      from->~Fn();
      fn();
    }
    template <class Fn>
    static void Relocate(void* dst, void* src) noexcept {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    template <class Fn>
    static void Destroy(void* p) noexcept {
      static_cast<Fn*>(p)->~Fn();
    }
    template <class Fn>
    static constexpr Ops kOps{&Invoke<Fn>, &Run<Fn>, &Relocate<Fn>,
                              &Destroy<Fn>};

    void Take(Action& other) noexcept {
      if (other.ops_ == nullptr) return;
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }

    alignas(void*) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  /// Calendar span in cycles (a power of two), sized from the measured
  /// delay spread: on a fig9 load run 94% of events are scheduled less
  /// than 1024 cycles ahead and 98% less than 2048 (a 1024-flit
  /// message's tail delay just exceeds 1024). 2048 ran ~4% faster than
  /// 1024; 4096 gained nothing more.
  static constexpr Cycles kWindow = 2048;

  /// Allocates nothing. User-provided, so even a value-initialised
  /// queue leaves its bucket ring unwritten.
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` (an Action, or any callable an Action can hold) at
  /// absolute time `when` (>= current Now()).
  template <class F>
  void ScheduleAt(Cycles when, F&& fn) {
    IRMC_EXPECT(when >= now_);
    const std::uint32_t id = NewSlot();
    Action& action = slots_[id].action;
    if constexpr (std::is_same_v<std::decay_t<F>, Action>) {
      IRMC_EXPECT(static_cast<bool>(fn));
      action = std::move(fn);
    } else {
      action.Emplace(std::forward<F>(fn));
    }
    Insert(when, id);
  }

  /// Makes the slot arena's first allocation hold at least `n` slots.
  /// Allocates nothing; a no-op once the arena exists.
  void ReserveSlots(std::size_t n) {
    first_slots_ = n > first_slots_ ? n : first_slots_;
  }

  /// True when no events remain. There is no total count to keep in
  /// step: GCC fused its decrement with in_window_'s into one 16-byte
  /// load of two counters stored separately, a store-forwarding stall.
  bool Empty() const { return in_window_ == 0 && overflow_.empty(); }

  /// Runs every event due at or before `deadline`, those scheduled while
  /// it runs included, in (time, insertion) order, advancing Now() to the
  /// last one's timestamp. Each cycle's bucket is drained in one pass.
  void RunUntil(Cycles deadline = kNever);

  /// Runs the next event if it is due at or before `deadline`, advancing
  /// Now() to its timestamp. Returns false, running nothing, when the
  /// queue is empty or the next event is later than `deadline`.
  bool RunNext(Cycles deadline = kNever);

  /// Current simulated time (timestamp of the last event run).
  Cycles Now() const { return now_; }

  /// Number of events executed so far (for perf benches).
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMask = static_cast<std::size_t>(kWindow) - 1;
  static constexpr std::size_t kWords = static_cast<std::size_t>(kWindow) / 64;
  static_assert((kWindow & (kWindow - 1)) == 0 && kWindow >= 64);

  struct Slot {
    Action action;  ///< empty while the slot is free
    std::uint32_t next = kNil;  ///< next in its bucket or the free list
  };
  // Not over-aligned: alignas(64) ran no faster and grew the arena.
  static_assert(sizeof(Slot) == 64, "48-byte capture, ops pointer, link");
  /// Indeterminate until Append sets its occupancy bit; read only
  /// while the bit is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };
  struct Overflow {
    Cycles when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A free slot id, recycled first; its action is empty.
  std::uint32_t NewSlot() {
    if (free_ == kNil) return GrowSlots();
    const std::uint32_t id = free_;
    free_ = slots_[id].next;
    return id;
  }
  /// Appends a new empty slot to the arena and returns its id.
  std::uint32_t GrowSlots();
  /// Files a filled slot under `when`: its bucket, or the overflow heap.
  void Insert(Cycles when, std::uint32_t id) {
    if (when - now_ < kWindow)
      Append(static_cast<std::size_t>(when) & kMask, id);
    else
      PushOverflow(when, id);
  }
  /// Appends `id` to the FIFO of bucket `b`.
  void Append(std::size_t b, std::uint32_t id) {
    slots_[id].next = kNil;
    Bucket& bucket = buckets_[b];
    std::uint64_t& word = occupied_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if ((word & bit) != 0) {
      slots_[bucket.tail].next = id;
    } else {
      bucket.head = id;
      word |= bit;
    }
    bucket.tail = id;
    ++in_window_;
  }
  /// Files `id` in the overflow heap (out of line: far events are rare).
  void PushOverflow(Cycles when, std::uint32_t id);
  /// Moves the overflow events that fall inside the window into buckets.
  void Migrate();
  /// Timestamp of the next event. Requires !Empty().
  Cycles NextTime() const;
  /// Sets Now() to `when`, the next event's time, migrating the overflow
  /// events that enter the window.
  void AdvanceTo(Cycles when);
  /// Pops the head of occupied bucket `b` (clearing the bucket's bit if
  /// that empties it), recycles its slot and runs its action.
  void RunHead(std::size_t b);

  // The scalars every event reads come first, on adjacent cache lines;
  // the 16 KB bucket ring comes last.
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNil;  ///< head of the free-slot list
  std::size_t in_window_ = 0;  ///< events held in buckets
  Cycles now_ = 0;
  std::uint64_t overflow_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t first_slots_ = 0;  ///< the slot arena's first allocation
  std::vector<Overflow> overflow_;  ///< min-heap on (when, seq)
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit per non-empty bucket
  std::array<Bucket, kWindow> buckets_;  ///< [time % kWindow], uninitialised
};

}  // namespace irmc
