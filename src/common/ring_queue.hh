/**
 * @file
 * Growable circular FIFO.  A drop-in replacement for the std::deque
 * uses on the simulator's hot path: deque allocates and frees a chunk
 * every few dozen push/pops, so a steady-state engine cycle churns the
 * allocator even when queue depths are stable.  RingQueue keeps one
 * contiguous power-of-two buffer that only ever grows; in steady state
 * every operation is an index update.
 *
 * Slots are never destroyed on pop — pop_front()/pop_back() just move
 * the indexes, and push_back() assigns into the reused slot.  For
 * element types that own capacity this means the slot's capacity is
 * recycled; for flat types it is simply cheap.  emplace_back()
 * value-initializes the reused slot and hands it out for filling in
 * place.  clear() likewise keeps the buffer.
 */

#ifndef DMT_COMMON_RING_QUEUE_HH
#define DMT_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dmt
{

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }

    T &
    front()
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        return buf_[head_];
    }
    const T &
    front() const
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        return buf_[head_];
    }

    T &
    back()
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        return buf_[slot(count_ - 1)];
    }
    const T &
    back() const
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        return buf_[slot(count_ - 1)];
    }

    /** @p i counts from the front: [0] == front(). */
    T &
    operator[](size_t i)
    {
        DMT_ASSERT(i < count_, "ring queue index out of range");
        return buf_[slot(i)];
    }
    const T &
    operator[](size_t i) const
    {
        DMT_ASSERT(i < count_, "ring queue index out of range");
        return buf_[slot(i)];
    }

    void
    push_back(const T &v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[slot(count_)] = v;
        ++count_;
    }

    void
    push_back(T &&v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[slot(count_)] = std::move(v);
        ++count_;
    }

    /**
     * Reset the next slot to a value-initialized T and return it, so a
     * fat element is filled where it lives instead of being built on
     * the stack and copied in.  The reset copies a constant fresh T
     * (plain vector moves), so T must be a literal type.
     */
    T &
    emplace_back()
    {
        static constexpr T kFresh{};
        if (count_ == buf_.size())
            grow();
        T &v = buf_[slot(count_)];
        v = kFresh;
        ++count_;
        return v;
    }

    void
    pop_front()
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        head_ = next(head_);
        --count_;
    }

    void
    pop_back()
    {
        DMT_ASSERT(count_ > 0, "ring queue empty");
        --count_;
    }

    /** Keeps the buffer (and each slot's own capacity) for reuse. */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Pre-size the buffer so the first @p n pushes cannot allocate. */
    void
    reserve(size_t n)
    {
        if (n > buf_.size())
            rebuild(capacityFor(n));
    }

    size_t capacity() const { return buf_.size(); }

    /**
     * Minimal front-to-back iterator so range-for call sites written
     * against std::deque keep compiling.  Indexes, not pointers, so it
     * stays valid across the wrap point.
     */
    template <typename Q, typename V>
    class Iter
    {
      public:
        Iter(Q *q, size_t i) : q_(q), i_(i) {}
        V &operator*() const { return (*q_)[i_]; }
        V *operator->() const { return &(*q_)[i_]; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        Q *q_;
        size_t i_;
    };

    using iterator = Iter<RingQueue, T>;
    using const_iterator = Iter<const RingQueue, const T>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, count_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count_); }

  private:
    size_t
    slot(size_t i) const
    {
        // buf_.size() is always a power of two once non-empty.
        return (head_ + i) & (buf_.size() - 1);
    }

    size_t
    next(size_t i) const
    {
        return (i + 1) & (buf_.size() - 1);
    }

    static size_t
    capacityFor(size_t n)
    {
        size_t cap = 8;
        while (cap < n)
            cap *= 2;
        return cap;
    }

    void
    grow()
    {
        rebuild(buf_.empty() ? 8 : buf_.size() * 2);
    }

    /** Re-home the live elements at the front of a larger buffer. */
    void
    rebuild(size_t cap)
    {
        std::vector<T> bigger(cap);
        for (size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(buf_[slot(i)]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace dmt

#endif // DMT_COMMON_RING_QUEUE_HH
