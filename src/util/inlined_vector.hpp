// InlinedVector<T, N>: a vector with inline storage for up to N elements.
//
// Vector clocks and frontiers are arrays of n small integers where n is the
// number of threads in the monitored program (typically 4-16). Enumeration
// creates and copies these at a rate of one or more per enumerated global
// state, so avoiding a heap allocation per clock dominates the constant
// factor of the whole system. The container spills to the heap for n > N.
//
// Only the operations the enumeration stack needs are provided; the element
// type is required to be trivially copyable, which keeps the copy/grow paths
// memcpy-able and the moved-from state trivial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace paramount {

template <typename T, std::size_t N>
class InlinedVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlinedVector requires trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlinedVector() = default;

  explicit InlinedVector(std::size_t count, const T& value = T()) {
    resize(count, value);
  }

  InlinedVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  InlinedVector(const InlinedVector& other) {
    assign(other.data_, other.size_);
  }

  InlinedVector(InlinedVector&& other) noexcept { steal_from(other); }

  // Reuses the current buffer, inline or heap, whenever other fits it.
  InlinedVector& operator=(const InlinedVector& other) {
    if (this != &other) assign(other.data_, other.size_);
    return *this;
  }

  InlinedVector& operator=(InlinedVector&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }

  ~InlinedVector() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  bool is_inline() const { return data_ == inline_data(); }

  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](std::size_t i) {
    PM_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    PM_DCHECK(i < size_);
    return data_[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t cap) {
    if (cap > capacity_) grow_to(cap);
  }

  void resize(std::size_t count, const T& value = T()) {
    if (count > capacity_) grow_to(count);
    for (std::size_t i = size_; i < count; ++i) data_[i] = value;
    size_ = count;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    data_[size_++] = value;
  }

  void pop_back() {
    PM_DCHECK(size_ > 0);
    --size_;
  }

  void assign(std::size_t count, const T& value) {
    clear();
    resize(count, value);
  }

  // Copies `count` elements from `first`, reusing the current buffer,
  // inline or heap, whenever they fit it.
  void assign(const T* first, std::size_t count) {
    if (count > capacity_) {
      size_ = 0;  // nothing of the old contents survives: skip their copy
      grow_to(count);
    }
    std::memcpy(static_cast<void*>(data_), static_cast<const void*>(first),
                count * sizeof(T));
    size_ = count;
  }

  friend bool operator==(const InlinedVector& a, const InlinedVector& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const InlinedVector& a, const InlinedVector& b) {
    return !(a == b);
  }

  // Bytes of heap memory owned by this container (0 while inline). Used by
  // the memory-accounting instrumentation in the benchmarks.
  std::size_t heap_bytes() const {
    return is_inline() ? 0 : capacity_ * sizeof(T);
  }

 private:
  T* inline_data() { return std::launder(reinterpret_cast<T*>(inline_buf_)); }
  const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_buf_));
  }

  void grow_to(std::size_t cap) {
    cap = std::max(cap, capacity_ * 2);
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(fresh), static_cast<const void*>(data_),
                size_ * sizeof(T));
    if (!is_inline()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = cap;
  }

  void release() {
    if (!is_inline()) ::operator delete(data_);
    data_ = inline_data();
    capacity_ = N;
    size_ = 0;
  }

  void steal_from(InlinedVector& other) {
    if (other.is_inline()) {
      std::memcpy(static_cast<void*>(data_),
                  static_cast<const void*>(other.data_),
                  other.size_ * sizeof(T));
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_buf_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t capacity_ = N;
  std::size_t size_ = 0;
};

}  // namespace paramount
