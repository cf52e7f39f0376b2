// Owned-or-borrowed columnar storage for record arrays.
//
// A Column<T> is a contiguous array of trivially-copyable records that
// either owns its memory (a plain std::vector) or borrows it from an
// external holder — typically an mmapped snapshot file (io/snapshot.h)
// whose lifetime is pinned by the `keepalive` token. Reads never copy;
// the first *mutating* access to a borrowed column materializes a
// private owned copy (copy-on-write), so call sites keep ordinary
// std::vector semantics without caring where the bytes live.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace tokyonet::core {

namespace detail {

/// Allocator adaptor that default-initializes (i.e. leaves trivial
/// types uninitialized) on plain construct(). Lets Column offer
/// resize_for_overwrite(): growing a multi-megabyte column that is
/// about to be fully overwritten skips the memset the standard
/// vector::resize would pay.
template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<A>::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), ptr,
                                        std::forward<Args>(args)...);
  }
};

}  // namespace detail

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "Column records must be trivially copyable (bulk I/O)");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  Column() = default;

  /// Borrowed read-only view over records kept alive by `keepalive`
  /// (e.g. a shared handle to an mmapped file).
  [[nodiscard]] static Column borrowed(std::span<const T> records,
                                       std::shared_ptr<const void> keepalive) {
    Column c;
    c.borrowed_ = records;
    c.keepalive_ = std::move(keepalive);
    return c;
  }

  /// True when this column owns its storage (mutations are free).
  [[nodiscard]] bool owned() const noexcept { return keepalive_ == nullptr; }

  [[nodiscard]] std::size_t size() const noexcept {
    return owned() ? vec_.size() : borrowed_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] const T* data() const noexcept {
    return owned() ? vec_.data() : borrowed_.data();
  }
  [[nodiscard]] T* data() {
    ensure_owned();
    return vec_.data();
  }

  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    ensure_owned();
    return vec_[i];
  }

  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size(); }
  [[nodiscard]] const_iterator cend() const noexcept { return end(); }
  [[nodiscard]] iterator begin() {
    ensure_owned();
    return vec_.data();
  }
  [[nodiscard]] iterator end() {
    ensure_owned();
    return vec_.data() + vec_.size();
  }

  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size() - 1]; }
  [[nodiscard]] T& back() {
    ensure_owned();
    return vec_.back();
  }

  void push_back(const T& v) {
    ensure_owned();
    vec_.push_back(v);
  }
  void resize(std::size_t n) {
    ensure_owned();
    vec_.resize(n, T{});  // value-init tail, like a plain vector
  }
  /// Grows to `n` records WITHOUT zero-initializing the new tail. Only
  /// for call sites that overwrite every record before reading any
  /// (e.g. the simulator filling its sample columns).
  void resize_for_overwrite(std::size_t n) {
    ensure_owned();
    vec_.resize(n);
  }
  void reserve(std::size_t n) {
    ensure_owned();
    vec_.reserve(n);
  }
  void clear() {
    vec_.clear();
    borrowed_ = {};
    keepalive_.reset();
  }

  /// Appends [first, last) at `pos`, which must be end() (the only
  /// insertion the codebase performs; kept vector-shaped for drop-in
  /// compatibility).
  template <typename It>
  void insert(const_iterator pos, It first, It last) {
    ensure_owned();
    const std::size_t idx = static_cast<std::size_t>(pos - vec_.data());
    vec_.insert(vec_.begin() + static_cast<std::ptrdiff_t>(idx), first, last);
  }

  /// Read-only span over the records, wherever they live.
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data(), size()};
  }
  /// Implicit, so a column reads wherever a read-only span is expected.
  operator std::span<const T>() const noexcept { return span(); }

 private:
  void ensure_owned() {
    if (owned()) return;
    vec_.assign(borrowed_.begin(), borrowed_.end());
    borrowed_ = {};
    keepalive_.reset();
  }

  std::vector<T, detail::DefaultInitAllocator<T>> vec_;
  std::span<const T> borrowed_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace tokyonet::core
