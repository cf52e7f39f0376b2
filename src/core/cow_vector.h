// Copy-on-write vector for tables that many datasets read and few
// write.
//
// A CowVector<T> holds its std::vector<T> behind a shared pointer.
// Copying the handle shares the table; reads go through the const
// vector API, or through the implicit `const std::vector<T>&`. mut() is
// the only write access: it first gives this handle a private copy
// when the table is shared. Dataset::aps and GroundTruth::aps are
// CowVectors, so every shard a store loads serves the store's one AP
// universe (io/shard_store.h) instead of a per-load copy of it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace tokyonet::core {

template <typename T>
class CowVector {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;

  [[nodiscard]] const std::vector<T>& get() const noexcept {
    static const std::vector<T> kEmpty;
    return table_ != nullptr ? *table_ : kEmpty;
  }
  operator const std::vector<T>&() const noexcept { return get(); }

  [[nodiscard]] std::size_t size() const noexcept { return get().size(); }
  [[nodiscard]] bool empty() const noexcept { return get().empty(); }
  [[nodiscard]] const T* data() const noexcept { return get().data(); }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return get()[i];
  }
  [[nodiscard]] const_iterator begin() const noexcept { return get().begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return get().end(); }

  /// The table for writing, unshared first: other handles that shared
  /// it keep the old contents.
  [[nodiscard]] std::vector<T>& mut() {
    if (table_ == nullptr) {
      table_ = std::make_shared<std::vector<T>>();
    } else if (table_.use_count() > 1) {
      table_ = std::make_shared<std::vector<T>>(*table_);
    }
    return *table_;
  }

 private:
  std::shared_ptr<std::vector<T>> table_;
};

}  // namespace tokyonet::core
