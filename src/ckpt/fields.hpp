// Field lists: every checkpointed field is spelled once.
//
// A stateful class names its checkpointed state in one private member,
// `template <class Ar> void fields(Ar& ar)` (cereal style), and befriends
// ckpt::Access; a plain struct gets a free `fields(ar, T&)`. The same list
// runs in both directions: a Writer encodes each field, a Reader decodes
// into it, so record order is list order and the sides cannot drift apart.
// Load-only work (cross-checks, cache rebuilds) ends the list under
// `if constexpr (Ar::kLoading)`.
//
// The Reader checks what it decodes, once, and throws CheckpointError
// naming the field: int and enum fields must fit an int and id() fields
// [0, INT_MAX]; a list() count must fit in the bytes left before anything
// is sized from it; columns() agree in length, with ids ascending; an
// expect() field must equal the constructed object's value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ckpt/archive.hpp"

namespace dike::ckpt {

/// Lets the archives reach a class's private field list.
struct Access {
  template <class Ar, class T>
  static void fields(Ar& ar, T& obj) {
    obj.fields(ar);
  }
};

/// A value column of an id-keyed table: its name and the part of the row's
/// value it holds (the whole value by default).
template <class Proj = std::identity>
struct Column {
  std::string_view name;
  Proj proj{};
};
template <class Proj = std::identity>
[[nodiscard]] Column<Proj> col(std::string_view name, Proj proj = {}) {
  return {name, proj};
}

namespace detail {
/// `v` as an int no smaller than `min`.
[[nodiscard]] int narrowInt(std::string_view name, std::int64_t v,
                            std::int64_t min = std::numeric_limits<int>::min());
void checkIds(std::string_view name, const std::vector<std::int64_t>& ids);
void checkLength(std::string_view idName, std::size_t ids,
                 std::string_view name, std::size_t count);
[[nodiscard]] std::size_t checkCount(std::string_view name,
                                     std::string_view section,
                                     std::int64_t count, std::size_t left);
[[noreturn]] void throwMismatch(std::string_view name, const std::string& got,
                                const std::string& want);

template <class T>
[[nodiscard]] std::string show(const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>)
    return '\'' + std::string{v} + '\'';
  else
    return std::to_string(v);
}
}  // namespace detail

/// Runs field lists: Archive<false> (Writer) saves, Archive<true> (Reader)
/// loads.
template <bool Loading>
class Archive {
 public:
  static constexpr bool kLoading = Loading;
  using Binary = std::conditional_t<Loading, BinReader, BinWriter>;

  explicit Archive(Binary& b) noexcept : b_(&b) {}
  [[nodiscard]] Binary& binary() noexcept { return *b_; }

  /// One field. Integers and enums travel as i64 (u64 stays u64); a class
  /// type is a section holding its fields() list.
  template <class T>
  void io(std::string_view name, T&& v) {
    using U = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      scalar(name, v, &BinWriter::boolean, &BinReader::boolean);
    } else if constexpr (std::is_same_v<U, double>) {
      scalar(name, v, &BinWriter::f64, &BinReader::f64);
    } else if constexpr (std::is_same_v<U, std::uint64_t>) {
      scalar(name, v, &BinWriter::u64, &BinReader::u64);
    } else if constexpr (std::is_same_v<U, std::int64_t>) {
      scalar(name, v, &BinWriter::i64, &BinReader::i64);
    } else if constexpr (std::is_same_v<U, int> || std::is_enum_v<U>) {
      if constexpr (Loading)
        v = static_cast<U>(detail::narrowInt(name, b_->i64(name)));
      else
        b_->i64(name, static_cast<std::int64_t>(v));
    } else if constexpr (std::is_convertible_v<const U&, std::string_view>) {
      scalar(name, v, &BinWriter::str, &BinReader::str);
    } else if constexpr (std::is_same_v<U, std::vector<double>>) {
      scalar(name, v, &BinWriter::vecF64, &BinReader::vecF64);
    } else if constexpr (std::is_same_v<U, std::span<const double>> ||
                         std::is_same_v<U, F64Block>) {
      scalar(name, v, &BinWriter::vecF64, &BinReader::vecF64Block);
    } else if constexpr (std::is_same_v<U, std::vector<std::int64_t>>) {
      scalar(name, v, &BinWriter::vecI64, &BinReader::vecI64);
    } else if constexpr (std::is_same_v<U, std::vector<int>>) {
      scalar(name, v, &BinWriter::vecInt, &BinReader::vecInt);
    } else if constexpr (std::is_same_v<U, std::vector<bool>>) {
      std::vector<std::int64_t> bits(v.begin(), v.end());
      io(name, bits);
      if constexpr (Loading) v.assign(bits.begin(), bits.end());
    } else {
      // A Writer only reads what it is handed, so dropping const is sound.
      section(name, [&] { fields(*this, const_cast<U&>(v)); });
    }
  }

  /// A thread or core id: the Reader refuses a negative one.
  void id(std::string_view name, int& v) {
    if constexpr (Loading)
      v = detail::narrowInt(name, b_->i64(name), 0);
    else
      io(name, v);
  }

  /// A configuration field the restoring object must already agree with.
  template <class T>
  void expect(std::string_view name, const T& want) {
    if constexpr (Loading) {
      std::conditional_t<std::is_convertible_v<const T&, std::string_view>,
                         std::string, T>
          got{};
      io(name, got);
      if (got != want)
        detail::throwMismatch(name, detail::show(got), detail::show(want));
    } else {
      io(name, want);
    }
  }

  template <class Fn>
  void section(std::string_view name, Fn&& body) {
    b_->beginSection(name);
    body();
    b_->endSection();
  }

  /// A component's field list, which opens its own section. A load runs
  /// it on the component of a freshly built owner.
  template <class T>
  void nested(T& component) {
    Access::fields(*this, component);
  }

  /// A count, then one section per item holding fn(item). A load resizes
  /// the vector to the checked count (new items copy `proto` when given).
  template <class T, class Fn, class... Proto>
  void list(std::string_view countName, std::vector<T>& items,
            std::string_view sectionName, Fn&& fn, const Proto&... proto) {
    auto n = static_cast<std::int64_t>(items.size());
    io(countName, n);
    if constexpr (Loading)
      items.resize(
          detail::checkCount(countName, sectionName, n, b_->remaining()),
          proto...);
    for (T& item : items) section(sectionName, [&] { fn(item); });
  }

  /// An id-keyed table — a map, or a vector of (id, value) pairs — as an
  /// ascending id column, then one column per value part.
  template <class Rows, class... Proj>
  void columns(std::string_view idName, Rows& rows,
               const Column<Proj>&... cols) {
    std::vector<std::int64_t> ids;
    std::vector<typename Rows::value_type::second_type> values;
    if constexpr (!Loading) {
      std::vector<const typename Rows::value_type*> sorted;
      for (const auto& row : rows) sorted.push_back(&row);
      std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
      for (const auto* row : sorted) {
        ids.push_back(row->first);
        values.push_back(row->second);
      }
    }
    io(idName, ids);
    if constexpr (Loading) {
      detail::checkIds(idName, ids);
      values.resize(ids.size());
    }
    (column(idName, values, cols), ...);
    if constexpr (Loading) {
      rows.clear();
      for (std::size_t i = 0; i < ids.size(); ++i)
        rows.insert(rows.end(), {static_cast<int>(ids[i]),
                                 std::move(values[i])});
    }
  }

 private:
  template <class T, class Put, class Get>
  void scalar(std::string_view name, T& v, Put put, Get get) {
    if constexpr (Loading)
      v = (b_->*get)(name);
    else
      (b_->*put)(name, v);
  }

  template <class Value, class Proj>
  void column(std::string_view idName, std::vector<Value>& values,
              const Column<Proj>& c) {
    using V = std::remove_cvref_t<std::invoke_result_t<const Proj&, Value&>>;
    using Cell = std::conditional_t<std::is_same_v<V, double>, double,
                                    std::int64_t>;
    std::vector<Cell> cells;
    if constexpr (!Loading)
      for (Value& value : values)
        cells.push_back(static_cast<Cell>(std::invoke(c.proj, value)));
    io(c.name, cells);
    if constexpr (Loading) {
      detail::checkLength(idName, values.size(), c.name, cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if constexpr (std::is_same_v<V, int>)
          std::invoke(c.proj, values[i]) = detail::narrowInt(c.name, cells[i]);
        else
          std::invoke(c.proj, values[i]) = cells[i];
      }
    }
  }

  Binary* b_;
};

using Writer = Archive<false>;
using Reader = Archive<true>;

/// Encode `obj`'s field list.
template <class T>
void writeFields(BinWriter& w, const T& obj) {
  Writer ar{w};
  Access::fields(ar, const_cast<T&>(obj));
}

/// Validate-then-commit: load `fresh` — built from the same configuration
/// as the object being restored — and hand it back for the caller to
/// move-assign, so a failed read leaves the target as it was.
template <class T>
[[nodiscard]] T readFields(BinReader& r, T fresh) {
  Reader ar{r};
  Access::fields(ar, fresh);
  return fresh;
}

}  // namespace dike::ckpt

/// Instantiate T's field list for both archives, next to its definition,
/// so owners in other translation units can nest it.
#define DIKE_CKPT_FIELDS(T)                       \
  template void T::fields(::dike::ckpt::Writer&); \
  template void T::fields(::dike::ckpt::Reader&)
