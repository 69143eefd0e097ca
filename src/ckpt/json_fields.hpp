// Field lists over JSON. The same `fields(ar, T&)` lists the binary archives
// run (ckpt/fields.hpp) also run here, so a struct that lives in both a
// checkpoint payload and a JSON document (the decision totals, the fault
// tally, the prediction-error trace) is spelled once. JsonWriter fills an
// object. JsonReader reads one and, like JsonValue::numberOr and friends,
// keeps a field's current value when its key is absent or holds a scalar of
// another type, so documents written before a field existed still load.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/json.hpp"

namespace dike::ckpt {

template <bool Loading>
class JsonArchive {
 public:
  static constexpr bool kLoading = Loading;
  using Object =
      std::conditional_t<Loading, const util::JsonValue, util::JsonObject>;

  explicit JsonArchive(Object& object) noexcept : object_(&object) {}

  /// One field: a number (integers, ticks and enums too), bool, string,
  /// class type with a fields() list (a nested object), or a vector or
  /// optional of those. An empty optional writes no key; a load refuses a
  /// present key whose value is not the array or object the field needs.
  template <class T>
  void io(std::string_view key, T& v) {
    if constexpr (Loading) {
      if (const std::optional<util::JsonValue> value = object_->get(key))
        read(*value, v, key);
    } else if constexpr (requires { v.has_value(); }) {
      if (v) io(key, *v);
    } else {
      object_->insert_or_assign(std::string{key}, write(v));
    }
  }

  /// A 64-bit value as a decimal string: JSON numbers are doubles and
  /// silently lose integer precision above 2^53.
  void decimal(std::string_view key, std::uint64_t& v) {
    std::string text = std::to_string(v);
    io(key, text);
    if constexpr (Loading) {
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc{} || end != text.data() + text.size() ||
          text.empty())
        throw std::runtime_error{"JSON field '" + std::string{key} +
                                 "' is not a valid unsigned integer: '" +
                                 text + "'"};
    }
  }

 private:
  template <class T>
  static util::JsonValue write(T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::string> ||
                  std::is_same_v<T, util::JsonValue>) {
      return util::JsonValue{v};
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      return util::JsonValue{static_cast<double>(v)};
    } else if constexpr (requires { v.push_back(v.front()); }) {
      util::JsonArray out;
      for (auto& item : v) out.push_back(write(item));
      return util::JsonValue{std::move(out)};
    } else {
      util::JsonObject out;
      JsonArchive<false> ar{out};
      fields(ar, v);
      return util::JsonValue{std::move(out)};
    }
  }

  template <class T>
  static void read(const util::JsonValue& json, T& v, std::string_view key) {
    if constexpr (std::is_same_v<T, util::JsonValue>) {
      v = json;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (json.isBool()) v = json.asBool();
    } else if constexpr (std::is_enum_v<T>) {
      if (json.isNumber())
        v = static_cast<T>(
            static_cast<std::underlying_type_t<T>>(json.asNumber()));
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (json.isNumber()) v = static_cast<T>(json.asNumber());
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (json.isString()) v = json.asString();
    } else if constexpr (requires { v.emplace(); }) {
      read(json, v.emplace(), key);
    } else if constexpr (requires { v.push_back(v.front()); }) {
      if (!json.isArray())
        throw std::runtime_error{"JSON field '" + std::string{key} +
                                 "' must be an array"};
      v.clear();
      for (const util::JsonValue& item : json.asArray())
        read(item, v.emplace_back(), key);
    } else {
      if (!json.isObject())
        throw std::runtime_error{"JSON field '" + std::string{key} +
                                 "' must be an object"};
      JsonArchive<true> ar{json};
      fields(ar, v);
    }
  }

  Object* object_;
};

using JsonWriter = JsonArchive<false>;
using JsonReader = JsonArchive<true>;

/// `value` as a JSON object, through its fields() list.
template <class T>
[[nodiscard]] util::JsonValue toJson(const T& value) {
  util::JsonObject out;
  JsonWriter ar{out};
  fields(ar, const_cast<T&>(value));  // a JsonWriter only reads
  return util::JsonValue{std::move(out)};
}

/// A T built from its defaults with `doc`'s fields read over them.
template <class T>
[[nodiscard]] T fromJson(const util::JsonValue& doc) {
  T value{};
  JsonReader ar{doc};
  fields(ar, value);
  return value;
}

}  // namespace dike::ckpt
