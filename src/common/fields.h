// One compiler-checked field list per schema. A struct opts in with
//
//   auto Fields() const { const auto& [a, b, c] = *this; return std::tie(a, b, c); }
//
// A structured binding must name every data member, so a member added without
// being listed fails to compile on every platform
// (tests/compile_fail/unlisted_member.cc). Same and Describe walk that one
// list; a schema's BitIdentical, SpecDigest and attack-schedule descriptions
// derive from them instead of repeating the fields by hand.
#ifndef SRC_COMMON_FIELDS_H_
#define SRC_COMMON_FIELDS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/serialize.h"

namespace torbase {
namespace fields_internal {

template <typename T>
inline constexpr bool kIsSharedPtr = false;
template <typename T>
inline constexpr bool kIsSharedPtr<std::shared_ptr<T>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <typename T>
inline constexpr bool kIsMap = false;
template <typename K, typename V, typename C, typename A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;

}  // namespace fields_internal

template <typename T>
concept HasFields = requires(const T& value) { value.Fields(); };

// Equality over a field list: NaN equals NaN (failed runs carry NaN
// latencies), shared pointers compare their pointees, vectors compare element
// by element, structs with Fields() compare member by member, and everything
// else uses ==.
template <typename T>
bool Same(const T& a, const T& b) {
  if constexpr (std::is_floating_point_v<T>) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  } else if constexpr (fields_internal::kIsSharedPtr<T>) {
    return a == b || (a != nullptr && b != nullptr && Same(*a, *b));
  } else if constexpr (fields_internal::kIsVector<T>) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) { return Same(x, y); });
  } else if constexpr (HasFields<T>) {
    return std::apply([&b](const auto&... x) {
      return std::apply([&x...](const auto&... y) { return (Same(x, y) && ...); }, b.Fields());
    }, a.Fields());
  } else {
    return a == b;
  }
}

// A canonical, prefix-free encoding: bools, integers and enums as fixed-width
// u64s, doubles as their bit pattern, strings, vectors and maps behind a length
// prefix, a shared pointer as a presence flag and then its value, and a struct
// through its Describe(Writer&) member if it has one, else through Fields().
// The layout carries no field tags, so callers pin it with a versioned domain.
template <typename T>
void Describe(Writer& writer, const T& value) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    writer.WriteU64(static_cast<uint64_t>(value));
  } else if constexpr (std::is_floating_point_v<T>) {
    writer.WriteF64(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    writer.WriteString(value);
  } else if constexpr (fields_internal::kIsSharedPtr<T>) {
    writer.WriteBool(value != nullptr);
    if (value != nullptr) {
      Describe(writer, *value);
    }
  } else if constexpr (fields_internal::kIsVector<T>) {
    writer.WriteU64(value.size());
    for (const auto& element : value) {
      Describe(writer, element);
    }
  } else if constexpr (fields_internal::kIsMap<T>) {
    writer.WriteU64(value.size());
    for (const auto& [key, element] : value) {
      Describe(writer, key);
      Describe(writer, element);
    }
  } else if constexpr (requires { value.Describe(writer); }) {
    value.Describe(writer);
  } else {
    static_assert(HasFields<T>, "Describe: no encoding for this type; give it Fields()");
    std::apply([&writer](const auto&... field) { (Describe(writer, field), ...); },
               value.Fields());
  }
}

}  // namespace torbase

#endif  // SRC_COMMON_FIELDS_H_
