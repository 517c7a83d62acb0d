#ifndef QGP_COMMON_FIELD_LIST_H_
#define QGP_COMMON_FIELD_LIST_H_

/// \file
/// A constexpr list that names each field of a struct once. The stats
/// structs (MatchStats, EngineStats, ServiceStats) each define one as
/// `Fields()`, with a static_assert that it covers the whole struct;
/// everything that enumerates their counters iterates it. The wire
/// codec lists the MatchOptions knobs that travel the same way.

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>

namespace qgp {

/// One field of struct S: its wire name (the JSON key in protocol
/// messages and bench rows) and its member.
template <typename S, typename T = uint64_t>
struct Field {
  using Type = T;
  const char* name;
  T S::*member;
  /// MatchStats only: schedule telemetry, which may vary run to run,
  /// rather than work, which the differential suites assert equal.
  bool schedule = false;
};

/// Calls fn(field) for every entry of a list: a std::array of one Field
/// type or a std::tuple of several.
template <typename List, typename Fn>
constexpr void ForEachField(const List& list, Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); }, list);
}

/// Bytes of the members a list names: sizeof the struct when it names
/// every member (stats members are 8 bytes wide or structs of them, so
/// there is no padding).
template <typename List>
constexpr size_t FieldBytes(const List& list) {
  size_t bytes = 0;
  ForEachField(list, [&](const auto& field) {
    bytes += sizeof(typename std::decay_t<decltype(field)>::Type);
  });
  return bytes;
}

}  // namespace qgp

#endif  // QGP_COMMON_FIELD_LIST_H_
