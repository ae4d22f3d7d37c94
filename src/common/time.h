// Simulated-time primitives. The whole repository runs on a virtual clock: a
// TimePoint is a count of microseconds since the start of the simulation, and a
// Duration is a microsecond delta. Keeping these as strong integer types (rather
// than std::chrono on the system clock) makes every experiment deterministic.
#ifndef SRC_COMMON_TIME_H_
#define SRC_COMMON_TIME_H_

#include <cstdint>
#include <string>

namespace torbase {

// Microseconds since simulation start.
using TimePoint = uint64_t;
// Microsecond delta.
using Duration = uint64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;

// A TimePoint that is never reached; used as "no deadline".
constexpr TimePoint kTimeNever = ~0ull;

constexpr Duration Millis(uint64_t n) { return n * kMillisecond; }
constexpr Duration Seconds(uint64_t n) { return n * kSecond; }
constexpr Duration Minutes(uint64_t n) { return n * kMinute; }
constexpr Duration Hours(uint64_t n) { return n * kHour; }

constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }

// Formats a TimePoint as "HH:MM:SS.mmm" for log lines.
std::string FormatTime(TimePoint t);

}  // namespace torbase

#endif  // SRC_COMMON_TIME_H_
