#include "src/common/logging.h"

#include <cstdio>

namespace torbase {

std::string FormatTime(TimePoint t) {
  const uint64_t total_ms = t / kMillisecond;
  const uint64_t ms = total_ms % 1000;
  const uint64_t total_s = total_ms / 1000;
  const uint64_t s = total_s % 60;
  const uint64_t m = (total_s / 60) % 60;
  const uint64_t h = total_s / 3600;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02llu:%02llu:%02llu.%03llu",
                static_cast<unsigned long long>(h), static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(s), static_cast<unsigned long long>(ms));
  return buf;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kNotice:
      return "notice";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kErr:
      return "err";
  }
  return "?";
}

std::string LogRecord::Format() const {
  // The Tor daemon prefixes a wall-clock date; the simulation epoch plays the
  // role of "Jan 01 00:00:00".
  std::string out = "Jan 01 ";
  out += FormatTime(time);
  out += " [";
  out += LogLevelName(level);
  out += "] ";
  if (!component.empty()) {
    out += component;
    out += ": ";
  }
  out += message;
  return out;
}

Logger::Logger(std::string component) : component_(std::move(component)) {}

void Logger::Log(TimePoint now, LogLevel level, std::string message) {
  if (level < min_level_) {
    return;
  }
  LogRecord record{now, level, component_, std::move(message)};
  if (capacity_ != 0 && records_.size() >= capacity_) {
    records_.erase(records_.begin());
  }
  records_.push_back(std::move(record));
}

bool Logger::Contains(const std::string& needle) const {
  for (const auto& record : records_) {
    if (record.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace torbase
