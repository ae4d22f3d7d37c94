// Structured logging in the style of the Tor daemon's notice/info/warn log. Log
// lines carry the *simulated* timestamp injected by the caller, so experiment
// output looks like Figure 1 of the paper and is reproducible byte-for-byte.
//
// A Logger records into an in-memory ring that tests and benches can inspect.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace torbase {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kNotice = 2,
  kWarn = 3,
  kErr = 4,
};

const char* LogLevelName(LogLevel level);

struct LogRecord {
  TimePoint time = 0;
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;

  // Renders "Jan 01 HH:MM:SS.mmm [notice] message" like the Tor daemon.
  std::string Format() const;
};

class Logger {
 public:
  explicit Logger(std::string component = "");

  // Messages below this level are dropped entirely.
  void set_min_level(LogLevel level) { min_level_ = level; }
  // Caps the in-memory record buffer; 0 means unbounded.
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  void Log(TimePoint now, LogLevel level, std::string message);
  void Debug(TimePoint now, std::string message) { Log(now, LogLevel::kDebug, std::move(message)); }
  void Info(TimePoint now, std::string message) { Log(now, LogLevel::kInfo, std::move(message)); }
  void Notice(TimePoint now, std::string message) {
    Log(now, LogLevel::kNotice, std::move(message));
  }
  void Warn(TimePoint now, std::string message) { Log(now, LogLevel::kWarn, std::move(message)); }
  void Err(TimePoint now, std::string message) { Log(now, LogLevel::kErr, std::move(message)); }

  const std::vector<LogRecord>& records() const { return records_; }

  // True if any retained record's message contains `needle`.
  bool Contains(const std::string& needle) const;

 private:
  std::string component_;
  LogLevel min_level_ = LogLevel::kDebug;
  size_t capacity_ = 0;
  std::vector<LogRecord> records_;
};

}  // namespace torbase

#endif  // SRC_COMMON_LOGGING_H_
