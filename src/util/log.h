// Minimal leveled logging for the SFS daemons.
//
// The paper stresses debuggability ("Our RPC library can pretty-print RPC
// traffic...").  This logger is where the span slow-op log writes its
// pretty-printed RPC span trees (obs::SpanCollector::EnableSlowOpLog).
// Logging is off by default so tests and benchmarks stay quiet; flip the
// level to kInfo to watch them.
#ifndef SFS_SRC_UTIL_LOG_H_
#define SFS_SRC_UTIL_LOG_H_

#include <sstream>
#include <string>

namespace util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Global log threshold; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emit one log line (adds level prefix and newline).
void LogMessage(LogLevel level, const std::string& message);

namespace internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace util

#define SFS_LOG(level)                                        \
  if (::util::GetLogLevel() > ::util::LogLevel::level) {      \
  } else                                                      \
    ::util::internal::LogLine(::util::LogLevel::level)

#endif  // SFS_SRC_UTIL_LOG_H_
