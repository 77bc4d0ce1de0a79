#ifndef IFLS_COMMON_LOGGING_H_
#define IFLS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace ifls {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Global minimum level; messages below it are dropped. Default: kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Destination for fully formatted log lines. Write() is always invoked
/// under the logger's emission mutex, so implementations need no locking of
/// their own and lines from concurrent threads never interleave.
class LogSink {
 public:
  virtual ~LogSink() = default;
  /// `line` is the complete "[LEVEL file:line] message" text, no newline.
  virtual void Write(LogLevel level, const std::string& line) = 0;
};

/// Installs `sink` as the global destination and returns the previous one
/// (nullptr means the default stderr sink). The swap and every in-flight
/// emission are serialized on one mutex, so replacing the sink while other
/// threads log is safe; the caller owns both sinks' lifetimes and must keep
/// the installed sink alive until it is swapped back out.
LogSink* SwapLogSink(LogSink* sink);

namespace internal {

/// Stream-style log message. Formats into a thread-private buffer, then
/// emits the whole line in one critical section on destruction (so worker
/// and server threads logging concurrently can never tear or interleave
/// a line); aborts the process for kFatal. Used through the IFLS_LOG /
/// IFLS_CHECK macros only.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define IFLS_LOG_INTERNAL(level) \
  ::ifls::internal::LogMessage(level, __FILE__, __LINE__).stream()

/// IFLS_LOG(INFO) << "message"; levels: DEBUG, INFO, WARNING, ERROR, FATAL.
#define IFLS_LOG(severity) IFLS_LOG_##severity

#define IFLS_LOG_DEBUG IFLS_LOG_INTERNAL(::ifls::LogLevel::kDebug)
#define IFLS_LOG_INFO IFLS_LOG_INTERNAL(::ifls::LogLevel::kInfo)
#define IFLS_LOG_WARNING IFLS_LOG_INTERNAL(::ifls::LogLevel::kWarning)
#define IFLS_LOG_ERROR IFLS_LOG_INTERNAL(::ifls::LogLevel::kError)
#define IFLS_LOG_FATAL IFLS_LOG_INTERNAL(::ifls::LogLevel::kFatal)

/// Invariant check: logs the failed condition and aborts. Enabled in all
/// build types — index/algorithm invariants guard correctness, not speed.
#define IFLS_CHECK(condition)                                      \
  if (!(condition))                                                \
  IFLS_LOG(FATAL) << "Check failed: " #condition " "

#define IFLS_CHECK_OK(expr)                                        \
  do {                                                             \
    ::ifls::Status _st = (expr);                                   \
    IFLS_CHECK(_st.ok()) << _st.ToString();                        \
  } while (false)

/// Debug-only check, compiled out in NDEBUG builds.
#ifdef NDEBUG
#define IFLS_DCHECK(condition) \
  while (false) IFLS_CHECK(condition)
#else
#define IFLS_DCHECK(condition) IFLS_CHECK(condition)
#endif

}  // namespace ifls

#endif  // IFLS_COMMON_LOGGING_H_
