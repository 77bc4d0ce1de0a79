#ifndef IFLS_IO_TEXT_SCANNER_H_
#define IFLS_IO_TEXT_SCANNER_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "src/common/status.h"

namespace ifls {

/// Reads a whitespace-delimited text held in memory: the one parser behind
/// the text files of a fleet directory (venue.txt through io/venue_io,
/// facilities.txt through service/fleet_store). Numbers are read with
/// std::from_chars, which is locale-free and correctly rounded, so a double
/// written with 17 significant digits reads back bit-identical.
///
/// Whitespace is what `std::istream >>` skips in the classic locale. A
/// number token must parse whole; non-finite doubles ("inf", "nan") are
/// rejected, as `std::istream >>` rejects them.
class TextScanner {
 public:
  /// `text` must outlive the scanner and every token it hands out.
  explicit TextScanner(std::string_view text) : text_(text) {}

  /// The next token; false at the end of the text.
  bool Next(std::string_view* token);

  /// The next token parsed whole as a T (an integer or a floating-point
  /// type); false at the end of the text, on a malformed token, or on a
  /// value outside T's range.
  template <typename T>
  bool Next(T* value) {
    std::string_view token;
    if (!Next(&token)) return false;
    const char* end = token.data() + token.size();
    T parsed{};
    const std::from_chars_result r =
        std::from_chars(token.data(), end, parsed);
    if (r.ec != std::errc() || r.ptr != end) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(parsed)) return false;
    }
    *value = parsed;
    return true;
  }

  /// The rest of the current line, up to but not including its '\n' (which
  /// is consumed), with one leading space dropped: the free-text tail of a
  /// line, as `std::getline` returns it after a token.
  std::string_view RestOfLine();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return text_.size() - pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The whole content of `stream`.
std::string ReadAll(std::istream& stream);

/// The whole content of the file at `path`; IOError when it cannot be
/// opened.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace ifls

#endif  // IFLS_IO_TEXT_SCANNER_H_
