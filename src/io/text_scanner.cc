#include "src/io/text_scanner.h"

#include <fstream>
#include <istream>
#include <sstream>

namespace ifls {
namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

bool TextScanner::Next(std::string_view* token) {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  *token = text_.substr(start, pos_ - start);
  return pos_ > start;
}

std::string_view TextScanner::RestOfLine() {
  std::size_t end = text_.find('\n', pos_);
  if (end == std::string_view::npos) end = text_.size();
  std::string_view line = text_.substr(pos_, end - pos_);
  pos_ = end < text_.size() ? end + 1 : end;
  if (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  return line;
}

std::string ReadAll(std::istream& stream) {
  std::ostringstream text;
  text << stream.rdbuf();
  return std::move(text).str();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadAll(in);
}

}  // namespace ifls
