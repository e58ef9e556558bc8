#include "common/error.h"

namespace dpipe::detail {

namespace {

std::string located(const char* file, int line, const std::string& message) {
  std::string text(file);
  // Keep paths readable: trim everything before the last "src/" so messages
  // are stable across build directories.
  const std::size_t anchor = text.rfind("src/");
  if (anchor != std::string::npos) {
    text.erase(0, anchor);
  }
  text += ':';
  text += std::to_string(line);
  text += ": ";
  text += message;
  return text;
}

}  // namespace

void throw_require(const char* file, int line, const std::string& message) {
  throw std::invalid_argument(located(file, line, message));
}

void throw_ensure(const char* file, int line, const std::string& message) {
  throw std::logic_error(located(file, line, message));
}

}  // namespace dpipe::detail
