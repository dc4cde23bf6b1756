#include "common/file.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace hematch {

std::string ReadAll(std::istream& input) {
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return std::move(buffer).str();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return ReadAll(file);
  }
  std::string text(size, '\0');
  file.read(text.data(), static_cast<std::streamsize>(size));
  text.resize(static_cast<std::size_t>(file.gcount()));
  return text;
}

}  // namespace hematch
