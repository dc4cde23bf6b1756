#include "common/strings.h"

namespace hematch {

std::vector<std::string> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delimiter) {
      fields.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string_view StripWhitespace(std::string_view input) {
  // " \t\n\v\f\r", tested inline: parsers strip every field they read.
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  while (!input.empty() && space(input.front())) {
    input.remove_prefix(1);
  }
  while (!input.empty() && space(input.back())) {
    input.remove_suffix(1);
  }
  return input;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

void AppendUtf8(char32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
  }
}

}  // namespace hematch
