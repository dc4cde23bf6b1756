#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "common/strings.h"

namespace hematch::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

// Recursive-descent parser building the DOM.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue* out) {
    HEMATCH_RETURN_IF_ERROR(ParseValue(out, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("JSON, offset " + std::to_string(pos_) + ": " +
                              what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool TryConsume(char ch) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char ch) {
    if (!TryConsume(ch)) {
      return Error(std::string("expected '") + ch + "'");
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    HEMATCH_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') {
        return Status::OK();
      }
      if (ch != '\\') {
        out->push_back(ch);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          unsigned code = 0;
          HEMATCH_RETURN_IF_ERROR(ParseHex4(&code));
          if (code >= 0xdc00 && code <= 0xdfff) {
            return Error("lone low surrogate in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // A high surrogate must be followed by an escaped low one;
            // the pair names one code point past the BMP.
            unsigned low = 0;
            if (text_.substr(pos_, 2) != "\\u") {
              return Error("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            HEMATCH_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("lone high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  // The four hex digits of a \u escape.
  Status ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, *code, 16);
    if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
      return Error("bad \\u escape");
    }
    pos_ += 4;
    return Status::OK();
  }

  std::size_t SkipDigits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  bool At(char ch) const { return pos_ < text_.size() && text_[pos_] == ch; }

  // JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  // Scanned by hand because std::from_chars also takes nan/inf.
  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    bool plain_digits = true;
    if (At('-')) {
      ++pos_;
      plain_digits = false;
    }
    if (At('0')) {
      ++pos_;
    } else if (SkipDigits() == 0) {
      return Error("expected a value");
    }
    if (At('.')) {
      ++pos_;
      plain_digits = false;
      if (SkipDigits() == 0) {
        return Error("malformed number");
      }
    }
    if (At('e') || At('E')) {
      ++pos_;
      plain_digits = false;
      if (At('+') || At('-')) {
        ++pos_;
      }
      if (SkipDigits() == 0) {
        return Error("malformed number");
      }
    }
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) {
      return Error("number out of range");
    }
    std::optional<std::uint64_t> exact;
    if (plain_digits) {
      std::uint64_t digits = 0;
      const auto [uptr, uec] = std::from_chars(begin, end, digits);
      if (uec == std::errc() && uptr == end) {
        exact = digits;
      }
    }
    *out = JsonValue::Number(value, exact);
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char ch = text_[pos_];
    if (ch == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->text);
    }
    if (ch == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      bool first = true;
      while (true) {
        if (TryConsume('}')) {
          return Status::OK();
        }
        if (!first) {
          HEMATCH_RETURN_IF_ERROR(Expect(','));
        }
        first = false;
        SkipWhitespace();
        std::string key;
        HEMATCH_RETURN_IF_ERROR(ParseString(&key));
        HEMATCH_RETURN_IF_ERROR(Expect(':'));
        JsonValue value;
        HEMATCH_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->fields.emplace_back(std::move(key), std::move(value));
      }
    }
    if (ch == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      bool first = true;
      while (true) {
        if (TryConsume(']')) {
          return Status::OK();
        }
        if (!first) {
          HEMATCH_RETURN_IF_ERROR(Expect(','));
        }
        first = false;
        JsonValue value;
        HEMATCH_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->items.push_back(std::move(value));
      }
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  JsonValue value;
  JsonParser parser(text);
  HEMATCH_RETURN_IF_ERROR(parser.Parse(&value));
  return value;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    return "0";
  }
  return std::string(buf, ptr);
}

}  // namespace hematch::obs
