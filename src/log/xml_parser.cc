#include "log/xml_parser.h"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "common/strings.h"

namespace hematch {

namespace {

// The "C" locale's classes, without a locale lookup per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

// The predefined entities: names and the characters they stand for.
constexpr std::pair<std::string_view, char> kEntities[] = {
    {"amp", '&'}, {"lt", '<'}, {"gt", '>'}, {"quot", '"'}, {"apos", '\''}};

}  // namespace

std::string EscapeXml(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto* named =
        std::find_if(std::begin(kEntities), std::end(kEntities),
                     [c](const auto& e) { return e.second == c; });
    if (named == std::end(kEntities)) {
      out += c;
    } else {
      out.append("&").append(named->first).append(";");
    }
  }
  return out;
}

const std::string_view* XmlParser::Token::Find(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Status XmlParser::Error(const std::string& message) const {
  return Status::ParseError("XML error at offset " + std::to_string(pos_) +
                            ": " + message);
}

void XmlParser::SkipWhitespace() {
  while (pos_ < doc_.size() && IsSpace(doc_[pos_])) {
    ++pos_;
  }
}

bool XmlParser::SkipMisc() {
  // Comments, processing instructions (the XML declaration too), and
  // DOCTYPE and other declarations (no nested brackets: XES files do not
  // carry DTDs in practice).
  static constexpr std::pair<std::string_view, std::string_view> kMisc[] = {
      {"<!--", "-->"}, {"<?", "?>"}, {"<!", ">"}};
  for (const auto& [open, close] : kMisc) {
    if (doc_.substr(pos_).starts_with(open)) {
      const std::size_t end = doc_.find(close, pos_ + open.size());
      pos_ = end == std::string_view::npos ? doc_.size() : end + close.size();
      return true;
    }
  }
  return false;
}

Result<std::string_view> XmlParser::ReadName() {
  if (pos_ >= doc_.size() || !IsNameStart(doc_[pos_])) {
    return Error("expected a name");
  }
  const std::size_t start = pos_;
  while (pos_ < doc_.size() && IsNameChar(doc_[pos_])) {
    ++pos_;
  }
  return doc_.substr(start, pos_ - start);
}

Result<std::string_view> XmlParser::DecodeEntities(std::string_view raw) {
  if (raw.find('&') == std::string_view::npos) {
    return raw;
  }
  std::string& out = decoded_.emplace_front();
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out += raw[i];
      continue;
    }
    const std::size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return Error("unterminated entity");
    }
    const std::string_view entity = raw.substr(i + 1, semi - i - 1);
    const auto* named = std::find_if(
        std::begin(kEntities), std::end(kEntities),
        [entity](const auto& e) { return e.first == entity; });
    if (named != std::end(kEntities)) {
      out += named->second;
    } else if (!entity.empty() && entity[0] == '#') {
      // Numeric character reference: every byte up to ';' must be a
      // digit of its base, naming a Unicode scalar value.
      const bool hex = entity.size() > 1 && entity[1] == 'x';
      const std::string_view digits = entity.substr(hex ? 2 : 1);
      std::uint32_t code = 0;
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), code, hex ? 16 : 10);
      if (ec != std::errc() || end != digits.data() + digits.size()) {
        return Error("bad numeric character reference");
      }
      if (code == 0 || code > 0x10ffff || (code >= 0xd800 && code <= 0xdfff)) {
        return Error("character reference is not a Unicode scalar value");
      }
      AppendUtf8(code, &out);
    } else {
      return Error("unknown entity '&" + std::string(entity) + ";'");
    }
    i = semi;
  }
  return std::string_view(out);
}

Status XmlParser::Next(Token* token) {
  token->attributes.clear();
  if (!pending_end_.empty()) {
    token->kind = TokenKind::kEndElement;
    token->name = pending_end_;
    pending_end_ = {};
    return Status::OK();
  }

  do {
    // Collect character data up to the next tag.
    const std::size_t text_start = pos_;
    pos_ = std::min(doc_.find('<', pos_), doc_.size());
    const std::string_view raw_text =
        doc_.substr(text_start, pos_ - text_start);
    // Report non-whitespace text.
    if (!std::all_of(raw_text.begin(), raw_text.end(), IsSpace)) {
      token->kind = TokenKind::kText;
      HEMATCH_ASSIGN_OR_RETURN(token->name, DecodeEntities(raw_text));
      return Status::OK();
    }
    if (pos_ >= doc_.size()) {
      token->kind = TokenKind::kEnd;
      return Status::OK();
    }
  } while (SkipMisc());

  // At '<' of a real tag.
  ++pos_;
  if (pos_ < doc_.size() && doc_[pos_] == '/') {
    ++pos_;
    token->kind = TokenKind::kEndElement;
    HEMATCH_ASSIGN_OR_RETURN(token->name, ReadName());
    SkipWhitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '>') {
      return Error("expected '>' after end tag");
    }
    ++pos_;
    return Status::OK();
  }

  token->kind = TokenKind::kStartElement;
  HEMATCH_ASSIGN_OR_RETURN(token->name, ReadName());
  for (;;) {
    SkipWhitespace();
    if (pos_ >= doc_.size()) {
      return Error("unterminated start tag");
    }
    if (doc_[pos_] == '>') {
      ++pos_;
      return Status::OK();
    }
    if (doc_[pos_] == '/') {
      if (pos_ + 1 >= doc_.size() || doc_[pos_ + 1] != '>') {
        return Error("expected '/>' in self-closing tag");
      }
      pos_ += 2;
      pending_end_ = token->name;  // Synthesize the matching end element.
      return Status::OK();
    }
    // Attribute.
    HEMATCH_ASSIGN_OR_RETURN(const std::string_view attr_name, ReadName());
    SkipWhitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '=') {
      return Error("expected '=' after attribute name");
    }
    ++pos_;
    SkipWhitespace();
    if (pos_ >= doc_.size() || (doc_[pos_] != '"' && doc_[pos_] != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = doc_[pos_++];
    const std::size_t value_start = pos_;
    pos_ = std::min(doc_.find(quote, pos_), doc_.size());
    if (pos_ >= doc_.size()) {
      return Error("unterminated attribute value");
    }
    HEMATCH_ASSIGN_OR_RETURN(
        const std::string_view value,
        DecodeEntities(doc_.substr(value_start, pos_ - value_start)));
    ++pos_;  // Closing quote.
    token->attributes.emplace_back(attr_name, value);
  }
}

}  // namespace hematch
