#ifndef HEMATCH_LOG_XML_PARSER_H_
#define HEMATCH_LOG_XML_PARSER_H_

#include <forward_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hematch {

/// A minimal, dependency-free XML pull parser — just enough for XES
/// event logs (elements, attributes, the five predefined entities,
/// comments, processing instructions, and self-closing tags). Not a
/// general-purpose XML implementation: DTDs, CDATA, namespaces-as-URIs,
/// and mixed-content subtleties are out of scope and rejected or
/// ignored as documented per token kind.
class XmlParser {
 public:
  enum class TokenKind {
    /// `<name attr="v" ...>`
    kStartElement,
    /// `</name>` — also synthesized right after a self-closing element.
    kEndElement,
    /// Non-whitespace character data between tags (entity-decoded).
    kText,
    /// End of input.
    kEnd,
  };

  /// A token's strings are views into the document, or into the parser
  /// when entities had to be decoded: they stay valid while both live.
  struct Token {
    TokenKind kind = TokenKind::kEnd;
    /// Element name (start/end) or decoded text content.
    std::string_view name;
    /// Attributes of a start element, in document order.
    std::vector<std::pair<std::string_view, std::string_view>> attributes;

    /// First value of attribute `key`, or nullptr.
    const std::string_view* Find(std::string_view key) const;
    /// First value of attribute `key`, or an empty string.
    std::string_view Attribute(std::string_view key) const {
      return Find(key) == nullptr ? std::string_view() : *Find(key);
    }
  };

  /// Parses from an in-memory document; `document` must outlive the
  /// parser.
  explicit XmlParser(std::string_view document) : doc_(document) {}

  /// Reads the next token into `token`, reusing its storage; a
  /// ParseError carries the byte offset.
  Status Next(Token* token);

  /// Byte offset of the parse cursor (for error reporting / tests).
  std::size_t offset() const { return pos_; }

 private:
  Status Error(const std::string& message) const;
  void SkipWhitespace();
  bool SkipMisc();  // Comments, processing instructions, declarations.
  Result<std::string_view> ReadName();
  /// `raw` itself when it holds no `&`, else its decoding in `decoded_`.
  Result<std::string_view> DecodeEntities(std::string_view raw);

  std::string_view doc_;
  std::size_t pos_ = 0;
  /// Pending synthesized end-element (from `<x/>`).
  std::string_view pending_end_;
  /// Decoded values; a list, so that adding one moves none of the others.
  std::forward_list<std::string> decoded_;
};

/// `raw` with the five predefined entities escaped, for attribute values
/// and text.
std::string EscapeXml(std::string_view raw);

}  // namespace hematch

#endif  // HEMATCH_LOG_XML_PARSER_H_
