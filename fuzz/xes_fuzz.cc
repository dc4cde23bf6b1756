// libFuzzer entry point for the XML/XES readers: arbitrary bytes must
// produce either a log or a ParseError — never a crash, a hang or a
// token view that outlives what it points into.
// Build with -DHEMATCH_BUILD_FUZZERS=ON (requires clang's libFuzzer).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/xes_io.h"
#include "log/xml_parser.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace hematch;
  const std::string text(reinterpret_cast<const char*>(data), size);
  {
    // Tokens are views into `text` and into the parser, valid while both
    // live: read every byte of every token only after the last one, so
    // the sanitizers see any view that a later Next() left dangling.
    XmlParser parser(text);
    XmlParser::Token token;
    std::vector<XmlParser::Token> tokens;
    for (int i = 0; i < 100000; ++i) {
      if (!parser.Next(&token).ok() ||
          token.kind == XmlParser::TokenKind::kEnd) {
        break;
      }
      tokens.push_back(token);
    }
    std::size_t sum = 0;
    const auto touch = [&sum](std::string_view view) {
      for (const char c : view) sum += static_cast<unsigned char>(c);
    };
    for (const XmlParser::Token& token : tokens) {
      touch(token.name);
      for (const auto& [key, value] : token.attributes) {
        touch(key);
        touch(value);
      }
    }
    if (sum == ~std::size_t{0}) {
      __builtin_trap();  // Unreachable; keeps the reads from being elided.
    }
  }
  {
    // Both modes: lenient salvage and strict rejection must be safe.
    std::istringstream in(text);
    (void)ReadXesLog(in);
  }
  {
    XesReadOptions strict;
    strict.strict = true;
    strict.max_depth = 16;  // Exercise the depth ceiling too.
    std::istringstream in(text);
    (void)ReadXesLog(in, strict);
  }
  return 0;
}
