#ifndef HEMATCH_COMMON_STRINGS_H_
#define HEMATCH_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace hematch {

/// Splits `input` on `delimiter`; empty fields are preserved
/// ("a,,b" -> {"a", "", "b"}). An empty input yields one empty field.
std::vector<std::string> SplitString(std::string_view input, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// Joins `parts` with `separator`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Appends the UTF-8 encoding of `code`, a Unicode scalar value (below
/// 0x110000 and not a surrogate; callers check).
void AppendUtf8(char32_t code, std::string* out);

}  // namespace hematch

#endif  // HEMATCH_COMMON_STRINGS_H_
