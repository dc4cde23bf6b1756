#ifndef HEMATCH_COMMON_FILE_H_
#define HEMATCH_COMMON_FILE_H_

#include <iosfwd>
#include <string>

#include "common/result.h"

namespace hematch {

/// Reads the rest of `input` into one string.
std::string ReadAll(std::istream& input);

/// Reads the file at `path` into one string, with a single read when its
/// size is known (pipes are drained instead). NotFound when it cannot be
/// opened.
Result<std::string> ReadFile(const std::string& path);

}  // namespace hematch

#endif  // HEMATCH_COMMON_FILE_H_
