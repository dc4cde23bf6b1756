#ifndef HEMATCH_OBS_JSON_H_
#define HEMATCH_OBS_JSON_H_

/// \file
/// The one JSON reader behind every hematch wire format — telemetry
/// snapshots, heartbeat lines, Chrome traces, `hematch.serve.v1`
/// request/response lines and the access log — plus the two helpers
/// their writers share.
///
/// `ParseJson` builds a small DOM: strict commas, no comments, nesting
/// capped, numbers per the JSON grammar (so `nan`, `inf` and `infinity`
/// are rejected, as are `+1`, `.5` and `01`). Every number keeps its
/// nearest double in `number`; a non-negative integer literal also keeps
/// its exact value up to UINT64_MAX, read through `AsUint64()`, so ids
/// and counters never pass through a double.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hematch::obs {

/// Generic JSON value. Object fields preserve document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                          ///< kArray.
  std::vector<std::pair<std::string, JsonValue>> fields; ///< kObject.

  /// Field lookup on an object; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  const std::string& TextOr(const std::string& fallback) const {
    return kind == Kind::kString ? text : fallback;
  }
  /// The exact value of a number written as plain digits (no sign,
  /// fraction or exponent) that fits in 64 bits; nullopt for anything
  /// else, including `1.0`, `1e3`, `-1` and 18446744073709551616.
  std::optional<std::uint64_t> AsUint64() const {
    return kind == Kind::kNumber ? exact_uint_ : std::nullopt;
  }

  /// A number; `exact` is the literal's exact value when `AsUint64`
  /// should report one.
  static JsonValue Number(double value,
                          std::optional<std::uint64_t> exact = std::nullopt) {
    JsonValue out;
    out.kind = Kind::kNumber;
    out.number = value;
    out.exact_uint_ = exact;
    return out;
  }

 private:
  std::optional<std::uint64_t> exact_uint_;
};

/// Parses one JSON document; anything after it but whitespace is an
/// error.
Result<JsonValue> ParseJson(std::string_view text);

/// Copies the exact integer in field `key` of `obj` into `*out`. True
/// when the field is absent (leaving `*out` alone) or holds plain digits
/// with a value in [0, max]; false for anything else, which callers turn
/// into their own error instead of a truncating cast.
template <typename T>
bool ReadUintField(const JsonValue& obj, std::string_view key, T* out,
                   std::uint64_t max = std::numeric_limits<T>::max()) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) {
    return true;
  }
  const std::optional<std::uint64_t> value = field->AsUint64();
  if (!value.has_value() || *value > max) {
    return false;
  }
  *out = static_cast<T>(*value);
  return true;
}

/// JSON string escaping for the small exporter surface (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view text);

/// Round-trippable JSON representation of a double (shortest form that
/// parses back exactly; non-finite values render as 0).
std::string JsonNumber(double value);

}  // namespace hematch::obs

#endif  // HEMATCH_OBS_JSON_H_
