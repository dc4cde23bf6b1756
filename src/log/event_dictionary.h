#ifndef HEMATCH_LOG_EVENT_DICTIONARY_H_
#define HEMATCH_LOG_EVENT_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hematch {

/// Dense integer identifier of an event type within one log's vocabulary.
/// Event names are opaque strings (the whole premise of the paper); every
/// algorithm works on `EventId`s and only I/O layers touch names.
using EventId = std::uint32_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEventId = ~EventId{0};

/// Bidirectional mapping between opaque event names and dense `EventId`s.
///
/// Ids are assigned in first-seen order, which the experiment harness
/// relies on: the paper's "event set with size x is determined by
/// projecting the first x events appearing in the dataset" becomes
/// "keep ids < x".
class EventDictionary {
 public:
  EventDictionary() = default;

  /// Returns the id of `name`, interning it if unseen.
  EventId Intern(std::string_view name);

  /// Returns the id of `name` or an error if it was never interned.
  Result<EventId> Lookup(std::string_view name) const;

  /// True if `name` has been interned.
  bool Contains(std::string_view name) const;

  /// Returns the name for `id`. Requires `id < size()`.
  const std::string& Name(EventId id) const;

  /// Number of distinct events.
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  /// All names in id order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  // The slot holding `name`'s id, or the empty one where it would go.
  std::size_t Slot(std::string_view name) const;

  std::vector<std::string> names_;
  // Ids by name hash, probed linearly (kInvalidEventId marks a free slot),
  // at most half full: one hash and no allocation per lookup.
  std::vector<EventId> slots_;
};

}  // namespace hematch

#endif  // HEMATCH_LOG_EVENT_DICTIONARY_H_
