#include "log/event_dictionary.h"

#include <algorithm>

#include "common/check.h"

namespace hematch {

std::size_t EventDictionary::Slot(std::string_view name) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(name) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == kInvalidEventId || names_[slots_[i]] == name) {
      return i;
    }
  }
}

EventId EventDictionary::Intern(std::string_view name) {
  if (2 * names_.size() >= slots_.size()) {
    slots_.assign(std::max<std::size_t>(16, 4 * names_.size()),
                  kInvalidEventId);
    for (EventId id = 0; id < names_.size(); ++id) {
      slots_[Slot(names_[id])] = id;
    }
  }
  EventId& slot = slots_[Slot(name)];
  if (slot == kInvalidEventId) {
    slot = static_cast<EventId>(names_.size());
    names_.emplace_back(name);
  }
  return slot;
}

Result<EventId> EventDictionary::Lookup(std::string_view name) const {
  if (!Contains(name)) {
    return Status::NotFound("unknown event name: " + std::string(name));
  }
  return slots_[Slot(name)];
}

bool EventDictionary::Contains(std::string_view name) const {
  return !slots_.empty() && slots_[Slot(name)] != kInvalidEventId;
}

const std::string& EventDictionary::Name(EventId id) const {
  HEMATCH_CHECK(id < names_.size(), "event id out of range");
  return names_[id];
}

}  // namespace hematch
