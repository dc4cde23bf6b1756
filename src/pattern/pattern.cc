#include "pattern/pattern.h"

#include <unordered_set>

#include "common/check.h"

namespace hematch {

namespace {

std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b,
                            std::uint64_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap;
  const std::uint64_t product = a * b;
  return product > cap ? cap : product;
}

}  // namespace

Pattern::Pattern(Kind kind, EventId event, std::vector<Pattern> children)
    : kind_(kind), event_(event), children_(std::move(children)) {
  if (kind_ == Kind::kEvent) {
    events_.push_back(event_);
    return;
  }
  for (const Pattern& child : children_) {
    events_.insert(events_.end(), child.events_.begin(), child.events_.end());
    linearizations_ = SaturatingMul(linearizations_, child.linearizations_,
                                    kMaxLinearizations);
  }
  if (kind_ == Kind::kAnd) {
    // The children's blocks may come in any of their k! orders.
    for (std::uint64_t k = 2; k <= children_.size(); ++k) {
      linearizations_ = SaturatingMul(linearizations_, k, kMaxLinearizations);
    }
  }
}

Pattern Pattern::Event(EventId event) {
  return Pattern(Kind::kEvent, event, {});
}

Result<Pattern> Pattern::MakeComposite(Kind kind,
                                       std::vector<Pattern> children) {
  if (children.empty()) {
    return Status::InvalidArgument(
        "composite patterns require at least one child");
  }
  Pattern pattern(kind, kInvalidEventId, std::move(children));
  std::unordered_set<EventId> distinct(pattern.events_.begin(),
                                       pattern.events_.end());
  if (distinct.size() != pattern.events_.size()) {
    return Status::InvalidArgument(
        "pattern events must be distinct: " + pattern.ToString());
  }
  return pattern;
}

Result<Pattern> Pattern::Seq(std::vector<Pattern> children) {
  return MakeComposite(Kind::kSeq, std::move(children));
}

Result<Pattern> Pattern::And(std::vector<Pattern> children) {
  return MakeComposite(Kind::kAnd, std::move(children));
}

Pattern Pattern::Edge(EventId u, EventId v) {
  HEMATCH_CHECK(u != v, "edge pattern endpoints must differ");
  std::vector<Pattern> children;
  children.push_back(Event(u));
  children.push_back(Event(v));
  Result<Pattern> result = Seq(std::move(children));
  return std::move(result).value();
}

Pattern Pattern::SeqOfEvents(const std::vector<EventId>& events) {
  std::vector<Pattern> children;
  children.reserve(events.size());
  for (EventId e : events) {
    children.push_back(Event(e));
  }
  Result<Pattern> result = Seq(std::move(children));
  HEMATCH_CHECK(result.ok(), "SeqOfEvents requires distinct events");
  return std::move(result).value();
}

Pattern Pattern::AndOfEvents(const std::vector<EventId>& events) {
  std::vector<Pattern> children;
  children.reserve(events.size());
  for (EventId e : events) {
    children.push_back(Event(e));
  }
  Result<Pattern> result = And(std::move(children));
  HEMATCH_CHECK(result.ok(), "AndOfEvents requires distinct events");
  return std::move(result).value();
}

EventId Pattern::event() const {
  HEMATCH_CHECK(kind_ == Kind::kEvent, "Pattern::event() on composite node");
  return event_;
}

bool Pattern::IsEdgePattern() const {
  return kind_ == Kind::kSeq && children_.size() == 2 &&
         children_[0].is_event() && children_[1].is_event();
}

std::string Pattern::ToString(const EventDictionary* dict) const {
  auto name = [dict](EventId e) {
    if (dict != nullptr && e < dict->size()) {
      return dict->Name(e);
    }
    std::string fallback = "#";
    fallback += std::to_string(e);
    return fallback;
  };
  switch (kind_) {
    case Kind::kEvent:
      return name(event_);
    case Kind::kSeq:
    case Kind::kAnd: {
      std::string out = kind_ == Kind::kSeq ? "SEQ(" : "AND(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ',';
        out += children_[i].ToString(dict);
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

bool operator==(const Pattern& a, const Pattern& b) {
  if (a.kind_ != b.kind_) return false;
  if (a.kind_ == Pattern::Kind::kEvent) return a.event_ == b.event_;
  return a.children_ == b.children_;
}

}  // namespace hematch
