#ifndef HEMATCH_PATTERN_PATTERN_H_
#define HEMATCH_PATTERN_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "log/event_dictionary.h"

namespace hematch {

/// An event pattern (Definition 3): a recursive composition of
///
///  * a single event `e`;
///  * `SEQ(p1, ..., pk)` — the sub-patterns occur sequentially, with no
///    other event between two consecutive sub-patterns;
///  * `AND(p1, ..., pk)` — the sub-patterns occur concurrently, i.e., in
///    any order (each sub-pattern's own string stays contiguous).
///
/// All events in one pattern must be distinct (the paper's assumption,
/// which makes distinct patterns translate to distinct graphs); the
/// factory functions enforce this and return an error otherwise.
///
/// A pattern denotes a finite language `I(p)` of allowed event orders:
///   I(e)             = { e }
///   I(SEQ(p1..pk))   = I(p1) · I(p2) · ... · I(pk)      (concatenation)
///   I(AND(p1..pk))   = U_{permutations s} I(p_s1) · ... · I(p_sk)
///
/// Vertices and edges of the dependency graph are the special cases
/// `Event(v)` and `Seq({Event(u), Event(v)})`.
class Pattern {
 public:
  enum class Kind : std::uint8_t { kEvent, kSeq, kAnd };

  /// A single-event pattern.
  static Pattern Event(EventId event);

  /// A SEQ pattern. Requires at least one child and all events distinct.
  static Result<Pattern> Seq(std::vector<Pattern> children);

  /// An AND pattern. Requires at least one child and all events distinct.
  static Result<Pattern> And(std::vector<Pattern> children);

  /// Convenience: the edge pattern SEQ(u, v).
  static Pattern Edge(EventId u, EventId v);

  /// Convenience: SEQ of single events.
  static Pattern SeqOfEvents(const std::vector<EventId>& events);

  /// Convenience: AND of single events.
  static Pattern AndOfEvents(const std::vector<EventId>& events);

  Pattern(const Pattern&) = default;
  Pattern& operator=(const Pattern&) = default;
  Pattern(Pattern&&) = default;
  Pattern& operator=(Pattern&&) = default;

  Kind kind() const { return kind_; }
  bool is_event() const { return kind_ == Kind::kEvent; }

  /// The event of a `kEvent` node. Requires `is_event()`.
  EventId event() const;

  /// Children of a `kSeq`/`kAnd` node (empty for `kEvent`).
  const std::vector<Pattern>& children() const { return children_; }

  /// The events `V(p)` in left-to-right appearance order.
  const std::vector<EventId>& events() const { return events_; }

  /// `|p|` — the number of events in the pattern.
  std::size_t size() const { return events_.size(); }

  /// `w(p) = |I(p)|` — the number of allowed event orders, saturating at
  /// `kMaxLinearizations` to avoid overflow on pathological inputs. Used
  /// by the tight bound (Table 2, cases 2-4: SEQ has w = 1, a flat AND of
  /// k events has w = k!). Cached at construction, like `events()`.
  std::uint64_t NumLinearizations() const { return linearizations_; }

  /// Saturation limit for `NumLinearizations`.
  static constexpr std::uint64_t kMaxLinearizations = 1ULL << 40;

  /// True when the pattern is a single event (vertex pattern).
  bool IsVertexPattern() const { return is_event(); }

  /// True when the pattern is SEQ(u, v) for single events u, v
  /// (edge pattern, the special case of Theorem 1).
  bool IsEdgePattern() const;

  /// Renders the pattern, e.g. "SEQ(A,AND(B,C),D)". With a dictionary the
  /// event names are used; otherwise ids are rendered as "#<id>".
  std::string ToString(const EventDictionary* dict = nullptr) const;

  /// Structural equality (same shape and events).
  friend bool operator==(const Pattern& a, const Pattern& b);

 private:
  Pattern(Kind kind, EventId event, std::vector<Pattern> children);

  static Result<Pattern> MakeComposite(Kind kind,
                                       std::vector<Pattern> children);

  Kind kind_;
  EventId event_;  // Valid only for kEvent.
  std::vector<Pattern> children_;
  std::vector<EventId> events_;  // Cached V(p).
  std::uint64_t linearizations_ = 1;  // Cached w(p).
};

}  // namespace hematch

#endif  // HEMATCH_PATTERN_PATTERN_H_
