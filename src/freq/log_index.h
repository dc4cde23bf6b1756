#ifndef HEMATCH_FREQ_LOG_INDEX_H_
#define HEMATCH_FREQ_LOG_INDEX_H_

#include <cstddef>

#include "freq/bitmap_index.h"
#include "freq/inverted_index.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {

/// Everything the matchers derive from one log's traces, built in one
/// walk over them: the dependency graph (Definition 1) and the trace
/// inverted index `It` (Section 3.2.3), as posting lists and bitmap rows.
///
/// Immutable once built, so its consumers share one instance through a
/// `shared_ptr<const LogIndex>`: frequency evaluators, the co-occurrence
/// matrix, sibling contexts, and every serve pair using a registered log.
/// Lookup counters live with the callers (`FrequencyEvaluator::Stats`).
class LogIndex {
 public:
  /// Walks `log` once. The log must outlive the index.
  explicit LogIndex(const EventLog& log);

  LogIndex(const LogIndex&) = delete;
  LogIndex& operator=(const LogIndex&) = delete;

  const EventLog& log() const { return *log_; }
  std::size_t num_traces() const { return log_->num_traces(); }

  const DependencyGraph& graph() const { return graph_; }
  const TraceIndex& postings() const { return postings_; }
  const BitmapTraceIndex& bitmap() const { return bitmap_; }

 private:
  const EventLog* log_;
  // Declared before `graph_`: the graph's walk fills them.
  TraceIndex postings_;
  BitmapTraceIndex bitmap_;
  DependencyGraph graph_;
};

}  // namespace hematch

#endif  // HEMATCH_FREQ_LOG_INDEX_H_
