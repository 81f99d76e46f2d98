// In-memory span recording and the pass-through timing decorators the traced
// benchmark run wraps around the store and loader seams.
//
// A span is one call into a layer's public function: its kind, start, end,
// the job it served and the span that was open on the same thread when it
// began (its parent). Spans go into per-thread buffers, so recording never
// takes a shared lock, and are collected once every recording thread has
// been joined. TimedStore and TimedLoader forward every call unchanged; they
// only open a span around it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "grid/loader.hpp"
#include "storage/store.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRunJob,         // grid::StreamEngine::run_job, opened by the harness
  kRegister,       // PartitionLoader::register_iteration
  kAcquire,        // PartitionLoader::acquire_next
  kRelease,        // PartitionLoader::release
  kBeginChunk,     // PartitionLoader::begin_chunk
  kEndChunk,       // PartitionLoader::end_chunk
  kJobFinished,    // PartitionLoader::job_finished
  kReadPartition,  // PartitionedStore::read_partition
  kReadEdges,      // PartitionedStore::read_edges
};

const char* span_kind_name(SpanKind kind);

[[nodiscard]] inline bool is_store_span(SpanKind kind) {
  return kind == SpanKind::kReadPartition || kind == SpanKind::kReadEdges;
}

struct Span {
  std::uint64_t id = 0;      // unique within one recorder, never 0
  std::uint64_t parent = 0;  // 0 = no enclosing span on this thread
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;   // store spans: bytes requested
  std::uint32_t job = 0;
  SpanKind kind = SpanKind::kRunJob;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since the recorder was created (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  }

  /// Every span recorded so far, grouped by thread. Call only after the
  /// recording threads have been joined.
  [[nodiscard]] std::vector<Span> collect() const;

  /// Writes `spans` as CSV (one line per span). Returns false on I/O error.
  static bool write_csv(const std::vector<Span>& spans, const std::string& path);

 private:
  friend class SpanScope;
  using Clock = std::chrono::steady_clock;

  struct ThreadBuffer {
    std::uint64_t index = 0;
    std::uint64_t next_seq = 1;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // indexes into spans of the open spans
  };

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& thread_buffer();

  Clock::time_point origin_;
  std::uint64_t generation_;  // tells recorders apart in the thread-local cache
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mutex_
};

/// Opens a span on construction and closes it on destruction. Inert when
/// `recorder` is null, so untraced code paths share the decorators.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, SpanKind kind, std::uint32_t job, std::uint64_t bytes = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;
};

/// Pass-through decorator over a PartitionedStore: every read is a span.
class TimedStore final : public graphm::storage::PartitionedStore {
 public:
  TimedStore(const graphm::storage::PartitionedStore& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] const graphm::storage::StoreMeta& meta() const override { return inner_.meta(); }
  [[nodiscard]] std::uint32_t file_id() const override { return inner_.file_id(); }
  std::uint64_t read_partition(std::uint32_t i, std::vector<graphm::graph::Edge>& out,
                               graphm::sim::Platform& platform,
                               std::uint32_t job_id) const override;
  std::uint64_t read_edges(std::uint32_t i, graphm::graph::EdgeCount first_edge,
                           graphm::graph::EdgeCount count, graphm::graph::Edge* out,
                           graphm::sim::Platform& platform, std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override {
    return inner_.load_out_degrees();
  }

 private:
  const graphm::storage::PartitionedStore& inner_;
  SpanRecorder* recorder_;
};

/// Pass-through decorator over a PartitionLoader: every seam call is a span.
class TimedLoader final : public graphm::grid::PartitionLoader {
 public:
  TimedLoader(graphm::grid::PartitionLoader& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void register_iteration(std::uint32_t job_id,
                          const std::vector<std::uint32_t>& active_partitions) override;
  std::optional<graphm::grid::PartitionView> acquire_next(std::uint32_t job_id) override;
  void release(std::uint32_t job_id, std::uint32_t pid) override;
  void begin_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) override;
  void end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id,
                 std::uint64_t active_edges, std::uint64_t total_edges,
                 std::uint64_t elapsed_ns) override;
  void job_finished(std::uint32_t job_id) override;

 private:
  graphm::grid::PartitionLoader& inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench
