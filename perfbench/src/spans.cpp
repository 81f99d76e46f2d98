#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};

struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRunJob: return "run_job";
    case SpanKind::kRegister: return "register_iteration";
    case SpanKind::kAcquire: return "acquire_next";
    case SpanKind::kRelease: return "release";
    case SpanKind::kBeginChunk: return "begin_chunk";
    case SpanKind::kEndChunk: return "end_chunk";
    case SpanKind::kJobFinished: return "job_finished";
    case SpanKind::kReadPartition: return "read_partition";
    case SpanKind::kReadEdges: return "read_edges";
  }
  return "?";
}

SpanRecorder::SpanRecorder()
    : origin_(Clock::now()), generation_(g_next_generation.fetch_add(1)) {}

SpanRecorder::ThreadBuffer& SpanRecorder::thread_buffer() {
  if (t_cache.generation == generation_) return *static_cast<ThreadBuffer*>(t_cache.buffer);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->spans.reserve(1 << 14);
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    raw->index = buffers_.size();
    buffers_.push_back(std::move(buffer));
  }
  t_cache.generation = generation_;
  t_cache.buffer = raw;
  return *raw;
}

std::vector<Span> SpanRecorder::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool SpanRecorder::write_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,kind,job,start_ns,end_ns,bytes\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu,%llu,%s,%u,%llu,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 span_kind_name(s.kind), s.job, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(out) == 0;
}

SpanScope::SpanScope(SpanRecorder* recorder, SpanKind kind, std::uint32_t job,
                     std::uint64_t bytes)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  buffer_ = &recorder_->thread_buffer();
  Span span;
  span.id = (buffer_->index << 40) | buffer_->next_seq++;
  span.parent = buffer_->open.empty() ? 0 : buffer_->spans[buffer_->open.back()].id;
  span.kind = kind;
  span.job = job;
  span.bytes = bytes;
  buffer_->open.push_back(buffer_->spans.size());
  buffer_->spans.push_back(span);
  // Last, so the bookkeeping above is not inside the measured interval.
  buffer_->spans.back().start_ns = recorder_->now_ns();
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  const std::uint64_t end = recorder_->now_ns();
  buffer_->spans[buffer_->open.back()].end_ns = end;
  buffer_->open.pop_back();
}

std::uint64_t TimedStore::read_partition(std::uint32_t i, std::vector<graphm::graph::Edge>& out,
                                         graphm::sim::Platform& platform,
                                         std::uint32_t job_id) const {
  SpanScope span(recorder_, SpanKind::kReadPartition, job_id, inner_.meta().partition_bytes(i));
  return inner_.read_partition(i, out, platform, job_id);
}

std::uint64_t TimedStore::read_edges(std::uint32_t i, graphm::graph::EdgeCount first_edge,
                                     graphm::graph::EdgeCount count, graphm::graph::Edge* out,
                                     graphm::sim::Platform& platform,
                                     std::uint32_t job_id) const {
  SpanScope span(recorder_, SpanKind::kReadEdges, job_id, count * sizeof(graphm::graph::Edge));
  return inner_.read_edges(i, first_edge, count, out, platform, job_id);
}

void TimedLoader::register_iteration(std::uint32_t job_id,
                                     const std::vector<std::uint32_t>& active_partitions) {
  SpanScope span(recorder_, SpanKind::kRegister, job_id);
  inner_.register_iteration(job_id, active_partitions);
}

std::optional<graphm::grid::PartitionView> TimedLoader::acquire_next(std::uint32_t job_id) {
  SpanScope span(recorder_, SpanKind::kAcquire, job_id);
  return inner_.acquire_next(job_id);
}

void TimedLoader::release(std::uint32_t job_id, std::uint32_t pid) {
  SpanScope span(recorder_, SpanKind::kRelease, job_id);
  inner_.release(job_id, pid);
}

void TimedLoader::begin_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) {
  SpanScope span(recorder_, SpanKind::kBeginChunk, job_id);
  inner_.begin_chunk(job_id, pid, chunk_id);
}

void TimedLoader::end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id,
                            std::uint64_t active_edges, std::uint64_t total_edges,
                            std::uint64_t elapsed_ns) {
  SpanScope span(recorder_, SpanKind::kEndChunk, job_id);
  inner_.end_chunk(job_id, pid, chunk_id, active_edges, total_edges, elapsed_ns);
}

void TimedLoader::job_finished(std::uint32_t job_id) {
  SpanScope span(recorder_, SpanKind::kJobFinished, job_id);
  inner_.job_finished(job_id);
}

}  // namespace perfbench
