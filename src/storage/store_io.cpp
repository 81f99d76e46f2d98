#include "storage/store_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace graphm::storage {

using graph::Edge;
using graph::EdgeCount;
using graph::VertexId;

namespace {

struct Bytes {
  const void* data;
  std::size_t size;
};

template <typename T>
Bytes bytes_of(const T& value) {
  return {&value, sizeof(T)};
}

template <typename T>
Bytes bytes_of(const std::vector<T>& values) {
  return {values.data(), values.size() * sizeof(T)};
}

// Writes `parts` back to back as the whole of `file`.
void write_file(const std::string& file, std::initializer_list<Bytes> parts,
                const std::string& owner) {
  std::FILE* f = std::fopen(file.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error(owner + ": cannot write " + file);
  bool written = true;
  for (const Bytes& part : parts) {
    written = written && (part.size == 0 || std::fwrite(part.data, 1, part.size, f) == part.size);
  }
  if (std::fclose(f) != 0 || !written) throw std::runtime_error(owner + ": short write " + file);
}

}  // namespace

std::uint64_t write_store(const graph::EdgeList& graph, const StoreLayout& layout,
                          std::uint32_t magic, const std::string& path, const std::string& owner) {
  util::Timer timer;
  const std::uint32_t partitions = layout.num_partitions;
  StoreMeta meta;
  meta.num_vertices = graph.num_vertices();
  meta.num_edges = graph.num_edges();
  meta.num_partitions = partitions;
  meta.partitions_by_source = layout.partitions_by_source;
  meta.blocks_per_partition = layout.partitions_by_source ? partitions : 1;
  const std::uint32_t rows = layout.partitions_by_source ? partitions : 1;
  const std::size_t cells = static_cast<std::size_t>(rows) * partitions;
  meta.block_offsets.assign(cells, 0);
  meta.block_edges.assign(cells, 0);

  // The vertex range of v, as StoreMeta::partition_of computes it.
  const VertexId per = (meta.num_vertices + partitions - 1) / partitions;
  const auto range_of = [per, partitions](VertexId v) -> std::uint32_t {
    return per == 0 ? 0 : std::min<std::uint32_t>(partitions - 1, v / per);
  };

  // Stable counting sort. A key is (unit, column): the unit is the source
  // vertex when grouping by source and the source's row otherwise, the
  // column is the destination range. Walking the keys in (row, column,
  // unit) order turns the counts into each key's first output slot.
  const std::vector<Edge>& edges = graph.edges();
  std::vector<std::uint32_t> degrees(meta.num_vertices, 0);
  std::vector<Edge> data(edges.size());
  const auto place = [&](std::size_t units, auto unit_of, auto units_of_row) {
    std::vector<EdgeCount> cursor(units * partitions, 0);
    for (const Edge& e : edges) {
      ++cursor[unit_of(e.src) * partitions + range_of(e.dst)];
      ++degrees[e.src];
    }
    EdgeCount next = 0;
    for (std::uint32_t r = 0; r < rows; ++r) {
      const auto [first_unit, last_unit] = units_of_row(r);
      for (std::uint32_t c = 0; c < partitions; ++c) {
        const EdgeCount block_begin = next;
        for (std::size_t u = first_unit; u < last_unit; ++u) {
          EdgeCount& slot = cursor[u * partitions + c];
          next += std::exchange(slot, next);
        }
        const std::size_t cell = static_cast<std::size_t>(r) * partitions + c;
        meta.block_offsets[cell] = block_begin * sizeof(Edge);
        meta.block_edges[cell] = next - block_begin;
      }
    }
    for (const Edge& e : edges) data[cursor[unit_of(e.src) * partitions + range_of(e.dst)]++] = e;
  };
  if (layout.src_sort) {
    place(
        meta.num_vertices, [](VertexId src) -> std::size_t { return src; },
        [&meta](std::uint32_t r) { return meta.vertex_range(r); });
  } else {
    const bool by_source = layout.partitions_by_source;
    place(
        rows, [&](VertexId src) -> std::size_t { return by_source ? range_of(src) : 0; },
        [](std::uint32_t r) { return std::pair<std::uint32_t, std::uint32_t>{r, r + 1}; });
  }

  // Persisting the layout is part of the conversion the paper's Table 3 times.
  write_file(path + ".data", {bytes_of(data)}, owner);
  meta.preprocess_ns = timer.elapsed_ns();

  write_file(path + ".meta",
             {bytes_of(magic), bytes_of(meta.num_vertices), bytes_of(meta.num_edges),
              bytes_of(meta.num_partitions), bytes_of(meta.preprocess_ns),
              bytes_of(meta.block_offsets), bytes_of(meta.block_edges)},
             owner);
  write_file(path + ".deg", {bytes_of(degrees)}, owner);
  return meta.preprocess_ns;
}

StoreMeta read_store_meta(const std::string& path, std::uint32_t magic,
                          bool partitions_by_source, const std::string& owner) {
  const std::string meta_path = path + ".meta";
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(meta_path.c_str(), "rb"),
                                                          &std::fclose);
  if (f == nullptr) throw std::runtime_error(owner + ": cannot open " + meta_path);
  const auto read = [&f](void* dst, std::size_t bytes) {
    return std::fread(dst, 1, bytes, f.get()) == bytes;
  };
  const auto corrupt = [&path, &owner](const std::string& why) {
    return std::runtime_error(owner + ": corrupt " + path + ": " + why);
  };

  StoreMeta meta;
  meta.partitions_by_source = partitions_by_source;
  std::uint32_t stored_magic = 0;
  if (!read(&stored_magic, sizeof(stored_magic)) || stored_magic != magic ||
      !read(&meta.num_vertices, sizeof(meta.num_vertices)) ||
      !read(&meta.num_edges, sizeof(meta.num_edges)) ||
      !read(&meta.num_partitions, sizeof(meta.num_partitions)) ||
      !read(&meta.preprocess_ns, sizeof(meta.preprocess_ns))) {
    throw corrupt("bad meta header");
  }
  const std::uint32_t partitions = meta.num_partitions;
  if (partitions == 0 || partitions > std::max<VertexId>(1, meta.num_vertices)) {
    throw corrupt("num_partitions " + std::to_string(partitions) +
                  " outside [1, max(1, num_vertices)]");
  }
  // The meta file must hold exactly the two block arrays, so a corrupt P is
  // rejected before it sizes an allocation.
  meta.blocks_per_partition = partitions_by_source ? partitions : 1;
  const std::size_t cells = static_cast<std::size_t>(partitions) * meta.blocks_per_partition;
  constexpr std::uint64_t kHeaderBytes = sizeof(stored_magic) + sizeof(meta.num_vertices) +
                                         sizeof(meta.num_edges) + sizeof(meta.num_partitions) +
                                         sizeof(meta.preprocess_ns);
  constexpr std::uint64_t kCellBytes = 2 * sizeof(std::uint64_t);
  std::error_code ec;
  const std::uint64_t table_bytes = std::filesystem::file_size(meta_path, ec) - kHeaderBytes;
  if (ec || table_bytes % kCellBytes != 0 || table_bytes / kCellBytes != cells) {
    throw corrupt("meta size does not match num_partitions");
  }
  meta.block_offsets.resize(cells);
  meta.block_edges.resize(cells);
  if (!read(meta.block_offsets.data(), cells * sizeof(std::uint64_t)) ||
      !read(meta.block_edges.data(), cells * sizeof(std::uint64_t))) {
    throw corrupt("truncated block table");
  }

  // Blocks tile the data file row-major: each starts where the previous one
  // ended (a partition is one contiguous read) and none runs past the end.
  const std::uint64_t data_bytes = std::filesystem::file_size(path + ".data", ec);
  if (ec) throw std::runtime_error(owner + ": cannot open " + path + ".data");
  std::uint64_t end = 0;
  EdgeCount edges = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (meta.block_offsets[c] != end) throw corrupt("block offsets not ascending and contiguous");
    if (meta.block_edges[c] > (data_bytes - end) / sizeof(Edge)) {
      throw corrupt("block runs past the end of the .data file");
    }
    end += meta.block_edges[c] * sizeof(Edge);
    edges += meta.block_edges[c];
  }
  if (edges != meta.num_edges) throw corrupt("block edge counts do not sum to num_edges");

  // A missing .deg only fails read_degrees; one of the wrong size is a
  // corrupt store.
  const std::string deg_path = path + ".deg";
  if (std::filesystem::exists(deg_path, ec) &&
      std::filesystem::file_size(deg_path, ec) !=
          std::uint64_t{meta.num_vertices} * sizeof(std::uint32_t)) {
    throw corrupt(".deg size does not match num_vertices");
  }
  return meta;
}

std::vector<std::uint32_t> read_degrees(const std::string& path, VertexId num_vertices,
                                        const std::string& owner) {
  std::vector<std::uint32_t> degrees(num_vertices, 0);
  std::FILE* f = std::fopen((path + ".deg").c_str(), "rb");
  if (f == nullptr) throw std::runtime_error(owner + ": cannot open " + path + ".deg");
  const std::size_t got = std::fread(degrees.data(), sizeof(std::uint32_t), degrees.size(), f);
  std::fclose(f);
  if (got != degrees.size()) throw std::runtime_error(owner + ": truncated " + path + ".deg");
  return degrees;
}

DataFile::DataFile(const std::string& path, const std::string& owner) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error(owner + ": cannot open " + path);
  fd_ = std::shared_ptr<const int>(new int(fd), [](const int* p) {
    ::close(*p);
    delete p;
  });
}

bool DataFile::read_exact(void* out, std::uint64_t bytes, std::uint64_t offset) const {
  auto* dst = static_cast<char*>(out);
  while (bytes > 0) {
    const ssize_t got = ::pread(*fd_, dst, bytes, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;  // error, or the file ended first
    dst += got;
    bytes -= static_cast<std::uint64_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

}  // namespace graphm::storage
