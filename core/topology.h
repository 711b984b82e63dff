#pragma once

// Socket topology discovery for the --pin affinity policies
// (workloads/driver.h): which CPU belongs to which socket.
//
// Discovery reads the Linux sysfs node directory
// (/sys/devices/system/node/node<N>/cpulist, "0-9,20-29" range syntax).
// Where that fails — non-Linux, containers that hide sysfs, single-node
// boxes with no node dirs — it falls back to ONE socket spanning every CPU
// (`discovered() == false`). Tests inject fake topologies (Topology::fake /
// from_sysfs over a scratch directory) so the multi-socket placement rules
// are exercisable on a single-socket CI runner.
//
// Placement rules:
//  * compact: sockets are filled one at a time, each socket's CPUs in sysfs
//    order (compact_cpu(t) = t-th CPU of that concatenation);
//  * scatter: threads round-robin ACROSS sockets first (scatter_cpu(t)
//    lands on socket t % socket_count). On one socket it equals compact.

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace rhtm {

// ---------------------------------------------------------- cpulist parse --

/// Parses the sysfs cpulist syntax ("0-3,8,10-11", trailing newline
/// tolerated) into ascending CPU ids. An empty/whitespace-only list is
/// valid and yields no CPUs (memory-only NUMA nodes have one). Returns
/// false on malformed text (the caller treats the node as undiscoverable).
[[nodiscard]] inline bool parse_cpulist(const char* text, std::vector<unsigned>* out) {
  out->clear();
  const char* p = text;
  const auto skip_ws = [&] {
    while (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r') ++p;
  };
  skip_ws();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long lo = std::strtoul(p, &end, 10);
    if (end == p || lo > 0xffffffu) return false;
    unsigned long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtoul(p, &end, 10);
      if (end == p || hi < lo || hi > 0xffffffu) return false;
      p = end;
    }
    for (unsigned long c = lo; c <= hi; ++c) out->push_back(static_cast<unsigned>(c));
    skip_ws();
    if (*p == ',') {
      ++p;
      skip_ws();
      if (*p == '\0') return false;  // dangling comma
      continue;
    }
    if (*p != '\0') return false;
  }
  return true;
}

// --------------------------------------------------------------- topology --

class Topology {
 public:
  /// The fallback geometry: one socket spanning CPUs [0, ncpu).
  [[nodiscard]] static Topology single_node(unsigned ncpu) {
    Topology t;
    t.sockets_.emplace_back();
    for (unsigned c = 0; c < (ncpu == 0 ? 1 : ncpu); ++c) t.sockets_[0].push_back(c);
    t.discovered_ = false;
    t.finalize();
    return t;
  }

  /// An injected geometry for tests/benches (counts as discovered). Empty
  /// socket lists are dropped; an entirely empty spec degrades to
  /// single_node(1).
  [[nodiscard]] static Topology fake(std::vector<std::vector<unsigned>> sockets) {
    Topology t;
    for (auto& s : sockets) {
      if (!s.empty()) t.sockets_.push_back(std::move(s));
    }
    if (t.sockets_.empty()) return single_node(1);
    t.discovered_ = true;
    t.finalize();
    return t;
  }

  /// Discovery over a sysfs-style node directory: reads
  /// `<node_root>/node<N>/cpulist` for N = 0, 1, ... until the first
  /// missing node. Any parse failure, or no node with CPUs at all, falls
  /// back to single_node over the hardware concurrency.
  [[nodiscard]] static Topology from_sysfs(const std::string& node_root) {
    Topology t;
    for (unsigned n = 0; n < kMaxNodes; ++n) {
      const std::string path = node_root + "/node" + std::to_string(n) + "/cpulist";
      std::FILE* f = std::fopen(path.c_str(), "r");
      if (f == nullptr) break;
      char buf[4096];
      const std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
      std::fclose(f);
      buf[got] = '\0';
      std::vector<unsigned> cpus;
      if (!parse_cpulist(buf, &cpus)) {
        t.sockets_.clear();
        break;
      }
      if (!cpus.empty()) t.sockets_.push_back(std::move(cpus));
    }
    if (t.sockets_.empty()) {
      return single_node(std::thread::hardware_concurrency());
    }
    t.discovered_ = true;
    t.finalize();
    return t;
  }

  /// The host's topology, discovered once per process.
  [[nodiscard]] static const Topology& system() {
    static const Topology t = from_sysfs("/sys/devices/system/node");
    return t;
  }

  /// False when discovery fell back to the single-node geometry.
  [[nodiscard]] bool discovered() const { return discovered_; }
  [[nodiscard]] unsigned socket_count() const {
    return static_cast<unsigned>(sockets_.size());
  }
  [[nodiscard]] unsigned cpu_count() const {
    return static_cast<unsigned>(compact_order_.size());
  }

  /// Compact placement: fill each socket's CPUs before moving to the next.
  [[nodiscard]] unsigned compact_cpu(unsigned tid) const {
    return compact_order_[tid % compact_order_.size()];
  }

  /// Scatter placement: round-robin across sockets first — thread t lands
  /// on socket t % socket_count, walking that socket's CPUs in order as
  /// tids wrap around.
  [[nodiscard]] unsigned scatter_cpu(unsigned tid) const {
    const unsigned s = tid % socket_count();
    const std::vector<unsigned>& cpus = sockets_[s];
    return cpus[(tid / socket_count()) % cpus.size()];
  }

 private:
  static constexpr unsigned kMaxNodes = 1024;

  void finalize() {
    compact_order_.clear();
    for (const auto& s : sockets_) {
      compact_order_.insert(compact_order_.end(), s.begin(), s.end());
    }
  }

  std::vector<std::vector<unsigned>> sockets_;
  std::vector<unsigned> compact_order_;
  bool discovered_ = false;
};

}  // namespace rhtm
