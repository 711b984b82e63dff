// Topology layer (core/topology.h) behind --pin: cpulist parsing, fake
// sysfs discovery, single-node fallback and the scatter placement rule.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- parsing --

void cpulist_parses() {
  std::vector<unsigned> cpus;
  CHECK(parse_cpulist("0-3,8,10-11\n", &cpus));
  CHECK(cpus == (std::vector<unsigned>{0, 1, 2, 3, 8, 10, 11}));
  CHECK(parse_cpulist("5", &cpus));
  CHECK(cpus == (std::vector<unsigned>{5}));
  CHECK(parse_cpulist("", &cpus));  // memory-only node: valid, no CPUs
  CHECK(cpus.empty());
  CHECK(parse_cpulist("  \n", &cpus));
  CHECK(cpus.empty());
  CHECK(!parse_cpulist("a-b", &cpus));
  CHECK(!parse_cpulist("3-1", &cpus));  // descending range
  CHECK(!parse_cpulist("1,", &cpus));   // dangling comma
  CHECK(!parse_cpulist("1-", &cpus));   // dangling dash
  CHECK(!parse_cpulist("1;2", &cpus));
}

// ----------------------------------------------------------- discovery --

/// Builds a fake sysfs node tree and returns its root.
fs::path make_fake_sysfs(const std::vector<const char*>& cpulists) {
  const fs::path root = fs::temp_directory_path() / "rhtm_topology_test_nodes";
  fs::remove_all(root);
  for (std::size_t n = 0; n < cpulists.size(); ++n) {
    const fs::path dir = root / ("node" + std::to_string(n));
    fs::create_directories(dir);
    std::ofstream(dir / "cpulist") << cpulists[n];
  }
  return root;
}

void sysfs_discovery() {
  // 2 CPU sockets + one memory-only node (empty cpulist — skipped, and the
  // scan continues past it to prove numbering is not truncated by it).
  const fs::path root = make_fake_sysfs({"0-3,16-19\n", "", "4-7,20-23\n"});
  const Topology t = Topology::from_sysfs(root.string());
  CHECK(t.discovered());
  CHECK_EQ(t.socket_count(), 2u);
  CHECK_EQ(t.cpu_count(), 16u);
  // compact: socket 0's list first, then socket 1's.
  CHECK_EQ(t.compact_cpu(0), 0u);
  CHECK_EQ(t.compact_cpu(3), 3u);
  CHECK_EQ(t.compact_cpu(4), 16u);
  CHECK_EQ(t.compact_cpu(8), 4u);
  // scatter: round-robin across sockets first (tid % sockets picks the
  // socket), walking each socket's cpulist in order.
  CHECK_EQ(t.scatter_cpu(0), 0u);
  CHECK_EQ(t.scatter_cpu(1), 4u);
  CHECK_EQ(t.scatter_cpu(2), 1u);
  CHECK_EQ(t.scatter_cpu(3), 5u);
  fs::remove_all(root);
}

void sysfs_fallback_on_malformed() {
  const fs::path root = make_fake_sysfs({"0-1\n", "not a cpulist\n"});
  const Topology t = Topology::from_sysfs(root.string());
  CHECK(!t.discovered());  // any parse failure: whole discovery falls back
  CHECK_EQ(t.socket_count(), 1u);
  fs::remove_all(root);

  const Topology missing = Topology::from_sysfs("/nonexistent/rhtm/nodes");
  CHECK(!missing.discovered());
  CHECK_EQ(missing.socket_count(), 1u);
  CHECK(missing.cpu_count() >= 1u);
}

void single_node_fallback() {
  const Topology t = Topology::single_node(8);
  CHECK(!t.discovered());
  CHECK_EQ(t.socket_count(), 1u);
  CHECK_EQ(t.cpu_count(), 8u);
  for (unsigned tid = 0; tid < 8; ++tid) {
    CHECK_EQ(t.compact_cpu(tid), tid);
    CHECK_EQ(t.scatter_cpu(tid), tid);  // one socket: scatter degenerates
  }
  CHECK_EQ(Topology::single_node(0).cpu_count(), 1u);  // never empty
}

// ------------------------------------------------------- pin placement --

void scatter_pin_rule() {
  const Topology topo = Topology::fake({{0, 1, 2, 3}, {4, 5, 6, 7}});
  // Thread t scatter-lands on socket t % socket_count: socket 0 owns CPUs
  // 0-3, socket 1 owns CPUs 4-7.
  for (unsigned tid = 0; tid < 8; ++tid) {
    const unsigned pin_socket = topo.scatter_cpu(tid) < 4 ? 0u : 1u;
    CHECK_EQ(pin_socket, tid % topo.socket_count());
  }
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"cpulist_parses", rhtm::cpulist_parses},
      TestCase{"sysfs_discovery", rhtm::sysfs_discovery},
      TestCase{"sysfs_fallback_on_malformed", rhtm::sysfs_fallback_on_malformed},
      TestCase{"single_node_fallback", rhtm::single_node_fallback},
      TestCase{"scatter_pin_rule", rhtm::scatter_pin_rule},
  });
}
