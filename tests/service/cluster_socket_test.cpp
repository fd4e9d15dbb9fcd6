// The cluster over real UDP sockets and real processes: every ClusterNode
// is a forked child with its own SocketTransport and a FileEffectLog over
// one shared file; the node kill is a real SIGKILL. What the sim cannot
// prove — survival of kernel buffers, real clocks, actual process death,
// and cross-process durability of the effect log — is proved here. The
// cluster-wide exactly-once check reads the WHOLE file back
// (FileEffectLog::read_all) and asserts no duplicate (client, seq) pair.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/socket_transport.hpp"
#include "service/cluster.hpp"

namespace mw {
namespace {

constexpr std::uint64_t kRingSeed = 7;
constexpr std::size_t kVnodes = 8;

/// SIGKILL + reap every child on scope exit, so a failing assertion can't
/// leak processes into the test runner.
struct ChildReaper {
  std::vector<pid_t> pids;
  ~ChildReaper() {
    for (pid_t p : pids) {
      ::kill(p, SIGKILL);
      int status = 0;
      ::waitpid(p, &status, 0);
    }
  }
};

bool read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

ClusterConfig socket_cluster_config(NodeId self) {
  ClusterConfig c;
  c.seed = kRingSeed;
  c.vnodes = kVnodes;
  c.peer_health = {.heartbeat_interval = vt_ms(10),
                   .suspect_after = vt_ms(60),
                   .dead_after = vt_ms(150)};
  c.probation = vt_ms(100);
  c.service.seed = self;
  c.service.service_mean = vt_ms(1);
  c.service.hedge_delay = vt_ms(5);
  c.service.default_deadline = vt_ms(400);
  return c;
}

ClientConfig socket_client_config() {
  ClientConfig c;
  c.retry_after = vt_ms(50);
  c.max_retries = 8;
  c.deadline = vt_ms(400);
  return c;
}

/// Forked cluster-node body. Handshake: write our UDP port to the parent,
/// read back the full (id, port) table, then boot the ClusterNode over the
/// shared on-disk effect log and serve until killed (or a 30 s budget).
[[noreturn]] void cluster_node_process(NodeId self,
                                       const std::vector<NodeId>& members,
                                       int wr_port, int rd_table,
                                       const std::string& log_path) {
  SocketTransport transport(self);
  const std::uint16_t port = transport.port();
  if (!write_full(wr_port, &port, sizeof port)) ::_exit(1);
  ::close(wr_port);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint64_t id = 0;
    std::uint16_t p = 0;
    if (!read_full(rd_table, &id, sizeof id) ||
        !read_full(rd_table, &p, sizeof p))
      ::_exit(1);
    if (id != self) transport.add_peer(id, p);
  }
  ::close(rd_table);
  FileEffectLog effects(log_path, self);
  if (!effects.valid()) ::_exit(1);
  ClusterNode node(transport, self, members, effects,
                   socket_cluster_config(self));
  const VTime budget = transport.now() + vt_sec(30);
  while (transport.now() < budget)
    transport.run_until(transport.now() + vt_ms(2));
  ::_exit(0);
}

/// Drives the parent transport until `pred` holds or `budget_ms` of wall
/// time passes.
bool pump(SocketTransport& transport, const std::function<bool()>& pred,
          int budget_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    transport.run_until(transport.now() + vt_ms(2));
  }
  return true;
}

/// Forks one child per member, runs the port handshake, and seeds the
/// parent transport's peer table. Returns the children's pids in member
/// order (empty on failure).
std::vector<pid_t> spawn_cluster(const std::vector<NodeId>& members,
                                 const std::string& log_path,
                                 SocketTransport& parent) {
  std::vector<pid_t> pids;
  std::vector<std::uint16_t> ports(members.size(), 0);
  std::vector<int> table_wr;
  for (std::size_t i = 0; i < members.size(); ++i) {
    int up[2], down[2];  // child -> parent port; parent -> child table
    if (::pipe(up) != 0 || ::pipe(down) != 0) return {};
    const pid_t pid = ::fork();
    if (pid < 0) return {};
    if (pid == 0) {
      ::close(up[0]);
      ::close(down[1]);
      cluster_node_process(members[i], members, up[1], down[0], log_path);
    }
    ::close(up[1]);
    ::close(down[0]);
    if (!read_full(up[0], &ports[i], sizeof ports[i])) return {};
    ::close(up[0]);
    table_wr.push_back(down[1]);
    pids.push_back(pid);
  }
  for (int fd : table_wr) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint64_t id = members[i];
      if (!write_full(fd, &id, sizeof id) ||
          !write_full(fd, &ports[i], sizeof ports[i]))
        return {};
    }
    ::close(fd);
  }
  for (std::size_t i = 0; i < members.size(); ++i)
    parent.add_peer(members[i], ports[i]);
  return pids;
}

TEST(ClusterSocket, RoutedClientsComputeCorrectValuesAcrossProcesses) {
  const std::vector<NodeId> members{100, 101, 102};
  const std::string log_path =
      testing::TempDir() + "mw_cluster_socket_serve_" +
      std::to_string(::getpid()) + ".bin";
  ::unlink(log_path.c_str());

  SocketTransport transport(200);
  ChildReaper children;
  children.pids = spawn_cluster(members, log_path, transport);
  ASSERT_EQ(children.pids.size(), members.size());

  ClusterRouter router(members, kRingSeed, kVnodes);
  constexpr std::size_t kCalls = 8;
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (NodeId id : {NodeId(200), NodeId(201)}) {
    clients.push_back(std::make_unique<ServiceClient>(
        transport, id, 0, socket_client_config()));
    ServiceClient* cl = clients.back().get();
    router.attach(*cl);
    cl->on_complete = [cl](const CallRecord&) {
      if (cl->records().size() < kCalls)
        cl->call(30 + cl->records().size(), cl->self());
    };
  }
  for (auto& cl : clients) cl->call(30, cl->self());
  ASSERT_TRUE(pump(
      transport,
      [&] {
        for (auto& cl : clients)
          if (cl->records().size() < kCalls) return false;
        return true;
      },
      30000));

  std::size_t total_ok = 0;
  for (auto& cl : clients) {
    for (const CallRecord& r : cl->records()) {
      EXPECT_TRUE(r.ok()) << "client " << cl->self() << " seq " << r.seq;
      EXPECT_EQ(r.value, service_reference(r.payload, r.work));
      if (r.ok()) ++total_ok;
    }
  }
  EXPECT_EQ(total_ok, kCalls * clients.size());
  // The cluster-wide ledger: every process appended to one file; no
  // (client, seq) pair may appear twice.
  const std::vector<Effect> all = FileEffectLog::read_all(log_path);
  EXPECT_EQ(all.size(), kCalls * clients.size());
  EffectLog combined;
  for (const Effect& e : all) combined.append(e);
  EXPECT_EQ(combined.duplicates(), 0u);
  ::unlink(log_path.c_str());
}

TEST(ClusterSocket, SigkilledNodeEvictsAndClusterStaysExactlyOnce) {
  const std::vector<NodeId> members{100, 101, 102};
  const std::string log_path =
      testing::TempDir() + "mw_cluster_socket_kill_" +
      std::to_string(::getpid()) + ".bin";
  ::unlink(log_path.c_str());

  // Pick a client the victim owns, so the kill provably forces a re-route
  // and a log-backed replay window.
  HashRing ring(kRingSeed, kVnodes);
  for (NodeId m : members) ring.add(m);
  const NodeId victim_node = members[0];
  NodeId cid = 0;
  for (NodeId cand = 200; cand < 1200; ++cand)
    if (ring.owner_of(cand) == victim_node) {
      cid = cand;
      break;
    }
  ASSERT_NE(cid, 0u);

  SocketTransport transport(cid);
  ChildReaper children;
  children.pids = spawn_cluster(members, log_path, transport);
  ASSERT_EQ(children.pids.size(), members.size());

  ClusterRouter router(members, kRingSeed, kVnodes);
  ServiceClient client(transport, cid, 0, socket_client_config());
  router.attach(client);
  constexpr std::size_t kCalls = 12;
  client.on_complete = [&](const CallRecord&) {
    if (client.records().size() < kCalls)
      client.call(40, client.records().size());
  };
  client.call(40, 7);
  ASSERT_TRUE(pump(transport,
                   [&] { return client.records().size() >= 3; }, 10000));

  // A real SIGKILL of the session's owner mid-load: no goodbye, no
  // handoff — only the shared file remembers what it committed.
  const pid_t victim = children.pids[0];
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  children.pids.erase(children.pids.begin());

  ASSERT_TRUE(pump(transport,
                   [&] { return client.records().size() >= kCalls; }, 40000));
  std::size_t answered_ok = 0;
  for (const CallRecord& r : client.records()) {
    if (r.ok()) {
      ++answered_ok;
      EXPECT_EQ(r.value, service_reference(r.payload, r.work));
    }
  }
  // The survivors must pick the session up: the calls bracketing the kill
  // may time out, steady state before and after must land.
  EXPECT_GE(answered_ok, kCalls / 2);
  const std::vector<Effect> all = FileEffectLog::read_all(log_path);
  EXPECT_GE(all.size(), answered_ok);
  EffectLog combined;
  for (const Effect& e : all) combined.append(e);
  EXPECT_EQ(combined.duplicates(), 0u);
  ::unlink(log_path.c_str());
}

}  // namespace
}  // namespace mw
