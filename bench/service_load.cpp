// SERVICE-LOAD — open-loop load sweep of the hedged-speculation service:
// where goodput saturates, how far latency tails stretch, and whether the
// server *sheds* instead of collapsing past saturation.
//
// An open-loop generator (arrivals on a fixed clock, never gated on
// completions — the only honest way to measure an overloaded server) sends
// numbered requests from several client nodes to the service. Three
// backends:
//
//   * default (no --cluster): one HedgedServer + executor pool on a seeded
//     SimTransport — the classic single-node sweep;
//   * --cluster=N: N backend-less ClusterNodes behind consistent-hash
//     routing (each client targets its ring owner), still on the sim;
//   * --backend=socket --cluster=N: every ClusterNode is a real forked
//     process on loopback UDP with a FileEffectLog over one shared file —
//     goodput, tails, and exactly-once measured across real processes.
//     --kill-one additionally SIGKILLs one node mid-load at saturation and
//     measures the cluster riding through the eviction.
//
// Each sweep row offers a different request rate; per row we record
// goodput (kOk responses over the measurement window), shed/failed counts,
// and client-observed latency percentiles p50 / p99 / p99.9 of the
// admitted requests — per node in cluster mode. After the sweep, one extra
// config runs at exactly 2x the saturation rate (the offered load of the
// peak-goodput row); with --cluster >= 2 another runs a 1-node baseline at
// the saturation rate, giving the scaling factor.
//
// With --check the binary exits non-zero unless the shed-not-collapse
// contract holds at 2x saturation:
//
//   * goodput >= 80% of the sweep's peak goodput (overload is refused at
//     admission, not absorbed into a collapsing queue);
//   * p99 latency of admitted (kOk) requests stays within the configured
//     deadline (plus wire transit) — PER NODE in cluster mode, so one hot
//     shard cannot hide behind the aggregate;
//   * every kOk value equals service_reference() and the effect log
//     (cluster-wide in cluster mode) holds no duplicate (client, seq) —
//     load never buys the service out of exactly-once;
//   * with --cluster >= 2, peak goodput beats the 1-node baseline at the
//     saturation rate (the ring actually buys capacity).
//
//   $ service_load                          # table, default ladder
//   $ service_load --duration=400ms --mean=1ms --inflight=8 --queue=16
//   $ service_load --check --json=BENCH_service_load.json
//   $ service_load --cluster=3 --check
//   $ service_load --backend=socket --cluster=3 --kill-one --check
//       [--json=BENCH_service_load_socket.json]
//   $ service_load --trace=trace.json --profile
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/sim_transport.hpp"
#include "dist/socket_transport.hpp"
#include "service/cluster.hpp"
#include "service/hedged_server.hpp"
#include "service/service_backend.hpp"
#include "trace/trace_cli.hpp"
#include "util/cli.hpp"
#include "util/des.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace mw;

namespace {

double ms(VDuration d) { return static_cast<double>(d) / 1000.0; }

constexpr NodeId kServerNode = 100;
constexpr NodeId kFirstClientNode = 200;
constexpr std::uint64_t kWork = 32;
constexpr std::uint64_t kRingSeed = 7;
constexpr std::size_t kVnodes = 8;

/// Extra client-observed latency the deadline bound allows for: request
/// and response transit on the modeled link (the deadline clock starts at
/// the server, the stopwatch at the client). Real sockets get extra slack
/// for kernel scheduling jitter on shared CI cores.
constexpr double kWireSlackMs = 2.5;
constexpr double kSocketSlackMs = 10.0;

struct LoadParams {
  VDuration duration = vt_ms(400);  // offered-load window (virtual)
  VDuration deadline = vt_ms(50);
  VDuration mean = vt_ms(1);  // backend service mean
  VDuration hedge_delay = vt_ms(2);
  std::size_t inflight = 8;
  std::size_t queue = 16;
  std::size_t clients = 4;
  std::size_t backends = 3;
  std::uint64_t seed = 1;
  std::string backend = "sim";  // sim | socket
  std::size_t cluster = 0;      // 0 = classic single-server sweep
  bool kill_one = false;        // SIGKILL one node mid-load (cluster >= 2)
};

struct NodePerf {
  NodeId node = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  double p99_ms = 0;
};

struct LoadRow {
  double offered_rps = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong_values = 0;
  std::size_t effect_duplicates = 0;
  double goodput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  std::uint64_t hedges = 0;
  std::uint64_t brownout_enters = 0;
  std::size_t queue_peak = 0;
  std::vector<NodePerf> nodes;  // per-node breakdown (cluster mode)
  bool killed = false;          // a node was SIGKILLed mid-row
};

/// Per-target-node accumulator while collecting client records.
struct NodeAccum {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  std::vector<double> lat;
};

/// One open-loop sender: requests leave on a fixed interarrival clock
/// regardless of what came back, so offered load is exactly what the row
/// claims. No retries — the server's admission verdict is the datum. In
/// cluster mode the target is the client's ring owner; retarget() is the
/// operator action after an eviction.
class OpenLoopClient final : public TransportReceiver {
 public:
  OpenLoopClient(Transport& transport, NodeId self, NodeId target,
                 VDuration deadline)
      : transport_(transport),
        self_(self),
        target_(target),
        deadline_(deadline) {
    transport_.bind(self_, *this);
  }
  ~OpenLoopClient() override { transport_.unbind(self_); }

  NodeId self() const { return self_; }
  NodeId target() const { return target_; }
  void retarget(NodeId target) { target_ = target; }

  void start(VDuration interarrival, VTime until) {
    interarrival_ = interarrival;
    until_ = until;
    tick();
  }

  void on_message(NodeId, std::span<const std::uint8_t> payload) override {
    const auto resp = decode_response(payload);
    if (!resp || resp->client != self_ || resp->seq == 0) return;
    const std::uint64_t i = resp->seq - 1;
    if (i >= sent_.size() || sent_[i].answered) return;
    Sent& s = sent_[i];
    s.answered = true;
    s.status = resp->status;
    s.latency_ms = (transport_.now() - s.sent_at) / 1000.0;
    if (resp->status == SvcStatus::kOk &&
        resp->value != service_reference(s.payload, kWork))
      ++wrong_values_;
  }

  void collect(LoadRow& row, std::map<NodeId, NodeAccum>& nodes,
               std::vector<double>& ok_latencies) const {
    row.sent += sent_.size();
    row.wrong_values += wrong_values_;
    for (const Sent& s : sent_) {
      NodeAccum& a = nodes[s.target];
      if (!s.answered) {
        ++row.unanswered;
        ++a.unanswered;
      } else if (s.status == SvcStatus::kOk) {
        ++row.ok;
        ++a.ok;
        ok_latencies.push_back(s.latency_ms);
        a.lat.push_back(s.latency_ms);
      } else if (s.status == SvcStatus::kShed) {
        ++row.shed;
        ++a.shed;
      } else {
        ++row.failed;
        ++a.failed;
      }
    }
  }

 private:
  struct Sent {
    VTime sent_at = 0;
    std::uint64_t payload = 0;
    NodeId target = 0;
    bool answered = false;
    SvcStatus status = SvcStatus::kOk;
    double latency_ms = 0;
  };

  void tick() {
    if (transport_.now() >= until_) return;
    SvcRequest r;
    r.client = self_;
    r.seq = static_cast<std::uint64_t>(sent_.size()) + 1;
    r.deadline = deadline_;
    r.work = kWork;
    r.payload = r.seq * 1315423911ull + self_;
    sent_.push_back({transport_.now(), r.payload, target_});
    const Bytes frame = encode_request(r);
    transport_.send(self_, target_,
                    std::span(frame.data(), frame.size()));
    transport_.schedule(interarrival_, [this] { tick(); });
  }

  Transport& transport_;
  NodeId self_;
  NodeId target_;
  VDuration deadline_;
  VDuration interarrival_ = vt_ms(1);
  VTime until_ = 0;
  std::vector<Sent> sent_;
  std::uint64_t wrong_values_ = 0;
};

void finish_row(LoadRow& row, std::map<NodeId, NodeAccum>& per_node,
                std::vector<double>& ok_latencies, VTime load_start,
                VTime drain_end) {
  std::sort(ok_latencies.begin(), ok_latencies.end());
  if (!ok_latencies.empty()) {
    row.p50_ms = percentile_sorted(ok_latencies, 0.50);
    row.p99_ms = percentile_sorted(ok_latencies, 0.99);
    row.p999_ms = percentile_sorted(ok_latencies, 0.999);
  }
  const double window_ms = (drain_end - load_start) / 1000.0;
  row.goodput_rps = window_ms > 0 ? row.ok * 1000.0 / window_ms : 0;
  for (auto& [id, a] : per_node) {
    NodePerf np;
    np.node = id;
    np.ok = a.ok;
    np.shed = a.shed;
    np.failed = a.failed;
    np.unanswered = a.unanswered;
    std::sort(a.lat.begin(), a.lat.end());
    if (!a.lat.empty()) np.p99_ms = percentile_sorted(a.lat, 0.99);
    row.nodes.push_back(np);
  }
}

// ---------------------------------------------------------------------------
// Classic single-server sweep (the PR 8 bench, unchanged in behavior)

LoadRow run_config(const LoadParams& p, double offered_rps) {
  LoadRow row;
  row.offered_rps = offered_rps;

  LinkModel link;
  link.latency = vt_us(500);
  link.per_message_overhead = vt_us(100);
  EventQueue queue;
  SimTransport transport(queue, link, p.seed);
  EffectLog effects;

  ServiceConfig sc;
  sc.seed = p.seed;
  sc.max_inflight = p.inflight;
  sc.queue_capacity = p.queue;
  sc.default_deadline = p.deadline;
  sc.hedge_delay = p.hedge_delay;
  sc.service_mean = p.mean;
  sc.health.heartbeat_interval = vt_ms(10);
  sc.health.suspect_after = vt_ms(40);
  sc.health.dead_after = vt_ms(120);
  HedgedServer server(transport, kServerNode, effects, sc);

  std::vector<std::unique_ptr<ServiceBackend>> backends;
  for (std::size_t i = 1; i <= p.backends; ++i) {
    BackendConfig bc;
    bc.seed = p.seed + i;
    bc.service_mean = p.mean;
    bc.health = sc.health;
    backends.push_back(std::make_unique<ServiceBackend>(
        transport, static_cast<NodeId>(i), kServerNode, bc));
    server.add_backend(static_cast<NodeId>(i));
  }
  transport.run_until(vt_ms(2));  // beats land; every backend is alive

  // Interleave the clients' clocks so arrivals spread across the
  // interarrival period instead of striking in phase.
  const VTime load_start = transport.now();
  const VTime load_end = load_start + p.duration;
  const double per_client_rps = offered_rps / static_cast<double>(p.clients);
  const auto interarrival =
      static_cast<VDuration>(1'000'000.0 / per_client_rps);
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  for (std::size_t i = 0; i < p.clients; ++i) {
    clients.push_back(std::make_unique<OpenLoopClient>(
        transport, kFirstClientNode + static_cast<NodeId>(i), kServerNode,
        p.deadline));
    const VDuration phase = static_cast<VDuration>(
        interarrival * i / static_cast<VDuration>(p.clients));
    OpenLoopClient* cl = clients.back().get();
    transport.schedule(phase, [cl, interarrival, load_end] {
      cl->start(interarrival, load_end);
    });
  }

  // Drain: admitted requests resolve by their deadline, shed ones sooner;
  // the fixed margin keeps the measurement window identical across rows.
  const VTime drain_end = load_end + p.deadline + vt_ms(10);
  transport.run_until(drain_end);

  std::map<NodeId, NodeAccum> per_node;
  std::vector<double> ok_latencies;
  for (const auto& cl : clients) cl->collect(row, per_node, ok_latencies);
  finish_row(row, per_node, ok_latencies, load_start, drain_end);
  row.nodes.clear();  // single server: the aggregate IS the node
  row.effect_duplicates = effects.duplicates();
  row.hedges = server.stats().hedges;
  row.brownout_enters = server.stats().brownout_enters;
  row.queue_peak = server.stats().queue_peak;
  return row;
}

// ---------------------------------------------------------------------------
// Cluster sweep (sim or forked socket processes)

ClusterConfig cluster_config(const LoadParams& p, NodeId self) {
  ClusterConfig c;
  c.seed = kRingSeed;
  c.vnodes = kVnodes;
  c.peer_health = {.heartbeat_interval = vt_ms(10),
                   .suspect_after = vt_ms(40),
                   .dead_after = vt_ms(120)};
  c.probation = vt_ms(60);
  c.service.seed = p.seed + self;
  c.service.max_inflight = p.inflight;
  c.service.queue_capacity = p.queue;
  c.service.default_deadline = p.deadline;
  c.service.hedge_delay = p.hedge_delay;
  c.service.service_mean = p.mean;
  return c;
}

/// SIGKILL + reap every forked node on scope exit.
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

/// Forked cluster-node body: UDP port handshake over pipes, then serve
/// until the parent's SIGKILL (or a generous safety budget).
[[noreturn]] void cluster_node_process(const LoadParams& p, NodeId self,
                                       const std::vector<NodeId>& members,
                                       int wr_port, int rd_table,
                                       const std::string& log_path) {
  SocketTransport transport(self);
  const std::uint16_t port = transport.port();
  if (!write_full(wr_port, &port, sizeof port)) ::_exit(1);
  ::close(wr_port);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint64_t id = 0;
    std::uint16_t peer_port = 0;
    if (!read_full(rd_table, &id, sizeof id) ||
        !read_full(rd_table, &peer_port, sizeof peer_port))
      ::_exit(1);
    if (id != self) transport.add_peer(id, peer_port);
  }
  ::close(rd_table);
  FileEffectLog effects(log_path, self);
  if (!effects.valid()) ::_exit(1);
  ClusterNode node(transport, self, members, effects,
                   cluster_config(p, self));
  const VTime budget = transport.now() + vt_sec(120);
  while (transport.now() < budget)
    transport.run_until(transport.now() + vt_ms(2));
  ::_exit(0);
}

std::vector<pid_t> spawn_cluster(const LoadParams& p,
                                 const std::vector<NodeId>& members,
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
      cluster_node_process(p, members[i], members, up[1], down[0], log_path);
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

LoadRow run_cluster_config(const LoadParams& p, double offered_rps,
                           bool kill_one_mid) {
  LoadRow row;
  row.offered_rps = offered_rps;
  const bool socket = p.backend == "socket";
  const std::size_t n = std::max<std::size_t>(1, p.cluster);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < n; ++i)
    ids.push_back(kServerNode + static_cast<NodeId>(i));
  HashRing ring(kRingSeed, kVnodes);
  for (NodeId id : ids) ring.add(id);

  EventQueue queue;
  std::unique_ptr<SimTransport> sim;
  std::unique_ptr<SocketTransport> sock;
  if (socket) {
    sock = std::make_unique<SocketTransport>(kFirstClientNode - 1);
  } else {
    LinkModel link;
    link.latency = vt_us(500);
    link.per_message_overhead = vt_us(100);
    sim = std::make_unique<SimTransport>(queue, link, p.seed);
  }
  Transport& transport =
      socket ? static_cast<Transport&>(*sock) : static_cast<Transport&>(*sim);

  EffectLog effects;  // sim: the cluster-shared in-memory log
  std::string log_path;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  ChildReaper children;
  static int socket_run = 0;
  if (socket) {
    log_path = "/tmp/mw_service_load_" + std::to_string(::getpid()) + "_" +
               std::to_string(socket_run++) + ".bin";
    ::unlink(log_path.c_str());
    children.pids = spawn_cluster(p, ids, log_path, *sock);
    if (children.pids.size() != ids.size()) {
      std::cerr << "service_load: failed to fork the socket cluster\n";
      std::exit(2);
    }
  } else {
    for (NodeId id : ids)
      nodes.push_back(std::make_unique<ClusterNode>(
          transport, id, ids, effects, cluster_config(p, id)));
    sim->run_until(vt_ms(2));  // first beats
  }

  auto run_to = [&](VTime t) {
    if (sim) {
      if (t > sim->now()) sim->run_until(t);
    } else {
      while (sock->now() < t) sock->run_until(sock->now() + vt_ms(2));
    }
  };

  const VTime load_start = transport.now();
  const VTime load_end = load_start + p.duration;
  const double per_client_rps = offered_rps / static_cast<double>(p.clients);
  const auto interarrival =
      static_cast<VDuration>(1'000'000.0 / per_client_rps);
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  for (std::size_t i = 0; i < p.clients; ++i) {
    const NodeId self = kFirstClientNode + static_cast<NodeId>(i);
    clients.push_back(std::make_unique<OpenLoopClient>(
        transport, self, ring.owner_of(self), p.deadline));
    const VDuration phase = static_cast<VDuration>(
        interarrival * i / static_cast<VDuration>(p.clients));
    OpenLoopClient* cl = clients.back().get();
    transport.schedule(phase, [cl, interarrival, load_end] {
      cl->start(interarrival, load_end);
    });
  }

  if (kill_one_mid && n >= 2) {
    run_to(load_start + p.duration / 2);
    // Victim: the highest node that actually owns traffic.
    NodeId victim = 0;
    for (auto it = ids.rbegin(); it != ids.rend() && victim == 0; ++it)
      for (const auto& cl : clients)
        if (cl->target() == *it) {
          victim = *it;
          break;
        }
    if (victim != 0) {
      row.killed = true;
      if (socket) {
        for (std::size_t i = 0; i < ids.size(); ++i)
          if (ids[i] == victim) {
            ::kill(children.pids[i], SIGKILL);
            int status = 0;
            ::waitpid(children.pids[i], &status, 0);
            children.pids.erase(children.pids.begin() +
                                static_cast<std::ptrdiff_t>(i));
            ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
      } else {
        for (auto it = nodes.begin(); it != nodes.end(); ++it)
          if ((*it)->self() == victim) {
            nodes.erase(it);
            break;
          }
      }
      // Survivors evict after dead_after; then the operator re-points the
      // orphaned clients at their new owners (open-loop: requests sent to
      // the corpse in between stay unanswered — that is the honest cost).
      run_to(transport.now() + vt_ms(120) + vt_ms(30));
      HashRing after = ring;
      after.remove(victim);
      for (auto& cl : clients)
        if (cl->target() == victim)
          cl->retarget(after.owner_of(cl->self()));
    }
  }

  run_to(load_end);
  const VTime drain_end = load_end + p.deadline + vt_ms(10);
  run_to(drain_end);

  std::map<NodeId, NodeAccum> per_node;
  std::vector<double> ok_latencies;
  for (const auto& cl : clients) cl->collect(row, per_node, ok_latencies);
  finish_row(row, per_node, ok_latencies, load_start, drain_end);
  if (socket) {
    const std::vector<Effect> all = FileEffectLog::read_all(log_path);
    EffectLog combined;
    for (const Effect& e : all) combined.append(e);
    row.effect_duplicates = combined.duplicates();
    ::unlink(log_path.c_str());
  } else {
    row.effect_duplicates = effects.duplicates();
    for (const auto& node : nodes) {
      row.hedges += node->server().stats().hedges;
      row.brownout_enters += node->server().stats().brownout_enters;
      row.queue_peak = std::max(row.queue_peak,
                                node->server().stats().queue_peak);
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// Output

void add_table_row(TablePrinter& table, const std::string& label,
                   const LoadRow& r) {
  table.add_row(
      {label, TablePrinter::num(r.offered_rps, 0),
       TablePrinter::num(static_cast<std::int64_t>(r.sent)),
       TablePrinter::num(static_cast<std::int64_t>(r.ok)),
       TablePrinter::num(static_cast<std::int64_t>(r.shed)),
       TablePrinter::num(static_cast<std::int64_t>(r.failed)),
       TablePrinter::num(r.goodput_rps, 0), TablePrinter::num(r.p50_ms),
       TablePrinter::num(r.p99_ms), TablePrinter::num(r.p999_ms),
       TablePrinter::num(static_cast<std::int64_t>(r.hedges)),
       TablePrinter::num(static_cast<std::int64_t>(r.queue_peak))});
}

void json_row(std::ostream& out, const LoadRow& r, bool last) {
  out << "    {\"offered_rps\": " << r.offered_rps
      << ", \"sent\": " << r.sent << ", \"ok\": " << r.ok
      << ", \"shed\": " << r.shed << ", \"failed\": " << r.failed
      << ", \"unanswered\": " << r.unanswered
      << ", \"goodput_rps\": " << r.goodput_rps
      << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
      << ", \"p999_ms\": " << r.p999_ms << ", \"hedges\": " << r.hedges
      << ", \"queue_peak\": " << r.queue_peak
      << ", \"killed\": " << (r.killed ? "true" : "false");
  if (!r.nodes.empty()) {
    out << ", \"nodes\": [";
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const NodePerf& np = r.nodes[i];
      out << "{\"node\": " << np.node << ", \"ok\": " << np.ok
          << ", \"shed\": " << np.shed
          << ", \"unanswered\": " << np.unanswered
          << ", \"p99_ms\": " << np.p99_ms << "}"
          << (i + 1 < r.nodes.size() ? ", " : "");
    }
    out << "]";
  }
  out << "}" << (last ? "\n" : ",\n");
}

void print_node_breakdown(const LoadRow& r, const std::string& label) {
  if (r.nodes.empty()) return;
  std::cout << label << " per node:";
  for (const NodePerf& np : r.nodes)
    std::cout << "  " << np.node << ": ok " << np.ok << ", shed " << np.shed
              << ", p99 " << TablePrinter::num(np.p99_ms) << " ms";
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  LoadParams p;
  p.duration = cli.get_duration("duration", p.duration);
  p.deadline = cli.get_duration("deadline", p.deadline);
  p.mean = cli.get_duration("mean", p.mean);
  p.hedge_delay = cli.get_duration("hedge-delay", p.hedge_delay);
  p.inflight = static_cast<std::size_t>(cli.get_int("inflight", 8));
  p.queue = static_cast<std::size_t>(cli.get_int("queue", 16));
  p.clients = static_cast<std::size_t>(cli.get_int("clients", 4));
  p.backends = static_cast<std::size_t>(cli.get_int("backends", 3));
  p.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  p.backend = cli.get("backend", "sim");
  p.cluster = static_cast<std::size_t>(cli.get_int("cluster", 0));
  p.kill_one = cli.has("kill-one");
  if (p.backend != "sim" && p.backend != "socket") {
    std::cerr << "service_load: --backend must be sim or socket\n";
    return 2;
  }
  if (p.backend == "socket" && p.cluster == 0) p.cluster = 1;
  const bool cluster_mode = p.cluster > 0;
  // Spread clients across the ring so every node owns some traffic.
  if (cluster_mode && !cli.has("clients")) p.clients = 4 * p.cluster;
  const bool do_check = cli.has("check");
  const std::string json_path = cli.get("json", "");
  trace::TraceSession trace_session(cli);

  // Nominal capacity from Little's law: max_inflight concurrent slots,
  // each occupied for the tail-weighted mean service time — per node.
  const double eff_mean_ticks =
      static_cast<double>(p.mean) *
      (1.0 + ServiceConfig{}.tail_prob * (ServiceConfig{}.tail_factor - 1.0));
  const double nominal_rps =
      static_cast<double>(p.inflight) * 1'000'000.0 / eff_mean_ticks *
      static_cast<double>(cluster_mode ? p.cluster : 1);
  const std::vector<double> multipliers{0.25, 0.5, 0.75, 1.0, 1.5, 2.0};

  if (cluster_mode)
    std::cout << "Hedged-service open-loop load sweep: " << p.cluster
              << "-node cluster (" << p.backend << " backend), inflight "
              << p.inflight << "/node, queue " << p.queue << ", mean "
              << ms(p.mean) << " ms, deadline " << ms(p.deadline)
              << " ms, window " << ms(p.duration) << " ms, " << p.clients
              << " clients, seed " << p.seed << " (nominal "
              << static_cast<std::uint64_t>(nominal_rps) << " req/s)\n";
  else
    std::cout << "Hedged-service open-loop load sweep: " << p.backends
              << " backends, inflight " << p.inflight << ", queue " << p.queue
              << ", mean " << ms(p.mean) << " ms, deadline " << ms(p.deadline)
              << " ms, window " << ms(p.duration) << " ms, seed " << p.seed
              << " (nominal " << static_cast<std::uint64_t>(nominal_rps)
              << " req/s)\n";

  auto run_one = [&](double rps, bool kill) {
    return cluster_mode ? run_cluster_config(p, rps, kill)
                        : run_config(p, rps);
  };

  std::vector<LoadRow> rows;
  for (const double m : multipliers) rows.push_back(run_one(nominal_rps * m, false));

  // Saturation = the offered rate of the peak-goodput row; the contract
  // is then probed at exactly twice that.
  std::size_t peak_i = 0;
  for (std::size_t i = 1; i < rows.size(); ++i)
    if (rows[i].goodput_rps > rows[peak_i].goodput_rps) peak_i = i;
  const double peak_goodput = rows[peak_i].goodput_rps;
  const double saturation_rps = rows[peak_i].offered_rps;
  const LoadRow over = run_one(2.0 * saturation_rps, false);

  // Scaling probe: the same saturation load against ONE node. Only
  // meaningful for a real cluster.
  LoadRow baseline;
  const bool have_baseline = cluster_mode && p.cluster >= 2;
  if (have_baseline) {
    LoadParams bp = p;
    bp.cluster = 1;
    baseline = run_cluster_config(bp, saturation_rps, false);
  }

  // Chaos probe: SIGKILL (or sim-destroy) one node at saturation mid-load.
  LoadRow kill_row;
  const bool have_kill = cluster_mode && p.kill_one && p.cluster >= 2;
  if (have_kill) kill_row = run_one(saturation_rps, true);

  TablePrinter table({"load", "offered_rps", "sent", "ok", "shed", "failed",
                      "goodput_rps", "p50_ms", "p99_ms", "p999_ms", "hedges",
                      "queue_peak"});
  for (std::size_t i = 0; i < rows.size(); ++i)
    add_table_row(table, TablePrinter::num(multipliers[i]) + "x",
                  rows[i]);
  add_table_row(table, "2x-sat", over);
  if (have_baseline) add_table_row(table, "1node", baseline);
  if (have_kill) add_table_row(table, "kill1", kill_row);
  table.print(std::cout);
  print_node_breakdown(over, "2x-sat");
  if (have_kill) print_node_breakdown(kill_row, "kill1");
  std::cout << "(shape to verify: goodput climbs to saturation then holds "
               "flat while shed absorbs the overflow; admitted p99 stays "
               "under the deadline because overload is refused at "
               "admission, not queued to death)\n";

  // --check: the shed-not-collapse contract, machine-checked.
  bool pass = true;
  auto fail = [&pass, do_check](const std::string& why) {
    if (do_check) std::cout << "check FAIL: " << why << "\n";
    pass = false;
  };
  std::uint64_t total_hedges = over.hedges;
  for (const LoadRow& r : rows) total_hedges += r.hedges;
  // Real UDP may drop the odd datagram under burst and open-loop senders
  // never retry, so socket rows tolerate a sliver of unanswered requests;
  // the sim is lossless and tolerates none. A killed node's orphans are
  // unanswered by design (allow_unanswered).
  const bool socket_backend = p.backend == "socket";
  auto audit = [&fail, socket_backend](const std::string& label,
                                       const LoadRow& r,
                                       bool allow_unanswered) {
    if (r.wrong_values > 0)
      fail(label + ": " + std::to_string(r.wrong_values) + " wrong values");
    if (r.effect_duplicates > 0)
      fail(label + ": duplicate effects under load");
    const std::uint64_t budget =
        allow_unanswered ? r.sent : (socket_backend ? r.sent / 200 : 0);
    if (r.unanswered > budget)
      fail(label + ": " + std::to_string(r.unanswered) +
           " requests never answered");
  };
  for (std::size_t i = 0; i < rows.size(); ++i)
    audit(TablePrinter::num(multipliers[i]) + "x", rows[i], false);
  audit("2x-sat", over, false);
  if (peak_goodput <= 0) fail("no goodput anywhere; the sweep is vacuous");
  // Backend-less cluster nodes race locally instead of hedging to
  // executors, so the hedge-vacuousness check is single-server-only.
  if (!cluster_mode && total_hedges == 0)
    fail("no hedge ever fired; the sweep is vacuous");
  if (over.shed == 0)
    fail("2x saturation shed nothing; overload never reached admission");
  if (over.goodput_rps < 0.8 * peak_goodput)
    fail("goodput collapsed past saturation: " +
         std::to_string(over.goodput_rps) + " req/s vs peak " +
         std::to_string(peak_goodput));
  const double slack_ms =
      p.backend == "socket" ? kSocketSlackMs : kWireSlackMs;
  if (over.p99_ms > ms(p.deadline) + slack_ms)
    fail("admitted p99 " + std::to_string(over.p99_ms) +
         " ms exceeds the " + std::to_string(ms(p.deadline)) +
         " ms deadline at 2x saturation");
  // Per node: one hot shard must not hide behind the aggregate.
  for (const NodePerf& np : over.nodes)
    if (np.ok > 0 && np.p99_ms > ms(p.deadline) + slack_ms)
      fail("node " + std::to_string(np.node) + " admitted p99 " +
           std::to_string(np.p99_ms) + " ms exceeds the deadline at 2x "
           "saturation");
  if (have_baseline) {
    audit("1node", baseline, false);
    if (peak_goodput < 1.2 * baseline.goodput_rps)
      fail("no scaling: " + std::to_string(p.cluster) + "-node peak " +
           std::to_string(peak_goodput) + " req/s vs 1-node " +
           std::to_string(baseline.goodput_rps) + " req/s at saturation");
  }
  if (have_kill) {
    // Requests aimed at the corpse between kill and retarget stay
    // unanswered by design; exactly-once and residual goodput must hold.
    audit("kill1", kill_row, true);
    if (!kill_row.killed) fail("kill1: no node was actually killed");
    if (kill_row.goodput_rps < 0.25 * peak_goodput)
      fail("kill1: goodput " + std::to_string(kill_row.goodput_rps) +
           " req/s collapsed after losing one of " +
           std::to_string(p.cluster) + " nodes");
  }
  if (do_check)
    std::cout << "\ncheck: " << (pass ? "PASS" : "FAIL") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"service_load\",\n  \"backend\": \""
        << p.backend << "\",\n  \"cluster\": " << p.cluster
        << ",\n  \"seed\": " << p.seed
        << ",\n  \"backends\": " << p.backends
        << ",\n  \"inflight\": " << p.inflight
        << ",\n  \"queue\": " << p.queue
        << ",\n  \"clients\": " << p.clients
        << ",\n  \"mean_ms\": " << ms(p.mean)
        << ",\n  \"deadline_ms\": " << ms(p.deadline)
        << ",\n  \"window_ms\": " << ms(p.duration)
        << ",\n  \"nominal_rps\": " << nominal_rps
        << ",\n  \"saturation_rps\": " << saturation_rps
        << ",\n  \"peak_goodput_rps\": " << peak_goodput;
    if (have_baseline)
      out << ",\n  \"baseline_1node_goodput_rps\": " << baseline.goodput_rps
          << ",\n  \"scaling_x\": "
          << (baseline.goodput_rps > 0 ? peak_goodput / baseline.goodput_rps
                                       : 0);
    out << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
      json_row(out, rows[i], false);
    json_row(out, over, !have_baseline && !have_kill);
    if (have_baseline) json_row(out, baseline, !have_kill);
    if (have_kill) json_row(out, kill_row, true);
    out << "  ],\n  \"check\": \"" << (pass ? "PASS" : "FAIL") << "\"\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  trace_session.finish(std::cout);
  return pass ? 0 : 1;
}
