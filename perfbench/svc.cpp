// svc_socket: an open loop from this single-threaded generator process
// against a 2-node ClusterNode cluster over real loopback UDP. The nodes are
// this binary re-executed in node mode: one kPool worker each, no backends,
// one FileEffectLog file shared by both. Clients are split evenly between
// the two owners and requests alternate between them.
//
// The generator paces itself on CLOCK_MONOTONIC and busy-receives with
// Transport::poll() (sleeping instead left idle virtual CPUs waking
// milliseconds late); it never paces with SocketTransport::schedule, whose
// epoll timeout rounds up to whole milliseconds and would turn the arrival
// schedule into 1 ms bursts. Latency runs from each request's due time to
// its response, so generator stalls count against the system.
//
// Each process has a CPU of its own and busy-polls it (see cpu_plan).
//
// Each node runs behind a benchmark-side Transport interposer
// (NodeTransport). In the traced run (--trace 1) it times request
// deliveries, timer callbacks and response sends, matched by decoded
// (client, seq), and an effect log subclass times append and refresh. Requests with odd seq are traced,
// the others are not (bench.trace_overhead_ratio compares the two). Spans
// stay in node memory and are reported over a pipe when the window ends.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "dist/socket_transport.hpp"
#include "pagestore/page_pool.hpp"
#include "service/cluster.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mw::NodeId;

// The offered load: a fixed constant, never derived at run time. It is a
// quarter of what this 2-node cluster completes per second on a 4-core
// machine (each request costs a node about 450 µs of CPU, mostly the kWork
// recurrence). Measured on a shared 4-vCPU VM: at half load, queueing
// turned the machine's +-10% drift in service time into p99 swings of 45%
// between runs; at 6000 req/s of a third the work, ~10 ms node stalls (a
// pool worker sleeping through a missed wake-up, or the host) covered over
// 1% of requests and p99 moved 2x.
constexpr double kRatePerSec = 1000;
// Arrivals are evenly spaced, each moved by a seeded uniform jitter of at
// most this share of the gap. Requests alternate between the nodes, so a
// node sees one every 2 ms +- 0.5 ms and, unless the machine stalls it,
// finishes each before the next arrives. Poisson arrivals at the same rate
// queued about one request in five behind another, and the p99 of that
// queueing moved 50-130% between runs on a busy shared host.
constexpr double kJitter = 0.25;
constexpr std::uint64_t kWork = 180000;  // recurrence steps per request
constexpr std::size_t kClients = 512;  // requests go round-robin over them
constexpr std::size_t kWarmupOps = 300;
constexpr mw::VDuration kDeadline = mw::vt_sec(1);
constexpr std::int64_t kDrainNs = 200'000'000;
constexpr NodeId kGenNode = 100;
constexpr NodeId kFirstClient = 1000;
const std::vector<NodeId> kMembers{1, 2};
// Below every real node timer (beats, brownout and health ticks, handoff
// retries: 10 ms and up) and above every modeled service delay.
constexpr mw::VDuration kModelFloor = mw::vt_ms(1);

mw::ClusterConfig cluster_config() {
  mw::ClusterConfig c;
  // The modeled service delay is a wait no program change can shorten.
  // The model rejects a 0 mean; NodeTransport runs this 1 µs one at once.
  c.service.service_mean = 1;
  c.service.pool.workers = 1;
  // With one pool worker a second local replica can only start once the
  // first has won. It added a submit and a revoke to every request, and
  // with the worker on the event loop's CPU (see cpu_plan) the switches
  // between them raised p50 from about 430 µs to 680 µs.
  c.service.local_replicas = 1;
  // A shared machine can stall a process for tens of milliseconds. With
  // the default 120 ms death timer such a stall fences this 2-node cluster
  // and it sheds; the benchmark measures the admitted path, not failover.
  c.peer_health.suspect_after = mw::vt_ms(500);
  c.peer_health.dead_after = mw::vt_sec(2);
  return c;
}

bool traced_seq(std::uint64_t seq) { return seq % 2 == 1; }

std::uint64_t op_key(NodeId client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 40) ^ seq;
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The node-side stamps of one traced request (CLOCK_MONOTONIC ns).
struct NodeSpan {
  std::uint64_t client = 0, seq = 0;
  std::int64_t msg_start = 0, msg_end = 0;    // on_message of the request
  std::int64_t cb_start = 0, cb_end = 0;      // the timer callback that
                                              // responded
  std::int64_t send_start = 0, send_end = 0;  // Transport::send of the
                                              // response
};

/// CPU time of the calling thread, in µs.
double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Benchmark-side interposer between a node and its SocketTransport.
/// Forwards everything, runs modeled service delays at once, adds up the
/// CPU the node's event loop spends in message and timer callbacks, and
/// while recording stamps traced requests.
class NodeTransport final : public mw::Transport {
 public:
  explicit NodeTransport(mw::SocketTransport& inner) : inner_(inner) {}

  bool recording = false;
  std::unordered_map<std::uint64_t, NodeSpan> spans;
  std::int64_t live_pages_peak = 0;
  double callback_cpu_us = 0;  // event-loop thread, inside callbacks

  void bind(NodeId node, mw::TransportReceiver& receiver) override {
    std::unique_ptr<Gate>& gate = gates_[node];
    if (!gate) gate = std::make_unique<Gate>(*this);
    gate->target = &receiver;
    inner_.bind(node, *gate);
  }
  void unbind(NodeId node) override {
    inner_.unbind(node);
    gates_.erase(node);
  }

  bool send(NodeId from, NodeId to,
            std::span<const std::uint8_t> payload) override {
    NodeSpan* s = nullptr;
    if (recording && mw::svc_message_tag(payload) == mw::kSvcTagResponse) {
      if (const auto r = mw::decode_response(payload)) {
        auto it = spans.find(op_key(r->client, r->seq));
        if (it != spans.end()) s = &it->second;
      }
    }
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.send(from, to, payload);
    if (s) {
      s->send_start = t0;
      s->send_end = now_ns();
      if (in_timer_) timer_span_ = s;
    }
    return ok;
  }

  mw::TimerId schedule(mw::VDuration delay,
                       std::function<void()> fn) override {
    // The modeled service delay (ServiceConfig::service_mean, which must
    // be >= 1) is the only timer a node arms below kModelFloor. Running it
    // at once makes service_mean 0 in effect: without this, a reply timer
    // due 1 µs out is parked behind SocketTransport's millisecond epoll
    // timeout about half the time, a coin flip on the clock's last digit.
    if (delay < kModelFloor) delay = 0;
    return inner_.schedule(delay, [this, fn = std::move(fn)] {
      const double cpu0 = thread_cpu_us();
      const std::int64_t t0 = now_ns();
      in_timer_ = true;
      timer_span_ = nullptr;
      fn();
      in_timer_ = false;
      if (timer_span_) {
        timer_span_->cb_start = t0;
        timer_span_->cb_end = now_ns();
      }
      callback_cpu_us += thread_cpu_us() - cpu0;
    });
  }

  void cancel(mw::TimerId id) override { inner_.cancel(id); }
  mw::VTime now() const override { return inner_.now(); }
  void run() override { inner_.run(); }
  void run_until(mw::VTime deadline) override { inner_.run_until(deadline); }
  bool poll() override { return inner_.poll(); }
  void close() override { inner_.close(); }
  void set_link_blocked(NodeId from, NodeId to, bool blocked) override {
    inner_.set_link_blocked(from, to, blocked);
  }
  const mw::TransportStats& stats() const override { return inner_.stats(); }
  bool simulated() const override { return false; }
  std::size_t max_payload() const override { return inner_.max_payload(); }

 private:
  struct Gate final : mw::TransportReceiver {
    explicit Gate(NodeTransport& owner) : owner(owner) {}
    void on_message(NodeId from,
                    std::span<const std::uint8_t> payload) override {
      owner.deliver(*target, from, payload);
    }
    NodeTransport& owner;
    mw::TransportReceiver* target = nullptr;
  };

  void deliver(mw::TransportReceiver& target, NodeId from,
               std::span<const std::uint8_t> payload) {
    NodeSpan* s = nullptr;
    if (recording && mw::svc_message_tag(payload) == mw::kSvcTagRequest) {
      if (const auto r = mw::decode_request(payload); r && traced_seq(r->seq)) {
        s = &spans[op_key(r->client, r->seq)];
        s->client = r->client;
        s->seq = r->seq;
      }
    }
    const double cpu0 = thread_cpu_us();
    const std::int64_t t0 = now_ns();
    target.on_message(from, payload);
    callback_cpu_us += thread_cpu_us() - cpu0;
    if (s) {
      s->msg_start = t0;
      s->msg_end = now_ns();
      live_pages_peak = std::max(live_pages_peak, mw::Page::live_instances());
    }
  }

  mw::SocketTransport& inner_;
  std::map<NodeId, std::unique_ptr<Gate>> gates_;
  bool in_timer_ = false;
  NodeSpan* timer_span_ = nullptr;
};

/// The shared effect log with its two cross-process operations timed.
class TimedEffectLog final : public mw::FileEffectLog {
 public:
  using FileEffectLog::FileEffectLog;

  bool recording = false;
  std::vector<std::int64_t> append_ns, refresh_ns;

  void append(const mw::Effect& e) override {
    const std::int64_t t0 = now_ns();
    FileEffectLog::append(e);
    if (recording) append_ns.push_back(now_ns() - t0);
  }
  std::size_t refresh() override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = FileEffectLog::refresh();
    if (recording) refresh_ns.push_back(now_ns() - t0);
    return n;
  }
};

/// What a node reports for the timed window (counters are deltas).
struct NodeReport {
  double cpu_us = 0, rss_mb = 0;
  std::uint64_t requests = 0, admitted = 0, queued = 0, shed = 0;
  std::uint64_t fence_sheds = 0, misroutes = 0;
  std::uint64_t submitted = 0, executed = 0, stolen = 0, revoked = 0;
  std::uint64_t pool_hits = 0, pool_misses = 0, live_pages_peak = 0;
  std::vector<NodeSpan> spans;
  std::vector<std::int64_t> append_ns, refresh_ns;
};

struct NodeCounters {
  double cpu = 0;
  mw::ServiceStats svc;
  mw::ClusterStats cluster;
  mw::SchedStats sched;
  mw::PagePool::PoolStats pool;
};

/// Called on the node's event-loop thread. `cpu` is the node's CPU without
/// its busy-polling: every other thread, plus the loop's callbacks.
NodeCounters counters(mw::ClusterNode& node, const NodeTransport& transport) {
  return {cpu_us() - thread_cpu_us() + transport.callback_cpu_us,
          node.server().stats(), node.stats(),
          node.server().runtime().scheduler().stats(),
          mw::PagePool::global().stats()};
}

mw::Bytes encode_report(const NodeCounters& a, const NodeCounters& b,
                        const NodeTransport* spans,
                        const TimedEffectLog* log) {
  mw::ByteWriter w;
  w.put_f64(b.cpu - a.cpu);
  w.put_f64(peak_rss_mb());
  for (std::uint64_t v :
       {b.svc.requests - a.svc.requests, b.svc.admitted - a.svc.admitted,
        b.svc.queued - a.svc.queued, b.svc.shed - a.svc.shed,
        b.cluster.fence_sheds - a.cluster.fence_sheds,
        b.cluster.misroutes - a.cluster.misroutes,
        b.sched.submitted - a.sched.submitted,
        b.sched.executed - a.sched.executed, b.sched.stolen - a.sched.stolen,
        b.sched.revoked - a.sched.revoked, b.pool.hits - a.pool.hits,
        b.pool.misses - a.pool.misses})
    w.put_u64(v);
  w.put_u64(spans ? static_cast<std::uint64_t>(spans->live_pages_peak) : 0);
  w.put_u64(spans ? spans->spans.size() : 0);
  if (spans) {
    for (const auto& [key, s] : spans->spans) {
      w.put_u64(s.client);
      w.put_u64(s.seq);
      for (std::int64_t t : {s.msg_start, s.msg_end, s.cb_start, s.cb_end,
                             s.send_start, s.send_end})
        w.put_i64(t);
    }
  }
  for (const std::vector<std::int64_t>* v :
       {log ? &log->append_ns : nullptr, log ? &log->refresh_ns : nullptr}) {
    w.put_u64(v ? v->size() : 0);
    if (v)
      for (std::int64_t t : *v) w.put_i64(t);
  }
  return w.take();
}

NodeReport decode_report(const mw::Bytes& blob) {
  mw::ByteReader r(std::span<const std::uint8_t>(blob.data(), blob.size()));
  NodeReport n;
  n.cpu_us = r.get_f64();
  n.rss_mb = r.get_f64();
  for (std::uint64_t* v :
       {&n.requests, &n.admitted, &n.queued, &n.shed, &n.fence_sheds,
        &n.misroutes, &n.submitted, &n.executed, &n.stolen, &n.revoked,
        &n.pool_hits, &n.pool_misses, &n.live_pages_peak})
    *v = r.get_u64();
  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    NodeSpan s;
    s.client = r.get_u64();
    s.seq = r.get_u64();
    for (std::int64_t* t : {&s.msg_start, &s.msg_end, &s.cb_start, &s.cb_end,
                            &s.send_start, &s.send_end})
      *t = r.get_i64();
    n.spans.push_back(s);
  }
  for (std::vector<std::int64_t>* v : {&n.append_ns, &n.refresh_ns}) {
    const std::uint64_t m = r.get_u64();
    for (std::uint64_t i = 0; i < m && r.ok(); ++i) v->push_back(r.get_i64());
  }
  if (!r.ok() || !r.at_end()) throw BenchError("malformed node report");
  return n;
}

// ---------------------------------------------------------------------------
// The generator side.

/// The CPUs svc_socket runs on: the generator on the first this process
/// may use, node k on the (k+2)th. Every process busy-polls its own CPU, and
/// a node's pool worker shares its event loop's: a node hands each request
/// to its worker and back, and on one CPU that is a context switch, while a
/// halted virtual CPU can wait milliseconds for a busy host to run it.
std::vector<int> cpu_plan() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE && cpus.size() <= kMembers.size(); ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() <= kMembers.size())
    throw BenchError("svc_socket needs " + std::to_string(kMembers.size() + 1) +
                     " CPUs");
  return cpus;
}

/// Pins the calling thread, and the threads and programs it starts later.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0)
    throw BenchError("cannot pin to CPU " + std::to_string(cpu));
}

/// Node processes of one set-up. Dies with the generator: closing a
/// node's command pipe ends it, and the destructor reaps every pid.
class Cluster {
 public:
  Cluster(const std::string& log_path, bool trace, mw::SocketTransport& gen,
          const std::vector<int>& cpus) {
    try {
      start(log_path, trace, gen, cpus);
    } catch (...) {
      stop();  // a destructor does not run for a half-built object
      throw;
    }
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Sends a window command ('S' start, 'E' end) to every node.
  void command(char c) {
    for (const Node& n : nodes_)
      if (!write_full(n.down, &c, 1))
        throw BenchError("a node process died");
  }

  /// Reads every node's window report (after command('E')).
  std::vector<NodeReport> collect() {
    std::vector<NodeReport> out;
    for (const Node& n : nodes_) {
      std::uint64_t len = 0;
      if (!read_full(n.up, &len, sizeof len) || len > (1u << 30))
        throw BenchError("a node process died before reporting");
      mw::Bytes blob(len);
      if (!read_full(n.up, blob.data(), blob.size()))
        throw BenchError("a node process died while reporting");
      out.push_back(decode_report(blob));
    }
    return out;
  }

  /// Ends every node (EOF on its command pipe) and reaps it; a node that
  /// has not exited within two seconds is killed.
  void stop() {
    for (Node& n : nodes_) {
      if (n.down >= 0) ::close(n.down);
      n.down = -1;
    }
    const std::int64_t give_up = now_ns() + 2'000'000'000;
    for (Node& n : nodes_) {
      while (n.pid > 0) {
        int status = 0;
        const pid_t got = ::waitpid(n.pid, &status, WNOHANG);
        if (got == n.pid || (got < 0 && errno != EINTR)) {
          n.pid = -1;
        } else if (now_ns() > give_up) {
          ::kill(n.pid, SIGKILL);
          ::waitpid(n.pid, &status, 0);
          n.pid = -1;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (n.up >= 0) ::close(n.up);
      n.up = -1;
    }
  }

 private:
  void start(const std::string& log_path, bool trace,
             mw::SocketTransport& gen, const std::vector<int>& cpus) {
    for (std::size_t i = 0; i < kMembers.size(); ++i)
      spawn(kMembers[i], log_path, trace, cpus[1 + i]);
    std::vector<std::uint16_t> ports;
    for (const Node& n : nodes_) {
      std::uint16_t port = 0;
      if (!read_full(n.up, &port, sizeof port))
        throw BenchError("a node process died during start-up");
      ports.push_back(port);
    }
    for (const Node& n : nodes_)
      if (!write_full(n.down, ports.data(), ports.size() * sizeof ports[0]))
        throw BenchError("a node process died during start-up");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      char ready = 0;
      if (!read_full(nodes_[i].up, &ready, 1))
        throw BenchError("a node process died during start-up");
      gen.add_peer(kMembers[i], ports[i]);
    }
  }

  struct Node {
    pid_t pid = -1;
    int up = -1;    // node -> generator: port, ready, report
    int down = -1;  // generator -> node: port table, window commands
  };

  void spawn(NodeId id, const std::string& log_path, bool trace, int cpu) {
    int up[2], down[2];
    if (::pipe2(up, O_CLOEXEC) != 0) throw BenchError("pipe failed");
    if (::pipe2(down, O_CLOEXEC) != 0) {
      ::close(up[0]);
      ::close(up[1]);
      throw BenchError("pipe failed");
    }
    const std::string args[] = {std::to_string(id), std::to_string(up[1]),
                                std::to_string(down[0]), log_path,
                                trace ? "1" : "0"};
    const pid_t pid = ::fork();
    if (pid == 0) {
      // The node keeps its own pipe ends across exec; every other
      // descriptor, the sibling node's pipes included, closes on exec.
      ::fcntl(up[1], F_SETFD, 0);
      ::fcntl(down[0], F_SETFD, 0);
      // pin_to, without its throw: kept across exec.
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof set, &set);
      ::execl("/proc/self/exe", "mwperf", "--node", args[0].c_str(),
              args[1].c_str(), args[2].c_str(), args[3].c_str(),
              args[4].c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(up[1]);
    ::close(down[0]);
    if (pid < 0) {
      ::close(up[0]);
      ::close(down[1]);
      throw BenchError("fork failed");
    }
    nodes_.push_back({pid, up[0], down[1]});
  }

  std::vector<Node> nodes_;
};

/// One request of the arrival schedule and what became of it.
struct Op {
  std::int64_t due = 0;  // offset into the schedule, ns
  std::int64_t due_abs = 0, sent = 0, recv = 0;
  std::uint64_t payload = 0, value = 0;
  mw::SvcStatus status = mw::SvcStatus::kFailed;
};

/// The open-loop client side: every client id is bound on the generator's
/// one socket; op k is client k % kClients's request number k / kClients+1.
class Generator final : public mw::TransportReceiver {
 public:
  Generator(mw::SocketTransport& transport, std::uint64_t seed,
            std::size_t count)
      : transport_(transport), ops_(count) {
    mw::HashRing ring(cluster_config().seed, cluster_config().vnodes);
    for (NodeId m : kMembers) ring.add(m);
    // Half the clients per owner, interleaved: consecutive requests go to
    // different nodes and both nodes own traffic.
    std::vector<std::vector<NodeId>> by_owner(kMembers.size());
    for (NodeId c = kFirstClient; clients_.size() < kClients; ++c) {
      const NodeId owner = ring.owner_of(c);
      const std::size_t i = owner == kMembers[0] ? 0 : 1;
      if (by_owner[i].size() < kClients / 2) by_owner[i].push_back(c);
      if (by_owner[0].size() + by_owner[1].size() == kClients) {
        for (std::size_t k = 0; k < kClients / 2; ++k)
          for (std::size_t m = 0; m < kMembers.size(); ++m) {
            clients_.push_back(by_owner[m][k]);
            owners_.push_back(kMembers[m]);
          }
      }
    }
    slot_.assign(*std::max_element(clients_.begin(), clients_.end()) -
                     kFirstClient + 1,
                 kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      slot_[clients_[i] - kFirstClient] = i;
      transport_.bind(clients_[i], *this);
    }
    // Arrivals at the fixed rate, each jittered by up to kJitter of the
    // gap, and the payloads, all drawn before anything is sent.
    mw::Rng rng(mix64(seed ^ 0x737663ull));
    const double gap = 1e9 / kRatePerSec;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      const double jitter = rng.next_double_in(-kJitter, kJitter) * gap;
      ops_[k].due = static_cast<std::int64_t>(
          static_cast<double>(k + 1) * gap + jitter);
      ops_[k].payload = rng.next_u64();
    }
  }

  ~Generator() override {
    for (NodeId c : clients_) transport_.unbind(c);
  }

  std::vector<Op>& ops() { return ops_; }
  NodeId client(std::size_t k) const { return clients_[k % kClients]; }
  static std::uint64_t seq(std::size_t k) { return k / kClients + 1; }

  /// Sends ops [first, last) on their schedule, op `first` due at `start`,
  /// receiving in between; then receives until all of them are answered or
  /// kDrainNs has passed since the last one was due.
  void run(std::size_t first, std::size_t last, std::int64_t start) {
    range_first_ = first;
    range_last_ = last;
    answered_ = 0;
    for (std::size_t k = first; k < last; ++k) {
      Op& op = ops_[k];
      op.due_abs = start + op.due - ops_[first].due;
      while (now_ns() < op.due_abs) transport_.poll();
      send(k);
    }
    const std::int64_t give_up = ops_[last - 1].due_abs + kDrainNs;
    while (answered_ < last - first && now_ns() < give_up) transport_.poll();
  }

  void on_message(NodeId, std::span<const std::uint8_t> payload) override {
    const auto r = mw::decode_response(payload);
    if (!r || r->client < kFirstClient || r->seq == 0 ||
        r->client - kFirstClient >= slot_.size())
      return;
    const std::size_t slot = slot_[r->client - kFirstClient];
    if (slot == kClients) return;
    const std::size_t k = (r->seq - 1) * kClients + slot;
    if (k >= ops_.size() || ops_[k].recv != 0) return;
    Op& op = ops_[k];
    op.recv = now_ns();
    op.status = r->status;
    op.value = r->value;
    if (k >= range_first_ && k < range_last_) ++answered_;
  }

 private:
  void send(std::size_t k) {
    mw::SvcRequest r;
    r.client = client(k);
    r.seq = seq(k);
    r.deadline = kDeadline;
    r.work = kWork;
    r.payload = ops_[k].payload;
    const mw::Bytes frame = mw::encode_request(r);
    ops_[k].sent = now_ns();
    transport_.send(r.client, owners_[k % kClients],
                    std::span<const std::uint8_t>(frame.data(), frame.size()));
  }

  mw::SocketTransport& transport_;
  std::vector<Op> ops_;
  std::vector<NodeId> clients_, owners_;
  std::vector<std::size_t> slot_;  // client id - kFirstClient -> index
  std::size_t range_first_ = 0, range_last_ = 0, answered_ = 0;
};

std::vector<double> to_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (std::int64_t v : ns) out.push_back(ns_to_us(v));
  return out;
}

}  // namespace

int node_main(int argc, char** argv) {
  // mwperf --node <id> <up fd> <down fd> <effect log> <trace 0|1>
  if (argc != 7) return 2;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 2;  // the generator died before the prctl
  const auto self = static_cast<NodeId>(std::stoul(argv[2]));
  const int up = std::stoi(argv[3]);
  const int down = std::stoi(argv[4]);
  const std::string log_path = argv[5];
  const bool trace = std::string(argv[6]) == "1";

  mw::SocketTransport sock(self);
  const std::uint16_t port = sock.port();
  if (!write_full(up, &port, sizeof port)) return 2;
  for (NodeId m : kMembers) {
    std::uint16_t peer = 0;
    if (!read_full(down, &peer, sizeof peer)) return 2;
    if (m != self) sock.add_peer(m, peer);
  }
  std::unique_ptr<mw::FileEffectLog> log;
  TimedEffectLog* timed_log = nullptr;
  if (trace) {
    auto t = std::make_unique<TimedEffectLog>(log_path, self);
    timed_log = t.get();
    log = std::move(t);
  } else {
    log = std::make_unique<mw::FileEffectLog>(log_path, self);
  }
  if (!log->valid()) return 2;
  NodeTransport transport(sock);
  mw::ClusterNode node(transport, self, kMembers, *log, cluster_config());
  const char ready = 'R';
  if (!write_full(up, &ready, 1)) return 2;

  // Busy-poll, as the generator does, so this node's CPU never halts; the
  // command pipe is looked at once a millisecond.
  NodeCounters at_start;
  std::int64_t next_look = 0;
  for (;;) {
    sock.poll();
    if (now_ns() < next_look) continue;
    next_look = now_ns() + 1'000'000;
    pollfd pfd{down, POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0) continue;
    char cmd = 0;
    if (::read(down, &cmd, 1) != 1) break;  // EOF: the generator is done
    if (cmd == 'S') {
      at_start = counters(node, transport);
      transport.recording = trace;
      if (timed_log) timed_log->recording = true;
    } else if (cmd == 'E') {
      transport.recording = false;
      if (timed_log) timed_log->recording = false;
      const mw::Bytes blob = encode_report(
          at_start, counters(node, transport), trace ? &transport : nullptr,
          timed_log);
      const std::uint64_t len = blob.size();
      if (!write_full(up, &len, sizeof len) ||
          !write_full(up, blob.data(), blob.size()))
        return 2;
    }
  }
  return 0;
}

RunResult run_svc(const Args& args) {
  const std::string log_path =
      args.scratch + "/effects-" + std::to_string(::getpid()) + ".log";
  const auto timed = static_cast<std::size_t>(kRatePerSec * args.seconds);
  const std::size_t total = kWarmupOps + timed;

  std::vector<double> setups;
  std::unique_ptr<mw::SocketTransport> gen_socket;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Cluster> cluster;
  const std::vector<int> cpus = cpu_plan();
  pin_to(cpus[0]);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    gen.reset();
    gen_socket.reset();
    ::unlink(log_path.c_str());
    const std::int64_t t0 = now_ns();
    gen_socket = std::make_unique<mw::SocketTransport>(kGenNode);
    gen = std::make_unique<Generator>(*gen_socket, args.seed, total);
    cluster = std::make_unique<Cluster>(log_path, args.trace, *gen_socket,
                                        cpus);
    gen->run(0, kWarmupOps, now_ns());
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  cluster->command('S');
  const std::int64_t start = now_ns();
  gen->run(kWarmupOps, total, start);
  cluster->command('E');
  const std::vector<NodeReport> nodes = cluster->collect();
  cluster.reset();

  // Output checks: every kOk value is service_reference()'s. The
  // recurrence is affine in its payload modulo 2^64, so two reference
  // evaluations pin it for every payload; a few ops are also recomputed
  // in full as a check on that shortcut.
  const std::uint64_t b = mw::service_reference(0, kWork);
  const std::uint64_t a = mw::service_reference(1, kWork) - b;
  std::vector<Op>& ops = gen->ops();
  std::uint64_t ok = 0, wrong = 0;
  std::int64_t last_recv = start;
  std::unordered_map<std::uint64_t, std::uint64_t> ok_values;
  for (std::size_t k = kWarmupOps; k < total; ++k) {
    const Op& op = ops[k];
    if (op.recv == 0 || op.status != mw::SvcStatus::kOk) continue;
    const bool right = op.value == a * op.payload + b &&
                       (k >= kWarmupOps + 8 ||
                        op.value == mw::service_reference(op.payload, kWork));
    if (!right) {
      ++wrong;
      continue;
    }
    ++ok;
    last_recv = std::max(last_recv, op.recv);
    ok_values.emplace(op_key(gen->client(k), Generator::seq(k)), op.value);
  }
  // ... and the shared log holds each of them exactly once.
  const std::vector<mw::Effect> effects = mw::FileEffectLog::read_all(log_path);
  ::unlink(log_path.c_str());
  mw::EffectLog combined;
  for (const mw::Effect& e : effects) combined.append(e);
  std::size_t logged = 0;
  for (const mw::Effect& e : effects) {
    auto it = ok_values.find(op_key(e.client, e.seq));
    if (it != ok_values.end() && it->second == e.value) ++logged;
  }

  RunResult r;
  r.attempted = timed;
  r.failed = timed - ok;
  const double ok_ratio = ratio(static_cast<double>(ok),
                                static_cast<double>(timed));
  const std::size_t duplicates = combined.duplicates();
  r.correct = wrong == 0 && duplicates == 0 && logged == ok_values.size() &&
              ok_ratio >= 0.99;
  if (!r.correct)
    std::cerr << "svc_socket: check failed: " << wrong << " wrong values, "
              << duplicates << " duplicate effects, "
              << ok_values.size() - logged << " ok responses not logged, "
              << "ok_ratio " << ok_ratio << "\n";
  if (ok == 0) throw BenchError("no request completed");

  double node_cpu = 0, node_rss = 0;
  for (const NodeReport& n : nodes) {
    node_cpu += n.cpu_us;
    node_rss = std::max(node_rss, n.rss_mb);
  }
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setups;
    for (std::size_t k = kWarmupOps; k < total; ++k) {
      const Op& op = ops[k];
      if (op.recv != 0 && op.status == mw::SvcStatus::kOk)
        e.latency_us.push_back(ns_to_us(op.recv - op.due_abs));
    }
    e.throughput_per_s =
        static_cast<double>(ok) / (static_cast<double>(last_recv - start) / 1e9);
    e.ok_ratio = ok_ratio;
    e.cpu_us_per_op = node_cpu / static_cast<double>(ok);
    e.peak_rss_mb = node_rss;
    add_end_to_end(r.report, std::move(e));
    return r;
  }

  // Join the nodes' spans to the generator's stamps by (client, seq).
  std::unordered_map<std::uint64_t, const NodeSpan*> by_op;
  Layers l;
  double requests = 0, admitted = 0, queued = 0, shed = 0;
  double submitted = 0, executed = 0, stolen = 0, revoked = 0;
  double hits = 0, misses = 0;
  for (const NodeReport& n : nodes) {
    for (const NodeSpan& s : n.spans) by_op.emplace(op_key(s.client, s.seq), &s);
    requests += static_cast<double>(n.requests);
    admitted += static_cast<double>(n.admitted);
    queued += static_cast<double>(n.queued);
    shed += static_cast<double>(n.shed + n.fence_sheds);
    l.misroutes += static_cast<double>(n.misroutes);
    submitted += static_cast<double>(n.submitted);
    executed += static_cast<double>(n.executed);
    stolen += static_cast<double>(n.stolen);
    revoked += static_cast<double>(n.revoked);
    hits += static_cast<double>(n.pool_hits);
    misses += static_cast<double>(n.pool_misses);
    l.live_pages_peak =
        std::max(l.live_pages_peak, static_cast<double>(n.live_pages_peak));
    const std::vector<double> app = to_us(n.append_ns);
    const std::vector<double> ref = to_us(n.refresh_ns);
    l.effect_append_us.insert(l.effect_append_us.end(), app.begin(), app.end());
    l.effect_refresh_us.insert(l.effect_refresh_us.end(), ref.begin(),
                               ref.end());
  }
  l.cow_pages_per_op = (hits + misses) / static_cast<double>(ok);
  l.pool_hit_ratio = ratio(hits, hits + misses);
  l.revoked_ratio = ratio(revoked, submitted);
  l.steal_ratio = ratio(stolen, executed);
  l.queued_ratio = ratio(queued, admitted);
  l.shed_ratio = ratio(shed, requests);

  // The spans partition each traced request from the generator's send to
  // its receipt: request_net, handle, pending, the callback up to its send,
  // then response_net (measured from the send's start: on loopback the
  // datagram can arrive before sendto returns).
  std::vector<double> lat_traced, lat_plain, coverage;
  for (std::size_t k = kWarmupOps; k < total; ++k) {
    const Op& op = ops[k];
    l.gen_late_us.push_back(ns_to_us(op.sent - op.due_abs));
    if (op.recv == 0 || op.status != mw::SvcStatus::kOk) continue;
    const double lat = ns_to_us(op.recv - op.due_abs);
    const std::uint64_t seq = Generator::seq(k);
    if (!traced_seq(seq)) {
      lat_plain.push_back(lat);
      continue;
    }
    lat_traced.push_back(lat);
    auto it = by_op.find(op_key(gen->client(k), seq));
    if (it == by_op.end()) continue;
    const NodeSpan& s = *it->second;
    if (s.cb_start == 0 || s.send_end == 0) continue;  // not a timer reply
    l.request_net_us.push_back(ns_to_us(s.msg_start - op.sent));
    l.handle_us.push_back(ns_to_us(s.msg_end - s.msg_start));
    l.pending_us.push_back(ns_to_us(s.cb_start - s.msg_end));
    l.finish_us.push_back(ns_to_us(s.cb_end - s.cb_start));
    l.send_us.push_back(ns_to_us(s.send_end - s.send_start));
    l.response_net_us.push_back(ns_to_us(op.recv - s.send_start));
    coverage.push_back(ratio(
        static_cast<double>((s.msg_start - op.sent) +
                            (s.msg_end - s.msg_start) +
                            (s.cb_start - s.msg_end) +
                            (s.send_start - s.cb_start) +
                            (op.recv - s.send_start)),
        static_cast<double>(op.recv - op.due_abs)));
  }
  l.trace_overhead_ratio = ratio(median(lat_traced), median(lat_plain)) - 1;
  l.span_coverage = median(coverage);
  add_layers(r.report, std::move(l));
  return r;
}

}  // namespace perfbench
