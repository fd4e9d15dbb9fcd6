#include "dist/transport_race.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace mw {

namespace {

constexpr std::uint8_t kJoin = 1;
constexpr std::uint8_t kFork = 2;
constexpr std::uint8_t kCkpt = 3;
constexpr std::uint8_t kResult = 4;
constexpr std::uint8_t kShutdown = 5;

// Knuth's MMIX multiplier: cheap, and every step changes every bit of the
// accumulator, so a restore that silently lost state cannot pass the
// reference check by luck.
constexpr std::uint64_t kStepMultiplier = 6364136223846793005ull;

constexpr std::uint64_t kStepOffset = 0;  // within segment "race"
constexpr std::uint64_t kAccOffset = 8;
constexpr std::uint64_t kScratchPages = 8;

// Rounds of join retries (each a full RetryPolicy budget) before a worker
// that never reached its coordinator gives up as an orphan.
constexpr std::size_t kJoinRounds = 3;

std::uint64_t step_once(std::uint64_t acc, std::uint64_t step) {
  return acc * kStepMultiplier + step;
}

Bytes encode_join() {
  ByteWriter w;
  w.put_u8(kJoin);
  return w.take();
}

Bytes encode_shutdown() {
  ByteWriter w;
  w.put_u8(kShutdown);
  return w.take();
}

}  // namespace

std::uint64_t race_reference(std::uint64_t steps) {
  std::uint64_t acc = 0;
  for (std::uint64_t s = 0; s < steps; ++s) acc = step_once(acc, s);
  return acc;
}

// ---------------------------------------------------------------- worker --

RaceWorker::RaceWorker(Transport& transport, NodeId self, NodeId coordinator,
                       RaceConfig config)
    : transport_(transport),
      self_(self),
      coordinator_(coordinator),
      config_(config),
      channel_(transport, self, config.retry, config.health, config.seed) {
  channel_.set_handler(
      [this](NodeId from, const Bytes& payload) { on_payload(from, payload); });
  channel_.enable_heartbeats([this](NodeId peer, PeerState state) {
    // An orphaned worker must exit, not spin: a dead coordinator means
    // nobody will ever collect a result or send kShutdown.
    if (peer == coordinator_ && state == PeerState::kDead) done_ = true;
  });
  send_join();
}

void RaceWorker::send_join() {
  // The coordinator beats only the workers it has heard from, so its
  // silence says nothing until it has acknowledged the join: the worker
  // starts judging its liveness then. A join still being retransmitted on
  // a lossy link may take longer than the dead timeout. A join whose
  // retries run out is sent again; after kJoinRounds the worker is an
  // orphan and exits.
  channel_.send(
      coordinator_, encode_join(),
      /*on_delivered=*/[this] {
        if (!done_) channel_.watch_peer(coordinator_);
      },
      /*on_failed=*/[this] {
        if (done_) return;
        if (++join_rounds_ < kJoinRounds) {
          send_join();
        } else {
          done_ = true;
        }
      });
}

void RaceWorker::kill() {
  done_ = true;
  channel_.close();
  tasks_.clear();
}

void RaceWorker::on_payload(NodeId from, const Bytes& payload) {
  if (from != coordinator_ || done_) return;
  ByteReader r(std::span<const std::uint8_t>(payload.data(), payload.size()));
  switch (r.get_u8()) {
    case kFork:
      start_task(payload);
      break;
    case kShutdown:
      done_ = true;
      break;
    default:
      break;
  }
}

void RaceWorker::start_task(const Bytes& payload) {
  ByteReader r(std::span<const std::uint8_t>(payload.data(), payload.size()));
  r.get_u8();  // kFork
  const std::uint64_t alt = r.get_u64();
  const std::uint64_t steps = r.get_u64();
  const std::uint64_t per_ckpt = r.get_u64();
  CheckpointImage image;
  if (!r.ok() || !parse_checkpoint_blob(r.get_blob(r.remaining()), image))
    return;
  RestoreResult restored = restore_checkpoint(image);
  if (!restored.ok) return;
  const auto race = restored.space.find_segment("race");
  const auto scratch = restored.space.find_segment("scratch");
  if (!race || !scratch) return;

  Task t;
  t.alt = alt;
  t.steps = steps;
  t.per_ckpt = std::max<std::uint64_t>(per_ckpt, 1);
  t.race_base = race->base;
  t.scratch_base = scratch->base;
  t.scratch_size = scratch->size;
  t.start_step = restored.space.load<std::uint64_t>(race->base + kStepOffset);
  t.space = std::move(restored.space);
  t.snapshot = t.space.fork();  // the COW base the first delta diffs against
  t.last_shipped = std::move(image);
  tasks_.insert_or_assign(alt, std::move(t));
  transport_.schedule(config_.slice_delay,
                      [this, alt] { run_slice(alt); });
}

void RaceWorker::run_slice(std::uint64_t alt) {
  if (done_) return;
  auto it = tasks_.find(alt);
  if (it == tasks_.end()) return;
  Task& t = it->second;

  std::uint64_t step = t.space.load<std::uint64_t>(t.race_base + kStepOffset);
  std::uint64_t acc = t.space.load<std::uint64_t>(t.race_base + kAccOffset);
  const std::uint64_t until = std::min(t.steps, step + t.per_ckpt);
  const std::uint64_t slots = t.scratch_size / 8;
  for (; step < until; ++step) {
    acc = step_once(acc, step);
    // The scratch writes are the task's working set: they are what gives
    // each delta image real pages to ship.
    t.space.store<std::uint64_t>(t.scratch_base + (step % slots) * 8, acc);
  }
  t.space.store<std::uint64_t>(t.race_base + kStepOffset, step);
  t.space.store<std::uint64_t>(t.race_base + kAccOffset, acc);

  if (step >= t.steps) {
    finish_task(t);
    tasks_.erase(it);
    return;
  }
  ship_delta(t);
  transport_.schedule(config_.slice_delay, [this, alt] { run_slice(alt); });
}

void RaceWorker::ship_delta(Task& t) {
  Registers regs;
  regs.pc = t.space.load<std::uint64_t>(t.race_base + kStepOffset);
  regs.gp[0] = t.alt;
  CheckpointImage delta =
      take_delta_checkpoint(t.space, regs, t.snapshot, t.last_shipped);
  ByteWriter w;
  w.put_u8(kCkpt);
  w.put_u64(t.alt);
  w.put_u64(regs.pc);
  w.put_bytes(std::span<const std::uint8_t>(delta.blob.data(),
                                            delta.blob.size()));
  channel_.send(coordinator_, w.take());
  t.snapshot = t.space.fork();
  t.last_shipped = std::move(delta);
}

void RaceWorker::finish_task(Task& t) {
  ByteWriter w;
  w.put_u8(kResult);
  w.put_u64(t.alt);
  w.put_u64(t.space.load<std::uint64_t>(t.race_base + kStepOffset));
  w.put_u64(t.space.load<std::uint64_t>(t.race_base + kAccOffset));
  w.put_u64(t.start_step);
  channel_.send(coordinator_, w.take());
}

// ----------------------------------------------------------- coordinator --

RaceCoordinator::RaceCoordinator(Transport& transport, NodeId self,
                                 RaceConfig config)
    : transport_(transport),
      self_(self),
      config_(config),
      channel_(transport, self, config.retry, config.health,
               config.seed ^ 0x636f6f7264ull) {
  channel_.set_handler(
      [this](NodeId from, const Bytes& payload) { on_payload(from, payload); });
  channel_.enable_heartbeats([this](NodeId peer, PeerState state) {
    on_peer_transition(peer, state);
  });
}

std::size_t RaceCoordinator::chain_length(std::uint64_t alt) const {
  auto it = alts_.find(alt);
  return it == alts_.end() ? 0 : it->second.chain.size();
}

CheckpointImage RaceCoordinator::make_initial_image(std::uint64_t steps) {
  AddressSpace space(config_.page_size, config_.num_pages);
  const Segment race = space.alloc_segment("race", config_.page_size);
  const Segment scratch = space.alloc_segment(
      "scratch", kScratchPages * config_.page_size);
  space.store<std::uint64_t>(race.base + kStepOffset, 0);
  space.store<std::uint64_t>(race.base + kAccOffset, 0);
  // Touch the scratch segment so its pages are resident in the full image
  // and every later delta diffs against real content.
  space.store<std::uint64_t>(scratch.base, steps);
  Registers regs;
  return take_checkpoint(space, regs);
}

void RaceCoordinator::start(const std::vector<std::uint64_t>& steps) {
  MW_CHECK(!started_);
  MW_CHECK(steps.size() <= workers_.size());
  started_ = true;
  outcome_.alts.resize(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    Alt alt;
    alt.steps = steps[i];
    auto [it, fresh] = alts_.emplace(i, std::move(alt));
    MW_CHECK(fresh);
    dispatch(i, workers_[i], make_initial_image(steps[i]));
  }
}

void RaceCoordinator::dispatch(std::uint64_t alt, NodeId worker,
                               const CheckpointImage& image) {
  Alt& a = alts_.at(alt);
  a.assigned = worker;
  a.chain.clear();
  a.chain.push_back(image);
  ByteWriter w;
  w.put_u8(kFork);
  w.put_u64(alt);
  w.put_u64(a.steps);
  w.put_u64(config_.steps_per_checkpoint);
  w.put_bytes(std::span<const std::uint8_t>(image.blob.data(),
                                            image.blob.size()));
  const Bytes payload = w.take();
  outcome_.bytes_shipped += payload.size();
  const std::uint64_t alt_id = alt;
  channel_.send(worker, payload, /*on_delivered=*/{},
                /*on_failed=*/[this, alt_id] {
                  // Retries exhausted before the worker even had the work:
                  // treat it like a death and move the alt elsewhere.
                  fail_over(alt_id);
                });
}

void RaceCoordinator::on_payload(NodeId from, const Bytes& payload) {
  ByteReader r(std::span<const std::uint8_t>(payload.data(), payload.size()));
  switch (r.get_u8()) {
    case kJoin: {
      if (std::find(workers_.begin(), workers_.end(), from) ==
          workers_.end()) {
        workers_.push_back(from);
        channel_.watch_peer(from);
      }
      break;
    }
    case kCkpt: {
      const std::uint64_t alt = r.get_u64();
      r.get_u64();  // step, informational
      CheckpointImage image;
      if (!r.ok() || !parse_checkpoint_blob(r.get_blob(r.remaining()), image))
        break;
      auto it = alts_.find(alt);
      if (it == alts_.end() || it->second.result.completed) break;
      Alt& a = it->second;
      // Only a delta that chains on our newest image extends the chain; a
      // stale shipment from a superseded worker dangles and is dropped.
      if (!image.delta || a.chain.empty() ||
          image.base_checksum != a.chain.back().checksum)
        break;
      ++outcome_.checkpoints_received;
      outcome_.bytes_shipped += image.blob.size();
      a.chain.push_back(std::move(image));
      break;
    }
    case kResult: {
      const std::uint64_t alt = r.get_u64();
      const std::uint64_t final_step = r.get_u64();
      const std::uint64_t acc = r.get_u64();
      const std::uint64_t start = r.get_u64();
      if (!r.ok()) break;
      auto it = alts_.find(alt);
      if (it == alts_.end() || it->second.result.completed) break;
      // A result from a superseded worker is still a correct result (the
      // race does not care who crossed the line) — accept either.
      RaceAltOutcome& res = it->second.result;
      res.completed = true;
      res.final_step = final_step;
      res.accumulator = acc;
      res.start_step = start;
      res.accumulator_ok = acc == race_reference(it->second.steps);
      maybe_finish();
      break;
    }
    default:
      break;
  }
}

void RaceCoordinator::on_peer_transition(NodeId peer, PeerState state) {
  if (state != PeerState::kDead) return;
  for (auto& [alt, a] : alts_) {
    if (!a.result.completed && a.assigned == peer) fail_over(alt);
  }
}

void RaceCoordinator::fail_over(std::uint64_t alt) {
  auto it = alts_.find(alt);
  if (it == alts_.end() || it->second.result.completed) return;
  Alt& a = it->second;
  a.assigned.reset();

  RestoreResult restored = restore_chain(a.chain);
  if (!restored.ok) {
    // A chain that cannot restore is unrecoverable state loss; the alt
    // reports incomplete rather than silently restarting from zero.
    a.result.completed = true;
    a.result.accumulator_ok = false;
    maybe_finish();
    return;
  }

  ++a.result.failovers;
  ++outcome_.failovers;
  if (a.result.failovers > config_.max_failovers) {
    finish_locally(alt, std::move(restored));
    return;
  }

  // A standby: joined, unassigned, and not known-dead.
  const VTime now = transport_.now();
  for (NodeId w : workers_) {
    const bool busy =
        std::any_of(alts_.begin(), alts_.end(), [&](const auto& kv) {
          return kv.second.assigned == w && !kv.second.result.completed;
        });
    if (busy || channel_.health().state(w, now) == PeerState::kDead) continue;
    // Re-seal the restored state as a fresh full image: the standby gets
    // one blob, and the new chain roots at the point of death, not at 0.
    const CheckpointImage image =
        take_checkpoint(restored.space, restored.regs);
    MW_TRACE_EVENT(trace::EventKind::kDistFailover, kNoPid, kNoPid, alt,
                   image.blob.size(), now);
    dispatch(alt, w, image);
    return;
  }
  // Fully partitioned from every worker: graceful degradation — finish
  // this alternative locally from the shipped chain.
  finish_locally(alt, std::move(restored));
}

void RaceCoordinator::finish_locally(std::uint64_t alt,
                                     RestoreResult restored) {
  Alt& a = alts_.at(alt);
  MW_TRACE_EVENT(trace::EventKind::kDistDemote, kNoPid, kNoPid, alt, 0,
                 transport_.now());
  const auto race = restored.space.find_segment("race");
  const auto scratch = restored.space.find_segment("scratch");
  if (!race || !scratch) {
    a.result.completed = true;
    a.result.accumulator_ok = false;
    maybe_finish();
    return;
  }
  std::uint64_t step =
      restored.space.load<std::uint64_t>(race->base + kStepOffset);
  std::uint64_t acc =
      restored.space.load<std::uint64_t>(race->base + kAccOffset);
  a.result.start_step = step;
  for (; step < a.steps; ++step) acc = step_once(acc, step);

  a.result.completed = true;
  a.result.final_step = step;
  a.result.accumulator = acc;
  a.result.finished_locally = true;
  a.result.accumulator_ok = acc == race_reference(a.steps);
  outcome_.used_local_fallback = true;
  maybe_finish();
}

void RaceCoordinator::maybe_finish() {
  if (done_ || !started_) return;
  for (const auto& [alt, a] : alts_) {
    if (!a.result.completed) return;
  }
  done_ = true;
  for (std::size_t i = 0; i < outcome_.alts.size(); ++i) {
    outcome_.alts[i] = alts_.at(i).result;
  }
  outcome_.all_completed =
      std::all_of(outcome_.alts.begin(), outcome_.alts.end(),
                  [](const RaceAltOutcome& r) { return r.accumulator_ok; });
  // "Winner" = lowest alt index among the completed (arrival order is not
  // recorded per-message; index order is deterministic on both backends).
  outcome_.winner = 0;
  const Bytes bye = encode_shutdown();
  for (NodeId w : workers_) channel_.send(w, bye);
}

}  // namespace mw
