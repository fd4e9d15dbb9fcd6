// FORK-SWEEP — the §2.3 fork-latency curve, before and after the
// persistent page map.
//
//   "The time required to fork grows linearly with the size of the address
//    space, because a fork copies the table of page references."
//
// This bench sweeps address-space size over {2^minpow … 2^maxpow} pages and
// measures, per size:
//
//   * flat_fork / flat_adopt   — a faithful replica of the pre-radix page
//     table (std::vector<PageRef> slot copy): the paper's measured shape;
//   * radix_fork / radix_adopt — the persistent PageMap (root share/swap);
//   * radix_split              — a full World::clone_with_predicates, i.e.
//     what a §2.4.2 receiver split actually costs through the whole stack.
//
// The headline claim this guards: radix fork/split/adopt latency is flat in
// address-space size (the flat baseline grows ~64x from 2^8 to 2^14 pages).
// With --check the binary exits non-zero if the radix fork or split latency
// at the largest swept size exceeds 4x the smallest — the CI bench-smoke
// job runs exactly that.
//
//   $ fork_latency_sweep [--minpow=8] [--maxpow=18] [--step=2] [--trials=5]
//                        [--min_ms=2] [--page_size=128] [--check]
//                        [--json=BENCH_fork_latency_sweep.json]
//                        [--trace=FILE] [--profile]
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/world.hpp"
#include "pagestore/page_table.hpp"
#include "pred/predicate_set.hpp"
#include "proc/process_table.hpp"
#include "trace/trace_cli.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace mw;

namespace {

// The pre-radix page table, kept as the measurement baseline: fork copies
// the whole slot vector (O(pages)), adopt moves it and clears the touched
// bits (O(pages)).
class FlatTable {
 public:
  FlatTable(std::size_t page_size, std::size_t num_pages)
      : page_size_(page_size), slots_(num_pages), touched_(num_pages, false) {}

  void write_page(std::size_t i) {
    PageRef& slot = slots_[i];
    if (!slot) {
      slot = make_page(page_size_);
    } else if (slot.use_count() > 1) {
      PageRef copy = make_page(page_size_);
      std::memcpy(copy->mutable_data(), slot->data(), page_size_);
      slot = std::move(copy);
    }
    touched_[i] = true;
  }

  FlatTable fork() const {
    FlatTable child(page_size_, slots_.size());
    child.slots_ = slots_;  // O(pages) reference copies
    return child;
  }

  void adopt(FlatTable&& child) {
    slots_ = std::move(child.slots_);
    std::fill(touched_.begin(), touched_.end(), false);
  }

 private:
  std::size_t page_size_;
  std::vector<PageRef> slots_;
  std::vector<bool> touched_;
};

// ns/op of `op`, batching iterations until the wall clock passes `min_ms`.
template <typename F>
double ns_per_op(F&& op, double min_ms) {
  op();  // warm up
  Stopwatch sw;
  std::size_t iters = 0;
  do {
    op();
    ++iters;
  } while (sw.elapsed_ms() < min_ms);
  return sw.elapsed_ms() * 1e6 / static_cast<double>(iters);
}

template <typename F>
double median_ns(int trials, double min_ms, F&& op) {
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) samples.push_back(ns_per_op(op, min_ms));
  return summarize(samples).median;
}

// Adopt is consuming, so it is timed over a pre-built batch of children;
// the batch size shrinks with the address-space size to bound memory.
template <typename Table>
double adopt_ns(Table& parent, std::size_t pages, int trials, double min_ms) {
  const std::size_t batch =
      std::max<std::size_t>(8, (std::size_t{1} << 21) / pages);
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) {
    std::vector<Table> kids;
    kids.reserve(batch);
    for (std::size_t k = 0; k < batch; ++k) kids.push_back(parent.fork());
    Stopwatch sw;
    for (auto& kid : kids) parent.adopt(std::move(kid));
    samples.push_back(sw.elapsed_ms() * 1e6 / static_cast<double>(batch));
    (void)min_ms;
  }
  return summarize(samples).median;
}

struct Row {
  std::size_t pages = 0;
  double flat_fork = 0, flat_adopt = 0;
  double radix_fork = 0, radix_adopt = 0, radix_split = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int minpow = static_cast<int>(cli.get_int("minpow", 8));
  const int maxpow = static_cast<int>(cli.get_int("maxpow", 18));
  const int step = static_cast<int>(cli.get_int("step", 2));
  const int trials = static_cast<int>(cli.get_int("trials", 5));
  const double min_ms = cli.get_double("min_ms", 2.0);
  const std::size_t page_size =
      static_cast<std::size_t>(cli.get_int("page_size", 128));
  const bool check = cli.has("check");
  const std::string json_path = cli.get("json", "");
  // Note: --trace/--profile record the sweep's own fork/split/adopt page
  // events; the timed loops then include the (small) emit cost.
  trace::TraceSession trace_session(cli);

  std::cout << "Fork/split/adopt latency vs address-space size ("
            << page_size << " B pages, fully resident; ns per op, median of "
            << trials << " trials)\n";
  TablePrinter table({"pages", "flat_fork", "flat_adopt", "radix_fork",
                      "radix_adopt", "radix_split"});

  std::vector<Row> rows;
  for (int pow = minpow; pow <= maxpow; pow += step) {
    const std::size_t pages = std::size_t{1} << pow;
    Row row;
    row.pages = pages;

    {  // Flat baseline: populate every page, then time fork and adopt.
      FlatTable flat(page_size, pages);
      for (std::size_t p = 0; p < pages; ++p) flat.write_page(p);
      row.flat_fork = median_ns(trials, min_ms, [&] {
        FlatTable child = flat.fork();
        (void)child;
      });
      row.flat_adopt = adopt_ns(flat, pages, trials, min_ms);
    }

    {  // Radix PageTable.
      PageTable radix(page_size, pages);
      for (std::size_t p = 0; p < pages; ++p) radix.write_page(p);
      row.radix_fork = median_ns(trials, min_ms, [&] {
        PageTable child = radix.fork();
        (void)child;
      });
      row.radix_adopt = adopt_ns(radix, pages, trials, min_ms);
    }

    {  // Whole-stack receiver split: clone a fully resident World.
      ProcessTable procs;
      World world(procs, page_size, pages, "sweep");
      for (std::size_t p = 0; p < pages; ++p)
        world.space().table().write_page(p);
      row.radix_split = median_ns(trials, min_ms, [&] {
        World copy = world.clone_with_predicates(PredicateSet{}, "s");
        (void)copy;
      });
    }

    table.add_row({TablePrinter::num(static_cast<std::int64_t>(pages)),
                   TablePrinter::num(row.flat_fork, 0),
                   TablePrinter::num(row.flat_adopt, 0),
                   TablePrinter::num(row.radix_fork, 0),
                   TablePrinter::num(row.radix_adopt, 0),
                   TablePrinter::num(row.radix_split, 0)});
    rows.push_back(row);
  }
  table.print(std::cout);
  std::cout << "(shape to verify: flat_fork/flat_adopt grow linearly with "
               "pages — the paper's §2.3 curve — while the radix columns "
               "stay flat; radix_split is a full World clone, so receiver "
               "splits inherit the O(1) cost)\n";

  double fork_ratio = 0.0, split_ratio = 0.0;
  bool pass = true;
  if (rows.size() >= 2) {
    const Row& lo = rows.front();
    const Row& hi = rows.back();
    fork_ratio = hi.radix_fork / lo.radix_fork;
    split_ratio = hi.radix_split / lo.radix_split;
    if (check) {
      pass = fork_ratio <= 4.0 && split_ratio <= 4.0;
      std::cout << "\ncheck: radix fork " << lo.pages << "->" << hi.pages
                << " pages ratio " << fork_ratio << ", split ratio "
                << split_ratio << " (limit 4.0): "
                << (pass ? "PASS" : "FAIL") << "\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fork_latency_sweep\",\n"
        << "  \"page_size\": " << page_size << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"pages\": " << r.pages
          << ", \"flat_fork_ns\": " << r.flat_fork
          << ", \"flat_adopt_ns\": " << r.flat_adopt
          << ", \"radix_fork_ns\": " << r.radix_fork
          << ", \"radix_adopt_ns\": " << r.radix_adopt
          << ", \"radix_split_ns\": " << r.radix_split << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"check\": {\"enabled\": " << (check ? "true" : "false")
        << ", \"fork_ratio\": " << fork_ratio
        << ", \"split_ratio\": " << split_ratio
        << ", \"limit\": 4.0, \"pass\": " << (pass ? "true" : "false")
        << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  trace_session.finish(std::cout);
  return pass ? 0 : 1;
}
