// World: one timeline of the computation — a process identity, its paged
// sink state, and the assumptions under which it exists (§2.4.2). Forking a
// world is O(1) in address-space size (persistent page-map root share), so
// speculation depth and receiver splits cost the same for a 64 KiB world as
// for a gigabyte one; committing a world back into its parent is the
// paper's alt_wait page-pointer replacement — also an O(1) root swap.
#pragma once

#include <cstdint>
#include <string>

#include "pagestore/address_space.hpp"
#include "pred/predicate_set.hpp"
#include "proc/process_table.hpp"
#include "util/ids.hpp"

namespace mw {

class World {
 public:
  /// A root world: a fresh process with an empty (certain) predicate set.
  World(ProcessTable& table, std::size_t page_size, std::size_t num_pages,
        std::string label = "root");

  Pid pid() const { return pid_; }
  ProcessTable& processes() { return *table_; }
  const ProcessTable& processes() const { return *table_; }

  AddressSpace& space() { return space_; }
  const AddressSpace& space() const { return space_; }

  PredicateSet& predicates() { return preds_; }
  const PredicateSet& predicates() const { return preds_; }

  /// True when this world holds no unresolved assumptions and may therefore
  /// interface with sources (§2.4.2).
  bool certain() const { return preds_.empty(); }

  /// Spawns alternative child `self_index` of an alt group whose members
  /// will carry the pids in `sibling_pids` (the pid for this child must be
  /// pre-allocated and included). The child COW-shares this world's pages
  /// and carries the sibling-rivalry predicate set.
  World fork_alternative(Pid self_pid, const std::vector<Pid>& sibling_pids);

  /// fork_alternative for a child that lives only inside this world's
  /// block (the kPool engine): the child's pages are borrowed from this
  /// world (AddressSpace::fork_scoped), so this world must not be written
  /// until every such child has been committed or dropped.
  World fork_scoped_alternative(Pid self_pid,
                                const std::vector<Pid>& sibling_pids);

  /// Clones this world with explicit predicates — used by the message layer
  /// when a receiver must be split (§2.4.2).
  World clone_with_predicates(PredicateSet preds, std::string label) const;

  /// The paper's synchronization: absorb the child's state changes by
  /// atomically replacing this world's page map with the child's. The
  /// child's world object is consumed.
  void commit_from(World&& child);

  /// Supervised recovery: rewind this world's sink state to a previously
  /// captured COW snapshot (an O(1) page-map root swap, the inverse of
  /// commit_from). Identity, status, and predicates are untouched — the
  /// world is the same speculative process, replaying from its checkpoint.
  void rollback(const AddressSpace& snapshot);

  /// Pages this world's map shares physically with `other` — the COW
  /// sharing the design maximizes (§2.3).
  std::size_t shared_pages_with(const World& other) const {
    return space_.table().shared_pages_with(other.space_.table());
  }

 private:
  World(ProcessTable& table, Pid pid, AddressSpace space, PredicateSet preds);

  /// The alternative child with pid `self_pid`; `scoped` borrows.
  World alternative(Pid self_pid, const std::vector<Pid>& sibling_pids,
                    bool scoped);

  ProcessTable* table_;
  Pid pid_;
  AddressSpace space_;
  PredicateSet preds_;
};

}  // namespace mw
