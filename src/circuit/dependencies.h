// Gate dependency lists: the data-dependency DAG of a circuit in CSR form,
// what the lookahead router walks to find its front layer.
#pragma once

#include <vector>

#include "circuit/circuit.h"

namespace qfs::circuit {

/// Gate dependencies of a Circuit: predecessor counts and CSR successor
/// lists. Gate j depends on gate i < j when i is the last earlier gate on
/// one of j's operands (a barrier orders every qubit it lists). Each edge
/// counts once even when the two gates share several qubits.
/// succs[succ_offsets[i]..succ_offsets[i+1]) are gate i's direct
/// successors, ascending; every one is above i, so program order is a
/// topological order.
struct Dependencies {
  std::vector<int> num_preds;
  std::vector<int> succ_offsets;
  std::vector<int> succs;

  std::size_t size() const { return num_preds.size(); }
  int num_successors(std::size_t i) const {
    return succ_offsets[i + 1] - succ_offsets[i];
  }
  const int* successors(std::size_t i) const {
    return succs.data() + succ_offsets[i];
  }
};

/// Build the dependency lists of `circuit` into `out`, reusing its capacity.
void build_dependencies(const Circuit& circuit, Dependencies& out);

}  // namespace qfs::circuit
