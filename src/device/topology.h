// Chip topologies: named coupling graphs with precomputed hop distances.
//
// The surface-code lattice family is the paper's target hardware:
// surface7() is the chip of Fig. 2, surface17() the Versluis et al. layout,
// and surface_lattice(6, 15) the 97-qubit "extended 100-qubit Surface-17"
// used for Figs. 3 and 5.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "support/assert.h"

namespace qfs::device {

/// Precomputed lookup tables for one coupling graph, built once per
/// Topology construction and *shared* (via shared_ptr) by every copy of
/// that Topology — a Device copied into a compile_resilient fallback
/// attempt or a Topology stored by value both reuse the same buffers
/// instead of recomputing or deep-copying them.
///
/// Layout is optimized for the router/placer inner loops:
///  - `dist` is a single flat row-major n*n buffer (one indirection and one
///    multiply per lookup; rows are contiguous for the scan patterns),
///  - `edges` caches the lexicographic edge list, in the exact order
///    graph::Graph::edges() reports (the candidate-swap iteration order and
///    the cache fingerprint's canonical_device_text both depend on it),
///  - `nbr_offsets`/`nbr` are the CSR neighbour arrays (nbr_offsets has
///    n+1 entries; neighbours of q are nbr[nbr_offsets[q]..nbr_offsets[q+1])
///    in ascending order), and `nbr_edge` gives each CSR slot's index in
///    `edges`, so a walk over one qubit's couplers knows their rank in the
///    lexicographic order without a search.
struct TopologyTables {
  int n = 0;
  /// Row-major hop distances; graph::kUnreachable for disconnected pairs.
  std::vector<int> dist;
  /// Coupling edges as (a, b), a < b, lexicographic.
  std::vector<std::pair<int, int>> edges;
  /// CSR neighbour lists (ascending within each qubit's range).
  std::vector<int> nbr_offsets;
  std::vector<int> nbr;
  /// Index in `edges` of the coupler {q, nbr[k]}, per CSR slot k.
  std::vector<int> nbr_edge;
  /// True when every qubit pair has a finite hop distance.
  bool connected = false;
};

/// Immutable coupling graph plus all-pairs hop distances.
class Topology {
 public:
  Topology() = default;
  Topology(std::string name, graph::Graph coupling);

  const std::string& name() const { return name_; }
  int num_qubits() const { return coupling_.num_nodes(); }
  const graph::Graph& coupling() const { return coupling_; }

  /// True when a and b share a coupler: one load from the distance table
  /// (distance 1). Both must be in [0, num_qubits()); violations throw
  /// qfs::AssertionError ("qubit out of range").
  bool adjacent(int a, int b) const {
    QFS_ASSERT_MSG(0 <= a && a < num_qubits() && 0 <= b && b < num_qubits(),
                   "qubit out of range");
    return distance_unchecked(a, b) == 1;
  }

  /// Hop distance between physical qubits (0 for a==b).
  ///
  /// Contract (pinned by device_test):
  ///  - `a` and `b` must be in [0, num_qubits()); violations throw
  ///    qfs::AssertionError ("qubit out of range"), they are never UB,
  ///  - a disconnected pair throws qfs::AssertionError ("disconnected
  ///    topology"); callers that must tolerate partitioned chips (fault
  ///    injection) check `reachable()` or `connected()` first instead of
  ///    catching.
  int distance(int a, int b) const;

  /// `distance` without the range/connectivity checks: the inner-loop
  /// variant. Preconditions: a and b in range, pair reachable (else the
  /// sentinel graph::kUnreachable comes back raw).
  int distance_unchecked(int a, int b) const {
    return tables_->dist[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(tables_->n) +
                         static_cast<std::size_t>(b)];
  }

  /// True when a finite hop distance exists (both qubits in range).
  bool reachable(int a, int b) const;

  /// True when every pair of qubits is reachable (n <= 1 counts as
  /// connected; a default-constructed empty topology does too).
  bool connected() const { return tables_ == nullptr || tables_->connected; }

  /// One shortest path from a to b inclusive (deterministic tie-break).
  std::vector<int> shortest_path(int a, int b) const;

  /// Coupling edges as (a, b) pairs with a < b, lexicographic — the order
  /// canonical_device_text fingerprints and the router iterates. Cached:
  /// repeated calls return the same buffer without allocating.
  const std::vector<std::pair<int, int>>& edge_list() const;

  /// The shared lookup tables (never null once constructed with a graph;
  /// null only for a default-constructed empty topology).
  const TopologyTables* tables() const { return tables_.get(); }

 private:
  std::string name_;
  graph::Graph coupling_;
  std::shared_ptr<const TopologyTables> tables_;
};

/// Surface-code lattice with alternating row widths (narrow, narrow+1, ...)
/// starting and ending on a narrow row. Row count must be odd and >= 3.
/// Qubits are numbered row-major; narrow-row qubit j couples to wide-row
/// qubits j and j+1 above and below. surface_lattice(2, 7) is Surface-17.
Topology surface_lattice(int narrow_width, int num_rows);

/// The 7-qubit surface chip of Fig. 2 (rows 2-3-2, canonical numbering).
Topology surface7();

/// The 17-qubit Versluis et al. chip (rows 2-3-2-3-2-3-2).
Topology surface17();

/// 97-qubit lattice: the closest family member to the paper's "extended
/// 100-qubit version of the Surface-17".
Topology surface97();

Topology line_topology(int n);
Topology ring_topology(int n);
Topology grid_topology(int rows, int cols);
Topology star_topology(int n);
Topology fully_connected_topology(int n);

/// Sycamore-style diagonal grid: a rows x cols nearest-neighbour grid plus
/// one diagonal coupler per unit cell, alternating orientation by cell
/// parity ((r+c) even adds (r,c)-(r+1,c+1), odd adds (r+1,c)-(r,c+1)).
/// Approximates the brick-pattern connectivity of Google's Sycamore chip.
/// rows and cols must be >= 2.
Topology sycamore_topology(int rows, int cols);

/// Neutral-atom square lattice with interaction-radius connectivity: atoms
/// at integer grid points (row, col); two atoms couple when their Euclidean
/// distance is <= radius. radius >= 1 keeps nearest neighbours coupled
/// (required — the mapper needs a connected target); radius >= sqrt(2)
/// adds diagonals, radius >= 2 next-nearest rows/columns, and so on.
Topology neutral_atom_topology(int rows, int cols, double radius);

/// 27-qubit IBM Falcon-style heavy-hex coupling map.
Topology heavy_hex27();

/// Parameterised IBM-style heavy-hex lattice: `rows` horizontal qubit rows
/// of `cols` qubits, with bridge qubits between consecutive rows at every
/// fourth column (offset by two on alternating row pairs). Degree <= 3
/// everywhere — the heavy-hex property. cols must be >= 3 and satisfy
/// cols % 4 == 1 so both bridge phases land inside the row.
Topology heavy_hex_lattice(int rows, int cols);

}  // namespace qfs::device
