#include "device/topology.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace qfs::device {

namespace {

std::shared_ptr<const TopologyTables> build_tables(const graph::Graph& g) {
  auto tables = std::make_shared<TopologyTables>();
  const int n = g.num_nodes();
  tables->n = n;
  // CSR neighbour arrays first (ascending per qubit); the all-pairs BFS
  // walks them, so its rows land directly in the row-major buffer.
  graph::CsrAdjacency csr = graph::csr_adjacency(g);
  tables->nbr_offsets = std::move(csr.offsets);
  tables->nbr = std::move(csr.targets);
  tables->dist =
      graph::flat_all_pairs_hop_distances(tables->nbr_offsets, tables->nbr);
  tables->connected =
      std::none_of(tables->dist.begin(), tables->dist.end(),
                   [](int d) { return d == graph::kUnreachable; });
  // Lexicographic edge list (the order graph::Graph::edges() reports and
  // canonical_device_text fingerprints), read off the ascending CSR rows.
  tables->edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (int q = 0; q < n; ++q) {
    for (int k = tables->nbr_offsets[static_cast<std::size_t>(q)];
         k < tables->nbr_offsets[static_cast<std::size_t>(q) + 1]; ++k) {
      const int v = tables->nbr[static_cast<std::size_t>(k)];
      if (q < v) tables->edges.emplace_back(q, v);
    }
  }
  // Edge index per CSR slot. The lexicographic edge list meets each
  // qubit's neighbours in ascending order (first as the larger endpoint of
  // (c, q), c < q, then as the smaller of (q, d)), so one write cursor per
  // qubit walks its CSR range in step.
  tables->nbr_edge.assign(tables->nbr.size(), -1);
  std::vector<int> cursor(tables->nbr_offsets.begin(),
                          tables->nbr_offsets.end() - 1);
  for (std::size_t e = 0; e < tables->edges.size(); ++e) {
    const auto [a, b] = tables->edges[e];
    for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++);
      QFS_ASSERT(tables->nbr[slot] == to);
      tables->nbr_edge[slot] = static_cast<int>(e);
    }
  }
  return tables;
}

}  // namespace

Topology::Topology(std::string name, graph::Graph coupling)
    : name_(std::move(name)), coupling_(std::move(coupling)) {
  tables_ = build_tables(coupling_);
}

int Topology::distance(int a, int b) const {
  QFS_ASSERT_MSG(0 <= a && a < num_qubits(), "qubit out of range");
  QFS_ASSERT_MSG(0 <= b && b < num_qubits(), "qubit out of range");
  int d = distance_unchecked(a, b);
  QFS_ASSERT_MSG(d != graph::kUnreachable, "disconnected topology");
  return d;
}

bool Topology::reachable(int a, int b) const {
  QFS_ASSERT_MSG(0 <= a && a < num_qubits(), "qubit out of range");
  QFS_ASSERT_MSG(0 <= b && b < num_qubits(), "qubit out of range");
  return distance_unchecked(a, b) != graph::kUnreachable;
}

std::vector<int> Topology::shortest_path(int a, int b) const {
  return graph::shortest_path(coupling_, a, b);
}

const std::vector<std::pair<int, int>>& Topology::edge_list() const {
  static const std::vector<std::pair<int, int>> kEmpty;
  return tables_ == nullptr ? kEmpty : tables_->edges;
}

Topology surface_lattice(int narrow_width, int num_rows) {
  QFS_ASSERT_MSG(narrow_width >= 1, "narrow width must be >= 1");
  QFS_ASSERT_MSG(num_rows >= 3 && num_rows % 2 == 1,
                 "surface lattice needs an odd row count >= 3");
  // Row widths: narrow, narrow+1, narrow, ... (odd rows are wide).
  std::vector<int> row_start;
  std::vector<int> row_width;
  int total = 0;
  for (int r = 0; r < num_rows; ++r) {
    int w = (r % 2 == 0) ? narrow_width : narrow_width + 1;
    row_start.push_back(total);
    row_width.push_back(w);
    total += w;
  }
  graph::Graph g(total);
  for (int r = 0; r + 1 < num_rows; ++r) {
    int narrow = (r % 2 == 0) ? r : r + 1;  // the narrow row of the pair
    int wide = (r % 2 == 0) ? r + 1 : r;
    for (int j = 0; j < row_width[static_cast<std::size_t>(narrow)]; ++j) {
      int nq = row_start[static_cast<std::size_t>(narrow)] + j;
      g.add_edge(nq, row_start[static_cast<std::size_t>(wide)] + j);
      g.add_edge(nq, row_start[static_cast<std::size_t>(wide)] + j + 1);
    }
  }
  std::ostringstream name;
  name << "surface-" << total;
  return Topology(name.str(), std::move(g));
}

Topology surface7() {
  graph::Graph g(7);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 5);
  g.add_edge(3, 5);
  g.add_edge(3, 6);
  g.add_edge(4, 6);
  return Topology("surface-7", std::move(g));
}

Topology surface17() { return surface_lattice(2, 7); }

Topology surface97() { return surface_lattice(6, 15); }

Topology line_topology(int n) {
  std::ostringstream name;
  name << "line-" << n;
  return Topology(name.str(), graph::path_graph(n));
}

Topology ring_topology(int n) {
  std::ostringstream name;
  name << "ring-" << n;
  return Topology(name.str(), graph::cycle_graph(n));
}

Topology grid_topology(int rows, int cols) {
  std::ostringstream name;
  name << "grid-" << rows << "x" << cols;
  return Topology(name.str(), graph::grid_graph(rows, cols));
}

Topology star_topology(int n) {
  std::ostringstream name;
  name << "star-" << n;
  return Topology(name.str(), graph::star_graph(n));
}

Topology fully_connected_topology(int n) {
  std::ostringstream name;
  name << "full-" << n;
  return Topology(name.str(), graph::complete_graph(n));
}

Topology sycamore_topology(int rows, int cols) {
  QFS_ASSERT_MSG(rows >= 2 && cols >= 2, "sycamore grid needs rows, cols >= 2");
  graph::Graph g = graph::grid_graph(rows, cols);
  auto at = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r + 1 < rows; ++r) {
    for (int c = 0; c + 1 < cols; ++c) {
      if ((r + c) % 2 == 0) {
        g.add_edge(at(r, c), at(r + 1, c + 1));
      } else {
        g.add_edge(at(r + 1, c), at(r, c + 1));
      }
    }
  }
  std::ostringstream name;
  name << "sycamore-" << rows << "x" << cols;
  return Topology(name.str(), std::move(g));
}

Topology neutral_atom_topology(int rows, int cols, double radius) {
  QFS_ASSERT_MSG(rows >= 1 && cols >= 1, "need at least one atom");
  QFS_ASSERT_MSG(radius >= 1.0,
                 "interaction radius < 1 disconnects the lattice");
  const int n = rows * cols;
  graph::Graph g(n);
  // Small tolerance so radius = sqrt(2) written as 1.414... still couples
  // exact diagonals.
  const double r2 = radius * radius + 1e-9;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double dr = a / cols - b / cols;
      const double dc = a % cols - b % cols;
      if (dr * dr + dc * dc <= r2) g.add_edge(a, b);
    }
  }
  std::ostringstream name;
  name << "neutral-atom-" << rows << "x" << cols;
  return Topology(name.str(), std::move(g));
}

Topology heavy_hex_lattice(int rows, int cols) {
  QFS_ASSERT_MSG(rows >= 1, "need at least one row");
  QFS_ASSERT_MSG(cols >= 3 && cols % 4 == 1,
                 "heavy-hex needs cols >= 3 with cols % 4 == 1");
  // Row qubits first (row-major), then bridge qubits appended.
  graph::Graph g(rows * cols);
  auto row_qubit = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c + 1 < cols; ++c) {
      g.add_edge(row_qubit(r, c), row_qubit(r, c + 1));
    }
  }
  int next = rows * cols;
  for (int r = 0; r + 1 < rows; ++r) {
    int phase = (r % 2 == 0) ? 0 : 2;
    for (int c = phase; c < cols; c += 4) {
      g.ensure_nodes(next + 1);
      g.add_edge(row_qubit(r, c), next);
      g.add_edge(next, row_qubit(r + 1, c));
      ++next;
    }
  }
  std::ostringstream name;
  name << "heavy-hex-" << g.num_nodes();
  return Topology(name.str(), std::move(g));
}

Topology heavy_hex27() {
  graph::Graph g(27);
  const int edges[][2] = {
      {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},   {5, 8},
      {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12}, {11, 14}, {12, 13},
      {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19}, {17, 18}, {18, 21},
      {19, 20}, {19, 22}, {21, 23}, {22, 25}, {23, 24}, {24, 25}, {25, 26}};
  for (const auto& e : edges) g.add_edge(e[0], e[1]);
  return Topology("heavy-hex-27", std::move(g));
}

}  // namespace qfs::device
