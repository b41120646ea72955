// Scenario: interaction-graph profiling and algorithm clustering (the
// paper's Sec. IV workflow). With the argument `-` it profiles the
// OpenQASM text on stdin; otherwise it profiles a built-in mix of
// algorithms and never reads stdin.
//
//   $ ./profile_and_cluster              # built-in demo suite
//   $ ./profile_and_cluster - < my.qasm  # profile your own circuit
#include <iostream>
#include <sstream>
#include <string_view>

#include "profile/circuit_profile.h"
#include "profile/clustering.h"
#include "qasm/parser.h"
#include "report/table.h"
#include "support/strings.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"

using namespace qfs;

namespace {

void print_profile(const profile::CircuitProfile& p) {
  report::TextTable t({"metric", "value"});
  t.add_row({"qubits (active)", std::to_string(p.num_qubits)});
  t.add_row({"gates", std::to_string(p.gate_count)});
  t.add_row({"two-qubit gate %",
             format_double(100.0 * p.two_qubit_fraction, 1)});
  t.add_row({"depth", std::to_string(p.depth)});
  t.add_row({"interaction edges", std::to_string(p.ig_edges)});
  t.add_row({"avg shortest path", format_double(p.avg_shortest_path, 3)});
  t.add_row({"max / min degree", std::to_string(p.max_degree) + " / " +
                                     std::to_string(p.min_degree)});
  t.add_row({"adjacency std dev", format_double(p.adj_matrix_stddev, 3)});
  t.add_row({"density", format_double(p.density, 3)});
  t.add_row({"clustering coeff", format_double(p.clustering, 3)});
  std::cout << t.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  // QASM on stdin, asked for with `-`: profile that single circuit.
  if (argc > 1 && std::string_view(argv[1]) == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    std::string text = buffer.str();
    if (!qfs::trim(text).empty()) {
      auto parsed = qasm::parse(text);
      if (!parsed.is_ok()) {
        std::cerr << "parse error: " << parsed.status().to_string() << "\n";
        return 1;
      }
      std::cout << "Profile of the piped circuit:\n";
      print_profile(profile::profile_circuit(parsed.value()));
      return 0;
    }
  }

  // Built-in demo: profile a mix and cluster it.
  std::cout << "=== Profiling a mixed set of algorithms ===\n\n";
  qfs::Rng rng(11);
  std::vector<std::pair<std::string, circuit::Circuit>> circuits;
  for (int n : {8, 12, 16}) circuits.emplace_back("ghz", workloads::ghz(n));
  for (int n : {6, 8, 10}) circuits.emplace_back("qft", workloads::qft(n));
  for (int n : {8, 12}) {
    circuits.emplace_back("vqe", workloads::vqe_ansatz(n, 3, rng));
  }
  for (int i = 0; i < 5; ++i) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 10;
    spec.num_gates = 300;
    spec.two_qubit_fraction = 0.5;
    circuits.emplace_back("random", workloads::random_circuit(spec, rng));
  }

  std::vector<profile::CircuitProfile> profiles;
  for (auto& [label, c] : circuits) {
    profiles.push_back(profile::profile_circuit(c));
    profiles.back().name = label + "/" + c.name();
  }

  report::TextTable t({"circuit", "qubits", "gates", "2q%", "avg sp",
                       "max deg", "adj std"});
  for (const auto& p : profiles) {
    t.add_row({p.name, std::to_string(p.num_qubits),
               std::to_string(p.gate_count),
               format_double(100.0 * p.two_qubit_fraction, 0),
               format_double(p.avg_shortest_path, 2),
               std::to_string(p.max_degree),
               format_double(p.adj_matrix_stddev, 2)});
  }
  std::cout << t.to_string() << "\n";

  qfs::Rng krng(3);
  auto clusters = profile::cluster_profiles(profiles, 3, krng);
  std::cout << "k-means (k=3) on the Pearson-reduced metric space:\n";
  for (int c = 0; c < 3; ++c) {
    std::cout << "  cluster " << c << ": ";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      if (clusters.cluster_of_circuit[i] == c) {
        std::cout << profiles[i].name << "  ";
      }
    }
    std::cout << "\n";
  }
  std::cout << "\nStructurally similar algorithms (e.g. the GHZ family) land "
               "in the same cluster;\nrandom circuits separate from "
               "structured ones even at similar size parameters.\n";
  return 0;
}
