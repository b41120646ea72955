#include "device/calibration.h"

#include <cmath>
#include <set>
#include <sstream>

#include "graph/algorithms.h"
#include "support/strings.h"

namespace qfs::device {

namespace {

qfs::Status line_error(int line_no, const std::string& message) {
  std::ostringstream os;
  os << "calibration line " << line_no << ": " << message;
  return qfs::parse_error(os.str());
}

bool valid_fidelity(double f) {
  return std::isfinite(f) && 0.0 < f && f <= 1.0;
}

bool valid_duration(double d) { return std::isfinite(d) && d > 0.0; }

std::pair<int, int> ordered(int a, int b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

qfs::StatusOr<ErrorModel> parse_calibration(const std::string& text,
                                            int num_qubits) {
  double f1 = 0.999, f2 = 0.99, fm = 0.997;
  struct QubitRow {
    int id;
    double f;
  };
  struct EdgeRow {
    int a, b;
    double f;
  };
  std::vector<QubitRow> qubits;
  std::vector<EdgeRow> edges;
  std::set<int> seen_qubits;
  std::set<std::pair<int, int>> seen_edges;
  double dur1 = 20.0, dur2 = 40.0, durm = 600.0;
  double t1 = 0.0, t2 = 0.0;
  bool have_coherence = false;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::string_view trimmed = qfs::trim(line);
    if (trimmed.empty()) continue;
    auto fields = qfs::split(trimmed, ',');
    for (auto& f : fields) f = std::string(qfs::trim(f));
    const std::string& kind = fields[0];

    if (kind == "defaults") {
      if (fields.size() != 4) return line_error(line_no, "defaults needs 3 values");
      if (!qfs::parse_double(fields[1], f1) || !qfs::parse_double(fields[2], f2) ||
          !qfs::parse_double(fields[3], fm)) {
        return line_error(line_no, "bad number in defaults");
      }
      if (!valid_fidelity(f1) || !valid_fidelity(f2) || !valid_fidelity(fm)) {
        return line_error(line_no, "fidelities must be in (0, 1]");
      }
    } else if (kind == "qubit") {
      if (fields.size() != 3) return line_error(line_no, "qubit needs id and fidelity");
      QubitRow row{};
      if (!qfs::parse_int(fields[1], row.id) || row.id < 0) {
        return line_error(line_no, "bad qubit id");
      }
      if (num_qubits >= 0 && row.id >= num_qubits) {
        return line_error(line_no, "qubit id " + std::to_string(row.id) +
                                       " out of range (device has " +
                                       std::to_string(num_qubits) + " qubits)");
      }
      if (!seen_qubits.insert(row.id).second) {
        return line_error(line_no,
                          "duplicate qubit id " + std::to_string(row.id));
      }
      if (!qfs::parse_double(fields[2], row.f) || !valid_fidelity(row.f)) {
        return line_error(line_no, "bad qubit fidelity");
      }
      qubits.push_back(row);
    } else if (kind == "edge") {
      if (fields.size() != 4) return line_error(line_no, "edge needs a, b, fidelity");
      EdgeRow row{};
      if (!qfs::parse_int(fields[1], row.a) || !qfs::parse_int(fields[2], row.b) ||
          row.a < 0 || row.b < 0 || row.a == row.b) {
        return line_error(line_no, "bad edge endpoints");
      }
      if (num_qubits >= 0 && (row.a >= num_qubits || row.b >= num_qubits)) {
        return line_error(line_no, "edge endpoint out of range (device has " +
                                       std::to_string(num_qubits) + " qubits)");
      }
      if (!seen_edges.insert(ordered(row.a, row.b)).second) {
        return line_error(line_no, "duplicate edge " + std::to_string(row.a) +
                                       "," + std::to_string(row.b));
      }
      if (!qfs::parse_double(fields[3], row.f) || !valid_fidelity(row.f)) {
        return line_error(line_no, "bad edge fidelity");
      }
      edges.push_back(row);
    } else if (kind == "durations_ns") {
      if (fields.size() != 4) return line_error(line_no, "durations_ns needs 3 values");
      if (!qfs::parse_double(fields[1], dur1) ||
          !qfs::parse_double(fields[2], dur2) ||
          !qfs::parse_double(fields[3], durm) || !valid_duration(dur1) ||
          !valid_duration(dur2) || !valid_duration(durm)) {
        return line_error(line_no, "bad duration");
      }
    } else if (kind == "coherence_ns") {
      if (fields.size() != 3) return line_error(line_no, "coherence_ns needs 2 values");
      if (!qfs::parse_double(fields[1], t1) || !qfs::parse_double(fields[2], t2) ||
          !valid_duration(t1) || !valid_duration(t2)) {
        return line_error(line_no, "bad coherence time");
      }
      have_coherence = true;
    } else {
      return line_error(line_no, "unknown record type '" + kind + "'");
    }
  }

  ErrorModel model(f1, f2, fm);
  model.set_durations_ns(dur1, dur2, durm);
  if (have_coherence) model.set_coherence_times_ns(t1, t2);
  for (const auto& q : qubits) model.set_qubit_fidelity(q.id, q.f);
  for (const auto& e : edges) model.set_edge_fidelity(e.a, e.b, e.f);
  return model;
}

qfs::StatusOr<Topology> parse_topology(const std::string& text) {
  std::string name = "custom";
  int num_qubits = -1;
  std::vector<std::pair<int, int>> edges;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::string_view trimmed = qfs::trim(line);
    if (trimmed.empty()) continue;
    auto fields = qfs::split(trimmed, ',');
    for (auto& f : fields) f = std::string(qfs::trim(f));
    const std::string& kind = fields[0];
    if (kind == "name") {
      if (fields.size() != 2 || fields[1].empty()) {
        return line_error(line_no, "name needs one value");
      }
      name = fields[1];
    } else if (kind == "qubits") {
      if (fields.size() != 2 || !qfs::parse_int(fields[1], num_qubits) ||
          num_qubits < 1) {
        return line_error(line_no, "bad qubit count");
      }
    } else if (kind == "edge") {
      int a = 0, b = 0;
      if (fields.size() != 3 || !qfs::parse_int(fields[1], a) ||
          !qfs::parse_int(fields[2], b) || a < 0 || b < 0 || a == b) {
        return line_error(line_no, "bad edge");
      }
      if (num_qubits >= 1 && (a >= num_qubits || b >= num_qubits)) {
        return line_error(line_no, "edge endpoint out of range (topology has " +
                                       std::to_string(num_qubits) + " qubits)");
      }
      if (num_qubits < 1) {
        return line_error(line_no, "edge before the qubits record");
      }
      edges.emplace_back(a, b);
    } else {
      return line_error(line_no, "unknown record type '" + kind + "'");
    }
  }
  if (num_qubits < 1) return qfs::parse_error("topology has no qubits record");
  graph::Graph g(num_qubits);
  for (const auto& [a, b] : edges) {
    if (!g.has_edge(a, b)) g.add_edge(a, b);
  }
  if (num_qubits > 1 && !graph::is_connected(g)) {
    return qfs::parse_error("topology is disconnected");
  }
  return Topology(name, std::move(g));
}

}  // namespace qfs::device
