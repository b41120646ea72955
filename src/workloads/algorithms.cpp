#include "workloads/algorithms.h"

#include <cmath>
#include <sstream>

namespace qfs::workloads {

using circuit::Circuit;

Circuit ghz(int n) {
  QFS_ASSERT_MSG(n >= 1, "ghz needs >= 1 qubit");
  std::ostringstream name;
  name << "ghz_q" << n;
  Circuit c(n, name.str());
  c.h(0);
  for (int i = 0; i + 1 < n; ++i) c.cx(i, i + 1);
  return c;
}

Circuit qft(int n, bool with_final_swaps) {
  QFS_ASSERT_MSG(n >= 1, "qft needs >= 1 qubit");
  std::ostringstream name;
  name << "qft_q" << n;
  Circuit c(n, name.str());
  for (int i = 0; i < n; ++i) {
    c.h(i);
    for (int j = i + 1; j < n; ++j) {
      c.cp(M_PI / std::pow(2.0, j - i), j, i);
    }
  }
  if (with_final_swaps) {
    for (int i = 0; i < n / 2; ++i) c.swap(i, n - 1 - i);
  }
  return c;
}

Circuit bernstein_vazirani(int n, std::uint64_t secret) {
  QFS_ASSERT_MSG(1 <= n && n <= 63, "secret width out of range");
  std::ostringstream name;
  name << "bv_q" << n + 1;
  Circuit c(n + 1, name.str());
  int ancilla = n;
  c.x(ancilla);
  c.h(ancilla);
  for (int i = 0; i < n; ++i) c.h(i);
  for (int i = 0; i < n; ++i) {
    if ((secret >> i) & 1) c.cx(i, ancilla);
  }
  for (int i = 0; i < n; ++i) c.h(i);
  for (int i = 0; i < n; ++i) c.measure(i);
  return c;
}

namespace {

/// Multi-controlled Z over controls[0..k-1] and target, using a clean CCX
/// ladder over `ancillas` (size >= k-1 for k >= 2). Ancillas are returned
/// to |0> by the mirrored ladder.
void apply_mcz(Circuit& c, const std::vector<int>& controls, int target,
               const std::vector<int>& ancillas) {
  const int k = static_cast<int>(controls.size());
  if (k == 0) {
    c.z(target);
    return;
  }
  if (k == 1) {
    c.cz(controls[0], target);
    return;
  }
  if (k == 2) {
    c.ccz(controls[0], controls[1], target);
    return;
  }
  QFS_ASSERT_MSG(static_cast<int>(ancillas.size()) >= k - 1,
                 "not enough ancillas for multi-controlled Z");
  // AND-accumulate controls into ancillas.
  c.ccx(controls[0], controls[1], ancillas[0]);
  for (int i = 2; i < k; ++i) {
    c.ccx(controls[static_cast<std::size_t>(i)],
          ancillas[static_cast<std::size_t>(i - 2)],
          ancillas[static_cast<std::size_t>(i - 1)]);
  }
  c.cz(ancillas[static_cast<std::size_t>(k - 2)], target);
  // Uncompute.
  for (int i = k - 1; i >= 2; --i) {
    c.ccx(controls[static_cast<std::size_t>(i)],
          ancillas[static_cast<std::size_t>(i - 2)],
          ancillas[static_cast<std::size_t>(i - 1)]);
  }
  c.ccx(controls[0], controls[1], ancillas[0]);
}

}  // namespace

Circuit grover(int n, std::uint64_t marked, int iterations) {
  QFS_ASSERT_MSG(2 <= n && n <= 20, "grover width out of range");
  QFS_ASSERT_MSG(marked < (std::uint64_t{1} << n), "marked item out of range");
  if (iterations <= 0) {
    iterations = std::max(
        1, static_cast<int>(std::floor(M_PI / 4.0 * std::sqrt(std::pow(2.0, n)))));
  }
  const int num_ancilla = std::max(0, n - 2);
  std::ostringstream name;
  name << "grover_q" << n + num_ancilla;
  Circuit c(n + num_ancilla, name.str());

  std::vector<int> data(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = i;
  std::vector<int> ancillas(static_cast<std::size_t>(num_ancilla));
  for (int i = 0; i < num_ancilla; ++i) ancillas[static_cast<std::size_t>(i)] = n + i;

  std::vector<int> controls(data.begin(), data.end() - 1);
  int target = data.back();

  for (int q : data) c.h(q);
  for (int round = 0; round < iterations; ++round) {
    // Oracle: phase-flip |marked>. Conjugate an MCZ with X on zero bits.
    for (int i = 0; i < n; ++i) {
      if (!((marked >> i) & 1)) c.x(i);
    }
    apply_mcz(c, controls, target, ancillas);
    for (int i = 0; i < n; ++i) {
      if (!((marked >> i) & 1)) c.x(i);
    }
    // Diffusion: H X (MCZ) X H.
    for (int q : data) c.h(q);
    for (int q : data) c.x(q);
    apply_mcz(c, controls, target, ancillas);
    for (int q : data) c.x(q);
    for (int q : data) c.h(q);
  }
  for (int q : data) c.measure(q);
  return c;
}

Circuit cuccaro_adder(int n) {
  QFS_ASSERT_MSG(n >= 1, "adder needs >= 1 bit");
  // Layout: 0 = carry-in c0, then pairs (a_i, b_i), last = carry-out z.
  std::ostringstream name;
  name << "adder_q" << 2 * n + 2;
  Circuit c(2 * n + 2, name.str());
  auto a = [](int i) { return 1 + 2 * i; };
  auto b = [](int i) { return 2 + 2 * i; };
  const int carry_in = 0;
  const int carry_out = 2 * n + 1;

  auto maj = [&c](int x, int y, int z) {
    c.cx(z, y);
    c.cx(z, x);
    c.ccx(x, y, z);
  };
  auto uma = [&c](int x, int y, int z) {
    c.ccx(x, y, z);
    c.cx(z, x);
    c.cx(x, y);
  };

  maj(carry_in, b(0), a(0));
  for (int i = 1; i < n; ++i) maj(a(i - 1), b(i), a(i));
  c.cx(a(n - 1), carry_out);
  for (int i = n - 1; i >= 1; --i) uma(a(i - 1), b(i), a(i));
  uma(carry_in, b(0), a(0));
  return c;
}

Circuit qaoa_maxcut(const graph::Graph& problem, int layers, qfs::Rng& rng) {
  QFS_ASSERT_MSG(problem.num_nodes() >= 2, "qaoa needs >= 2 qubits");
  QFS_ASSERT_MSG(layers >= 1, "qaoa needs >= 1 layer");
  std::ostringstream name;
  name << "qaoa_q" << problem.num_nodes() << "_p" << layers;
  Circuit c(problem.num_nodes(), name.str());
  for (int q = 0; q < problem.num_nodes(); ++q) c.h(q);
  for (int layer = 0; layer < layers; ++layer) {
    double gamma = rng.uniform_real(0.0, M_PI);
    double beta = rng.uniform_real(0.0, M_PI / 2.0);
    for (const auto& e : problem.edges()) {
      // exp(-i gamma w Z_u Z_v) via CX - Rz - CX.
      c.cx(e.u, e.v);
      c.rz(2.0 * gamma * e.weight, e.v);
      c.cx(e.u, e.v);
    }
    for (int q = 0; q < problem.num_nodes(); ++q) c.rx(2.0 * beta, q);
  }
  for (int q = 0; q < problem.num_nodes(); ++q) c.measure(q);
  return c;
}

Circuit vqe_ansatz(int n, int layers, qfs::Rng& rng) {
  QFS_ASSERT_MSG(n >= 2, "ansatz needs >= 2 qubits");
  QFS_ASSERT_MSG(layers >= 1, "ansatz needs >= 1 layer");
  std::ostringstream name;
  name << "vqe_q" << n << "_l" << layers;
  Circuit c(n, name.str());
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) {
      c.ry(rng.uniform_real(-M_PI, M_PI), q);
      c.rz(rng.uniform_real(-M_PI, M_PI), q);
    }
    for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  }
  for (int q = 0; q < n; ++q) {
    c.ry(rng.uniform_real(-M_PI, M_PI), q);
    c.rz(rng.uniform_real(-M_PI, M_PI), q);
  }
  return c;
}

Circuit w_state(int n) {
  QFS_ASSERT_MSG(n >= 1, "w_state needs >= 1 qubit");
  std::ostringstream name;
  name << "wstate_q" << n;
  Circuit c(n, name.str());
  c.x(0);
  // Carrier walk: at step i the carrier sits on qubit i with amplitude
  // sqrt((n-i)/n); a controlled-Ry splits off 1/sqrt(n) to stay.
  for (int i = 0; i + 1 < n; ++i) {
    double theta = 2.0 * std::acos(1.0 / std::sqrt(static_cast<double>(n - i)));
    // cry(theta) control=i target=i+1, decomposed into ry/cx.
    c.ry(theta / 2.0, i + 1);
    c.cx(i, i + 1);
    c.ry(-theta / 2.0, i + 1);
    c.cx(i, i + 1);
    c.cx(i + 1, i);
  }
  return c;
}

Circuit phase_estimation(int counting_qubits, double phase) {
  QFS_ASSERT_MSG(1 <= counting_qubits && counting_qubits <= 20,
                 "counting register out of range");
  const int n = counting_qubits;
  std::ostringstream name;
  name << "qpe_q" << n + 1;
  Circuit c(n + 1, name.str());
  const int eigen = n;
  c.x(eigen);  // |1> is the P(lambda) eigenstate with eigenvalue e^{i lambda}
  for (int i = 0; i < n; ++i) c.h(i);
  // Counting qubit i controls U^{2^i}: phase kickback of 2*pi*phase*2^i.
  for (int i = 0; i < n; ++i) {
    double lambda = 2.0 * M_PI * phase * std::pow(2.0, i);
    c.cp(lambda, i, eigen);
  }
  // Inverse QFT on the counting register (qubit 0 = least significant).
  // qft() treats qubit 0 as the most significant, so relabel: counting
  // register reversed == qft convention; composing with its inverse gives
  // the textbook IQFT.
  Circuit iqft = qft(n, true).inverse();
  for (circuit::Gate g : iqft.gates()) {
    // Map qft qubit j -> counting qubit n-1-j (reverse significance).
    for (int& q : g.qubits) q = n - 1 - q;
    c.add(std::move(g));
  }
  for (int i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit deutsch_jozsa(int n, std::uint64_t balanced_mask) {
  QFS_ASSERT_MSG(1 <= n && n <= 63, "input width out of range");
  QFS_ASSERT_MSG(balanced_mask < (std::uint64_t{1} << n), "mask out of range");
  std::ostringstream name;
  name << "dj_q" << n + 1;
  Circuit c(n + 1, name.str());
  const int ancilla = n;
  c.x(ancilla);
  c.h(ancilla);
  for (int i = 0; i < n; ++i) c.h(i);
  if (balanced_mask == 0) {
    // Constant f = 0: the oracle is the identity.
  } else {
    for (int i = 0; i < n; ++i) {
      if ((balanced_mask >> i) & 1) c.cx(i, ancilla);
    }
  }
  for (int i = 0; i < n; ++i) c.h(i);
  for (int i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit ising_trotter(int n, int steps, double j_coupling, double h_field,
                      double dt) {
  QFS_ASSERT_MSG(n >= 2, "ising chain needs >= 2 qubits");
  QFS_ASSERT_MSG(steps >= 1, "need >= 1 trotter step");
  std::ostringstream name;
  name << "ising_q" << n << "_t" << steps;
  Circuit c(n, name.str());
  for (int s = 0; s < steps; ++s) {
    for (int i = 0; i + 1 < n; ++i) {
      // exp(-i J dt Z_i Z_{i+1})
      c.cx(i, i + 1);
      c.rz(2.0 * j_coupling * dt, i + 1);
      c.cx(i, i + 1);
    }
    for (int i = 0; i < n; ++i) {
      // exp(-i h dt X_i)
      c.rx(2.0 * h_field * dt, i);
    }
  }
  return c;
}

Circuit quantum_volume(int n, int depth, qfs::Rng& rng) {
  QFS_ASSERT_MSG(n >= 2, "quantum volume needs >= 2 qubits");
  QFS_ASSERT_MSG(depth >= 1, "need >= 1 layer");
  std::ostringstream name;
  name << "qv_q" << n << "_d" << depth;
  Circuit c(n, name.str());
  auto random_u3 = [&c, &rng](int q) {
    c.u3(rng.uniform_real(0, M_PI), rng.uniform_real(-M_PI, M_PI),
         rng.uniform_real(-M_PI, M_PI), q);
  };
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int layer = 0; layer < depth; ++layer) {
    rng.shuffle(perm);
    for (int p = 0; p + 1 < n; p += 2) {
      int a = perm[static_cast<std::size_t>(p)];
      int b = perm[static_cast<std::size_t>(p + 1)];
      // Random two-qubit block: a KAK-style u3/cx sandwich.
      random_u3(a);
      random_u3(b);
      c.cx(a, b);
      random_u3(a);
      random_u3(b);
      c.cx(b, a);
      random_u3(a);
      random_u3(b);
    }
  }
  return c;
}

double maxcut_value(const graph::Graph& problem, std::uint64_t assignment) {
  double cut = 0.0;
  for (const auto& e : problem.edges()) {
    bool side_u = (assignment >> e.u) & 1;
    bool side_v = (assignment >> e.v) & 1;
    if (side_u != side_v) cut += e.weight;
  }
  return cut;
}

double maxcut_optimum(const graph::Graph& problem) {
  const int n = problem.num_nodes();
  QFS_ASSERT_MSG(1 <= n && n <= 24, "exact MaxCut limited to 24 vertices");
  double best = 0.0;
  // Fix vertex 0's side (cuts are symmetric under global flip).
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  for (std::uint64_t a = 0; a < half; ++a) {
    best = std::max(best, maxcut_value(problem, a << 1));
  }
  return best;
}

Circuit repetition_code_cycle(int n_data, int rounds) {
  QFS_ASSERT_MSG(n_data >= 2, "repetition code needs >= 2 data qubits");
  QFS_ASSERT_MSG(rounds >= 1, "need >= 1 round");
  const int n_anc = n_data - 1;
  std::ostringstream name;
  name << "repcode_q" << n_data + n_anc << "_r" << rounds;
  Circuit c(n_data + n_anc, name.str());
  auto anc = [n_data](int i) { return n_data + i; };
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < n_anc; ++i) {
      c.cx(i, anc(i));
      c.cx(i + 1, anc(i));
    }
    for (int i = 0; i < n_anc; ++i) c.measure(anc(i));
    if (r + 1 < rounds) {
      for (int i = 0; i < n_anc; ++i) c.reset(anc(i));
    }
  }
  return c;
}

}  // namespace qfs::workloads
