#include "qasm/parser.h"

#include <cctype>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "support/strings.h"

namespace qfs::qasm {

using circuit::Circuit;
using circuit::GateKind;

namespace {

// ---- Angle expression evaluation (recursive descent) -----------------------

/// Optional binding environment: formal parameter name -> value.
using ParamEnv = std::map<std::string, double>;

class ExprParser {
 public:
  ExprParser(std::string_view text, const ParamEnv* env)
      : text_(text), env_(env) {}

  qfs::StatusOr<double> parse() {
    auto v = parse_sum();
    if (!v.is_ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return qfs::parse_error("trailing characters in expression: " +
                              std::string(text_));
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  qfs::StatusOr<double> parse_sum() {
    auto lhs = parse_product();
    if (!lhs.is_ok()) return lhs;
    double acc = lhs.value();
    while (true) {
      if (consume('+')) {
        auto rhs = parse_product();
        if (!rhs.is_ok()) return rhs;
        acc += rhs.value();
      } else if (consume('-')) {
        auto rhs = parse_product();
        if (!rhs.is_ok()) return rhs;
        acc -= rhs.value();
      } else {
        return acc;
      }
    }
  }

  qfs::StatusOr<double> parse_product() {
    auto lhs = parse_unary();
    if (!lhs.is_ok()) return lhs;
    double acc = lhs.value();
    while (true) {
      if (consume('*')) {
        auto rhs = parse_unary();
        if (!rhs.is_ok()) return rhs;
        acc *= rhs.value();
      } else if (consume('/')) {
        auto rhs = parse_unary();
        if (!rhs.is_ok()) return rhs;
        if (rhs.value() == 0.0) return qfs::parse_error("division by zero");
        acc /= rhs.value();
      } else {
        return acc;
      }
    }
  }

  qfs::StatusOr<double> parse_unary() {
    if (consume('-')) {
      auto v = parse_unary();
      if (!v.is_ok()) return v;
      return -v.value();
    }
    if (consume('+')) return parse_unary();
    return parse_atom();
  }

  qfs::StatusOr<double> parse_atom() {
    skip_ws();
    if (consume('(')) {
      auto v = parse_sum();
      if (!v.is_ok()) return v;
      if (!consume(')')) return qfs::parse_error("missing ')'");
      return v;
    }
    // Identifier: "pi" or a bound formal parameter.
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      std::string name(text_.substr(start, pos_ - start));
      if (name == "pi") return M_PI;
      if (env_ != nullptr) {
        auto it = env_->find(name);
        if (it != env_->end()) return it->second;
      }
      return qfs::parse_error("unknown identifier '" + name +
                              "' in expression");
    }
    // Decimal literal.
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) {
      return qfs::parse_error("expected number, 'pi' or parameter in: " +
                              std::string(text_));
    }
    double value = 0.0;
    if (!qfs::parse_double(text_.substr(start, pos_ - start), value)) {
      return qfs::parse_error("bad numeric literal in expression: " +
                              std::string(text_.substr(start, pos_ - start)));
    }
    return value;
  }

  std::string_view text_;
  const ParamEnv* env_;
  std::size_t pos_ = 0;
};

// ---- Statement parsing ------------------------------------------------------

const std::map<std::string, GateKind>& gate_table() {
  static const std::map<std::string, GateKind> table = {
      {"id", GateKind::kI},       {"x", GateKind::kX},
      {"y", GateKind::kY},        {"z", GateKind::kZ},
      {"h", GateKind::kH},        {"s", GateKind::kS},
      {"sdg", GateKind::kSdg},    {"t", GateKind::kT},
      {"tdg", GateKind::kTdg},    {"sx", GateKind::kSx},
      {"sxdg", GateKind::kSxdg},  {"rx", GateKind::kRx},
      {"ry", GateKind::kRy},      {"rz", GateKind::kRz},
      {"p", GateKind::kPhase},    {"u1", GateKind::kPhase},
      {"u3", GateKind::kU3},      {"u", GateKind::kU3},
      {"cx", GateKind::kCx},      {"cy", GateKind::kCy},
      {"cz", GateKind::kCz},      {"cp", GateKind::kCphase},
      {"cu1", GateKind::kCphase}, {"swap", GateKind::kSwap},
      {"ccx", GateKind::kCcx},    {"ccz", GateKind::kCcz},
      {"cswap", GateKind::kCswap},
  };
  return table;
}

// ---- QASMBench macro gates --------------------------------------------------
//
// Gates that appear in QASMBench-style circuits but have no dedicated
// GateKind. Each expands inline to its standard qelib1 network, so the rest
// of the stack (profiling, mapping, simulation) only ever sees core kinds.

struct MacroSignature {
  int params;
  int qubits;
};

const std::map<std::string, MacroSignature>& macro_table() {
  static const std::map<std::string, MacroSignature> table = {
      {"u2", {2, 1}},  {"rzz", {1, 2}}, {"rxx", {1, 2}},
      {"crz", {1, 2}}, {"cu3", {3, 2}}, {"ch", {0, 2}},
  };
  return table;
}

/// A user-defined gate (OPENQASM `gate` block).
struct GateDef {
  std::string name;
  std::vector<std::string> param_names;
  std::vector<std::string> qubit_names;
  std::vector<std::string> body;  ///< statements without trailing ';'
};

/// One declared quantum register: qubits [offset, offset + size) of the
/// flat circuit index space. Registers concatenate in declaration order.
struct QuantumReg {
  std::string name;
  int offset = 0;
  int size = 0;
};

struct ParserState {
  std::vector<QuantumReg> qregs;
  int total_qubits = 0;
  std::vector<std::string> creg_names;
  int total_clbits = 0;
  std::map<std::string, GateDef> gate_defs;
  std::vector<circuit::Gate> gates;

  const QuantumReg* find_qreg(std::string_view name) const {
    for (const auto& r : qregs) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }
};

/// Expand one instance of a QASMBench macro gate (see macro_table) into the
/// standard qelib1 network over core GateKinds.
void emit_macro(const std::string& name, const circuit::Params& p,
                const circuit::Qubits& q, ParserState& state) {
  auto add = [&state](GateKind kind, circuit::Qubits qubits,
                      circuit::Params params = {}) {
    state.gates.push_back(
        circuit::make_gate(kind, std::move(qubits), std::move(params)));
  };
  if (name == "u2") {
    // u2(phi, lambda) = u3(pi/2, phi, lambda).
    add(GateKind::kU3, {q[0]}, {M_PI / 2.0, p[0], p[1]});
  } else if (name == "rzz") {
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kRz, {q[1]}, {p[0]});
    add(GateKind::kCx, {q[0], q[1]});
  } else if (name == "rxx") {
    // Conjugate rzz by Hadamards on both qubits.
    add(GateKind::kH, {q[0]});
    add(GateKind::kH, {q[1]});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kRz, {q[1]}, {p[0]});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kH, {q[0]});
    add(GateKind::kH, {q[1]});
  } else if (name == "crz") {
    add(GateKind::kRz, {q[1]}, {p[0] / 2.0});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kRz, {q[1]}, {-p[0] / 2.0});
    add(GateKind::kCx, {q[0], q[1]});
  } else if (name == "cu3") {
    // cu3(theta, phi, lambda) c, t — qelib1's controlled-U decomposition.
    const double theta = p[0], phi = p[1], lambda = p[2];
    add(GateKind::kPhase, {q[0]}, {(lambda + phi) / 2.0});
    add(GateKind::kPhase, {q[1]}, {(lambda - phi) / 2.0});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kU3, {q[1]}, {-theta / 2.0, 0.0, -(phi + lambda) / 2.0});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kU3, {q[1]}, {theta / 2.0, phi, 0.0});
  } else if (name == "ch") {
    // qelib1: gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b;
    //                       t b; h b; s b; x b; s a; }
    add(GateKind::kH, {q[1]});
    add(GateKind::kSdg, {q[1]});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kH, {q[1]});
    add(GateKind::kT, {q[1]});
    add(GateKind::kCx, {q[0], q[1]});
    add(GateKind::kT, {q[1]});
    add(GateKind::kH, {q[1]});
    add(GateKind::kS, {q[1]});
    add(GateKind::kX, {q[1]});
    add(GateKind::kS, {q[0]});
  } else {
    QFS_ASSERT_MSG(false, "emit_macro: unknown macro '" + name + "'");
  }
}

/// Qubit binding environment inside a gate-definition body: formal qubit
/// name -> concrete physical index.
using QubitEnv = std::map<std::string, int>;

qfs::Status error_at(int line_no, const std::string& message) {
  std::ostringstream os;
  os << "line " << line_no << ": " << message;
  return qfs::parse_error(os.str());
}

/// Parse an operand token into one or more qubit indices.
/// Outside a body: "q[3]" (one qubit) or bare "q" (broadcast over the
/// register). Inside a body (env != nullptr): a formal qubit name.
qfs::StatusOr<circuit::Qubits> parse_operand(std::string_view token,
                                             const ParserState& state,
                                             const QubitEnv* env,
                                             int line_no) {
  token = trim(token);
  if (env != nullptr) {
    auto it = env->find(std::string(token));
    if (it == env->end()) {
      return error_at(line_no, "unknown qubit '" + std::string(token) +
                                   "' in gate body");
    }
    return circuit::Qubits{it->second};
  }
  auto open = token.find('[');
  if (open == std::string_view::npos) {
    // Broadcast: the whole register.
    std::string name(trim(token));
    const QuantumReg* reg = state.find_qreg(name);
    if (reg == nullptr) {
      return error_at(line_no, "unknown quantum register '" + name + "'");
    }
    circuit::Qubits all;
    for (int q = 0; q < reg->size; ++q) all.push_back(reg->offset + q);
    return all;
  }
  auto close = token.find(']');
  if (close == std::string_view::npos || close < open) {
    return error_at(line_no, "malformed operand '" + std::string(token) + "'");
  }
  std::string name(trim(token.substr(0, open)));
  const QuantumReg* reg = state.find_qreg(name);
  if (reg == nullptr) {
    return error_at(line_no, "unknown quantum register '" + name + "'");
  }
  int index = 0;
  if (!qfs::parse_int(token.substr(open + 1, close - open - 1), index)) {
    return error_at(line_no, "bad qubit index in '" + std::string(token) + "'");
  }
  if (index < 0 || index >= reg->size) {
    return error_at(line_no, "qubit index out of range");
  }
  return circuit::Qubits{reg->offset + index};
}

/// Parse a comma-separated operand list. Each element is a list to allow
/// register broadcast; broadcast elements must agree in length.
qfs::StatusOr<std::vector<circuit::Qubits>> parse_operand_list(
    std::string_view text, const ParserState& state, const QubitEnv* env,
    int line_no) {
  std::vector<circuit::Qubits> operands;
  for (const std::string& tok : qfs::split(text, ',')) {
    auto q = parse_operand(trim(tok), state, env, line_no);
    if (!q.is_ok()) return q.status();
    operands.push_back(std::move(q).value());
  }
  return operands;
}

/// Broadcast width of an operand list: all multi-element operands must
/// share one length; single-element operands repeat.
qfs::StatusOr<int> broadcast_width(const std::vector<circuit::Qubits>& ops,
                                   int line_no) {
  int width = 1;
  for (const auto& op : ops) {
    if (static_cast<int>(op.size()) == 1) continue;
    if (width == 1) {
      width = static_cast<int>(op.size());
    } else if (width != static_cast<int>(op.size())) {
      return error_at(line_no, "mismatched register broadcast widths");
    }
  }
  return width;
}

/// Operand `i` of a broadcast: single-element operands repeat.
circuit::Qubits broadcast_operands(const std::vector<circuit::Qubits>& ops,
                                   int i) {
  circuit::Qubits qubits;
  for (const auto& op : ops) {
    qubits.push_back(op.size() == 1 ? op[0] : op[static_cast<std::size_t>(i)]);
  }
  return qubits;
}

qfs::Status emit_broadcast(GateKind kind,
                           const std::vector<circuit::Qubits>& ops,
                           const circuit::Params& params, ParserState& state,
                           int line_no) {
  auto width = broadcast_width(ops, line_no);
  if (!width.is_ok()) return width.status();
  for (int i = 0; i < width.value(); ++i) {
    circuit::Qubits qubits = broadcast_operands(ops, i);
    if (!circuit::operands_distinct(qubits)) {
      return error_at(line_no, "repeated qubit operand");
    }
    if (static_cast<int>(qubits.size()) != circuit::gate_arity(kind)) {
      return error_at(line_no, std::string("wrong operand count for ") +
                                   circuit::gate_name(kind));
    }
    state.gates.push_back(circuit::make_gate(kind, std::move(qubits), params));
  }
  return qfs::Status::ok();
}

constexpr int kMaxGateExpansionDepth = 32;

qfs::Status parse_statement(std::string_view stmt, ParserState& state,
                            int line_no, const ParamEnv* param_env,
                            const QubitEnv* qubit_env, int depth);

/// Expand one invocation of a user-defined gate.
qfs::Status expand_custom_gate(const GateDef& def,
                               const circuit::Params& params,
                               const circuit::Qubits& qubits,
                               ParserState& state, int line_no, int depth) {
  if (depth > kMaxGateExpansionDepth) {
    return error_at(line_no, "gate expansion too deep (recursive definition?)");
  }
  QFS_ASSERT(params.size() == def.param_names.size());
  QFS_ASSERT(qubits.size() == def.qubit_names.size());
  ParamEnv env;
  for (std::size_t i = 0; i < params.size(); ++i) {
    env[def.param_names[i]] = params[i];
  }
  QubitEnv qenv;
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    qenv[def.qubit_names[i]] = qubits[static_cast<std::size_t>(i)];
  }
  for (const std::string& body_stmt : def.body) {
    auto status =
        parse_statement(body_stmt, state, line_no, &env, &qenv, depth + 1);
    if (!status.is_ok()) return status;
  }
  return qfs::Status::ok();
}

qfs::Status parse_statement(std::string_view stmt, ParserState& state,
                            int line_no, const ParamEnv* param_env,
                            const QubitEnv* qubit_env, int depth) {
  stmt = trim(stmt);
  if (stmt.empty()) return qfs::Status::ok();
  const bool in_body = qubit_env != nullptr;

  if (!in_body &&
      (starts_with(stmt, "OPENQASM") || starts_with(stmt, "include"))) {
    return qfs::Status::ok();
  }

  if (!in_body && (starts_with(stmt, "qreg") || starts_with(stmt, "creg"))) {
    bool quantum = starts_with(stmt, "qreg");
    auto rest = trim(stmt.substr(4));
    auto open = rest.find('[');
    auto close = rest.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos) {
      return error_at(line_no, "malformed register declaration");
    }
    std::string name(trim(rest.substr(0, open)));
    int size = 0;
    if (!qfs::parse_int(rest.substr(open + 1, close - open - 1), size) ||
        size <= 0) {
      return error_at(line_no, "bad register size");
    }
    if (quantum) {
      if (state.find_qreg(name) != nullptr) {
        return error_at(line_no, "duplicate quantum register '" + name + "'");
      }
      state.qregs.push_back({name, state.total_qubits, size});
      state.total_qubits += size;
    } else {
      for (const auto& existing : state.creg_names) {
        if (existing == name) {
          return error_at(line_no,
                          "duplicate classical register '" + name + "'");
        }
      }
      state.creg_names.push_back(name);
      state.total_clbits += size;
    }
    return qfs::Status::ok();
  }

  if (state.qregs.empty()) {
    return error_at(line_no, "gate statement before qreg declaration");
  }

  if (!in_body && starts_with(stmt, "measure")) {
    auto arrow = stmt.find("->");
    if (arrow == std::string_view::npos) {
      return error_at(line_no, "measure without '->'");
    }
    auto q = parse_operand(trim(stmt.substr(7, arrow - 7)), state, nullptr,
                           line_no);
    if (!q.is_ok()) return q.status();
    for (int qubit : q.value()) {
      state.gates.push_back(circuit::make_gate(GateKind::kMeasure, {qubit}));
    }
    return qfs::Status::ok();
  }

  if (!in_body && starts_with(stmt, "reset")) {
    auto q = parse_operand(trim(stmt.substr(5)), state, nullptr, line_no);
    if (!q.is_ok()) return q.status();
    for (int qubit : q.value()) {
      state.gates.push_back(circuit::make_gate(GateKind::kReset, {qubit}));
    }
    return qfs::Status::ok();
  }

  if (starts_with(stmt, "barrier")) {
    auto ops = parse_operand_list(trim(stmt.substr(7)), state, qubit_env,
                                  line_no);
    if (!ops.is_ok()) return ops.status();
    circuit::Qubits qubits;
    for (const auto& op : ops.value()) {
      for (int q : op) qubits.push_back(q);
    }
    state.gates.push_back(
        circuit::make_gate(GateKind::kBarrier, std::move(qubits)));
    return qfs::Status::ok();
  }

  // Generic gate: name[(params)] operands
  std::size_t name_end = 0;
  while (name_end < stmt.size() &&
         (std::isalnum(static_cast<unsigned char>(stmt[name_end])) ||
          stmt[name_end] == '_')) {
    ++name_end;
  }
  std::string name = to_lower(stmt.substr(0, name_end));

  std::string_view rest = trim(stmt.substr(name_end));
  circuit::Params params;
  if (!rest.empty() && rest.front() == '(') {
    auto close = rest.find(')');
    if (close == std::string_view::npos) {
      return error_at(line_no, "missing ')' in gate parameters");
    }
    for (const std::string& p : qfs::split(rest.substr(1, close - 1), ',')) {
      auto v = ExprParser(trim(p), param_env).parse();
      if (!v.is_ok()) return error_at(line_no, v.status().message());
      params.push_back(v.value());
    }
    rest = trim(rest.substr(close + 1));
  }

  auto ops = parse_operand_list(rest, state, qubit_env, line_no);
  if (!ops.is_ok()) return ops.status();

  auto builtin = gate_table().find(name);
  if (builtin != gate_table().end()) {
    GateKind kind = builtin->second;
    if (static_cast<int>(params.size()) != circuit::gate_param_count(kind)) {
      return error_at(line_no, "wrong parameter count for gate '" + name + "'");
    }
    return emit_broadcast(kind, ops.value(), params, state, line_no);
  }

  auto macro = macro_table().find(name);
  if (macro != macro_table().end()) {
    if (static_cast<int>(params.size()) != macro->second.params) {
      return error_at(line_no, "wrong parameter count for gate '" + name + "'");
    }
    if (static_cast<int>(ops.value().size()) != macro->second.qubits) {
      return error_at(line_no, "wrong operand count for gate '" + name + "'");
    }
    auto width = broadcast_width(ops.value(), line_no);
    if (!width.is_ok()) return width.status();
    for (int i = 0; i < width.value(); ++i) {
      const circuit::Qubits qubits = broadcast_operands(ops.value(), i);
      if (!circuit::operands_distinct(qubits)) {
        return error_at(line_no, "repeated qubit operand");
      }
      emit_macro(name, params, qubits, state);
    }
    return qfs::Status::ok();
  }

  auto custom = state.gate_defs.find(name);
  if (custom == state.gate_defs.end()) {
    return error_at(line_no, "unsupported statement or gate '" + name + "'");
  }
  const GateDef& def = custom->second;
  if (params.size() != def.param_names.size()) {
    return error_at(line_no, "wrong parameter count for gate '" + name + "'");
  }
  if (ops.value().size() != def.qubit_names.size()) {
    return error_at(line_no, "wrong operand count for gate '" + name + "'");
  }
  auto width = broadcast_width(ops.value(), line_no);
  if (!width.is_ok()) return width.status();
  for (int i = 0; i < width.value(); ++i) {
    auto status = expand_custom_gate(
        def, params, broadcast_operands(ops.value(), i), state, line_no, depth);
    if (!status.is_ok()) return status;
  }
  return qfs::Status::ok();
}

/// Parse a full "gate NAME(params) qubits { body }" definition.
qfs::Status parse_gate_definition(std::string_view text, ParserState& state,
                                  int line_no) {
  // Strip the leading "gate".
  auto rest = trim(text.substr(4));
  auto brace = rest.find('{');
  if (brace == std::string_view::npos) {
    return error_at(line_no, "gate definition without '{'");
  }
  auto header = trim(rest.substr(0, brace));
  auto body_text = rest.substr(brace + 1);
  auto close = body_text.rfind('}');
  if (close == std::string_view::npos) {
    return error_at(line_no, "gate definition without '}'");
  }
  body_text = body_text.substr(0, close);

  GateDef def;
  // Header: NAME [(p1, p2)] q1, q2.
  std::size_t name_end = 0;
  while (name_end < header.size() &&
         (std::isalnum(static_cast<unsigned char>(header[name_end])) ||
          header[name_end] == '_')) {
    ++name_end;
  }
  def.name = to_lower(header.substr(0, name_end));
  if (def.name.empty()) return error_at(line_no, "gate definition needs a name");
  if (gate_table().count(def.name) || macro_table().count(def.name) ||
      state.gate_defs.count(def.name)) {
    return error_at(line_no, "gate '" + def.name + "' is already defined");
  }
  auto header_rest = trim(header.substr(name_end));
  if (!header_rest.empty() && header_rest.front() == '(') {
    auto pclose = header_rest.find(')');
    if (pclose == std::string_view::npos) {
      return error_at(line_no, "missing ')' in gate definition parameters");
    }
    for (const std::string& p :
         qfs::split(header_rest.substr(1, pclose - 1), ',')) {
      std::string pname(trim(p));
      if (pname.empty()) return error_at(line_no, "empty parameter name");
      def.param_names.push_back(pname);
    }
    header_rest = trim(header_rest.substr(pclose + 1));
  }
  for (const std::string& q : qfs::split(header_rest, ',')) {
    std::string qname(trim(q));
    if (qname.empty()) return error_at(line_no, "empty qubit name in gate def");
    def.qubit_names.push_back(qname);
  }
  if (def.qubit_names.empty()) {
    return error_at(line_no, "gate definition needs at least one qubit");
  }

  for (const std::string& s : qfs::split(body_text, ';')) {
    std::string body_stmt(trim(s));
    if (!body_stmt.empty()) def.body.push_back(body_stmt);
  }
  state.gate_defs[def.name] = std::move(def);
  return qfs::Status::ok();
}

}  // namespace

qfs::StatusOr<double> evaluate_angle_expression(const std::string& expr) {
  return ExprParser(expr, nullptr).parse();
}

qfs::StatusOr<Circuit> parse(const std::string& source) {
  ParserState state;
  int line_no = 0;
  std::istringstream in(source);
  std::string line;
  std::string pending;  // statements may span lines until ';' (or '}' for
                        // gate definitions)
  auto flush = [&state, &pending, &line_no]() -> qfs::Status {
    while (true) {
      std::string_view trimmed = trim(pending);
      if (trimmed.empty()) {
        pending.clear();
        return qfs::Status::ok();
      }
      if (starts_with(trimmed, "gate ") || trimmed == "gate") {
        auto brace_close = pending.find('}');
        if (brace_close == std::string::npos) return qfs::Status::ok();
        auto status = parse_gate_definition(
            trim(pending.substr(0, brace_close + 1)), state, line_no);
        if (!status.is_ok()) return status;
        pending = pending.substr(brace_close + 1);
        continue;
      }
      auto semi = pending.find(';');
      if (semi == std::string::npos) return qfs::Status::ok();
      auto status = parse_statement(pending.substr(0, semi), state, line_no,
                                    nullptr, nullptr, 0);
      if (!status.is_ok()) return status;
      pending = pending.substr(semi + 1);
    }
  };

  std::string circuit_name;
  while (std::getline(in, line)) {
    ++line_no;
    auto comment = line.find("//");
    if (comment != std::string::npos) {
      // The writer records the circuit name as "// circuit: <name>";
      // recover it so print->parse->print is a fixed point (first wins).
      std::string_view text = trim(std::string_view(line).substr(comment + 2));
      if (starts_with(text, "circuit:") && circuit_name.empty()) {
        circuit_name = std::string(trim(text.substr(8)));
      }
      line = line.substr(0, comment);
    }
    pending += line;
    pending += '\n';
    auto status = flush();
    if (!status.is_ok()) return status;
  }
  if (!trim(pending).empty()) {
    return error_at(line_no, "unterminated statement at end of input");
  }
  if (state.qregs.empty()) {
    return qfs::parse_error("no qreg declaration found");
  }
  Circuit circuit(state.total_qubits, std::move(circuit_name));
  circuit.reserve(state.gates.size());
  for (auto& g : state.gates) circuit.add(std::move(g));
  return circuit;
}

}  // namespace qfs::qasm
