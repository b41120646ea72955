#include "qasm/parser.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include "support/strings.h"

namespace qfs::qasm {

using circuit::Circuit;
using circuit::GateKind;
using K = GateKind;

namespace {

// The C locale's classes, without a locale lookup.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_word(char c) {
  return is_alpha(c) || is_digit(c) || c == '_';
}
constexpr char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// The identifier-like prefix of `s` ([A-Za-z0-9_]*).
std::string_view word(std::string_view s) {
  std::size_t n = 0;
  while (n < s.size() && is_word(s[n])) ++n;
  return s.substr(0, n);
}

std::string lowered(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

/// Calls `fn(field)` for each `delim`-separated field of `s`, empty fields
/// included, while `fn` returns true; true when it always did.
template <typename Fn>
bool for_each_field(std::string_view s, char delim, Fn&& fn) {
  while (true) {
    const std::size_t end = s.find(delim);
    if (!fn(s.substr(0, end))) return false;
    if (end == std::string_view::npos) return true;
    s.remove_prefix(end + 1);
  }
}

/// The concatenated `parts`.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string text;
  (text.append(std::string_view(parts)), ...);
  return text;
}

/// `name` lower-cased into an integer, first byte highest, so that keys
/// sort as names do; 0 for a name too long for the tables below.
constexpr std::uint64_t pack(std::string_view name) {
  if (name.empty() || name.size() > 8) return 0;
  std::uint64_t key = 0;
  for (char c : name) key = key << 8 | std::uint8_t(lower(c));
  return key << 8 * (8 - name.size());
}

struct BuiltinName {
  std::string_view name;
  GateKind kind;
  std::uint64_t key = pack(name);
};
constexpr BuiltinName kBuiltins[] = {
    {"ccx", K::kCcx}, {"ccz", K::kCcz}, {"cp", K::kCphase},
    {"cswap", K::kCswap}, {"cu1", K::kCphase}, {"cx", K::kCx}, {"cy", K::kCy},
    {"cz", K::kCz}, {"h", K::kH}, {"id", K::kI}, {"p", K::kPhase},
    {"rx", K::kRx}, {"ry", K::kRy}, {"rz", K::kRz}, {"s", K::kS},
    {"sdg", K::kSdg}, {"swap", K::kSwap}, {"sx", K::kSx}, {"sxdg", K::kSxdg},
    {"t", K::kT}, {"tdg", K::kTdg}, {"u", K::kU3}, {"u1", K::kPhase},
    {"u3", K::kU3}, {"x", K::kX}, {"y", K::kY}, {"z", K::kZ},
};

/// QASMBench gates with no GateKind of their own. Each expands inline to
/// its standard qelib1 network (Parser::emit_macro), so the rest of the
/// stack (profiling, mapping, simulation) only ever sees core kinds.
enum class Macro : std::uint8_t { kCh, kCrz, kCu3, kRxx, kRzz, kU2 };
struct MacroName {
  std::string_view name;
  Macro macro;
  int params;
  int qubits;
  std::uint64_t key = pack(name);
};
constexpr MacroName kMacros[] = {
    {"ch", Macro::kCh, 0, 2},   {"crz", Macro::kCrz, 1, 2},
    {"cu3", Macro::kCu3, 3, 2}, {"rxx", Macro::kRxx, 1, 2},
    {"rzz", Macro::kRzz, 1, 2}, {"u2", Macro::kU2, 2, 1},
};
static_assert(std::ranges::is_sorted(kBuiltins, {}, &BuiltinName::name));
static_assert(std::ranges::is_sorted(kMacros, {}, &MacroName::name));

/// The entry of sorted `table` named `name` in any case, or nullptr.
template <typename Entry, std::size_t N>
const Entry* find_name(const Entry (&table)[N], std::string_view name) {
  // A branch-free binary search: the last entry whose key is <= key.
  const std::uint64_t key = pack(name);
  const Entry* it = table;
  for (std::size_t n = N; n > 1; n -= n / 2) {
    it = it[n / 2].key <= key ? it + n / 2 : it;
  }
  return it->key == key ? it : nullptr;
}

/// A user-defined gate (OPENQASM `gate` block). Its body statements are
/// parsed at each invocation, against the definitions in force then.
struct GateDef {
  std::string name;  ///< lower-cased
  std::vector<std::string> param_names, qubit_names;
  std::vector<std::string> body;  ///< statements without trailing ';'
};

/// One expansion of a definition's body: its formals bound to the
/// invocation's parameter values and qubits.
struct Frame {
  const GateDef* def;
  const std::vector<double>* params;
  const std::vector<int>* qubits;
};

/// The value bound to formal `name`, or nullptr. A repeated formal name
/// binds its last argument.
template <typename T>
const T* bound(const std::vector<std::string>& names,
               const std::vector<T>& values, std::string_view name) {
  const auto it = std::find(names.rbegin(), names.rend(), name);
  return it == names.rend() ? nullptr : &values[names.rend() - it - 1];
}

/// Deepest parenthesis nesting an angle expression may use; each level is
/// one more frame of ExprParser's recursion.
constexpr int kMaxExpressionDepth = 64;

/// Recursive descent over + - * / ( ), literals, pi and bound parameters.
/// The first error sticks; what is evaluated after it is discarded.
class ExprParser {
 public:
  ExprParser(std::string_view text, const Frame* frame)
      : text_(text), frame_(frame) {}

  qfs::StatusOr<double> parse() {
    // A plain literal, the common case, needs no descent: same parse_double.
    double value = 0.0;
    const std::size_t lead = text_.starts_with('-');
    if (text_.size() > lead && (is_digit(text_[lead]) || text_[lead] == '.') &&
        qfs::parse_double(text_, value)) {
      return value;
    }
    value = chain("+-");
    skip_ws();
    if (pos_ < text_.size()) fail("trailing characters in expression: ", text_);
    if (!error_.empty()) return qfs::parse_error(error_);
    return value;
  }

 private:
  template <typename... Parts>
  double fail(const Parts&... parts) {
    if (error_.empty()) error_ = concat(parts...);
    return 0.0;
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c && ++pos_;
  }

  /// Operands joined by `ops`: a sum ("+-") of products ("*/") of unary
  /// terms.
  double chain(std::string_view ops) {
    const bool sum = ops == "+-";
    double acc = sum ? chain("*/") : unary();
    while (error_.empty()) {
      const bool first = consume(ops[0]);
      if (!first && !consume(ops[1])) break;
      const double rhs = sum ? chain("*/") : unary();
      if (!sum && !first && rhs == 0.0) return fail("division by zero");
      acc = sum ? (first ? acc + rhs : acc - rhs)
                : (first ? acc * rhs : acc / rhs);
    }
    return acc;
  }

  double unary() {
    // A loop, not a recursion per sign: any run of signs is safe.
    bool negate = false;
    for (;;) {
      if (consume('-')) {
        negate = !negate;
      } else if (!consume('+')) {
        break;
      }
    }
    const double v = atom();
    return negate ? -v : v;
  }

  double atom() {
    skip_ws();
    if (consume('(')) {
      if (++depth_ > kMaxExpressionDepth) {
        return fail("expression nests parentheses more than ",
                    std::to_string(kMaxExpressionDepth), " deep");
      }
      const double v = chain("+-");
      --depth_;
      return error_.empty() && !consume(')') ? fail("missing ')'") : v;
    }
    const std::string_view tail = text_.substr(pos_);
    // Identifier: "pi" or a bound formal parameter.
    if (!tail.empty() && (is_alpha(tail[0]) || tail[0] == '_')) {
      const std::string_view name = word(tail);
      pos_ += name.size();
      if (name == "pi") return M_PI;
      const double* value =
          frame_ ? bound(frame_->def->param_names, *frame_->params, name)
                 : nullptr;
      return value ? *value
                   : fail("unknown identifier '", name, "' in expression");
    }
    // Decimal literal.
    const auto exponent = [&](std::size_t i) {
      return tail[i] == 'e' || tail[i] == 'E';
    };
    std::size_t n = 0;
    while (n < tail.size() &&
           (is_digit(tail[n]) || tail[n] == '.' || exponent(n) ||
            ((tail[n] == '+' || tail[n] == '-') && n > 0 && exponent(n - 1)))) {
      ++n;
    }
    if (n == 0) return fail("expected number, 'pi' or parameter in: ", text_);
    pos_ += n;
    double value = 0.0;
    if (!qfs::parse_double(tail.substr(0, n), value)) {
      return fail("bad numeric literal in expression: ", tail.substr(0, n));
    }
    return value;
  }

  std::string_view text_;
  const Frame* frame_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< parentheses open around the current atom
  std::string error_;
};

// ---- The parser -------------------------------------------------------------

/// One declared register. Quantum registers concatenate in declaration
/// order into the circuit's qubits [offset, offset + size).
struct Register {
  std::string name;
  bool quantum = true;
  int offset = 0, size = 0;
};

/// An operand: one qubit (width 1) or a whole register for broadcast.
struct Operand {
  int first = 0, width = 1;
  int at(int i) const { return width == 1 ? first : first + i; }
};

constexpr int kMaxGateExpansionDepth = 32;

/// One pass over the source. A statement ends at ';', a definition that
/// starts "gate " at its first '}', a "//" comment at the end of its line;
/// a statement's line is the line of its terminator. Gates go straight
/// into the circuit through Circuit::add, which checks each one.
class Parser {
 public:
  explicit Parser(std::string_view source) : src_(source) {}

  qfs::StatusOr<Circuit> run() {
    while (scan('\0'), pos_ < src_.size()) {
      const std::size_t begin = pos_;
      const bool definition = src_.substr(begin, 5) == "gate ";
      const bool commented = scan(definition ? '}' : ';');
      if (pos_ == src_.size()) {
        fail(src_.back() == '\n' ? line_ - 1 : line_,
             "unterminated statement at end of input");
        return error_;
      }
      const std::size_t end = definition ? pos_ + 1 : pos_;  // keeps the '}'
      ++pos_;
      const std::string_view text =
          commented ? stripped(begin, end) : src_.substr(begin, end - begin);
      if (!(definition ? gate_definition(text, line_)
                       : statement(text, line_, nullptr, 0))) {
        return error_;
      }
    }
    if (total_qubits_ < 1) return qfs::parse_error("no qreg declaration found");
    circuit_.set_name(std::move(name_));
    return std::move(circuit_);
  }

 private:
  /// Per-depth scratch, reused so that parsing allocates per circuit, not
  /// per gate. A statement inside d nested expansions uses scratch_[d].
  struct Scratch {
    std::vector<Operand> ops;
    int width = 1;  ///< the broadcast width of ops; -1 when they disagree
    std::vector<double> params;
    std::vector<int> qubits;
  };

  /// Records the error "line N: <parts>"; false, to return.
  template <typename... Parts>
  bool fail(int line, const Parts&... parts) {
    error_ = qfs::parse_error(concat("line ", std::to_string(line), ": ",
                                     parts...));
    return false;
  }

  bool comment_at(std::size_t i) const {
    return src_[i] == '/' && i + 1 < src_.size() && src_[i + 1] == '/';
  }

  /// Moves pos_ to the next `stop` outside comments, or with stop '\0' to
  /// the next byte outside whitespace and comments, counting lines. True
  /// when it passed a comment.
  bool scan(char stop) {
    bool commented = false;
    int line = line_;
    std::size_t i = pos_;
    for (; i < src_.size(); ++i) {
      const char c = src_[i];
      if (stop != '\0' && c != stop && c != '\n' && c != '/') continue;
      if (c == '\n') {
        ++line;
      } else if (comment_at(i)) {
        const std::size_t end = std::min(src_.find('\n', i), src_.size());
        // The writer records the circuit name as "// circuit: <name>";
        // recover it so print->parse->print is a fixed point (first wins).
        const std::string_view text = trim(src_.substr(i + 2, end - i - 2));
        if (name_.empty() && starts_with(text, "circuit:")) {
          name_ = std::string(trim(text.substr(8)));
        }
        i = end - 1;  // the loop steps onto the comment's newline
        commented = true;
      } else if (stop != '\0' ? c == stop : !is_space(c)) {
        break;
      }
    }
    pos_ = i;
    line_ = line;
    return commented;
  }

  /// The source text of [begin, end) without its comments.
  std::string_view stripped(std::size_t begin, std::size_t end) {
    stripped_.clear();
    for (std::size_t i = begin; i < end; ++i) {
      if (comment_at(i)) i = std::min(src_.find('\n', i), end);
      if (i < end) stripped_ += src_[i];
    }
    return stripped_;
  }

  const Register* find_register(std::string_view name, bool quantum) const {
    for (const Register& r : registers_) {
      if (r.quantum == quantum && r.name == name) return &r;
    }
    return nullptr;
  }

  const GateDef* find_def(std::string_view name) const {
    for (const GateDef& d : defs_) {
      if (std::ranges::equal(name, d.name, {}, lower)) return &d;
    }
    return nullptr;
  }

  /// One statement; `frame` is null outside a gate body.
  bool statement(std::string_view stmt, int line, const Frame* frame,
                 int depth) {
    stmt = trim(stmt);
    const bool top = frame == nullptr;
    if (stmt.empty() || (top && (starts_with(stmt, "OPENQASM") ||
                                 starts_with(stmt, "include")))) {
      return true;
    }
    if (top && (starts_with(stmt, "qreg") || starts_with(stmt, "creg"))) {
      return declare_register(stmt, line);
    }
    if (total_qubits_ == 0) {
      return fail(line, "gate statement before qreg declaration");
    }
    const bool measure = top && starts_with(stmt, "measure");
    if (measure || (top && starts_with(stmt, "reset"))) {
      const std::size_t arrow = stmt.find("->");
      if (measure && arrow == std::string_view::npos) {
        return fail(line, "measure without '->'");
      }
      const auto target = measure ? stmt.substr(7, arrow - 7) : stmt.substr(5);
      Operand op;
      if (!operand(target, nullptr, line, op)) return false;
      for (int i = 0; i < op.width; ++i) {
        circuit_.add(measure ? K::kMeasure : K::kReset, {op.at(i)});
      }
      return true;
    }
    Scratch& scratch = scratch_[static_cast<std::size_t>(depth)];
    if (!starts_with(stmt, "barrier")) {
      return apply_gate(stmt, line, frame, depth, scratch);
    }
    if (!operand_list(stmt.substr(7), frame, line, scratch)) return false;
    circuit::Qubits qubits;
    for (const Operand& op : scratch.ops) {
      for (int i = 0; i < op.width; ++i) qubits.push_back(op.first + i);
    }
    if (!circuit::operands_distinct(qubits)) {
      return fail(line, "repeated qubit operand");
    }
    circuit_.add(K::kBarrier, std::move(qubits));
    return true;
  }

  bool declare_register(std::string_view stmt, int line) {
    const bool quantum = starts_with(stmt, "qreg");
    const std::string_view rest = trim(stmt.substr(4));
    const std::size_t open = rest.find('[');
    const std::size_t close = rest.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos) {
      return fail(line, "malformed register declaration");
    }
    const std::string_view name = trim(rest.substr(0, open));
    int size = 0;
    // A ']' before the '[' leaves the size running to the end of the text.
    if (!qfs::parse_int(rest.substr(open + 1, close - open - 1), size) ||
        size <= 0 || (quantum && size > INT_MAX - total_qubits_)) {
      return fail(line, "bad register size");
    }
    if (find_register(name, quantum) != nullptr) {
      return fail(line, "duplicate ", quantum ? "quantum" : "classical",
                  " register '", name, "'");
    }
    registers_.push_back({std::string(name), quantum, total_qubits_, size});
    if (!quantum) return true;
    total_qubits_ += size;
    // Widen the circuit; gates parsed before a later qreg move across.
    Circuit wider(total_qubits_);
    wider.reserve(src_.size() / 12);  // statements run 8 to 30 bytes
    wider.append(circuit_);
    circuit_ = std::move(wider);
    return true;
  }

  /// "q[3]" (one qubit) or bare "q" (the whole register); inside a body, a
  /// formal qubit name.
  bool operand(std::string_view token, const Frame* frame, int line,
               Operand& out) {
    token = trim(token);
    if (frame != nullptr) {
      const int* q = bound(frame->def->qubit_names, *frame->qubits, token);
      out = {q ? *q : 0, 1};
      return q || fail(line, "unknown qubit '", token, "' in gate body");
    }
    std::size_t open = std::string_view::npos, close = open;
    for (std::size_t i = token.size(); i-- > 0;) {  // the first of each
      if (token[i] == '[') open = i;
      if (token[i] == ']') close = i;
    }
    if (open != std::string_view::npos &&
        (close == std::string_view::npos || close < open)) {
      return fail(line, "malformed operand '", token, "'");
    }
    const std::string_view name = trim(token.substr(0, open));
    const Register* reg = find_register(name, true);
    if (reg == nullptr) {
      return fail(line, "unknown quantum register '", name, "'");
    }
    out = {reg->offset, reg->size};
    if (open == std::string_view::npos) return true;
    int index = 0;
    if (!qfs::parse_int(token.substr(open + 1, close - open - 1), index)) {
      return fail(line, "bad qubit index in '", token, "'");
    }
    if (index < 0 || index >= reg->size) {
      return fail(line, "qubit index out of range");
    }
    out = {reg->offset + index, 1};
    return true;
  }

  /// Fills scratch.ops and scratch.width: all multi-qubit operands of a
  /// broadcast must share one width, and single ones repeat.
  bool operand_list(std::string_view text, const Frame* frame, int line,
                    Scratch& scratch) {
    scratch.ops.clear();
    scratch.width = 1;
    return for_each_field(text, ',', [&](std::string_view field) {
      Operand& op = scratch.ops.emplace_back();
      if (!operand(field, frame, line, op)) return false;
      if (op.width != 1 && op.width != scratch.width) {
        scratch.width = scratch.width == 1 ? op.width : -1;
      }
      return true;
    });
  }

  /// name[(params)] operands, for a builtin, a macro or a definition.
  bool apply_gate(std::string_view stmt, int line, const Frame* frame,
                  int depth, Scratch& scratch) {
    const std::string_view name = word(stmt);
    std::string_view rest = trim(stmt.substr(name.size()));
    std::vector<double>& params = scratch.params;
    params.clear();
    if (!rest.empty() && rest.front() == '(') {
      // The list ends at the ')' that closes its '(': angles nest them.
      std::size_t close = 0;
      for (int open = 1; open > 0; open += rest[close] == '(' ? 1 : -1) {
        close = rest.find_first_of("()", close + 1);
        if (close == std::string_view::npos) {
          return fail(line, "missing ')' in gate parameters");
        }
      }
      if (!for_each_field(rest.substr(1, close - 1), ',', [&](auto p) {
            auto v = ExprParser(trim(p), frame).parse();
            if (!v.is_ok()) return fail(line, v.status().message());
            params.push_back(v.value());
            return true;
          })) {
        return false;
      }
      rest = trim(rest.substr(close + 1));
    }
    const std::vector<Operand>& ops = scratch.ops;
    if (!operand_list(rest, frame, line, scratch)) return false;

    // A builtin, a macro or a definition, in that order.
    const BuiltinName* b = find_name(kBuiltins, name);
    const MacroName* m = b ? nullptr : find_name(kMacros, name);
    const GateDef* def = b || m ? nullptr : find_def(name);
    if (!b && !m && !def) {
      return fail(line, "unsupported statement or gate '", lowered(name), "'");
    }
    const auto n_ops = std::ssize(ops);
    if (std::ssize(params) != (b   ? circuit::gate_param_count(b->kind)
                               : m ? m->params
                                   : std::ssize(def->param_names))) {
      return fail(line, "wrong parameter count for gate '", lowered(name),
                  "'");
    }
    // A builtin's operand count is checked per broadcast gate, below.
    if (!b && n_ops != (m ? m->qubits : std::ssize(def->qubit_names))) {
      return fail(line, "wrong operand count for gate '", lowered(name), "'");
    }
    if (scratch.width < 0) {
      return fail(line, "mismatched register broadcast widths");
    }
    // A definition may take more parameters than a gate's three.
    const circuit::Params p = def ? circuit::Params{} : circuit::Params(params);
    for (int i = 0; i < scratch.width; ++i) {  // operand i of the broadcast
      if (def != nullptr) {
        if (depth > kMaxGateExpansionDepth) {
          return fail(line, "gate expansion too deep (recursive definition?)");
        }
        scratch.qubits.clear();
        for (const Operand& op : ops) scratch.qubits.push_back(op.at(i));
        const Frame body{def, &params, &scratch.qubits};
        for (const std::string& stmt : def->body) {
          if (!statement(stmt, line, &body, depth + 1)) return false;
        }
        continue;
      }
      circuit::Qubits qubits;
      for (const Operand& op : ops) qubits.push_back(op.at(i));
      if (qubits.size() > 1 && !circuit::operands_distinct(qubits)) {
        return fail(line, "repeated qubit operand");
      } else if (m != nullptr) {
        emit_macro(m->macro, p, qubits);
      } else if (n_ops != circuit::gate_arity(b->kind)) {
        return fail(line, "wrong operand count for ",
                    circuit::gate_name(b->kind));
      } else {
        circuit_.add(circuit::Gate{b->kind, std::move(qubits), p});
      }
    }
    return true;
  }

  void emit_macro(Macro macro, const circuit::Params& p,
                  const circuit::Qubits& q) {
    const auto cx = [&] { circuit_.add(K::kCx, {q[0], q[1]}); };
    const auto h_both = [&] {
      for (int i : {0, 1}) circuit_.add(K::kH, {q[i]});
    };
    switch (macro) {
      case Macro::kU2:
        // u2(phi, lambda) = u3(pi/2, phi, lambda).
        circuit_.add(K::kU3, {q[0]}, {M_PI / 2.0, p[0], p[1]});
        return;
      case Macro::kRzz:
      case Macro::kRxx:
        // rxx conjugates rzz by Hadamards on both qubits.
        if (macro == Macro::kRxx) h_both();
        cx();
        circuit_.add(K::kRz, {q[1]}, {p[0]});
        cx();
        if (macro == Macro::kRxx) h_both();
        return;
      case Macro::kCrz:
        circuit_.add(K::kRz, {q[1]}, {p[0] / 2.0});
        cx();
        circuit_.add(K::kRz, {q[1]}, {-p[0] / 2.0});
        cx();
        return;
      case Macro::kCu3: {
        // cu3(theta, phi, lambda) c, t — qelib1's controlled-U decomposition.
        const double theta = p[0], phi = p[1], lam = p[2];
        circuit_.add(K::kPhase, {q[0]}, {(lam + phi) / 2.0});
        circuit_.add(K::kPhase, {q[1]}, {(lam - phi) / 2.0});
        cx();
        circuit_.add(K::kU3, {q[1]}, {-theta / 2.0, 0.0, -(phi + lam) / 2.0});
        cx();
        circuit_.add(K::kU3, {q[1]}, {theta / 2.0, phi, 0.0});
        return;
      }
      case Macro::kCh:
        // qelib1: gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b;
        //                       t b; h b; s b; x b; s a; }
        for (K k : {K::kH, K::kSdg, K::kCx, K::kH, K::kT, K::kCx, K::kT, K::kH,
                    K::kS, K::kX}) {
          k == K::kCx ? cx() : circuit_.add(k, {q[1]});
        }
        circuit_.add(K::kS, {q[0]});
        return;
    }
  }

  /// The trimmed `delim`-separated fields of `text` into `out`. An empty
  /// field is the error `empty`, or skipped when `empty` is null.
  bool names(std::string_view text, char delim, std::vector<std::string>& out,
             int line, const char* empty) {
    return for_each_field(text, delim, [&](std::string_view field) {
      if (!trim(field).empty()) out.emplace_back(trim(field));
      return !trim(field).empty() || !empty || fail(line, empty);
    });
  }

  /// "gate NAME[(p1, p2)] q1, q2 { body }", up to its first '}'.
  bool gate_definition(std::string_view text, int line) {
    const std::string_view rest = trim(text.substr(4));
    const std::size_t brace = rest.find('{');
    if (brace == std::string_view::npos) {
      return fail(line, "gate definition without '{'");
    }
    const std::string_view header = trim(rest.substr(0, brace));
    const std::string_view name = word(header);
    GateDef def{lowered(name), {}, {}, {}};
    if (name.empty()) return fail(line, "gate definition needs a name");
    if (find_name(kBuiltins, name) != nullptr ||
        find_name(kMacros, name) != nullptr || find_def(name) != nullptr) {
      return fail(line, "gate '", def.name, "' is already defined");
    }
    std::string_view formals = trim(header.substr(name.size()));
    bool ok = true;
    if (!formals.empty() && formals.front() == '(') {
      const std::size_t close = formals.find(')');
      if (close == std::string_view::npos) {
        return fail(line, "missing ')' in gate definition parameters");
      }
      ok = names(formals.substr(1, close - 1), ',', def.param_names, line,
                 "empty parameter name");
      formals = trim(formals.substr(close + 1));
    }
    if (!ok || !names(formals, ',', def.qubit_names, line,
                      "empty qubit name in gate def")) {
      return false;
    }
    // The body runs from the '{' to the closing '}', the text's last byte.
    names(rest.substr(brace + 1, rest.size() - brace - 2), ';', def.body, line,
          nullptr);
    defs_.push_back(std::move(def));
    return true;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  qfs::Status error_;
  std::string name_, stripped_;

  std::vector<Register> registers_;
  int total_qubits_ = 0;  ///< 0 until the first qreg
  std::vector<GateDef> defs_;
  Circuit circuit_;
  std::array<Scratch, kMaxGateExpansionDepth + 2> scratch_;
};

}  // namespace

qfs::StatusOr<double> evaluate_angle_expression(const std::string& expr) {
  return ExprParser(expr, nullptr).parse();
}

qfs::StatusOr<Circuit> parse(const std::string& source) {
  return Parser(source).run();
}

}  // namespace qfs::qasm
