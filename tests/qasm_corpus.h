// The QASM parse corpus QasmParseGolden pins: every fixture under
// tools/testdata/ (top level, lint/, qasmbench/), a few inline programs
// that reach the grammar the fixtures do not (gate definitions, macros,
// registers declared late, comments inside statements, CRLF), and a
// deterministic seeded mutation corpus of each: byte deletes, QASM-token
// inserts, digit/bracket/';'/'{}' flips, line joins and splits, and
// truncations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace qfs::qasm::corpus {

/// One seed program: a stable name and its text.
struct Seed {
  std::string name;
  std::string text;
};

/// Every .qasm under `testdata` (top level, lint/, qasmbench/), sorted by
/// relative path.
inline std::vector<Seed> fixture_seeds(const std::string& testdata) {
  namespace fs = std::filesystem;
  std::vector<Seed> seeds;
  for (const char* sub : {"", "lint", "qasmbench"}) {
    const fs::path dir = fs::path(testdata) / sub;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".qasm") {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      const std::string rel =
          (std::string(sub).empty() ? "" : std::string(sub) + "/") +
          entry.path().filename().string();
      seeds.push_back({rel, text.str()});
    }
  }
  std::sort(seeds.begin(), seeds.end(),
            [](const Seed& a, const Seed& b) { return a.name < b.name; });
  return seeds;
}

/// Programs for the grammar the fixtures leave out.
inline std::vector<Seed> inline_seeds() {
  return {
      {"inline/gatedefs",
       "OPENQASM 2.0;\n"
       "include \"qelib1.inc\";\n"
       "// circuit: gatedefs\n"
       "qreg q[4];\n"
       "creg c[4];\n"
       "gate maj a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n"
       "gate rot(theta, phi) a { rz(theta/2) a; ry(-phi*2 + pi) a; }\n"
       "gate pair(t) a,b {\n"
       "  rot(t, t/4) a;\n"
       "  cp(t) a,b; barrier a,b;\n"
       "}\n"
       "maj q[0],q[1],q[2];\n"
       "rot(0.5, pi/3) q[3];\n"
       "pair(1e-2) q[1],q[3];\n"
       "rot(pi, -1.5e1) q;\n"
       "measure q -> c;\n"},
      {"inline/macros",
       "OPENQASM 2.0;\n"
       "qreg a[3];\n"
       "qreg b[3];\n"
       "creg c[6];\n"
       "u2(0.1, -pi/8) a[0];\n"
       "rzz(pi/7) a[1], b[1];\n"
       "rxx((1+2)*0.25) a, b;\n"
       "crz(-0.3) b[0],a[2];\n"
       "cu3(0.2, 0.4, 0.6) a[2],b[2];\n"
       "ch a[0],b[0];\n"
       "CX a[0],b[2]; Ccz a[0],a[1],b[1];\n"
       "u1(pi/4) b; cu1(pi) a[1],b[2]; p(2*pi) a[2];\n"
       "u3(1,2,3) b[1]; u(0.5,0,-0.5) a[0]; sx a; sxdg b; id a[1];\n"
       "cswap a[0],a[1],a[2]; swap b[0],b[1]; cy a[2],b[0];\n"
       "reset b; barrier a, b[1];\n"
       "measure a[1] -> c[1];\n"},
      {"inline/layout",
       "OPENQASM 2.0;\r\n"
       "include \"qelib1.inc\"; // circuit: crlf layout\r\n"
       "qreg q[2]; h q[0]; cx q[0],\r\n"
       "   q[1]; // trailing note\r\n"
       "qreg r[3];\r\n"
       "rz(pi // cut\r\n"
       "  /2) r[2]; x // mid-statement comment\r\n"
       " r;\r\n"
       "creg m[5]; measure r[0] -> m[0];\r\n"
       "t q; tdg r[1]; s q[1]; sdg r[0]; y q[0]; z r[2];\r\n"},
  };
}

inline const std::vector<std::string>& insert_tokens() {
  static const std::vector<std::string> tokens = {
      "qreg q[",  "creg c[",   "];",     "h ",        "cx ",    "q[0]",
      "q[1]",     "q",         ",",      "measure ",  "->",     "reset ",
      "barrier ", "rz(",       "pi",     "/2",        ")",      "(",
      ";",        "\n",        "//",     "// circuit: mutant\n", "{",
      "}",        "gate ",     "gate g a { x a; }\n", "g q[0];", "u2(",
      "rzz",      "ch ",       "ccz ",   "0",         "7",      "-",
      "*",        "OPENQASM 2.0;", "include ", "\t",   "\r",     "@",
      "e",        "1e-3",      "u1(",    "cu1(",      "H ",     "CX ",
      "sxdg ",    "swap ",     " ",      "a",         "[",      "]",
  };
  return tokens;
}

/// One random mutation of `text` (never empty on input).
inline std::string mutate_once(std::string text, qfs::Rng& rng) {
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n + 1));
  };
  switch (rng.uniform_int(0, 6)) {
    case 0: {  // delete 1..3 bytes
      if (text.empty()) return text;
      const std::size_t at = pos(text.size() - 1);
      text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 3)));
      return text;
    }
    case 1: {  // insert a QASM token
      const auto& tokens = insert_tokens();
      text.insert(pos(text.size()), tokens[rng.uniform_index(tokens.size())]);
      return text;
    }
    case 2: {  // flip a digit, bracket, ';' or brace into another of them
      static const std::string kFlippable = "0123456789[];{}";
      std::vector<std::size_t> sites;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (kFlippable.find(text[i]) != std::string::npos) sites.push_back(i);
      }
      if (sites.empty()) return text;
      const std::size_t at = sites[rng.uniform_index(sites.size())];
      text[at] = kFlippable[rng.uniform_index(kFlippable.size())];
      return text;
    }
    case 3: {  // join two lines
      std::vector<std::size_t> newlines;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') newlines.push_back(i);
      }
      if (newlines.empty()) return text;
      text.erase(newlines[rng.uniform_index(newlines.size())], 1);
      return text;
    }
    case 4:  // split a line
      text.insert(pos(text.size()), 1, '\n');
      return text;
    case 5:  // truncate
      text.resize(pos(text.size()));
      return text;
    default: {  // duplicate a short span in place
      if (text.empty()) return text;
      const std::size_t at = pos(text.size() - 1);
      const std::size_t len = std::min<std::size_t>(
          text.size() - at, static_cast<std::size_t>(rng.uniform_int(1, 12)));
      text.insert(at, text.substr(at, len));
      return text;
    }
  }
}

/// `count` mutants of `seed`, each one to three mutations deep, from a
/// stream seeded by `stream_seed`.
inline std::vector<std::string> mutants(const std::string& seed, int count,
                                        std::uint64_t stream_seed) {
  qfs::Rng rng(stream_seed);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string text = seed;
    const int depth = rng.uniform_int(1, 3);
    for (int d = 0; d < depth; ++d) text = mutate_once(std::move(text), rng);
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace qfs::qasm::corpus
