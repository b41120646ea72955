#!/usr/bin/env bash
# Test-only-code lint for src/.
#
# Every class or struct defined, and every function declared at namespace
# scope, in a src/**/*.h must be reached from a program: qfsc, qfsd,
# qfsd_loadgen (tools/), a bench (bench/), an example (examples/) or the
# perfbench harness (perfbench/). Code that only its own unit tests call is
# a second implementation or an unused feature; this lint fails on it.
#
# Reached means named in tools/, bench/, examples/ or perfbench/, or named
# inside a src/ declaration that is itself reached, or at src/ namespace
# scope outside any declaration (a table initializer, say). A call from
# the same .cpp counts like any other (linear_fit via exponential_fit). A
# name's own declaration and definition do not count, and neither does a
# mention from code that is itself unreached: a class that only a
# test-only function returns is test-only too. Names are matched as words,
# without namespaces, after comments and string literals are stripped, so
# a same-named symbol elsewhere can only hide a finding, never invent one.
#
# Test-only code kept on purpose, such as an oracle or a golden's fixture,
# goes in tools/lint_test_only_allowlist.txt, one "name reason" line each.
# What an allowlisted name calls counts as reached. An entry that names
# nothing declared, or a name that is reached anyway, fails as stale.
#
#   tools/lint_test_only.sh      exit 0 clean, 1 with the offending names
set -u -o pipefail

cd "$(dirname "$0")/.."

exec python3 - tools/lint_test_only_allowlist.txt <<'PY'
import os
import re
import sys

PROGRAM_DIRS = ['tools', 'bench', 'examples', 'perfbench']


def strip(text):
    """Blank out comments, string/char literals and preprocessor lines,
    keeping the line count."""
    keep_lines = lambda m: '""' + '\n' * m.group(0).count('\n')
    text = re.sub(r'/\*.*?\*/', keep_lines, text, flags=re.S)
    text = re.sub(r'R"(\w*)\(.*?\)\1"', keep_lines, text, flags=re.S)
    text = re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)
    text = re.sub(r"'(?:[^'\\\n]|\\.)*'", "''", text)
    text = re.sub(r'//[^\n]*', '', text)
    return re.sub(r'^[ \t]*#[^\n]*', '', text, flags=re.M)


def owner_of(head):
    """(kind, name) of the namespace-scope declaration whose text (up to
    its ';' or '{') is `head`, or None when it declares no name we track.
    A member defined out of line (Class::f) belongs to its class."""
    head = head.strip()
    if re.match(r'(enum|namespace|extern|static_assert)\b', head):
        return None
    m = re.match(r'using\s+(\w+)\s*=', head)
    if m:
        return ('alias', m.group(1))
    m = re.search(r'\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?(?::[^;{]*)?$',
                  head)
    if m:
        return ('class', m.group(1))
    # A function's name is the identifier before the first '(' outside
    # template brackets; an '=' before it makes the head a variable.
    depth = 0
    for i, ch in enumerate(head):
        if ch == '<':
            depth += 1
        elif ch == '>':
            depth = max(0, depth - 1)
        elif ch == '=' and depth == 0:
            return None
        elif ch == '(' and depth == 0:
            m = re.search(r'(?:(\w+)::)?(operator\W*|~?\w+)\s*$', head[:i])
            if not m:
                return None
            if m.group(1):
                return ('class', m.group(1))
            if m.group(2).startswith('operator'):
                return None
            return ('func', m.group(2))
    return None


def scan(text):
    """Yield (line, owner, identifier, defines) for every identifier.
    owner is the namespace-scope declaration the identifier sits in (None
    outside any); defines is True for identifiers in the head of a
    declaration that opens a body."""
    stack = []    # per open '{': 'ns', an owner, or 'in' for nested blocks
    pending = []  # (line, identifier) in the namespace-scope head so far
    head = []
    line = 1
    for tok in re.finditer(r'[A-Za-z_]\w*|[ \t\n]+|[{};]|[^\sA-Za-z_{};]+',
                           text):
        t = tok.group(0)
        top = all(s == 'ns' for s in stack)
        if t.isspace():
            line += t.count('\n')
            if top:
                head.append(' ')
        elif t == '{':
            if not top:
                stack.append('in')
                continue
            h = ''.join(head)
            if re.match(r'\s*(inline\s+)?namespace\b|\s*extern\s*""', h):
                stack.append('ns')
            else:
                owner = owner_of(h)
                stack.append(owner)
                for ln, ident in pending:
                    yield ln, owner, ident, True
            pending, head = [], []
        elif t == '}':
            if stack:
                stack.pop()
            if all(s == 'ns' for s in stack):
                pending, head = [], []
        elif t == ';' and top:
            owner = owner_of(''.join(head))
            for ln, ident in pending:
                yield ln, owner, ident, False
            pending, head = [], []
        elif top:
            head.append(t)
            if t[0].isalpha() or t[0] == '_':
                pending.append((line, t))
        elif t[0].isalpha() or t[0] == '_':
            owner = next(s for s in stack if s != 'ns')
            yield line, (None if owner == 'in' else owner), t, False


declared = {}  # name -> (kind, "file:line") of its src/**/*.h declaration
mentions = []  # (in_src, owner name or None, identifier)
for top_dir in ['src'] + PROGRAM_DIRS:
    for dirpath, dirnames, filenames in os.walk(top_dir):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(('.h', '.cpp')):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding='utf-8') as f:
                text = strip(f.read())
            in_src = top_dir == 'src'
            for ln, owner, ident, defines in scan(text):
                mentions.append((in_src, owner and owner[1], ident))
                if (in_src and path.endswith('.h') and owner is not None
                        and owner[1] == ident
                        and (owner[0] == 'func' or
                             (owner[0] == 'class' and defines))):
                    declared.setdefault(ident, (owner[0], f'{path}:{ln}'))

allowlist_path = sys.argv[1]
allowed = {}
status = 0
with open(allowlist_path, encoding='utf-8') as f:
    for n, raw in enumerate(f, 1):
        entry = raw.strip()
        if not entry or entry.startswith('#'):
            continue
        name, _, reason = entry.partition(' ')
        if not reason.strip():
            print(f'lint_test_only: {allowlist_path}:{n}: {name} has no reason',
                  file=sys.stderr)
            status = 1
        allowed[name] = n

# Reachability over names: roots are mentions in the programs, mentions in
# src/ outside any declaration, and the allowlist.
tracked = set(declared) | {o for _, o, _ in mentions if o}
edges = {}
reached = set()
for in_src, owner, ident in mentions:
    if ident not in tracked:
        continue
    if not in_src or owner is None:
        reached.add(ident)
    elif owner != ident:
        edges.setdefault(owner, set()).add(ident)
work = list(reached | set(allowed))
seen = set(work)
while work:
    for callee in edges.get(work.pop(), ()):
        reached.add(callee)
        if callee not in seen:
            seen.add(callee)
            work.append(callee)


def by_location(item):
    path, _, line = item[1][1].rpartition(':')
    return path, int(line)


for name, (kind, where) in sorted(declared.items(), key=by_location):
    if name not in reached and name not in allowed:
        print(f'lint_test_only: {where}: {kind} {name} is reached only from '
              'tests', file=sys.stderr)
        status = 1
for name, n in sorted(allowed.items(), key=lambda kv: kv[1]):
    if name not in declared or name in reached:
        why = 'is reached' if name in declared else 'is not declared in src/'
        print(f'lint_test_only: {allowlist_path}:{n}: stale entry: {name} {why}',
              file=sys.stderr)
        status = 1

if status:
    print('\ndelete test-only code with its tests, or allowlist an oracle or '
          f'golden fixture in {allowlist_path} with its reason',
          file=sys.stderr)
else:
    print(f'lint_test_only: clean ({len(declared)} names)')
sys.exit(status)
PY
