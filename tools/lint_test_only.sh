#!/usr/bin/env bash
# Test-only-code lint for src/.
#
# Every class or struct defined, every function declared at namespace
# scope and every public member function declared in a class body, in a
# src/**/*.h, must be reached from a program: qfsc, qfsd, qfsd_loadgen
# (tools/), a bench (bench/), an example (examples/) or the perfbench
# harness (perfbench/). Code that only its own unit tests call is a second
# implementation or an unused feature; this lint fails on it. Constructors,
# destructors and operators are called without being named, so they are
# not checked; their bodies count as part of their class.
#
# Reached means named in tools/, bench/, examples/ or perfbench/, or named
# inside a src/ declaration that is itself reached, or at src/ namespace
# scope outside any declaration (a table initializer, say). A member
# function is a declaration of its own: what its body names is reached
# only when it is. A call from the same .cpp counts like any other
# (linear_fit via exponential_fit). A name's own declaration and
# definition do not count, and neither does a mention from code that is
# itself unreached: a class that only a test-only function returns is
# test-only too. Names are matched as words, without namespaces or
# classes, after comments and string literals are stripped, so a
# same-named symbol elsewhere can only hide a finding, never invent one.
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


KEYWORDS = {'alignas', 'decltype', 'noexcept', 'requires', 'return', 'sizeof',
            'void'}
CLASS_HEAD = re.compile(
    r'\b(class|struct|union)\s+(\w+)\s*(?:final\s*)?(?::[^;{]*)?$')


def owner_of(head, cls=None):
    """(kind, name[, class]) of the declaration whose text (up to its ';'
    or '{') is `head`, or None when it declares no name we track.

    At namespace scope (cls None) that is a 'class', an 'alias' or a
    'func'; a member function defined out of line (Class::f) is a
    'member', and a constructor, destructor or operator belongs to its
    class. In the body of class `cls` a member function is a 'member', and
    every other declaration (a data member, a constructor, an operator, a
    friend, a nested type) belongs to cls."""
    head = head.strip()
    if re.match(r'(enum|namespace|extern|static_assert)\b', head):
        return cls
    m = re.match(r'using\s+(\w+)\s*=', head)
    if m:
        return cls or ('alias', m.group(1))
    m = CLASS_HEAD.search(head)
    if m:
        return cls or ('class', m.group(2))
    if cls and re.match(r'(friend|using|typedef)\b', head):
        return cls
    # A function's name is the identifier before the first '(' outside
    # template brackets; an '=' before it makes the head a variable.
    depth = 0
    for i, ch in enumerate(head):
        if ch == '<':
            depth += 1
        elif ch == '>':
            depth = max(0, depth - 1)
        elif ch == '=' and depth == 0:
            return cls
        elif ch == '(' and depth == 0:
            m = re.search(r'(?:(\w+)::)?(operator\W*|~?\w+)\s*$', head[:i])
            if not m or m.group(2) in KEYWORDS:
                return cls
            scope = m.group(1) or (cls and cls[1])
            name = m.group(2)
            if scope is None:
                return None if name.startswith('operator') else ('func', name)
            if name == scope or name.startswith(('~', 'operator')):
                return cls or ('class', scope)
            return ('member', name, scope)
    return cls


def scan(text):
    """Yield (line, owner, identifier, declares) for every identifier.

    owner is the declaration the identifier sits in: a namespace-scope
    one, or a member function of a class body (None outside any).
    declares is True for the name a src/**/*.h declaration introduces: a
    namespace-scope function, a class whose body it opens, or a member
    function in the public part of a class body."""
    # Per open '{': ('ns',), ('class', owner, [public]) for a class body,
    # whose declarations are parsed like namespace-scope ones, or
    # ('body', owner) for any other block.
    stack = []
    pending = []  # (line, identifier) in the declaration head so far
    head = []
    line = 1

    def heads(owner, public, opens):
        """public is None at namespace scope, else the class body's access."""
        for ln, ident in pending:
            declares = (owner is not None and owner[1] == ident and
                        (owner[0] == 'func' or
                         (owner[0] == 'class' and opens and public is None) or
                         (owner[0] == 'member' and public)))
            yield ln, owner, ident, declares

    for tok in re.finditer(r'[A-Za-z_]\w*|[ \t\n]+|[{};:]|[^\sA-Za-z_{};:]+',
                           text):
        t = tok.group(0)
        frame = stack[-1] if stack else ('ns',)
        cls = frame[1] if frame[0] == 'class' else None
        public = frame[2][0] if cls else None
        level = frame[0] != 'body'
        if t.isspace():
            line += t.count('\n')
            if level:
                head.append(' ')
            continue
        if not level:
            if t == '{':
                stack.append(frame)
            elif t == '}':
                stack.pop()
                if not stack or stack[-1][0] != 'body':
                    pending, head = [], []
            elif t[0].isalpha() or t[0] == '_':
                yield line, frame[1], t, False
            continue
        h = ''.join(head)
        if t == '{':
            klass = None if re.match(r'\s*enum\b', h) else CLASS_HEAD.search(h)
            if not cls and re.match(r'\s*(inline\s+)?namespace\b|\s*extern\s*""',
                                    h):
                stack.append(('ns',))
            elif klass:
                owner = ('class', klass.group(2))
                yield from heads(owner, public, True)
                stack.append(('class', owner, [klass.group(1) != 'class']))
            else:
                owner = owner_of(h, cls)
                yield from heads(owner, public, True)
                stack.append(('body', owner))
            pending, head = [], []
        elif t == '}':
            if stack:
                stack.pop()
            pending, head = [], []
        elif t == ';':
            yield from heads(owner_of(h, cls), public, False)
            pending, head = [], []
        elif t == ':' and cls and h.strip() in ('public', 'private', 'protected'):
            frame[2][0] = h.strip() == 'public'
            pending, head = [], []
        else:
            head.append(t)
            if t[0].isalpha() or t[0] == '_':
                pending.append((line, t))


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
            for ln, owner, ident, declares in scan(text):
                mentions.append((in_src, owner and owner[1], ident))
                if in_src and path.endswith('.h') and declares:
                    what = f'{owner[2]}::{ident}' if len(owner) > 2 else ident
                    declared.setdefault(
                        ident, (owner[0], f'{path}:{ln}', what))

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


for name, (kind, where, what) in sorted(declared.items(), key=by_location):
    if name not in reached and name not in allowed:
        print(f'lint_test_only: {where}: {kind} {what} is reached only from '
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
