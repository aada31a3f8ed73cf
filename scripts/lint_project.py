#!/usr/bin/env python3
"""Project-specific lint rules generic tools cannot express.

Token-aware (comments and string literals are stripped before
matching) but deliberately AST-free: the rules below are simple
textual contracts, and a checker with no compiler dependency can run
everywhere ctest runs.

Rules
-----
status-discard
    Every call to a Status-returning function (collected by scanning
    the headers under src/ for by-value `Status f(...)` declarations)
    must be consumed. A bare statement-position call drops the error;
    intentional discards must be written `(void)call();` with a
    justifying comment.

sim-determinism
    Simulation code must be a pure function of its inputs (the PR 1
    determinism contract: identical results for any --jobs value, and
    reproducible runs across machines). rand()/srand(),
    std::random_device, std::time()/time(NULL), gettimeofday() and
    std::chrono::system_clock are banned; seeded vpsim::Rng
    (src/common/rng.hpp) and steady_clock are the sanctioned
    alternatives.

unordered-iter
    Iterating a std::unordered_* container visits elements in an
    unspecified, implementation-dependent order; feeding that order
    into CSV/manifest/table output makes published numbers differ
    between stdlibs. Range-fors over unordered containers declared in
    the same file are flagged; order-independent uses carry a
    `lint:allow unordered-iter` suppression with a justification.

raw-mutex
    All locking goes through the CAPABILITY-annotated vpsim::Mutex /
    MutexLock wrappers (src/common/thread_annotations.hpp) so clang's
    thread-safety analysis sees every acquire/release. Raw std::mutex
    and friends are allowed only inside the wrapper header itself.

trace-materialize
    materializeTrace() and VectorTraceSource::records() buffer the
    entire trace in memory — fine for unit-test inputs, fatal for the
    bounded-memory streaming pipeline (docs/TRACE_FORMAT.md), where a
    1B-instruction trace must never fully materialize. Production code
    iterates nextBlock()/nextColumns() spans; the legacy TraceSource
    convenience overloads that still materialize carry justified
    suppressions. Tests are not linted for this rule.

Suppression: append `// lint:allow <rule>` (plus a justification) to
the offending line.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Directories scanned by default, relative to the repo root. tests/ is
# exempt: test code may use raw primitives and controlled randomness.
DEFAULT_ROOTS = ["src", "bench", "examples"]

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

# Per-rule path exemptions (relative, forward slashes).
EXEMPT = {
    "raw-mutex": {"src/common/thread_annotations.hpp"},
    "sim-determinism": {"src/common/rng.hpp"},
    # The declaration/definition of materializeTrace and the records()
    # accessor live here; the rule targets their callers.
    "trace-materialize": {"src/trace/source.hpp",
                          "src/trace/source.cpp"},
}

ALLOW_RE = re.compile(r"lint:allow\s+([\w-]+)")

RULES = ["status-discard", "sim-determinism", "unordered-iter",
         "raw-mutex", "trace-materialize"]


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers match the file. The original
    text of comment lines is consulted separately for suppressions."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif ch == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif ch == '"' and re.search(r"(?:u8|[uUL])?R\Z",
                                         text[max(0, i - 3):i]):
                # Raw string literal R"delim(...)delim": no escape
                # processing, and embedded quotes must not pop the
                # string state early (they used to leak literal text
                # into the scanned code, a false-positive source for
                # every text-matching rule).
                open_paren = text.find("(", i + 1)
                delim = text[i + 1:open_paren] if open_paren != -1 \
                    else ""
                closing = ")" + delim + '"'
                end = text.find(closing, open_paren + 1) \
                    if open_paren != -1 else -1
                stop = n if end == -1 else end + len(closing)
                for j in range(i, stop):
                    out.append("\n" if text[j] == "\n" else " ")
                i = stop
            elif ch == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif ch == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(ch)
                i += 1
        elif state == "line-comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
            elif ch == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
    return "".join(out)


def collect_status_functions(root):
    """Names of by-value Status-returning functions from src headers.

    `Status f(...)` matches; `Status &f(...)` / `const Status &f()`
    accessors do not (returning a reference hands the caller something
    it already owns — nothing is being dropped).
    """
    names = set()
    decl_re = re.compile(r"\bStatus\s+(\w+)\s*\(")
    for header in sorted((root / "src").rglob("*.hpp")):
        stripped = strip_comments_and_strings(
            header.read_text(encoding="utf-8"))
        for match in decl_re.finditer(stripped):
            name = match.group(1)
            if name not in ("operator",):
                names.add(name)
    return names


def line_allows(raw_line, rule):
    match = ALLOW_RE.search(raw_line)
    return bool(match) and match.group(1) == rule


def neighborhood_allows(raw_lines, lineno, rule):
    """Suppression on the flagged line, or anywhere in the block of
    comment lines immediately above it (justifications often need a
    continuation line, which would otherwise push the lint:allow tag
    out of a one-line lookback window)."""
    if 0 <= lineno - 1 < len(raw_lines) and \
            line_allows(raw_lines[lineno - 1], rule):
        return True
    candidate = lineno - 2
    while 0 <= candidate < len(raw_lines):
        stripped = raw_lines[candidate].lstrip()
        if not stripped.startswith("//"):
            break
        if line_allows(raw_lines[candidate], rule):
            return True
        candidate -= 1
    return False


RECEIVER_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789_:.>[]-")

# Member names our API shares with std types (std::atomic::store,
# std::ostream::flush, ...). A member call to one of these is only
# flagged when the receiver variable is declared in the same file with
# one of the classes that actually return Status from that member —
# otherwise `done[idx].store(true, ...)` would drown the report in
# atomic false positives. Free-function calls are never ambiguous.
AMBIGUOUS_MEMBERS = {"store", "load", "flush", "open", "close",
                     "reset", "clear", "swap", "exchange", "wait",
                     "count", "get"}

# The classes whose members return Status (kept in sync with the
# headers scanned by collect_status_functions; the self-test fixture
# guards the wiring end to end).
STATUS_CLASS_RE = (r"(?:io::)?(?:File|TraceCacheStore)")
STATUS_VAR_DECL_RES = [
    re.compile(r"\b" + STATUS_CLASS_RE + r"\s*[&*]?\s+(\w+)\s*[;,)({=]"),
    re.compile(r"_ptr<\s*(?:const\s+)?" + STATUS_CLASS_RE +
               r"\s*>\s+(\w+)"),
]


def status_receiver_vars(text):
    names = set()
    for decl_re in STATUS_VAR_DECL_RES:
        names.update(m.group(1) for m in decl_re.finditer(text))
    return names


def check_status_discard(path, text, raw_lines, status_functions,
                         report):
    call_re = re.compile(
        r"\b(" + "|".join(re.escape(n)
                          for n in sorted(status_functions)) +
        r")\s*\(")
    receiver_vars = status_receiver_vars(text)
    for match in call_re.finditer(text):
        # Walk back over the receiver expression (io::, file.,
        # cache->) to the start of the statement's first token.
        start = match.start(1)
        i = start - 1
        while i >= 0 and text[i] in RECEIVER_CHARS:
            i -= 1
        expr_start = i + 1
        # The previous significant character decides whether this call
        # is a full statement (dropped result) or feeds an expression.
        j = expr_start - 1
        while j >= 0 and text[j] in " \t\n":
            j -= 1
        at_statement = j < 0 or text[j] in ";{}"
        if not at_statement:
            continue
        name = match.group(1)
        receiver = text[expr_start:start]
        if receiver and name in AMBIGUOUS_MEMBERS:
            base = re.split(r"\.|->|::|\[", receiver.rstrip(".->"))[0]
            if base not in receiver_vars:
                continue
        lineno = text.count("\n", 0, start) + 1
        if neighborhood_allows(raw_lines, lineno, "status-discard"):
            continue
        report(path, lineno, "status-discard",
               "result of Status-returning '%s' is dropped; consume "
               "it, or write (void)%s(...) with a justification"
               % (name, name))


DETERMINISM_BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "rand()/srand() — use the seeded vpsim::Rng"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is a nondeterministic seed source"),
    (re.compile(r"\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "wall-clock time() in simulation state"),
    (re.compile(r"\bgettimeofday\s*\("),
     "wall-clock gettimeofday() in simulation state"),
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is wall-clock; use steady_clock for "
     "durations and keep timestamps out of simulated state"),
]


def check_determinism(path, text, raw_lines, report):
    for banned_re, why in DETERMINISM_BANNED:
        for match in banned_re.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            if neighborhood_allows(raw_lines, lineno,
                                   "sim-determinism"):
                continue
            report(path, lineno, "sim-determinism", why)


def unordered_container_vars(text):
    """Identifiers declared in this file with a std::unordered_* type
    (handles nested template arguments by bracket matching)."""
    names = set()
    for match in re.finditer(r"std::unordered_\w+\s*<", text):
        depth = 1
        i = match.end()
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        # `;` / `=` / `{` follow VARIABLE names; a `(` follows a
        # FUNCTION name (`std::unordered_map<K, V> buildMap(...)`),
        # which must not register — a same-named ordered variable
        # iterated elsewhere would be flagged. Direct-init variables
        # (`map m(16);`) are rare enough in this tree to trade away.
        ident = re.match(r"\s*&?\s*(\w+)\s*[;={]", text[i:])
        if ident:
            names.add(ident.group(1))
    return names


def check_unordered_iter(path, text, raw_lines, report):
    container_vars = unordered_container_vars(text)
    if not container_vars:
        return
    range_for_re = re.compile(
        r"\bfor\s*\([^;()]*?:\s*([\w.\->]+)\s*\)")
    for match in range_for_re.finditer(text):
        target = re.split(r"\.|->", match.group(1))[-1]
        if target not in container_vars:
            continue
        lineno = text.count("\n", 0, match.start()) + 1
        if neighborhood_allows(raw_lines, lineno, "unordered-iter"):
            continue
        report(path, lineno, "unordered-iter",
               "range-for over unordered container '%s': iteration "
               "order is unspecified and must not reach CSV/manifest/"
               "table output (sort first, or suppress with a "
               "justification if order cannot escape)" % target)


RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock)\b")


def check_raw_mutex(path, text, raw_lines, report):
    for match in RAW_MUTEX_RE.finditer(text):
        lineno = text.count("\n", 0, match.start()) + 1
        if neighborhood_allows(raw_lines, lineno, "raw-mutex"):
            continue
        report(path, lineno, "raw-mutex",
               "raw '%s' outside thread_annotations.hpp: use "
               "vpsim::Mutex / MutexLock so the thread-safety "
               "analysis sees the acquire/release" % match.group(0))


# Whole-trace materialization: the free function plus the
# records() accessor (a member call — bare `records(` would hit
# locals named `records`, which the core machines use for spans).
MATERIALIZE_RE = re.compile(
    r"\bmaterializeTrace\s*\(|(?:\.|->)\s*records\s*\(")


def check_trace_materialize(path, text, raw_lines, report):
    for match in MATERIALIZE_RE.finditer(text):
        lineno = text.count("\n", 0, match.start()) + 1
        if neighborhood_allows(raw_lines, lineno, "trace-materialize"):
            continue
        what = ("materializeTrace()"
                if "materializeTrace" in match.group(0)
                else "records()")
        report(path, lineno, "trace-materialize",
               "whole-trace materialization via %s holds every record "
               "in memory and defeats the bounded-window streaming "
               "path (docs/TRACE_FORMAT.md): iterate nextBlock() "
               "spans, or suppress with a justification for a "
               "known-small input" % what)


def lint_file(path, rel, status_functions, report):
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    text = strip_comments_and_strings(raw)

    def gate(rule):
        return rel not in EXEMPT.get(rule, set())

    if gate("status-discard") and path.suffix != ".hpp":
        # Headers hold inline definitions whose callers are elsewhere;
        # discard checking there is the compiler's job ([[nodiscard]]).
        check_status_discard(path, text, raw_lines, status_functions,
                             report)
    if gate("sim-determinism"):
        check_determinism(path, text, raw_lines, report)
    if gate("unordered-iter"):
        check_unordered_iter(path, text, raw_lines, report)
    if gate("raw-mutex"):
        check_raw_mutex(path, text, raw_lines, report)
    if gate("trace-materialize"):
        check_trace_materialize(path, text, raw_lines, report)


def run_lint(paths, root):
    status_functions = collect_status_functions(root)
    if not status_functions:
        print("lint_project: found no Status-returning declarations; "
              "is --root correct?", file=sys.stderr)
        return 2
    violations = []

    def report(path, lineno, rule, message):
        violations.append((path, lineno, rule, message))

    for path in paths:
        rel = path.resolve().relative_to(root).as_posix()
        lint_file(path, rel, status_functions, report)

    for path, lineno, rule, message in violations:
        print("%s:%d: [%s] %s"
              % (path.resolve().relative_to(root), lineno, rule,
                 message))
    if violations:
        print("lint_project: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    return 0


def gather(root, arguments):
    if arguments:
        paths = []
        for argument in arguments:
            p = Path(argument)
            if p.is_dir():
                paths.extend(sorted(
                    f for f in p.rglob("*")
                    if f.suffix in SOURCE_SUFFIXES))
            else:
                paths.append(p)
        return paths
    paths = []
    for sub in DEFAULT_ROOTS:
        paths.extend(sorted(
            f for f in (root / sub).rglob("*")
            if f.suffix in SOURCE_SUFFIXES))
    return paths


def self_test(root):
    """The linter must catch every seeded violation in the fixture —
    run as ctest `lint_project_selftest` so a refactor that quietly
    blinds a rule fails CI."""
    fixture = root / "tests" / "lint_fixtures" / \
        "seeded_violations.cpp"
    status_functions = collect_status_functions(root)
    hits = set()

    def report(path, lineno, rule, message):
        hits.add((rule, lineno))

    raw = fixture.read_text(encoding="utf-8")
    lint_file(fixture, "tests/lint_fixtures/seeded_violations.cpp",
              status_functions, report)

    # The fixture marks every line that must be flagged with
    # `lint:expect <rule>`; everything else (consumed results, (void)
    # casts, lint:allow blocks, std members that shadow our API) must
    # stay quiet. Exact-set equality catches both blind spots and
    # regressions toward false positives.
    expect_re = re.compile(r"lint:expect\s+([\w-]+)")
    expected = set()
    for idx, line in enumerate(raw.splitlines(), start=1):
        for m in expect_re.finditer(line):
            expected.add((m.group(1), idx))
    unknown = {rule for rule, _ in expected} - set(RULES)
    if unknown:
        print("lint_project --self-test: fixture expects unknown "
              "rule(s): %s" % ", ".join(sorted(unknown)),
              file=sys.stderr)
        return 1
    missing = expected - hits
    spurious = hits - expected
    if missing or spurious:
        for rule, lineno in sorted(missing):
            print("lint_project --self-test: seeded %s violation at "
                  "fixture line %d NOT caught" % (rule, lineno),
                  file=sys.stderr)
        for rule, lineno in sorted(spurious):
            print("lint_project --self-test: FALSE POSITIVE %s at "
                  "fixture line %d" % (rule, lineno), file=sys.stderr)
        return 1
    if {rule for rule, _ in expected} != set(RULES):
        print("lint_project --self-test: fixture no longer seeds "
              "every rule", file=sys.stderr)
        return 1
    # The suppressed block must stay quiet — lint:allow is part of the
    # contract too.
    if "lint:allow" not in raw:
        print("lint_project --self-test: fixture lost its "
              "suppression coverage", file=sys.stderr)
        return 1
    print("lint_project --self-test: %d seeded violations across all "
          "%d rules caught, no false positives, suppressions honored"
          % (len(expected), len(RULES)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="vpsim project lint (see docs/STATIC_ANALYSIS.md)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: %s)"
                        % ", ".join(DEFAULT_ROOTS))
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root (default: inferred)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules catch the seeded-"
                             "violation fixture")
    parser.add_argument("--list-rules", action="store_true")
    arguments = parser.parse_args()

    if arguments.list_rules:
        print("\n".join(RULES))
        return 0
    root = arguments.root.resolve()
    if arguments.self_test:
        return self_test(root)
    return run_lint(gather(root, arguments.paths), root)


if __name__ == "__main__":
    sys.exit(main())
