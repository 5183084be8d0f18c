#!/usr/bin/env python3
"""ebi-lint: repo-specific static checks for the EBI codebase.

Enforces structural conventions the compiler cannot:

  raw-bit-words     Bit-word arithmetic (word indexing, GCC bit builtins)
                    is confined to src/util, the kernel layer. Everything
                    above it goes through BitVector / bit_util.
  simd-intrinsics   Raw SIMD (<immintrin.h>/<arm_neon.h> includes, _mm*/
                    __m128/256/512 / NEON v*q_* intrinsics) is confined to
                    src/util/kernels/, the runtime-dispatched backend
                    layer. Everything else calls the BitmapKernels vtable
                    so vector code is only ever reached behind the CPUID
                    check.
  naked-new         No raw `new` outside src/exec/thread_pool.*; ownership
                    is expressed with std::make_unique / containers.
  naked-thread      No direct std::thread outside src/exec/thread_pool.*;
                    parallelism borrows workers from the pool so thread
                    counts stay centrally bounded.
  raw-sync          Synchronization (ebi::Mutex/CondVar, std::atomic,
                    and the raw std primitives) inside src/ is confined
                    to src/serve/, src/exec/, src/storage/engine/ and
                    src/obs/ — the concurrency layers. Everything else
                    is single-threaded by contract and shared through
                    snapshots or the pool. (Allowlisted: the wrapper
                    layer itself in src/util/sync.* and the
                    IoAccountant's relaxed counters.)
  raw-mutex         Raw std::mutex / std::condition_variable /
                    std::lock_guard / std::unique_lock (and friends) are
                    banned everywhere in src/ outside src/util/sync.*:
                    locking goes through ebi::Mutex / MutexLock /
                    CondVar, which carry the capability annotations and
                    the debug lock-rank checks. A raw primitive would
                    silently bypass both.
  mutex-guarded-fields
                    A class that owns an ebi::Mutex member must annotate
                    every mutable data member with EBI_GUARDED_BY /
                    EBI_PT_GUARDED_BY, or document why it needs no guard
                    with EBI_UNGUARDED("reason"). const members, atomics
                    and the synchronization members themselves are
                    exempt. Keeps the capability analysis honest: an
                    unannotated field in a locking class is exactly
                    where a data race hides from -Wthread-safety.
  raw-file-io       Raw file I/O (fopen/fwrite/fsync/fstream/mmap...)
                    inside src/ is confined to src/storage/engine/, the
                    durability layer, so every byte that must survive a
                    crash flows through checksummed pages or the WAL.
                    (Allowlisted: the CSV loader and the telemetry
                    sinks, which predate the engine and write
                    best-effort diagnostic artifacts.)
  nondeterminism    No rand()/srand()/std::random_device/time(NULL) in
                    src/ or tests/ — randomized code takes an explicit
                    seeded Rng so every run is reproducible.
  header-guard      Every header uses an #ifndef guard derived from its
                    path (EBI_<PATH>_H_); #pragma once is not used, so
                    guard style stays greppable and uniform.
  include-path      Quoted #include paths must resolve against src/ (or
                    the including file's directory) — catches stale
                    includes that only work through accidental -I paths.
  test-registered   Every tests/*.cc that defines a TEST must be
                    registered in tests/CMakeLists.txt, so no test file
                    silently stops running.
  metric-name-literal
                    Metric names ("ebi.*") are declared once in
                    src/obs/metric_names.h and referenced as kMetric*
                    constants everywhere else. A quoted "ebi.*" literal
                    anywhere else is a typo waiting to split a time
                    series.
  metric-name-unused
                    Every kMetric* constant declared in
                    src/obs/metric_names.h is referenced by some other
                    file under src/. A counter whose last writer was
                    deleted must go with it, not linger as a dead name.
  ctest-filter      Every alternative of a `ctest ... -R '<a|b|...>'`
                    filter in .github/workflows/*.yml and scripts/*.sh
                    must match at least one ebi_add_test(<name>) in
                    tests/CMakeLists.txt. A filter naming a deleted test
                    otherwise matches nothing and the suite it meant to
                    run silently drops out.

Exceptions live in tools/ebi_lint_allow.txt as `<rule> <path>` lines
(rule `nolint` entries are consumed by scripts/lint.sh's NOLINT audit).

Usage:
  tools/ebi_lint.py             lint the repo; exit 1 on findings
  tools/ebi_lint.py --selftest  verify each rule against the known-bad
                                fixtures in tools/lint_fixtures/
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "ebi_lint_allow.txt")
FIXTURES = os.path.join(ROOT, "tools", "lint_fixtures")

SCAN_DIRS = ("src", "tests", "examples", "bench")
EXTENSIONS = (".h", ".cc", ".cpp")
# CI workflows and scripts: only the ctest-filter rule reads these.
SCRIPT_DIRS = (".github/workflows", "scripts")
SCRIPT_EXTENSIONS = (".yml", ".yaml", ".sh")


def strip_code(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions so line numbers in findings stay exact."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def grep_lines(stripped, pattern):
    regex = re.compile(pattern)
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if regex.search(line):
            yield lineno, line.strip()


# --- Rules. Each takes (path, text, stripped) with `path` repo-relative
# --- and yields Findings. Path scoping happens inside the rule.

BIT_WORD_PATTERNS = (
    r"__builtin_(popcount|ctz|clz)",
    r">>\s*6\s*\]",
    r"&\s*63\b",
)


def rule_raw_bit_words(path, text, stripped):
    if not path.startswith("src/") or path.startswith("src/util/"):
        return
    for pattern in BIT_WORD_PATTERNS:
        for lineno, line in grep_lines(stripped, pattern):
            yield Finding(
                "raw-bit-words", path, lineno,
                f"raw bit-word access `{line}` outside src/util; use "
                "BitVector / bit_util kernels")


SIMD_PATTERNS = (
    r"^\s*#\s*include\s*<(immintrin|x86intrin|emmintrin|smmintrin|"
    r"tmmintrin|nmmintrin|wmmintrin|xmmintrin|pmmintrin|arm_neon|"
    r"arm_sve)\.h>",
    r"\b_mm\d*_\w+\s*\(",
    r"\b__m(128|256|512)i?\b",
    r"\bv(and|orr|eor|bic|mvn|cnt|addv|ld1|st1|dup|add)q?(v)?q?_\w+\s*\(",
)


def rule_simd_intrinsics(path, text, stripped):
    if path.startswith("src/util/kernels/"):
        return
    for pattern in SIMD_PATTERNS:
        for lineno, line in grep_lines(stripped, pattern):
            yield Finding(
                "simd-intrinsics", path, lineno,
                f"raw SIMD `{line}` outside src/util/kernels/; go through "
                "the kernels::BitmapKernels vtable so vector code stays "
                "behind the runtime CPUID check")


def rule_naked_new(path, text, stripped):
    if path.startswith("src/exec/thread_pool."):
        return
    for lineno, line in grep_lines(stripped, r"\bnew\s+[A-Za-z_:]"):
        yield Finding(
            "naked-new", path, lineno,
            f"raw `new` in `{line}`; use std::make_unique or a container")


def rule_naked_thread(path, text, stripped):
    if path.startswith("src/exec/thread_pool."):
        return
    for lineno, line in grep_lines(stripped, r"\bstd::thread\b"):
        yield Finding(
            "naked-thread", path, lineno,
            "direct std::thread use; borrow workers from exec::ThreadPool")


SYNC_PATTERN = (
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|atomic|atomic_flag|atomic_ref|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|call_once|once_flag)\b"
    # The annotated wrappers count as synchronization too: a layer that
    # is single-threaded by contract has no business taking ebi locks.
    r"|\b(Mutex|MutexLock|CondVar)\b")

SYNC_ALLOWED_PREFIXES = ("src/serve/", "src/exec/", "src/storage/engine/",
                         "src/obs/")


def rule_raw_sync(path, text, stripped):
    if not path.startswith("src/"):
        return
    if path.startswith(SYNC_ALLOWED_PREFIXES):
        return
    for lineno, line in grep_lines(stripped, SYNC_PATTERN):
        yield Finding(
            "raw-sync", path, lineno,
            f"raw synchronization `{line}` outside the concurrency layers "
            "(src/serve/, src/exec/, src/storage/engine/, src/obs/); share "
            "state through snapshots or the thread pool")


RAW_MUTEX_PATTERN = (
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

RAW_MUTEX_ALLOWED = ("src/util/sync.h", "src/util/sync.cc")


def rule_raw_mutex(path, text, stripped):
    if not path.startswith("src/") or path in RAW_MUTEX_ALLOWED:
        return
    for lineno, line in grep_lines(stripped, RAW_MUTEX_PATTERN):
        yield Finding(
            "raw-mutex", path, lineno,
            f"raw std synchronization primitive `{line}`; use ebi::Mutex / "
            "MutexLock / CondVar (util/sync.h) so the capability "
            "annotations and debug lock-rank checks apply")


CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+"
    r"(?:EBI_\w+\s*(?:\([^()]*\))?\s+)*"     # EBI_CAPABILITY(...) etc.
    r"([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^;{}]*)?\{")

FIELD_ANNOTATIONS = ("EBI_GUARDED_BY", "EBI_PT_GUARDED_BY", "EBI_UNGUARDED")

# Statements that are not mutable data members: functions and anything
# with parens (annotations were checked first), nested types, aliases,
# statics, immutables, and the synchronization members themselves.
FIELD_EXEMPT_RE = re.compile(
    r"[()]|\b(using|typedef|friend|static|constexpr|enum|class|struct|"
    r"operator|const|Mutex|CondVar)\b|std::atomic|~|#")

FIELD_DECL_RE = re.compile(r"[\w>\]*&]\s+[A-Za-z_]\w*\s*(\[[^\]]*\])?\s*$")


def class_bodies(stripped):
    """Yields (name, body_start, top_level_text) for each class/struct,
    where top_level_text has nested brace regions blanked (preserving
    offsets) so member statements can be split on `;`."""
    for match in CLASS_HEAD_RE.finditer(stripped):
        if stripped[max(0, match.start() - 6):match.start()].strip() \
                .endswith("enum"):
            continue
        open_at = match.end() - 1
        depth = 0
        close_at = None
        for i in range(open_at, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    close_at = i
                    break
        if close_at is None:
            continue
        body = stripped[open_at + 1:close_at]
        top = []
        depth = 0
        for c in body:
            if c == "{":
                depth += 1
                top.append(" ")
            elif c == "}":
                depth -= 1
                top.append(" ")
            else:
                top.append(c if (depth == 0 or c == "\n") else " ")
        yield match.group(2), open_at + 1, "".join(top)


def rule_mutex_guarded_fields(path, text, stripped):
    if not path.startswith("src/") or path in RAW_MUTEX_ALLOWED:
        return
    for name, body_start, top in class_bodies(stripped):
        if not re.search(r"\bMutex\b", top):
            continue
        at = 0
        for statement in top.split(";"):
            stmt_start = body_start + at
            at += len(statement) + 1
            stmt = re.sub(r"\b(public|private|protected)\s*:", " ", statement)
            stmt = re.sub(r"=[^;]*$", "", stmt).strip()
            if not stmt or any(a in statement for a in FIELD_ANNOTATIONS):
                continue
            if FIELD_EXEMPT_RE.search(stmt):
                continue
            if not FIELD_DECL_RE.search(stmt):
                continue
            lineno = stripped.count("\n", 0, stmt_start + len(statement)) + 1
            yield Finding(
                "mutex-guarded-fields", path, lineno,
                f"member `{stmt.split()[-1]}` of mutex-owning "
                f"{name} lacks EBI_GUARDED_BY / EBI_PT_GUARDED_BY / "
                "EBI_UNGUARDED(reason)")


FILE_IO_PATTERNS = (
    r"^\s*#\s*include\s*<fstream>",
    r"\bstd::(i|o)?fstream\b",
    r"\b(std::)?(fopen|fwrite|fread|freopen|tmpfile)\s*\(",
    r"\b(fsync|fdatasync|fileno|mmap|pread|pwrite|ftruncate)\s*\(",
)

FILE_IO_ALLOWED_PREFIX = "src/storage/engine/"


def rule_raw_file_io(path, text, stripped):
    if not path.startswith("src/"):
        return
    if path.startswith(FILE_IO_ALLOWED_PREFIX):
        return
    for pattern in FILE_IO_PATTERNS:
        for lineno, line in grep_lines(stripped, pattern):
            yield Finding(
                "raw-file-io", path, lineno,
                f"raw file I/O `{line}` outside {FILE_IO_ALLOWED_PREFIX}; "
                "durable bytes go through the storage engine's pages or "
                "WAL")


NONDET_PATTERNS = (
    (r"\b(s?rand)\s*\(", "libc {0}() is unseeded nondeterminism"),
    (r"\bstd::random_device\b", "std::random_device is nondeterministic"),
    (r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)", "wall-clock seeding"),
)


def rule_nondeterminism(path, text, stripped):
    if not (path.startswith("src/") or path.startswith("tests/")):
        return
    for pattern, why in NONDET_PATTERNS:
        for lineno, line in grep_lines(stripped, pattern):
            match = re.search(pattern, line)
            name = match.group(1) if match.lastindex else ""
            yield Finding(
                "nondeterminism", path, lineno,
                why.format(name) + "; use an explicitly seeded ebi::Rng")


def expected_guard(path):
    parts = path.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return "EBI_" + stem.upper() + "_"


def rule_header_guard(path, text, stripped):
    if not path.endswith(".h"):
        return
    if re.search(r"^\s*#\s*pragma\s+once", stripped, re.MULTILINE):
        yield Finding(
            "header-guard", path, 1,
            "#pragma once; this repo uses #ifndef guards uniformly")
    guard = expected_guard(path)
    match = re.search(r"^\s*#\s*ifndef\s+(\S+)", stripped, re.MULTILINE)
    if match is None:
        yield Finding("header-guard", path, 1,
                      f"missing include guard (expected {guard})")
        return
    if match.group(1) != guard:
        yield Finding(
            "header-guard", path, 1,
            f"guard {match.group(1)} does not match path (expected {guard})")
        return
    if not re.search(r"^\s*#\s*define\s+" + re.escape(guard),
                     stripped, re.MULTILINE):
        yield Finding("header-guard", path, 1,
                      f"#ifndef {guard} without matching #define")


def rule_include_path(path, text, stripped):
    raw_lines = text.splitlines()
    for lineno, _ in grep_lines(stripped, r"^\s*#\s*include\s+\""):
        # strip_code blanks string-literal contents, so recover the
        # include path from the raw line.
        match = re.search(r'#\s*include\s+"([^"]+)"', raw_lines[lineno - 1])
        if match is None:
            continue
        inc = match.group(1)
        candidates = [
            os.path.join(ROOT, "src", inc),
            os.path.join(ROOT, os.path.dirname(path), inc),
        ]
        if not any(os.path.isfile(c) for c in candidates):
            yield Finding(
                "include-path", path, lineno,
                f'#include "{inc}" resolves against neither src/ nor the '
                "including directory")


def rule_test_registered(path, text, stripped, cmake_text=None):
    if not (path.startswith("tests/") and path.endswith(".cc")):
        return
    if not re.search(r"\bTEST(_F|_P)?\s*\(", stripped):
        return
    if cmake_text is None:
        cmake_path = os.path.join(ROOT, "tests", "CMakeLists.txt")
        with open(cmake_path, encoding="utf-8") as f:
            cmake_text = f.read()
    name = os.path.splitext(os.path.basename(path))[0]
    if not re.search(r"\b" + re.escape(name) + r"\b", cmake_text):
        yield Finding(
            "test-registered", path, 1,
            f"{name} defines TESTs but is not registered in "
            "tests/CMakeLists.txt")


METRIC_NAMES_HEADER = "src/obs/metric_names.h"


def rule_metric_name_literal(path, text, stripped):
    if path == METRIC_NAMES_HEADER:
        return
    # strip_code blanks string contents but keeps the opening quote, so a
    # raw-text match whose quote survives in the stripped text is a real
    # string literal (not a comment mentioning one).
    for match in re.finditer(r'"ebi\.', text):
        at = match.start()
        if stripped[at] != '"':
            continue
        lineno = text.count("\n", 0, at) + 1
        literal = re.match(r'"[^"\n]*"?', text[at:]).group(0)
        yield Finding(
            "metric-name-literal", path, lineno,
            f"metric name literal {literal} outside {METRIC_NAMES_HEADER}; "
            "reference the kMetric* constant instead")


METRIC_CONSTANT_RE = re.compile(r"\bconstexpr\s+char\s+(kMetric\w+)\s*\[")


def src_code_outside(excluded):
    """The comment- and string-stripped text of every src/ file but
    `excluded`, concatenated."""
    parts = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            if name.endswith(EXTENSIONS) and \
                    os.path.relpath(full, ROOT) != excluded:
                with open(full, encoding="utf-8") as f:
                    parts.append(strip_code(f.read()))
    return "\n".join(parts)


def rule_metric_name_unused(path, text, stripped, src_text=None):
    if path != METRIC_NAMES_HEADER:
        return
    if src_text is None:
        src_text = src_code_outside(METRIC_NAMES_HEADER)
    for match in METRIC_CONSTANT_RE.finditer(stripped):
        name = match.group(1)
        if not re.search(r"\b" + name + r"\b", src_text):
            lineno = stripped.count("\n", 0, match.start()) + 1
            yield Finding(
                "metric-name-unused", path, lineno,
                f"{name} is referenced by no other file under src/; "
                "delete it with the counter it named")


def registered_tests():
    """The ctest names tests/CMakeLists.txt registers via ebi_add_test."""
    with open(os.path.join(ROOT, "tests", "CMakeLists.txt"),
              encoding="utf-8") as f:
        return re.findall(r"^\s*ebi_add_test\((\w+)\)", f.read(), re.M)


CTEST_R_RE = re.compile(
    r"""(?:^|\s)-R\s+(?:'([^']*)'|"([^"]*)"|([^\s'"]+))""")
# A flag on its own line continues the command above it (YAML folded
# scalars); `- name:` list items have a space after the dash and do not.
FLAG_LINE_RE = re.compile(r"^\s*-[A-Za-z-]")


def ctest_filters(text):
    """Yields (lineno, pattern) for each -R argument of a ctest command,
    following backslash continuations and flag-only continuation lines."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#") or not re.search(r"\bctest\b", line):
            continue
        end = i
        while end + 1 < len(lines) and (
                lines[end].rstrip().endswith("\\")
                or FLAG_LINE_RE.match(lines[end + 1])):
            end += 1
        for lineno in range(i, end + 1):
            for match in CTEST_R_RE.finditer(lines[lineno]):
                pattern = next(g for g in match.groups() if g is not None)
                yield lineno + 1, pattern


def rule_ctest_filter(path, text):
    names = registered_tests()
    for lineno, pattern in ctest_filters(text):
        # The filters are flat name lists, so every `|` separates two
        # alternatives.
        for alt in pattern.split("|"):
            if not any(re.search(alt, n) for n in names):
                yield Finding("ctest-filter", path, lineno,
                              f"ctest -R alternative '{alt}' matches no "
                              "ebi_add_test(...) in tests/CMakeLists.txt")


# The C++ source rules; script files get rule_ctest_filter alone.
RULES = (
    rule_raw_bit_words,
    rule_simd_intrinsics,
    rule_naked_new,
    rule_naked_thread,
    rule_raw_sync,
    rule_raw_mutex,
    rule_mutex_guarded_fields,
    rule_raw_file_io,
    rule_nondeterminism,
    rule_header_guard,
    rule_include_path,
    rule_test_registered,
    rule_metric_name_literal,
    rule_metric_name_unused,
)

RULE_NAMES = (
    "raw-bit-words",
    "simd-intrinsics",
    "naked-new",
    "naked-thread",
    "raw-sync",
    "raw-mutex",
    "mutex-guarded-fields",
    "raw-file-io",
    "nondeterminism",
    "header-guard",
    "include-path",
    "test-registered",
    "metric-name-literal",
    "metric-name-unused",
    "ctest-filter",
)


def load_allowlist():
    allowed = set()
    if not os.path.isfile(ALLOWLIST):
        return allowed
    with open(ALLOWLIST, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                print(f"ebi-lint: malformed allowlist line: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            allowed.add((parts[0], parts[1]))
    return allowed


def lint_file(path, text, cmake_text=None, src_text=None):
    if path.endswith(SCRIPT_EXTENSIONS):
        return list(rule_ctest_filter(path, text))
    stripped = strip_code(text)
    findings = []
    for rule in RULES:
        if rule is rule_test_registered:
            findings.extend(rule(path, text, stripped, cmake_text))
        elif rule is rule_metric_name_unused:
            findings.extend(rule(path, text, stripped, src_text))
        else:
            findings.extend(rule(path, text, stripped))
    return findings


def repo_files():
    for top in SCAN_DIRS:
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, ROOT)
    for top in SCRIPT_DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, top))):
            if name.endswith(SCRIPT_EXTENSIONS):
                yield os.path.join(top, name)


def run_lint():
    allowed = load_allowlist()
    used = set()
    findings = []
    for path in repo_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            text = f.read()
        for finding in lint_file(path, text):
            key = (finding.rule, finding.path)
            if key in allowed:
                used.add(key)
                continue
            findings.append(finding)
    for finding in findings:
        print(finding)
    stale = {k for k in allowed if k[0] != "nolint"} - used
    for rule, path in sorted(stale):
        print(f"{ALLOWLIST}: stale allowlist entry `{rule} {path}` "
              "(nothing to allow)")
    if findings or stale:
        print(f"ebi-lint: {len(findings)} finding(s), "
              f"{len(stale)} stale allowlist entr(ies)")
        return 1
    print("ebi-lint: clean")
    return 0


FIXTURE_PATH_RE = re.compile(r"lint-fixture-path:\s*(\S+)")


def run_selftest():
    """Every tools/lint_fixtures/bad_<rule>* file must trigger exactly its
    rule at its pretend path; clean_* fixtures must trigger nothing."""
    if not os.path.isdir(FIXTURES):
        print(f"ebi-lint: fixture directory {FIXTURES} missing",
              file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for name in sorted(os.listdir(FIXTURES)):
        full = os.path.join(FIXTURES, name)
        if not name.endswith(EXTENSIONS + SCRIPT_EXTENSIONS):
            continue
        with open(full, encoding="utf-8") as f:
            text = f.read()
        match = FIXTURE_PATH_RE.search(text)
        if match is None:
            print(f"FAIL {name}: no `lint-fixture-path:` header")
            failures += 1
            continue
        pretend = match.group(1)
        # An unregistered-test fixture must not be saved by the real
        # CMakeLists, nor an unused metric by the real src/ tree, so give
        # those rules empty ones.
        fired = {f.rule for f in lint_file(pretend, text, cmake_text="",
                                           src_text="")}
        stem = os.path.splitext(name)[0]
        checked += 1
        if stem.startswith("clean_"):
            if fired:
                print(f"FAIL {name}: expected clean, fired {sorted(fired)}")
                failures += 1
            else:
                print(f"ok   {name}: clean as expected")
            continue
        expected = stem[len("bad_"):].replace("_", "-")
        if expected not in RULE_NAMES:
            print(f"FAIL {name}: fixture names unknown rule {expected}")
            failures += 1
        elif fired != {expected}:
            print(f"FAIL {name}: expected exactly {{{expected}}}, "
                  f"fired {sorted(fired)}")
            failures += 1
        else:
            print(f"ok   {name}: fires {expected} and nothing else")
    missing = set(RULE_NAMES) - {
        os.path.splitext(n)[0][len("bad_"):].replace("_", "-")
        for n in os.listdir(FIXTURES) if n.startswith("bad_")
    }
    if missing:
        print(f"FAIL: rules without a bad fixture: {sorted(missing)}")
        failures += 1
    if failures:
        print(f"ebi-lint selftest: {failures} failure(s)")
        return 1
    print(f"ebi-lint selftest: {checked} fixtures ok, all rules covered")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="verify the rules against known-bad fixtures")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()
    if args.list_rules:
        for name in RULE_NAMES:
            print(name)
        return 0
    if args.selftest:
        return run_selftest()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
