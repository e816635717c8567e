#!/usr/bin/env python3
"""ParaMount invariant linter.

Mechanical checks for the project's concurrency discipline — the part the
Clang thread-safety analysis cannot see (and a backstop for builds on
compilers without it). Rules:

  raw-sync        No naked std:: synchronization primitives (std::mutex,
                  std::shared_mutex, std::lock_guard, std::unique_lock,
                  std::scoped_lock, std::condition_variable[_any]) outside
                  src/util/sync.hpp. Use the annotated wrappers so the
                  capability analysis sees every lock.
  relaxed-comment Every std::memory_order_relaxed use must carry a
                  `// relaxed: <why the race/ordering is benign>` comment on
                  the same line or within the preceding 12 lines.
  hot-loop-check  No always-on PM_CHECK / PM_CHECK_MSG inside loop bodies of
                  the interval-enumeration kernels (lexical_enumerator.hpp,
                  bfs_enumerator.hpp). PM_DCHECK is fine (off under NDEBUG).
  test-sleep-sync No std::this_thread::sleep_for / sleep_until in tests —
                  sleeping is not synchronization; use condition variables,
                  joins, or polling with a deadline.
  raw-socket      No raw socket I/O calls (send, recv, sendto, recvfrom,
                  sendmsg, recvmsg) outside src/service/ — the FrameChannel
                  codec is the one place that touches bytes-on-the-wire, so
                  framing, partial-write handling, MSG_NOSIGNAL and EINTR
                  discipline live in exactly one reviewed spot.
  raw-mmap        No raw file-mapping or fd syscalls (mmap, munmap, msync,
                  madvise, open, openat) outside src/trace/ — the .pmt
                  reader/writer own the mapped-file lifecycle, so bounds
                  discipline and unmap-on-close live in exactly one reviewed
                  spot. Buffered stdio (fopen) is fine anywhere.

Waivers: append `// NOLINT-PM(rule-id): reason` on the offending line or the
line directly above it. A waiver without a reason is itself an error.

Exit status: 0 = clean, 1 = findings, 2 = usage/self-test harness error.

Self-test: `paramount_lint.py --self-test` runs the linter over the fixture
files in tools/lint/fixtures/: every `pass_*` file must be clean and every
`fail_<rule>_*` file must trigger exactly the rule named in its filename.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = ("raw-sync", "relaxed-comment", "hot-loop-check", "test-sleep-sync",
         "raw-socket", "raw-mmap")

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# Files/directories scanned by default (relative to the repo root).
DEFAULT_SCAN_DIRS = ("src", "tools", "tests")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# The linter's own pass/fail fixtures deliberately violate the rules; they
# are exercised by --self-test, not by the tree scan.
FIXTURE_DIR = Path("tools") / "lint" / "fixtures"

# The one legitimate home of raw primitives.
RAW_SYNC_EXEMPT = {Path("src/util/sync.hpp")}

# The one legitimate home of raw socket I/O (the FrameChannel codec).
RAW_SOCKET_EXEMPT_DIR = Path("src") / "service"

# The one legitimate home of raw mmap/fd syscalls (the .pmt reader/writer).
RAW_MMAP_EXEMPT_DIR = Path("src") / "trace"

# Enumeration kernels whose per-state loops must stay free of always-on
# checks (hot-loop-check).
HOT_LOOP_FILES = {
    Path("src/enumeration/lexical_enumerator.hpp"),
    Path("src/enumeration/bfs_enumerator.hpp"),
}

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_COMMENT_RE = re.compile(r"//\s*relaxed:")
RELAXED_COMMENT_WINDOW = 12
HOT_CHECK_RE = re.compile(r"\bPM_CHECK(?:_MSG)?\s*\(")
LOOP_HEAD_RE = re.compile(r"(?:^|[;}\s])(?:for|while)\s*\(")
SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
# Raw socket calls: plain or ::-qualified, but not member calls
# (channel.send_frame) or other identifiers merely containing the names.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>])(?:send|recv|sendto|recvfrom|sendmsg|recvmsg)\s*\(")
# Raw mapping/fd calls: plain or ::-qualified, but not member calls
# (writer.open) or identifiers merely containing the names (fopen).
RAW_MMAP_RE = re.compile(
    r"(?<![\w.>])(?:mmap|munmap|msync|madvise|open|openat)\s*\(")
NOLINT_RE = re.compile(r"//\s*NOLINT-PM\(([a-z\-]+)\)(\s*:\s*\S.*)?")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Per-line copy of the source with comments and string/char literals
    blanked (lengths preserved), so structural rules don't fire on prose."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif raw.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif raw.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(" ")
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                        continue
                    if raw[i] == quote:
                        buf.append(" ")
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


def waived(rule, lines, idx, findings):
    """True if line idx (0-based) or the line above carries a NOLINT-PM
    waiver for `rule`. A reason-less waiver is reported and not honored."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = NOLINT_RE.search(lines[j])
        if m and m.group(1) == rule:
            if not m.group(2):
                findings.append(
                    Finding("?", j + 1, rule,
                            "NOLINT-PM waiver needs a reason: "
                            "// NOLINT-PM(rule): why"))
                return False
            return True
    return False


def check_file(path, rel, lines, findings):
    code = strip_comments_and_strings(lines)
    is_test = rel.parts[0] == "tests" if rel.parts else False

    # raw-sync
    if rel not in RAW_SYNC_EXEMPT:
        for i, cl in enumerate(code):
            m = RAW_SYNC_RE.search(cl)
            if m and not waived("raw-sync", lines, i, findings):
                findings.append(Finding(
                    path, i + 1, "raw-sync",
                    f"naked {m.group(0).replace(' ', '')} — use the annotated "
                    "wrappers from util/sync.hpp (Mutex, MutexLock, CondVar, "
                    "...)"))

    # relaxed-comment
    for i, cl in enumerate(code):
        if not RELAXED_RE.search(cl):
            continue
        lo = max(0, i - RELAXED_COMMENT_WINDOW)
        window = lines[lo:i + 1]
        if any(RELAXED_COMMENT_RE.search(l) for l in window):
            continue
        if waived("relaxed-comment", lines, i, findings):
            continue
        findings.append(Finding(
            path, i + 1, "relaxed-comment",
            "memory_order_relaxed without a `// relaxed:` justification "
            f"within {RELAXED_COMMENT_WINDOW} lines"))

    # hot-loop-check
    if rel in HOT_LOOP_FILES:
        loop_depths = []  # brace depths at which a loop body opened
        depth = 0
        for i, cl in enumerate(code):
            if HOT_CHECK_RE.search(cl) and loop_depths:
                if not waived("hot-loop-check", lines, i, findings):
                    findings.append(Finding(
                        path, i + 1, "hot-loop-check",
                        "always-on PM_CHECK inside an enumeration loop — "
                        "hoist it out of the per-state path or downgrade to "
                        "PM_DCHECK"))
            if LOOP_HEAD_RE.search(cl):
                # The loop body opens at the next '{' (possibly this line).
                loop_depths.append(depth)
            for c in cl:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    while loop_depths and depth <= loop_depths[-1]:
                        loop_depths.pop()

    # test-sleep-sync
    if is_test:
        for i, cl in enumerate(code):
            if SLEEP_RE.search(cl) and not waived(
                    "test-sleep-sync", lines, i, findings):
                findings.append(Finding(
                    path, i + 1, "test-sleep-sync",
                    "sleep-based synchronization in a test — wait on a "
                    "condition variable, a join, or poll with a deadline"))

    # raw-socket
    if RAW_SOCKET_EXEMPT_DIR not in (rel.parents if rel.parts else ()):
        for i, cl in enumerate(code):
            m = RAW_SOCKET_RE.search(cl)
            if m and not waived("raw-socket", lines, i, findings):
                call = m.group(0).rstrip("( \t")
                findings.append(Finding(
                    path, i + 1, "raw-socket",
                    f"raw socket call {call}() outside src/service/ — go "
                    "through service::FrameChannel so framing and error "
                    "discipline stay in one place"))

    # raw-mmap
    if RAW_MMAP_EXEMPT_DIR not in (rel.parents if rel.parts else ()):
        for i, cl in enumerate(code):
            m = RAW_MMAP_RE.search(cl)
            if m and not waived("raw-mmap", lines, i, findings):
                call = m.group(0).rstrip("( \t")
                findings.append(Finding(
                    path, i + 1, "raw-mmap",
                    f"raw file-mapping call {call}() outside src/trace/ — "
                    "go through trace::TraceReader/TraceWriter so mapped-"
                    "file bounds and lifetime stay in one place"))


def scan(paths, root):
    findings = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            findings.append(Finding(path, 0, "io", str(e)))
            continue
        lines = text.splitlines()
        try:
            rel = path.resolve().relative_to(root)
        except ValueError:
            rel = Path(path.name)
        per_file = []
        check_file(path, rel, lines, per_file)
        for f in per_file:
            if f.path == "?":
                f.path = path
        findings.extend(per_file)
    return findings


def collect_sources(root):
    files = []
    for d in DEFAULT_SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix not in SOURCE_SUFFIXES or not p.is_file():
                continue
            if FIXTURE_DIR in p.relative_to(root).parents:
                continue
            files.append(p)
    return files


def self_test(root):
    fixtures = Path(__file__).resolve().parent / "fixtures"
    if not fixtures.is_dir():
        print(f"self-test: fixture directory missing: {fixtures}",
              file=sys.stderr)
        return 2
    failures = 0
    cases = sorted(fixtures.rglob("*.cpp")) + sorted(fixtures.rglob("*.hpp"))
    if not cases:
        print("self-test: no fixture files found", file=sys.stderr)
        return 2
    for case in cases:
        lines = case.read_text(encoding="utf-8").splitlines()
        # Fixtures declare their identity via filename:
        #   pass_*.cpp            -> must be clean
        #   fail_<rule>_*.cpp     -> must trigger <rule> (dashes as _)
        # A `// lint-as: <relpath>` header maps the fixture onto a repo
        # path so path-scoped rules (hot-loop-check, test-sleep-sync) fire.
        rel = Path("src") / "fixture" / case.name
        for line in lines[:5]:
            m = re.search(r"//\s*lint-as:\s*(\S+)", line)
            if m:
                rel = Path(m.group(1))
        per_file = []
        check_file(case, rel, lines, per_file)
        rules_hit = {f.rule for f in per_file}
        name = case.stem
        if name.startswith("pass_"):
            if per_file:
                failures += 1
                print(f"self-test FAIL: {case.name} expected clean, got:")
                for f in per_file:
                    print(f"  {f}")
        elif name.startswith("fail_"):
            expected = None
            for rule in RULES:
                if name.startswith("fail_" + rule.replace("-", "_")):
                    expected = rule
                    break
            if expected is None:
                failures += 1
                print(f"self-test FAIL: {case.name} names no known rule")
            elif expected not in rules_hit:
                failures += 1
                print(f"self-test FAIL: {case.name} expected [{expected}], "
                      f"got {sorted(rules_hit) or 'clean'}")
        else:
            failures += 1
            print(f"self-test FAIL: {case.name} must start with pass_/fail_")
    if failures:
        print(f"self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 2
    print(f"self-test: {len(cases)} fixtures OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: src/ tools/ tests/)")
    ap.add_argument("--root", default=str(REPO_ROOT),
                    help="repository root for path-scoped rules")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter against its pass/fail fixtures")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(Path(args.root))

    root = Path(args.root).resolve()
    paths = ([Path(f) for f in args.files]
             if args.files else collect_sources(root))
    findings = scan(paths, root)
    for f in findings:
        print(f)
    if findings:
        print(f"paramount_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
