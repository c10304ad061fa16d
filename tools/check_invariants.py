#!/usr/bin/env python3
"""Repo-invariant linter for the MOPE codebase.

Machine-enforces the correctness conventions that code review used to carry:

  R1 ad-hoc-randomness   rand()/srand()/std::random_device/std::mt19937 are
                         banned outside src/common/random.* — all simulation
                         randomness must flow through mope::Rng (seedable,
                         reproducible) and all crypto randomness through
                         crypto::CtrDrbg. Applies to src/, tests/, bench/,
                         examples/.
  R2 wall-clock          time(), clock(), gettimeofday, clock_gettime and
                         std::chrono clocks are banned in src/ — experiment
                         code must be bit-deterministic from its seed.
                         (bench/ measures wall time on purpose and is exempt.)
  R3 ignored-result      Regex backstop for discarded Status/Result values
                         the compiler can't see (e.g. behind #ifdef): a
                         bare-statement call to a known Status/Result API is
                         a violation anywhere in src/.
  R4 void-cast-crypto    `(void)` casts of call expressions and
                         MOPE_IGNORE_STATUS are banned in src/crypto/ and
                         src/ope/ — crypto paths propagate errors, never
                         swallow them.
  R5 assert-crypto       assert() is banned in src/crypto/: it vanishes in
                         NDEBUG builds, silently removing the check from the
                         exact builds that ship. Use MOPE_CHECK (always on)
                         or return a Status.
  R6 raw-socket          socket/send/recv syscalls (and ::-qualified
                         connect/bind/listen/accept/poll/shutdown) are banned
                         outside src/net/ — all networking goes through
                         net::Transport so deadlines, retries and fault
                         injection stay in one audited layer. Applies to
                         src/, tests/, bench/, examples/.
  R7 clock-injection     std::chrono::steady_clock / system_clock /
                         high_resolution_clock are banned everywhere (src/,
                         tests/, bench/, examples/) except src/obs/clock.*,
                         the one sanctioned wall-clock shim. Everything that
                         measures time takes an obs::Clock so tests can
                         substitute a ManualClock and trace/latency output
                         stays deterministic under test.
  R8 auditor-ciphertext-only
                         src/obs/leakage.* must not include any src/ope/,
                         src/proxy/ or src/sql/ header. The live leakage
                         auditor models what the *untrusted server* can
                         compute from the ciphertext stream; an include of
                         key-holding or plaintext-holding layers would let
                         trusted-side data leak into that model and silently
                         overstate the monitor's power. The trust boundary
                         is enforced mechanically, not by review.
  R9 raw-mutex           Raw standard mutex/lock/condvar types are banned
                         outside src/common/: locking goes through the
                         annotated mope::Mutex / mope::MutexLock wrappers
                         (common/thread_annotations.h) so Clang's Thread
                         Safety Analysis sees every acquisition. Applies to
                         src/, tests/, bench/, examples/.
     mutex-unannotated   (companion file-level check) A src/ file outside
                         src/common/ that declares a mope::Mutex or
                         mope::SharedMutex member must annotate at least one
                         member with MOPE_GUARDED_BY / MOPE_PT_GUARDED_BY —
                         a capability nothing is guarded by protects
                         nothing, and the analysis silently passes the file.
  R10 raw-file-io        fopen/open/creat and the std::fstream family are
                         banned in src/ outside src/storage/ — every file
                         touch goes through storage::Env (env.h) so fsync
                         discipline, atomic replace and fault injection live
                         in one audited layer. Catalog snapshots, CSV
                         import/export and the storage engine all ride the
                         same seam; tests swap in InMemEnv/FaultyEnv.
  R11 raw-output         printf/fprintf/puts/fputs and std::cout/cerr/clog
                         are banned in src/ and tools/ outside src/obs/log.*
                         (the logger's own stderr sink) — operational
                         messages go through the structured logger so they
                         are parseable, leveled, rate-limited and serialized
                         under one sink lock. Interactive output (usage
                         text, --metrics dumps, abort-path diagnostics that
                         cannot trust the logger) opts out per line with
                         `// invariant-ok: R11 <reason>`.
  R12 operator-hook-override
                         (file-level check) In a file that defines an
                         engine::Operator subclass, overriding the public
                         `Open()` / `Next()` entry points is banned:
                         subclasses implement the protected `OpenImpl()` /
                         `NextImpl()` hooks instead. The public methods are
                         the *instrumented* non-virtual dispatch points —
                         an operator that overrides them silently drops out
                         of EXPLAIN ANALYZE (no OpStats, no per-type
                         histograms), and profiling-off still pays whatever
                         the override does. Applies to src/, tests/, bench/,
                         examples/.
  R13 fatal-handler-unsafe
                         (file-level check) A handler registered for a fatal
                         signal (SIGSEGV/SIGABRT/SIGBUS/SIGILL/SIGFPE via
                         std::signal or a sigaction assignment) may only call
                         async-signal-safe code. Inside the handler body the
                         linter bans the structured logger (MOPE_LOG takes
                         the sink lock — self-deadlock if the signal landed
                         mid-log), stdio, heap allocation (new/malloc and
                         allocating std:: containers) and mutex acquisition.
                         The sanctioned crash path is the flight recorder's
                         FatalSignalDump() — pre-opened fd, lock-free rings,
                         hand-rolled formatting — plus std::signal/std::raise
                         to re-deliver with default disposition. Applies to
                         every linted tree.

  R14 thread-local        `thread_local` is banned in src/ outside
                         src/obs/trace.cc (the active trace: the one
                         implicit per-query context) and
                         src/common/thread_annotations.cc (lock-rank
                         bookkeeping). A second thread-local "current X"
                         splits one query's attribution across mechanisms
                         again; per-query state belongs in the active
                         obs::Trace, which registry counters already credit.
                         Anything else needs a reviewed
                         `// invariant-ok: R14 <reason>`.

  R15 isa-specific        x86 intrinsic headers (<immintrin.h>,
                         <x86intrin.h>, <wmmintrin.h>), per-function
                         `__attribute__((target(...)))` and
                         `__builtin_cpu_supports` are banned in src/ outside
                         src/common/crc32.cc. CPU-specific code lives in the
                         one file that keeps a portable twin of it and has a
                         test comparing the two on every host; anywhere else
                         it needs `// invariant-ok: R15 <reason>`.

A line may opt out with a trailing `// invariant-ok: <reason>` comment; the
reason is mandatory and greppable. Exit status: 0 clean, 1 violations,
2 usage error.

Usage:  python3 tools/check_invariants.py [--root DIR]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
ESCAPE_RE = re.compile(r"//\s*invariant-ok:\s*\S")

# Status/Result-returning APIs covered by the R3 regex backstop. A line that
# *starts* with a call to one of these (no assignment, no return, no macro
# wrapper, not a continuation of an enclosing call) is discarding the error
# channel. Names with void-returning homonyms elsewhere in the tree (e.g.
# BPlusTree::Insert) are deliberately absent — the compiler's [[nodiscard]]
# covers those; this backstop exists for code the compiler may not see
# (#ifdef'd configs, generated amalgamations).
NODISCARD_API = (
    "Encrypt|Decrypt|EncryptRange|DecryptFloorCeil|"
    "CreateIndex|CreateTable|DropTable|SaveCatalog|LoadCatalog|"
    "SerializeCatalog|DeserializeCatalog|HgdSample|RotateKey"
)


class Rule:
    def __init__(self, rule_id, pattern, message, includes, excludes=(),
                 statement_level_only=False, match_raw=False):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.includes = includes  # path-prefix allowlist (relative, POSIX)
        self.excludes = excludes  # path-prefix denylist
        # Only fire when the line starts at paren depth 0, i.e. is not a
        # continuation of an enclosing multi-line call such as
        # MOPE_ASSIGN_OR_RETURN(x,\n    scheme.Encrypt(m));
        self.statement_level_only = statement_level_only
        # Match against the raw line instead of the string-stripped one —
        # needed by rules that inspect #include "..." paths, which live
        # inside string literals.
        self.match_raw = match_raw

    def applies_to(self, rel: str) -> bool:
        if not any(rel.startswith(p) for p in self.includes):
            return False
        return not any(rel.startswith(p) for p in self.excludes)


RULES = [
    Rule(
        "ad-hoc-randomness",
        r"std::mt19937|std::random_device|\b[sd]?rand\s*\(|\bsrandom\s*\(",
        "ad-hoc RNG: use mope::Rng (simulation) or crypto::CtrDrbg (crypto), "
        "both seedable via BitSource",
        includes=("src/", "tests/", "bench/", "examples/"),
        excludes=("src/common/random.",),
    ),
    Rule(
        "wall-clock",
        r"(?<![\w])time\s*\(|\bclock\s*\(\s*\)|\bgettimeofday\b|"
        r"\bclock_gettime\b|std::chrono::(system|steady|high_resolution)_clock",
        "wall-clock in deterministic experiment code: derive all variation "
        "from the experiment seed",
        includes=("src/",),
        excludes=("src/obs/clock.",),
    ),
    # The C-level primitives above are R2's concern; R7 is specifically the
    # std::chrono clock types, in *all* trees: bench and tests time things
    # legitimately, but must do it through an injected obs::Clock (steady in
    # production, ManualClock in tests) or results aren't reproducible.
    Rule(
        "clock-injection",
        r"std::chrono::(system|steady|high_resolution)_clock",
        "direct std::chrono clock: take an obs::Clock (obs/clock.h) so time "
        "is injectable and tests stay deterministic",
        includes=("src/", "tests/", "bench/", "examples/"),
        excludes=("src/obs/clock.",),
    ),
    Rule(
        "ignored-result",
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->))*(?:" + NODISCARD_API +
        r")\s*\([^;]*\)\s*;\s*(?://(?!\s*invariant-ok).*)?$",
        "bare-statement call to a Status/Result API discards the error: "
        "propagate it or branch on it",
        includes=("src/",),
        statement_level_only=True,
    ),
    Rule(
        "void-cast-crypto",
        r"\(\s*void\s*\)\s*[A-Za-z_(]|MOPE_IGNORE_STATUS",
        "error swallowed on a crypto path: src/crypto/ and src/ope/ must "
        "propagate Status/Result, not (void)-cast or MOPE_IGNORE_STATUS it",
        includes=("src/crypto/", "src/ope/"),
    ),
    Rule(
        "assert-crypto",
        r"(?<![\w])assert\s*\(",
        "assert() disappears under NDEBUG; use MOPE_CHECK or return Status",
        includes=("src/crypto/",),
    ),
    # Unambiguous socket syscalls are matched by bare name; the generic-verb
    # ones (connect, bind, accept, poll, ...) only when ::-qualified, so an
    # `accept(visitor)` method or std::bind stays legal outside src/net/.
    Rule(
        "raw-socket",
        r"(?<![\w:])(?:socket|send|recv|sendto|recvfrom|getaddrinfo)\s*\(|"
        r"(?<![\w:])::(?:connect|bind|listen|accept|poll|shutdown)\s*\(",
        "raw socket call outside src/net/: go through net::Transport / "
        "net::TcpListener so deadlines, retries and fault injection apply",
        includes=("src/", "tests/", "bench/", "examples/"),
        excludes=("src/net/",),
    ),
    # The include pattern matches both "ope/..." (the repo's canonical
    # spelling, -I src) and a "src/ope/..." or "../ope/..." relative path.
    Rule(
        "raw-mutex",
        r"std::(?:recursive_|timed_|shared_timed_|shared_)?mutex\b|"
        r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
        r"std::condition_variable",
        "raw standard mutex/lock type: use mope::Mutex / mope::MutexLock / "
        "mope::CondVar (common/thread_annotations.h) so the thread safety "
        "analysis sees the acquisition",
        includes=("src/", "tests/", "bench/", "examples/"),
        excludes=("src/common/",),
    ),
    # Bare lowercase open()/creat() are matched only when not preceded by an
    # identifier char, ':', '.' or '>', so Wal::Open, pool->Open and
    # "reopen" stay legal; the fstream family and f*open are matched by name.
    Rule(
        "raw-file-io",
        r"std::(?:i|o)?fstream\b|std::filebuf\b|"
        r"(?<![\w:])(?:fopen|freopen|tmpfile|mkstemp)\s*\(|"
        r"(?<![\w:.>])(?:open|openat|creat)\s*\(",
        "raw file I/O outside src/storage/: go through storage::Env "
        "(storage/env.h) so fsync discipline, atomic replace and fault "
        "injection stay in one audited layer",
        includes=("src/",),
        excludes=("src/storage/",),
    ),
    # Operational messages must be structured (one parseable line, level,
    # subsystem, rate limit, single sink lock) — a stray fprintf interleaves
    # mid-line with the log under concurrency and is invisible to scrapers.
    # Interactive surfaces (usage text, --metrics dumps, abort diagnostics
    # that cannot trust the logger) opt out per-line with invariant-ok.
    Rule(
        "raw-output",
        r"(?<![\w.>])(?:v?f?printf|puts|fputs|fputc|putchar)\s*\(|"
        r"std::c(?:out|err|log)\b",
        "raw stdio/stream output: operational messages go through the "
        "structured logger (obs/log.h, MOPE_LOG); interactive usage/help "
        "text may opt out with invariant-ok",
        includes=("src/", "tools/"),
        excludes=("src/obs/log.",),
    ),
    Rule(
        "thread-local",
        r"\bthread_local\b",
        "thread_local outside src/obs/trace.cc and "
        "src/common/thread_annotations.cc: per-query context belongs in the "
        "active obs::Trace; other per-thread state needs invariant-ok",
        includes=("src/",),
        excludes=("src/obs/trace.cc", "src/common/thread_annotations.cc"),
    ),
    Rule(
        "isa-specific",
        r"#\s*include\s*<(?:immintrin|x86intrin|wmmintrin)\.h>|"
        r"__attribute__\s*\(\s*\(\s*target\s*\(|__builtin_cpu_supports\b",
        "CPU-specific code outside src/common/crc32.cc: keep it beside a "
        "portable twin and a test comparing the two, or justify it with "
        "invariant-ok",
        includes=("src/",),
        excludes=("src/common/crc32.cc",),
    ),
    Rule(
        "auditor-ciphertext-only",
        r'#\s*include\s*["<](?:\.\./)*(?:src/)?(?:ope|proxy|sql)/',
        "the leakage auditor is ciphertext-only: src/obs/leakage.* must not "
        "see key-holding (ope/, proxy/) or plaintext-holding (sql/) layers — "
        "it models what the untrusted server can compute",
        includes=("src/obs/leakage.",),
        match_raw=True,
    ),
]


def strip_strings(line: str) -> str:
    """Blanks out string/char literal contents so rules don't match inside
    them (e.g. an error message mentioning \"time(\")."""
    out = []
    quote = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == "\\":
                i += 2
                out.append("..")
                continue
            if ch == quote:
                quote = None
                out.append(ch)
            else:
                out.append(".")
        else:
            if ch in "\"'":
                quote = ch
            out.append(ch)
        i += 1
    return "".join(out)


# File-level companion to R9: a wrapper-mutex *member declaration* (as
# opposed to a MutexLock/CondVar local) obliges the file to annotate what it
# guards. MutexLock/WriterMutexLock/... don't match: the name must end right
# after "Mutex" followed by whitespace and an identifier.
MUTEX_DECL_RE = re.compile(r"\b(?:mope::)?(?:Shared)?Mutex\s+[A-Za-z_]\w*\s*[;{(=]")
GUARD_ANNOTATION_RE = re.compile(r"\bMOPE_(?:PT_)?GUARDED_BY\s*\(")


def check_mutex_annotations(rel: str, lines: list[tuple[int, str, str]]
                            ) -> list[str]:
    """lines: (lineno, raw, comment-and-string-stripped code)."""
    if not rel.startswith("src/") or rel.startswith("src/common/"):
        return []
    decls = [(lineno, raw) for lineno, raw, code in lines
             if MUTEX_DECL_RE.search(code) and not ESCAPE_RE.search(raw)]
    if not decls:
        return []
    if any(GUARD_ANNOTATION_RE.search(code) for _, _, code in lines):
        return []
    lineno, raw = decls[0]
    return [
        f"{rel}:{lineno}: [mutex-unannotated] file declares a mope::Mutex "
        "but annotates nothing with MOPE_GUARDED_BY / MOPE_PT_GUARDED_BY — "
        "state the capability's protectees or the analysis checks nothing\n"
        f"    {raw.strip()}"
    ]


# R12: a class inheriting (possibly indirectly qualified) engine::Operator.
OPERATOR_SUBCLASS_RE = re.compile(
    r"\bclass\s+\w+(?:\s+final)?\s*:\s*public\s+(?:\w+::)*Operator\b")
# An override of the public hook names. `OpenImpl(` / `NextImpl(` do not
# match: the word boundary requires `(` right after Open/Next.
PUBLIC_HOOK_OVERRIDE_RE = re.compile(
    r"\b(?:Open|Next)\s*\([^)]*\)\s*(?:const\s*)?override\b")


def check_operator_hooks(rel: str, lines: list[tuple[int, str, str]]
                         ) -> list[str]:
    """R12: Operator subclasses must implement OpenImpl/NextImpl, never
    override the public Open/Next — those are the non-virtual instrumented
    dispatch points that keep EXPLAIN ANALYZE's actuals complete.

    lines: (lineno, raw, comment-and-string-stripped code)."""
    if not any(rel.startswith(p)
               for p in ("src/", "tests/", "bench/", "examples/")):
        return []
    if not any(OPERATOR_SUBCLASS_RE.search(code) for _, _, code in lines):
        return []
    violations = []
    for lineno, raw, code in lines:
        if ESCAPE_RE.search(raw):
            continue
        if PUBLIC_HOOK_OVERRIDE_RE.search(code):
            violations.append(
                f"{rel}:{lineno}: [operator-hook-override] Operator "
                "subclasses must not override the public Open()/Next() — "
                "implement the protected OpenImpl()/NextImpl() hooks so the "
                "instrumented base dispatch (OpStats, EXPLAIN ANALYZE) "
                "stays on the call path\n"
                f"    {raw.strip()}"
            )
    return violations


# R13: handlers registered for fatal signals. The direct std::signal form
# names both the signal and the handler; the sigaction form only names the
# handler, so it counts as fatal when the file mentions a fatal signal.
FATAL_SIGNAL_RE = re.compile(r"\bSIG(?:SEGV|ABRT|BUS|ILL|FPE)\b")
SIGNAL_REGISTER_RE = re.compile(
    r"\b(?:std::)?signal\s*\(\s*SIG(?:SEGV|ABRT|BUS|ILL|FPE)\s*,\s*"
    r"&?\s*([A-Za-z_]\w*)\s*\)")
SIGACTION_HANDLER_RE = re.compile(
    r"(?:\.|->)sa_(?:sigaction|handler)\s*=\s*&?\s*([A-Za-z_]\w*)")
# Async-signal-UNSAFE constructs: the logger (sink lock), stdio (flockfile /
# malloc inside), heap allocation, allocating containers, and mutexes. The
# flight recorder's FatalSignalDump / std::signal / std::raise are the
# sanctioned vocabulary and none of them match.
UNSAFE_IN_FATAL_HANDLER_RE = re.compile(
    r"\bMOPE_LOG\b|\bMOPE_CHECK\b|"
    r"(?<![\w.>])v?(?:f|s|sn)?printf\s*\(|"
    r"(?<![\w.>])(?:puts|fputs|fputc|putchar|fflush|fwrite)\s*\(|"
    r"std::c(?:out|err|log)\b|"
    r"\b(?:malloc|calloc|realloc|free)\s*\(|"
    r"(?<!\w)new\s+[A-Za-z_:]|"
    r"std::(?:string|to_string|vector|map|unordered_map|ostringstream)\b|"
    r"\b(?:Writer)?MutexLock\b|\block_guard\b|\bunique_lock\b")


def check_fatal_handlers(rel: str, lines: list[tuple[int, str, str]]
                         ) -> list[str]:
    """R13: fatal-signal handlers may only call the async-signal-safe
    flight-recorder dump API (obs::FlightRecorder::FatalSignalDump) and
    re-raise machinery — never the logger, stdio, the heap, or a mutex.

    lines: (lineno, raw, comment-and-string-stripped code)."""
    handlers = set()
    file_mentions_fatal = any(FATAL_SIGNAL_RE.search(code)
                              for _, _, code in lines)
    for _, _, code in lines:
        for m in SIGNAL_REGISTER_RE.finditer(code):
            handlers.add(m.group(1))
        if file_mentions_fatal:
            for m in SIGACTION_HANDLER_RE.finditer(code):
                handlers.add(m.group(1))
    handlers -= {"SIG_DFL", "SIG_IGN"}
    if not handlers:
        return []

    violations = []
    for name in sorted(handlers):
        # The handler's definition, if it lives in this file: brace-match the
        # body of `... Name(int ...) {`.
        definition_re = re.compile(
            r"\b" + re.escape(name) + r"\s*\(\s*(?:int|const\s+int)\b")
        in_body = False
        depth = 0
        seen_open = False
        for lineno, raw, code in lines:
            if not in_body:
                if definition_re.search(code) and ";" not in code.split(
                        name, 1)[1].split("{", 1)[0]:
                    in_body = True
                    depth = 0
                    seen_open = False
                else:
                    continue
            depth += code.count("{") - code.count("}")
            if code.count("{") > 0:
                seen_open = True
            if seen_open and not ESCAPE_RE.search(raw):
                m = UNSAFE_IN_FATAL_HANDLER_RE.search(code)
                if m:
                    violations.append(
                        f"{rel}:{lineno}: [fatal-handler-unsafe] "
                        f"`{m.group(0).strip()}` inside fatal-signal handler "
                        f"{name}(): handlers run with arbitrary locks held "
                        "and may only call async-signal-safe code — use "
                        "obs::FlightRecorder::FatalSignalDump() (pre-opened "
                        "fd, lock-free rings) and std::signal/std::raise to "
                        "re-deliver\n"
                        f"    {raw.strip()}"
                    )
            if seen_open and depth <= 0:
                in_body = False
    return violations


def lint_file(root: Path, rel: str) -> list[str]:
    violations = []
    rules = [r for r in RULES if r.applies_to(rel)]
    try:
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [f"{rel}: unreadable: {err}"]
    depth = 0  # running ( ... ) nesting depth at the start of each line
    stripped_lines = []  # (lineno, raw, comment-and-string-stripped code)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_strings(raw)
        code = line.split("//", 1)[0]
        stripped_lines.append((lineno, raw, code))
        depth_at_start = depth
        depth = max(0, depth + code.count("(") - code.count(")"))
        if ESCAPE_RE.search(raw):
            continue
        for rule in rules:
            if rule.statement_level_only and depth_at_start > 0:
                continue
            if rule.pattern.search(raw if rule.match_raw else line):
                violations.append(
                    f"{rel}:{lineno}: [{rule.rule_id}] {rule.message}\n"
                    f"    {raw.strip()}"
                )
    violations.extend(check_mutex_annotations(rel, stripped_lines))
    violations.extend(check_operator_hooks(rel, stripped_lines))
    violations.extend(check_fatal_handlers(rel, stripped_lines))
    return violations


def collect_sources(root: Path) -> list[str]:
    rels = []
    for top in ("src", "tests", "bench", "examples", "tools"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                rels.append(path.relative_to(root).as_posix())
    return rels


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: this script's repo)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not root.is_dir():
        print(f"check_invariants: no such directory: {root}", file=sys.stderr)
        return 2

    sources = collect_sources(root)
    if not sources:
        print(f"check_invariants: no sources under {root}", file=sys.stderr)
        return 2

    violations = []
    for rel in sources:
        violations.extend(lint_file(root, rel))

    if violations:
        print(f"check_invariants: {len(violations)} violation(s):\n")
        for v in violations:
            print(v)
        return 1
    print(f"check_invariants: OK ({len(sources)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
