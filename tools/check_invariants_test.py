#!/usr/bin/env python3
"""Self-test for tools/check_invariants.py.

Builds a throwaway source tree seeded with one violation per rule, runs the
linter against it, and asserts every seeded violation is caught — plus that a
clean file, an `invariant-ok` escape, a string literal, and an exempt path
produce no findings. Wired into ctest as `lint.invariants_selftest`.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_invariants  # noqa: E402


def run_on_tree(files: dict[str, str]) -> list[str]:
    """Writes {relpath: contents} into a temp root and lints it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, contents in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents, encoding="utf-8")
        violations = []
        for rel in check_invariants.collect_sources(root):
            violations.extend(check_invariants.lint_file(root, rel))
        return violations


def rule_ids(violations: list[str]) -> set[str]:
    ids = set()
    for v in violations:
        start = v.find("[")
        end = v.find("]", start)
        if start != -1 and end != -1:
            ids.add(v[start + 1 : end])
    return ids


class CatchesSeededViolations(unittest.TestCase):
    def test_ad_hoc_randomness(self) -> None:
        v = run_on_tree(
            {"src/dist/bad.cc": "#include <random>\nstd::mt19937 gen(42);\n"}
        )
        self.assertIn("ad-hoc-randomness", rule_ids(v))

    def test_rand_in_tests_tree(self) -> None:
        v = run_on_tree({"tests/bad_test.cc": "int x = rand();\n"})
        self.assertIn("ad-hoc-randomness", rule_ids(v))

    def test_wall_clock(self) -> None:
        v = run_on_tree(
            {"src/workload/bad.cc": "#include <ctime>\nlong t = time(nullptr);\n"}
        )
        self.assertIn("wall-clock", rule_ids(v))

    def test_chrono_clock(self) -> None:
        v = run_on_tree(
            {
                "src/engine/bad.cc":
                    "auto t = std::chrono::steady_clock::now();\n"
            }
        )
        # A std::chrono clock in src/ breaks both determinism (R2) and clock
        # injectability (R7).
        self.assertIn("wall-clock", rule_ids(v))
        self.assertIn("clock-injection", rule_ids(v))

    def test_chrono_clock_in_bench(self) -> None:
        # bench/ is exempt from R2 (it may measure wall time) but not from
        # R7: the measurement must flow through an injectable obs::Clock.
        v = run_on_tree(
            {"bench/timing.cc":
                 "auto t = std::chrono::steady_clock::now();\n"}
        )
        self.assertNotIn("wall-clock", rule_ids(v))
        self.assertIn("clock-injection", rule_ids(v))

    def test_chrono_clock_in_tests(self) -> None:
        v = run_on_tree(
            {"tests/bad_test.cc":
                 "auto t = std::chrono::system_clock::now();\n"}
        )
        self.assertIn("clock-injection", rule_ids(v))

    def test_ignored_result(self) -> None:
        v = run_on_tree({"src/engine/bad.cc": "  table->CreateIndex(col);\n"})
        self.assertIn("ignored-result", rule_ids(v))

    def test_ignored_result_plain_call(self) -> None:
        v = run_on_tree({"src/ope/bad.cc": "  scheme.Encrypt(m);\n"})
        self.assertIn("ignored-result", rule_ids(v))

    def test_void_cast_in_crypto(self) -> None:
        v = run_on_tree({"src/crypto/bad.cc": "  (void)DoEncrypt(m);\n"})
        self.assertIn("void-cast-crypto", rule_ids(v))

    def test_ignore_status_macro_in_ope(self) -> None:
        v = run_on_tree(
            {"src/ope/bad.cc": '  MOPE_IGNORE_STATUS(st, "meh");\n'}
        )
        self.assertIn("void-cast-crypto", rule_ids(v))

    def test_assert_in_crypto(self) -> None:
        v = run_on_tree(
            {"src/crypto/bad.cc": "#include <cassert>\nvoid f(){assert(1);}\n"}
        )
        self.assertIn("assert-crypto", rule_ids(v))

    def test_raw_socket_outside_net(self) -> None:
        v = run_on_tree(
            {"src/engine/bad.cc": "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"}
        )
        self.assertIn("raw-socket", rule_ids(v))

    def test_raw_recv_in_tests_tree(self) -> None:
        v = run_on_tree(
            {"tests/bad_test.cc": "ssize_t n = recv(fd, buf, len, 0);\n"}
        )
        self.assertIn("raw-socket", rule_ids(v))

    def test_qualified_connect_outside_net(self) -> None:
        v = run_on_tree(
            {"examples/bad.cpp": "int rc = ::connect(fd, addr, len);\n"}
        )
        self.assertIn("raw-socket", rule_ids(v))

    def test_leakage_auditor_includes_ope(self) -> None:
        v = run_on_tree(
            {"src/obs/leakage.cc": '#include "ope/mope.h"\n'}
        )
        self.assertIn("auditor-ciphertext-only", rule_ids(v))

    def test_leakage_auditor_includes_proxy_header(self) -> None:
        v = run_on_tree(
            {"src/obs/leakage.h": '#include "proxy/proxy.h"\n'}
        )
        self.assertIn("auditor-ciphertext-only", rule_ids(v))

    def test_leakage_auditor_includes_sql_angle(self) -> None:
        v = run_on_tree(
            {"src/obs/leakage.cc": "#include <sql/parser.h>\n"}
        )
        self.assertIn("auditor-ciphertext-only", rule_ids(v))

    def test_leakage_auditor_includes_src_relative(self) -> None:
        v = run_on_tree(
            {"src/obs/leakage.cc": '#include "../ope/ope.h"\n'}
        )
        self.assertIn("auditor-ciphertext-only", rule_ids(v))

    def test_raw_mutex_member(self) -> None:
        v = run_on_tree(
            {"src/net/bad.h": "#include <mutex>\n"
                              "class T { std::mutex mu_; };\n"}
        )
        self.assertIn("raw-mutex", rule_ids(v))

    def test_raw_lock_guard_in_tests_tree(self) -> None:
        v = run_on_tree(
            {"tests/bad_test.cc":
                 "const std::lock_guard<std::mutex> lock(mu);\n"}
        )
        self.assertIn("raw-mutex", rule_ids(v))

    def test_raw_shared_mutex_and_condvar(self) -> None:
        v = run_on_tree(
            {"src/engine/bad.h": "std::shared_mutex rw_;\n",
             "src/obs/bad.cc": "std::condition_variable cv_;\n"}
        )
        self.assertIn("raw-mutex", rule_ids(v))

    def test_raw_fstream_outside_storage(self) -> None:
        v = run_on_tree(
            {"src/engine/bad.cc": "#include <fstream>\n"
                                  "std::ofstream out(path);\n"}
        )
        self.assertIn("raw-file-io", rule_ids(v))

    def test_raw_fopen_outside_storage(self) -> None:
        v = run_on_tree(
            {"src/workload/bad.cc": 'FILE* f = fopen("x.csv", "rb");\n'}
        )
        self.assertIn("raw-file-io", rule_ids(v))

    def test_raw_open_syscall_outside_storage(self) -> None:
        v = run_on_tree(
            {"src/obs/bad.cc": "int fd = open(path, O_RDWR);\n"}
        )
        self.assertIn("raw-file-io", rule_ids(v))

    def test_raw_fprintf_outside_logger(self) -> None:
        v = run_on_tree(
            {"src/engine/bad.cc":
                 "#include <cstdio>\n"
                 'void F() { std::fprintf(stderr, "recovered\\n"); }\n'}
        )
        self.assertIn("raw-output", rule_ids(v))

    def test_raw_printf_in_tools(self) -> None:
        v = run_on_tree(
            {"tools/bad_daemon.cc": 'void F() { printf("listening\\n"); }\n'}
        )
        self.assertIn("raw-output", rule_ids(v))

    def test_raw_cerr_stream(self) -> None:
        v = run_on_tree(
            {"src/net/bad.cc":
                 "#include <iostream>\n"
                 'void F() { std::cerr << "oops" << std::endl; }\n'}
        )
        self.assertIn("raw-output", rule_ids(v))

    def test_unannotated_wrapper_mutex(self) -> None:
        # A capability nothing is guarded by: the declaring file must carry
        # at least one MOPE_GUARDED_BY / MOPE_PT_GUARDED_BY.
        v = run_on_tree(
            {"src/net/bad.h":
                 '#include "common/thread_annotations.h"\n'
                 "class T {\n"
                 "  mope::Mutex mu_;\n"
                 "  int guarded_value_ = 0;\n"
                 "};\n"}
        )
        self.assertIn("mutex-unannotated", rule_ids(v))


    def test_fatal_handler_logging_caught(self) -> None:
        v = run_on_tree(
            {"tools/bad_daemon.cc":
                 "void Boom(int signo) {\n"
                 '  MOPE_LOG(kError, "server", "crash").Arg("signo", signo);\n'
                 "}\n"
                 "void Setup() { std::signal(SIGSEGV, Boom); }\n"}
        )
        self.assertIn("fatal-handler-unsafe", rule_ids(v))

    def test_fatal_handler_heap_and_stdio_caught(self) -> None:
        v = run_on_tree(
            {"examples/bad.cpp":
                 "void OnAbort(int signo) {\n"
                 "  std::string msg = std::to_string(signo);\n"
                 "  char* p = static_cast<char*>(malloc(64));\n"
                 "}\n"
                 "void Setup() { std::signal(SIGABRT, OnAbort); }\n"}
        )
        self.assertEqual(
            sum(1 for x in v if "fatal-handler-unsafe" in x), 2)

    def test_fatal_handler_via_sigaction_caught(self) -> None:
        v = run_on_tree(
            {"examples/bad2.cpp":
                 "void OnBus(int signo) {\n"
                 "  std::cerr << signo;\n"
                 "}\n"
                 "void Setup(struct sigaction* sa) {\n"
                 "  sa->sa_handler = OnBus;\n"
                 "  sigaction(SIGBUS, sa, nullptr);\n"
                 "}\n"}
        )
        self.assertIn("fatal-handler-unsafe", rule_ids(v))


class NoFalsePositives(unittest.TestCase):
    def test_clean_file(self) -> None:
        v = run_on_tree(
            {
                "src/ope/good.cc":
                    "#include \"common/status.h\"\n"
                    "mope::Status F() { return mope::Status::OK(); }\n"
            }
        )
        self.assertEqual(v, [])

    def test_escape_comment(self) -> None:
        v = run_on_tree(
            {
                "src/workload/good.cc":
                    "long t = time(nullptr);  "
                    "// invariant-ok: wall time feeds a log line only\n"
            }
        )
        self.assertEqual(v, [])

    def test_string_literal_not_matched(self) -> None:
        v = run_on_tree(
            {
                "src/sql/good.cc":
                    'const char* kMsg = "call time() elsewhere";\n'
            }
        )
        self.assertEqual(v, [])

    def test_logger_sink_exempt_from_raw_output(self) -> None:
        # src/obs/log.* is the one sanctioned stderr site: the default sink
        # itself must be able to write raw bytes.
        v = run_on_tree(
            {"src/obs/log.cc":
                 "#include <cstdio>\n"
                 "void Sink(const char* s) { std::fputs(s, stderr); }\n"}
        )
        self.assertEqual(v, [])

    def test_snprintf_is_not_raw_output(self) -> None:
        # Formatting into a buffer is not output; only the stdio writers are.
        v = run_on_tree(
            {"src/net/good.cc":
                 "#include <cstdio>\n"
                 "void F(char* b) { std::snprintf(b, 8, \"%d\", 1); }\n"}
        )
        self.assertEqual(v, [])

    def test_raw_output_escape_in_tools(self) -> None:
        v = run_on_tree(
            {"tools/good_daemon.cc":
                 "void Usage() {\n"
                 "  std::fprintf(  // invariant-ok: R11 usage/help text\n"
                 '      stderr, "usage: ...\\n");\n'
                 "}\n"}
        )
        self.assertEqual(v, [])

    def test_random_module_exempt(self) -> None:
        v = run_on_tree(
            {"src/common/random.cc": "// std::mt19937 alternative notes\n"}
        )
        self.assertEqual(v, [])

    def test_obs_clock_shim_exempt(self) -> None:
        # src/obs/clock.* is the one sanctioned steady_clock site (both R2
        # and R7 exclude it) — everything else injects an obs::Clock.
        v = run_on_tree(
            {"src/obs/clock.cc":
                 "auto t = std::chrono::steady_clock::now();\n",
             "src/obs/clock.h":
                 "// wraps std::chrono::steady_clock behind obs::Clock\n"}
        )
        self.assertEqual(v, [])

    def test_clock_injection_escape(self) -> None:
        v = run_on_tree(
            {"tests/deadline_test.cc":
                 "auto t = std::chrono::steady_clock::now();  "
                 "// invariant-ok: real deadline needed for the timeout test\n"}
        )
        self.assertEqual(v, [])

    def test_xtime_aes_helper_not_wall_clock(self) -> None:
        v = run_on_tree(
            {"src/crypto/good.cc": "uint8_t b = Xtime(a);\n"}
        )
        self.assertEqual(v, [])

    def test_assigned_result_not_flagged(self) -> None:
        v = run_on_tree(
            {"src/engine/good.cc": "  auto st = table->CreateIndex(col);\n"
                                   "  if (!st.ok()) return st;\n"}
        )
        self.assertEqual(v, [])

    def test_continuation_line_of_macro_not_flagged(self) -> None:
        v = run_on_tree(
            {
                "src/ope/good.cc":
                    "  MOPE_ASSIGN_OR_RETURN(uint64_t c,\n"
                    "                        scheme.Encrypt(m));\n"
            }
        )
        self.assertEqual(v, [])

    def test_socket_layer_exempt_from_raw_socket(self) -> None:
        v = run_on_tree(
            {"src/net/socket.cc":
                 "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
                 "int rc = ::connect(fd, addr, len);\n"}
        )
        self.assertEqual(v, [])

    def test_visitor_accept_not_raw_socket(self) -> None:
        # An unqualified accept()/bind() is an ordinary method or std::bind;
        # only the ::-qualified syscall spelling is banned.
        v = run_on_tree(
            {"src/sql/good.cc":
                 "  return accept(leaf->column);\n"
                 "  auto f = std::bind(&T::Run, this);\n"}
        )
        self.assertEqual(v, [])

    def test_leakage_auditor_clean_includes_allowed(self) -> None:
        # common/ and obs/ are exactly what the untrusted server also has.
        v = run_on_tree(
            {"src/obs/leakage.cc":
                 '#include "common/histogram.h"\n'
                 '#include "obs/registry.h"\n'}
        )
        self.assertEqual(v, [])

    def test_leakage_rule_scoped_to_auditor_files(self) -> None:
        # Other obs/ files (and the proxy itself) include proxy/ legally;
        # R8 binds only src/obs/leakage.*.
        v = run_on_tree(
            {"src/obs/registry.cc": '#include "proxy/proxy.h"\n'}
        )
        self.assertNotIn("auditor-ciphertext-only", rule_ids(v))

    def test_wrapper_mutex_with_annotation_clean(self) -> None:
        v = run_on_tree(
            {"src/net/good.h":
                 '#include "common/thread_annotations.h"\n'
                 "class T {\n"
                 "  mope::Mutex mu_;\n"
                 "  int value_ MOPE_GUARDED_BY(mu_) = 0;\n"
                 "};\n"}
        )
        self.assertEqual(v, [])

    def test_mutex_lock_local_is_not_a_decl(self) -> None:
        # MutexLock / WriterMutexLock locals are uses, not capability
        # declarations; they carry no annotation obligation.
        v = run_on_tree(
            {"src/net/good.cc":
                 "void F() { const MutexLock lock(&mu_); }\n"
                 "void G() { WriterMutexLock lock(&rw_); }\n"}
        )
        self.assertEqual(v, [])

    def test_raw_mutex_exempt_in_common(self) -> None:
        # src/common/ hosts the wrappers themselves.
        v = run_on_tree(
            {"src/common/thread_annotations.h": "std::mutex mu_;\n"}
        )
        self.assertEqual(v, [])

    def test_unannotated_check_scoped_to_src(self) -> None:
        # Tests may declare wrapper mutexes ad hoc without the annotation
        # obligation (their state is usually function-local anyway).
        v = run_on_tree(
            {"tests/good_test.cc": "mope::Mutex mu;\n"}
        )
        self.assertEqual(v, [])

    def test_raw_mutex_escape_comment(self) -> None:
        v = run_on_tree(
            {"src/net/good.h":
                 "std::mutex mu_;  "
                 "// invariant-ok: interop with an external API\n"}
        )
        self.assertEqual(v, [])

    def test_storage_layer_exempt_from_raw_file_io(self) -> None:
        # src/storage/ *is* the audited layer — the Env implementations make
        # the actual syscalls.
        v = run_on_tree(
            {"src/storage/env.cc":
                 "int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);\n"
                 'FILE* f = fopen(path.c_str(), "rb");\n'}
        )
        self.assertNotIn("raw-file-io", rule_ids(v))

    def test_named_open_methods_not_raw_file_io(self) -> None:
        # Wal::Open / pool->Open / "reopen" are ordinary identifiers; only
        # the bare open()/creat() syscall spelling is banned.
        v = run_on_tree(
            {"src/engine/good.cc":
                 "  auto wal = Wal::Open(env, path, 1);\n"
                 "  auto st = disk->Open();\n"
                 "  Reopen();\n"}
        )
        self.assertNotIn("raw-file-io", rule_ids(v))

    def test_operator_public_hook_override_caught(self) -> None:
        v = run_on_tree(
            {"src/engine/bad_op.h":
                 "class RogueOp final : public Operator {\n"
                 " public:\n"
                 "  Status Open() override;\n"
                 "  Result<bool> Next(Row* out) override;\n"
                 "};\n"}
        )
        self.assertIn("operator-hook-override", rule_ids(v))

    def test_operator_impl_hooks_clean(self) -> None:
        # The sanctioned shape: protected OpenImpl/NextImpl overrides.
        v = run_on_tree(
            {"src/engine/good_op.h":
                 "class GoodOp final : public engine::Operator {\n"
                 " protected:\n"
                 "  Status OpenImpl() override;\n"
                 "  Result<bool> NextImpl(Row* out) override;\n"
                 "};\n"}
        )
        self.assertNotIn("operator-hook-override", rule_ids(v))

    def test_open_override_outside_operator_file_clean(self) -> None:
        # Open()/Next() overrides are fine in files with no Operator
        # subclass — Transport::Open, iterators, etc. are different APIs.
        v = run_on_tree(
            {"src/storage/iter.h":
                 "class HeapIter final : public Iter {\n"
                 " public:\n"
                 "  Status Open() override;\n"
                 "  bool Next(Row* out) override;\n"
                 "};\n"}
        )
        self.assertNotIn("operator-hook-override", rule_ids(v))

    def test_operator_hook_escape_comment(self) -> None:
        v = run_on_tree(
            {"src/engine/escaped_op.h":
                 "class LegacyOp final : public Operator {\n"
                 "  Status Open() override;"
                 "  // invariant-ok: R12 shim measured separately\n"
                 "};\n"}
        )
        self.assertNotIn("operator-hook-override", rule_ids(v))

    def test_sanctioned_fatal_handler_clean(self) -> None:
        # The flight-recorder dump plus default-disposition re-raise is the
        # approved crash path; nothing in it may trip R13.
        v = run_on_tree(
            {"tools/good_daemon.cc":
                 "void HandleFatalSignal(int signo) {\n"
                 "  if (auto* r = mope::obs::FlightRecorder::Installed()) {\n"
                 "    r->FatalSignalDump(signo);\n"
                 "  }\n"
                 "  std::signal(signo, SIG_DFL);\n"
                 "  std::raise(signo);\n"
                 "}\n"
                 "void Setup() { std::signal(SIGSEGV, HandleFatalSignal); }\n"}
        )
        self.assertNotIn("fatal-handler-unsafe", rule_ids(v))

    def test_unsafe_code_outside_handler_not_r13(self) -> None:
        # R13 binds only the handler body; ordinary functions in the same
        # file may allocate freely.
        v = run_on_tree(
            {"examples/good.cpp":
                 "void Quiet(int signo) { std::raise(signo); }\n"
                 "void Setup() { std::signal(SIGILL, Quiet); }\n"
                 "void Elsewhere() { std::string s(64, 'x'); }\n"}
        )
        self.assertNotIn("fatal-handler-unsafe", rule_ids(v))

    def test_nonfatal_signal_handler_exempt_from_r13(self) -> None:
        # SIGINT/SIGTERM handlers are ordinary shutdown paths, not R13's
        # concern (the process is healthy; the logger and heap still work).
        v = run_on_tree(
            {"examples/good2.cpp":
                 "void OnInt(int signo) {\n"
                 "  std::string why = std::to_string(signo);\n"
                 "}\n"
                 "void Setup() { std::signal(SIGINT, OnInt); }\n"}
        )
        self.assertNotIn("fatal-handler-unsafe", rule_ids(v))

    def test_fatal_handler_escape_comment(self) -> None:
        v = run_on_tree(
            {"examples/escaped.cpp":
                 "void Boom(int signo) {\n"
                 "  std::fputs(\"dying\\n\", stderr);  "
                 "// invariant-ok: R13 single write(2)-like call, measured\n"
                 "}\n"
                 "void Setup() { std::signal(SIGFPE, Boom); }\n"}
        )
        self.assertNotIn("fatal-handler-unsafe", rule_ids(v))

    def test_thread_local_outside_trace_caught(self) -> None:
        # A second implicit per-thread context (what ProfileCollector was).
        v = run_on_tree(
            {"src/obs/profile.cc":
                 "namespace {\n"
                 "thread_local Collector* t_current = nullptr;\n"
                 "}\n"}
        )
        self.assertIn("thread-local", rule_ids(v))

    def test_thread_local_allowed_in_trace_and_lock_ranks(self) -> None:
        v = run_on_tree(
            {"src/obs/trace.cc": "thread_local Trace* t_current = nullptr;\n",
             "src/common/thread_annotations.cc":
                 "thread_local std::vector<int> t_held_ranks;\n"}
        )
        self.assertNotIn("thread-local", rule_ids(v))

    def test_thread_local_rule_scoped_to_src(self) -> None:
        v = run_on_tree(
            {"tests/obs/helper_test.cc": "thread_local int t_calls = 0;\n"}
        )
        self.assertNotIn("thread-local", rule_ids(v))

    def test_thread_local_escape_comment(self) -> None:
        v = run_on_tree(
            {"src/crypto/cache.cc":
                 "thread_local Block t_scratch;  "
                 "// invariant-ok: R14 scratch buffer, not per-query state\n"}
        )
        self.assertNotIn("thread-local", rule_ids(v))

    def test_isa_specific_outside_crc_caught(self) -> None:
        v = run_on_tree(
            {"src/engine/scan.cc":
                 "#include <immintrin.h>\n"
                 "__attribute__((target(\"avx2\"))) void Scan();\n"
                 "bool fast = __builtin_cpu_supports(\"avx2\");\n"}
        )
        self.assertEqual(
            sum("[isa-specific]" in x for x in v), 3, "\n".join(v)
        )

    def test_isa_specific_other_intrinsic_headers_caught(self) -> None:
        for header in ("x86intrin.h", "wmmintrin.h"):
            v = run_on_tree({"src/net/fold.cc": f"#include <{header}>\n"})
            self.assertIn("isa-specific", rule_ids(v), header)

    def test_isa_specific_allowed_in_crc32(self) -> None:
        v = run_on_tree(
            {"src/common/crc32.cc":
                 "#include <immintrin.h>\n"
                 "__attribute__((target(\"pclmul,sse4.1\"))) void Fold();\n"
                 "bool ok = __builtin_cpu_supports(\"pclmul\");\n"}
        )
        self.assertNotIn("isa-specific", rule_ids(v))

    def test_isa_specific_rule_scoped_to_src(self) -> None:
        v = run_on_tree(
            {"bench/bench_simd.cc": "#include <immintrin.h>\n"}
        )
        self.assertNotIn("isa-specific", rule_ids(v))

    def test_isa_specific_escape_comment(self) -> None:
        v = run_on_tree(
            {"src/crypto/aes.cc":
                 "#include <wmmintrin.h>  "
                 "// invariant-ok: R15 AES-NI beside its portable twin\n"}
        )
        self.assertNotIn("isa-specific", rule_ids(v))

    def test_real_repo_is_clean(self) -> None:
        root = Path(__file__).resolve().parent.parent
        violations = []
        for rel in check_invariants.collect_sources(root):
            violations.extend(check_invariants.lint_file(root, rel))
        self.assertEqual(
            violations, [], "the repo itself must satisfy its invariants"
        )


if __name__ == "__main__":
    unittest.main()
