#!/usr/bin/env python3
"""socpinn invariant linter — static enforcement of the serve stack's
concurrency, allocation, and floating-point contracts.

The system rests on invariants that are otherwise provable only at
runtime, and only on the paths a test happens to exercise:

  * The seqlock/command-channel protocols (serve/mailbox.hpp,
    serve/shm_transport.hpp) depend on EXACT acquire/release orderings.
    A defaulted memory order is seq_cst: correct but intent-hiding, and
    it costs real fences on weakly-ordered targets (ARM) — the paper's
    embedded-BMS deployment target.
  * Steady-state ticks are allocation-free (probed dynamically by the
    counting operator new in tests/serve/test_alloc_free.cpp). This
    linter is the static complement: functions annotated SOCPINN_HOT
    (src/util/annotations.hpp) must not contain allocation constructs
    unless each is waived with a justified SOCPINN_HOT_ALLOW comment.
  * f64 results are bitwise identical across scalar/AVX2/AVX-512/NEON
    because every panel kernel fuses each multiply-add through
    nn/simd.hpp's mul_add (a vector FMA per ISA, std::fma in the scalar
    reference) while a global -ffp-contract=off keeps the compiler from
    fusing anything else. A std::fma call, a fused intrinsic or an
    FP_CONTRACT pragma anywhere outside nn/simd.hpp (the one place fusion
    is spelled) fuses on only the paths that reach it and silently breaks
    that parity.

Checks (names usable in waiver comments and reports):

  atomic-order   every std::atomic / std::atomic_ref load / store /
                 exchange / fetch_* / CAS in serve/ must spell an
                 explicit std::memory_order argument (CAS: both success
                 AND failure orders).
  hot-alloc      no allocation constructs (new, make_unique/make_shared,
                 push_back/emplace_back/resize/reserve/insert/emplace/
                 assign/append, std::string / std::to_string /
                 stringstream construction, local std::vector) inside a
                 function whose DEFINITION is annotated SOCPINN_HOT.
                 Warm-capacity reuse is waived per line:
                     // SOCPINN_HOT_ALLOW(resize): reuses warm capacity
                 The construct name must match and the reason must be
                 non-empty; the waiver holds for the same or next line.
  fp-contract    no std::fma / fmaf / fmal, no fused intrinsic
                 (_mm*_fmadd_*, _mm*_fmsub_*, vfmaq_*) and no
                 FP_CONTRACT-style pragmas outside nn/simd.hpp.
  seqlock-discipline
                 the single-writer seqlock protocol in serve/:
                 (a) every odd sequence bump (`store(s + 1, ...)`) is
                 followed, in the same function body, by the matching
                 even store (`store(s + 2, ...)`), and every store
                 between the two — the payload, at least one — spells
                 memory_order_release. A standalone fence does not
                 count: the payload's own release stores order it after
                 the odd bump, and ThreadSanitizer models them, where it
                 does not model atomic_thread_fence;
                 (b) every even store spells memory_order_release;
                 (c) a slot publish call (`.publish(...)`, `.publish_*`)
                 may only appear inside a function whose own name starts
                 with `publish` — any other writer surface must declare
                 ownership on the call line (or the contiguous comment
                 block above it):
                     // SOCPINN_SEQLOCK_WRITER(owner): why single-writer
                 (d) no blocking construct (mutex locks, condition-
                 variable waits, sleeps, util::MutexLock / CondVar)
                 inside a SOCPINN_HOT body — hot paths sit on the
                 wait-free side of the seqlocks.

The linter is heuristic by design (stdlib-only Python, no C++ parser):
it masks comments/strings, balances parentheses across lines, and
resolves atomic receivers either lexically (an inline
std::atomic_ref<T>(x) temporary) or through the file-local set of
variables declared std::atomic/atomic_ref. That is precise enough for
this codebase's idiom and — more importantly — errs loudly: a false
positive demands an explicit order or a justified waiver, never a
silent pass.

Usage:
    invariant_lint.py [--root DIR] [files...]

With no files, scans every *.hpp/*.h/*.cpp under --root (default: the
repo's src/). Exit 0 clean, 1 findings, 2 usage error. Fixture-based
self-tests live in tools/lint/tests/ (run by ctest as lint.selftest);
the tree gate itself is the ctest entry lint.invariants.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------- masking

def mask_comments_and_strings(text: str):
    """Returns (masked, comments) where `masked` is `text` with comment
    and string/char-literal contents replaced by spaces (same length,
    newlines preserved, so offsets and line numbers carry over), and
    `comments` maps 1-based line number -> concatenated comment text on
    that line (used for waiver detection)."""
    out = list(text)
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def record(a: int, b: int, start_line: int) -> None:
        ln = start_line
        seg_start = a
        for k in range(a, b + 1):
            if k == b or text[k] == "\n":
                comments.setdefault(ln, "")
                comments[ln] += text[seg_start:k]
                ln += 1
                seg_start = k + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            record(i, j, line)
            blank(i, j)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            record(i, j + 2, line)
            blank(i, j + 2)
            line += text.count("\n", i, j + 2)
            i = j + 2
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                blank(i + m.end(), end)
                line += text.count("\n", i, end)
                i = end
            else:
                i += 1
        elif c == "'" and i > 0 and (text[i - 1].isalnum()
                                     or text[i - 1] == "_"):
            # C++14 digit separator (100'000) or a literal suffix — not a
            # character literal; treating it as one would swallow real
            # code (and comment lines) up to the next apostrophe.
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            line += text.count("\n", i, min(j, n) + 1)
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out), comments


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def balance(masked: str, pos: int, open_ch: str, close_ch: str) -> int:
    """pos indexes `open_ch`; returns the index just past its matching
    `close_ch` (or len(masked) if unbalanced)."""
    depth = 0
    for k in range(pos, len(masked)):
        if masked[k] == open_ch:
            depth += 1
        elif masked[k] == close_ch:
            depth -= 1
            if depth == 0:
                return k + 1
    return len(masked)


# --------------------------------------------------- check: atomic-order

ATOMIC_OPS = {
    "load": 1,
    "store": 1,
    "exchange": 1,
    "fetch_add": 1,
    "fetch_sub": 1,
    "fetch_and": 1,
    "fetch_or": 1,
    "fetch_xor": 1,
    "test_and_set": 1,
    "clear": 1,
    "wait": 1,
    "compare_exchange_weak": 2,
    "compare_exchange_strong": 2,
}

ATOMIC_DECL = re.compile(r"\bstd\s*::\s*atomic(?:_ref)?\s*<")
ATOMIC_TEMP_TAIL = re.compile(
    r"\bstd\s*::\s*atomic(?:_ref)?\s*<[^;{}]*>\s*$", re.S)
OP_CALL = re.compile(
    r"(\.|->)\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")


def atomic_decl_names(masked: str) -> set[str]:
    """File-local names declared as std::atomic<...> or
    std::atomic_ref<...> variables/members."""
    names: set[str] = set()
    for m in ATOMIC_DECL.finditer(masked):
        k = m.end() - 1  # at '<'
        depth = 0
        while k < len(masked):
            if masked[k] == "<":
                depth += 1
            elif masked[k] == ">":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        ident = re.match(r"\s*([A-Za-z_]\w*)", masked[k + 1 :])
        if ident:
            names.add(ident.group(1))
    return names


def receiver_is_atomic(masked: str, dot_pos: int, names: set[str]) -> bool:
    j = dot_pos - 1
    while j >= 0 and masked[j] in " \t\n":
        j -= 1
    if j < 0:
        return False
    if masked[j] == ")":
        depth = 0
        k = j
        while k >= 0:
            if masked[k] == ")":
                depth += 1
            elif masked[k] == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        return bool(ATOMIC_TEMP_TAIL.search(masked[:k]))
    end = j + 1
    while j >= 0 and (masked[j].isalnum() or masked[j] == "_"):
        j -= 1
    return masked[j + 1 : end] in names


def check_atomic_order(rel: str, text: str, masked: str) -> list[tuple]:
    findings = []
    names = atomic_decl_names(masked)
    for m in OP_CALL.finditer(masked):
        dot = m.start(1)
        if masked[dot] == "-":  # '->' arrow: receiver scan from the '-'
            pass
        if not receiver_is_atomic(masked, dot, names):
            continue
        op = m.group(2)
        paren = m.end() - 1
        args = masked[paren : balance(masked, paren, "(", ")")]
        have = len(re.findall(r"\bmemory_order\w*", args))
        need = ATOMIC_OPS[op]
        if have < need:
            what = ("both success AND failure std::memory_order arguments"
                    if need == 2 else "an explicit std::memory_order")
            findings.append((
                rel, line_of(masked, m.start()), "atomic-order",
                f"atomic {op}() without {what} — a defaulted seq_cst "
                f"hides the protocol's intended ordering and costs fences "
                f"on weakly-ordered targets; spell the weakest correct "
                f"order explicitly"))
    return findings


# ------------------------------------------------------ check: hot-alloc

HOT_MARK = re.compile(r"\bSOCPINN_HOT\b(?!_ALLOW)")
HOT_ALLOW = re.compile(
    r"SOCPINN_HOT_ALLOW\(\s*([A-Za-z_:,\s]+?)\s*\)\s*:\s*(\S.*)")

BANNED = [
    ("new", re.compile(r"\bnew\b")),
    ("make_unique", re.compile(r"\bmake_unique\b")),
    ("make_shared", re.compile(r"\bmake_shared\b")),
    ("container-growth", re.compile(
        r"(?:\.|->)\s*(push_back|emplace_back|resize|reserve|insert"
        r"|emplace|assign|append)\s*\(")),
    ("string", re.compile(
        r"\bstd\s*::\s*(?:string|wstring|ostringstream|istringstream"
        r"|stringstream)\b")),
    ("to_string", re.compile(r"\bstd\s*::\s*to_string\b")),
    ("vector", re.compile(r"\bstd\s*::\s*vector\s*<")),
]


def waived(construct: str, lineno: int, comments: dict[int, str],
           comment_only: set[int]) -> bool:
    """A construct on `lineno` is waived by SOCPINN_HOT_ALLOW(name): reason
    on the same line or in the contiguous COMMENT-ONLY block directly above
    it (a justification may wrap onto several comment lines; a code line —
    even one with a trailing comment — ends the block, so one waiver never
    silently covers a second construct further down)."""
    def matches(ln: int) -> bool:
        for m in HOT_ALLOW.finditer(comments.get(ln, "")):
            allowed = {a.strip() for a in m.group(1).split(",")}
            if construct in allowed and m.group(2).strip():
                return True
        return False

    if matches(lineno):
        return True
    ln = lineno - 1
    while ln > 0 and ln in comment_only:
        if matches(ln):
            return True
        ln -= 1
    return False


def hot_body_span(masked: str, mark_end: int):
    """From the end of a SOCPINN_HOT token, locates the annotated
    function's body. Returns (start, end) indices of the brace block, or
    None for a bodyless declaration (annotation belongs on the
    definition — declarations are skipped, not errors)."""
    depth = 0
    k = mark_end
    while k < len(masked):
        c = masked[k]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ";" and depth == 0:
            return None
        elif c == "{" and depth == 0:
            return k, balance(masked, k, "{", "}")
        k += 1
    return None


def check_hot_alloc(rel: str, text: str, masked: str,
                    comments: dict[int, str]) -> list[tuple]:
    findings = []
    masked_lines = masked.splitlines()
    comment_only = {
        ln for ln in comments
        if ln <= len(masked_lines) and not masked_lines[ln - 1].strip()}
    for mark in HOT_MARK.finditer(masked):
        line_start = masked.rfind("\n", 0, mark.start()) + 1
        if masked[line_start:mark.start()].lstrip().startswith("#"):
            continue  # the #define itself
        span = hot_body_span(masked, mark.end())
        if span is None:
            continue
        body_start, body_end = span
        body = masked[body_start:body_end]
        for name, pattern in BANNED:
            for m in pattern.finditer(body):
                lineno = line_of(masked, body_start + m.start())
                label = m.group(1) if name == "container-growth" else name
                if waived(label, lineno, comments, comment_only):
                    continue
                findings.append((
                    rel, lineno, "hot-alloc",
                    f"allocation construct '{label}' inside a SOCPINN_HOT "
                    f"function — hot paths are allocation-free in steady "
                    f"state (the static twin of test_alloc_free.cpp); if "
                    f"this line only reuses warm capacity, waive it with "
                    f"// SOCPINN_HOT_ALLOW({label}): <why it cannot "
                    f"allocate once warm>"))
    return findings


# --------------------------------------------- check: seqlock-discipline

SEQ_ODD_STORE = re.compile(r"(?:\.|->)\s*store\s*\(\s*(\w+)\s*\+\s*1\s*,")
SEQ_EVEN_STORE = re.compile(r"(?:\.|->)\s*store\s*\(\s*(\w+)\s*\+\s*2\s*,")
STORE_CALL = re.compile(r"(?:\.|->)\s*store\s*\(")
RELEASE_ORDER = re.compile(r"\bmemory_order_release\b")
PUBLISH_CALL = re.compile(r"(?:\.|->)\s*(publish\w*)\s*\(")
SEQLOCK_WRITER = re.compile(
    r"SOCPINN_SEQLOCK_WRITER\(\s*([^)]+?)\s*\)\s*:\s*(\S.*)")
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "new", "delete", "throw",
    "assert", "defined", "co_await", "co_return", "co_yield", "constexpr",
    "noexcept", "requires"))
FUNC_NAME = re.compile(r"\b([A-Za-z_~]\w*)\s*\(")
# Characters that may sit between a definition's parameter list and its
# `{`: qualifiers (const noexcept override final), ref-qualifiers,
# trailing return types (-> T, including templates and qualified names).
# Crucially EXCLUDES `=` `(` `)` `;` `}` so declarations, calls, and
# ctor-init lists are never mistaken for plain definitions.
DEF_GAP_OK = frozenset(" \t\n\r" "abcdefghijklmnopqrstuvwxyz"
                       "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
                       ":<>,&*->[]")

BLOCKING = [
    ("mutex-lock", re.compile(
        r"\b(?:std\s*::\s*)?(?:lock_guard|unique_lock|scoped_lock)\b"
        r"|\bMutexLock\b|(?:\.|->)\s*(?:try_)?lock\s*\(|"
        r"(?:\.|->)\s*unlock\s*\(")),
    ("condvar-wait", re.compile(
        r"\b(?:std\s*::\s*)?condition_variable\w*\b|\bCondVar\b"
        r"|(?:\.|->)\s*wait(?:_for|_until)?\s*\(")),
    ("sleep", re.compile(
        r"\b(?:sleep_for|sleep_until|nanosleep|usleep|sleep)\s*\(")),
]


def function_spans(masked: str) -> list[tuple]:
    """Heuristic list of (name, body_start, body_end) for every function
    DEFINITION: identifier + balanced parameter list + a gap of qualifier
    characters only + `{`. Calls (`;` or operators follow), declarations,
    and ctor-init lists (contain `(`/`:` + parens) all fail the gap test;
    lambdas have no identifier before `(`. Good enough to answer "which
    function does this position live in" for this codebase's idiom."""
    spans = []
    for m in FUNC_NAME.finditer(masked):
        name = m.group(1)
        if name in CALL_KEYWORDS:
            continue
        close = balance(masked, m.end() - 1, "(", ")")
        if close >= len(masked):
            continue
        k = close
        while k < len(masked) and masked[k] != "{":
            if masked[k] not in DEF_GAP_OK:
                break
            k += 1
        if k >= len(masked) or masked[k] != "{":
            continue
        spans.append((name, k, balance(masked, k, "{", "}")))
    return spans


def enclosing_function(spans: list[tuple], pos: int):
    """The innermost definition span containing `pos`, or None."""
    best = None
    for name, start, end in spans:
        if start < pos < end and (best is None or start > best[1]):
            best = (name, start, end)
    return best


def writer_waived(lineno: int, comments: dict[int, str],
                  comment_only: set[int]) -> bool:
    """A publish call on `lineno` is waived by a SOCPINN_SEQLOCK_WRITER
    marker (non-empty owner AND reason) on the same line or in the
    contiguous comment-only block directly above — same shape as the
    hot-alloc waiver, so one marker never leaks onto a second call."""
    def matches(ln: int) -> bool:
        m = SEQLOCK_WRITER.search(comments.get(ln, ""))
        return bool(m and m.group(1).strip() and m.group(2).strip())

    if matches(lineno):
        return True
    ln = lineno - 1
    while ln > 0 and ln in comment_only:
        if matches(ln):
            return True
        ln -= 1
    return False


def call_args(text: str, m: re.Match) -> str:
    """The balanced argument list of the call whose name `m` matched."""
    paren = text.index("(", m.start())
    return text[paren:balance(text, paren, "(", ")")]


def check_seqlock_discipline(rel: str, text: str, masked: str,
                             comments: dict[int, str]) -> list[tuple]:
    findings = []
    masked_lines = masked.splitlines()
    comment_only = {
        ln for ln in comments
        if ln <= len(masked_lines) and not masked_lines[ln - 1].strip()}
    spans = function_spans(masked)

    # (a) odd bump -> payload stores, each a release -> matching even
    # store, inside the same function body (the writer's critical section).
    for m in SEQ_ODD_STORE.finditer(masked):
        var = m.group(1)
        here = enclosing_function(spans, m.start())
        tail = masked[m.end():here[2]] if here else masked[m.end():]
        even = re.compile(
            r"(?:\.|->)\s*store\s*\(\s*" + re.escape(var) +
            r"\s*\+\s*2\s*,").search(tail)
        window = tail[:even.start()] if even else ""
        stores = [call_args(window, c) for c in STORE_CALL.finditer(window)]
        if not stores or not all(RELEASE_ORDER.search(a) for a in stores):
            findings.append((
                rel, line_of(masked, m.start()), "seqlock-discipline",
                f"odd seqlock bump store({var} + 1, ...) without a "
                f"matching store({var} + 2, ...) in the same function, or "
                f"with a payload between them that is not written by "
                f"memory_order_release stores (a fence does not count) — "
                f"readers could observe payload bytes torn across the "
                f"unclosed write window"))

    # (b) the even (closing) store must itself be a release.
    for m in SEQ_EVEN_STORE.finditer(masked):
        if not RELEASE_ORDER.search(call_args(masked, m)):
            findings.append((
                rel, line_of(masked, m.start()), "seqlock-discipline",
                f"even seqlock store({m.group(1)} + 2, ...) without "
                f"memory_order_release — the closing store is what makes "
                f"the payload visible-before-even to acquire readers"))

    # (c) writer confinement: publish calls only from publish* functions
    # or under an explicit ownership marker.
    for m in PUBLISH_CALL.finditer(masked):
        here = enclosing_function(spans, m.start())
        if here is not None and here[0].startswith("publish"):
            continue
        lineno = line_of(masked, m.start())
        if writer_waived(lineno, comments, comment_only):
            continue
        where = f"'{here[0]}'" if here else "an unrecognized scope"
        findings.append((
            rel, lineno, "seqlock-discipline",
            f"seqlock publish call '.{m.group(1)}(...)' from {where} — "
            f"slots are single-writer, so publishes may only come from a "
            f"publish* method or a declared owner; mark a deliberate "
            f"writer surface with // SOCPINN_SEQLOCK_WRITER(owner): "
            f"<why this is the one writer>"))

    # (d) no blocking constructs inside SOCPINN_HOT bodies: hot code is
    # the wait-free side of every seqlock, so a mutex/cv/sleep there is a
    # protocol break, not a style issue. No waiver on purpose.
    for mark in HOT_MARK.finditer(masked):
        line_start = masked.rfind("\n", 0, mark.start()) + 1
        if masked[line_start:mark.start()].lstrip().startswith("#"):
            continue
        span = hot_body_span(masked, mark.end())
        if span is None:
            continue
        body_start, body_end = span
        body = masked[body_start:body_end]
        for name, pattern in BLOCKING:
            for b in pattern.finditer(body):
                findings.append((
                    rel, line_of(masked, body_start + b.start()),
                    "seqlock-discipline",
                    f"blocking construct ({name}) inside a SOCPINN_HOT "
                    f"function — hot paths are the wait-free side of the "
                    f"serve seqlocks; blocking here can stall every "
                    f"reader behind one preempted writer"))
    return findings


# ---------------------------------------------------- check: fp-contract

FMA_CALL = re.compile(r"\b(?:(?:std\s*::\s*)?fma[fl]?"
                      r"|_mm\w*_fm(?:add|sub)_\w+|vfmaq_\w+)\s*\(")
PRAGMA_LINE = re.compile(r"^\s*#\s*pragma\b.*contract", re.I)
FP_ALLOWLIST = ("nn/simd.hpp",)


def check_fp_contract(rel: str, text: str, masked: str) -> list[tuple]:
    if rel.replace("\\", "/").endswith(FP_ALLOWLIST):
        return []
    findings = []
    for m in FMA_CALL.finditer(masked):
        findings.append((
            rel, line_of(masked, m.start()), "fp-contract",
            "fused multiply-add outside nn/simd.hpp: the panel kernels "
            "fuse through simd::mul_add on every ISA, and everything else "
            "rounds twice (global -ffp-contract=off); a fused path here "
            "runs on only the ISAs that reach it and breaks f64 bitwise "
            "parity — call simd::mul_add, or add the ISA's form to "
            "nn/simd.hpp"))
    for i, raw in enumerate(text.splitlines(), start=1):
        if PRAGMA_LINE.match(raw):
            findings.append((
                rel, i, "fp-contract",
                "FP_CONTRACT-style pragma overrides the global "
                "-ffp-contract=off, so the compiler fuses wherever the "
                "target ISA allows and cross-ISA f64 bitwise parity is "
                "lost; fuse explicitly through nn/simd.hpp's mul_add"))
    return findings


# ----------------------------------------------------------------- drive

def in_serve_scope(rel: str) -> bool:
    return "serve" in Path(rel).parts


def lint_file(path: Path, root: Path) -> list[tuple]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [(str(path), 0, "io", f"unreadable: {e}")]
    rel = str(path.relative_to(root)) if path.is_relative_to(root) \
        else str(path)
    masked, comments = mask_comments_and_strings(text)
    findings = []
    if in_serve_scope(rel):
        findings += check_atomic_order(rel, text, masked)
        findings += check_seqlock_discipline(rel, text, masked, comments)
    findings += check_hot_alloc(rel, text, masked, comments)
    findings += check_fp_contract(rel, text, masked)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="socpinn invariant linter (see module docstring)")
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parents[2] / "src",
        help="directory scanned when no files are given; also the base "
             "for scope decisions (serve/, nn/simd.hpp)")
    parser.add_argument("files", nargs="*", type=Path)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    files = [p.resolve() for p in args.files] or sorted(
        p for ext in ("*.hpp", "*.h", "*.cpp") for p in root.rglob(ext))
    if not files:
        print(f"invariant_lint: no sources under {root}", file=sys.stderr)
        return 2

    findings = []
    for path in files:
        findings += lint_file(path, root)
    for rel, lineno, check, msg in findings:
        print(f"{rel}:{lineno}: [{check}] {msg}")
    if findings:
        print(f"\ninvariant_lint: {len(findings)} finding(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"invariant_lint: clean ({len(files)} files, checks: "
          f"atomic-order seqlock-discipline hot-alloc fp-contract)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
