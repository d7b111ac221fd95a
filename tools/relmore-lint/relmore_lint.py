#!/usr/bin/env python3
"""relmore-lint: repo-specific static checks for the relmore contracts.

The repo promises five things no general-purpose tool checks for us:

  R1  Every `Status`/`Result<T>` an API hands back is consumed. The
      `_checked` convention makes error handling explicit *only* if call
      sites actually look at the result; a statement-level call that drops
      it is a silent-wrong-answer bug at corpus scale.

  R2  The AoSoA lane loops stay bitwise-reproducible. `-ffp-contract=off`
      and fixed association order are the contract; any order-dependent or
      contraction-sensitive construct (`std::reduce`, `std::fma`,
      `#pragma omp simd reduction` over FP, per-function fast-math
      attributes) inside a lane file silently breaks it on the next
      compiler upgrade.

  R3  The per-step / per-lane hot loops do not allocate, lock, or throw.
      Regions are delimited in-source:

          // relmore-lint: begin-hot-loop(<name>)
          ...
          // relmore-lint: end-hot-loop

      and the kernel files are *required* to carry at least one region, so
      deleting the markers is itself a violation.

  R4  The text readers read the same in every locale. A design file is
      read in the C locale whatever the process locale is, so the reader
      files (a built-in list, plus any file that says
      `// relmore-lint: locale-free`) call none of the C library's
      locale-reading conversions and classifiers: the strtod family,
      `atof`, `std::stod`/`stof`/`stold`, `sscanf`, and the one-argument
      `<cctype>` `tolower`/`toupper`/`is*`. `strtod_l` under a C
      `locale_t` and `std::from_chars` stay legal.

  R5  The libraries form layers. The `target_link_libraries` lines of
      `src/*/CMakeLists.txt` are the one declaration of the layer order:
      the `relmore_*` targets they link must form no cycle, and a file
      under `src/<n>/` may include `relmore/<m>/...` only when
      `relmore_<m>` is `relmore_<n>` or one of its direct links. The
      umbrella `src/include/relmore/relmore.hpp` is exempt; a file outside
      `src/` names the module it stands for with
      `// relmore-lint: layer(<n>)`.

Suppression policy (see docs/static-analysis.md): a finding is silenced
only by an on-line annotation naming the rule, e.g.

    some_call();  // relmore-lint: allow(R1) reason...

Usage:
    relmore_lint.py [--repo-root DIR] [--compile-commands FILE]
                    [--rules R1,R2,R3,R4,R5] [paths...]

With no paths, lints every TU listed in compile_commands.json that lives
under src/, bench/, or examples/ (plus all headers under src/); without a
compile_commands.json it falls back to walking those directories. Exits 0
when clean, 1 on violations, 2 on usage errors. Python 3 stdlib only — no
libclang in the loop, so it runs anywhere the repo builds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Configuration: the repo-specific scope of each rule.
# --------------------------------------------------------------------------

# Directories (relative to the repo root) whose code rule R1 covers.
R1_DIRS = ("src", "bench", "examples")

# Files whose lane loops carry the bitwise-reproducibility contract (R2).
# Matched as suffixes of the repo-relative path.
LANE_FILE_PATTERNS = (
    "src/engine/batched.cpp",
    "src/sim/",  # every sim TU: flat_stepper, batch_sim, tree_transient, ...
    "src/sta/design.cpp",
)

# Kernel files that must contain at least one hot-loop region (R3 meta rule).
REQUIRED_MARKER_FILES = (
    "src/engine/batched.cpp",
    "src/sim/flat_stepper.cpp",
    "src/sim/batch_sim.cpp",
    "src/eed/model.cpp",  # the two moment passes every scalar entry shares
    "src/eed/response.cpp",  # the STA wire-stage kernel's bracket scan
    "src/util/include/relmore/util/roots.hpp",  # the one Brent loop
)

# Reader files that must not read the process locale (R4).
LOCALE_FREE_FILES = (
    "src/circuit/netlist.cpp",
    "src/sta/design.cpp",
)

# C library names that read LC_NUMERIC or LC_CTYPE (R4): any use is a
# finding. `strtod_l` and `std::from_chars` are different identifiers.
R4_BANNED = {"strtod", "strtof", "strtold", "atof", "stod", "stof", "stold", "sscanf"}
# The <cctype> classifiers and case maps: banned with one argument (or as
# a bare function name, e.g. passed to std::transform); the two-argument
# <locale> overloads name their locale and stay legal.
R4_BANNED_ONE_ARG = {
    "tolower", "toupper", "isalnum", "isalpha", "isblank", "iscntrl", "isdigit",
    "isgraph", "islower", "isprint", "ispunct", "isspace", "isupper", "isxdigit",
}

# Functions whose return value is a Status/Result by *convention*, indexed
# even when the declaration is not visible to the signature scan.
CONVENTION_RESULT_SUFFIXES = ("_checked",)

# Identifiers banned inside a hot-loop region, by category (R3).
HOT_LOOP_BANNED = {
    "allocation": {
        "new", "delete", "malloc", "calloc", "realloc", "free",
        "push_back", "emplace_back", "emplace", "resize", "reserve",
        "shrink_to_fit", "make_unique", "make_shared", "string", "to_string",
    },
    "locking": {
        "mutex", "lock", "unlock", "try_lock", "lock_guard", "unique_lock",
        "scoped_lock", "shared_lock", "condition_variable", "call_once",
    },
    "throwing": {"throw"},
}

# Order-dependent / contraction-sensitive constructs banned in lane files
# (R2). Matched against stripped code text.
R2_BANNED_CALLS = (
    "std::reduce", "std::transform_reduce", "std::inner_product",
    "std::fma", "fmaf", "__builtin_fma",
)
R2_BANNED_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+omp\s.*\breduction\s*\(|"      # omp FP reductions
    r'_Pragma\s*\(\s*"omp[^"]*\breduction\b|'      # same, operator form
    r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON|"       # re-enabling contraction
    r"#\s*pragma\s+GCC\s+optimize|"                # per-function fast-math
    r"__attribute__\s*\(\s*\(\s*optimize"
)

DIRECTIVE_RE = re.compile(r"//\s*relmore-lint:\s*(.+?)\s*$")

# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving offsets.

    Every replaced character becomes a space (newlines survive), so byte
    offsets and line numbers in the stripped text match the original.
    Handles //, /* */, "..." with escapes, '...' and raw strings R"delim(...)delim".
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == '"':
            # Raw string?
            m = re.match(r'R"([^ ()\\\t\n]*)\(', text[i - 1 : i + 18]) if i >= 1 else None
            if i >= 1 and text[i - 1] == "R" and m:
                delim = m.group(1)
                close = ')' + delim + '"'
                j = text.find(close, i + 1)
                j = n if j < 0 else j + len(close)
                blank(i, j)
                i = j
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                blank(i, j)
                i = j
        elif c == "'":
            # Skip digit separators (1'000'000): a quote sandwiched in digits.
            if i > 0 and text[i - 1].isalnum() and i + 1 < n and text[i + 1].isalnum() and (
                text[i - 1].isdigit() or text[i - 1] in "abcdefABCDEF"
            ):
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i, j)
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def match_paren(text: str, open_idx: int) -> int:
    """Index just past the `)` matching text[open_idx] == '('; -1 if unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def prev_significant(text: str, idx: int) -> tuple[str, int]:
    """Last non-whitespace char before idx (and its index); ('', -1) at BOF."""
    i = idx - 1
    while i >= 0 and text[i] in " \t\n\r":
        i -= 1
    return (text[i], i) if i >= 0 else ("", -1)


def next_significant(text: str, idx: int) -> tuple[str, int]:
    i = idx
    n = len(text)
    while i < n and text[i] in " \t\n\r":
        i += 1
    return (text[i], i) if i < n else ("", -1)


def _match_group_back(text: str, close_idx: int) -> int:
    """Offset of the opener matching the `)`/`]` at close_idx; -1 if none."""
    close = text[close_idx]
    opener = "(" if close == ")" else "["
    depth = 0
    k = close_idx
    while k >= 0:
        if text[k] == close:
            depth += 1
        elif text[k] == opener:
            depth -= 1
            if depth == 0:
                return k
        k -= 1
    return -1


def _consume_ident_back(text: str, end_idx: int) -> int:
    """Start offset of the identifier whose last char is at end_idx."""
    k = end_idx
    while k >= 0 and (text[k].isalnum() or text[k] == "_"):
        k -= 1
    return k + 1


def walk_back_callee_chain(text: str, name_start: int) -> int:
    """Start offset of the full postfix expression ending at the callee name.

    Walks left over member/scope connectors (`::`, `.`, `->`) and the
    postfix expressions they join — identifiers and matched `()`/`[]`
    groups with their callee names — so `graph.value().analyze_checked`
    resolves to the offset of `graph`. An identifier NOT joined by a
    connector (e.g. the return type in a declaration, or the `return`
    keyword) stops the walk: the chain must not leak across expression
    boundaries.
    """
    i = name_start
    while True:
        c, j = prev_significant(text, i)
        if c == ":" and j > 0 and text[j - 1] == ":":
            before = j - 2
        elif c == ".":
            before = j - 1
        elif c == ">" and j > 0 and text[j - 1] == "-":
            before = j - 2
        else:
            return i
        # Consume the postfix expression that ends just before the connector:
        # trailing groups first (`foo(...)`, `arr[...]`), then the head name.
        k = before + 1
        while True:
            c2, j2 = prev_significant(text, k)
            if c2 in ")]":
                g = _match_group_back(text, j2)
                if g < 0:
                    return i
                k = g
                c3, j3 = prev_significant(text, k)
                if c3 and (c3.isalnum() or c3 == "_"):
                    k = _consume_ident_back(text, j3)
                i = k
                break
            if c2 and (c2.isalnum() or c2 == "_"):
                i = _consume_ident_back(text, j2)
                break
            return i


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str           # as given (for reporting)
    rel: str            # repo-relative, '/'-separated
    text: str           # raw
    stripped: str       # comments/strings blanked
    directives: dict[int, list[str]] = field(default_factory=dict)  # line -> directives

    def allows(self, line: int, rule: str) -> bool:
        for d in self.directives.get(line, []):
            m = re.match(r"allow\(([\w,\s]+)\)", d)
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
        return False

    def has_directive(self, directive: str) -> bool:
        return any(d.startswith(directive) for ds in self.directives.values() for d in ds)


def load_source(path: str, repo_root: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    rel = os.path.relpath(os.path.abspath(path), repo_root).replace(os.sep, "/")
    sf = SourceFile(path=path, rel=rel, text=text, stripped=strip_comments_and_strings(text))
    for lineno, line in enumerate(text.splitlines(), 1):
        m = DIRECTIVE_RE.search(line)
        if m:
            sf.directives.setdefault(lineno, []).append(m.group(1))
    return sf


# --------------------------------------------------------------------------
# Signature index (drives R1)
# --------------------------------------------------------------------------

RESULT_DECL_RE = re.compile(
    r"\b(?:util\s*::\s*)?(?:Result\s*<[^;{}()]{1,200}?>|Status)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)?"          # optional class qualifier (defs)
    r"([A-Za-z_]\w*)\s*\("
)


@dataclass
class SignatureIndex:
    result_returning: set[str] = field(default_factory=set)


def index_signatures(files: list[SourceFile]) -> SignatureIndex:
    idx = SignatureIndex()
    for sf in files:
        for m in RESULT_DECL_RE.finditer(sf.stripped):
            idx.result_returning.add(m.group(1))
    return idx


# --------------------------------------------------------------------------
# R1: discarded results
# --------------------------------------------------------------------------


def is_result_name(name: str, idx: SignatureIndex) -> bool:
    if name in idx.result_returning:
        return True
    return any(name.endswith(sfx) for sfx in CONVENTION_RESULT_SUFFIXES)


def check_r1(sf: SourceFile, idx: SignatureIndex) -> list[Finding]:
    findings: list[Finding] = []
    if not sf.rel.startswith(R1_DIRS) and not sf.has_directive("fixture"):
        return findings
    s = sf.stripped
    for m in IDENT_RE.finditer(s):
        name = m.group(0)
        open_idx = m.end()
        nxt, open_at = next_significant(s, open_idx)
        if nxt != "(" or not is_result_name(name, idx):
            continue
        end = match_paren(s, open_at)
        if end < 0:
            continue
        line = line_of(s, m.start())

        # The value is used if the call expression is consumed by anything
        # other than an expression statement.
        nxt2, _ = next_significant(s, end)
        if nxt2 in ".[-":  # member access / index / '->' chains use the value
            continue
        if nxt2 != ";":
            continue  # operand of something (return, =, comparison, arg, ...)
        chain_start = walk_back_callee_chain(s, m.start())
        c, j = prev_significant(s, chain_start)
        # NOTE: ':' is NOT statement context — it is almost always the arm
        # of a ternary (`ok() ? a : b.status()`); labels are rare enough
        # that the false-negative is acceptable.
        statement_start = c in {";", "{", "}", ")", ""}
        if c and (c.isalnum() or c == "_"):
            # Preceded by an identifier/keyword: `return foo(...)`,
            # `Status s = ...` never reaches here (that's '='), but
            # `co_return`/`co_await` or a declaration `Status foo(...);`
            # land here — all of those consume or declare, not discard.
            statement_start = False
            # ... unless the identifier is a statement-like keyword: `else`.
            k = j
            while k >= 0 and (s[k].isalnum() or s[k] == "_"):
                k -= 1
            word = s[k + 1 : j + 1]
            if word in {"else", "do"}:
                statement_start = True
        if not statement_start:
            continue
        if c == ")":
            # `if (...) foo_checked();` → still a discard; but a C-style
            # cast `(void)foo()` is also a discard by policy. Either way
            # it's a finding; fall through.
            pass
        if sf.allows(line, "R1"):
            continue
        findings.append(Finding(
            sf.path, line, "R1",
            f"result of '{name}' (Status/Result-returning) is discarded; "
            "consume the Status/Result or branch on is_ok()",
        ))
    return findings


# --------------------------------------------------------------------------
# R2: FP-contraction / order-dependence in lane files
# --------------------------------------------------------------------------


def is_lane_file(sf: SourceFile) -> bool:
    if sf.has_directive("lane-file"):
        return True
    return any(
        sf.rel == p or (p.endswith("/") and sf.rel.startswith(p))
        for p in LANE_FILE_PATTERNS
    )


def check_r2(sf: SourceFile) -> list[Finding]:
    if not is_lane_file(sf):
        return []
    findings: list[Finding] = []
    s = sf.stripped
    for pat in R2_BANNED_CALLS:
        for m in re.finditer(re.escape(pat) + r"\s*\(", s):
            line = line_of(s, m.start())
            if sf.allows(line, "R2"):
                continue
            findings.append(Finding(
                sf.path, line, "R2",
                f"'{pat}' in a lane file: unspecified evaluation order / FP "
                "contraction breaks the bitwise-reproducibility contract "
                "(-ffp-contract=off, fixed association order)",
            ))
    # Pragmas live outside strings/comments in real code, but the operator
    # form _Pragma("...") IS a string — scan the raw text for both.
    for m in R2_BANNED_PRAGMA_RE.finditer(sf.text):
        line = line_of(sf.text, m.start())
        if sf.allows(line, "R2"):
            continue
        # Ignore matches inside comments (raw-text scan).
        if sf.stripped[m.start()] == " " and "_Pragma" not in m.group(0) and "#" not in m.group(0):
            continue
        line_text = sf.text.splitlines()[line - 1].lstrip()
        if line_text.startswith("//") or line_text.startswith("*") or line_text.startswith("///"):
            continue
        findings.append(Finding(
            sf.path, line, "R2",
            "order-dependent FP reduction or contraction pragma in a lane "
            "file (omp reduction / FP_CONTRACT ON / per-function optimize)",
        ))
    return findings


# --------------------------------------------------------------------------
# R3: hot-loop regions
# --------------------------------------------------------------------------

BEGIN_RE = re.compile(r"begin-hot-loop\((\w[\w-]*)\)")
END_RE = re.compile(r"end-hot-loop")


def check_r3(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    # Collect regions from directives.
    marks: list[tuple[int, str, str]] = []  # (line, kind, name)
    for line, ds in sorted(sf.directives.items()):
        for d in ds:
            bm = BEGIN_RE.match(d)
            if bm:
                marks.append((line, "begin", bm.group(1)))
            elif END_RE.match(d):
                marks.append((line, "end", ""))
    regions: list[tuple[int, int, str]] = []
    open_mark: tuple[int, str] | None = None
    for line, kind, name in marks:
        if kind == "begin":
            if open_mark is not None:
                findings.append(Finding(sf.path, line, "R3",
                                        "nested/unterminated begin-hot-loop"))
            open_mark = (line, name)
        else:
            if open_mark is None:
                findings.append(Finding(sf.path, line, "R3",
                                        "end-hot-loop without a begin"))
            else:
                regions.append((open_mark[0], line, open_mark[1]))
                open_mark = None
    if open_mark is not None:
        findings.append(Finding(sf.path, open_mark[0], "R3",
                                f"begin-hot-loop({open_mark[1]}) never closed"))

    required = any(sf.rel == p for p in REQUIRED_MARKER_FILES) or sf.has_directive(
        "require-markers"
    )
    if required and not regions:
        findings.append(Finding(
            sf.path, 1, "R3",
            "kernel file must delimit its per-step/per-lane hot loops with "
            "begin-hot-loop/end-hot-loop markers (none found)",
        ))
    if not regions:
        return findings

    lines = sf.stripped.splitlines()
    banned = {w: cat for cat, words in HOT_LOOP_BANNED.items() for w in words}
    for begin, end, name in regions:
        for lineno in range(begin + 1, end):
            text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
            for m in IDENT_RE.finditer(text):
                word = m.group(0)
                cat = banned.get(word)
                if cat is None:
                    continue
                if sf.allows(lineno, "R3"):
                    continue
                findings.append(Finding(
                    sf.path, lineno, "R3",
                    f"'{word}' ({cat}) inside hot-loop region '{name}' "
                    f"(lines {begin}-{end}): per-step/per-lane code must not "
                    "allocate, lock, or throw",
                ))
    return findings


# --------------------------------------------------------------------------
# R4: locale-free readers
# --------------------------------------------------------------------------


def is_locale_free_file(sf: SourceFile) -> bool:
    return sf.rel in LOCALE_FREE_FILES or sf.has_directive("locale-free")


def has_one_argument(text: str, open_idx: int) -> bool:
    """True when the call whose `(` is at open_idx has no top-level comma."""
    end = match_paren(text, open_idx)
    if end < 0:
        return True
    depth = 0
    for c in text[open_idx + 1 : end - 1]:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            return False
    return True


def check_r4(sf: SourceFile) -> list[Finding]:
    if not is_locale_free_file(sf):
        return []
    findings: list[Finding] = []
    s = sf.stripped
    for m in IDENT_RE.finditer(s):
        name = m.group(0)
        if name not in R4_BANNED and name not in R4_BANNED_ONE_ARG:
            continue
        before, j = prev_significant(s, m.start())
        if before == "." or (before == ">" and j > 0 and s[j - 1] == "-"):
            continue  # a member (e.g. a ctype facet's), not the C library's
        nxt, open_at = next_significant(s, m.end())
        if name in R4_BANNED_ONE_ARG and nxt == "(" and not has_one_argument(s, open_at):
            continue
        line = line_of(s, m.start())
        if sf.allows(line, "R4"):
            continue
        findings.append(Finding(
            sf.path, line, "R4",
            f"'{name}' reads the process locale in a locale-free reader; parse "
            "with std::from_chars (or strtod_l under a C locale_t) and fold "
            "ASCII by hand",
        ))
    return findings


# --------------------------------------------------------------------------
# R5: layer order
# --------------------------------------------------------------------------

ADD_LIBRARY_RE = re.compile(r"\badd_library\s*\(\s*(relmore_\w+)")
LINK_LIBRARIES_RE = re.compile(r"\btarget_link_libraries\s*\(\s*(relmore_\w+)([^)]*)\)")
RELMORE_TARGET_RE = re.compile(r"\brelmore_\w+")
MODULE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"relmore/(\w+)/')
LAYER_DIRECTIVE_RE = re.compile(r"layer\((\w+)\)")


@dataclass
class LayerGraph:
    links: dict[str, set[str]] = field(default_factory=dict)  # target -> direct links
    declared_at: dict[str, tuple[str, int]] = field(default_factory=dict)  # link line


def read_layer_graph(repo_root: str) -> LayerGraph:
    """The direct links among the library targets of src/*/CMakeLists.txt.

    Only targets an `add_library` there declares are layers, so the
    flag-only interface targets (relmore_warnings, ...) drop out.
    """
    graph = LayerGraph()
    src = os.path.join(repo_root, "src")
    raw: dict[str, set[str]] = {}
    for module in sorted(os.listdir(src)):
        path = os.path.join(src, module, "CMakeLists.txt")
        if not os.path.isfile(path):
            continue
        with open(path, "r", encoding="utf-8") as f:
            text = re.sub(r"#[^\n]*", "", f.read())
        for m in ADD_LIBRARY_RE.finditer(text):
            graph.links.setdefault(m.group(1), set())
        for m in LINK_LIBRARIES_RE.finditer(text):
            raw.setdefault(m.group(1), set()).update(RELMORE_TARGET_RE.findall(m.group(2)))
            graph.declared_at[m.group(1)] = (f"src/{module}/CMakeLists.txt", line_of(text, m.start()))
    for target in graph.links:
        graph.links[target] = raw.get(target, set()) & graph.links.keys()
    return graph


def layer_cycles(graph: LayerGraph, repo_root: str) -> list[Finding]:
    """One finding per cycle among the layers, at its first target's links."""
    findings: list[Finding] = []
    state: dict[str, int] = {}  # 1 = on the DFS stack, 2 = done
    stack: list[str] = []

    def visit(target: str) -> None:
        state[target] = 1
        stack.append(target)
        for dep in sorted(graph.links[target]):
            if state.get(dep) == 1:
                cycle = stack[stack.index(dep):] + [dep]
                rel, line = graph.declared_at.get(cycle[0], ("src/CMakeLists.txt", 1))
                findings.append(Finding(
                    os.path.join(repo_root, rel), line, "R5",
                    "library cycle " + " -> ".join(cycle) + ": a layer may link only "
                    "layers below it",
                ))
            elif dep not in state:
                visit(dep)
        stack.pop()
        state[target] = 2

    for target in sorted(graph.links):
        if target not in state:
            visit(target)
    return findings


def file_layer(sf: SourceFile) -> str | None:
    """`relmore_<n>` for a file under src/<n>/ or naming layer(<n>)."""
    for ds in sf.directives.values():
        for d in ds:
            m = LAYER_DIRECTIVE_RE.match(d)
            if m:
                return f"relmore_{m.group(1)}"
    parts = sf.rel.split("/")
    if len(parts) > 2 and parts[0] == "src" and parts[1] != "include":
        return f"relmore_{parts[1]}"
    return None


def check_r5(sf: SourceFile, graph: LayerGraph) -> list[Finding]:
    layer = file_layer(sf)
    if layer is None:
        return []
    allowed = {layer} | graph.links.get(layer, set())
    findings: list[Finding] = []
    stripped_lines = sf.stripped.splitlines()
    for lineno, text in enumerate(sf.text.splitlines(), 1):
        m = MODULE_INCLUDE_RE.match(text)
        if not m or not stripped_lines[lineno - 1].lstrip().startswith("#"):
            continue  # not an include, or one inside a comment
        target = f"relmore_{m.group(1)}"
        if target in allowed or sf.allows(lineno, "R5"):
            continue
        findings.append(Finding(
            sf.path, lineno, "R5",
            f"{layer} includes relmore/{m.group(1)}/ but does not link {target}: "
            f"include only the layers {layer} links (src/*/CMakeLists.txt)",
        ))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def discover_files(repo_root: str, compile_commands: str | None) -> list[str]:
    paths: set[str] = set()
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                p = entry.get("file", "")
                if not os.path.isabs(p):
                    p = os.path.join(entry.get("directory", ""), p)
                p = os.path.abspath(p)
                rel = os.path.relpath(p, repo_root)
                if rel.startswith(R1_DIRS) and os.path.isfile(p):
                    paths.add(p)
    else:
        for d in R1_DIRS:
            root = os.path.join(repo_root, d)
            for dirpath, _, names in os.walk(root):
                for nm in names:
                    if nm.endswith((".cpp", ".cc", ".cxx")):
                        paths.add(os.path.join(dirpath, nm))
    # Headers under src/ always join the scan (inline code carries the same
    # contracts; they also feed the signature index).
    for dirpath, _, names in os.walk(os.path.join(repo_root, "src")):
        for nm in names:
            if nm.endswith((".hpp", ".h")):
                paths.add(os.path.join(dirpath, nm))
    return sorted(paths)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files to lint (default: repo scan)")
    ap.add_argument("--repo-root", default=None)
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to enumerate TUs (default: "
                         "<repo-root>/build/compile_commands.json when present)")
    ap.add_argument("--rules", default="R1,R2,R3,R4,R5",
                    help="comma-separated subset of rules to run")
    args = ap.parse_args(argv)

    repo_root = os.path.abspath(args.repo_root or find_repo_root())
    cc = args.compile_commands
    if cc is None:
        default_cc = os.path.join(repo_root, "build", "compile_commands.json")
        cc = default_cc if os.path.isfile(default_cc) else None

    rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    bad_rules = rules - {"R1", "R2", "R3", "R4", "R5"}
    if bad_rules:
        print(f"relmore-lint: unknown rules {sorted(bad_rules)}", file=sys.stderr)
        return 2

    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
        missing = [p for p in files if not os.path.isfile(p)]
        if missing:
            for p in missing:
                print(f"relmore-lint: no such file: {p}", file=sys.stderr)
            return 2
    else:
        files = discover_files(repo_root, cc)
    sources = [load_source(p, repo_root) for p in files]

    # The signature index always sees the repo's headers, even when only a
    # fixture file was passed, so R1 knows the Result/Status names.
    index_inputs = list(sources)
    seen = {sf.path for sf in sources}
    for dirpath, _, names in os.walk(os.path.join(repo_root, "src")):
        for nm in names:
            if nm.endswith((".hpp", ".h", ".cpp")):
                p = os.path.join(dirpath, nm)
                if p not in seen:
                    index_inputs.append(load_source(p, repo_root))
    idx = index_signatures(index_inputs)

    findings: list[Finding] = []
    graph = read_layer_graph(repo_root) if "R5" in rules else LayerGraph()
    if "R5" in rules:
        findings.extend(layer_cycles(graph, repo_root))
    for sf in sources:
        if "R1" in rules:
            findings.extend(check_r1(sf, idx))
        if "R2" in rules:
            findings.extend(check_r2(sf))
        if "R3" in rules:
            findings.extend(check_r3(sf))
        if "R4" in rules:
            findings.extend(check_r4(sf))
        if "R5" in rules:
            findings.extend(check_r5(sf, graph))

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    n_files = len(sources)
    if findings:
        print(f"relmore-lint: {len(findings)} finding(s) in {n_files} file(s)",
              file=sys.stderr)
        return 1
    print(f"relmore-lint: clean ({n_files} file(s), rules {','.join(sorted(rules))})",
          file=sys.stderr)
    return 0


def find_repo_root() -> str:
    d = os.path.abspath(os.path.dirname(__file__))
    while d != os.path.dirname(d):
        if os.path.isdir(os.path.join(d, ".git")) or os.path.isfile(
            os.path.join(d, "ROADMAP.md")
        ):
            return d
        d = os.path.dirname(d)
    return os.getcwd()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
