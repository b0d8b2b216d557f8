#!/usr/bin/env python3
"""hsr-lint: token/AST-aware static analysis for the hsrtcp tree.

The repo's headline guarantee — same seed => byte-identical corpus on any
thread count — is defended statically by this engine. It replaces the old
regex/line determinism lint (tools/lint/check_determinism.py) with a real
C++ lexer (comment / string / raw-string stripping, `#if 0` elision,
preprocessor awareness), `using`/`typedef`/namespace-alias resolution, and a
pluggable rule framework. Five rule families ship today:

  determinism    wall-clock time, C randomness, ambient entropy, unseeded
                 engines, sleep-based sync and thread identity are banned in
                 the simulation core — now ALIAS-AWARE, so
                 `using Clk = std::chrono::system_clock;` and every later
                 `Clk::now()` are both caught, through multi-level chains.
                 Python tools that gate reproducibility (bench_compare.py)
                 are held to the same bar with Python-flavored rules.

  serialization  iteration order of std::unordered_{map,set} is
                 implementation-defined, so any use of an unordered
                 container (including via alias) inside the modules that
                 write archives or aggregate stats (src/trace, src/analysis,
                 src/fault, src/mptcp, src/workload) — or inside ANY
                 function named like a writer (write_*/save_*/serialize*/
                 to_text/dump*/emit*/report*) — is flagged. Use std::map /
                 std::set / sorted vectors instead.

  layering       the `#include` graph of src/ must match the architecture
                 DAG checked into tools/lint/layers.toml (util depends on
                 nothing in src/; sim never includes tcp/workload; net never
                 includes workload; ...). tools/tests/bench/examples are
                 exempt. Macro-spelled includes (`#include HDR_MACRO`)
                 cannot be layer-checked and are rejected inside src/.

  hotpath        named allocation constructs (`new`, make_unique/shared,
                 push_back/emplace/insert/resize/reserve, std::function,
                 and operator[] on a std::map / std::unordered_map
                 variable) are banned between `HSR_HOT_PATH_BEGIN` and
                 `HSR_HOT_PATH_END` comment markers — the EventQueue / Link
                 / Timer regions whose zero-allocation behaviour PR 5's
                 alloc probe pins dynamically are annotated, so an
                 allocation regression fails at lint time, not bench time.
                 Placement new (`new (addr) T`) is allowed: it constructs,
                 it does not allocate.

  ioseam         durable-write APIs — std::ofstream/std::fstream (including
                 via alias), fopen/freopen, std::rename/std::remove, and
                 std::filesystem mutations — are banned in src/trace,
                 src/fault and src/workload: every archive, chunk and
                 manifest byte must route through the util::Fs seam so
                 fault::FaultInjectingFs can script ENOSPC, torn renames
                 and transient EIO against it, and so the crash-safety
                 tests mean what they claim. Reads (std::ifstream,
                 std::filesystem queries) stay unrestricted.

A line may be exempted with a trailing `// hsr-lint-ok: <reason>` marker
(`# hsr-lint-ok: <reason>` in Python); the legacy `determinism-ok` marker is
honored as a synonym. Grep for the markers to audit every exemption.

Self-testing: `--self-test` runs the engine over the fixture corpus in
tests/lint/fixtures/. Each fixture declares its rule families and virtual
path in a `lint-fixture:` header and annotates every line that must fire
with `expect: <rule>`; the run fails unless the produced diagnostics match
the annotations EXACTLY (positive fixtures prove rules fire, negative
fixtures prove they stay quiet).

Exit status: 0 clean, 1 violations found, 2 usage/self-test/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib  # Python >= 3.11
except ModuleNotFoundError:  # pragma: no cover - dev containers run 3.11+
    tomllib = None

# --- Configuration -----------------------------------------------------------

SOURCE_SUFFIXES = {".cpp", ".h", ".cc", ".hpp"}

# Directories holding the deterministic simulation core (determinism family).
DETERMINISM_DIRS = ("src", "tools/trace_query")

# Modules whose output feeds archives or corpus statistics (serialization
# family): any unordered-container use here risks nondeterministic bytes.
SERIALIZATION_DIRS = (
    "src/trace",
    "src/analysis",
    "src/fault",
    "src/mptcp",
    "src/workload",
)

# Functions named like writers are serialization-sensitive wherever they live.
WRITER_FN_RE = re.compile(
    r"^(write|save|serialize|to_text|dump|emit|report)\w*$")

# The include-layering DAG lives next to this script.
LAYERS_TOML = "layers.toml"

# Python tools that feed the reproducibility pipeline, relative to repo root.
CHECKED_PYTHON_FILES = ("tools/bench_compare.py",)

FIXTURE_DIR = "tests/lint/fixtures"

EXEMPT_MARKERS = ("hsr-lint-ok", "determinism-ok")

HOT_BEGIN = "HSR_HOT_PATH_BEGIN"
HOT_END = "HSR_HOT_PATH_END"

ALL_FAMILIES = ("determinism", "serialization", "layering", "hotpath", "ioseam")

# Modules whose durable writes must route through util::Fs (ioseam family):
# these are the crash-safety-tested writers — a raw ofstream/rename here is
# invisible to fault injection and voids the resume guarantees.
IOSEAM_DIRS = ("src/trace", "src/fault", "src/workload")

# --- Lexer -------------------------------------------------------------------

_RAW_PREFIXES = {"R", "uR", "UR", "LR", "u8R"}
_PP_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)(.*)$")
_INCLUDE_RE = re.compile(r'^\s*(?:"([^"]+)"|<([^>]+)>|([A-Za-z_]\w*))')


@dataclass
class Include:
    line: int
    target: str
    kind: str  # "quote" | "angle" | "macro"


@dataclass
class LexedFile:
    """A C++ translation unit after lexical analysis.

    `code_lines[i]` is line i+1 with comments, string/char-literal contents,
    raw-string contents and preprocessor-disabled (`#if 0`) regions replaced
    by spaces — column positions are preserved, so regexes report true
    locations. `tokens` is the identifier/punctuator stream of that cleaned
    text with 1-based line numbers.
    """
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)
    tokens: list[tuple[int, str]] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)


def _blank_keep_layout(text: str) -> str:
    """Replaces every non-whitespace char with a space (layout preserved)."""
    return "".join(c if c in "\n\t" else " " for c in text)


def lex_cpp(text: str) -> LexedFile:
    out = LexedFile()
    out.raw_lines = text.splitlines()

    n = len(text)
    i = 0
    cleaned: list[str] = []  # characters of the cleaned text
    line = 1
    bol = True              # at beginning of (logical) line, ws allowed
    # Preprocessor conditional stack: one entry per open #if, True when the
    # branch being scanned is DISABLED (i.e. `#if 0` / `#if false`).
    pp_stack: list[bool] = []

    def disabled() -> bool:
        return any(pp_stack)

    def emit(c: str) -> None:
        cleaned.append(c if not disabled() or c == "\n" else (" " if c != "\n" else c))

    while i < n:
        c = text[i]

        if c == "\n":
            cleaned.append("\n")
            line += 1
            bol = True
            i += 1
            continue

        # Preprocessor directives are recognized even inside `#if 0` regions
        # (nesting must balance), but their text is blanked when disabled.
        if bol and c == "#":
            j = text.find("\n", i)
            if j == -1:
                j = n
            directive = text[i:j]
            m = _PP_DIRECTIVE_RE.match(directive)
            name = m.group(1) if m else ""
            rest = (m.group(2) or "").strip() if m else ""
            was_disabled = disabled()
            if name in ("if", "ifdef", "ifndef"):
                dead = name == "if" and rest.split("//")[0].split("/*")[0].strip() in ("0", "false")
                pp_stack.append(dead)
            elif name in ("else", "elif") and pp_stack:
                # `#if 0 ... #else LIVE #endif`: the else-branch compiles.
                # `#if X ... #else ...`: lint both branches (conservative).
                if pp_stack[-1]:
                    pp_stack[-1] = False
                elif name == "elif":
                    pass  # stays live: we cannot evaluate the condition
            elif name == "endif" and pp_stack:
                pp_stack.pop()
            # The directive line itself never contributes code tokens, but
            # live #include lines are recorded for the layering family.
            if name == "include" and not was_disabled:
                im = _INCLUDE_RE.match(rest)
                if im:
                    if im.group(1):
                        out.includes.append(Include(line, im.group(1), "quote"))
                    elif im.group(2):
                        out.includes.append(Include(line, im.group(2), "angle"))
                    else:
                        out.includes.append(Include(line, im.group(3), "macro"))
            cleaned.append(_blank_keep_layout(directive))
            line += directive.count("\n")
            i = j
            continue

        if not c.isspace():
            bol = False

        if disabled():
            emit(c)
            i += 1
            continue

        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                if j == -1:
                    j = n
                cleaned.append(" " * (j - i))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
                chunk = text[i:j]
                cleaned.append(_blank_keep_layout(chunk))
                line += chunk.count("\n")
                i = j
                continue

        # Raw strings: R"delim( ... )delim"  (with optional u8/u/U/L prefix).
        if c == '"':
            k = len(cleaned)
            ident = []
            while k > 0 and (cleaned[k - 1].isalnum() or cleaned[k - 1] == "_"):
                ident.append(cleaned[k - 1])
                k -= 1
            prefix = "".join(reversed(ident))
            if prefix in _RAW_PREFIXES or (prefix and prefix[-1] == "R" and prefix in _RAW_PREFIXES):
                close = text.find("(", i)
                delim = text[i + 1:close] if close != -1 else ""
                terminator = ")" + delim + '"'
                j = text.find(terminator, close + 1) if close != -1 else -1
                j = n if j == -1 else j + len(terminator)
                chunk = text[i:j]
                cleaned.append('"')
                cleaned.append(_blank_keep_layout(chunk[1:-1]) if len(chunk) >= 2 else "")
                cleaned.append('"')
                line += chunk.count("\n")
                i = j
                continue
            # Ordinary string literal.
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                if j < n and text[j] == "\n":
                    line += 1
                j += 1
            j = min(j + 1, n)
            chunk = text[i:j]
            cleaned.append('"')
            cleaned.append(_blank_keep_layout(chunk[1:-1]) if len(chunk) >= 2 else "")
            cleaned.append('"')
            i = j
            continue

        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            cleaned.append("' '" if j - i >= 2 else "'")
            cleaned.append(" " * max(0, (j - i) - len("' '")))
            i = j
            continue

        emit(c)
        i += 1

    cleaned_text = "".join(cleaned)
    out.code_lines = cleaned_text.splitlines()
    # Pad so raw/code line counts agree even without a trailing newline.
    while len(out.code_lines) < len(out.raw_lines):
        out.code_lines.append("")

    token_re = re.compile(r"[A-Za-z_]\w*|::|[0-9][\w.]*|[{}()\[\];,=&*<>.~!+-/%|^?:]")
    for lineno, code in enumerate(out.code_lines, start=1):
        for m in token_re.finditer(code):
            out.tokens.append((lineno, m.group(0)))
    return out


# --- Qualified names & alias resolution --------------------------------------

@dataclass
class QualifiedName:
    line: int
    text: str          # e.g. "std::chrono::system_clock"
    next_tokens: list[str] = field(default_factory=list)  # up to 3 following
    end: int = 0       # index of the first token after the name


def collect_qualified_names(tokens: list[tuple[int, str]]) -> list[QualifiedName]:
    """Merges runs of identifier/`::` tokens into qualified names.

    Template arguments are folded into the name text (with <...> contents
    kept) so `std::unordered_map<K, V>` scans as one name; line number is
    the run's first line, which also catches names split across lines.
    """
    names: list[QualifiedName] = []
    i = 0
    n = len(tokens)
    while i < n:
        line, tok = tokens[i]
        if re.fullmatch(r"[A-Za-z_]\w*", tok) or tok == "::":
            j = i
            parts = []
            while j < n and (re.fullmatch(r"[A-Za-z_]\w*", tokens[j][1]) or tokens[j][1] == "::"):
                # Two adjacent identifiers (no ::) end the qualified name:
                # `system_clock now` is a declaration, not one name.
                if parts and parts[-1] != "::" and tokens[j][1] != "::" and \
                        re.fullmatch(r"[A-Za-z_]\w*", tokens[j][1]):
                    break
                parts.append(tokens[j][1])
                j += 1
            text = "".join(parts)
            following = [t for (_, t) in tokens[j:j + 4]]
            names.append(QualifiedName(line, text, following, j))
            i = j
        else:
            i += 1
    return names


def _join_tokens(parts: list[str]) -> str:
    """Rebuilds type text; a space only between adjacent word tokens, so
    `typedef std::chrono::system_clock SysClk` keeps its name separable."""
    out: list[str] = []
    for p in parts:
        if out and p[:1].isidentifier() and (out[-1][-1].isalnum() or out[-1][-1] == "_"):
            out.append(" ")
        out.append(p)
    return "".join(out)


class AliasTable:
    """`using X = T;` / `typedef T X;` / `namespace n = m;` / `using a::b;`

    Maps a (possibly unqualified) name to its declared right-hand side and
    resolves chains transitively so `using B = A;` with
    `using A = std::chrono::steady_clock;` resolves B to the clock.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, tuple[int, str]] = {}  # name -> (line, rhs)

    @staticmethod
    def build(tokens: list[tuple[int, str]]) -> "AliasTable":
        table = AliasTable()
        toks = tokens
        n = len(toks)
        i = 0

        def take_until_semi(start: int) -> tuple[str, int]:
            parts = []
            j = start
            while j < n and toks[j][1] != ";":
                parts.append(toks[j][1])
                j += 1
            return _join_tokens(parts), j

        while i < n:
            line, tok = toks[i]
            if tok == "using" and i + 2 < n:
                name = toks[i + 1][1]
                if toks[i + 2][1] == "=" and re.fullmatch(r"[A-Za-z_]\w*", name):
                    rhs, j = take_until_semi(i + 3)
                    table.aliases[name] = (line, rhs)
                    i = j
                    continue
                # using-declaration: `using std::chrono::system_clock;`
                rhs, j = take_until_semi(i + 1)
                if "::" in rhs and re.fullmatch(r"[\w:<>,\s]*", rhs):
                    leaf = rhs.rstrip(":").split("::")[-1].split("<")[0]
                    if re.fullmatch(r"[A-Za-z_]\w*", leaf):
                        table.aliases[leaf] = (line, rhs)
                i = j
                continue
            if tok == "typedef":
                rhs, j = take_until_semi(i + 1)
                m = re.match(r"^(.*?)\s+([A-Za-z_]\w*)$", rhs)
                if m and m.group(1).strip():
                    table.aliases[m.group(2)] = (line, m.group(1).strip())
                i = j
                continue
            if tok == "namespace" and i + 2 < n and toks[i + 2][1] == "=":
                name = toks[i + 1][1]
                rhs, j = take_until_semi(i + 3)
                table.aliases[name] = (line, rhs)
                i = j
                continue
            i += 1
        return table

    def resolve(self, name: str) -> str:
        """Expands leading alias components transitively (depth-capped)."""
        seen = set()
        current = name
        for _ in range(8):
            head = current.split("::")[0].split("<")[0]
            if head in seen or head not in self.aliases:
                return current
            seen.add(head)
            rhs = self.aliases[head][1]
            current = rhs + current[len(head):]
        return current


# --- Diagnostics & rule framework --------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    path: str   # repo-relative
    line: int
    rule: str
    message: str


@dataclass
class FileContext:
    path: str                       # repo-relative virtual path (layering/dirs)
    lexed: LexedFile
    aliases: AliasTable
    names: list[QualifiedName]
    families: tuple[str, ...]
    layers: "Layers"

    def exempt(self, line: int) -> bool:
        if 1 <= line <= len(self.lexed.raw_lines):
            raw = self.lexed.raw_lines[line - 1]
            return any(marker in raw for marker in EXEMPT_MARKERS)
        return False


class Rule:
    family = ""

    def check(self, ctx: FileContext):
        raise NotImplementedError


# --- Layers config -----------------------------------------------------------

class Layers:
    def __init__(self, allowed: dict[str, set[str]]) -> None:
        self.allowed = allowed

    @property
    def modules(self) -> set[str]:
        return set(self.allowed)

    @staticmethod
    def load(path: Path) -> "Layers":
        text = path.read_text()
        if tomllib is not None:
            doc = tomllib.loads(text)
            allowed_doc = doc.get("allowed", {})
        else:  # minimal fallback: `name = ["a", "b"]` lines under [allowed]
            allowed_doc = {}
            in_allowed = False
            for raw in text.splitlines():
                stripped = raw.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if stripped.startswith("["):
                    in_allowed = stripped == "[allowed]"
                    continue
                if in_allowed and "=" in stripped:
                    key, _, rhs = stripped.partition("=")
                    allowed_doc[key.strip()] = re.findall(r'"([^"]+)"', rhs)
        allowed = {k: set(v) for k, v in allowed_doc.items()}
        if not allowed:
            raise ValueError(f"{path}: no [allowed] table")
        return Layers(allowed)


# --- determinism family ------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"(?:std::)?chrono::(?:system_clock|steady_clock|high_resolution_clock)\b")
ENGINE_RE = re.compile(
    r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b)\b")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")

# Line-regex rules for C spellings that aliases cannot disguise.
DET_LINE_RULES = [
    ("c-time",
     re.compile(r"(\bstd::time\s*\(|(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"
                r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
                r"|(?:\bstd::|(?<![\w:.]))clock\s*\(\s*\)"
                r"|\blocaltime\s*\(|\bgmtime\s*\()"),
     "C wall-clock time breaks reproducibility; use sim::Simulator::now()"),
    ("c-rand",
     re.compile(r"(?:\bstd::|(?<![\w:.]))(s?rand|random|srand48|[dlm]rand48)\s*\("),
     "C randomness is unseeded global state; fork an hsr::util::Rng instead"),
    ("sleep-sync",
     re.compile(r"(\bthis_thread::sleep_(for|until)\b"
                r"|(?<![\w:])(usleep|nanosleep)\s*\("
                r"|(?<![\w:.])sleep\s*\(\s*\d)"),
     "sleeping is not synchronization and adds wall-time dependence; "
     "join via ThreadPool::parallel_for or block on a condition variable"),
    ("thread-id",
     re.compile(r"(\bthis_thread::get_id\s*\(|\bpthread_self\s*\()"),
     "thread identity must never feed seeds or control flow; derive "
     "per-shard streams from (seed, index) via Rng::fork()"),
]


class DeterminismRule(Rule):
    family = "determinism"

    def check(self, ctx: FileContext):
        reported: set[tuple[int, str]] = set()

        def report(line: int, rule: str, message: str):
            if (line, rule) in reported or ctx.exempt(line):
                return
            reported.add((line, rule))
            yield Diagnostic(ctx.path, line, rule, message)

        for lineno, code in enumerate(ctx.lexed.code_lines, start=1):
            for rule, rx, why in DET_LINE_RULES:
                if rx.search(code):
                    yield from report(lineno, rule, why)

        # Qualified-name rules, alias-resolved: catches `using Clk = ...;`
        # definitions (the RHS is itself a qualified name), every later use
        # of the alias, and multi-level chains.
        names = ctx.names
        for idx, qn in enumerate(names):
            resolved = ctx.aliases.resolve(qn.text)
            via = "" if resolved == qn.text else f" ('{qn.text}' resolves to '{resolved}')"
            if WALL_CLOCK_RE.search(resolved):
                yield from report(
                    qn.line, "wall-clock",
                    "wall-clock time breaks reproducibility; use "
                    "sim::Simulator::now()" + via)
            if RANDOM_DEVICE_RE.search(resolved):
                yield from report(
                    qn.line, "random-device",
                    "ambient entropy defeats seeded reproduction; fork an "
                    "hsr::util::Rng" + via)
            if ENGINE_RE.search(resolved):
                # Engine NAME use is fine in a few shapes (return type of
                # Rng::engine(), reference binding); the ban is on holding /
                # constructing a raw engine: `Engine e;`, `Engine e{};`,
                # `Engine e();`, members `Engine e_;`.
                nxt = qn.next_tokens
                decl = (len(nxt) >= 2
                        and re.fullmatch(r"[A-Za-z_]\w*", nxt[0]) is not None
                        and (nxt[1] == ";"
                             or (len(nxt) >= 3 and nxt[1] + nxt[2] in ("{}", "()"))))
                if decl:
                    yield from report(
                        qn.line, "unseeded-engine",
                        "raw/unseeded engine construction; obtain engines via "
                        "Rng::fork()" + via)


# --- serialization family ----------------------------------------------------

UNORDERED_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")
UNORDERED_HEADERS = {"unordered_map", "unordered_set"}


def function_scopes(tokens: list[tuple[int, str]]) -> list[tuple[int, int, str]]:
    """Best-effort (start_line, end_line, name) spans for function bodies.

    Heuristic brace matching: a `{` preceded by `)` (allowing const /
    noexcept / override / trailing-return tokens in between) opens a
    function whose name is the identifier before the matching `(`.
    """
    spans: list[tuple[int, int, str]] = []
    stack: list[tuple[str | None, int]] = []
    n = len(tokens)
    for i, (line, tok) in enumerate(tokens):
        if tok == "{":
            name = None
            j = i - 1
            skippable = {"const", "noexcept", "override", "final", "mutable", "->"}
            while j >= 0 and tokens[j][1] in skippable:
                j -= 1
            if j >= 0 and tokens[j][1] == ")":
                depth = 1
                j -= 1
                while j >= 0 and depth:
                    if tokens[j][1] == ")":
                        depth += 1
                    elif tokens[j][1] == "(":
                        depth -= 1
                    j -= 1
                if j >= 0 and re.fullmatch(r"[A-Za-z_]\w*", tokens[j][1]):
                    name = tokens[j][1]
            stack.append((name, line))
        elif tok == "}" and stack:
            name, start = stack.pop()
            if name is not None:
                spans.append((start, line, name))
    # Unclosed scopes (truncated file): extend to EOF.
    last_line = tokens[-1][0] if tokens else 0
    for name, start in stack:
        if name is not None:
            spans.append((start, last_line, name))
    return spans


class SerializationRule(Rule):
    family = "serialization"

    def check(self, ctx: FileContext):
        in_dir = any(ctx.path.startswith(d + "/") for d in SERIALIZATION_DIRS)
        writer_spans = [
            (a, b) for (a, b, name) in function_scopes(ctx.lexed.tokens)
            if WRITER_FN_RE.match(name)
        ] if not in_dir else []

        def sensitive(line: int) -> str | None:
            if in_dir:
                return "serialization-sensitive module"
            for a, b in writer_spans:
                if a <= line <= b:
                    return "writer function"
            return None

        if in_dir:
            for inc in ctx.lexed.includes:
                if inc.kind == "angle" and inc.target in UNORDERED_HEADERS:
                    if not ctx.exempt(inc.line):
                        yield Diagnostic(
                            ctx.path, inc.line, "unordered-include",
                            f"<{inc.target}> included in a serialization-"
                            "sensitive module; iteration order is "
                            "implementation-defined — use std::map/std::set "
                            "or sorted vectors")

        reported: set[int] = set()
        for qn in ctx.names:
            resolved = ctx.aliases.resolve(qn.text)
            if not UNORDERED_RE.search(resolved):
                continue
            where = sensitive(qn.line)
            if where is None or qn.line in reported or ctx.exempt(qn.line):
                continue
            reported.add(qn.line)
            via = "" if resolved == qn.text else f" ('{qn.text}' resolves to '{resolved}')"
            yield Diagnostic(
                ctx.path, qn.line, "unordered-container",
                f"unordered container in a {where}: iteration order is "
                "implementation-defined and can leak into archives/stats; "
                "use std::map/std::set or a sorted vector" + via)


# --- layering family ---------------------------------------------------------

class LayeringRule(Rule):
    family = "layering"

    def check(self, ctx: FileContext):
        parts = ctx.path.split("/")
        if len(parts) < 3 or parts[0] != "src":
            return  # tools/tests/bench/examples are exempt
        module = parts[1]
        layers = ctx.layers
        if module not in layers.modules:
            yield Diagnostic(
                ctx.path, 1, "unknown-module",
                f"module 'src/{module}' has no entry in tools/lint/{LAYERS_TOML}; "
                "add its allowed dependencies to the [allowed] table")
            return
        allowed = layers.allowed[module]
        for inc in ctx.lexed.includes:
            if ctx.exempt(inc.line):
                continue
            if inc.kind == "macro":
                yield Diagnostic(
                    ctx.path, inc.line, "macro-include",
                    f"macro-spelled include '#include {inc.target}' cannot be "
                    "layer-checked; spell the header path literally")
                continue
            if inc.kind != "quote" or "/" not in inc.target:
                continue
            dep = inc.target.split("/")[0]
            if dep not in layers.modules:
                continue  # not a src/ module header (e.g. bench/common.h)
            if dep == module or dep in allowed:
                continue
            yield Diagnostic(
                ctx.path, inc.line, "layer-violation",
                f"src/{module} must not include {inc.target}: the "
                f"architecture DAG ({LAYERS_TOML}) allows src/{module} -> "
                f"{{{', '.join(sorted(allowed)) or 'nothing'}}} only")


# --- hotpath family ----------------------------------------------------------

HOT_BANNED_CALLS = {
    "make_unique": "heap allocation",
    "make_shared": "heap allocation",
    "push_back": "potential reallocation",
    "emplace_back": "potential reallocation",
    "insert": "node allocation / reallocation",
    "emplace": "node allocation / reallocation",
    "resize": "potential reallocation",
    "reserve": "allocation",
}
HOT_BANNED_TYPES_RE = re.compile(r"std::function\b")
# Node-based maps whose operator[] inserts (allocates) on a miss. A
# subscript on a variable declared with one of these types is flagged; a
# subscript on anything else (a flat vector indexed by slot) is not.
HOT_NODE_MAP_RE = re.compile(r"^std::(?:unordered_)?map\b")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def node_map_variables(ctx: "FileContext") -> set[str]:
    """Names declared in the file with a std::map / std::unordered_map type
    (directly or through an alias): `std::map<K, V> m`, `const Alias& m`."""
    tokens = ctx.lexed.tokens
    n = len(tokens)
    names: set[str] = set()
    for qn in ctx.names:
        if not HOT_NODE_MAP_RE.match(ctx.aliases.resolve(qn.text)):
            continue
        j = qn.end
        if j < n and tokens[j][1] == "<":  # skip the template arguments
            depth = 0
            while j < n:
                if tokens[j][1] == "<":
                    depth += 1
                elif tokens[j][1] == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        while j < n and tokens[j][1] in ("const", "&", "*"):
            j += 1
        if (j < n and _IDENT_RE.fullmatch(tokens[j][1])
                and not (j + 1 < n and tokens[j + 1][1] in ("(", "::"))):
            names.add(tokens[j][1])
    return names


def hot_regions(raw_lines: list[str]) -> tuple[list[tuple[int, int]], list[Diagnostic] | None]:
    """Extracts (begin_line, end_line) marker regions; None diags if balanced."""
    regions: list[tuple[int, int]] = []
    problems: list[tuple[int, str]] = []
    open_line: int | None = None
    for lineno, raw in enumerate(raw_lines, start=1):
        if HOT_BEGIN in raw:
            if open_line is not None:
                problems.append((lineno, f"nested {HOT_BEGIN} (region opened at "
                                         f"line {open_line} is still open)"))
            else:
                open_line = lineno
        elif HOT_END in raw:
            if open_line is None:
                problems.append((lineno, f"{HOT_END} without a matching {HOT_BEGIN}"))
            else:
                regions.append((open_line, lineno))
                open_line = None
    if open_line is not None:
        problems.append((open_line, f"{HOT_BEGIN} never closed by {HOT_END}"))
    return regions, problems or None


class HotPathRule(Rule):
    family = "hotpath"

    def check(self, ctx: FileContext):
        regions, problems = hot_regions(ctx.lexed.raw_lines)
        if problems:
            for line, why in problems:
                yield Diagnostic(ctx.path, line, "hot-marker", why)
        if not regions:
            return

        def in_region(line: int) -> bool:
            return any(a <= line <= b for a, b in regions)

        reported: set[tuple[int, str]] = set()

        def report(line: int, what: str, why: str):
            if (line, what) in reported or ctx.exempt(line):
                return
            reported.add((line, what))
            yield Diagnostic(
                ctx.path, line, "hot-alloc",
                f"'{what}' inside an {HOT_BEGIN}/{HOT_END} region ({why}); "
                "the hot path must not allocate — restructure, or exempt an "
                "amortized growth line with 'hsr-lint-ok: <reason>'")

        tokens = ctx.lexed.tokens
        maps = node_map_variables(ctx)
        for i, (line, tok) in enumerate(tokens):
            if not in_region(line):
                continue
            if tok in maps and i + 1 < len(tokens) and tokens[i + 1][1] == "[":
                yield from report(line, "operator[]",
                                  "std::map::operator[] allocates a node on a miss; "
                                  "index a flat array by slot instead")
            elif tok == "new":
                # Placement new constructs into existing storage: allowed.
                if i + 1 < len(tokens) and tokens[i + 1][1] == "(":
                    continue
                yield from report(line, "new", "heap allocation")
            elif tok == "delete":
                yield from report(line, "delete", "heap deallocation")
            elif tok in HOT_BANNED_CALLS:
                # Only calls: `x.push_back(...)`, `make_unique<...>`.
                nxt = tokens[i + 1][1] if i + 1 < len(tokens) else ""
                if nxt in ("(", "<"):
                    yield from report(line, tok, HOT_BANNED_CALLS[tok])
        for qn in ctx.names:
            if not in_region(qn.line):
                continue
            resolved = ctx.aliases.resolve(qn.text)
            if HOT_BANNED_TYPES_RE.search(resolved):
                yield from report(qn.line, "std::function",
                                  "type-erased callable may heap-allocate; "
                                  "use util::InlineFunction")


# --- ioseam family -----------------------------------------------------------

# Write-capable stream types. std::ifstream is deliberately NOT here: reads
# carry no durability contract, so the load paths keep their plain streams.
WRITE_STREAM_RE = re.compile(r"\bstd::(?:basic_)?(?:ofstream|fstream)\b")

# std::filesystem calls that MUTATE the tree. Queries (exists, file_size,
# status, ...) stay allowed.
FILESYSTEM_WRITE_RE = re.compile(
    r"\bstd::filesystem::(?:rename|remove|remove_all|copy|copy_file|"
    r"create_director(?:y|ies)|create_symlink|create_hard_link|"
    r"resize_file|permissions|last_write_time)\b")

IOSEAM_HINT = (
    "; durable writes in src/{trace,fault,workload} must go through the "
    "util::Fs seam (write_file_atomic / open_writable / rename_file / "
    "remove_file) so fault injection can script ENOSPC and torn renames "
    "against them")

# C spellings that aliases cannot disguise. Member calls (`fs.rename_file`,
# `list.remove`) and identifiers that merely contain the word
# (`rename_file(`) do not match.
IOSEAM_LINE_RULES = [
    ("raw-cio-write",
     re.compile(r"(?:\bstd::|(?<![\w:.]))(?:fopen|freopen)\s*\("),
     "C stdio opens a file handle the I/O seam cannot see" + IOSEAM_HINT),
    ("raw-cio-write",
     re.compile(r"(?:\bstd::|(?<![\w:.]))(?:rename|remove|unlink)\s*\("),
     "C rename/remove mutates the filesystem behind the I/O seam"
     + IOSEAM_HINT + " (for erase-remove on containers use std::remove_if "
     "or std::erase)"),
]


class IoSeamRule(Rule):
    family = "ioseam"

    def check(self, ctx: FileContext):
        if not any(ctx.path.startswith(d + "/") for d in IOSEAM_DIRS):
            return
        reported: set[tuple[int, str]] = set()

        def report(line: int, rule: str, message: str):
            if (line, rule) in reported or ctx.exempt(line):
                return
            reported.add((line, rule))
            yield Diagnostic(ctx.path, line, rule, message)

        for lineno, code in enumerate(ctx.lexed.code_lines, start=1):
            for rule, rx, why in IOSEAM_LINE_RULES:
                if rx.search(code):
                    yield from report(lineno, rule, why)

        # Alias-resolved qualified names: `using Sink = std::ofstream;` and
        # `namespace sfs = std::filesystem;` are both seen through.
        for qn in ctx.names:
            resolved = ctx.aliases.resolve(qn.text)
            via = "" if resolved == qn.text else f" ('{qn.text}' resolves to '{resolved}')"
            if WRITE_STREAM_RE.search(resolved):
                yield from report(
                    qn.line, "raw-write-stream",
                    "write-capable stream bypasses the I/O seam"
                    + IOSEAM_HINT + via)
            if FILESYSTEM_WRITE_RE.search(resolved):
                yield from report(
                    qn.line, "raw-filesystem-write",
                    "std::filesystem mutation bypasses the I/O seam"
                    + IOSEAM_HINT + via)


RULES: dict[str, Rule] = {
    "determinism": DeterminismRule(),
    "serialization": SerializationRule(),
    "layering": LayeringRule(),
    "hotpath": HotPathRule(),
    "ioseam": IoSeamRule(),
}


# --- Python rules (determinism family, tools) --------------------------------

PYTHON_RULES = [
    ("py-random",
     re.compile(r"(\bimport\s+random\b|\bfrom\s+random\s+import\b|\brandom\.\w+\s*\()"),
     "the random module breaks tool reproducibility; thread an explicit "
     "seed through inputs if randomness is ever needed"),
    ("py-wall-clock",
     re.compile(r"(\btime\.(time|time_ns|monotonic|monotonic_ns|perf_counter|"
                r"perf_counter_ns|process_time)\s*\("
                r"|\bdatetime\.(now|utcnow|today)\s*\("
                r"|\bdate\.today\s*\()"),
     "wall-clock reads make tool output time-dependent; timestamps belong "
     "in the bench JSON inputs, not in the comparator"),
    ("py-entropy",
     re.compile(r"(\bos\.urandom\s*\(|\bimport\s+secrets\b|\buuid\.uuid[14]\s*\()"),
     "ambient entropy defeats reproduction; derive identifiers from inputs"),
    ("py-sleep",
     re.compile(r"\btime\.sleep\s*\("),
     "sleeping adds wall-time dependence; tools must not wait on the clock"),
]


def lint_python_file(root: Path, rel: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    path = root / rel
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if any(marker in raw for marker in EXEMPT_MARKERS):
            continue
        code = raw.split("#", 1)[0]
        for rule, rx, why in PYTHON_RULES:
            if rx.search(code):
                diags.append(Diagnostic(rel, lineno, rule, why))
    return diags


# --- Driver ------------------------------------------------------------------

def lint_cpp_text(text: str, virtual_path: str, families: tuple[str, ...],
                  layers: Layers) -> list[Diagnostic]:
    lexed = lex_cpp(text)
    ctx = FileContext(
        path=virtual_path,
        lexed=lexed,
        aliases=AliasTable.build(lexed.tokens),
        names=collect_qualified_names(lexed.tokens),
        families=families,
        layers=layers,
    )
    diags: list[Diagnostic] = []
    for family in families:
        diags.extend(RULES[family].check(ctx))
    return sorted(diags, key=lambda d: (d.line, d.rule))


def iter_tree_files(root: Path, families: tuple[str, ...]):
    """Yields (path, families-to-apply) for the full-tree run."""
    dirs: dict[str, set[str]] = {}

    def add(rel_dir: str, family: str):
        dirs.setdefault(rel_dir, set()).add(family)

    if "determinism" in families:
        for d in DETERMINISM_DIRS:
            add(d, "determinism")
    if "ioseam" in families:
        for d in IOSEAM_DIRS:
            add(d, "ioseam")
    for d in ("src",):
        for fam in ("serialization", "layering", "hotpath"):
            if fam in families:
                add(d, fam)

    seen: dict[Path, set[str]] = {}
    for rel_dir, fams in dirs.items():
        base = root / rel_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                seen.setdefault(path, set()).update(fams)
    for path in sorted(seen):
        yield path, tuple(sorted(seen[path]))


def run_lint(root: Path, families: tuple[str, ...]) -> int:
    try:
        layers = Layers.load(Path(__file__).resolve().parent / LAYERS_TOML)
    except (OSError, ValueError) as e:
        print(f"hsr-lint: cannot load layers config: {e}", file=sys.stderr)
        return 2

    diags: list[Diagnostic] = []
    files = 0
    for path, fams in iter_tree_files(root, families):
        files += 1
        rel = path.relative_to(root).as_posix()
        diags.extend(lint_cpp_text(path.read_text(), rel, fams, layers))
    if "determinism" in families:
        for rel in CHECKED_PYTHON_FILES:
            if not (root / rel).is_file():
                print(f"hsr-lint: missing checked Python file {rel}", file=sys.stderr)
                return 2
            files += 1
            diags.extend(lint_python_file(root, rel))

    if files == 0:
        print("hsr-lint: no source files found", file=sys.stderr)
        return 2
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.rule)):
        print(f"{d.path}:{d.line}: [{d.rule}] {d.message}")
    if diags:
        print(f"hsr-lint: {len(diags)} violation(s) in {files} file(s) "
              f"(families: {', '.join(families)})")
        return 1
    print(f"hsr-lint: OK ({files} files clean; families: {', '.join(families)})")
    return 0


# --- Self-test over the fixture corpus ---------------------------------------

FIXTURE_HEADER_RE = re.compile(
    r"lint-fixture:\s*rules=([\w,]+)(?:\s+path=(\S+))?")
EXPECT_RE = re.compile(r"expect:\s*([\w,\s-]+?)\s*(?:\*/)?\s*$")


def run_self_test(root: Path, families: tuple[str, ...]) -> int:
    fixture_dir = root / FIXTURE_DIR
    if not fixture_dir.is_dir():
        print(f"hsr-lint: fixture directory {FIXTURE_DIR} missing", file=sys.stderr)
        return 2
    try:
        layers = Layers.load(Path(__file__).resolve().parent / LAYERS_TOML)
    except (OSError, ValueError) as e:
        print(f"hsr-lint: cannot load layers config: {e}", file=sys.stderr)
        return 2

    failures: list[str] = []
    fixtures = 0
    checked_expectations = 0
    for path in sorted(fixture_dir.iterdir()):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        text = path.read_text()
        header = FIXTURE_HEADER_RE.search(text)
        if not header:
            failures.append(f"{path.name}: missing 'lint-fixture: rules=...' header")
            continue
        fams = tuple(f for f in header.group(1).split(",") if f)
        unknown = [f for f in fams if f not in RULES]
        if unknown:
            failures.append(f"{path.name}: unknown rule families {unknown}")
            continue
        if not set(fams) & set(families):
            continue  # family-filtered self-test run
        fams = tuple(f for f in fams if f in families)
        virtual = header.group(2) or f"{FIXTURE_DIR}/{path.name}"
        fixtures += 1

        expected: set[tuple[int, str]] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            m = EXPECT_RE.search(raw)
            if m and ("//" in raw or "/*" in raw):
                for rule in re.split(r"[,\s]+", m.group(1).strip()):
                    if rule:
                        expected.add((lineno, rule))

        actual = {(d.line, d.rule)
                  for d in lint_cpp_text(text, virtual, fams, layers)}
        checked_expectations += len(expected)
        for line, rule in sorted(expected - actual):
            failures.append(f"{path.name}:{line}: expected [{rule}] did not fire")
        for line, rule in sorted(actual - expected):
            failures.append(f"{path.name}:{line}: unexpected [{rule}]")

    if fixtures == 0:
        print(f"hsr-lint: no fixtures matched families {families} under "
              f"{FIXTURE_DIR}", file=sys.stderr)
        return 2

    # Python rule corpus (snippets assembled so this file stays clean).
    py_bad = [
        ("py-random", "import " + "random"),
        ("py-random", "x = " + "random" + ".randint(0, 6)"),
        ("py-wall-clock", "t0 = " + "time" + ".time()"),
        ("py-wall-clock", "t0 = " + "time" + ".perf_counter()"),
        ("py-wall-clock", "stamp = " + "datetime" + ".now().isoformat()"),
        ("py-entropy", "salt = " + "os" + ".urandom(16)"),
        ("py-entropy", "run_id = " + "uuid" + ".uuid4()"),
        ("py-sleep", "time" + ".sleep(0.5)"),
    ]
    py_good = [
        "metrics = {k: float(v) for k, v in metrics.items()}",
        "worse = (cur - base) / abs(base)",
        "# comparing time.time() results would be wrong — prose, not code",
        "elapsed = doc['wall_s']  # wall time read from the JSON input",
        "seed = int(doc['seed'])",
    ]
    if "determinism" in families:
        for expected_rule, snippet in py_bad:
            code = snippet.split("#", 1)[0]
            hits = [r for r, rx, _ in PYTHON_RULES if rx.search(code)]
            checked_expectations += 1
            if not hits:
                failures.append(f"python corpus: missed [{expected_rule}]: {snippet}")
            elif hits[0] != expected_rule:
                failures.append(f"python corpus: wrong rule ({hits[0]} != "
                                f"{expected_rule}): {snippet}")
        for snippet in py_good:
            code = snippet.split("#", 1)[0]
            hits = [r for r, rx, _ in PYTHON_RULES if rx.search(code)]
            if hits:
                failures.append(f"python corpus: false positive [{hits[0]}]: {snippet}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 2
    print(f"self-test OK ({fixtures} fixtures, {checked_expectations} "
          f"expectations; families: {', '.join(families)})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: two levels above this script)")
    parser.add_argument("--rules", default=",".join(ALL_FAMILIES),
                        help="comma-separated rule families to run "
                             f"(default: {','.join(ALL_FAMILIES)})")
    parser.add_argument("--self-test", action="store_true",
                        help="run the engine against the fixture corpus in "
                             f"{FIXTURE_DIR} and verify expected diagnostics")
    args = parser.parse_args()

    families = tuple(f for f in args.rules.split(",") if f)
    unknown = [f for f in families if f not in RULES]
    if unknown:
        print(f"hsr-lint: unknown rule families: {', '.join(unknown)} "
              f"(known: {', '.join(ALL_FAMILIES)})", file=sys.stderr)
        return 2

    root = args.root or Path(__file__).resolve().parents[2]
    if args.self_test:
        return run_self_test(root, families)
    return run_lint(root, families)


if __name__ == "__main__":
    sys.exit(main())
