#!/usr/bin/env python3
"""Fail when the documentation drifts from the source tree.

Six checks over README.md and docs/*.md:

1. every CLI flag token (``--smoke``, ``--json``, ...) quoted in the docs
   must appear somewhere in the source tree (src/, bench/, tests/,
   scripts/, examples/, CI workflows, CMakeLists.txt) -- a renamed or
   removed flag fails here before a user trips over it;
2. every enumerator-style token in backticks (``kPrefixAffinity``,
   ``kHandoff``, ...) must appear under src/ -- docs cannot reference
   enumerators that no longer exist;
3. docs/DISPATCH.md (the dispatch-policy reference page) and the sources
   agree both ways: the page must mention every ``DispatchPolicy``
   enumerator declared in src/serve/dispatch.hpp *and* every canonical
   policy name returned by ``to_string`` in src/serve/dispatch.cpp, and
   every backticked token in the Enumerator and Name columns of its
   policy matrix must be one of those -- adding a policy without
   documenting it fails CI, and so does deleting one but keeping its row;
4. every backticked qualified member (``ClusterConfig::reference_loop``,
   ``ServerSim::next_event_time()``, ...) must name a member that still exists
   under src/: either ``Type::member`` appears verbatim (an out-of-line
   definition) or ``member`` appears in the body of ``struct``/``class
   Type`` -- deleting a field or method cannot leave docs pointing at it;
5. the bench catalogue docs/BENCHMARKS.md and bench/ agree: every binary
   named in the first column of its tables has a ``bench/<name>.cpp``, and
   every ``bench/*.cpp`` has a row -- a deleted bench cannot keep its row,
   and a new one cannot ship undocumented;
6. the "Configuration surface" table in docs/ARCHITECTURE.md and the
   config structs (``CONFIG_STRUCTS``: the platform's ``SystemConfig`` and
   the serving configs) agree both ways: every public data member has a
   ``Type::field`` row giving its default and the non-test callers that set
   another value, and every row names a live member -- a new setting has to
   say who needs it, and a deleted field cannot keep its row.

Exits non-zero listing every violation. Run from anywhere inside the
repository:

    python3 scripts/check_docs_drift.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

FLAG_RE = re.compile(r"--[a-zA-Z][a-zA-Z0-9_-]*")
ENUM_RE = re.compile(r"`(k[A-Z][A-Za-z0-9]*)`")
# `Type::member...` inside backticks; lowercase namespace qualifiers
# (serve::, std::, ...) may precede the type and are ignored.
MEMBER_RE = re.compile(
    r"`(?:[a-z_][a-z0-9_]*::)*([A-Z][A-Za-z0-9_]*)::(~?[A-Za-z_][A-Za-z0-9_]*)[^`]*`")
# The header row of DISPATCH.md's policy matrix.
MATRIX_HEADER_RE = re.compile(r"^\|\s*Enumerator\s*\|\s*Name\s*\|")
# The header row of ARCHITECTURE.md's configuration-surface table.
CONFIG_HEADER_RE = re.compile(r"^\|\s*Setting\s*\|\s*Default\s*\|")
# The structs whose every public data member needs a configuration row.
CONFIG_STRUCTS = ("SystemConfig", "ClusterConfig", "HealthConfig", "PrefixCacheConfig",
                  "ExpertServingConfig", "DisaggConfig", "SchedulerConfig", "AutoscaleConfig")
# A catalogue table row: its first cell is a backticked binary name.
BENCH_ROW_RE = re.compile(r"\|\s*`([A-Za-z0-9_]+)`\s*\|")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
SOURCE_DIRS = ("src", "bench", "tests", "scripts", "examples", ".github")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".py", ".yml", ".yaml", ".cmake", ".txt"}


def doc_files(repo_root: Path) -> list[Path]:
    files = [repo_root / "README.md"]
    files += sorted((repo_root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def source_files(repo_root: Path) -> list[Path]:
    files = [repo_root / "CMakeLists.txt"]
    for d in SOURCE_DIRS:
        for f in sorted((repo_root / d).rglob("*")):
            if f.is_file() and f.suffix in SOURCE_SUFFIXES:
                files.append(f)
    return [f for f in files if f.is_file()]


def known_source_flags(sources: list[Path]) -> set[str]:
    known: set[str] = set()
    for f in sources:
        known.update(FLAG_RE.findall(f.read_text(encoding="utf-8", errors="replace")))
    return known


def check_doc_tokens(md: Path, known_flags: set[str], src_text: str) -> list[str]:
    errors = []
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        for flag in FLAG_RE.findall(line):
            if flag not in known_flags:
                errors.append(f"{md}:{lineno}: flag {flag} not found in the source tree")
        for enum in ENUM_RE.findall(line):
            if enum not in src_text:
                errors.append(f"{md}:{lineno}: enumerator {enum} not found under src/")
    return errors


def type_bodies(src_code: str) -> dict[str, list[str]]:
    """Brace-matched bodies of every struct/class definition, by type name."""
    bodies: dict[str, list[str]] = {}
    for m in re.finditer(r"\b(?:struct|class)\s+([A-Za-z_][A-Za-z0-9_]*)[^;{()]*\{", src_code):
        depth, end = 1, m.end()
        while depth and end < len(src_code):
            depth += {"{": 1, "}": -1}.get(src_code[end], 0)
            end += 1
        bodies.setdefault(m.group(1), []).append(src_code[m.end():end])
    return bodies


def check_doc_members(md: Path, src_code: str, bodies: dict[str, list[str]]) -> list[str]:
    errors = []
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        for owner, member in MEMBER_RE.findall(line):
            if re.search(rf"\b{owner}::{re.escape(member)}\b", src_code):
                continue
            word = re.compile(rf"(?<![A-Za-z0-9_]){re.escape(member)}\b")
            if any(word.search(body) for body in bodies.get(owner, [])):
                continue
            errors.append(f"{md}:{lineno}: member {owner}::{member} not found under src/")
    return errors


def dispatch_policies(repo_root: Path) -> tuple[list[str], list[str]]:
    """(enumerators, canonical names) of DispatchPolicy, from the sources."""
    hpp = (repo_root / "src/serve/dispatch.hpp").read_text(encoding="utf-8")
    enum_body = re.search(r"enum class DispatchPolicy \{(.*?)\n\};", hpp, re.DOTALL)
    if enum_body is None:
        raise SystemExit("cannot parse DispatchPolicy from src/serve/dispatch.hpp")
    enumerators = re.findall(r"^\s*(k[A-Z][A-Za-z0-9]*),", enum_body.group(1), re.MULTILINE)
    cpp = (repo_root / "src/serve/dispatch.cpp").read_text(encoding="utf-8")
    names = re.findall(r'case DispatchPolicy::k\w+: return "([^"]+)";', cpp)
    if not enumerators or not names:
        raise SystemExit("cannot parse DispatchPolicy enumerators / to_string names")
    return enumerators, names


def check_dispatch_reference(repo_root: Path) -> list[str]:
    page = repo_root / "docs" / "DISPATCH.md"
    if not page.is_file():
        return [f"{page}: missing -- the dispatch-policy reference page is required"]
    text = page.read_text(encoding="utf-8")
    enumerators, names = dispatch_policies(repo_root)
    errors = []
    for e in enumerators:
        if e not in text:
            errors.append(f"{page}: DispatchPolicy::{e} is not documented")
    for n in names:
        if n not in text:
            errors.append(f"{page}: policy name \"{n}\" is not documented")
    lines = text.splitlines()
    header = next((i for i, line in enumerate(lines) if MATRIX_HEADER_RE.match(line)), None)
    if header is None:
        return errors + [f"{page}: no policy matrix (a '| Enumerator | Name |' table)"]
    # Row cells after the header and its |---| separator, up to the table's end.
    for lineno in range(header + 3, len(lines) + 1):
        line = lines[lineno - 1]
        if not line.startswith("|"):
            break
        cells = line.split("|")
        for column, cell, live in (("Enumerator", cells[1], enumerators),
                                   ("Name", cells[2], names)):
            for token in re.findall(r"`([^`]+)`", cell):
                if token not in live:
                    errors.append(f"{page}:{lineno}: policy matrix {column} `{token}` "
                                  "is not a live DispatchPolicy")
    return errors


def check_bench_catalogue(repo_root: Path) -> list[str]:
    page = repo_root / "docs" / "BENCHMARKS.md"
    if not page.is_file():
        return [f"{page}: missing -- the bench catalogue is required"]
    rows: dict[str, int] = {}
    for lineno, line in enumerate(page.read_text(encoding="utf-8").splitlines(), 1):
        m = BENCH_ROW_RE.match(line)
        if m:
            rows.setdefault(m.group(1), lineno)
    sources = {f.stem for f in (repo_root / "bench").glob("*.cpp")}
    errors = [f"{page}:{lineno}: bench {name} has no bench/{name}.cpp"
              for name, lineno in sorted(rows.items()) if name not in sources]
    errors += [f"{page}: bench/{name}.cpp has no catalogue row"
               for name in sorted(sources - set(rows))]
    return errors


def data_members(body: str) -> list[str]:
    """Public data members declared directly in a (comment-free) struct body."""
    # Collapse nested braces (inline function bodies, brace initializers) so
    # only the body's own declarations remain, each ending in ';'.
    flat, depth = [], 0
    for ch in body:
        if ch == "{":
            depth += 1
            if depth == 1:
                flat.append("{};")
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            flat.append(ch)
    members, public = [], True
    for decl in "".join(flat).split(";"):
        while m := re.match(r"\s*(public|private|protected)\s*:(?!:)", decl):
            public = m.group(1) == "public"
            decl = decl[m.end():]
        decl = decl.split("{}")[0].split("=")[0].strip()
        if (not public or not decl or "(" in decl
                or re.match(r"(using|static|friend|enum|struct|class|template)\b", decl)):
            continue
        name = re.search(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\[[^\]]*\])?$", decl)
        if name:
            members.append(name.group(1))
    return members


def check_config_surface(repo_root: Path, bodies: dict[str, list[str]]) -> list[str]:
    page = repo_root / "docs" / "ARCHITECTURE.md"
    lines = page.read_text(encoding="utf-8").splitlines()
    header = next((i for i, line in enumerate(lines) if CONFIG_HEADER_RE.match(line)), None)
    if header is None:
        return [f"{page}: no configuration-surface table (a '| Setting | Default |' table)"]
    live: set[tuple[str, str]] = set()
    for owner in CONFIG_STRUCTS:
        if len(bodies.get(owner, [])) != 1:
            raise SystemExit(f"cannot find exactly one definition of {owner} under src/")
        live.update((owner, field) for field in data_members(bodies[owner][0]))
    errors, rows = [], set()
    for lineno in range(header + 3, len(lines) + 1):
        line = lines[lineno - 1]
        if not line.startswith("|"):
            break
        cells = line.split("|")
        m = re.fullmatch(r"\s*`([A-Za-z_]\w*)::([A-Za-z_]\w*)`\s*", cells[1])
        if m is None or len(cells) < 5 or not cells[2].strip() or not cells[3].strip():
            errors.append(f"{page}:{lineno}: configuration row needs `Type::field`, a "
                          "default and the callers that set another value")
            continue
        rows.add((m.group(1), m.group(2)))
        if (m.group(1), m.group(2)) not in live:
            errors.append(f"{page}:{lineno}: {m.group(1)}::{m.group(2)} is not a public "
                          f"data member of {', '.join(CONFIG_STRUCTS)}")
    errors += [f"{page}: {owner}::{field} has no configuration-surface row"
               for owner, field in sorted(live - rows)]
    return errors


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    docs = doc_files(repo_root)
    if not docs:
        print("no documentation files found -- wrong repository root?")
        return 1
    sources = source_files(repo_root)
    known_flags = known_source_flags(sources)
    src_text = "\n".join(
        f.read_text(encoding="utf-8", errors="replace")
        for f in sources
        if f.is_relative_to(repo_root / "src")
    )
    errors = [e for md in docs for e in check_doc_tokens(md, known_flags, src_text)]
    errors += check_dispatch_reference(repo_root)
    errors += check_bench_catalogue(repo_root)
    src_code = COMMENT_RE.sub("", src_text)
    bodies = type_bodies(src_code)
    errors += [e for md in docs for e in check_doc_members(md, src_code, bodies)]
    errors += check_config_surface(repo_root, bodies)
    for e in errors:
        print(e)
    checked = ", ".join(str(f.relative_to(repo_root)) for f in docs)
    if errors:
        print(f"\n{len(errors)} doc-drift issue(s) across {checked}")
        return 1
    print(f"docs match the source tree ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
