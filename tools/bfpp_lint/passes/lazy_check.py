"""lazy-check: a check's message is built only when the check fails.

check() and check_config() (src/common/error.h) take a printf-checked
format plus arguments and format them only on failure, which is what
keeps a passing check cheap in the hot loops that make one per op,
token or field (schedule::validate, the JSON parser, the serve request
reader). Arguments are still evaluated on every call, so an argument
that builds a string - str_format(...), a parser's err(...),
std::string(...), std::to_string(...), errno_string(...) or a `+`
concatenation with a string literal - puts the formatting cost back on
the passing path (and reads errno in an unspecified order against the
checked call). This pass rejects such arguments: pass the format and
its cheap arguments (c_str(), ints) instead, or throw explicitly from
an `if` when the message really needs a built string.

Checks, over every *.h/*.cpp under src/: each call `check(...)` /
`check_config(...)` (qualified or not; declarations and definitions
excluded) whose argument list contains one of the eager builders above.
Comments and string-literal bodies are ignored.
"""
from __future__ import annotations

import re
from pathlib import Path

from core import Finding, LintError, Pass, source_files, strip_comments

NAME = "lazy-check"

CALL = re.compile(r"(?<![\w.>])(?:bfpp\s*::\s*)?(check(?:_config)?)\s*\(")
# A declaration or definition names a return type right before it.
DECLARATION = re.compile(r"\b(?:void|inline|static)\s+$")

EAGER = [
    ("str_format(", re.compile(r"(?<![\w.>])(?:bfpp\s*::\s*)?str_format\s*\(")),
    ("err(", re.compile(r"(?<![\w.>])err\s*\(")),
    ("std::string(", re.compile(r"\bstd\s*::\s*string\s*\(")),
    ("std::to_string(", re.compile(r"\bstd\s*::\s*to_string\s*\(")),
    ("errno_string(", re.compile(r"(?<![\w.>])errno_string\s*\(")),
    ("string concatenation", re.compile(r"\"\s*\+|\+\s*\"")),
]


def _closing_paren(text: str, open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _file_findings(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    clean = strip_comments(raw)
    findings: list[Finding] = []
    for call in CALL.finditer(clean):
        line_start = clean.rfind("\n", 0, call.start()) + 1
        if DECLARATION.search(clean[line_start:call.start()]):
            continue
        open_index = call.end() - 1
        close = _closing_paren(clean, open_index)
        if close == -1:
            continue
        args = clean[open_index + 1:close]
        lineno = clean.count("\n", 0, call.start()) + 1
        for label, pattern in EAGER:
            if pattern.search(args):
                findings.append(Finding(
                    rel, lineno,
                    f"{label} inside a {call.group(1)}() argument list "
                    "builds the message even when the check passes; pass "
                    "the format and its arguments instead",
                    source=raw_lines[lineno - 1].strip()))
    return findings


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    calls = 0
    for path in source_files(root):
        calls += len(CALL.findall(strip_comments(
            path.read_text(encoding="utf-8"))))
        findings.extend(_file_findings(root, path))
    if calls == 0:
        raise LintError("no check()/check_config() call found under src/ "
                        "(the pass would be vacuous)")
    return findings


PASS = Pass(
    name=NAME,
    description="no eagerly built messages (str_format/err/std::string/"
                "concatenation) inside check()/check_config() arguments",
    run=run,
)
