"""Simulation-hygiene lint: repo-specific static rules over ``src/repro``.

Rules (each suppressible with a same-line ``# lint: disable=SIMxxx``):

* **SIM001** — wall-clock use (``time.time``/``datetime.now``/…) in
  simulation code.  Real time leaking into a run breaks determinism.
* **SIM002** — unseeded ``random``-module functions outside
  ``sim/rng.py``.  Use a seeded ``random.Random`` instance.
* **SIM003** — a broad ``except``/``except Exception`` inside a process
  generator that can swallow :class:`repro.sim.core.Interrupt` (the same
  bug family PR 2 fixed by hand in the throttler/avoider).
* **SIM004** — ``==``/``!=`` on simulation timestamps that may be floats
  (``busy_until`` and friends); compare rounded integers instead.
* **SIM005** — yielding a non-``Waitable`` literal from a process
  function (the kernel would raise at run time; the lint catches it
  before a run ever reaches that path).

Run as ``python -m repro.analysis.lint [paths...] [--format=json]``;
exits non-zero when any finding survives the pragmas.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

RULES = {
    "SIM001": "wall-clock use in simulation code (use sim.now, integer ns)",
    "SIM002": "unseeded random-module use outside sim/rng.py (use a seeded Random)",
    "SIM003": "broad except in a process generator can swallow sim.core.Interrupt",
    "SIM004": "float equality comparison on simulation timestamps",
    "SIM005": "process yields a non-Waitable literal",
}

_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

_WALL_CLOCK_TIME = {
    "time",
    "monotonic",
    "perf_counter",
    "time_ns",
    "monotonic_ns",
    "perf_counter_ns",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
_UNSEEDED_RANDOM = {
    "random",
    "randrange",
    "randint",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "getrandbits",
    "gauss",
    "expovariate",
    "randbytes",
}
#: attribute calls whose yielded result marks a function as a process
#: generator (sim.timeout(...), lock.acquire(...), throttler.take(...), …)
_PROCESS_YIELD_ATTRS = {"timeout", "acquire", "take", "event", "begin_op", "all_of"}
#: their grant-on-the-spot forms: the call itself (not yielded — that is
#: the point) marks a generator as a process step just the same
_ON_THE_SPOT_ATTRS = {"try_acquire", "try_take", "try_begin_op"}
_BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}


@dataclass
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rules disabled on that line."""
    disabled: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match:
                rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
                disabled.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenizeError:  # pragma: no cover - unparsable source
        pass
    return disabled


def _own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _leaf_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_process_generator(fn: ast.AST) -> bool:
    """Heuristic: does this function look like a DES process generator?

    ``yield from``-delegating functions count (all verbs helpers do), as
    does yielding the result of a known waitable factory (``timeout``,
    ``acquire``, ``take``, …) or a ``.done`` event, and a generator that
    takes a resource on the spot (``try_acquire``, ``try_take``, …).
    """
    yields = on_the_spot = False
    for child in _own_scope(fn):
        if isinstance(child, ast.YieldFrom):
            return True
        if isinstance(child, ast.Yield):
            yields = True
            value = child.value
            if isinstance(value, ast.Call):
                name = _leaf_name(value.func)
                if name in _PROCESS_YIELD_ATTRS:
                    return True
            if isinstance(value, ast.Attribute) and value.attr == "done":
                return True
        elif isinstance(child, ast.Call):
            on_the_spot |= _leaf_name(child.func) in _ON_THE_SPOT_ATTRS
    return yields and on_the_spot


def _mentions(node: ast.AST, attr_names: Set[str]) -> bool:
    for sub in ast.walk(node):
        name = _leaf_name(sub)
        if name in attr_names:
            return True
    return False


def _has_float_or_ns(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        name = _leaf_name(sub)
        if name is not None and name.endswith("_ns"):
            return True
    return False


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source; returns the findings after pragmas."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(path, error.lineno or 0, error.offset or 0, "SIM000",
                    f"syntax error: {error.msg}")
        ]
    findings: List[Finding] = []
    #: finding -> last source line of the flagged node, so a pragma on
    #: the closing line of a multi-line statement also suppresses it
    end_lines: Dict[int, int] = {}

    def flag(node: ast.AST, rule: str) -> None:
        finding = Finding(
            path, getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            rule, RULES[rule]
        )
        end_lines[id(finding)] = (
            getattr(node, "end_lineno", None) or finding.line
        )
        findings.append(finding)

    in_rng_module = path.replace("\\", "/").endswith("sim/rng.py")

    for node in ast.walk(tree):
        # SIM001 / SIM002: wall clock and unseeded randomness.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            base = _leaf_name(node.func.value)
            if base == "time" and attr in _WALL_CLOCK_TIME:
                flag(node, "SIM001")
            elif base in {"datetime", "date"} and attr in _WALL_CLOCK_DATETIME:
                flag(node, "SIM001")
            elif base == "random" and attr in _UNSEEDED_RANDOM and not in_rng_module:
                flag(node, "SIM002")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name in _WALL_CLOCK_TIME for alias in node.names
            ):
                flag(node, "SIM001")
            elif (
                node.module == "random"
                and not in_rng_module
                and any(alias.name in _UNSEEDED_RANDOM for alias in node.names)
            ):
                flag(node, "SIM002")
        # SIM004: float equality on timestamps.
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                sides = [node.left, *node.comparators]
                if any(_mentions(s, {"busy_until"}) for s in sides):
                    flag(node, "SIM004")
                elif any(_mentions(s, {"now"}) for s in sides) and any(
                    _has_float_or_ns(s) for s in sides
                ):
                    flag(node, "SIM004")

    # SIM003 / SIM005: rules scoped to process generators.
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_process_generator(node):
            continue
        for child in _own_scope(node):
            if isinstance(child, ast.Try):
                _check_broad_except(child, flag)
            elif isinstance(child, ast.Yield):
                if child.value is None or isinstance(
                    child.value,
                    (ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set),
                ):
                    flag(child, "SIM005")

    disabled = _pragmas(source)
    kept: List[Finding] = []
    for f in findings:
        rules = disabled.get(f.line, set()) | disabled.get(
            end_lines.get(id(f), f.line), set()
        )
        if f.rule in rules or "ALL" in rules:
            continue
        kept.append(f)
    return kept


def _check_broad_except(try_node: ast.Try, flag) -> None:
    interrupt_handled = False
    for handler in try_node.handlers:
        names: Set[str] = set()
        if handler.type is not None:
            types = (
                handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            )
            for t in types:
                name = _leaf_name(t)
                if name:
                    names.add(name)
        if "Interrupt" in names:
            interrupt_handled = True
            continue
        broad = handler.type is None or names & _BROAD_EXCEPTION_NAMES
        if not broad or interrupt_handled:
            continue
        # A handler that re-raises (bare `raise`) passes Interrupt on.
        reraises = any(
            isinstance(sub, ast.Raise) and sub.exc is None
            for sub in ast.walk(handler)
        )
        if not reraises:
            flag(handler, "SIM003")


def lint_file(path: Path) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path))


def lint_paths(paths: Sequence[Path]) -> tuple:
    """Lint every ``.py`` under ``paths``; returns (findings, file count).

    Overlapping inputs (a file *and* its parent directory, repeated
    arguments, the same file through different relative spellings) are
    linted — and counted — exactly once.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in candidates:
            key = file.resolve()
            if key not in seen:
                seen.add(key)
                files.append(file)
    findings: List[Finding] = []
    for file in files:
        findings.extend(lint_file(file))
    return findings, len(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Simulation-hygiene lint (SIM001-SIM005).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    options = parser.parse_args(argv)
    paths = options.paths or [Path(__file__).resolve().parents[1]]
    findings, file_count = lint_paths(paths)
    if options.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "files": file_count,
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} finding(s) in {file_count} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
