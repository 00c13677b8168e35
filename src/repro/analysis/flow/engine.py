"""The analysis engine: file collection, pragmas, CLI.

``analyze_source`` runs the per-file rules on one module;
``analyze_paths`` reads every file under its paths once and runs them
over each.

Suppression is a ``# lint: disable=RULE[,RULE...]`` comment, honored on
either the first *or* the last line of the flagged statement (multi-line
calls keep their pragma next to the closing parenthesis)::

    wall_s = (
        time.time() - started
    )  # lint: disable=SIM001

Exit status: 0 when no finding remains after the pragmas; 1 otherwise.
A pragma is the one way to accept a finding.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import output as output_mod
from repro.analysis.flow.rules import RULES, FlowFinding, check_module

_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


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


def _apply_pragmas(findings: List[FlowFinding], source: str) -> List[FlowFinding]:
    """Drop findings disabled by a pragma on their start *or* end line."""
    disabled = _pragmas(source)
    kept: List[FlowFinding] = []
    for finding in findings:
        applicable: Set[str] = set()
        applicable |= disabled.get(finding.line, set())
        applicable |= disabled.get(finding.end_line, set())
        if finding.rule in applicable or "ALL" in applicable:
            continue
        kept.append(finding)
    return kept


def _unanalyzable(path: str, message: str, line: int = 0, col: int = 0) -> FlowFinding:
    return FlowFinding(
        path=path, line=line, col=col, end_line=line, rule="FLW000", message=message
    )


def analyze_source(source: str, path: str = "<string>") -> List[FlowFinding]:
    """Per-file rules over one module, pragmas applied; a syntax error
    is one ``FLW000`` finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [_unanalyzable(
            path, f"syntax error: {error.msg}", error.lineno or 0, error.offset or 0
        )]
    return _apply_pragmas(check_module(tree, path), source)


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` under ``paths``, each file exactly once even when
    inputs overlap (a file and its parent directory, duplicates, …)."""
    files: List[Path] = []
    seen: Set[Path] = set()

    def add(file: Path) -> None:
        key = file.resolve()
        if key not in seen:
            seen.add(key)
            files.append(file)

    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                add(file)
        else:
            add(path)
    return files


def analyze_paths(paths: Sequence[Path]) -> Tuple[List[FlowFinding], int]:
    """Analyze every ``.py`` under ``paths``; returns (findings, file count).

    A path that cannot be read (missing, a permission error) is an
    ``FLW000`` finding, not a crash.
    """
    files = collect_files(paths)
    findings: List[FlowFinding] = []
    for file in files:
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as error:
            findings.append(_unanalyzable(path, f"unreadable: {error}"))
            continue
        findings.extend(analyze_source(source, path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="Static analysis of the simulator "
                    f"({', '.join(RULES)}).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    options = parser.parse_args(argv)
    paths = options.paths or [Path(__file__).resolve().parents[2]]

    findings, file_count = analyze_paths(paths)
    if options.format == "json":
        print(output_mod.to_json(findings, file_count))
    else:
        print(output_mod.to_text(findings, file_count))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
