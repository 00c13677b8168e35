"""The analysis driver: file collection, parallelism, pragmas, baseline, CLI.

``analyze_source`` runs the per-file rules (FLW1xx–FLW3xx) on one
module.  ``analyze_paths`` adds the cross-module protocol checker
(FLW4xx) over app packages and can fan the per-file work out on the
bench process pool (``repro.bench.parallel``) — static
analysis of one file is exactly the kind of independent, picklable
point the pool was built for.

Suppression is the lint pragma, same syntax, honored on either the
first *or* the last line of the flagged statement (multi-line calls keep
their pragma next to the closing parenthesis)::

    old = yield from handle.cas_sync(  # lint: disable=FLW401
        entry_addr, seg_addr, new_seg_addr
    )

Exit status: 0 when no *new* findings remain after the baseline
(``--baseline``); 1 otherwise.  ``--write-baseline`` records the
current findings as accepted.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import baseline as baseline_mod
from repro.analysis.flow import output as output_mod
from repro.analysis.flow import protocol as protocol_mod
from repro.analysis.flow import rules as rules_mod
from repro.analysis.lint import _pragmas

#: the complete rule catalog (per-file + protocol families)
RULES: Dict[str, str] = {**rules_mod.RULES, **protocol_mod.PROTOCOL_RULES}


@dataclass(frozen=True)
class FlowFinding:
    path: str
    line: int
    col: int
    end_line: int
    rule: str
    message: str
    #: enclosing function qualname ('' at module level)
    scope: str = ""

    def fingerprint(self) -> str:
        return baseline_mod.fingerprint(self.path, self.scope, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "rule": self.rule,
            "message": self.message,
            "scope": self.scope,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FlowFinding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            end_line=int(data["end_line"]),
            rule=str(data["rule"]),
            message=str(data["message"]),
            scope=str(data.get("scope", "")),
        )

    def __str__(self) -> str:
        where = f" [{self.scope}]" if self.scope else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{where} {self.message}"


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


def _lift(raw: "rules_mod.RawFinding", path: str) -> FlowFinding:
    return FlowFinding(
        path=path,
        line=raw.line,
        col=raw.col,
        end_line=raw.end_line,
        rule=raw.rule,
        message=raw.message,
        scope=raw.scope,
    )


def analyze_source(source: str, path: str = "<string>") -> List[FlowFinding]:
    """Per-file rules over one module, pragmas applied."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            FlowFinding(
                path=path,
                line=error.lineno or 0,
                col=error.offset or 0,
                end_line=error.lineno or 0,
                rule="FLW000",
                message=f"syntax error: {error.msg}",
            )
        ]
    findings = [_lift(raw, path) for raw in rules_mod.check_module(tree, path)]
    return _apply_pragmas(findings, source)


def analyze_files(files: Sequence[str]) -> List[Dict[str, object]]:
    """Worker entry point (the ``fn`` of a
    :class:`~repro.bench.parallel.PointSpec`): per-file findings as
    picklable dicts."""
    results: List[Dict[str, object]] = []
    for path in files:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            results.append(
                FlowFinding(
                    path=path, line=0, col=0, end_line=0,
                    rule="FLW000", message=f"unreadable: {error}",
                ).to_dict()
            )
            continue
        results.extend(f.to_dict() for f in analyze_source(source, path))
    return results


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


def _analyze_parallel(files: List[Path], jobs: int) -> List[FlowFinding]:
    from repro.bench.parallel import PointSpec, run_points

    chunk = max(1, len(files) // (jobs * 4))
    names = [str(f) for f in files]
    specs = [
        PointSpec(analyze_files, kwargs={"files": names[i:i + chunk]})
        for i in range(0, len(names), chunk)
    ]
    findings: List[FlowFinding] = []
    for batch in run_points(specs, jobs=jobs):
        findings.extend(FlowFinding.from_dict(d) for d in batch)
    return findings


def analyze_paths(
    paths: Sequence[Path],
    jobs: Optional[int] = None,
    protocol: bool = True,
) -> Tuple[List[FlowFinding], int]:
    """Analyze every ``.py`` under ``paths``; returns (findings, file count).

    ``jobs`` follows the bench convention (``None`` → ``REPRO_JOBS``,
    ``0`` → all cores, ``1`` → serial).  The protocol checker always runs
    in-process: app units are few and its cost is dwarfed by the
    per-file pass.
    """
    from repro.bench.parallel import resolve_jobs

    files = collect_files(paths)
    effective = resolve_jobs(jobs)
    if effective > 1 and len(files) > 1:
        findings = _analyze_parallel(files, effective)
    else:
        findings = [
            FlowFinding.from_dict(d) for d in analyze_files([str(f) for f in files])
        ]

    if protocol:
        sources: Dict[str, str] = {}

        def read_source(path: str) -> str:
            if path not in sources:
                sources[path] = Path(path).read_text(encoding="utf-8")
            return sources[path]

        for app in protocol_mod.group_apps([str(f) for f in files], read_source):
            for path, raw_findings in protocol_mod.check_app(app).items():
                lifted = [_lift(raw, path) for raw in raw_findings]
                findings.extend(_apply_pragmas(lifted, app[path]))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="Dataflow-aware static analysis (FLW101-FLW403).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="accepted-findings file; only NEW findings fail the gate",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS; 0 = all cores)",
    )
    parser.add_argument(
        "--no-protocol",
        action="store_true",
        help="skip the cross-module protocol checker (FLW4xx)",
    )
    options = parser.parse_args(argv)
    paths = options.paths or [Path(__file__).resolve().parents[2]]

    findings, file_count = analyze_paths(
        paths, jobs=options.jobs, protocol=not options.no_protocol
    )

    if options.write_baseline:
        if options.baseline is None:
            parser.error("--write-baseline requires --baseline FILE")
        counts = baseline_mod.dump(findings, options.baseline)
        print(
            f"baseline: {sum(counts.values())} finding(s) under "
            f"{len(counts)} fingerprint(s) written to {options.baseline}"
        )
        return 0

    accepted_count = 0
    if options.baseline is not None:
        known = baseline_mod.load(options.baseline)
        new, accepted = baseline_mod.suppress(findings, known)
        accepted_count = len(accepted)
        report_findings = new
    else:
        report_findings = findings

    if options.format == "sarif":
        report = output_mod.to_sarif(report_findings, RULES)
    elif options.format == "json":
        report = output_mod.to_json(report_findings, file_count)
    else:
        report = output_mod.to_text(report_findings, file_count)
        if accepted_count:
            report += f" ({accepted_count} baseline finding(s) suppressed)"

    if options.output is not None:
        options.output.write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 1 if report_findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
