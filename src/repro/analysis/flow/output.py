"""Report writers: plain text and JSON."""

from __future__ import annotations

import json
from typing import Sequence


def to_text(findings: Sequence, file_count: int) -> str:
    lines = [str(f) for f in findings]
    lines.append(f"{len(findings)} finding(s) in {file_count} file(s)")
    return "\n".join(lines)


def to_json(findings: Sequence, file_count: int) -> str:
    return json.dumps(
        {
            "version": 1,
            "files": file_count,
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )
