"""``repro.analysis.flow``: the repo's one static analyser.

Single-node hygiene rules (SIM001–SIM005) and *path* properties
(FLW101–FLW403) share one parse, one finding type, one pragma syntax,
one baseline and one CLI:

* :mod:`~repro.analysis.flow.symbols` — per-module symbol tables (imports,
  classes, functions, simple local type facts);
* :mod:`~repro.analysis.flow.cfg` — a control-flow graph per function,
  generator-aware, with ``try``/``except``/``finally`` routing and
  abrupt-exit (``return``/``break``/``continue``/``raise``) edges;
* :mod:`~repro.analysis.flow.dataflow` — a forward may-analysis worklist
  over those CFGs;
* :mod:`~repro.analysis.flow.rules` — the per-file rule families:
  simulation hygiene (SIM001–SIM005), ownership/leak (FLW101–FLW103),
  determinism hazards (FLW201–FLW203) and interrupt safety
  (FLW301–FLW302);
* :mod:`~repro.analysis.flow.protocol` — the verbs-vs-declaration
  cross-checker (FLW401–FLW403) diffing every statically extracted
  one-sided access site against the app's ``declare_sanitizer_regions``;
* :mod:`~repro.analysis.flow.baseline` — the committed-findings baseline
  (the CI gate fails only on *new* findings);
* :mod:`~repro.analysis.flow.output` — text and JSON reports.

Run as ``python -m repro.analysis.flow [paths...]``; see
``docs/MODEL.md`` §14 for the rule catalog and baseline workflow.
"""

from repro.analysis.flow.engine import (  # noqa: F401
    FlowFinding,
    RULES,
    analyze_paths,
    analyze_source,
    main,
)
