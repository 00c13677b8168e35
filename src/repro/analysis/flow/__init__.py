"""``repro.analysis.flow``: the repo's one static analyser.

Single-node hygiene rules (SIM001–SIM005) and *path* properties (FLW101,
FLW202, FLW203, FLW301, FLW302) share one parse, one finding type, one
pragma syntax and one CLI:

* :mod:`~repro.analysis.flow.symbols` — per-module symbol tables
  (functions with qualified names, process generators);
* :mod:`~repro.analysis.flow.cfg` — a control-flow graph per function,
  generator-aware, with ``try``/``except``/``finally`` routing and
  abrupt-exit (``return``/``break``/``continue``/``raise``) edges;
* :mod:`~repro.analysis.flow.dataflow` — a forward may-analysis worklist
  over those CFGs;
* :mod:`~repro.analysis.flow.rules` — the rule families: simulation
  hygiene (SIM001–SIM005), lock leaks (FLW101), determinism hazards
  (FLW202, FLW203) and interrupt safety (FLW301, FLW302);
* :mod:`~repro.analysis.flow.output` — text and JSON reports.

Run as ``python -m repro.analysis.flow [paths...]``; see
``docs/MODEL.md`` §14 for the rule catalog and the gate, and
§14.1 for the seeded-mutation study that decided which rules are kept.
"""

from repro.analysis.flow.engine import (  # noqa: F401
    FlowFinding,
    RULES,
    analyze_paths,
    analyze_source,
    main,
)
