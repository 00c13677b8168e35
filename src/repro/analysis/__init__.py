"""Correctness tooling: RDMASan (the remote-memory race sanitizer) and
the static analyser (``python -m repro.analysis.flow``).

Both halves are passive and off by default: a cluster without an attached
sanitizer runs byte-identically to a tree without this package, the same
bar :mod:`repro.obs` meets.
"""

from repro.analysis.rdmasan import RdmaSanitizer

__all__ = ["RdmaSanitizer"]
