"""A forward may-analysis worklist over :class:`~repro.analysis.flow.cfg.CFG`.

The ownership rules need exactly one lattice: sets of *resource keys*
under union (``may hold``).  Each node contributes ``gen`` (resources
acquired by the statement) and ``kill`` (resources released); transfer is
``OUT = (IN - kill) | gen``; ``IN`` is the union over predecessors, plus
whatever is born on the incoming *edge* (``edge_gen`` — a resource a
branch test granted is held on the branch that saw the grant, not on the
other).  The worklist iterates to the (finite, monotone) fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Set, Tuple

from repro.analysis.flow.cfg import CFG, ENTRY

Facts = FrozenSet[Hashable]
EMPTY: Facts = frozenset()


def forward_may(
    cfg: CFG,
    gen: Mapping[int, Set[Hashable]],
    kill: Mapping[int, Set[Hashable]],
    edge_gen: Optional[Mapping[Tuple[int, int], Set[Hashable]]] = None,
) -> Tuple[Dict[int, Facts], Dict[int, Facts]]:
    """Solve the may-analysis; returns ``(IN, OUT)`` per node id."""
    node_ids = range(cfg.node_count)
    in_facts: Dict[int, Facts] = {n: EMPTY for n in node_ids}
    out_facts: Dict[int, Facts] = {n: EMPTY for n in node_ids}
    worklist = deque(node_ids)
    queued = set(node_ids)
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        if node == ENTRY:
            incoming = EMPTY
        else:
            incoming = EMPTY
            for pred in cfg.preds[node]:
                incoming |= out_facts[pred]
                if edge_gen and (pred, node) in edge_gen:
                    incoming |= frozenset(edge_gen[(pred, node)])
        in_facts[node] = incoming
        outgoing = frozenset(
            (incoming - frozenset(kill.get(node, ()))) | frozenset(gen.get(node, ()))
        )
        if outgoing != out_facts[node]:
            out_facts[node] = outgoing
            for succ in cfg.succs[node]:
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)
    return in_facts, out_facts
