"""Small AST helpers shared by the rule families."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

#: calls whose yielded result marks a function as a process generator
#: (sim.timeout(...), Timeout(sim, d), lock.acquire(...), throttler.take(...), …)
_PROCESS_YIELD_ATTRS = {
    "timeout", "Timeout", "acquire", "take", "event", "begin_op",
}
#: their grant-on-the-spot forms: the call itself (not yielded — that is
#: the point) marks a generator as a process step just the same
_ON_THE_SPOT_ATTRS = {"try_acquire", "try_take", "try_begin_op"}
BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}


def own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def leaf_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_process_generator(fn: ast.AST) -> bool:
    """Heuristic: does this function look like a DES process generator?

    ``yield from``-delegating functions count (all verbs helpers do), as
    does yielding the result of a known waitable factory (``timeout``,
    ``acquire``, ``take``, …), and a generator that takes a resource on
    the spot (``try_acquire``, ``try_take``, …).
    """
    yields = on_the_spot = False
    for child in own_scope(fn):
        if isinstance(child, ast.YieldFrom):
            return True
        if isinstance(child, ast.Yield):
            yields = True
            value = child.value
            if isinstance(value, ast.Call) and leaf_name(value.func) in _PROCESS_YIELD_ATTRS:
                return True
        elif isinstance(child, ast.Call):
            on_the_spot |= leaf_name(child.func) in _ON_THE_SPOT_ATTRS
    return yields and on_the_spot


def parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    """child node -> parent node, over the whole tree."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    while node in parents:
        node = parents[node]
        yield node


def call_text(node: ast.AST) -> str:
    """A stable textual key for an expression (``ast.unparse``)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - exotic nodes
        return repr(node)


def handler_names(handler: ast.ExceptHandler) -> Set[str]:
    """The exception-type leaf names an ``except`` clause catches."""
    names: Set[str] = set()
    if handler.type is not None:
        types: Sequence[ast.AST] = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            name = leaf_name(t)
            if name:
                names.add(name)
    return names
