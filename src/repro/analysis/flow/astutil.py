"""Small AST helpers shared by the flow rules and the protocol checker."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

# One copy of the process-generator heuristic (and its attribute table)
# serves both analysers; it lives with the older one.
from repro.analysis.lint import (  # noqa: F401
    _BROAD_EXCEPTION_NAMES as BROAD_EXCEPTION_NAMES,
    _is_process_generator as is_process_generator,
    _leaf_name as leaf_name,
    _own_scope as own_scope,
)


def is_generator(fn: ast.AST) -> bool:
    """Does ``fn`` contain a yield in its own scope?"""
    return any(
        isinstance(child, (ast.Yield, ast.YieldFrom)) for child in own_scope(fn)
    )


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


def string_pattern(node: ast.AST) -> Optional[str]:
    """A region-name pattern from a string expression.

    Constants give themselves; f-strings give their literal parts with
    ``*`` in place of every formatted field (``f"tbl_{name}_p{i}"`` →
    ``tbl_*_p*``); anything else is unresolvable (``None``).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def names_in(node: ast.AST) -> Set[str]:
    """Every identifier (Name ids and Attribute attrs) under ``node``."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


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
