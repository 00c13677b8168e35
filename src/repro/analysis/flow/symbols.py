"""Per-module symbol tables.

The rules need shallow, reliable facts — not full type inference:

* the functions defined, with nesting (qualified names);
* which functions are (process) generators.

Everything is computed in one pass and kept as plain dicts so the rule
code stays declarative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.flow.astutil import is_process_generator


@dataclass
class FunctionInfo:
    node: ast.AST
    qualname: str
    is_process: bool


@dataclass
class ModuleSymbols:
    path: str
    tree: ast.Module
    functions: List[FunctionInfo] = field(default_factory=list)

    def function_for(self, node: ast.AST) -> Optional[FunctionInfo]:
        for info in self.functions:
            if info.node is node:
                return info
        return None


def build_symbols(tree: ast.Module, path: str = "<string>") -> ModuleSymbols:
    symbols = ModuleSymbols(path=path, tree=tree)

    def visit(scope: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                info = FunctionInfo(
                    node=child,
                    qualname=qualname,
                    is_process=is_process_generator(child),
                )
                symbols.functions.append(info)
                visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return symbols
