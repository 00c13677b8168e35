"""Verbs-vs-declaration protocol cross-checker (FLW401–FLW403).

RDMASan (``repro.analysis.rdmasan``) checks accesses *dynamically*
against the protocol each app declares via ``declare_sanitizer_regions``
(``set_region_policy`` / ``declare_lock_word`` / ``declare_striped_locks``).
This module checks the declarations *statically*, before a single
simulated verb is posted:

* **FLW401 undeclared-region** — a client-side CAS resolves to a region
  the app allocates but never declares (no policy, no lock word covering
  it).  CAS implies multi-writer synchronization, which the default
  ``exclusive`` policy would reject at runtime — the declaration is
  missing, not the access wrong.
* **FLW402 dead-declaration** — a ``set_region_policy`` pattern matching
  no ``alloc_region`` pattern anywhere in the app: a stale declaration
  left behind by a rename (it silently declares nothing).
* **FLW403 policy-mismatch** — a policy string outside RDMASan's
  vocabulary, or the same region pattern declared with two different
  policies.

The analysis is a *taint fixpoint over names*.  Region allocations seed
taint — ``alloc_region(f"tbl_{name}_p{i}", …)`` taints its result with
the wildcard pattern ``tbl_*_p*`` — and assignments, tuple unpacks,
``for`` targets, keyword arguments, ``append`` calls and function
returns propagate pattern sets through one app-wide namespace (an *app*
is one package directory containing a ``declare_sanitizer_regions``
definition).  Client CAS addresses are then resolved through the same
map; an address whose taint is empty is *skipped* — the checker is
deliberately biased toward silence, because an unresolvable address is
not evidence of a missing declaration.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.flow.astutil import leaf_name, names_in, parent_map, string_pattern
from repro.analysis.flow.rules import FlowFinding, finding_at, scope_resolver
from repro.analysis.flow.symbols import build_symbols

PROTOCOL_RULES: Dict[str, str] = {
    "FLW401": "CAS target region is allocated but never declared to the sanitizer",
    "FLW402": "region policy declaration matches no allocated region",
    "FLW403": "region policy is unknown or conflicts with another declaration",
}

#: one-sided ops that imply multi-writer synchronization on the target
_CAS_ATTRS = {"cas", "cas_sync", "backoff_cas_sync"}
_CAS_NAMES = {"cas_wr"}

_VALID_POLICIES = {"exclusive", "optimistic-read"}

_ALLOC_ATTRS = {"alloc_region", "region"}
_LOCK_DECL_ATTRS = {"declare_lock_word", "declare_striped_locks"}

_MAX_ROUNDS = 50


def pattern_overlap(a: str, b: str) -> bool:
    """Can wildcard patterns ``a`` and ``b`` name a common region?

    ``*`` stands for any (possibly empty) run of characters.  Exact
    overlap of two such patterns is equivalent to matching one against
    the other with the *other's* stars treated as single fresh
    characters that ``.*`` absorbs; testing both directions covers the
    general case well enough for region names.
    """
    def rx(p: str) -> "re.Pattern[str]":
        return re.compile(".*".join(re.escape(part) for part in p.split("*")) + r"\Z")

    probe_a = a.replace("*", "\x00")
    probe_b = b.replace("*", "\x00")
    return bool(rx(a).match(probe_b) or rx(b).match(probe_a))


@dataclass
class _Declaration:
    pattern: str
    policy: Optional[str]
    node: ast.Call
    path: str
    scope: str


@dataclass
class AppModel:
    """Everything the checker extracted from one app package."""

    #: region-name patterns the app allocates
    allocations: Set[str] = field(default_factory=set)
    declarations: List[_Declaration] = field(default_factory=list)
    #: arguments of declare_lock_word / declare_striped_locks calls —
    #: their taint marks the covered region patterns
    lock_decl_args: List[ast.expr] = field(default_factory=list)
    #: CAS call sites: (address expr, call node, path, scope)
    cas_sites: List[Tuple[ast.expr, ast.Call, str, str]] = field(default_factory=list)
    #: taint fixpoint: name -> region patterns
    taint: Dict[str, Set[str]] = field(default_factory=dict)

    def taint_of(self, expr: ast.AST) -> Set[str]:
        out: Set[str] = set(_direct_patterns(expr))
        for name in names_in(expr):
            out |= self.taint.get(name, set())
        return out


def _direct_patterns(expr: ast.AST) -> Iterable[str]:
    """Patterns produced directly inside ``expr`` (alloc/lookup calls)."""
    for sub in ast.walk(expr):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _ALLOC_ATTRS
            and sub.args
        ):
            pattern = string_pattern(sub.args[0])
            if pattern is not None:
                yield pattern


def _target_leaves(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, ast.Subscript):
        name = leaf_name(target.value)
        if name:
            yield name
    elif isinstance(target, ast.Starred):
        yield from _target_leaves(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_leaves(elt)


def _class_fields(tree: ast.Module) -> Dict[str, List[str]]:
    """class name -> ordered annotated field names (dataclass layout)."""
    fields: Dict[str, List[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
            if names:
                fields[node.name] = names
    return fields


def _collect_bindings(tree: ast.Module,
                      class_fields: Dict[str, List[str]]
                      ) -> List[Tuple[List[str], ast.expr]]:
    """(target names, value expr) pairs that the fixpoint iterates."""
    bindings: List[Tuple[List[str], ast.expr]] = []

    def bind(targets: Iterable[str], value: ast.expr) -> None:
        names = [t for t in targets]
        if names:
            bindings.append((names, value))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(_target_leaves(target), node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bind(_target_leaves(node.target), node.value)
        elif isinstance(node, ast.AugAssign):
            bind(_target_leaves(node.target), node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(_target_leaves(node.target), node.iter)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bind(_target_leaves(node.optional_vars), node.context_expr)
        elif isinstance(node, ast.Call):
            # keyword arguments name the receiving field directly
            for kw in node.keywords:
                if kw.arg is not None:
                    bind([kw.arg], kw.value)
            func_name = leaf_name(node.func)
            # dataclass-style constructors: positional args -> fields
            if func_name in class_fields:
                for name, arg in zip(class_fields[func_name], node.args):
                    bind([name], arg)
            # container mutation: x.append(y) taints x
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in {"append", "extend", "add", "appendleft"}
            ):
                receiver = leaf_name(node.func.value)
                if receiver:
                    for arg in node.args:
                        bind([receiver], arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a function's name carries the taint of its return values,
            # so ``info.primary_addr(key)`` resolves through the method
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    bind([node.name], sub.value)
    return bindings


def build_app_model(trees: Dict[str, ast.Module]) -> AppModel:
    """Extract allocations, declarations and CAS sites from an app's
    modules (``trees``: path -> parsed module) and solve the taint
    fixpoint."""
    model = AppModel()
    class_fields: Dict[str, List[str]] = {}
    for _path, tree in sorted(trees.items()):
        class_fields.update(_class_fields(tree))

    all_bindings: List[Tuple[List[str], ast.expr]] = []
    for path, tree in sorted(trees.items()):
        scope_of = scope_resolver(build_symbols(tree, path), parent_map(tree))
        all_bindings.extend(_collect_bindings(tree, class_fields))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _ALLOC_ATTRS and func.attr == "alloc_region" and node.args:
                    pattern = string_pattern(node.args[0])
                    if pattern is not None:
                        model.allocations.add(pattern)
                elif func.attr == "set_region_policy":
                    pattern_arg = node.args[1] if len(node.args) > 1 else None
                    policy_arg = node.args[2] if len(node.args) > 2 else None
                    for kw in node.keywords:
                        if kw.arg == "region_name":
                            pattern_arg = kw.value
                        elif kw.arg == "policy":
                            policy_arg = kw.value
                    pattern = (
                        string_pattern(pattern_arg) if pattern_arg is not None else None
                    )
                    policy = None
                    if isinstance(policy_arg, ast.Constant) and isinstance(
                        policy_arg.value, str
                    ):
                        policy = policy_arg.value
                    if pattern is not None:
                        model.declarations.append(
                            _Declaration(
                                pattern, policy, node, path, scope_of(node)
                            )
                        )
                elif func.attr in _LOCK_DECL_ATTRS:
                    model.lock_decl_args.extend(node.args)
                    model.lock_decl_args.extend(kw.value for kw in node.keywords)
                elif func.attr in _CAS_ATTRS and node.args:
                    model.cas_sites.append(
                        (node.args[0], node, path, scope_of(node))
                    )
            elif isinstance(func, ast.Name) and func.id in _CAS_NAMES and node.args:
                model.cas_sites.append(
                    (node.args[0], node, path, scope_of(node))
                )

    # Taint fixpoint over one app-wide namespace.
    for _round in range(_MAX_ROUNDS):
        changed = False
        for targets, value in all_bindings:
            taint = model.taint_of(value)
            if not taint:
                continue
            for name in targets:
                have = model.taint.setdefault(name, set())
                if not taint <= have:
                    have |= taint
                    changed = True
        if not changed:
            break
    return model


def check_app(trees: Dict[str, ast.Module]) -> Dict[str, List[FlowFinding]]:
    """Run FLW401–403 over one app (``trees``: path -> parsed module);
    returns findings grouped by path."""
    model = build_app_model(trees)
    findings: Dict[str, List[FlowFinding]] = {path: [] for path in trees}

    def flag(path: str, rule: str, node: ast.AST, message: str, scope: str) -> None:
        findings[path].append(finding_at(path, rule, node, message, scope))

    # Region patterns covered by a declaration of any kind.
    covered: Set[str] = {decl.pattern for decl in model.declarations}
    for arg in model.lock_decl_args:
        covered |= model.taint_of(arg)

    # FLW402 / FLW403 — declaration sanity.
    by_pattern: Dict[str, Set[str]] = {}
    for decl in model.declarations:
        if not any(pattern_overlap(decl.pattern, alloc) for alloc in model.allocations):
            flag(
                decl.path, "FLW402", decl.node,
                f"policy declared for {decl.pattern!r} but no alloc_region in "
                "this app produces a matching name — stale declaration",
                decl.scope,
            )
        if decl.policy is not None:
            if decl.policy not in _VALID_POLICIES:
                flag(
                    decl.path, "FLW403", decl.node,
                    f"unknown policy {decl.policy!r} for {decl.pattern!r} "
                    f"(valid: {sorted(_VALID_POLICIES)})",
                    decl.scope,
                )
            else:
                seen = by_pattern.setdefault(decl.pattern, set())
                if seen and decl.policy not in seen:
                    flag(
                        decl.path, "FLW403", decl.node,
                        f"{decl.pattern!r} declared with conflicting policies "
                        f"{sorted(seen | {decl.policy})}",
                        decl.scope,
                    )
                seen.add(decl.policy)

    # FLW401 — CAS into an allocated-but-undeclared region.
    for addr_expr, call, path, scope in model.cas_sites:
        taint = model.taint_of(addr_expr)
        resolved = {
            p for p in taint
            if any(pattern_overlap(p, alloc) for alloc in model.allocations)
        }
        if not resolved:
            continue  # unresolvable address: silence over speculation
        if any(
            pattern_overlap(p, c) for p in resolved for c in covered
        ):
            continue
        regions = ", ".join(sorted(resolved))
        flag(
            path, "FLW401", call,
            f"CAS resolves to region(s) {regions} which the app allocates "
            "but never declares to the sanitizer (no set_region_policy or "
            "lock-word declaration covers them)",
            scope,
        )

    for path in findings:
        findings[path].sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def _declares_regions(tree: ast.Module) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "declare_sanitizer_regions"
        for node in ast.walk(tree)
    )


def group_apps(trees: Dict[str, ast.Module]) -> List[Dict[str, ast.Module]]:
    """Group parsed modules (``trees``: path -> module) into app units:
    one unit per directory containing a ``declare_sanitizer_regions``
    definition, holding every module in that directory."""
    by_dir: Dict[str, Dict[str, ast.Module]] = {}
    for path in sorted(trees):
        by_dir.setdefault(os.path.dirname(os.path.abspath(path)), {})[path] = (
            trees[path]
        )
    return [
        members
        for _dirname, members in sorted(by_dir.items())
        if any(_declares_regions(tree) for tree in members.values())
    ]
