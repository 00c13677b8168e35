"""Per-file rules: simulation hygiene, lock leaks, determinism hazards,
interrupt safety.

Rule catalog (see docs/MODEL.md §14 for rationale and suppression, and
§14.1 for the seeded-mutation study each rule passed: it catches a bug
the tests, the golden digests and RDMASan all miss):

* **SIM001 wall-clock** — ``time.time``/``datetime.now``/… in simulation
  code.  Real time leaking into a run breaks determinism.
* **SIM002 unseeded-random** — ``random``-module functions outside
  ``sim/rng.py``.  Use a seeded ``random.Random`` instance.
* **SIM003 broad-except** — a broad ``except``/``except Exception``
  inside a process generator that does not re-raise: it swallows
  :class:`~repro.sim.core.Interrupt` and every error a run must
  surface.
* **SIM004 float-timestamp-equality** — ``==``/``!=`` on simulation
  timestamps that may be floats (``busy_until`` and friends).
* **SIM005 non-waitable-yield** — a process yields a literal (the kernel
  would raise at run time, on whichever path reaches it first).
* **FLW101 lock-path-leak** — a lock/token acquired in a function
  (``yield x.acquire()`` / ``yield x.take()``, or granted on the spot by
  ``x.try_acquire()`` / ``x.try_take()``) is released on at least one
  path but *not* on every path to function exit (abrupt exits
  included).  Functions with zero releases of the key transfer
  ownership elsewhere and are exempt.
* **FLW202 float-ns-accumulation** — ``+=``/``-=`` of float-valued
  arithmetic into a ``*_ns`` name without ``int(round(...))``.
* **FLW203 unthreaded-seed** — ``Random()`` seeded from the OS, or a
  constant seed inside a function that has a ``seed`` parameter.
* **FLW301 yield-in-except** — a process generator yields inside a
  broad (bare/``Exception``/``BaseException``/``Interrupt``) handler.
* **FLW302 yield-in-finally** — a process generator yields inside
  ``finally``; a second interrupt (or generator close) skips cleanup.

Every rule reports :class:`FlowFinding` records; the engine applies
pragmas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.flow.astutil import (
    BROAD_EXCEPTION_NAMES,
    ancestors,
    call_text,
    handler_names,
    leaf_name,
    own_scope,
    parent_map,
)
from repro.analysis.flow.cfg import ACQUIRE_PAIRS, EXIT, SPOT_ACQUIRES, build_cfg
from repro.analysis.flow.dataflow import forward_may
from repro.analysis.flow.symbols import ModuleSymbols, build_symbols

RULES: Dict[str, str] = {
    "SIM001": "wall-clock use in simulation code (use sim.now, integer ns)",
    "SIM002": "unseeded random-module use outside sim/rng.py (use a seeded Random)",
    "SIM003": "broad except in a process generator can swallow sim.core.Interrupt",
    "SIM004": "float equality comparison on simulation timestamps",
    "SIM005": "process yields a non-Waitable literal",
    "FLW101": "resource acquired but not released on every path to exit",
    "FLW202": "float arithmetic accumulates into a *_ns value",
    "FLW203": "RNG seed not threaded from configuration",
    "FLW301": "yield inside a broad except handler of a process generator",
    "FLW302": "yield inside finally of a process generator",
}

_WALL_CLOCK_TIME = {
    "time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
    "perf_counter_ns",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
_RNG_CALLS = {
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "expovariate", "randbytes",
}


@dataclass(frozen=True)
class FlowFinding:
    path: str
    line: int
    col: int
    end_line: int
    rule: str
    message: str
    #: enclosing function qualname ('' at module level) — the stable
    #: scope component of the fingerprint
    scope: str = ""

    def fingerprint(self) -> str:
        """``path::scope::rule``: the finding's id without line numbers."""
        return f"{self.path}::{self.scope}::{self.rule}"

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

    def __str__(self) -> str:
        where = f" [{self.scope}]" if self.scope else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{where} {self.message}"


def finding_at(path: str, rule: str, node: ast.AST, message: str,
               scope: str = "") -> FlowFinding:
    """A finding spanning ``node``'s first to last source line."""
    line = getattr(node, "lineno", 0)
    return FlowFinding(
        path=path,
        line=line,
        col=getattr(node, "col_offset", 0),
        end_line=getattr(node, "end_lineno", None) or line,
        rule=rule,
        message=message,
        scope=scope,
    )


#: ``flag(rule, node, message, scope="")`` — what every rule family reports to
Flag = Callable[..., None]


# -- resource-key extraction --------------------------------------------------


def _acquire_call(node: ast.expr) -> Optional[ast.Call]:
    """The call when ``node`` acquires a sim lock or token directly:
    ``yield x.acquire(...)`` (FifoLock idiom) or a bare
    ``x.try_acquire(...)`` — a grant without a yield, assumed
    (may-analysis) to have succeeded.  ``yield from helper.acquire(...)``
    delegates to an app-level protocol (sherman's lock table hands over
    across functions) and is not tracked."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in SPOT_ACQUIRES:
            return node
        return None
    if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
        call = node.value
        if isinstance(call.func, ast.Attribute) and call.func.attr in ACQUIRE_PAIRS:
            return call
    return None


def _resource_key(call: ast.Call) -> Tuple[str, Optional[str]]:
    """``(receiver text, discriminator)`` identifying the resource.

    The discriminator is the last positional argument (sherman's lock
    table takes the lock address there); keyword-only calls — FifoLock's
    ``acquire(owner=...)`` — discriminate by receiver alone.
    """
    receiver = call_text(call.func.value)
    discriminator = call_text(call.args[-1]) if call.args else None
    return receiver, discriminator


def _release_keys(stmt: ast.stmt, release_attr: str) -> Set[Tuple[str, Optional[str]]]:
    keys: Set[Tuple[str, Optional[str]]] = set()
    for sub in ast.walk(stmt):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == release_attr
        ):
            keys.add(_resource_key(sub))
    return keys


def _keys_match(acquired: Tuple[str, Optional[str]],
                released: Tuple[str, Optional[str]]) -> bool:
    if acquired[0] != released[0]:
        return False
    if acquired[1] is None or released[1] is None:
        return True
    return acquired[1] == released[1]


# -- FLW101: lock leaks (CFG + dataflow) -------------------------------------


def _check_ownership(info, flag: Flag) -> None:
    cfg = build_cfg(info.node)

    # Acquire sites: node id -> (key, call node).
    acquires: Dict[int, Tuple[Tuple[str, Optional[str]], ast.Call]] = {}
    releases: Dict[int, Set[Tuple[str, Optional[str]]]] = {}
    release_attrs: Set[str] = set()
    for node_id in range(cfg.node_count):
        # Scan only the expressions a node evaluates itself: a compound
        # header shares its stmt object with its body, whose statements
        # have nodes of their own — walking the whole subtree would
        # register every nested acquire twice.
        for root in cfg.own_exprs(node_id):
            for expr in ast.walk(root):
                call = _acquire_call(expr)
                if call is None:
                    continue
                attr = SPOT_ACQUIRES.get(call.func.attr, call.func.attr)
                acquires[node_id] = (_resource_key(call), call)
                release_attrs.add(ACQUIRE_PAIRS[attr])
    if not acquires:
        return
    # ``if not x.try_acquire(): yield x.acquire()`` is one acquisition:
    # held after the yield, and held on the edges that *skip* the body
    # (the test granted it) — not in the header's own post-state, which
    # is also the pre-state of the yield that may still be interrupted.
    slow_half: Dict[int, int] = {}  # the yield's node -> the header's
    for header, (key, call) in acquires.items():
        stmt = cfg.stmts[header]
        if not (
            call.func.attr in SPOT_ACQUIRES
            and isinstance(stmt, ast.If)
            and isinstance(stmt.test, ast.UnaryOp)
            and isinstance(stmt.test.op, ast.Not)
            and stmt.test.operand is call
            and len(stmt.body) == 1
            and not stmt.orelse
        ):
            continue
        for node_id in cfg.nodes_for(stmt.body[0]):
            slow = acquires.get(node_id)
            if (
                slow is not None
                and slow[0] == key
                and slow[1].func.attr == SPOT_ACQUIRES[call.func.attr]
            ):
                slow_half[node_id] = header
    for node_id in range(cfg.node_count):
        keys: Set[Tuple[str, Optional[str]]] = set()
        for root in cfg.own_exprs(node_id):
            for attr in release_attrs:
                keys |= _release_keys(root, attr)
        if keys:
            releases[node_id] = keys
    # Correlated guards: ``if qp.share_lock is not None:`` around both
    # the acquire and the release means the skip-release branch is
    # infeasible once the lock was acquired; path-insensitive dataflow
    # can't see that, so a release guarded by an If that *mentions the
    # resource's receiver* also kills at the header — both arms then
    # leave the fact dead.
    for node_id in range(cfg.node_count):
        stmt = cfg.stmts[node_id]
        if not isinstance(stmt, ast.If):
            continue
        test_text = call_text(stmt.test)
        guarded: Set[Tuple[str, Optional[str]]] = set()
        for attr in release_attrs:
            guarded |= _release_keys(stmt, attr)
        matched = {key for key in guarded if key[0] in test_text}
        if matched:
            releases.setdefault(node_id, set()).update(matched)

    # One dataflow fact per acquire *site* (same lock acquired twice =
    # two facts) so each site reports independently.
    gen: Dict[int, Set[object]] = {}
    kill: Dict[int, Set[object]] = {}
    facts: Dict[object, Tuple[Tuple[str, Optional[str]], ast.Call]] = {}
    edge_gen: Dict[Tuple[int, int], Set[object]] = {}
    paired_headers = set(slow_half.values())
    for node_id, (key, call) in acquires.items():
        header = slow_half.get(node_id, node_id)
        fact = ("res", header)
        if header == node_id:
            facts[fact] = (key, call)
        if node_id not in paired_headers:
            gen[node_id] = {fact}
    for node_id, header in slow_half.items():
        # The header's fall-through successors are the yield's too (its
        # other edges are the body and the yield's own pre-state
        # exception edges).
        for succ in cfg.succs[header] & cfg.succs[node_id]:
            edge_gen[(header, succ)] = {("res", header)}
    for node_id, released in releases.items():
        killed = {
            fact for fact, (key, _call) in facts.items()
            if any(_keys_match(key, rel) for rel in released)
        }
        if killed:
            kill[node_id] = killed

    in_facts, _out = forward_may(cfg, gen, kill, edge_gen)

    # Held at EXIT though the function does release it somewhere.
    for fact in in_facts[EXIT]:
        key, call = facts[fact]
        has_release = any(
            any(_keys_match(key, rel) for rel in released)
            for released in releases.values()
        )
        if not has_release:
            continue  # ownership transferred out of this function
        flag(
            "FLW101", call,
            f"{key[0]}.{call.func.attr}() is released on some paths but a "
            "path to function exit keeps it held (release in a finally or "
            "on every branch)",
            scope=info.qualname,
        )


# -- determinism hazards ------------------------------------------------------


def own_scope_many(stmt: ast.stmt):
    yield stmt
    yield from own_scope(stmt)


def _check_determinism(symbols: ModuleSymbols, flag: Flag,
                       in_rng_module: bool) -> None:
    for info in symbols.functions:
        for node in own_scope(info.node):
            # FLW202
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target_name = leaf_name(node.target)
                if target_name and target_name.endswith("_ns"):
                    if _float_tainted(node.value):
                        flag(
                            "FLW202", node,
                            f"float arithmetic accumulates into "
                            f"{target_name}; timestamps are integer ns — "
                            "wrap the increment in int(round(...))",
                            scope=info.qualname,
                        )
            # FLW203
            elif isinstance(node, ast.Call) and leaf_name(node.func) == "Random":
                if in_rng_module:
                    continue
                if not node.args and not node.keywords:
                    flag(
                        "FLW203", node,
                        "Random() with no seed draws entropy from the OS; "
                        "thread the configured seed through instead",
                        scope=info.qualname,
                    )
                elif (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, (int, float))
                    and _has_seed_param(info.node)
                ):
                    flag(
                        "FLW203", node,
                        "constant seed ignores this function's `seed` "
                        "parameter; derive the RNG from the configured seed",
                        scope=info.qualname,
                    )


def _float_tainted(node: ast.expr) -> bool:
    """Does evaluating ``node`` produce a float, outside int()/round()?"""
    if isinstance(node, ast.Call) and leaf_name(node.func) in {"int", "round"}:
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _float_tainted(node.left) or _float_tainted(node.right)
    if isinstance(node, ast.UnaryOp):
        return _float_tainted(node.operand)
    if isinstance(node, (ast.IfExp,)):
        return _float_tainted(node.body) or _float_tainted(node.orelse)
    if isinstance(node, ast.Call):
        name = leaf_name(node.func)
        return name in _RNG_CALLS  # rng.random() and friends are floats
    return False


def _has_seed_param(fn: ast.AST) -> bool:
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return any(a.arg == "seed" for a in every)


# -- interrupt safety ---------------------------------------------------------


def _check_interrupt_safety(symbols: ModuleSymbols, flag: Flag) -> None:
    for info in symbols.functions:
        if not info.is_process:
            continue
        for node in own_scope(info.node):
            if not isinstance(node, ast.Try):
                continue
            # FLW301: yields in broad handlers.
            for handler in node.handlers:
                names = handler_names(handler)
                broad = (
                    handler.type is None
                    or names & BROAD_EXCEPTION_NAMES
                    or "Interrupt" in names
                )
                if not broad:
                    continue
                for stmt in handler.body:
                    for sub in own_scope_many(stmt):
                        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                            flag(
                                "FLW301", sub,
                                "yield inside a broad except of a process "
                                "generator: a pending Interrupt can be "
                                "swallowed or re-entered while waiting in "
                                "the handler",
                                scope=info.qualname,
                            )
                            break
                    else:
                        continue
                    break
            # FLW302: yields in finally.
            for stmt in node.finalbody:
                for sub in own_scope_many(stmt):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        flag(
                            "FLW302", sub,
                            "yield inside finally of a process generator: "
                            "an Interrupt (or generator close) during the "
                            "wait skips the rest of the cleanup",
                            scope=info.qualname,
                        )
                        break
                else:
                    continue
                break


# -- simulation hygiene (SIM001-SIM005) ---------------------------------------


def _mentions(node: ast.AST, name: str) -> bool:
    return any(leaf_name(sub) == name for sub in ast.walk(node))


def _has_float_or_ns(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        name = leaf_name(sub)
        if name is not None and name.endswith("_ns"):
            return True
    return False


def _check_hygiene(symbols: ModuleSymbols, flag: Flag, scope_of,
                   in_rng_module: bool) -> None:
    def hit(rule: str, node: ast.AST, scope: str) -> None:
        flag(rule, node, RULES[rule], scope=scope)

    for node in ast.walk(symbols.tree):
        # SIM001 / SIM002: wall clock and unseeded randomness.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            base = leaf_name(node.func.value)
            if base == "time" and attr in _WALL_CLOCK_TIME:
                hit("SIM001", node, scope_of(node))
            elif base in {"datetime", "date"} and attr in _WALL_CLOCK_DATETIME:
                hit("SIM001", node, scope_of(node))
            elif base == "random" and attr in _RNG_CALLS and not in_rng_module:
                hit("SIM002", node, scope_of(node))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "time" and names & _WALL_CLOCK_TIME:
                hit("SIM001", node, scope_of(node))
            elif node.module == "random" and names & _RNG_CALLS and not in_rng_module:
                hit("SIM002", node, scope_of(node))
        # SIM004: float equality on timestamps.
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if any(_mentions(s, "busy_until") for s in sides) or (
                any(_mentions(s, "now") for s in sides)
                and any(_has_float_or_ns(s) for s in sides)
            ):
                hit("SIM004", node, scope_of(node))

    # SIM003 / SIM005: rules scoped to process generators.
    for info in symbols.functions:
        if not info.is_process:
            continue
        for node in own_scope(info.node):
            if isinstance(node, ast.Try):
                interrupt_handled = False
                for handler in node.handlers:
                    names = handler_names(handler)
                    if "Interrupt" in names:
                        interrupt_handled = True
                    elif (
                        (handler.type is None or names & BROAD_EXCEPTION_NAMES)
                        and not interrupt_handled
                        # a bare ``raise`` passes Interrupt on
                        and not any(
                            isinstance(sub, ast.Raise) and sub.exc is None
                            for sub in ast.walk(handler)
                        )
                    ):
                        hit("SIM003", handler, info.qualname)
            elif isinstance(node, ast.Yield) and (
                node.value is None
                or isinstance(
                    node.value,
                    (ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set),
                )
            ):
                hit("SIM005", node, info.qualname)


# -- entry point --------------------------------------------------------------


def scope_resolver(symbols: ModuleSymbols,
                   parents: Dict[ast.AST, ast.AST]) -> Callable[[ast.AST], str]:
    """``scope_of(node)``: the qualified name of the innermost function
    enclosing ``node`` in the module of ``symbols`` ("" at module level)."""

    def scope_of(node: ast.AST) -> str:
        for anc in ancestors(node, parents):
            info = symbols.function_for(anc)
            if info is not None:
                return info.qualname
        return ""

    return scope_of


def check_module(tree: ast.Module, path: str = "<string>") -> List[FlowFinding]:
    """Run every per-file rule over one parsed module."""
    symbols = build_symbols(tree, path)
    parents = parent_map(tree)
    scope_of = scope_resolver(symbols, parents)
    findings: List[FlowFinding] = []

    def flag(rule: str, node: ast.AST, message: str, scope: str = "") -> None:
        findings.append(finding_at(path, rule, node, message, scope))

    in_rng_module = path.replace("\\", "/").endswith("sim/rng.py")

    _check_hygiene(symbols, flag, scope_of, in_rng_module)
    for info in symbols.functions:
        _check_ownership(info, flag)
    _check_determinism(symbols, flag, in_rng_module)
    _check_interrupt_safety(symbols, flag)

    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
