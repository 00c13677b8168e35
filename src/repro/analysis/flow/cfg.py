"""Per-function control-flow graphs.

One node per simple statement (plus the headers of compound statements
and a few synthetic join nodes), with edges for:

* sequential flow, ``if``/``elif``/``else`` branching and joining;
* ``while``/``for`` loops, including ``break``/``continue`` and the
  back edge (a ``while True`` header has no fall-through exit edge);
* ``try``/``except``/``else``/``finally`` — every node of a ``try``
  body gets an exception edge to each handler entry, abrupt exits
  (``return``/``break``/``continue``/``raise`` and escaping exceptions)
  route *through* the enclosing ``finally`` before continuing to their
  real target, and a ``finally`` is built once with its frontier fanned
  out to every recorded continuation;
* ``with`` bodies (treated as straight-line flow through the item
  expressions);
* ``raise`` to the innermost enclosing handler, else through the
  ``finally`` chain to EXIT.

The graph is an over-approximation (it may contain infeasible paths —
e.g. entering a ``finally`` normally and leaving along the exceptional
continuation) which is the safe direction for the may-analyses in
:mod:`repro.analysis.flow.dataflow`: a *must*-style claim ("every path
releases") is only ever weakened, never strengthened, by extra paths.

``yield`` points do not get edges of their own — they are ordinary
expression positions.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

ENTRY = 0
EXIT = 1


class CFG:
    """A control-flow graph over one function's statements."""

    def __init__(self, fn: Optional[ast.AST] = None):
        self.fn = fn
        #: node id -> ast statement (None for ENTRY/EXIT/synthetic joins)
        self.stmts: List[Optional[ast.stmt]] = [None, None]
        self.succs: Dict[int, Set[int]] = {ENTRY: set(), EXIT: set()}
        self.preds: Dict[int, Set[int]] = {ENTRY: set(), EXIT: set()}

    # -- construction -------------------------------------------------------

    def add_node(self, stmt: Optional[ast.stmt]) -> int:
        node = len(self.stmts)
        self.stmts.append(stmt)
        self.succs[node] = set()
        self.preds[node] = set()
        return node

    def connect(self, a: int, b: int) -> None:
        self.succs[a].add(b)
        self.preds[b].add(a)

    # -- queries ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.stmts)

    def nodes_for(self, stmt: ast.stmt) -> List[int]:
        return [i for i, s in enumerate(self.stmts) if s is stmt]

    def own_exprs(self, node: int) -> List[ast.AST]:
        """The expression roots evaluated by node's own statement.

        Compound headers only own their test/iter expression, not their
        bodies (body statements have nodes of their own).
        """
        stmt = self.stmts[node]
        if stmt is None:
            return []
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, ast.For):
            return [stmt.iter]
        if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
            return []
        if isinstance(stmt, ast.With):
            return [item.context_expr for item in stmt.items]
        return [stmt]

    def has_path(
        self, start: int, goal: int, blocked: Optional[Set[int]] = None
    ) -> bool:
        """Is ``goal`` reachable from ``start`` avoiding ``blocked`` nodes?"""
        blocked = blocked or set()
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for succ in self.succs[node]:
                if succ not in seen and succ not in blocked:
                    seen.add(succ)
                    stack.append(succ)
        return False


#: acquire attr -> matching release attr
ACQUIRE_PAIRS = {"acquire": "release", "take": "put"}
#: grant-on-the-spot attr -> the yielded acquire it stands in for:
#: ``if not x.try_acquire(): yield x.acquire()`` is *one* acquisition
SPOT_ACQUIRES = {"try_acquire": "acquire", "try_take": "take"}


def _contains_direct_acquire(stmt: ast.AST) -> bool:
    """Does ``stmt`` yield a direct ``.acquire(...)``/``.take(...)`` call,
    or take one on the spot (``.try_acquire(...)``/``.try_take(...)``)?"""
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Yield):
            sub = sub.value
            attrs = ACQUIRE_PAIRS
        else:
            attrs = SPOT_ACQUIRES
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in attrs
        ):
            return True
    return False


class _Loop:
    __slots__ = ("header", "breaks")

    def __init__(self, header: int):
        self.header = header
        self.breaks: Set[int] = set()


class _Finally:
    """One active ``finally`` region while its ``try`` body is built.

    ``entry`` is a synthetic join all abrupt exits jump to; each abrupt
    exit records its real continuation in ``targets`` so the finally's
    frontier can be fanned out after the finally body exists.  ``EXIT``
    and loop headers are node ids; pending ``break`` targets of a loop
    *outside* the try are recorded as the loop object so the break edge
    lands on whatever join the loop eventually gets.
    """

    __slots__ = ("entry", "targets")

    def __init__(self, entry: int):
        self.entry = entry
        self.targets: List[object] = []


class _Builder:
    def __init__(self, fn: ast.AST):
        self.cfg = CFG(fn)
        self.loops: List[_Loop] = []
        self.finallies: List[_Finally] = []
        #: entries of handlers whose try body is currently being built
        self.handler_entries: List[List[int]] = []

    # -- abrupt-exit routing ----------------------------------------------

    def _route_abrupt(self, source: int, target: object,
                      through: Sequence[_Finally]) -> None:
        """Connect ``source`` to ``target`` through enclosing finallies.

        ``through`` is the (innermost-first) list of finallies the exit
        crosses; with none, the edge is direct.
        """
        if through:
            self.cfg.connect(source, through[0].entry)
            # Chain the whole crossing: each finally's frontier continues
            # into the next one out, the last into the real target.
            for frame, outer in zip(through, through[1:]):
                frame.targets.append(outer.entry)
            through[-1].targets.append(target)
        else:
            if isinstance(target, _Loop):
                target.breaks.add(source)
            else:
                self.cfg.connect(source, target)

    def _finallies_out_to(self, depth: int) -> List[_Finally]:
        """Active finallies crossed when exiting out to stack depth
        ``depth`` (innermost first)."""
        return list(reversed(self.finallies[depth:]))

    # -- statement dispatch -------------------------------------------------

    def build_body(self, stmts: Sequence[ast.stmt], preds: Set[int]) -> Set[int]:
        """Build ``stmts``; returns the fall-through frontier."""
        frontier = set(preds)
        for stmt in stmts:
            if not frontier:
                # Dead code after an abrupt exit still gets nodes (rules
                # may anchor findings there) but no incoming edges.
                pass
            frontier = self.build_stmt(stmt, frontier)
        return frontier

    def build_stmt(self, stmt: ast.stmt, preds: Set[int]) -> Set[int]:
        method = getattr(self, f"_build_{type(stmt).__name__}", None)
        if method is not None:
            return method(stmt, preds)
        node = self._simple(stmt, preds)
        return {node}

    def _simple(self, stmt: ast.stmt, preds: Set[int],
                can_raise: bool = True) -> int:
        node = self.cfg.add_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, node)
        # Any statement inside a try body may raise mid-flight: route an
        # exception edge to each active handler entry of the *innermost*
        # try.  Acquire-bearing statements are treated as all-or-nothing
        # — ``yield lock.acquire()`` that throws did not acquire — so
        # their edge leaves from the statement's *predecessors* (the
        # pre-state); every other statement (releases included, which
        # are assumed not to raise after taking effect) contributes its
        # post-state.  A nested bare ``try:`` header evaluates nothing
        # and cannot raise.
        if can_raise and self.handler_entries:
            sources = preds if _contains_direct_acquire(stmt) else {node}
            for entry in self.handler_entries[-1]:
                for source in sources:
                    self.cfg.connect(source, entry)
        return node

    # Compound statements ---------------------------------------------------

    def _build_If(self, stmt: ast.If, preds: Set[int]) -> Set[int]:
        header = self._simple(stmt, preds)
        then_frontier = self.build_body(stmt.body, {header})
        if stmt.orelse:
            else_frontier = self.build_body(stmt.orelse, {header})
        else:
            else_frontier = {header}
        return then_frontier | else_frontier

    def _is_const_true(self, test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _build_While(self, stmt: ast.While, preds: Set[int]) -> Set[int]:
        header = self._simple(stmt, preds)
        loop = _Loop(header)
        self.loops.append(loop)
        body_frontier = self.build_body(stmt.body, {header})
        self.loops.pop()
        for node in body_frontier:
            self.cfg.connect(node, header)
        after: Set[int] = set(loop.breaks)
        if not self._is_const_true(stmt.test):
            after.add(header)
        if stmt.orelse:
            after = self.build_body(stmt.orelse, after) | set(loop.breaks)
        return after

    def _build_For(self, stmt: ast.For, preds: Set[int]) -> Set[int]:
        header = self._simple(stmt, preds)
        loop = _Loop(header)
        self.loops.append(loop)
        body_frontier = self.build_body(stmt.body, {header})
        self.loops.pop()
        for node in body_frontier:
            self.cfg.connect(node, header)
        after: Set[int] = set(loop.breaks) | {header}
        if stmt.orelse:
            after = self.build_body(stmt.orelse, {header}) | set(loop.breaks)
        return after

    _build_AsyncFor = _build_For

    def _build_With(self, stmt: ast.With, preds: Set[int]) -> Set[int]:
        header = self._simple(stmt, preds)
        return self.build_body(stmt.body, {header})

    _build_AsyncWith = _build_With

    def _build_Try(self, stmt: ast.Try, preds: Set[int]) -> Set[int]:
        header = self._simple(stmt, preds, can_raise=False)
        escape = self._escape_target()  # before this try's own frames exist
        has_finally = bool(stmt.finalbody)
        frame: Optional[_Finally] = None
        if has_finally:
            frame = _Finally(self.cfg.add_node(None))
            self.finallies.append(frame)

        handler_entries = [self.cfg.add_node(None) for _ in stmt.handlers]
        self.handler_entries.append(handler_entries)
        if frame is not None and not stmt.handlers:
            # try/finally with no handlers: an exception anywhere in the
            # body routes through the finally and out.
            self.handler_entries[-1] = [frame.entry]
            frame.targets.append(escape)
        body_frontier = self.build_body(stmt.body, {header})
        self.handler_entries.pop()

        if stmt.orelse:
            body_frontier = self.build_body(stmt.orelse, body_frontier)

        handler_frontier: Set[int] = set()
        for entry, handler in zip(handler_entries, stmt.handlers):
            self.cfg.stmts[entry] = handler  # anchor findings on the clause
            handler_frontier |= self.build_body(handler.body, {entry})

        if frame is not None:
            self.finallies.pop()
            finally_preds = body_frontier | handler_frontier | {frame.entry}
            finally_frontier = self.build_body(stmt.finalbody, finally_preds)
            for target in frame.targets:
                for node in finally_frontier:
                    if isinstance(target, _Loop):
                        target.breaks.add(node)
                    else:
                        self.cfg.connect(node, target)
            return finally_frontier
        return body_frontier | handler_frontier

    _build_TryStar = _build_Try

    def _escape_target(self) -> object:
        """Where an exception escaping the current try body lands: the
        innermost handler of an *outer* try, else EXIT (through any
        outer finallies, resolved by the caller's routing)."""
        for entries in reversed(self.handler_entries):
            if entries:
                return entries[0]
        return EXIT

    # Abrupt exits ----------------------------------------------------------

    def _build_Return(self, stmt: ast.Return, preds: Set[int]) -> Set[int]:
        node = self._simple(stmt, preds)
        self._route_abrupt(node, EXIT, self._finallies_out_to(0))
        return set()

    def _build_Raise(self, stmt: ast.Raise, preds: Set[int]) -> Set[int]:
        node = self._simple(stmt, preds)
        # _simple already connected the node to the innermost handlers;
        # when there are none the exception leaves the function.
        if not (self.handler_entries and self.handler_entries[-1]):
            self._route_abrupt(node, EXIT, self._finallies_out_to(0))
        return set()

    def _loop_depth_finallies(self) -> List[_Finally]:
        """Finallies between the current point and the innermost loop."""
        if not self.loops:
            return []
        # Finallies opened after the loop's header node are the ones a
        # break/continue crosses; approximate by entry-node ordering.
        header = self.loops[-1].header
        crossed = [f for f in self.finallies if f.entry > header]
        return list(reversed(crossed))

    def _build_Break(self, stmt: ast.Break, preds: Set[int]) -> Set[int]:
        node = self._simple(stmt, preds)
        if self.loops:
            self._route_abrupt(node, self.loops[-1], self._loop_depth_finallies())
        return set()

    def _build_Continue(self, stmt: ast.Continue, preds: Set[int]) -> Set[int]:
        node = self._simple(stmt, preds)
        if self.loops:
            self._route_abrupt(
                node, self.loops[-1].header, self._loop_depth_finallies()
            )
        return set()

    # Nested definitions are opaque single statements ----------------------

    def _build_FunctionDef(self, stmt: ast.stmt, preds: Set[int]) -> Set[int]:
        return {self._simple(stmt, preds)}

    _build_AsyncFunctionDef = _build_FunctionDef
    _build_ClassDef = _build_FunctionDef


def build_cfg(fn: ast.AST) -> CFG:
    """The CFG of one ``FunctionDef``/``AsyncFunctionDef``."""
    builder = _Builder(fn)
    frontier = builder.build_body(fn.body, {ENTRY})
    for node in frontier:
        builder.cfg.connect(node, EXIT)
    return builder.cfg
