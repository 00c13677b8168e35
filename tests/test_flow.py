"""Tests for repro.analysis.flow: CFG, dataflow rules, pragmas and the
CLI gate."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import output as output_mod
from repro.analysis.flow.astutil import is_process_generator
from repro.analysis.flow.cfg import ENTRY, EXIT, build_cfg
from repro.analysis.flow.dataflow import forward_may
from repro.analysis.flow.engine import (
    RULES,
    FlowFinding,
    analyze_paths,
    analyze_source,
    collect_files,
    main,
)
from tests.test_analysis import SIM003_FIXTURE

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def _fn(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    fns = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    if name is not None:
        fns = [f for f in fns if f.name == name]
    return fns[0]


def _rules_of(findings):
    return sorted(f.rule for f in findings)


def _analyze(source):
    return analyze_source(textwrap.dedent(source), "fixture.py")


# -- CFG construction ---------------------------------------------------------


class TestCfg:
    def test_straight_line(self):
        cfg = build_cfg(_fn("""
            def f(lock):
                yield lock.acquire()
                lock.release()
        """))
        # ENTRY -> acquire -> release -> EXIT
        assert cfg.node_count == 4
        assert cfg.succs[ENTRY] == {2}
        assert cfg.succs[2] == {3}
        assert cfg.succs[3] == {EXIT}

    def test_loop_with_break_joins_after(self):
        cfg = build_cfg(_fn("""
            def f(sim):
                while True:
                    yield sim.timeout(1)
                    if sim.now > 5:
                        break
                done = 1
                return done
        """))
        # `while True` has no fall-through: `done = 1` is reachable only
        # via the break edge.
        done_nodes = [
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.Assign)
        ]
        assert len(done_nodes) == 1
        preds = cfg.preds[done_nodes[0]]
        assert preds, "break edge must reach the post-loop statement"
        assert all(isinstance(cfg.stmts[p], ast.Break) for p in preds)

    def test_for_loop_back_edge(self):
        cfg = build_cfg(_fn("""
            def f(items, sim):
                for item in items:
                    yield sim.timeout(item)
                return None
        """))
        header = next(
            i for i, s in enumerate(cfg.stmts) if isinstance(s, ast.For)
        )
        body = next(
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.Expr) and i != header
        )
        assert header in cfg.preds[body]
        assert body in cfg.preds[header], "loop body must branch back"

    def test_try_finally_routes_return(self):
        cfg = build_cfg(_fn("""
            def f(lock):
                yield lock.acquire()
                try:
                    return 1
                finally:
                    lock.release()
        """))
        release = next(
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.Expr) and "release" in ast.unparse(s)
        )
        ret = next(
            i for i, s in enumerate(cfg.stmts) if isinstance(s, ast.Return)
        )
        # return routes *through* the finally: return -> ... -> release -> EXIT
        assert cfg.has_path(ret, release)
        assert EXIT in cfg.succs[release]
        # and not around it
        assert EXIT not in cfg.succs[ret]

    def test_exception_edge_reaches_handler(self):
        cfg = build_cfg(_fn("""
            def f(sim):
                try:
                    risky()
                except Exception:
                    handled = 1
                return None
        """))
        handler = next(
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.ExceptHandler)
        )
        assert cfg.preds[handler], "try body must have an edge into the handler"

    def test_dataflow_fixpoint_on_loop(self):
        cfg = build_cfg(_fn("""
            def f(lock, sim):
                yield lock.acquire()
                while cond():
                    yield sim.timeout(1)
                lock.release()
        """))
        acq = next(
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.Expr) and "acquire" in ast.unparse(s)
        )
        rel = next(
            i for i, s in enumerate(cfg.stmts)
            if isinstance(s, ast.Expr) and "release" in ast.unparse(s)
        )
        in_facts, out_facts = forward_may(cfg, {acq: {"L"}}, {rel: {"L"}})
        assert "L" in in_facts[rel]
        assert "L" not in out_facts[rel]
        assert "L" not in in_facts[EXIT]


# -- ownership rules ----------------------------------------------------------


class TestOwnership:
    def test_flw101_partial_release(self):
        findings = _analyze("""
            def f(lock, cond):
                yield lock.acquire()
                if cond:
                    lock.release()
                    return 1
                return 2
        """)
        assert "FLW101" in _rules_of(findings)
        # The verbs.post_send shape with a return between the doorbell
        # grant and the try/finally that releases it: a QP that errors
        # while the poster waits for the doorbell leaks the lock.
        findings = _analyze("""
            def post_send(qp, doorbell, thread, tid, batch):
                if not doorbell.lock.try_acquire(owner=tid):
                    yield doorbell.lock.acquire(owner=tid)
                if qp.state == "error":
                    return batch
                try:
                    yield from thread.compute(5)
                finally:
                    doorbell.lock.release(owner=tid)
                return batch
        """)
        assert _rules_of(findings) == ["FLW101"]
        assert findings[0].line == 3

    def test_flw101_negative_release_in_finally(self):
        findings = _analyze("""
            def f(lock):
                yield lock.acquire()
                try:
                    yield work()
                finally:
                    lock.release()
        """)
        assert "FLW101" not in _rules_of(findings)

    def test_flw101_negative_ownership_transfer(self):
        # No release anywhere in the function: ownership moves elsewhere
        # (QP-pool style); not this rule's business.
        findings = _analyze("""
            def f(pool):
                qp = yield pool.acquire()
                return qp
        """)
        assert "FLW101" not in _rules_of(findings)

    def test_flw101_correlated_guard_not_flagged(self):
        # The verbs.py shape: acquire and release both guarded by the
        # same `is not None` test on the lock itself.
        findings = _analyze("""
            def f(qp, thread_id):
                if qp.share_lock is not None:
                    yield qp.share_lock.acquire(owner=thread_id)
                work()
                if qp.share_lock is not None:
                    qp.share_lock.release(owner=thread_id)
        """)
        assert "FLW101" not in _rules_of(findings)

    def test_flw101_token_take_put(self):
        findings = _analyze("""
            def f(bucket, cond):
                yield bucket.take(3)
                if cond:
                    bucket.put(3)
        """)
        assert "FLW101" in _rules_of(findings)

    def test_grant_on_the_spot_is_an_acquire(self):
        # ``try_acquire`` never yields, but a grant is a grant: leaving
        # without a release on some path is the same finding as after
        # ``yield lock.acquire()`` — once per acquisition, not once per
        # half of the idiom.
        findings = _analyze("""
            def f(lock, sim, cond):
                if not lock.try_acquire():
                    yield lock.acquire()
                yield sim.timeout(5)
                if cond:
                    lock.release()
        """)
        assert _rules_of(findings) == ["FLW101"]
        assert findings[0].line == 3
        findings = _analyze("""
            def f(bucket, cond):
                if not bucket.try_take(3):
                    yield bucket.take(3)
                if cond:
                    bucket.put(3)
        """)
        assert "FLW101" in _rules_of(findings)
        # Outside the idiom (no yielded fallback) the grant is assumed.
        findings = _analyze("""
            def f(lock, sim, cond):
                yield sim.timeout(1)
                if lock.try_acquire():
                    if cond:
                        lock.release()
        """)
        assert _rules_of(findings) == ["FLW101"]

    def test_grant_on_the_spot_negative_released_in_finally(self):
        # The verbs.py shape: both locks taken on the spot when free, the
        # inner one inside the outer one's try.  An Interrupt delivered
        # at the inner ``yield`` arrives with the inner lock *not* held
        # (try_acquire said no), so the outer finally leaks nothing.
        findings = _analyze("""
            def f(qp, doorbell, thread, tid):
                if qp.share_lock is not None:
                    if not qp.share_lock.try_acquire(owner=tid):
                        yield qp.share_lock.acquire(owner=tid)
                try:
                    if not doorbell.lock.try_acquire(owner=tid):
                        yield doorbell.lock.acquire(owner=tid)
                    try:
                        yield from thread.compute(5)
                    finally:
                        doorbell.lock.release(owner=tid)
                finally:
                    if qp.share_lock is not None:
                        qp.share_lock.release(owner=tid)
        """)
        assert _rules_of(findings) == []

# -- determinism rules --------------------------------------------------------


class TestDeterminism:
    def test_flw202_float_into_ns(self):
        findings = _analyze("""
            def f(self):
                self.deadline_ns += 1.5
        """)
        assert "FLW202" in _rules_of(findings)
        # The responder-engine shape: a ns -> us -> ns round trip is not
        # exact for every double, so the busy-time metric drifts by ulps.
        findings = _analyze("""
            def submit(counters, start, finish):
                counters.responder_busy_ns += (finish - start) * 1e-3 * 1e3
        """)
        assert _rules_of(findings) == ["FLW202"]

    def test_flw202_division(self):
        findings = _analyze("""
            def f(self, total, n):
                self.budget_ns += total / n
        """)
        assert "FLW202" in _rules_of(findings)

    def test_flw202_negative_int_round(self):
        findings = _analyze("""
            def f(self, total, n):
                self.budget_ns += int(round(total / n))
        """)
        assert "FLW202" not in _rules_of(findings)

    def test_flw202_negative_integer_math(self):
        findings = _analyze("""
            def f(self, step_ns):
                self.now_ns += step_ns * 2
        """)
        assert "FLW202" not in _rules_of(findings)

    def test_flw203_unseeded_random(self):
        findings = _analyze("""
            import random

            def f():
                rng = random.Random()
                return rng
        """)
        assert "FLW203" in _rules_of(findings)
        # The run_microbench shape: each worker's RNG drawn from the OS
        # instead of from the run's seeded RNG.
        findings = _analyze("""
            import random

            def start(sim, smart_threads, seed, worker):
                rng = random.Random(seed)
                return [sim.spawn(worker(smart, random.Random()))
                        for smart in smart_threads]
        """)
        assert _rules_of(findings) == ["FLW203"]

    def test_flw203_constant_seed_shadowing_param(self):
        findings = _analyze("""
            import random

            def f(seed):
                rng = random.Random(42)
                return rng
        """)
        assert "FLW203" in _rules_of(findings)

    def test_flw203_negative_threaded_seed(self):
        findings = _analyze("""
            import random

            def f(seed):
                rng = random.Random(seed)
                return rng
        """)
        assert "FLW203" not in _rules_of(findings)


# -- interrupt safety ---------------------------------------------------------


class TestInterruptSafety:
    def test_flw301_yield_in_broad_except(self):
        findings = _analyze("""
            def f(sim):
                try:
                    yield sim.timeout(1)
                except Exception:
                    yield sim.timeout(2)
        """)
        assert "FLW301" in _rules_of(findings)
        # The bench client-loop shape: an op that raised (a blade that
        # never came back) is waited out instead of failing the run.
        findings = _analyze("""
            def client_loop(sim, dispatch, client, stream):
                for item in stream:
                    try:
                        yield from dispatch(client, item)
                    except Exception:
                        yield sim.timeout(1000)
        """)
        assert "FLW301" in _rules_of(findings)

    def test_flw301_negative_narrow_except(self):
        findings = _analyze("""
            def f(sim):
                try:
                    yield sim.timeout(1)
                except FaultAbort:
                    yield sim.timeout(2)
        """)
        assert "FLW301" not in _rules_of(findings)

    def test_flw302_yield_in_finally(self):
        findings = _analyze("""
            def f(handle, addr):
                try:
                    yield handle.cas_sync(addr, 0, 1)
                finally:
                    yield from handle.write_sync(addr, b"0")
        """)
        assert "FLW302" in _rules_of(findings)
        # The Sherman delete shape: the leaf lock released by a yield in
        # finally; a client closed inside the try at the end of a run
        # prints "generator ignored GeneratorExit" and skips the release.
        findings = _analyze("""
            def delete(self, handle, leaf_addr, key):
                yield from self.locks.acquire(handle, leaf_addr)
                try:
                    leaf = yield from self.fetch(leaf_addr)
                    if key not in leaf:
                        return False
                    yield from handle.write_sync(leaf_addr, leaf.drop(key))
                finally:
                    yield from self.locks.release(handle, leaf_addr)
                return True
        """)
        assert _rules_of(findings) == ["FLW302"]

    def test_flw302_negative_plain_finally(self):
        findings = _analyze("""
            def f(lock, sim):
                yield lock.acquire()
                try:
                    yield sim.timeout(1)
                finally:
                    lock.release()
        """)
        assert "FLW302" not in _rules_of(findings)

    def test_non_process_function_ignored(self):
        findings = _analyze("""
            def f(values):
                try:
                    yield 1
                finally:
                    cleanup()
        """)
        # a plain generator (yielding literals) is not a DES process
        assert "FLW302" not in _rules_of(findings)


# -- pragmas ------------------------------------------------------------------


class TestPragmas:
    def test_same_line_pragma(self):
        findings = _analyze("""
            import random

            def setup():
                return random.Random()  # lint: disable=FLW203
        """)
        assert findings == []

    def test_multiline_statement_end_pragma(self):
        findings = _analyze("""
            import random

            def setup():
                return random.Random(
                )  # lint: disable=FLW203
        """)
        assert findings == []

    def test_pragma_wrong_rule_keeps_finding(self):
        findings = _analyze("""
            import random

            def setup():
                return random.Random()  # lint: disable=FLW999
        """)
        assert _rules_of(findings) == ["FLW203"]

    def test_lint_multiline_end_pragma(self):
        # A SIM finding honors the closing line too.
        assert _analyze("""
            import time

            def f():
                return time.time(
                )  # lint: disable=SIM001
        """) == []

    def test_lint_start_line_pragma_still_works(self):
        assert _analyze("""
            import time

            def f():
                return time.time()  # lint: disable=SIM001
        """) == []

    def test_one_pragma_disables_a_sim_and_an_flw_rule(self):
        source = """
            import time

            def f(self):
                self.spent_ns += time.time() / 2{pragma}
        """
        assert _rules_of(_analyze(source.format(pragma=""))) == ["FLW202", "SIM001"]
        assert _analyze(source.format(
            pragma="  # lint: disable=SIM001,FLW202")) == []
        assert _rules_of(_analyze(source.format(
            pragma="  # lint: disable=FLW202"))) == ["SIM001"]

    def test_lint_knows_a_process_by_its_grant_on_the_spot(self):
        # The process-generator table (flow/astutil.py): a generator that
        # takes a resource on the spot is a process step, so swallowing
        # Interrupt in it is SIM003 ...
        source = """
            def worker(lock, parked):
                if lock.try_acquire():
                    try:
                        yield parked
                    except Exception:
                        pass
        """
        assert _rules_of(_analyze(source)) == ["SIM003"]
        # ... while the same shape without the grant is just a generator.
        plain = source.replace("lock.try_acquire()", "lock.looks_free()")
        assert _analyze(plain) == []

    def test_lint_knows_a_process_by_its_cpu_charge_sleep(self):
        # The generator-free CPU charge: `d = thread.charge(ns)` then
        # `if d > 0: yield sim.timeout(d)` — the sleep is the table's
        # `timeout`, so the poster is a process step (SIM003 applies) ...
        source = """
            def poster(thread, sim, ns):
                try:
                    delay = thread.charge(ns)
                    if delay > 0:
                        yield sim.timeout(delay)
                except Exception:
                    pass
        """
        assert _rules_of(_analyze(source)) == ["SIM003"]
        # ... and so is every function in src/ that holds the idiom.
        holders = []
        for path in (SRC / "rnic" / "verbs.py", SRC / "apps" / "sherman" / "client.py",
                     SRC / "cluster.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "charge"
                    for node in ast.walk(fn)
                ):
                    holders.append(fn.name)
                    assert is_process_generator(fn), (path.name, fn.name)
        assert sorted(holders) == [
            "compute", "delete", "insert", "lookup", "post_send", "wait_completion",
        ]


def _finding(path="a.py", line=1, rule="FLW203", scope="f"):
    return FlowFinding(
        path=path, line=line, col=0, end_line=line, rule=rule,
        message="m", scope=scope,
    )


# -- output formats -----------------------------------------------------------


class TestOutput:
    def test_json_shape(self):
        report = json.loads(output_mod.to_json([_finding()], 7))
        assert report["files"] == 7
        assert report["findings"][0]["rule"] == "FLW203"
        assert report["findings"][0]["fingerprint"] == "a.py::f::FLW203"

    def test_rule_catalog_size(self):
        # One catalog: the rules the seeded-mutation study kept
        # (docs/MODEL.md §14.1), hygiene beside the flow families.
        assert set(RULES) == {f"SIM00{n}" for n in range(1, 6)} | {
            "FLW101", "FLW202", "FLW203", "FLW301", "FLW302"}


# -- engine / CLI -------------------------------------------------------------


class TestEngine:
    def test_collect_files_dedupes_overlap(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        file = pkg / "mod.py"
        file.write_text("x = 1\n")
        files = collect_files([pkg, file, pkg])
        assert len(files) == 1

    def test_syntax_error_reported(self):
        findings = analyze_source("def broken(:\n", "bad.py")
        assert _rules_of(findings) == ["FLW000"]

    def test_syntax_error_next_to_an_app_is_reported_not_raised(self, tmp_path,
                                                                capsys):
        """A module that does not parse is its FLW000; the clean module
        beside it is still analysed, and nothing raises."""
        app = tmp_path / "app"
        app.mkdir()
        (app / "server.py").write_text("def serve(sim):\n    yield sim.timeout(1)\n")
        (app / "client.py").write_text("def broken(:\n")
        findings, file_count = analyze_paths([app])
        assert file_count == 2
        assert [(Path(f.path).name, f.rule) for f in findings] == [
            ("client.py", "FLW000")]
        assert main([str(app)]) == 1
        assert "FLW000 syntax error" in capsys.readouterr().out

    def test_cli_gate_on_the_repo(self, capsys):
        """CI's gate: the analyser over ``src/repro`` and ``examples``
        finds nothing (a pragma is the one way to accept a finding)."""
        code = main([str(SRC), str(REPO_ROOT / "examples")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_cli_fails_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\ndef setup():\n    return random.Random()\n")
        assert main([str(bad)]) == 1
        assert "FLW203" in capsys.readouterr().out
        # A path that cannot be read is a finding, not a traceback.
        assert main([str(tmp_path / "absent.py")]) == 1
        assert "FLW000 unreadable" in capsys.readouterr().out
        # A hygiene rule through the same gate, text and JSON ...
        fixture = tmp_path / "sim" / "fixture.py"
        fixture.parent.mkdir()
        fixture.write_text(SIM003_FIXTURE)
        assert main([str(fixture.parent)]) == 1
        assert "SIM003" in capsys.readouterr().out
        assert main([str(fixture.parent), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1 and payload["files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["SIM003"]
        # ... and the pragma turns the exit status green.
        fixture.write_text(SIM003_FIXTURE.replace(
            "    except Exception:", "    except Exception:  # lint: disable=SIM003"
        ))
        assert main([str(fixture.parent)]) == 0
