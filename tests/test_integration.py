"""Cross-module integration tests: determinism, feature matrix, and the
experiment/CLI plumbing."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.experiments import ExperimentResult, fig3_qp_policies
from repro.bench.microbench import run_microbench
from repro.bench.runner import run_hashtable
from repro.core.features import SmartFeatures, baseline, full
from repro.workloads.ycsb import WRITE_HEAVY


def _joined(argv):
    return pytest.param(argv, id=" ".join(argv))


class TestDeterminism:
    def test_microbench_deterministic(self):
        a = run_microbench(policy="per-thread-db", threads=4, depth=4,
                           warmup_ns=0.1e6, measure_ns=0.4e6, seed=9)
        b = run_microbench(policy="per-thread-db", threads=4, depth=4,
                           warmup_ns=0.1e6, measure_ns=0.4e6, seed=9)
        assert a.throughput_mops == b.throughput_mops
        assert a.measured_wrs == b.measured_wrs

    def test_hashtable_run_deterministic(self):
        kwargs = dict(threads=2, coroutines=2, item_count=2_000,
                      warmup_ns=0.3e6, measure_ns=0.6e6, seed=5)
        a = run_hashtable("smart-ht", WRITE_HEAVY, **kwargs)
        b = run_hashtable("smart-ht", WRITE_HEAVY, **kwargs)
        assert a.ops == b.ops
        assert a.throughput_mops == b.throughput_mops
        assert a.retry_distribution == b.retry_distribution

    def test_different_seed_changes_run(self):
        a = run_hashtable("smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
                          item_count=2_000, warmup_ns=0.3e6, measure_ns=0.6e6,
                          seed=1)
        b = run_hashtable("smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
                          item_count=2_000, warmup_ns=0.3e6, measure_ns=0.6e6,
                          seed=2)
        assert a.ops != b.ops or a.p50_latency_ns != b.p50_latency_ns


class TestFeatureMatrix:
    """Every single-feature configuration must run end to end."""

    @pytest.mark.parametrize("flag", [
        "thread_aware_alloc",
        "work_req_throttling",
        "backoff",
        "dynamic_backoff_limit",
        "coroutine_throttling",
    ])
    def test_single_feature_on(self, flag):
        features = baseline().with_overrides(**{flag: True})
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, features=features,
            warmup_ns=0.3e6, measure_ns=0.6e6,
        )
        assert result.ops > 0

    @pytest.mark.parametrize("flag", [
        "thread_aware_alloc",
        "work_req_throttling",
        "backoff",
        "coroutine_throttling",
    ])
    def test_single_feature_off(self, flag):
        features = full().with_overrides(**{flag: False})
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, features=features,
            warmup_ns=0.3e6, measure_ns=0.6e6,
        )
        assert result.ops > 0


class TestExperimentPlumbing:
    def test_experiment_result_format_and_series(self):
        result = ExperimentResult(
            name="demo", headers=["x", "y"], rows=[[1, 2.0], [3, 4.0]],
            paper_claim="y grows", observations=["checked"],
        )
        text = result.format()
        assert "demo" in text and "paper: y grows" in text and "note:" in text
        assert result.series("y") == [2.0, 4.0]

    def test_fig3_tiny_grid_runs(self):
        result = fig3_qp_policies(threads=(2, 4), measure_ns=0.3e6)
        assert len(result.rows) == 2
        assert result.series("threads") == [2, 4]
        assert all(isinstance(v, float) for v in result.series("per-thread-db"))


class TestCli:
    def test_cli_runs_and_dumps(self, tmp_path, capsys):
        dump = tmp_path / "out.csv"
        code = cli_main([
            "4", "4", "--policy", "per-thread-db",
            "--measure-us", "300", "--dump-file-path", str(dump),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rdma-read: #threads=4, #depth=4" in printed
        assert dump.read_text().startswith("rdma-read,4,4,8,")

    def test_cli_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            cli_main(["4", "4", "--policy", "nope"])

    @pytest.mark.parametrize("argv,keys", [
        (["traffic", "--app", "dtx", "--benchmark", "tatp", "--rate", "0.3",
          "--threads", "2", "--workers", "4",
          "--item-count", "2000", "--warmup-us", "200", "--measure-us", "300"],
         {"app", "system", "threads", "measure_ns", "offered", "completed",
          "p99_latency_ns", "queue_p99_ns"}),
    ], ids=["traffic"])
    def test_cli_subcommand_writes_json(self, argv, keys, tmp_path, capsys):
        import json

        out = tmp_path / "out.json"
        assert cli_main(argv + ["--json", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert keys <= set(payload)

    # Every row names its id, so deleting a row renames no other case: the
    # first rows keep the positional ids they were collected under, later
    # rows are named by their argv.
    @pytest.mark.parametrize("argv", [
        # one .json file cannot hold fifteen figures (it kept the last)
        pytest.param(["--figure", "all", "--json", "out.json"], id="argv0"),
        # an empty batch never yields: these hung instead of failing
        pytest.param(["8", "0"], id="argv1"),
        # a window or a count that can only give nonsense numbers
        pytest.param(["8", "4", "--measure-us", "-5"], id="argv2"),
        pytest.param(["8", "4", "--memory-nodes", "0"], id="argv3"),
        pytest.param(["traffic", "--measure-us", "0"], id="argv4"),
        # counts that ended in a ValueError traceback (exit 1)
        pytest.param(["8", "4", "--block-size", "0"], id="argv5"),
        pytest.param(["traffic", "--rate", "0"], id="argv6"),
        pytest.param(["traffic", "--item-count", "0"], id="argv7"),
        # ... or ran with one worker all the same (exit 0)
        pytest.param(["traffic", "--workers", "0"], id="argv8"),
        # a system of another app ran under that app's label (exit 0)
        pytest.param(["traffic", "--app", "btree", "--system", "ford"], id="argv9"),
        # a fault clause naming a node the deployment lacks died mid-run
        # with an IndexError, an unknown kind with a ValueError (exit 1)
        pytest.param(["4", "2", "--faults", "crash=5@0.5ms+0.3ms"], id="argv10"),
        pytest.param(["4", "2", "--faults", "foo=1@0+1ms"], id="argv11"),
        # the on-demand-paging clause is gone with the model it drove
        pytest.param(["8", "4", "--faults", "invalidate=1@1ms+1ms"], id="argv12"),
        # out-of-range values each command refuses by name
        pytest.param(["0", "4"], id="argv13"),
        # values the workload and arrival models refuse: these ended in a
        # ValueError traceback (exit 1)
        pytest.param(["traffic", "--theta", "-1"], id="argv14"),
        pytest.param(["traffic", "--sweep", "0.5,0"], id="argv15"),
        # a YCSB mix for the DTX app ran TATP / SmallBank regardless (exit 0)
        pytest.param(["traffic", "--app", "dtx", "--workload", "read-only"], id="argv16"),
        # ... an IndexError from the B+Tree deployment
        pytest.param(["traffic", "--app", "btree", "--servers", "0"], id="argv17"),
        # ... a ValueError from the process pool
        pytest.param(["claims", "--jobs", "-1"], id="argv18"),
        pytest.param(["--figure", "fig3", "--jobs", "-1"], id="argv19"),
        pytest.param(["traffic", "--sweep", "0.5", "--jobs", "-1"], id="argv20"),
        # one-point flags that --sweep silently dropped (exit 0, the
        # same table with and without them)
        _joined(["traffic", "--sweep", "0.5", "--workload", "read-only"]),
        _joined(["traffic", "--sweep", "0.5", "--theta", "0.5"]),
        _joined(["traffic", "--sweep", "0.5", "--system", "race"]),
        _joined(["traffic", "--sweep", "0.5", "--rate", "2"]),
        _joined(["traffic", "--sweep", "0.5", "--seed", "3"]),
        _joined(["traffic", "--sweep", "0.5", "--benchmark", "tatp"]),
    ])
    def test_cli_subcommand_rejects_bad_values(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "must be" in capsys.readouterr().err

    def test_cli_sanitize_exits_1_on_a_leak(self, capsys):
        """90 % loss exhausts the retries of every QP, which stay in ERROR
        to the end: no finding, but leaks, and a leak fails the run."""
        assert cli_main(["4", "2", "--measure-us", "400", "--faults",
                         "loss=0.9@0.1ms+0.3ms", "--fault-seed", "3",
                         "--sanitize"]) == 1
        printed = capsys.readouterr().out
        assert "findings=0, leaks=4" in printed
        assert printed.count("leak qp-error: node=0 remote=1 cause=retry-exceeded") == 4

    @pytest.mark.parametrize("fault_seed", ["1", "2"])
    def test_cli_seeded_faults_under_sanitize_exit_0(self, fault_seed, capsys):
        """The seeded-fault runs CI gates: each blade crash is shorter than
        crash detection, and every QP it errs is reconnected, so the run
        ends with no finding and no leak."""
        assert cli_main(["8", "4", "--measure-us", "300", "--faults", "seeded",
                         "--fault-seed", fault_seed, "--sanitize"]) == 0
        assert "findings=0, leaks=0" in capsys.readouterr().out
