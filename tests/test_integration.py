"""Cross-module integration tests: determinism, feature matrix, and the
experiment/CLI plumbing."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.experiments import ExperimentResult, fig3_qp_policies
from repro.bench.microbench import run_microbench
from repro.bench.runner import run_hashtable
from repro.core.features import SmartFeatures, baseline, full
from repro.workloads.ycsb import WRITE_HEAVY


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
          "--threads", "2", "--workers", "4", "--tenants", "2",
          "--item-count", "2000", "--warmup-us", "200", "--measure-us", "300"],
         {"app", "system", "threads", "measure_ns", "tenants"}),
    ], ids=["traffic"])
    def test_cli_subcommand_writes_json(self, argv, keys, tmp_path, capsys):
        import json

        out = tmp_path / "out.json"
        assert cli_main(argv + ["--json", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert keys <= set(payload)

    @pytest.mark.parametrize("argv", [
        ["traffic", "--tenants", "0"],
        # one .json file cannot hold fifteen figures (it kept the last)
        ["--figure", "all", "--json", "out.json"],
        # an empty batch never yields: these hung instead of failing
        ["8", "0"],
        # a window or a count that can only give nonsense numbers
        ["8", "4", "--measure-us", "-5"],
        ["8", "4", "--memory-nodes", "0"],
        ["traffic", "--measure-us", "0"],
        # counts that ended in a ValueError traceback (exit 1)
        ["8", "4", "--block-size", "0"],
        ["traffic", "--rate", "0"],
        ["traffic", "--item-count", "0"],
        # ... or ran with one worker per tenant all the same (exit 0)
        ["traffic", "--workers", "0"],
        ["traffic", "--workers", "1", "--tenants", "2"],
        # a system of another app ran under that app's label (exit 0)
        ["traffic", "--app", "btree", "--system", "ford"],
        # a fault clause naming a node the deployment lacks died mid-run
        # with an IndexError, an unknown kind with a ValueError (exit 1)
        ["4", "2", "--faults", "crash=5@0.5ms+0.3ms"],
        ["4", "2", "--faults", "foo=1@0+1ms"],
        # the on-demand-paging clause is gone with the model it drove
        ["8", "4", "--faults", "invalidate=1@1ms+1ms"],
        # out-of-range values each command refuses by name
        ["0", "4"],
        # values the arrival, workload and admission models refuse: these
        # ended in a ValueError traceback (exit 1)
        ["traffic", "--theta", "-1"],
        ["traffic", "--slo-p99-us", "0"],
        ["traffic", "--arrivals", "onoff", "--peak", "0"],
        ["traffic", "--arrivals", "diurnal", "--period-us", "0"],
        ["traffic", "--sweep", "0.5,0"],
        ["traffic", "--max-queue", "-1"],
        # ... an IndexError from the B+Tree deployment
        ["traffic", "--app", "btree", "--servers", "0"],
        # ... a ValueError from the process pool
        ["claims", "--jobs", "-1"],
        ["--figure", "fig3", "--jobs", "-1"],
        ["traffic", "--sweep", "0.5", "--jobs", "-1"],
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
