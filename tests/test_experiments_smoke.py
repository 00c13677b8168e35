"""Smoke tests: every figure/table entry point runs end to end on a tiny
grid and produces well-formed rows.  (The paper's shape claims live in
``repro/bench/claims.py`` and run on the quick grids through
``benchmarks/test_figures.py``; these only verify wiring, so they use
minimal parameters.)

Each case also pins its output byte for byte: ``run_pinned`` compares the
sha256 of the result's JSON and of its formatted table with the pair in
``EXPERIMENT_DIGESTS``, recorded at the commit *before* the sweep-layer
rewrite (PR 13) with

    PYTHONPATH=<parent>/src python tests/test_experiments_smoke.py

which prints the table (``fig3_write`` at the parent of the PR that gave
it a key, by calling ``fig3_qp_policies(op="write", ...)`` there;
``fig7`` / ``fig12`` one commit after ``scale_out_threads`` became an
argument and passed with the old pairs).
Re-record only when a model change is intended,
and say so in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from repro.bench import experiments as exp

#: workers for the pinned grids: the machine's CPUs, at most two (a tiny
#: grid has a handful of points), so a 1-CPU runner stays serial.  A
#: point's result depends only on its spec, so the digests are the same
#: at any worker count; fig3 pins that by running at 1 and 2.
JOBS = max(1, min(2, os.cpu_count() or 1))

#: experiment -> the tiny grid its smoke case runs (fig7 / fig12 scale out
#: at their scale-up thread count: a closed-loop point costs what it
#: simulates, threads x blades until saturation, so 4 is as dear as 24)
TINY_GRIDS = {
    "fig3": dict(threads=(2, 4), measure_ns=0.3e6),
    "fig3_write": dict(threads=(2, 4), measure_ns=0.3e6),
    "fig4": dict(threads=(4,), depths=(2, 4)),
    "fig5": dict(threads=(2,), thetas=(0.0,)),
    "fig7": dict(threads=(2,), compute_blades=(2,), scale_out_threads=2,
                 item_count=5_000),
    "fig8": dict(threads=(2,), item_count=5_000),
    "fig9": dict(rates_mops=(1.0,), item_count=5_000, threads=4),
    "fig10": dict(threads=(2,), item_count=2_000),
    "fig11": dict(rates_mops=(0.2,), item_count=2_000, threads=4),
    "fig12": dict(threads=(2,), servers=(2,), scale_out_threads=2,
                  item_count=5_000),
    "fig13": dict(threads=(4,), batches=(4,)),
    "table1": dict(intervals_ns=(2e6,), total_ns=8e6),
    "fig14": dict(threads=(2,), item_count=5_000),
    "latency_throughput": dict(rates_mops=(0.4,), threads=2, workers=4,
                               item_count=2_000, warmup_ns=0.2e6,
                               measure_ns=0.4e6),
    "chaos": dict(measure_ns=1.0e6),
}

#: experiment -> (sha256 of the sorted-key JSON, sha256 of format())
EXPERIMENT_DIGESTS = {
    "fig3": ("e016fbc4af6b0ec7dfbc8c2180831254b3225cb7bb012e05c63d111631b09445",
             "c1b0148fe4d0f40a43d77ae964e53b1d566cd8dbc9122a3823f7d951ed3026ce"),
    "fig3_write": ("9e636e7b4c72ab1ddc4df4ae738da2bdb55f7233623fc83d36c197ee8c632aa8",
                   "08feb50a79f7644d9d8ff85a839bcab4f22d42a0c9fde4502533f2918ca73e01"),
    "fig4": ("2e868666fdd89a5c70dafc483f7faffe254c2a0b69a7b5273ada3902a1ce0847",
             "728fdc585d3a18007ffa177725a05a97d42be35bbadc728b50de966c16ecf1bc"),
    "fig5": ("7fedbe54d9b92bb34edfcffe16011b3601388f7d620e5988e786e8bd573a481a",
             "37ecc052729ec6ba7a4811483a19ff9c880ae560403fffba79dc474761539e7e"),
    "fig7": ("325d1e8efef033f30468a4b5868d23fb134a64765d7f0f712bbd5294eb265a4a",
             "0eefa6a174e7d08904a3892596f99cdddc6c82701d38c206097af0d087261a6f"),
    "fig8": ("76075c61b5bc6a4c71ecabd253ce611430da30faf2e0d93e37e75d424301d881",
             "8c774e1bcdf6f9051d0e28afc20165402a869a75e499f99e40a07cbd9c779054"),
    "fig9": ("4dd19202deea4e999e701daaa8be232961e427e67e01753b591e0ac15b114871",
             "c80e08e41b79e07ebce3b73ba91df41468478aa41c84fc8664d0d893a7b6bfbc"),
    "fig10": ("39a520940b56304346bef569e185e7cd28813810b2f36623edc31c5aec257d54",
              "61ed587eea59e2d72abd398625ef245a7af48b0527d8b75459d63be0054cc889"),
    "fig11": ("0ccff342d2df7de7357e738451cbd6cb7dfd438b57333e6ea11340742cfb74f8",
              "2ad3458ff47e3dbefecda9f7c63ea0182a14d5e04d350dcee8152e7335a9c285"),
    "fig12": ("d00707f188d921fe2bc94081b6f0ac9524420c6b870ec5593d3d8da626f4290b",
              "e730b2d84da65ae572300440e54a09f4915830940ff459b13395ad248da850e3"),
    "fig13": ("601434e2f7e9e029931c3b05181d5d780e7537a7e00a4fcd67a65f73fc4951df",
              "9fa25cc5e8b3aabe0b66d77ac2cdb9432ee07c93e3a8a01b95f0d058249bc90e"),
    "table1": ("6e8946613b1fbf04e057f169a782fef1726b724c14c1836c80349a31e7b62e3d",
               "f88bb87d2ba518fdc14907ea2d56a33602d8974c7f88a7640ee7de6d03282ab9"),
    "fig14": ("c14d29831bf3c21e7e99431298217e1b64a6ad99dfe09c3d922e17130f303805",
              "6972186194ae7adfa5fbfb00d9daeda5a92a0919d6e6eea7caf26b5dbf39304f"),
    "latency_throughput": ("94dd9bb66041e51607097e667a75241fd88b3910ad85dd0ada347a4119e895ab",
                           "1030b23a5cf69bc382dc094ada2009139dac07e9d86285e274b48b3c5c78bea2"),
    "chaos": ("3bba9506e3aee48efed8e8a2f7c3af0ea397fa59d4b69fac5c4eb607f64e9330",
              "009614bbe2d7fd769c1766614b7466335ae4dd7d094b844898fdca9fa210efb2"),
}


def digests(result):
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (blob, result.format()))


def run_pinned(name, jobs=(JOBS,)):
    """Run ``name`` on its tiny grid once per ``jobs`` value; every run
    must reproduce the pinned digests.  Returns the last result."""
    for n in jobs:
        result = exp.ALL_EXPERIMENTS[name](jobs=n, **TINY_GRIDS[name])
        assert digests(result) == EXPERIMENT_DIGESTS[name], (name, n)
    return result


class TestMicroExperiments:
    def test_fig3(self):
        result = run_pinned("fig3", jobs=(1, 2))
        assert result.headers[0] == "threads"
        assert len(result.rows) == 2
        assert "paper:" in result.format()

    def test_fig3_write(self):
        result = run_pinned("fig3_write")
        assert result.name.startswith("Figure 3 (write)")
        assert len(result.rows) == 2

    def test_fig4(self):
        result = run_pinned("fig4")
        assert len(result.rows) == 2
        assert result.rows[0][2] == 8  # total OWRs = threads * depth

    def test_fig13(self):
        result = run_pinned("fig13")
        assert len(result.rows) == 2  # one threads row + one batch row
        assert result.rows[0][0] == "threads"
        assert result.rows[1][0] == "batch"

    def test_table1(self):
        result = run_pinned("table1")
        assert len(result.rows) == 1
        interval_ms, ratio, off, on = result.rows[0]
        assert off > 0 and on > 0


class TestHashTableExperiments:
    def test_fig5(self):
        result = run_pinned("fig5")
        sweeps = {row[0] for row in result.rows}
        assert sweeps == {"threads", "theta"}

    def test_fig7(self):
        result = run_pinned("fig7")
        modes = {row[0] for row in result.rows}
        assert modes == {"scale-up", "scale-out"}
        # 2 quick-mode workloads x (1 thread point + 1 blade point) x 2 systems
        assert len(result.rows) == 8

    def test_fig8(self):
        result = run_pinned("fig8")
        configs = {row[2] for row in result.rows}
        assert configs == {"baseline", "+ThdResAlloc", "+WorkReqThrot",
                           "+ConflictAvoid"}

    def test_fig9(self):
        result = run_pinned("fig9")
        assert [row[:2] for row in result.rows] == [
            ["race", "full"], ["race", 1.0], ["smart-ht", "full"], ["smart-ht", 1.0]]

    def test_fig14(self):
        result = run_pinned("fig14")
        assert len(result.rows) == 4
        assert result.observations  # retry-free percentages reported


class TestDtxExperiments:
    def test_fig10(self):
        result = run_pinned("fig10")
        assert {row[0] for row in result.rows} == {"smallbank", "tatp"}
        assert all(row[3] > 0 for row in result.rows)

    def test_fig11(self):
        result = run_pinned("fig11")
        assert all(row[5] > 0 for row in result.rows)  # p50 measured


class TestZeroOpPoints:
    """At 1e-6 MOPS (one arrival per simulated second on average) no op
    arrives in the 2.5 ms run, so the open-loop point completes nothing:
    it has no latency to print, and its row names it instead of
    rendering a 0.00 us cell."""

    def test_load_row_refuses_a_point_with_no_operations(self):
        with pytest.raises(RuntimeError,
                           match=r"\['race', 1e-06\] measured no operations"):
            exp.fig9_ht_latency(rates_mops=(1e-6,), item_count=2_000, threads=2,
                                jobs=1)

    def test_fig11_row_refuses_a_point_with_no_operations(self):
        with pytest.raises(
                RuntimeError,
                match=r"\['smallbank', 'ford', 1e-06\] measured no operations"):
            exp.fig11_dtx_latency(rates_mops=(1e-6,), item_count=2_000,
                                  threads=2, jobs=1)


class TestBtreeExperiments:
    def test_fig12(self):
        result = run_pinned("fig12")
        systems = {row[2] for row in result.rows}
        assert systems == {"sherman", "sherman-sl", "smart-bt"}


class TestCompanionExperiments:
    """Two of the entries that are not paper figures."""

    def test_latency_throughput(self):
        result = run_pinned("latency_throughput")
        assert result.headers[:2] == ["offered", "race_mops"]
        assert len(result.rows) == 1
        assert len(result.observations) == 2  # one knee verdict per system

    def test_chaos(self):
        result = run_pinned("chaos")
        assert [row[0] for row in result.rows] == [
            "none", "loss", "crash", "crash+loss"]
        assert result.rows[0][2:] == [0, 0, 0.0, 0, 0, 0, 0, 0]
        assert result.rows[2][2] == 1  # the crash scenario crashed a blade


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(exp.ALL_EXPERIMENTS) == {
            "fig3", "fig3_write", "fig4", "fig5", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "table1", "fig14",
            "latency_throughput", "chaos",
        }

    def test_grid_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert exp.full_grids()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not exp.full_grids()
        assert exp._grid((1,), (1, 2, 3)) == (1,)


if __name__ == "__main__":  # record mode: print the table for this src tree
    print("EXPERIMENT_DIGESTS = {")
    for name, grid in TINY_GRIDS.items():
        json_digest, text_digest = digests(exp.ALL_EXPERIMENTS[name](jobs=1, **grid))
        print(f'    "{name}": ("{json_digest}",\n'
              f'{" " * (len(name) + 9)}"{text_digest}"),')
    print("}")
