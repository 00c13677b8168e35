"""Ablation: how many doorbell registers does scale-up need?

§4.1 argues the driver default (16 UARs) starves a many-core machine and
the MLX5_TOTAL_UUARS fix must provide roughly one doorbell per thread.
This bench sweeps the context's UAR count at a fixed 96 threads and shows
throughput recovering as sharing disappears.
"""

from repro.bench.microbench import run_microbench
from repro.bench.report import format_table
from repro.rnic.config import RnicConfig


def run_point(total_uuars, threads=96, depth=8, measure_ns=0.8e6):
    """MOPS of the bench tool with a QP per thread on one context of
    ``total_uuars`` UARs (the driver's four low-latency UARs included)."""
    config = RnicConfig(medium_latency_uars=total_uuars - 4)
    return run_microbench(policy="per-thread-qp", threads=threads, depth=depth,
                          warmup_ns=0.3e6, measure_ns=measure_ns,
                          config=config).throughput_mops


def test_uar_sweep(benchmark):
    counts = (16, 32, 64, 128)
    rows = [[n, run_point(n)] for n in counts[:-1]]
    last = benchmark.pedantic(lambda: run_point(counts[-1]), rounds=1, iterations=1)
    rows.append([counts[-1], last])
    print()
    print(format_table(["total_uuars", "MOPS"], rows,
                       title="UAR-count ablation (96 threads, depth 8)"))
    throughputs = [r[1] for r in rows]
    # More doorbells, (weakly) more throughput; 16 is far from enough.
    assert throughputs[-1] > throughputs[0] * 1.4
    assert all(b >= a * 0.9 for a, b in zip(throughputs, throughputs[1:]))
