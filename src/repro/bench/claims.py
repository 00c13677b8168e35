"""The paper's claims as code: one ``Claim`` list per ``ALL_EXPERIMENTS`` key.

A claim is the paper's sentence, the paper's number where it gives one, and
a predicate over an :class:`ExperimentResult`'s headers and rows — nothing
else, so it reads the same off a fresh run and off a result rebuilt from its
JSON, and (anchored on ``max(threads)``) on quick and ``REPRO_FULL`` grids.
A claim with a ``known_gap`` is one the model is known to miss: it must *not*
hold, so closing a gap is as loud as opening one.
``benchmarks/test_figures.py`` runs every key's grid against its claims;
``repro-bench claims > docs/SCORECARD.md`` writes the scorecard it compares with.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.experiments import ALL_EXPERIMENTS, FULL, ExperimentResult
from repro.bench.report import find_knee, format_table, ratio

#: what a predicate returns: (held, measured value or None, measured string)
Measured = Tuple[bool, Optional[float], str]


@dataclass(frozen=True)
class Claim:
    text: str
    #: the paper's number for the value ``measure`` returns, if it gives one
    paper: Optional[float]
    measure: Callable[[ExperimentResult], Measured]
    #: why the model misses this claim (non-empty: it must not hold)
    known_gap: str = ""


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    held: bool
    value: Optional[float]
    shown: str

    @property
    def as_expected(self) -> bool:
        return self.held != bool(self.claim.known_gap)

    @property
    def log_error(self) -> Optional[float]:
        """``|ln(measured / paper)|`` of a numeric claim, else ``None``."""
        if self.claim.paper is None or self.value is None or self.value <= 0:
            return None
        return abs(math.log(self.value / self.claim.paper))


def evaluate(key: str, result: ExperimentResult) -> List[Verdict]:
    return [Verdict(claim, *claim.measure(result)) for claim in CLAIMS[key]]


# -- reading a result's table ----------------------------------------------------------


def _rows(r: ExperimentResult, **where) -> List[dict]:
    """The rows (as header -> cell) whose cells equal ``where``."""
    table = (dict(zip(r.headers, row)) for row in r.rows)
    return [row for row in table if all(row[k] == v for k, v in where.items())]


def _cell(r: ExperimentResult, column: str, **where):
    (row,) = _rows(r, **where)
    return row[column]


def _top(r: ExperimentResult, **where) -> int:
    """The highest thread count among the rows matching ``where``."""
    return max(row["threads"] for row in _rows(r, **where))


def _held(a, b=1.0, suffix="", above=None, below=None, at_least=None) -> Tuple[bool, str]:
    """Whether ``a > above * b``, ``a < below * b`` and ``a >= at_least * b`` (the
    bounds given), and those bounds as the scorecard shows them."""
    checks = [(sign, test, bound) for sign, test, bound in (
        (">", operator.gt, above), ("<", operator.lt, below), (">=", operator.ge, at_least))
        if bound is not None]
    return (all(test(a, b * bound) for _, test, bound in checks),
            "needs " + ", ".join(f"{sign} {bound:g}{suffix}" for sign, _, bound in checks))


def _is(value: float, unit: str, **bounds) -> Measured:
    held, needs = _held(value, **bounds)
    return held, value, f"{value:.2f} {unit} ({needs})"


def _vs(a: float, b: float, **bounds) -> Measured:
    """``a`` against ``b``; the measured value is the ratio ``a / b``."""
    held, needs = _held(a, b, "x", **bounds)
    return held, ratio(a, b), f"{a:.2f} vs {b:.2f} ({ratio(a, b):.2f}x, {needs})"


def _every(cases: Iterable[Tuple[object, float, float]], **bounds) -> Measured:
    """:func:`_vs` over ``(label, a, b)`` cases: held when every case is; the
    measured value is the ratio of the case closest to failing."""
    cases = list(cases)
    verdicts = [_held(a, b, "x", **bounds) for _, a, b in cases]
    closest = (max if "below" in bounds else min)(ratio(a, b) for _, a, b in cases)
    return (all(held for held, _ in verdicts), closest,
            "; ".join(f"{label}: {a:.2f} vs {b:.2f} ({ratio(a, b):.2f}x)"
                      for label, a, b in cases) + f" (each {verdicts[0][1]})")


# -- per-figure accessors and the predicates too long for a lambda -----------------------


def _fig3(r, policy):
    return _cell(r, policy, threads=_top(r))


def fig3_low_threads(r):
    (row,) = _rows(r, threads=max(t for t in r.series("threads") if t < 32))
    return _vs(min(row["per-thread-qp"], row["per-thread-db"]),
               max(row["multiplexed-qp"], row["shared-qp"]), above=2.4)


def fig3_shared_flat(r):
    tail = [row["shared-qp"] for row in _rows(r) if row["threads"] >= 32]
    lowest = all(row["shared-qp"] == min(row[p] for p in r.headers[1:]) for row in _rows(r))
    return (lowest and max(tail) < min(tail) * 1.1, None,
            f"{min(tail):.2f}-{max(tail):.2f} MOPS from 32 threads on")


def _fig4(r, column, threads, depth):
    return _cell(r, column, threads=threads, **{"owrs/thread": depth})


def fig4_peak_owrs(r):
    peak = max(_rows(r), key=lambda row: (row["MOPS"], -row["total_owrs"]))
    return (peak["total_owrs"] == 768, float(peak["total_owrs"]),
            f"{peak['MOPS']:.2f} MOPS at {peak['threads']}x{peak['owrs/thread']}")


def _fig5(r, sweep, column="p99_us"):
    """``column`` along the ``threads`` (``theta``) sweep, in ascending order."""
    return [row[column] for row in sorted(_rows(r, sweep=sweep), key=lambda row: row[sweep])]


def _scale_up(r, workload, system):
    """Figs 7/12: ``system``'s MOPS at the top scale-up thread count."""
    return _cell(r, "MOPS", mode="scale-up", workload=workload, system=system,
                 threads=_top(r, mode="scale-up"))


def fig7_scale_out_read_only(r):
    race = _rows(r, mode="scale-out", workload="read-only", system="race")
    smart = _rows(r, mode="scale-out", workload="read-only", system="smart-ht")
    return _every(((f"{a['blades']} blades", b["MOPS"], a["MOPS"])
                   for a, b in zip(race, smart)), above=1.5)


def _fig8(r, workload, config):
    return _cell(r, "MOPS", workload=workload, threads=_top(r), config=config)


def _full(r, column, **where):
    """``column`` of the closed-loop, full-load point matching ``where`` (Figs 9/11)."""
    return _cell(r, column, load=FULL, **where)


def matched_p50(r, achieved, smart, baseline, **where) -> Measured:
    """Figs 9/11: ``smart``'s p50 against ``baseline``'s at the matched rate of the
    rows matching ``where``: the highest offered rate at which both completed
    (column ``achieved``) >= 95% of the arrivals their window saw (``offered``)."""
    rates = {}
    for row in _rows(r, **where):
        rates.setdefault(row["load"], {})[row["system"]] = row
    rates.pop(FULL)
    kept_up = [rate for rate, rows in rates.items()
               if all(row[achieved] >= 0.95 * row["offered"] for row in rows.values())]
    if not kept_up:
        return False, None, "no offered rate that both systems kept up with"
    rows = rates[max(kept_up)]
    held, value, shown = _vs(rows[smart]["p50_us"], rows[baseline]["p50_us"], below=1.0)
    return held, value, f"at {max(kept_up):g} {achieved} offered: {shown}"


_DTX = ("smallbank", "tatp")


def _fig10(r, benchmark, system):
    rows = sorted(_rows(r, benchmark=benchmark, system=system), key=lambda row: row["threads"])
    return [row["Mtxn/s"] for row in rows]


def _fig13(r, policy, sweep="threads"):
    """``policy`` at the top of the ``threads`` (``batch``) sweep."""
    return max(_rows(r, sweep=sweep), key=lambda row: row[sweep])[policy]


_T1_OFF, _T1_ON = "w/o_throttle", "w/_throttle"


def _fig14(r, config, column):
    return _cell(r, column, threads=_top(r), config=config)


def _knees(r):
    offered = r.series("offered")
    return find_knee(offered, r.series("race_mops")), find_knee(offered, r.series("smart-ht_mops"))


def lt_knee_order(r):
    race, smart = _knees(r)
    return (smart is None or (race is not None and smart >= race), None,
            f"knee at: race {race}, smart-ht {smart} MOPS offered")


def lt_queueing_past_knee(r):
    race, _ = _knees(r)
    if race is None:
        return True, None, "race has no knee inside the sweep"
    q99 = r.series("race_qd99_us")
    return _vs(q99[r.series("offered").index(race)], q99[0], above=1.0)


# -- the table -----------------------------------------------------------------------------

CLAIMS: Dict[str, List[Claim]] = {
    "fig3": [
        Claim("per-thread doorbell reaches the 110 MOPS hardware limit", 110.0,
              lambda r: _is(max(r.series("per-thread-db")), "MOPS peak", at_least=100.0)),
        Claim("per-thread QP throughput is \"cut in half after the number of threads is "
              "increased to 96\" (top thread count vs its peak)", 0.5,
              lambda r: _vs(_fig3(r, "per-thread-qp"), max(r.series("per-thread-qp")), below=0.6)),
        Claim("per-thread doorbell beats per-thread QP at the top thread count", None,
              lambda r: _vs(_fig3(r, "per-thread-db"), _fig3(r, "per-thread-qp"), above=1.5)),
        Claim("shared QP is up to 130.1x worse than per-thread doorbell", 130.1,
              lambda r: _vs(_fig3(r, "per-thread-db"), _fig3(r, "shared-qp"), above=20)),
        Claim("per-thread {QP, doorbell} beat multiplexed/shared QP by 2.4x-130.1x below 32 "
              "threads (at the largest thread count below 32)", None, fig3_low_threads),
        Claim("shared QP is flat and lowest", None, fig3_shared_flat),
    ],
    "fig3_write": [
        Claim("WRITE behaves like READ: per-thread doorbell beats per-thread QP at the top "
              "thread count", None,
              lambda r: _vs(_fig3(r, "per-thread-db"), _fig3(r, "per-thread-qp"), above=1.0)),
    ],
    "fig4": [
        Claim("throughput peaks at 96 threads x 8 OWRs = 768 outstanding WRs", 768.0,
              fig4_peak_owrs),
        Claim("96x32 runs at 49.5% of the 8-OWR throughput", 0.495,
              lambda r: _vs(_fig4(r, "MOPS", 96, 32), _fig4(r, "MOPS", 96, 8), below=0.65)),
        Claim("36x32 = 1152 OWRs: \"50% more concurrency, still 5% less throughput\" than "
              "96x8", 0.95,
              lambda r: _vs(_fig4(r, "MOPS", 36, 32), _fig4(r, "MOPS", 96, 8), below=0.97),
              known_gap="the WQE-cache miss curve (1 - 896/OWRs)^2.5 turns on slightly later "
                        "than the hardware's: 1152 outstanding WRs cost no throughput yet"),
        Claim("DRAM traffic per WR grows 93 -> 180 bytes (96 threads, 8 -> 32 OWRs)", 180 / 93,
              lambda r: _vs(_fig4(r, "dram_B/wr", 96, 32), _fig4(r, "dram_B/wr", 96, 8),
                            above=1.5)),
        Claim("DRAM traffic per WR is 93 bytes while the WQE cache holds (96x8)", 93.0,
              lambda r: _is(_fig4(r, "dram_B/wr", 96, 8), "B/WR", above=88.0, below=98.0)),
    ],
    "fig5": [
        Claim("RACE updates peak at only 8 threads", 8.0,
              lambda r: _is(float(max(_rows(r, sweep="threads"),
                                      key=lambda row: row["MOPS"])["threads"]),
                            "threads at the throughput peak", below=33)),
        Claim("p99 latency grows up to 17.1x with more threads", 17.1,
              lambda r: _vs(_fig5(r, "threads")[-1], _fig5(r, "threads")[0], above=3)),
        Claim("more skew, more tail latency (p99 at the highest theta vs theta = 0)", None,
              lambda r: _vs(_fig5(r, "theta")[-1], _fig5(r, "theta")[0], above=1.3)),
        Claim("theta 0 -> 0.99 at 16 threads grows p50 1.9x and p99 78.4x (p99: an order of "
              "magnitude or more)", 78.4,
              lambda r: _vs(_fig5(r, "theta")[-1], _fig5(r, "theta")[0], above=10),
              known_gap="the scaled dataset (100 K items) already makes theta = 0 runs "
                        "contend on CAS-slot collisions more than a 100 M-item table would, "
                        "so the tail is long before any skew is added"),
    ],
    "fig7": [
        Claim("scale-up: SMART-HT beats RACE at the top thread count on every mix", None,
              lambda r: _every(((w, _scale_up(r, w, "smart-ht"), _scale_up(r, w, "race"))
                                for w in sorted(set(r.series("workload")))), above=1.0)),
        Claim("scale-up, read-only: SMART-HT 23.7 vs RACE 11.4 MOPS", 23.7 / 11.4,
              lambda r: _vs(_scale_up(r, "read-only", "smart-ht"),
                            _scale_up(r, "read-only", "race"), above=1.5)),
        Claim("scale-up, write-heavy: RACE peaks at 8 threads and declines (top thread "
              "count vs its peak)", None,
              lambda r: _vs(_scale_up(r, "write-heavy", "race"),
                            max(row["MOPS"] for row in _rows(
                                r, mode="scale-up", workload="write-heavy", system="race")),
                            below=1.0)),
        Claim("scale-out, read-only: SMART-HT holds 2.0-3.8x over RACE at every blade count "
              "(the 132x write-heavy factor needs the 576-thread REPRO_FULL grid)", 2.0,
              fig7_scale_out_read_only),
    ],
    "fig8": [
        Claim("read-only at high threads: ThdResAlloc is the dominant technique (vs the "
              "baseline)", None,
              lambda r: _vs(_fig8(r, "read-only", "+ThdResAlloc"),
                            _fig8(r, "read-only", "baseline"), above=1.5)),
        Claim("write-heavy at high threads: the ladder up to ConflictAvoid beats the "
              "baseline", None,
              lambda r: _vs(_fig8(r, "write-heavy", "+ConflictAvoid"),
                            _fig8(r, "write-heavy", "baseline"), above=1.0)),
        Claim("write-heavy at high threads: ConflictAvoid on top of WorkReqThrot does not "
              "lose", None,
              lambda r: _vs(_fig8(r, "write-heavy", "+ConflictAvoid"),
                            _fig8(r, "write-heavy", "+WorkReqThrot"), at_least=1.0)),
    ],
    "fig9": [
        Claim("SMART-HT reaches the higher maximum throughput", None,
              lambda r: _vs(_full(r, "MOPS", system="smart-ht"),
                            _full(r, "MOPS", system="race"), above=1.0)),
        Claim("tail latency cut by up to 80.6% (SMART-HT's p99 vs RACE's, full load)",
              1 - 0.806,
              lambda r: _vs(_full(r, "p99_us", system="smart-ht"),
                            _full(r, "p99_us", system="race"), below=0.5)),
        Claim("median latency cut by 69.6% at matched throughput (SMART-HT's p50 vs "
              "RACE's at the matched offered rate)", 1 - 0.696,
              lambda r: matched_p50(r, "MOPS", "smart-ht", "race")),
    ],
    "fig10": [
        Claim("SmallBank: SMART-DTX up to 5.2x FORD+ (top thread count)", 5.2,
              lambda r: _vs(_fig10(r, "smallbank", "smart-dtx")[-1],
                            _fig10(r, "smallbank", "ford")[-1], above=1.5)),
        Claim("TATP: SMART-DTX up to 2.6x FORD+ (top thread count)", 2.6,
              lambda r: _vs(_fig10(r, "tatp", "smart-dtx")[-1],
                            _fig10(r, "tatp", "ford")[-1], above=1.5)),
        Claim("FORD+ peaks at 24 (SmallBank) / 32 (TATP) threads then degrades (top thread "
              "count vs its peak)", None,
              lambda r: _every(((b, _fig10(r, b, "ford")[-1], max(_fig10(r, b, "ford")))
                                for b in _DTX), below=1.0)),
    ],
    "fig11": [
        Claim("full load (96 threads): SMART-DTX commits more than FORD+", None,
              lambda r: _every(((b, _full(r, "Mtxn/s", benchmark=b, system="smart-dtx"),
                                 _full(r, "Mtxn/s", benchmark=b, system="ford"))
                                for b in _DTX), above=1.0)),
        Claim("matched load, SmallBank: SMART-DTX cuts median latency by up to 45.8%",
              1 - 0.458,
              lambda r: matched_p50(r, "Mtxn/s", "smart-dtx", "ford", benchmark="smallbank")),
        Claim("matched load, TATP: SMART-DTX cuts median latency by up to 77.0%", 1 - 0.770,
              lambda r: matched_p50(r, "Mtxn/s", "smart-dtx", "ford", benchmark="tatp")),
    ],
    "fig12": [
        Claim("Sherman+ read-only plateaus at ~15 MOPS, bandwidth-bound", 15.0,
              lambda r: _is(_scale_up(r, "read-only", "sherman"), "MOPS", at_least=10.0),
              known_gap="the doorbell model also penalizes Sherman+'s single-WQE rings "
                        "through the driver's 16 shared doorbells (per-sharer bounce plus "
                        "convoy hand-off), so it saturates near 7 MOPS; with "
                        "doorbell_share_ns = doorbell_bounce_ns = 0 the same point runs at "
                        "15.2 MOPS, the PCIe bandwidth bound of its 1 KB leaf reads"),
        Claim("speculative lookup alone stops scaling at high thread counts (16.3 MOPS at "
              "94): Sherman+ w/SL stays close to Sherman+", None,
              lambda r: _vs(_scale_up(r, "read-only", "sherman-sl"),
                            _scale_up(r, "read-only", "sherman"), below=1.25)),
        Claim("SMART-BT reaches 2.0x Sherman+ on read-only", 2.0,
              lambda r: _vs(_scale_up(r, "read-only", "smart-bt"),
                            _scale_up(r, "read-only", "sherman"), above=2)),
        Claim("SMART-BT beats Sherman+ w/SL on read-only: SL does not fix the doorbell "
              "collapse", None,
              lambda r: _vs(_scale_up(r, "read-only", "smart-bt"),
                            _scale_up(r, "read-only", "sherman-sl"), above=1.5)),
        Claim("write-heavy is roughly tied (HOPL already minimizes lock messages): SMART-BT "
              "is not far below Sherman+", None,
              lambda r: _vs(_scale_up(r, "write-heavy", "smart-bt"),
                            _scale_up(r, "write-heavy", "sherman"), at_least=0.8)),
    ],
    "fig13": [
        Claim("(a) SMART beats per-thread QP at the top thread count, by up to 5.0x", 5.0,
              lambda r: _vs(_fig13(r, "smart"), _fig13(r, "per-thread-qp"), above=1.0)),
        Claim("(a) SMART beats per-thread context at the top thread count, by up to 1.9x", 1.9,
              lambda r: _vs(_fig13(r, "smart"), _fig13(r, "per-thread-context"), above=1.0)),
        Claim("(a) +WorkReqThrot stays flat at the 110 MOPS limit from 56 threads on", 110.0,
              lambda r: _is(min(row["smart"] for row in _rows(r, sweep="threads")
                                if row["threads"] >= 56),
                            "MOPS at the lowest, 56+ threads", at_least=100.0)),
        Claim("(b) with large batches +WorkReqThrot is the best configuration (vs "
              "per-thread doorbell at the biggest batch)", None,
              lambda r: _vs(_fig13(r, "smart", "batch"), _fig13(r, "per-thread-db", "batch"),
                            above=1.5)),
    ],
    "table1": [
        Claim("throttling wins at every changing interval", None,
              lambda r: _every(((f"{row['interval/epoch']:.2f} epochs", row[_T1_ON],
                                 row[_T1_OFF]) for row in _rows(r)), above=1.0)),
        Claim("changing intervals longer than the epoch run near the 110 MOPS maximum", 110.0,
              lambda r: _is(r.series(_T1_ON)[-1], "MOPS at the slowest change", above=80.0)),
        Claim("faster changes lose up to 13%", 0.13,
              lambda r: _is(1.0 - r.series(_T1_ON)[0] / max(r.series(_T1_ON)),
                            "of the best interval's throughput lost at the fastest change",
                            below=0.2)),
    ],
    "fig14": [
        Claim("no conflict avoidance: 11.5 retries/op at the top thread count (ours counts "
              "completed ops only, so stuck ops undercount)", 11.5,
              lambda r: _is(_fig14(r, "none", "avg_retries"), "retries/op", above=2.0)),
        Claim("+Backoff slashes the average retry count (vs none)", None,
              lambda r: _vs(_fig14(r, "+Backoff", "avg_retries"),
                            _fig14(r, "none", "avg_retries"), below=0.6)),
        Claim("+Backoff keeps average retries under 1.7", None,
              lambda r: _is(_fig14(r, "+Backoff", "avg_retries"), "retries/op", below=1.7)),
        Claim("all techniques: 1.1 retries/op and 93.3% of updates retry-free (the "
              "retry-free share is the note under the table)", 1.1,
              lambda r: _is(_fig14(r, "+CoroThrot", "avg_retries"), "retries/op", below=2.0)),
        Claim("the full ladder beats no conflict avoidance at the top thread count", None,
              lambda r: _vs(_fig14(r, "+CoroThrot", "MOPS"), _fig14(r, "none", "MOPS"),
                            above=1.0)),
        Claim("+DynLimit 1.6x, +CoroThrot +67% over +Backoff (ours: every avoidance rung "
              "beats none; the order among the rungs varies at this scale)", None,
              lambda r: _every(((c, _fig14(r, c, "MOPS"), _fig14(r, "none", "MOPS"))
                                for c in ("+Backoff", "+DynLimit", "+CoroThrot")), above=1.0)),
    ],
    "latency_throughput": [
        Claim("below the knee RACE tracks offered load", None,
              lambda r: _vs(r.series("race_mops")[0], r.series("offered")[0], above=0.8)),
        Claim("below the knee SMART-HT tracks offered load", None,
              lambda r: _vs(r.series("smart-ht_mops")[0], r.series("offered")[0], above=0.8)),
        Claim("SMART-HT's knee sits at an offered rate no lower than RACE's: if SMART-HT "
              "saturates inside the sweep, RACE does, and no later", None, lt_knee_order),
        Claim("at the top of the sweep SMART-HT serves about what RACE does or more", None,
              lambda r: _vs(r.series("smart-ht_mops")[-1], r.series("race_mops")[-1],
                            at_least=0.95)),
        Claim("past its knee the baseline's queueing delay exceeds its low-load queueing "
              "delay", None, lt_queueing_past_knee),
    ],
}


# -- the scorecard -------------------------------------------------------------------------


def _score(verdicts: Sequence[Verdict]) -> Tuple[str, int, int, str]:
    """(held / total, known gaps, numeric claims, their mean log error)."""
    errors = [v.log_error for v in verdicts if v.log_error is not None]
    return (f"{sum(v.held for v in verdicts)} / {len(verdicts)}",
            sum(bool(v.claim.known_gap) for v in verdicts), len(errors),
            f"{sum(errors) / len(errors):.3f}" if errors else "-")


def render_section(key: str, result: ExperimentResult, verdicts: Sequence[Verdict]) -> str:
    """One figure's section: its table as printed, one row per claim, the
    known gaps' explanations, the figure's score."""
    lines = [f"## {key} — {result.name}", "", "```",
             format_table(result.headers, result.rows),
             *(f"note:  {o}" for o in result.observations), "```", "",
             "| | claim (paper) | paper | measured |", "|---|---|---|---|"]
    for v in verdicts:
        mark = "✓" if v.held else "~" if v.claim.known_gap else "✗"
        paper = "" if v.claim.paper is None else format(v.claim.paper, ".4g")
        lines.append(f"| {mark} | {v.claim.text} | {paper} | {v.shown} |")
    lines += [""] + [f"`~` {v.claim.text}: {v.claim.known_gap}.\n"
                     for v in verdicts if v.claim.known_gap]
    held, gaps, numeric, mean = _score(verdicts)
    lines.append(f"**{held} claims held** ({gaps} known gap(s)); mean |ln(measured / paper)| "
                 f"= {mean} over {numeric} numeric claim(s)")
    return "\n".join(lines) + "\n"


def section_of(scorecard: str, key: str) -> str:
    """The section :func:`render_section` wrote for ``key`` in a scorecard."""
    start = scorecard.index(f"\n## {key} — ") + 1
    return scorecard[start:scorecard.index("\n## ", start)]


_PREAMBLE = """\
# Scorecard — the paper's claims against the simulator

Generated, never edited: `repro-bench claims --jobs 2 > docs/SCORECARD.md`
(about 4 minutes on 2 CPUs) runs every claim-bearing `ALL_EXPERIMENTS` key
on its quick grid and evaluates that key's `Claim` list in
`src/repro/bench/claims.py`.  `benchmarks/test_figures.py` re-runs each grid
and fails when a verdict is not the expected one or a section below no
longer matches byte for byte (`tests/test_claims.py`: `fig3`, `fig4`).

`✓` the claim holds; `~` a known gap, asserted *not* to hold until the model
closes it (explained under the table).  *paper* is the paper's number for
the measured quantity where it gives one; a section ends with the mean of
|ln(measured / paper)| over those — 0 is a match, 0.69 a factor of two.
"""


def scorecard(keys: Sequence[str], jobs: Optional[int],
              progress: Callable[[str], None] = lambda line: None) -> str:
    """Run ``keys``' grids (``jobs=None``: ``REPRO_JOBS``) and render the whole document."""
    verdicts: Dict[str, List[Verdict]] = {}
    sections = []
    for key in keys:
        result = ALL_EXPERIMENTS[key](jobs=jobs)
        verdicts[key] = evaluate(key, result)
        sections.append(render_section(key, result, verdicts[key]))
        progress(f"[{key}] {_score(verdicts[key])[0]} held")
    verdicts["**all**"] = [v for figure in verdicts.values() for v in figure]
    return "\n".join([
        _PREAMBLE, *sections, "## Totals", "",
        "| figure | claims held | known gaps | numeric claims | mean \\|ln(measured / paper)\\| |",
        "|---|---|---|---|---|",
        *("| {} | {} | {} | {} | {} |".format(key, *_score(vs)) for key, vs in verdicts.items()),
    ]) + "\n"
