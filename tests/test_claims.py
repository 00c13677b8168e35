"""The claim table (``repro.bench.claims``): coverage of the experiment
registry, the verdict/render logic on a synthetic result, and Figs 3/4 on
their real quick grids against the committed ``docs/SCORECARD.md`` — so a
model change that moves a published number fails tier-1, not only the CI
``figures`` job that runs every grid.
"""

import json
import pathlib

import pytest

from repro.bench import claims
from repro.bench.claims import Claim, evaluate, render_section, section_of
from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentResult

SCORECARD = pathlib.Path(__file__).parent.parent / "docs" / "SCORECARD.md"


def rebuilt(result):
    """The result as a reader of its JSON sees it."""
    return ExperimentResult(**json.loads(json.dumps(result.to_dict())))


class TestTable:
    def test_every_paper_key_has_claims_and_every_claims_key_an_experiment(self):
        paper_keys = [key for key in ALL_EXPERIMENTS if key.startswith(("fig", "table"))]
        assert len(paper_keys) == 13 and all(claims.CLAIMS.get(key) for key in paper_keys)
        assert set(claims.CLAIMS) <= set(ALL_EXPERIMENTS)
        # a companion experiment earns a claim or goes; chaos is the one
        # fault-injection harness kept without one
        assert set(ALL_EXPERIMENTS) - set(claims.CLAIMS) == {"chaos"}

    def test_known_gaps_are_the_three_explained_misses(self):
        gaps = {key: [c.known_gap for c in table if c.known_gap]
                for key, table in claims.CLAIMS.items()}
        assert {key for key, texts in gaps.items() if texts} == {"fig4", "fig5", "fig12"}
        for text in sum(gaps.values(), []):
            assert len(text.split()) >= 8, text  # a sentence, not a tag


def ab(above):
    return lambda r: claims._vs(r.series("a")[-1], r.series("b")[-1], above=above)


SYNTHETIC = [
    Claim("a is twice b", 2.0, ab(1.5)),
    Claim("a is ten times b", None, ab(10)),
    Claim("a is a hundred times b", 100.0, ab(50), known_gap="the model has no such "
          "effect and this sentence says why it does not"),
    Claim("a beats b at all", 1.0, ab(1.0), known_gap="stale: the gap has closed"),
    Claim("the table has rows", None, lambda r: (bool(r.rows), None, f"{len(r.rows)} rows")),
]


class TestVerdicts:
    @pytest.fixture
    def result(self, monkeypatch):
        monkeypatch.setitem(claims.CLAIMS, "synthetic", SYNTHETIC)
        return ExperimentResult("Synthetic", ["threads", "a", "b"],
                                [[2, 1.0, 1.0], [8, 4.0, 1.0]], "none", ["a note"])

    def test_held_failed_gap_and_non_numeric(self, result):
        verdicts = evaluate("synthetic", result)
        assert [v.held for v in verdicts] == [True, False, False, True, True]
        assert [v.as_expected for v in verdicts] == [True, False, True, False, True]
        assert [v.value for v in verdicts] == [4.0, 4.0, 4.0, 4.0, None]
        errors = [v.log_error for v in verdicts]
        assert errors[0] == pytest.approx(0.6931, abs=1e-4)  # ln(4 / 2)
        assert errors[1] is None and errors[4] is None       # no paper number / no value
        assert errors[2] == pytest.approx(3.2189, abs=1e-4)  # a gap still scores

    def test_render_and_section_of(self, result):
        section = render_section("synthetic", result, evaluate("synthetic", result))
        lines = section.splitlines()
        assert lines[0] == "## synthetic — Synthetic"
        assert "      8  4.00  1.00" in lines and "note:  a note" in lines
        assert "| ✓ | a is twice b | 2 | 4.00 vs 1.00 (4.00x, needs > 1.5x) |" in lines
        assert "| ✓ | the table has rows |  | 2 rows |" in lines
        assert [line[:5] for line in lines if line.startswith("| ") and "claim" not in line
                ] == ["| ✓ |", "| ✗ |", "| ~ |", "| ✓ |", "| ✓ |"]
        assert any(line.startswith("`~` a is a hundred times b: the model has no")
                   for line in lines)
        assert lines[-1] == ("**3 / 5 claims held** (2 known gap(s)); "
                             "mean |ln(measured / paper)| = 1.766 over 3 numeric claim(s)")
        document = "# title\n\n## other — x\n\nbody\n\n" + section + "\n## Totals\n"
        assert section_of(document, "synthetic") == section
        assert section_of(document, "other") == "## other — x\n\nbody\n"
        with pytest.raises(ValueError):
            section_of(document, "missing")
        # predicates and rendering read nothing but what the JSON carries
        again = rebuilt(result)
        assert render_section("synthetic", again, evaluate("synthetic", again)) == section


@pytest.mark.parametrize("key", ["fig3", "fig4"])
def test_quick_grid_matches_the_committed_scorecard(key, monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "0")  # the committed scorecard is the quick grids'
    result = ALL_EXPERIMENTS[key]()  # jobs: REPRO_JOBS
    verdicts = evaluate(key, result)
    assert all(v.as_expected for v in verdicts), [(v.claim.text, v.shown) for v in verdicts]
    section = render_section(key, result, verdicts)
    assert section == section_of(SCORECARD.read_text(), key), (
        f"{key} moved: regenerate docs/SCORECARD.md")
    assert render_section(key, rebuilt(result), evaluate(key, rebuilt(result))) == section
