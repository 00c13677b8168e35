"""Every claim-bearing figure: run its grid, check the paper's claims.

One case per ``repro.bench.claims.CLAIMS`` key (quick grid by default,
``REPRO_FULL=1`` for the paper's axes, ``REPRO_JOBS=N`` for a pool): every
claim must come out as expected — held, or for a known gap still *not* held —
and the quick grid's rendered section must equal the committed
``docs/SCORECARD.md``, so no published number moves unnoticed.
"""

import pathlib

import pytest

from repro.bench.claims import CLAIMS, evaluate, render_section, section_of
from repro.bench.experiments import ALL_EXPERIMENTS, full_grids
from repro.bench.report import write_experiment_json

HERE = pathlib.Path(__file__).parent
SCORECARD = HERE.parent / "docs" / "SCORECARD.md"


@pytest.mark.parametrize("key", list(CLAIMS))
def test_figure(key):
    result = ALL_EXPERIMENTS[key]()  # jobs: REPRO_JOBS
    print()
    print(result.format())
    write_experiment_json(result, HERE / "results" / f"{key}.json")
    verdicts = evaluate(key, result)
    unexpected = [(v.claim.text, v.held, v.shown) for v in verdicts if not v.as_expected]
    assert not unexpected, unexpected
    if not full_grids():
        assert render_section(key, result, verdicts) == section_of(
            SCORECARD.read_text(), key), f"regenerate docs/SCORECARD.md ({key} moved)"
