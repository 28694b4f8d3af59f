"""Numbered acceptance checks, one test per criterion.

Each check runs the one pinned protocol of nextjump.validation, the same one
``nextjump validate`` runs, and prints its one-line PASS/FAIL summary so the
full record appears in the test log.
"""

import math

import pytest

from nextjump import validation

_IDS = [f"{i:02d}-{validation.CRITERION_TITLES[i]}"
        for i in sorted(validation.CRITERION_TITLES)]


@pytest.mark.parametrize("index", sorted(validation.CRITERION_TITLES),
                         ids=_IDS)
def test_criterion(index, capsys):
    result = validation.run_criterion(index)
    with capsys.disabled():
        print(validation.format_line(result), flush=True)
    assert result.passed, result.detail


def test_every_criterion_has_a_budget():
    assert sorted(validation._CRITERIA) == list(range(1, 16))
    for title, _, budget in validation._CRITERIA.values():
        assert math.isfinite(budget) and budget > 0.0, title
