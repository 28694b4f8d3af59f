"""Numbered acceptance checks, one test per criterion.

Each check runs the pinned protocol from nextjump.validation and prints its
one-line PASS/FAIL summary so the full record appears in the test log.  Set
NEXTJUMP_VALIDATE_LEVEL=fast to trim the Monte Carlo sizes during
development; the default is the full pinned protocol.
"""

import os

import pytest

from nextjump import validation

LEVEL = os.environ.get("NEXTJUMP_VALIDATE_LEVEL", "full")

_IDS = [f"{i:02d}-{validation.CRITERION_TITLES[i]}"
        for i in sorted(validation.CRITERION_TITLES)]


@pytest.mark.parametrize("index", sorted(validation.CRITERION_TITLES),
                         ids=_IDS)
def test_criterion(index, capsys):
    result = validation.run_criterion(index, LEVEL)
    with capsys.disabled():
        print(validation.format_line(result), flush=True)
    assert result.passed, result.detail


def test_every_criterion_has_a_budget():
    assert set(validation._TIME_BOUNDS) == set(validation.CRITERION_TITLES)
