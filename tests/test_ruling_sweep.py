"""A tier-1 slice of tests/sweep_ruling.py: vertex counts that are not powers
of two, at which the knock-out schedule's ID range is not a power of its
branching factor, held to every verdict: the ruling and phase_counts
verdicts, which nested knock-out blocks keep, and the rest."""

import pytest

import sweep_ruling

SIZES = (17, 20, 33, 100)
CONFIGS = (("polylog", 3, None), ("polylog", 5, None), ("polylog", 8, None),
           ("sparse", 3, "1/3"), ("skeleton", None, "0.34"),
           ("skeleton", None, "1/10"))


@pytest.mark.parametrize("config", CONFIGS, ids=sweep_ruling.describe)
@pytest.mark.parametrize("shape", sweep_ruling.SHAPES)
def test_ruling_and_phase_counts_hold(shape, config):
    builds = list(sweep_ruling.sweep(SIZES, [shape], [config]))
    assert len(builds) == len(SIZES)
    failed = [(name, verdict) for _, name, verdicts in builds
              for verdict in verdicts]
    assert not failed
