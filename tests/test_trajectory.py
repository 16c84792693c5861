"""Trajectory gate: hundreds of training steps on a planted corpus land on
the batch losses that tests/data/trajectory.json records.

A one-step check at 1e-12 misses a change that compounds over a run.  A run
of 300 steps on this corpus moves by under 1e-15 relative when every
gradient is regrouped in its last bits, while a real change to a gradient
moves it far more, so 1e-12 tells the two apart.  tests/planted.py writes
the fixture; a change that must move it says why in CHANGES.md.
"""

import json

import pytest

import planted


@pytest.mark.parametrize("mode,steps,pinned", planted.RUNS,
                         ids=[mode for mode, _, _ in planted.RUNS])
def test_planted_corpus_trajectory_matches_the_fixture(mode, steps, pinned,
                                                       tmp_path):
    want = json.loads(planted.FIXTURE.read_text(encoding="utf-8"))[mode]
    assert sorted(want, key=int) == [str(s) for s in pinned]
    losses = planted.trajectory(mode, steps, tmp_path)
    assert len(losses) == steps
    for s in pinned:
        assert abs(losses[s - 1] - want[str(s)]) <= 1e-12 * want[str(s)], s
    # The run learns: the loss falls from its first step.
    assert losses[-1] < losses[0]
