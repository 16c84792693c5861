"""Trajectory gate: hundreds of training steps on a planted corpus land on
the batch losses that tests/data/trajectory.json records, and the trained
encoder's vector tells the decoders about a held-out sentence's neighbours.

A one-step check at 1e-12 misses a change that compounds over a run.  A run
of 300 steps on this corpus moves by under 1e-15 relative when every
gradient is regrouped in its last bits, while a real change to a gradient
moves it far more, so 1e-12 tells the two apart.  tests/planted.py writes
the fixture; a change that must move it says why in CHANGES.md.
"""

import functools
import json

import pytest

import planted

# Nats per held-out triple that the uni run's own sentence vectors gain over
# shuffled ones: half of the 0.579 measured after its 300 steps (0.040 after
# 100 steps, 0 before any).
CONDITIONING_GAIN_BOUND = 0.29


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("planted")


@pytest.fixture(scope="module")
def losses(workdir):
    """mode -> the batch losses of its planted run, trained once per module;
    the run's checkpoint stays at planted.checkpoint(mode, workdir)."""
    steps = {mode: n for mode, n, _ in planted.RUNS}
    return functools.cache(
        lambda mode: planted.trajectory(mode, steps[mode], workdir))


@pytest.mark.parametrize("mode,steps,pinned", planted.RUNS,
                         ids=[mode for mode, _, _ in planted.RUNS])
def test_planted_corpus_trajectory_matches_the_fixture(mode, steps, pinned,
                                                       losses):
    want = json.loads(planted.FIXTURE.read_text(encoding="utf-8"))[mode]
    assert sorted(want, key=int) == [str(s) for s in pinned]
    run = losses(mode)
    assert len(run) == steps
    for s in pinned:
        assert abs(run[s - 1] - want[str(s)]) <= 1e-12 * want[str(s)], s
    # The run learns: the loss falls from its first step.
    assert run[-1] < run[0]


def test_held_out_neighbours_are_scored_better_from_their_own_vector(
        losses, workdir):
    # The paper's objective: the encoder's vector of a sentence carries what
    # its neighbours say (here, their topic), on triples the run never saw.
    losses("uni")                       # trains the run unless it has been
    gain = planted.conditioning_gain(planted.checkpoint("uni", workdir))
    assert gain > CONDITIONING_GAIN_BOUND
