"""``quiet_mean`` removes additive host noise and keeps the program's
own slice-to-slice variation."""

import random

import pytest

from bench.estimator import lower_quartile, percentile, quiet_mean


def _noisy_rounds(truth, rounds, rng):
    """Every round is the truth plus non-negative noise that comes in
    spells; each slice is left alone in at least one round."""
    out = [[value + rng.choice([0.0, 0.0, 5.0, 40.0]) for value in truth]
           for _ in range(rounds)]
    for index, value in enumerate(truth):
        out[rng.randrange(rounds)][index] = value
    return out


def test_costs_recover_the_truth_under_additive_noise():
    rng = random.Random(1)
    truth = [100.0 + 3.0 * index for index in range(12)]   # growing state
    rounds = _noisy_rounds(truth, 5, rng)
    assert quiet_mean(rounds) == pytest.approx(sum(truth) / len(truth))
    plain = sum(sum(r) for r in rounds) / (5 * len(truth))
    assert plain > quiet_mean(rounds) + 1.0


def test_rates_take_the_best_round_as_the_highest():
    rounds = [[10.0, 20.0], [12.0, 5.0], [9.0, 19.0]]
    assert quiet_mean(rounds, better="higher") == pytest.approx(16.0)
    assert quiet_mean(rounds) == pytest.approx(7.0)


def test_a_whole_noisy_round_changes_nothing():
    truth = [50.0, 60.0, 55.0]
    rounds = [truth, [value + 30.0 for value in truth], truth]
    assert quiet_mean(rounds) == pytest.approx(55.0)


def test_keeps_variation_between_slices():
    # One slice is genuinely dearer in every round (a collection, say):
    # that is the program, and it stays in the mean.
    rounds = [[10.0, 10.0, 40.0, 10.0]] * 4
    assert quiet_mean(rounds) == pytest.approx(17.5)


def test_no_slices_is_an_error():
    with pytest.raises(ValueError):
        quiet_mean([[], []])


def test_percentile_and_quartile():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile([7], 0.95) == 7
    assert lower_quartile([4.0]) == 4.0
    assert lower_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.5)
