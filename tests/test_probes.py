"""Linear probes: pair features, the 5-bin score readout, logistic
regression, cross-validation, and the scalar metrics.

Oracles: scipy.stats for the correlation metrics, direct-formula
recomputation for the logreg objective and the two-pass (log-softmax, then
softmax) objective of reference.py, and closed-form expectations for the
degenerate cases.
"""

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from skipgru.errors import (ConvergenceError, InputError, MetricError,
                            ParameterError, ShapeError)
from skipgru.numerics import LbfgsResult, seed_tuple, softmax
from skipgru.probes import (DEFAULT_L2_GRID, accuracy, cross_validate, f1,
                            fit_logreg, fit_relatedness, logreg_objective, mse,
                            pair_features, pearson, predict, predict_proba,
                            predict_scores, read_label_dataset,
                            read_pair_dataset, score_to_distribution,
                            select_l2, select_l2_relatedness, spearman,
                            stratified_folds)

import reference
from reference import average_ranks, distribution_to_score


# ---------------------------------------------------------------------------
# pair features
# ---------------------------------------------------------------------------

def test_pair_features_identical_pair():
    u = np.array([1.0, -2.0, 3.0])
    f = pair_features(u, u)
    assert np.array_equal(f, np.concatenate([u * u, np.zeros(3)]))


def test_pair_features_hand_case():
    f = pair_features(np.array([1.0, 2.0]), np.array([3.0, -1.0]))
    assert np.array_equal(f, np.array([3.0, -2.0, 2.0, 3.0]))


def test_pair_features_row_blocks_match_per_row(rng):
    U, V = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    want = np.vstack([pair_features(u, v) for u, v in zip(U, V)])
    assert np.array_equal(pair_features(U, V), want)
    with pytest.raises(ShapeError):
        pair_features(U, V[:4])


def test_pair_features_dimension_mismatch():
    with pytest.raises(ShapeError):
        pair_features(np.zeros(3), np.zeros(4))


@given(st.integers(0, 500))
@settings(max_examples=100, deadline=None)
def test_pair_features_symmetric(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert np.array_equal(pair_features(u, v), pair_features(v, u))


# ---------------------------------------------------------------------------
# score readout
# ---------------------------------------------------------------------------

def test_score_to_distribution_integer():
    assert np.array_equal(score_to_distribution(3.0),
                          np.array([0, 0, 1, 0, 0.0]))


def test_score_to_distribution_half():
    assert np.allclose(score_to_distribution(4.5),
                       np.array([0, 0, 0, 0.5, 0.5]))


def test_score_to_distribution_endpoint():
    assert np.array_equal(score_to_distribution(5.0),
                          np.array([0, 0, 0, 0, 1.0]))


def test_score_to_distribution_rejects_out_of_range():
    for y in (0.5, 5.2, -1.0):
        with pytest.raises(InputError):
            score_to_distribution(y)


def test_score_distribution_properties_on_grid():
    for y in np.linspace(1.0, 5.0, 401):
        p = score_to_distribution(float(y))
        assert p.min() >= 0 and abs(p.sum() - 1.0) < 1e-12
        assert np.count_nonzero(p) <= 2
        assert abs(distribution_to_score(p) - y) < 1e-12


def test_distribution_to_score_cases():
    assert distribution_to_score(np.array([0, 0, 1, 0, 0.0])) == 3.0
    assert distribution_to_score(np.array([0.5, 0, 0, 0, 0.5])) == 3.0
    assert abs(distribution_to_score(np.full(5, 0.2)) - 3.0) < 1e-12


def test_distribution_to_score_rejects_non_distribution():
    with pytest.raises(InputError):
        distribution_to_score(np.array([0.5, 0.1, 0, 0, 0.1]))
    with pytest.raises(InputError):
        distribution_to_score(np.array([-0.1, 0.4, 0.3, 0.2, 0.2]))
    with pytest.raises(InputError):
        distribution_to_score(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def separable_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    X[y == 1] += 2.0                       # open the margin
    X[y == 0] -= 2.0
    return X, y


def test_separable_data_fits_perfectly():
    X, y = separable_data()
    m = fit_logreg(X, y, l2=1e-3)
    assert accuracy(predict(m, X), y) == 1.0


def test_identical_features_predict_class_prior():
    X = np.ones((12, 3))
    y = np.array([0] * 9 + [1] * 3)
    m = fit_logreg(X, y, l2=1e-6)
    p = predict_proba(m, X)
    assert np.max(np.abs(p - np.array([0.75, 0.25]))) < 1e-3


def test_optimum_gradient_small_and_objective_matches_oracle():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    y = (rng.uniform(size=30) > 0.5).astype(int)
    l2 = 0.1
    m = fit_logreg(X, y, l2=l2)
    w_flat = np.concatenate([m.weights.ravel(), m.bias])
    T = np.eye(2)[y]
    loss, grad = logreg_objective(w_flat, X, T, l2)
    assert np.linalg.norm(grad) < 1e-6
    # Independent recomputation of the objective value.
    logits = X @ m.weights.T + m.bias
    p = softmax(logits)
    ce = -np.mean(np.sum(T * np.log(p), axis=1))
    want = ce + 0.5 * l2 * float(np.sum(m.weights ** 2))
    assert abs(loss - want) < 1e-10


def test_objective_gradient_matches_finite_difference():
    from reference import finite_diff_check
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 3))
    T = np.eye(2)[(rng.uniform(size=12) > 0.4).astype(int)]
    w0 = rng.normal(size=2 * 3 + 2)

    def loss_fn(ps):
        return logreg_objective(ps["w"], X, T, 0.05)[0]

    _, g = logreg_objective(w0, X, T, 0.05)
    assert finite_diff_check(loss_fn, {"w": w0.copy()}, {"w": g}) < 1e-6


@pytest.mark.parametrize("C", [2, 4, 5, 9])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("scale", [1.0, 800.0])
def test_objective_matches_two_pass_reference_bit_for_bit(C, soft, scale):
    # One shift and one exp for both loss and gradient give the bits of a
    # log-softmax pass and a softmax pass, also with logits near +-800, where
    # an unshifted exp overflows; C = 9 rows are summed pairwise by numpy.
    rng = np.random.default_rng(C)
    n, F = 37, 6
    X = rng.normal(size=(n, F))
    if soft:
        T = rng.dirichlet(np.ones(C), size=n)
    else:
        T = np.eye(C)[rng.integers(0, C, size=n)]
    w = rng.normal(size=C * F + C)
    w[C * F:] += scale * rng.choice([-1.0, 1.0], size=C)
    for l2 in (0.0, 0.3):
        loss, grad = logreg_objective(w, X, T, l2)
        want_loss, want_grad = reference.logreg_objective(w, X, T, l2)
        assert np.isfinite(loss) and loss == want_loss
        assert np.array_equal(grad, want_grad)


def test_fit_logreg_evaluates_the_objective_only_inside_lbfgs(monkeypatch):
    # The convergence norm is read from the solver's final gradient, so every
    # objective call is one that the solver counted.
    from skipgru import probes
    calls, nfev = [], []
    real_objective, real_lbfgs = probes.logreg_objective, probes.lbfgs

    def counting_objective(*args):
        calls.append(1)
        return real_objective(*args)

    def recording_lbfgs(*args, **kwargs):
        res = real_lbfgs(*args, **kwargs)
        nfev.append(res.nfev)
        return res
    monkeypatch.setattr(probes, "logreg_objective", counting_objective)
    monkeypatch.setattr(probes, "lbfgs", recording_lbfgs)
    X, y = separable_data(seed=3)
    m = fit_logreg(X, y, l2=0.01)
    assert len(calls) == sum(nfev) and len(nfev) >= 1
    w = np.concatenate([m.weights.ravel(), m.bias])
    assert np.linalg.norm(real_objective(w, X, np.eye(2)[y], 0.01)[1]) < 1e-6


def test_fit_logreg_forced_stall_raises(monkeypatch):
    # A solver that never moves returns x0 and its true gradient; the one
    # run then ends short of the bound and the fit reports the stall.
    from skipgru import probes
    starts = []

    def stalled(fun, x0, **kwargs):
        starts.append(x0.copy())
        value, grad = fun(x0)
        return LbfgsResult(x=x0.copy(), value=value, grad=grad, nfev=1)
    monkeypatch.setattr(probes, "lbfgs", stalled)
    X, y = separable_data(seed=2)
    with pytest.raises(ConvergenceError, match="stalled"):
        fit_logreg(X, y, l2=0.1)
    assert len(starts) == 1 and not np.any(starts[0])


def test_fit_logreg_whose_gradient_disagrees_stalls_no_worse_than_zeros(
        monkeypatch):
    # With the gradient's sign flipped, every search direction climbs: the
    # fit stalls and raises, and the solver's point is no worse than its
    # start, the zeros.
    from skipgru import probes
    real_objective, real_lbfgs = probes.logreg_objective, probes.lbfgs
    results = []

    def flipped_objective(*args):
        value, grad = real_objective(*args)
        return value, -grad

    def recording_lbfgs(*args, **kwargs):
        results.append(real_lbfgs(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(probes, "logreg_objective", flipped_objective)
    monkeypatch.setattr(probes, "lbfgs", recording_lbfgs)
    X, y = separable_data(seed=4)
    with pytest.raises(ConvergenceError, match="stalled"):
        fit_logreg(X, y, l2=0.1)
    start = real_objective(np.zeros(6), X, np.eye(2)[y], 0.1)[0]
    assert results[0].value <= start
    assert real_objective(results[0].x, X, np.eye(2)[y], 0.1)[0] <= start


@pytest.mark.parametrize("soft", [False, True])
def test_fit_logreg_is_bit_identical_and_warns_nothing(soft):
    # Two fits of one problem give the same bits, and no warning escapes,
    # also from the one-point problem whose logits grow to 1e6 and beyond.
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 7)) * 3.0
    Y = rng.dirichlet(np.ones(5), size=50) if soft else rng.integers(0, 5, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [fit_logreg(X, Y, l2=1e-4) for _ in range(2)]
        try:
            fit_logreg(np.array([[1e6]]), np.array([1]), 0.0, n_classes=2)
        except ConvergenceError:
            pass
    assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
    assert fits[0].bias.tobytes() == fits[1].bias.tobytes()


def test_soft_targets_supported():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(25, 4))
    T = np.vstack([score_to_distribution(float(y))
                   for y in rng.uniform(1, 5, size=25)])
    m = fit_logreg(X, T, l2=0.01)
    scores = predict_scores(m, X)
    assert scores.shape == (25,)
    assert np.all(scores >= 1.0) and np.all(scores <= 5.0)


def test_convexity_optimum_beats_random_points():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    l2 = 0.05
    m = fit_logreg(X, y, l2=l2)
    T = np.eye(2)[y]
    w_opt = np.concatenate([m.weights.ravel(), m.bias])
    best, _ = logreg_objective(w_opt, X, T, l2)
    for _ in range(50):
        w = rng.normal(size=w_opt.size) * 2
        val, _ = logreg_objective(w, X, T, l2)
        assert val >= best - 1e-9


def test_l2_monotone_shrinkage():
    X, y = separable_data(seed=7)
    norms = []
    for l2 in (1e-4, 1e-2, 1.0, 1e2):
        m = fit_logreg(X, y, l2=l2)
        norms.append(float(np.linalg.norm(m.weights)))
    assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_stratified_folds_balanced_and_deterministic():
    labels = np.array([0] * 20 + [1] * 10)
    f1_ = stratified_folds(labels, 5, seed=3)
    f2_ = stratified_folds(labels, 5, seed=3)
    assert np.array_equal(f1_, f2_)
    for c in (0, 1):
        counts = np.bincount(f1_[labels == c], minlength=5)
        assert counts.max() - counts.min() <= 1


def test_stratified_folds_rejects_singleton_class():
    with pytest.raises(InputError):
        stratified_folds(np.array([0, 0, 0, 1]), 2, seed=0)


def test_cross_validate_separable_is_perfect():
    X, y = separable_data(n=60, seed=1)
    res = cross_validate(X, y, folds=5, l2_grid=[1e-3, 1e-1], seed=0)
    assert res["mean_accuracy"] == 1.0
    assert len(res["fold_scores"]) == 5
    assert res["best_l2"] in (1e-3, 1e-1)


def test_cross_validate_null_labels_near_chance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 4))
    y = np.array([0, 1] * 60)
    res = cross_validate(X, y, folds=5, l2_grid=[1e-2], seed=5)
    # Null accuracy ~ Binomial(120, 0.5)/120: 3 sigma ~ 0.137.
    assert abs(res["mean_accuracy"] - 0.5) < 0.137


def test_cross_validate_is_deterministic():
    X, y = separable_data(n=50, seed=3)
    X += np.random.default_rng(0).normal(size=X.shape) * 3  # make it hard
    kw = dict(folds=4, l2_grid=[1e-3, 1e-1, 10.0], seed=11)
    assert cross_validate(X, y, **kw) == cross_validate(X, y, **kw)


def test_cross_validate_scores_only_the_non_empty_folds():
    # 6 + 6 samples over 10 folds: fold ids 6..9 hold no sample.
    X = np.random.default_rng(4).normal(size=(12, 2))
    y = np.array([0, 1] * 6)
    grid = (0.1, 1.0)
    res = cross_validate(X, y, 10, grid, 0)
    fold = stratified_folds(y, 10, 0)
    assert sorted(set(fold)) == list(range(6))
    assert len(res["fold_scores"]) == len(res["fold_l2"]) == 6
    # Fold f is scored by the probe its own inner search picks on the rest.
    for f in range(6):
        tr, te = fold != f, fold == f
        best = select_l2(X[tr], y[tr], 10, grid, seed_tuple(0, "cv-inner", f))
        m = fit_logreg(X[tr], y[tr], best, n_classes=2)
        assert res["fold_l2"][f] == best
        assert res["fold_scores"][f] == accuracy(predict(m, X[te]), y[te])
    assert res["mean_accuracy"] == float(np.mean(res["fold_scores"]))


@pytest.mark.parametrize("k, folds, refused", [(2, 3, True), (3, 2, True),
                                               (3, 3, False)])
def test_cross_validate_refuses_a_class_too_rare_for_the_inner_folds(
        k, folds, refused):
    # The inner search stratifies each outer training split again.  Two
    # samples over 3 folds, or three over 2, leave one sample of the class
    # in some training split, and the refusal names the class's own count;
    # three samples over 3 folds leave two in each, and the search runs.
    X = np.random.default_rng(5).normal(size=(20 + k, 3))
    y = np.array([0] * 10 + [1] * 10 + [2] * k)
    if refused:
        with pytest.raises(InputError, match=f"class 2 has {k} sample.*"
                                             f"{folds} folds"):
            cross_validate(X, y, folds, [0.1, 1.0], seed=0)
    else:
        res = cross_validate(X, y, folds, [0.1, 1.0], seed=0)
        assert len(res["fold_scores"]) == folds


def test_select_l2_tie_prefers_smaller():
    X, y = separable_data(n=40, seed=5)
    best = select_l2(X, y, folds=4, l2_grid=[1e-1, 1e-3], seed=0)
    assert best == 1e-3                      # ties at accuracy 1.0


@pytest.mark.parametrize("l2", [-1.0, float("nan")])
def test_fit_logreg_refuses_a_negative_or_nan_penalty(l2):
    X, y = separable_data()
    with pytest.raises(ParameterError):
        fit_logreg(X, y, l2)


def test_select_l2_relatedness_needs_two_rows():
    with pytest.raises(InputError):
        select_l2_relatedness(np.ones((1, 3)), np.array([3.0]), 2, [0.1], 0)


def test_select_l2_relatedness_scores_a_one_row_fold_zero():
    # 15 rows over 10 folds leave five folds of one row, whose correlation
    # is undefined; they score 0 instead of stopping the search.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(15, 4))
    y = np.clip(3.0 + X[:, 0], 1.0, 5.0)
    assert select_l2_relatedness(X, y, 10, [0.01, 1.0], 0) in (0.01, 1.0)


def test_cross_validate_empty_grid():
    X, y = separable_data()
    with pytest.raises(ParameterError):
        cross_validate(X, y, folds=3, l2_grid=[], seed=0)


def test_relatedness_probe_recovers_linear_signal():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 6))
    w = rng.normal(size=6)
    raw = X @ w
    y = 1 + 4 * (raw - raw.min()) / (raw.max() - raw.min())
    m = fit_relatedness(X, y, l2=1e-4)
    r = pearson(predict_scores(m, X), y)
    assert r > 0.95


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_trivial_cases():
    a = np.array([1.0, 2.0, 3.0])
    assert abs(pearson(a, a) - 1.0) < 1e-12
    assert abs(spearman(a, a) - 1.0) < 1e-12
    assert mse(a, a) == 0.0
    b = a[::-1]
    assert abs(pearson(a, b) + 1.0) < 1e-12
    assert abs(spearman(a, b) + 1.0) < 1e-12


def test_metrics_match_scipy(rng):
    a = rng.normal(size=50)
    b = 0.4 * a + rng.normal(size=50)
    assert abs(pearson(a, b) - scipy.stats.pearsonr(a, b)[0]) < 1e-10
    assert abs(spearman(a, b) - scipy.stats.spearmanr(a, b)[0]) < 1e-10
    assert abs(mse(a, b) - float(np.mean((a - b) ** 2))) < 1e-12


def test_spearman_handles_ties_like_scipy(rng):
    a = rng.integers(0, 4, size=40).astype(float)
    b = rng.integers(0, 4, size=40).astype(float)
    assert abs(spearman(a, b) - scipy.stats.spearmanr(a, b)[0]) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_spearman_matches_average_rank_reference(seed):
    # Few distinct values, so most ranks are shared by a run of ties.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    a = rng.integers(0, 1 + n // 4, size=n).astype(float)
    b = rng.normal(size=n).round(int(rng.integers(0, 2)))
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return
    assert spearman(a, b) == pearson(average_ranks(a), average_ranks(b))


@given(st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_spearman_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    base = spearman(a, b)
    assert abs(spearman(np.exp(a), b) - base) < 1e-12
    assert abs(spearman(a, 3 * b + 7) - base) < 1e-12


def test_zero_variance_is_metric_error():
    with pytest.raises(MetricError):
        pearson(np.ones(5), np.arange(5.0))
    with pytest.raises(MetricError):
        spearman(np.arange(5.0), np.full(5, 2.0))


def test_correlation_needs_two_points():
    with pytest.raises(InputError):
        pearson(np.array([1.0]), np.array([2.0]))


def test_accuracy_and_f1_hand_counts():
    pred = np.array([1, 0, 1, 1, 0, 1])
    gold = np.array([1, 0, 0, 1, 1, 1])
    assert abs(accuracy(pred, gold) - 4 / 6) < 1e-12
    # tp=3, fp=1, fn=1: F1 = 2*3 / (2*3 + 1 + 1) = 0.75.
    assert abs(f1(pred, gold) - 0.75) < 1e-12
    assert f1(np.zeros(4), np.zeros(4)) == 0.0   # no positives anywhere


def test_fit_logreg_nonconvergence_diagnostic():
    # A single-point degenerate problem with no regularization can push the
    # optimizer toward infinity; it must either converge or say why not.
    X = np.array([[1e6]])
    y = np.array([1])
    try:
        m = fit_logreg(X, y, l2=0.0, n_classes=2)
        w_flat = np.concatenate([m.weights.ravel(), m.bias])
        _, g = logreg_objective(w_flat, X, np.eye(2)[y], 0.0)
        assert np.linalg.norm(g) < 1e-6
    except ConvergenceError:
        pass


# ---------------------------------------------------------------------------
# dataset readers
# ---------------------------------------------------------------------------

def test_read_pair_dataset(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("sentence_a\tsentence_b\tscore\n"
                 "a cat\tthe cat\t4.5\n"
                 "dog\tfish\t1.0\n", encoding="utf-8")
    left, right, gold = read_pair_dataset(p)
    assert left == ["a cat", "dog"] and right == ["the cat", "fish"]
    assert np.array_equal(gold, np.array([4.5, 1.0]))


def test_read_pair_dataset_rejects_bad_rows(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("h\th\th\nonly two\tfields\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_pair_dataset(p)


def test_read_label_dataset(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("pos\tgreat movie\nneg\tawful\npos\tloved it\n",
                 encoding="utf-8")
    labels, sentences, names = read_label_dataset(p)
    assert names == ["neg", "pos"]
    assert list(labels) == [1, 0, 1]
    assert sentences == ["great movie", "awful", "loved it"]


def test_default_l2_grid_is_decade_steps():
    assert DEFAULT_L2_GRID == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)
