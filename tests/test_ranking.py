"""Image-sentence ranking: cosine scoring, hinge loss, training loop, and
Recall@K / median-rank evaluation.

Oracles: exhaustive hinge enumeration when the contrastive pool is forced,
an independent reimplementation of the documented draw procedure, finite
differences for the gradient, hand-built score tables for retrieval, and the
per-hinge and per-query loops of reference.py.
"""

import numpy as np
import pytest

from skipgru.errors import ConfigError, InputError, MetricError, ShapeError
from skipgru.numerics import get_rng, seed_tuple
from skipgru.ranking import (RankingModel, RankTrainConfig, evaluate_retrieval,
                             init_ranking_model, ranking_grads, train_ranker)

import reference
from reference import finite_diff_check, pair_score


def rand_model(rng, image_dim=3, sentence_dim=4, embed_dim=3):
    return RankingModel(U=rng.normal(size=(embed_dim, image_dim)),
                        V=rng.normal(size=(embed_dim, sentence_dim)))


def hinge(alpha=0.2, k=1):
    """The loss settings of ranking_grads: margin alpha, k draws a kind."""
    return RankTrainConfig(alpha=alpha, k_contrastive=k)


# ---------------------------------------------------------------------------
# pair_score
# ---------------------------------------------------------------------------

def test_score_same_direction_is_one(rng):
    m = rand_model(rng)
    x = rng.normal(size=3)
    # Choose y so that Vy is parallel to Ux.
    target = m.U @ x
    y, *_ = np.linalg.lstsq(m.V, 2.5 * target, rcond=None)
    assert abs(pair_score(x, y, m) - 1.0) < 1e-9


def test_score_orthogonal_is_zero(rng):
    m = RankingModel(U=np.eye(2), V=np.eye(2))
    assert abs(pair_score(np.array([1.0, 0.0]), np.array([0.0, 3.0]), m)) \
        < 1e-12


def test_score_range_and_scale_invariance(rng):
    m = rand_model(rng)
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=4)
        s = pair_score(x, y, m)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert abs(pair_score(3.7 * x, y, m) - s) < 1e-12
        assert abs(pair_score(x, 0.2 * y, m) - s) < 1e-12


def test_score_invariant_to_rescaling_U(rng):
    m = rand_model(rng)
    m2 = RankingModel(U=5.0 * m.U, V=m.V)
    x, y = rng.normal(size=3), rng.normal(size=4)
    assert abs(pair_score(x, y, m) - pair_score(x, y, m2)) < 1e-12


def test_score_zero_norm_flagged(rng):
    m = rand_model(rng)
    with pytest.raises(MetricError):
        pair_score(np.zeros(3), rng.normal(size=4), m)


# ---------------------------------------------------------------------------
# the loss value of ranking_grads
# ---------------------------------------------------------------------------

def identity_model(dim):
    return RankingModel(U=np.eye(dim), V=np.eye(dim))


def test_loss_zero_when_margins_satisfied():
    # Positives at cosine 1, every contrastive at -1: margins hold for any
    # alpha < 2.
    X = np.eye(3)
    m = identity_model(3)
    loss = ranking_grads(X, X, m, hinge(k=2), contrastive_seed=0)[0]
    # Positive pairs score 1; orthogonal contrastives score 0 < 1 - alpha.
    assert loss == 0.0


def test_loss_tie_case_contributes_alpha_each():
    # All vectors identical: every contrastive scores exactly the positive
    # score, so each of the 2 directions * k draws contributes alpha.
    X = np.tile(np.array([1.0, 0.0]), (3, 1))
    m = identity_model(2)
    loss = ranking_grads(X, X, m, hinge(), contrastive_seed=5)[0]
    assert abs(loss - 3 * 2 * 0.2) < 1e-12


def test_loss_exhaustive_enumeration_when_pool_is_forced(rng):
    # k = n - 1 forces the contrastive set to be every other item, making the
    # hinge sum independent of the seed and enumerable by hand.
    n = 4
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(n, 4))
    m = rand_model(rng)
    S = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            S[i, j] = pair_score(X[i], Y[j], m)
    want = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            want += max(0.0, 0.3 - S[i, i] + S[i, j])   # contrastive sentence
            want += max(0.0, 0.3 - S[i, i] + S[j, i])   # contrastive image
    got = ranking_grads(X, Y, m, hinge(alpha=0.3, k=n - 1),
                        contrastive_seed=123)[0]
    assert abs(got - want) < 1e-12


def test_loss_matches_documented_draw_procedure(rng):
    # Independent oracle reimplementing the documented sampling: per positive
    # i, k sentence draws then k image draws from choice(n-1) shifted past i.
    n, k = 5, 2
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(n, 4))
    m, cfg = rand_model(rng), hinge(alpha=0.25, k=k)
    seed = seed_tuple(9, "contrast", 0, 0)
    S = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            S[i, j] = pair_score(X[i], Y[j], m)
    r = get_rng(seed)
    want = 0.0
    for i in range(n):
        s = r.choice(n - 1, size=k, replace=False)
        im = r.choice(n - 1, size=k, replace=False)
        for j in s + (s >= i):
            want += max(0.0, cfg.alpha - S[i, i] + S[i, j])
        for j in im + (im >= i):
            want += max(0.0, cfg.alpha - S[i, i] + S[j, i])
    assert abs(ranking_grads(X, Y, m, cfg, seed)[0] - want) < 1e-12


def test_loss_batch_too_small(rng):
    m = rand_model(rng)
    X = rng.normal(size=(3, 3))
    Y = rng.normal(size=(3, 4))
    with pytest.raises(ConfigError):
        ranking_grads(X, Y, m, hinge(k=3), contrastive_seed=0)[0]


@pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf")])
def test_margin_and_learning_rate_must_be_finite_and_positive(value):
    # Every comparison with NaN is false, so a bare `<= 0` lets it through.
    with pytest.raises(ConfigError, match="alpha must be finite and positive"):
        RankTrainConfig(alpha=value)
    with pytest.raises(ConfigError):
        RankTrainConfig(learning_rate=value)


@pytest.mark.parametrize("batch,k", [(20, 20), (5, 50), (1, 0), (2, -1)])
def test_config_refuses_a_batch_that_cannot_supply_the_draws(batch, k):
    # A batch of at most k pairs cannot draw k contrastive terms for each
    # pair, so train_ranker would skip every batch; k < 1 draws none.
    with pytest.raises(ConfigError, match="k_contrastive"):
        RankTrainConfig(batch_size=batch, k_contrastive=k)
    assert RankTrainConfig(batch_size=21, k_contrastive=20).batch_size == 21


def test_loss_deterministic_given_seed(rng):
    X = rng.normal(size=(6, 3))
    Y = rng.normal(size=(6, 4))
    m, cfg = rand_model(rng), hinge(k=2)
    a = ranking_grads(X, Y, m, cfg, contrastive_seed=(3, 4))[0]
    b = ranking_grads(X, Y, m, cfg, contrastive_seed=(3, 4))[0]
    c = ranking_grads(X, Y, m, cfg, contrastive_seed=(3, 5))[0]
    assert a == b
    assert a != c or True                  # different seeds may still collide


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_finite_difference(rng):
    # Hinge kinks: redraw until no term sits within fd distance of zero.
    n, k = 5, 2
    for attempt in range(10):
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 4))
        m, cfg = rand_model(rng), hinge(alpha=0.3, k=k)
        seed = (71, attempt)
        params = {"U": m.U.copy(), "V": m.V.copy()}

        def loss_fn(ps):
            cur = RankingModel(U=ps["U"], V=ps["V"])
            return ranking_grads(X, Y, cur, cfg, contrastive_seed=seed)[0]

        loss, grads = ranking_grads(X, Y, m, cfg, contrastive_seed=seed)
        if loss == 0.0:
            continue
        err = finite_diff_check(loss_fn, params, grads)
        if err < 1e-5:
            return
    raise AssertionError("no kink-free instance found within 10 draws")


def tied_batch(rng, n, image_dim, sentence_dim):
    """Random pairs in which some rows repeat exactly, so that some scores
    tie exactly (a repeated sentence scores the same against every image)."""
    X = rng.normal(size=(n, image_dim))
    Y = rng.normal(size=(n, sentence_dim))
    src = rng.integers(0, n, size=n // 3)
    dst = rng.integers(0, n, size=n // 3)
    X[dst], Y[dst] = X[src], Y[src]
    return X, Y


@pytest.mark.parametrize("seed", range(6))
def test_grads_match_per_hinge_reference(seed):
    # Loss within 1e-12 relative (summation order differs); the hinge weight
    # table holds integers, so the gradients must agree exactly.
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(4, 30)), int(rng.integers(1, 4))
    X, Y = tied_batch(rng, n, 5, 7)
    m = rand_model(rng, image_dim=5, sentence_dim=7, embed_dim=4)
    cfg = hinge(alpha=float(rng.uniform(0.1, 1.5)), k=min(k, n - 1))
    loss, grads = ranking_grads(X, Y, m, cfg, contrastive_seed=(seed, 1))
    want_loss, want = reference.ranking_grads(X, Y, m, cfg, (seed, 1))
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    for key in ("U", "V"):
        assert np.array_equal(grads[key], want[key])


def test_grads_match_per_hinge_reference_when_hinges_are_exactly_zero():
    # One-hot pairs under the identity: every positive scores 1 and every
    # contrastive 0, so with alpha = 1 each hinge sits exactly at zero and
    # must stay inactive.
    X = np.eye(6)
    m, cfg = identity_model(6), hinge(alpha=1.0, k=3)
    loss, grads = ranking_grads(X, X, m, cfg, contrastive_seed=2)
    want_loss, want = reference.ranking_grads(X, X, m, cfg, 2)
    assert loss == want_loss == 0.0
    for key in ("U", "V"):
        assert np.array_equal(grads[key], want[key])


@pytest.mark.parametrize("group_size", [1, 5])
@pytest.mark.parametrize("seed", range(4))
def test_retrieval_matches_per_query_reference(seed, group_size):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 15))
    X, _ = tied_batch(rng, n, 5, 1)
    _, Y = tied_batch(rng, n * group_size, 1, 6)
    m = rand_model(rng, image_dim=5, sentence_dim=6, embed_dim=3)
    ks = (1, 2, 5, 10)
    res = evaluate_retrieval(X, Y, m, group_size=group_size, ks=ks)
    for direction, ranks in reference.retrieval_ranks(X, Y, m,
                                                      group_size).items():
        r = res[direction]
        assert r.recall_at == {k: 100.0 * float(np.mean(ranks <= k))
                               for k in ks}
        assert r.median_rank == float(np.median(ranks))


# ---------------------------------------------------------------------------
# train_ranker
# ---------------------------------------------------------------------------

def planted_pairs(n, dim, rng, noise=0.01):
    X = rng.normal(size=(n, dim))
    M = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    Y = X @ M.T + noise * rng.normal(size=(n, dim))
    return X, Y


def test_train_zero_epochs_returns_initial_model(rng):
    X, Y = planted_pairs(10, 4, rng)
    m = init_ranking_model(4, 4, 4, seed=0)
    cfg = RankTrainConfig(batch_size=10, learning_rate=0.01, seed=1,
                          alpha=0.2, k_contrastive=3)
    out = train_ranker((X, Y), m, epochs=0, dev=(X, Y), config=cfg)
    assert np.array_equal(out.model.U, m.U)
    assert np.array_equal(out.model.V, m.V)
    assert out.history == []


def test_train_planted_correspondences(rng):
    # Sentences are noisy linear images of the image vectors: a linear pair
    # of embeddings recovers the correspondence to high dev recall.
    X, Y = planted_pairs(50, 8, rng, noise=0.02)
    m = init_ranking_model(8, 8, 8, seed=3)
    cfg = RankTrainConfig(batch_size=25, learning_rate=0.05, seed=3,
                          alpha=0.2, k_contrastive=10)
    out = train_ranker((X[:40], Y[:40]), m, epochs=20,
                       dev=(X[40:], Y[40:]), config=cfg)
    assert out.history[-1]["mean_loss"] <= out.history[0]["mean_loss"]
    best_r1 = max(h["dev_r1"] for h in out.history)
    assert best_r1 > 90.0


def test_train_deterministic(rng):
    X, Y = planted_pairs(20, 4, rng)

    def run():
        m = init_ranking_model(4, 4, 4, seed=2)
        cfg = RankTrainConfig(batch_size=10, learning_rate=0.01, seed=7,
                              alpha=0.2, k_contrastive=5)
        return train_ranker((X, Y), m, epochs=3, dev=(X, Y), config=cfg)

    a, b = run(), run()
    assert np.array_equal(a.model.U, b.model.U)
    assert np.array_equal(a.model.V, b.model.V)
    assert a.history == b.history


def test_train_returns_the_best_epoch_and_leaves_its_input_alone():
    # A high learning rate on noisy pairs: dev R@1 peaks at the first epoch.
    # The returned snapshot must hold that epoch's weights, not the live
    # arrays that Adam went on updating in place.
    rng = np.random.default_rng(5)
    X, Y = planted_pairs(30, 4, rng, noise=0.5)
    m = init_ranking_model(4, 4, 4, seed=5)
    U0, V0 = m.U.copy(), m.V.copy()
    cfg = RankTrainConfig(batch_size=10, learning_rate=0.2, seed=5,
                          alpha=0.2, k_contrastive=5)
    out = train_ranker((X[:20], Y[:20]), m, epochs=6, dev=(X[20:], Y[20:]),
                       config=cfg)
    best = max(h["dev_r1"] for h in out.history)
    assert out.history[-1]["dev_r1"] < best
    res = evaluate_retrieval(X[20:], Y[20:], out.model, 1, ks=(1,))
    assert (res["annotation"].recall_at[1] + res["search"].recall_at[1]) / 2 == best
    assert np.array_equal(m.U, U0) and np.array_equal(m.V, V0)


def test_train_empty_dev_rejected(rng):
    X, Y = planted_pairs(10, 4, rng)
    m = init_ranking_model(4, 4, 4, seed=0)
    cfg = RankTrainConfig(batch_size=10, learning_rate=0.01, alpha=0.2,
                          k_contrastive=3)
    with pytest.raises(InputError):
        train_ranker((X, Y), m, epochs=1,
                     dev=(np.zeros((0, 4)), np.zeros((0, 4))), config=cfg)


@pytest.mark.parametrize("n", [1, 3])
def test_train_with_too_few_pairs_for_the_draws_is_refused(rng, n):
    # With at most k pairs every batch would be skipped: the run used to
    # train nothing and report a mean loss of 0 for each epoch.  Zero epochs
    # train nothing by request and still return the model.
    X, Y = planted_pairs(4, 4, rng)
    m = init_ranking_model(4, 4, 4, seed=0)
    cfg = RankTrainConfig(batch_size=10, k_contrastive=3)
    with pytest.raises(ConfigError, match="more than k_contrastive 3 pairs"):
        train_ranker((X[:n], Y[:n]), m, epochs=1, dev=(X, Y), config=cfg)
    assert train_ranker((X[:n], Y[:n]), m, epochs=0, dev=(X, Y),
                        config=cfg).model is m


# ---------------------------------------------------------------------------
# evaluate_retrieval
# ---------------------------------------------------------------------------

def test_identity_scores_perfect_retrieval():
    X = np.eye(6)
    m = identity_model(6)
    res = evaluate_retrieval(X, X, m, group_size=1, ks=(1, 5))
    for d in ("annotation", "search"):
        assert res[d].recall_at[1] == 100.0
        assert res[d].median_rank == 1.0


def test_random_scores_match_null_baseline():
    # 1 relevant among N at random: R@1 concentrates near 100/N %, median
    # rank near N/2.
    N = 1000
    rng = np.random.default_rng(13)
    X = rng.normal(size=(N, 8))
    Y = rng.normal(size=(N, 8))
    m = RankingModel(U=rng.normal(size=(6, 8)), V=rng.normal(size=(6, 8)))
    res = evaluate_retrieval(X, Y, m, group_size=1, ks=(1,))
    for d in ("annotation", "search"):
        # Binomial(N, 1/N): mean 1 hit, 3 sigma just under 3 hits.
        assert res[d].recall_at[1] <= 100.0 * 4 / N
        assert abs(res[d].median_rank - N / 2) < 3 * np.sqrt(N) / 2 * 2


def test_hand_built_score_table():
    # 4 images x 2 captions per image.  Images are one-hot, captions are
    # one-hot, so Ux picks an axis and Vy picks the matching column below;
    # caption 2 is deliberately mis-specified to live on image 2's axis.
    U = np.eye(4)
    V = np.array([
        [1.0, 0.1, 0.1, 0.1],    # caption 0 (image 0)
        [0.9, 0.2, 0.1, 0.1],    # caption 1 (image 0)
        [0.1, 0.05, 1.0, 0.1],   # caption 2 (image 1, points at image 2)
        [0.1, 1.0, 0.1, 0.1],    # caption 3 (image 1)
        [0.1, 0.1, 1.0, 0.0],    # caption 4 (image 2)
        [0.1, 0.1, 0.9, 0.1],    # caption 5 (image 2)
        [0.0, 0.1, 0.1, 1.0],    # caption 6 (image 3)
        [0.1, 0.0, 0.1, 1.0],    # caption 7 (image 3)
    ]).T                          # (4, 8): column j embeds caption j
    m = RankingModel(U=U, V=V)
    X = np.eye(4)
    Y = np.eye(8)
    S = np.empty((4, 8))
    for i in range(4):
        for j in range(8):
            S[i, j] = pair_score(X[i], Y[j], m)
    res = evaluate_retrieval(X, Y, m, group_size=2, ks=(1, 2))
    # Manual annotation ranks: best ground-truth caption rank per image.
    want = []
    for i in range(4):
        order = np.argsort(-S[i], kind="stable")
        pos = np.empty(8, dtype=int)
        pos[order] = np.arange(1, 9)
        want.append(min(pos[2 * i], pos[2 * i + 1]))
    assert res["annotation"].median_rank == float(np.median(want))
    assert res["annotation"].recall_at[1] == \
        100.0 * np.mean([r <= 1 for r in want])


def test_recall_monotone_and_saturates(rng):
    N = 12
    X = rng.normal(size=(N, 5))
    Y = rng.normal(size=(N, 5))
    m = RankingModel(U=rng.normal(size=(4, 5)), V=rng.normal(size=(4, 5)))
    res = evaluate_retrieval(X, Y, m, group_size=1, ks=(1, 3, 5, N))
    for d in ("annotation", "search"):
        r = res[d].recall_at
        assert r[1] <= r[3] <= r[5] <= r[N]
        assert r[N] == 100.0


def test_group_size_mismatch_rejected(rng):
    m = identity_model(3)
    with pytest.raises(InputError):
        evaluate_retrieval(np.eye(3), np.eye(3), m, group_size=5)


def test_no_images_rejected():
    # Zero images used to give NaN recalls and median ranks.
    m = identity_model(3)
    with pytest.raises(InputError, match="at least one image"):
        evaluate_retrieval(np.empty((0, 3)), np.empty((0, 3)), m, group_size=1)


def test_init_ranking_model_shapes_and_range():
    m = init_ranking_model(7, 5, 4, seed=11)
    assert m.U.shape == (4, 7) and m.V.shape == (4, 5)
    assert np.all(np.abs(m.U) <= 0.1) and np.all(np.abs(m.V) <= 0.1)
    m2 = init_ranking_model(7, 5, 4, seed=11)
    assert np.array_equal(m.U, m2.U)
