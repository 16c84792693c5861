"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (echoed again in the terminal summary via conftest).

The checks run at desk scale: gradient oracles, planted-structure recovery,
byte-level determinism, and small end-to-end training runs.  Tolerances and
budgets are part of the criteria and must not be loosened.
"""

import functools
import time

import numpy as np

from skipgru.cli import _encode_lines, generate_story, main
from skipgru.corpus import SentenceTriple
from skipgru.decoder import ConditionalGruParams, sentence_log_prob
from skipgru.encoder import EncoderModel, encode_with_cache, encoder_backward
from skipgru.probes import (fit_relatedness, logreg_objective, pair_features,
                            pearson, predict_scores, score_to_distribution)
from skipgru.ranking import (RankingModel, RankTrainConfig, evaluate_retrieval,
                             init_ranking_model, ranking_grads, train_ranker)
from skipgru.trainer import (SkipGruModel, TrainConfig, batch_grads,
                             model_from_params, train, triple_loss)
from skipgru.vocab_expansion import (ExpandedLookup, ExternalEmbeddings,
                                     fit_expansion)

from conftest import (decoder_pass_backward, make_model, make_vocab,
                      randomize_params, zero_grads)
from reference import distribution_to_score, finite_diff_check

RESULTS: list[str] = []


def _criterion(num, desc):
    """Record and print one PASS/FAIL line, whatever the test body does."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"criterion {num} FAIL: {desc}"
                RESULTS.append(line)
                print(line)
                raise
            line = f"criterion {num} PASS: {desc}"
            RESULTS.append(line)
            print(line)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _fd_encoder(mode, seed):
    m = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=4,
                                    mode=mode), seed=seed)
    tokens = (2, 4, 3, 7, 0)
    probe = np.random.default_rng(seed + 77).normal(size=m.encoder.output_dim)

    def loss(params):
        mm = model_from_params(m.config, m.vocab, params)
        return float(probe @ encode_with_cache(tokens, mm.encoder)[0])

    _, cache = encode_with_cache(tokens, m.encoder)
    analytic = zero_grads(m)
    encoder_backward(cache, probe, m.encoder, analytic)
    return finite_diff_check(loss, m.param_dict(), analytic)


def _fd_decoder(seed):
    rng = np.random.default_rng(seed)
    names = ("W_r", "W_z", "W", "U_r", "U_z", "U", "C_r", "C_z", "C")
    shapes = {"W_r": (4, 3), "W_z": (4, 3), "W": (4, 3),
              "U_r": (4, 4), "U_z": (4, 4), "U": (4, 4),
              "C_r": (4, 3), "C_z": (4, 3), "C": (4, 3)}
    p = ConditionalGruParams(
        begin=rng.uniform(-0.7, 0.7, size=3),
        **{n: rng.uniform(-0.7, 0.7, size=shapes[n]) for n in names})
    V = rng.uniform(-0.7, 0.7, size=(8, 4))
    emb = rng.uniform(-0.7, 0.7, size=(8, 3))
    h_enc = rng.uniform(-0.7, 0.7, size=3)
    target = (2, 7, 4, 1, 3, 0)
    params = dict(p.as_dict(), V=V, emb=emb, h_enc=h_enc)

    def loss(ps):
        pp = ConditionalGruParams.from_dict(ps)
        return -sentence_log_prob(target, ps["h_enc"], pp, ps["V"], ps["emb"])

    grads = {k: np.zeros_like(v) for k, v in params.items() if k != "h_enc"}
    grads["V"] = np.zeros_like(V, order="F")
    _, _, g_henc = decoder_pass_backward(target, h_enc, p, V, emb, grads)
    return finite_diff_check(loss, params, dict(grads, h_enc=g_henc))


def _fd_triple(mode, seed):
    m = randomize_params(make_model(vocab_size=7, embed_dim=3, hidden_dim=3,
                                    mode=mode), seed=seed)
    t = SentenceTriple(prev=(2, 5, 0), curr=(3, 4, 6, 0), next=(2, 3, 0))

    def loss(params):
        return triple_loss(model_from_params(m.config, m.vocab, params), t)

    grads = zero_grads(m)
    batch_grads(m, [t], grads)
    return finite_diff_check(loss, m.param_dict(), grads)


def _fd_logreg(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 4))
    T = np.eye(3)[rng.integers(0, 3, size=12)]
    w0 = rng.normal(size=3 * 4 + 3)

    def loss(ps):
        return logreg_objective(ps["w"], X, T, 0.05)[0]

    _, g = logreg_objective(w0, X, T, 0.05)
    return finite_diff_check(loss, {"w": w0.copy()}, {"w": g})


def _fd_ranking(seed):
    rng = np.random.default_rng(seed)
    n, k = 5, 2
    for attempt in range(10):          # redraw away from hinge kinks
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 4))
        m = RankingModel(U=rng.normal(size=(3, 3)),
                         V=rng.normal(size=(3, 4)))
        cfg = RankTrainConfig(alpha=0.3, k_contrastive=k)
        cseed = (seed, attempt)
        params = {"U": m.U.copy(), "V": m.V.copy()}

        def loss(ps):
            cur = RankingModel(U=ps["U"], V=ps["V"])
            return ranking_grads(X, Y, cur, cfg, contrastive_seed=cseed)[0]

        value, grads = ranking_grads(X, Y, m, cfg, contrastive_seed=cseed)
        if value == 0.0:
            continue
        err = finite_diff_check(loss, params, grads)
        if err < 1e-4:
            return err
    raise AssertionError("no kink-free ranking instance in 10 draws")


@_criterion(1, "finite-difference gradient checks, all losses, err < 1e-4")
def test_criterion_1_gradients():
    t0 = time.perf_counter()
    errs = {
        "encoder-uni": _fd_encoder("uni", seed=101),
        "encoder-bi": _fd_encoder("bi", seed=102),
        "decoder": _fd_decoder(seed=103),
        "triple-uni": _fd_triple("uni", seed=104),
        "triple-bi": _fd_triple("bi", seed=105),
        "logreg": _fd_logreg(seed=106),
        "ranking": _fd_ranking(seed=107),
    }
    elapsed = time.perf_counter() - t0
    for name, err in errs.items():
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. memorization
# ---------------------------------------------------------------------------

@_criterion(2, "20-triple memorization to <10% of uniform loss in <=2000 steps")
def test_criterion_2_memorization(tmp_path):
    rng = np.random.default_rng(7)
    vocab = make_vocab(30)

    def sent():
        n = int(rng.integers(2, 6))
        return tuple(int(t) for t in rng.integers(2, 30, size=n)) + (0,)

    triples = [SentenceTriple(sent(), sent(), sent()) for _ in range(20)]
    baseline = float(np.mean([len(t.prev) + len(t.next)
                              for t in triples])) * np.log(30.0)

    config = TrainConfig(embed_dim=16, hidden_dim=32, vocab_size=30,
                         batch_size=20, max_steps=0, seed=1, alpha=0.01,
                         checkpoint_every=0)
    model, opt = SkipGruModel.init(vocab, config), None
    t0 = time.perf_counter()
    mean_loss = baseline
    for steps in range(100, 2001, 100):        # check every 100 steps
        import dataclasses
        cfg = dataclasses.replace(model.config, max_steps=steps)
        model = dataclasses.replace(model, config=cfg)
        opt = train(model, triples, opt, tmp_path / "m.csv",
                    tmp_path / "m.ckpt").opt
        mean_loss = float(np.mean([triple_loss(model, t) for t in triples]))
        if mean_loss < 0.1 * baseline:
            break
    elapsed = time.perf_counter() - t0
    assert mean_loss < 0.1 * baseline, (
        f"mean loss {mean_loss:.2f} vs baseline {baseline:.2f} "
        f"after {opt.step} steps")
    assert opt.step <= 2000
    assert elapsed < 120.0, f"memorization took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. relatedness readout
# ---------------------------------------------------------------------------

@_criterion(3, "score<->distribution round trip and synthetic probe r > 0.95")
def test_criterion_3_relatedness_readout():
    for y in np.linspace(1.0, 5.0, 500):
        back = distribution_to_score(score_to_distribution(float(y)))
        assert abs(back - y) < 1e-12

    # Gold scores generated by the probe's own model class (noiseless):
    # y = r . softmax(W phi(u, v) + b).
    rng = np.random.default_rng(33)
    d = 4
    W_true = 1.5 * rng.normal(size=(5, 2 * d))
    b_true = rng.normal(size=5)
    r = np.arange(1.0, 6.0)

    def make_split(n):
        U = rng.normal(size=(n, d))
        Vv = rng.normal(size=(n, d))
        X = np.vstack([pair_features(u, v) for u, v in zip(U, Vv)])
        logits = X @ W_true.T + b_true
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return X, (e / e.sum(axis=1, keepdims=True)) @ r

    X_train, y_train = make_split(300)
    X_test, y_test = make_split(120)
    probe = fit_relatedness(X_train, y_train, l2=1e-4)
    rho = pearson(predict_scores(probe, X_test), y_test)
    assert rho > 0.95, f"pearson {rho:.4f}"


# ---------------------------------------------------------------------------
# 4. vocabulary expansion
# ---------------------------------------------------------------------------

def _planted_expansion(noise, n_shared, seed=0, rnn_dim=5, ext_dim=4):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rnn_dim, ext_dim))
    tokens = [f"w{i}" for i in range(2, n_shared + 2)]
    Xext = rng.normal(size=(n_shared, ext_dim))
    model = make_model(vocab_size=n_shared + 2, embed_dim=rnn_dim,
                       hidden_dim=3, seed=seed)
    emb = model.embedding.copy()
    for i, tok in enumerate(tokens):
        row = model.vocab.token_to_id[tok]
        emb[row] = A @ Xext[i] + noise * rng.normal(size=rnn_dim)
    params = dict(model.param_dict(), emb=emb)
    model = model_from_params(model.config, model.vocab, params)
    ext = ExternalEmbeddings(tokens=tokens, vectors=Xext)
    return A, fit_expansion(ext, model)


@_criterion(4, "planted expansion-map recovery, exact and with noise")
def test_criterion_4_expansion_recovery():
    rnn_dim, ext_dim = 5, 4
    A, emap = _planted_expansion(noise=0.0, n_shared=2 * max(rnn_dim, ext_dim))
    assert emap.shared_count >= 2 * max(rnn_dim, ext_dim)
    assert np.max(np.abs(emap.W - A)) < 1e-6
    assert emap.residual_rms < 1e-8
    _, emap = _planted_expansion(noise=0.01, n_shared=40, seed=1)
    assert 0.005 < emap.residual_rms < 0.02, emap.residual_rms


# ---------------------------------------------------------------------------
# 5. ranking
# ---------------------------------------------------------------------------

@_criterion(5, "planted ranking dev R@1 >= 90% in 15 epochs; random baseline")
def test_criterion_5_ranking():
    rng = np.random.default_rng(0)
    n_train, n_dev, dim = 100, 25, 16
    z = rng.normal(size=(n_train + n_dev, dim))
    X = z + 0.02 * rng.normal(size=z.shape)    # images
    Y = z + 0.02 * rng.normal(size=z.shape)    # captions
    model = init_ranking_model(dim, dim, dim, seed=0)
    cfg = RankTrainConfig(batch_size=25, learning_rate=0.05, seed=0,
                          alpha=0.2, k_contrastive=10)
    result = train_ranker((X[:n_train], Y[:n_train]), model, 15,
                          (X[n_train:], Y[n_train:]), cfg)
    best = max(h["dev_r1"] for h in result.history)
    assert best >= 90.0, f"best dev R@1 {best:.1f}%"

    # Random-score baseline at N = 1000: R@1 within 3 sigma of 100/N %
    # (binomial, sigma ~ 1 hit) and median rank within 3 sigma of N/2
    # (sample median of uniform ranks, sigma ~ N / (2 sqrt(N))).
    N = 1000
    Xr = rng.normal(size=(N, 8))
    Yr = rng.normal(size=(N, 8))
    base = init_ranking_model(8, 8, 8, seed=3)
    res = evaluate_retrieval(Xr, Yr, base, group_size=1)
    for direction in ("annotation", "search"):
        r1 = res[direction].recall_at[1]
        medr = res[direction].median_rank
        assert r1 <= (1 + 3) * 100.0 / N, f"{direction} R@1 {r1}%"
        assert abs(medr - N / 2) <= 3 * N / (2 * np.sqrt(N)) + 1, (
            f"{direction} medr {medr}")


# ---------------------------------------------------------------------------
# 6. determinism
# ---------------------------------------------------------------------------

CORPUS6 = (
    "the cat sat on the mat .\nthe dog ran fast .\na bird flew home .\n"
    "the cat ran away .\n\nthe small dog sat down .\na red bird came back .\n"
    "the fast cat flew up .\n"
)


def _strip_wall_ms(text: str) -> str:
    return "\n".join(",".join(line.split(",")[:4])
                     for line in text.splitlines())


def _run_pipeline(root):
    corpus = root / "corpus.txt"
    corpus.write_text(CORPUS6, encoding="utf-8")
    vocab = root / "vocab.txt"
    assert main(["build-vocab", "--corpus", str(corpus), "--size", "20",
                 "--out", str(vocab)]) == 0
    ckpt = root / "m.ckpt"
    metrics = root / "m.csv"
    assert main(["train", "--corpus", str(corpus), "--vocab", str(vocab),
                 "--embed-dim", "4", "--hidden-dim", "4", "--batch", "3",
                 "--steps", "12", "--seed", "9", "--metrics", str(metrics),
                 "--out", str(ckpt)]) == 0
    inp = root / "in.txt"
    inp.write_text("the cat sat .\nthe dog ran .\na bird flew .\n")
    vec = root / "v.bin"
    assert main(["encode", "--ckpt", str(ckpt), "--input", str(inp),
                 "--out", str(vec)]) == 0
    rank = root / "rank.csv"
    assert main(["eval-rank", "--ckpt", str(ckpt), "--images", str(vec),
                 "--captions", str(inp), "--group-size", "1",
                 "--train-items", "2", "--dev-items", "1", "--embed-dim",
                 "4", "--k-contrastive", "1", "--epochs", "0", "--init",
                 "identity", "--out", str(rank)]) == 0
    return {
        "vocab": vocab.read_bytes(),
        "ckpt": ckpt.read_bytes(),
        "vectors": vec.read_bytes(),
        "rank_metrics": rank.read_bytes(),
        "train_metrics": _strip_wall_ms(metrics.read_text()),
    }


@_criterion(6, "rerun with identical flags is byte-identical")
def test_criterion_6_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _run_pipeline(a)
    second = _run_pipeline(b)
    for key in first:
        assert first[key] == second[key], f"{key} differs between reruns"


# ---------------------------------------------------------------------------
# 7. bidirectional contract
# ---------------------------------------------------------------------------

@_criterion(7, "bi = 2x hidden with exact forward half; combine = uni + bi")
def test_criterion_7_bidirectional(rng):
    hidden = 3
    bi = make_model(vocab_size=8, embed_dim=3, hidden_dim=hidden, mode="bi",
                    seed=5)
    uni = make_model(vocab_size=8, embed_dim=3, hidden_dim=4, mode="uni",
                    seed=6)
    tokens = (2, 6, 3, 7, 0)
    vec_bi = encode_with_cache(tokens, bi.encoder)[0]
    assert vec_bi.shape == (2 * hidden,)

    # A uni encoder seeded with the bi model's forward direction must agree
    # bit for bit on the first half.
    fwd_only = EncoderModel(embedding=bi.encoder.embedding,
                            forward=bi.encoder.forward)
    assert np.array_equal(vec_bi[:hidden],
                          encode_with_cache(tokens, fwd_only)[0])

    # Combine mode concatenates the two models' vectors for the same line.
    combined = _encode_lines(["w2 w6 w3 w7"],
                             [ExpandedLookup(uni), ExpandedLookup(bi)])[0]
    assert combined.shape == (uni.encoder.output_dim + bi.encoder.output_dim,)
    assert np.array_equal(combined[:4],
                          encode_with_cache(tokens, uni.encoder)[0])
    assert np.array_equal(combined[4:], vec_bi)


# ---------------------------------------------------------------------------
# 8. generation
# ---------------------------------------------------------------------------

@_criterion(8, "100 seeded generation runs, eos-terminated, in-vocabulary")
def test_criterion_8_generation():
    model = randomize_params(make_model(vocab_size=12, embed_dim=4,
                                        hidden_dim=5, seed=2), seed=3,
                             scale=0.5)
    for seed in range(100):
        story = generate_story(model, "w2 w5 w3", n_sentences=3,
                               temperature=1.0, seed=seed, max_len=8)
        assert len(story) == 3
        for ids in story:
            assert ids[-1] == model.vocab.eos_id
            assert all(0 <= t < model.vocab.size for t in ids)
            assert len(ids) <= 9               # max_len tokens plus eos
