"""Numeric core: init schemes, clipping, Adam, L-BFGS, and two helpers of
reference.py: the finite-difference checker and the uniform initializer.

Derived-value oracles used here: scalar hand computations of the Adam update,
the one-expression-per-array Adam of reference.py, scipy's L-BFGS-B and
closed-form minimizers for lbfgs, and closed-form derivatives for the
finite-difference checker's own sanity cases.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipgru import numerics
from skipgru.errors import NumericError, ParameterError, ShapeError
from skipgru.numerics import (ADAM_BLOCK, AdamState, adam_step, clip_gradients,
                              get_rng, global_norm, orthogonal_init,
                              seed_tuple, sigmoid, softmax)

import reference
from reference import finite_diff_check, log_softmax, uniform_init


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def test_orthogonal_init_square_gram():
    q = orthogonal_init(4, 4, seed=1)
    assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-6


def test_orthogonal_init_one_by_one():
    q = orthogonal_init(1, 1, seed=0)
    assert abs(abs(q[0, 0]) - 1.0) < 1e-12


def test_orthogonal_init_rectangular_gram():
    q = orthogonal_init(6, 3, seed=2)
    assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-6


@given(rows=st.integers(1, 8), cols=st.integers(1, 8), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_orthogonal_init_gram_property(rows, cols, seed):
    q = orthogonal_init(rows, cols, seed)
    gram = q.T @ q if rows >= cols else q @ q.T
    assert np.max(np.abs(gram - np.eye(min(rows, cols)))) < 1e-6


def test_orthogonal_init_deterministic():
    assert np.array_equal(orthogonal_init(5, 5, seed=9),
                          orthogonal_init(5, 5, seed=9))


# reference.uniform_init draws the reference builders' uniform matrices.

def test_uniform_init_range_and_determinism():
    w = uniform_init(2, 2, -0.1, 0.1, seed=3)
    assert np.all(w >= -0.1) and np.all(w <= 0.1)
    assert np.array_equal(w, uniform_init(2, 2, -0.1, 0.1, seed=3))


def test_uniform_init_degenerate_interval():
    w = uniform_init(1, 1, 0.0, 1e-9, seed=0)
    assert abs(w[0, 0]) <= 1e-9


def test_uniform_init_sample_mean():
    w = uniform_init(100, 100, -0.1, 0.1, seed=5)
    assert abs(float(np.mean(w))) < 0.01


def test_uniform_init_bad_interval():
    with pytest.raises(ParameterError):
        uniform_init(2, 2, 0.5, 0.5, seed=0)


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def test_clip_below_threshold_is_bitwise_identity():
    a = np.array([3.0, 4.0])                             # norm 5
    g = {"a": a}
    assert clip_gradients(g, 10.0, global_norm(g)) is False
    assert g["a"] is a
    assert np.array_equal(a, [3.0, 4.0])


def test_clip_at_boundary_unchanged():
    g = {"a": np.array([6.0, 8.0])}                      # norm 10 exactly
    assert clip_gradients(g, 10.0, global_norm(g)) is False
    assert np.array_equal(g["a"], [6.0, 8.0])


def test_clip_scales_by_half():
    a = np.array([12.0, 16.0])                           # norm 20
    g = {"a": a}
    assert clip_gradients(g, 10.0, global_norm(g)) is True
    assert g["a"] is a
    assert np.max(np.abs(a - np.array([6.0, 8.0]))) < 1e-9


def test_clip_scales_by_the_norm_it_is_given():
    # The caller has measured the norm; clipping does not measure it again.
    g = {"a": np.array([3.0, 4.0])}                      # norm 5
    assert clip_gradients(g, 1.0, 10.0) is True
    assert np.array_equal(g["a"], np.array([3.0, 4.0]) * 0.1)


def test_clip_global_norm_across_parameters():
    g = {"a": np.full((2,), 10.0), "b": np.full((2,), 10.0)}   # norm 20
    assert clip_gradients(g, 10.0, global_norm(g)) is True
    assert abs(global_norm(g) - 10.0) < 1e-9


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_clip_refuses_a_threshold_that_is_not_positive(threshold):
    g = {"a": np.array([3.0, 4.0])}
    with pytest.raises(ParameterError):
        clip_gradients(g, threshold, 5.0)
    assert np.array_equal(g["a"], [3.0, 4.0])


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=6),
       st.floats(0.5, 20))
@settings(max_examples=60, deadline=None)
def test_clip_idempotent_and_nonincreasing(vals, threshold):
    g = {"a": np.array(vals)}
    once = {"a": np.array(vals)}
    clipped = clip_gradients(once, threshold, global_norm(once))
    assert clipped == (global_norm(g) > threshold)
    twice = {"a": once["a"].copy()}
    clip_gradients(twice, threshold, global_norm(twice))
    assert global_norm(once) <= global_norm(g) + 1e-12
    assert np.max(np.abs(twice["a"] - once["a"])) < 1e-9


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _copy(d):
    return {k: a.copy() for k, a in d.items()}


def test_adam_zero_gradient_is_identity():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    st_ = AdamState.initial(p)
    g = {"w": np.zeros(3)}
    assert adam_step(p, g, st_, alpha=0.1) is None
    assert np.array_equal(p["w"], [1.0, -2.0, 3.0])
    assert st_.step == 1


def test_adam_first_step_hand_computation():
    # Bias correction makes the first update alpha * g/(|g| + eps'): ~0.1.
    p = {"w": np.array([1.0])}
    st_ = AdamState.initial(p)
    adam_step(p, {"w": np.array([1.0])}, st_, alpha=0.1)
    assert abs(p["w"][0] - 0.9) < 1e-6


def _scalar_adam(p, grads, alpha=0.1, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-arithmetic Adam oracle on one scalar parameter."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - alpha * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_two_steps_match_scalar_oracle():
    p = {"w": np.array([1.0])}
    st_ = AdamState.initial(p)
    g = {"w": np.array([1.0])}
    adam_step(p, g, st_, alpha=0.1)
    p1 = p["w"][0]
    adam_step(p, g, st_, alpha=0.1)
    p2 = p["w"][0]
    assert abs(p2 - _scalar_adam(1.0, [1.0, 1.0])) < 1e-10
    # Second step also moves by roughly -alpha for a repeated unit gradient.
    assert abs((p2 - p1) + 0.1) < 1e-2


def test_adam_shape_mismatch():
    p = {"w": np.zeros(3)}
    st_ = AdamState.initial(p)
    with pytest.raises(ShapeError):
        adam_step(p, {"w": np.zeros(4)}, st_)


def test_adam_step_counter_strictly_increases():
    p = {"w": np.zeros(2)}
    st_ = AdamState.initial(p)
    for want in (1, 2, 3):
        adam_step(p, {"w": np.ones(2)}, st_)
        assert st_.step == want


ADAM_SHAPES = {"emb": (2000, 64), "V": (2000, 128), "U": (64, 64),
               "begin": (64,)}
# The step size of _adam_problem's updates.
ALPHA = 0.01


def _adam_problem(seed=0):
    rng = np.random.default_rng(seed)
    params = {k: rng.standard_normal(s) for k, s in ADAM_SHAPES.items()}
    state = AdamState.initial(params)
    grads = [{k: rng.standard_normal(s) * 10.0 ** -i
              for k, s in ADAM_SHAPES.items()} for i in range(4)]
    return params, state, grads


def test_adam_is_bit_identical_to_the_expression_oracle(monkeypatch):
    # Every operation is elementwise, so the block size cannot change a bit.
    for block in (ADAM_BLOCK, 999):
        monkeypatch.setattr(numerics, "ADAM_BLOCK", block)
        params, state, grads = _adam_problem()
        rp = _copy(params)
        rs = replace(state, m=_copy(state.m), v=_copy(state.v))
        for g in grads:
            adam_step(params, g, state, ALPHA)
            rp, rs = reference.adam_step(rp, g, rs, ALPHA)
            assert state.step == rs.step
            for k in ADAM_SHAPES:
                assert np.array_equal(params[k], rp[k])
                assert np.array_equal(state.m[k], rs.m[k])
                assert np.array_equal(state.v[k], rs.v[k])


def test_adam_updates_its_own_arrays_in_place():
    params, state, grads = _adam_problem()
    adam_step(params, grads[0], state, ALPHA)
    arrays = [dict(d) for d in (params, state.m, state.v)]
    before = [_copy(d) for d in (params, state.m, state.v)]
    g_before = _copy(grads[1])
    want_p, want_s = reference.adam_step(*before[:1], grads[1],
                                         replace(state, m=before[1], v=before[2]),
                                         ALPHA)
    adam_step(params, grads[1], state, ALPHA)
    assert state.step == 2
    for d, same, want in zip((params, state.m, state.v), arrays,
                             (want_p, want_s.m, want_s.v)):
        for k in ADAM_SHAPES:
            assert d[k] is same[k]
            assert np.array_equal(d[k], want[k])
    for k in ADAM_SHAPES:
        assert np.array_equal(grads[1][k], g_before[k])
        assert not np.array_equal(params[k], before[0][k])


def _fortran(arrays):
    return {k: np.asfortranarray(a) for k, a in arrays.items()}


@pytest.mark.parametrize("grad_order", ["F", "C"])
def test_adam_on_column_major_arrays_is_bit_identical_to_the_oracle(grad_order):
    # Training keeps V, its gradient and its moments column-major: adam_step
    # walks them in that memory order, in place, with the oracle's bits.  A
    # gradient in the other order is refused before anything is written:
    # walked flat, it would step each entry by another entry's gradient.
    params, state, grads = _adam_problem()
    rp, rs = _copy(params), replace(state, m=_copy(state.m), v=_copy(state.v))
    params = _fortran(params)
    state = replace(state, m=_fortran(state.m), v=_fortran(state.v))
    arrays = [dict(d) for d in (params, state.m, state.v)]
    for g in grads:
        laid_out = {k: np.asarray(a, order=grad_order) for k, a in g.items()}
        if grad_order == "F":
            adam_step(params, laid_out, state, ALPHA)
            rp, rs = reference.adam_step(rp, g, rs, ALPHA)
        else:
            with pytest.raises(ParameterError, match="grad 'emb'"):
                adam_step(params, laid_out, state, ALPHA)
        assert state.step == rs.step
        for d, want in zip((params, state.m, state.v), (rp, rs.m, rs.v)):
            for k in ADAM_SHAPES:
                assert np.array_equal(d[k], want[k]), k
    for d, same in zip((params, state.m, state.v), arrays):
        for k in ADAM_SHAPES:
            assert d[k] is same[k] and d[k].flags.f_contiguous


def test_global_norm_reads_column_major_arrays_without_a_copy():
    rng = np.random.default_rng(3)
    rows = {"V": rng.standard_normal((2000, 128)), "b": rng.standard_normal(7)}
    cols = _fortran(rows)
    want = global_norm(rows)
    tracemalloc.start()
    try:
        got = global_norm(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) <= 1e-14 * want
    assert peak < 0.1 * rows["V"].nbytes


def _bad_last_key(params, grads, state):
    last = list(params)[-1]
    grads[last + "x"] = grads.pop(last)


def _bad_last_moment_key(params, grads, state):
    last = list(params)[-1]
    state.v[last + "x"] = state.v.pop(last)


def _bad_last_shape(params, grads, state):
    last = list(params)[-1]
    state.v[last] = np.zeros(state.v[last].size + 1)


def _read_only_last_param(params, grads, state):
    params[list(params)[-1]].flags.writeable = False


def _strided_last_moment(params, grads, state):
    last = list(params)[-1]
    state.m[last] = np.zeros(2 * state.m[last].size)[::2]


def _grad_in_another_order(params, grads, state):
    # Row-major V and a column-major gradient: each entry of V would be
    # stepped by another entry's gradient if both were walked flat.
    grads["V"] = np.asfortranarray(grads["V"])


def _strided_last_grad(params, grads, state):
    last = list(params)[-1]
    grads[last] = np.zeros(2 * grads[last].size)[::2]


def _moment_in_another_order(params, grads, state):
    # Contiguous, but its flat view would pair each entry of the row-major V
    # with another entry's second moment.
    state.v["V"] = np.asfortranarray(state.v["V"])


@pytest.mark.parametrize("spoil,error", [
    (_bad_last_key, ShapeError), (_bad_last_moment_key, ShapeError),
    (_bad_last_shape, ShapeError),
    (_read_only_last_param, ParameterError),
    (_strided_last_moment, ParameterError),
    (_grad_in_another_order, ParameterError),
    (_strided_last_grad, ParameterError),
    (_moment_in_another_order, ParameterError)])
def test_adam_validates_every_array_before_writing(spoil, error):
    params, state, grads = _adam_problem()
    adam_step(params, grads[0], state, ALPHA)
    spoil(params, grads[1], state)
    before = [_copy(d) for d in (params, state.m, state.v)]
    with pytest.raises(error):
        adam_step(params, grads[1], state, ALPHA)
    assert state.step == 1
    for d, c in zip((params, state.m, state.v), before):
        for k in c:
            assert np.array_equal(d[k], c[k])


def _adam_peak(step, params, grads, state) -> int:
    tracemalloc.start()
    try:
        step(params, grads, state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_allocates_only_its_block_scratch():
    params, state, grads = _adam_problem()
    adam_step(params, grads[0], state, ALPHA)
    total = sum(a.nbytes for a in params.values())
    # Two scratch buffers of ADAM_BLOCK float64 each: 512 KiB.
    assert _adam_peak(adam_step, params, grads[1], state) < 1024 * 1024
    # The expression oracle builds new params, m and v and its temporaries.
    assert _adam_peak(reference.adam_step, params, grads[1], state) > 3 * total


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------

def test_fd_quadratic_loss():
    params = {"p": np.array([0.3, -1.2, 2.0])}

    def loss(ps):
        return 0.5 * float(np.sum(ps["p"] ** 2))

    err = finite_diff_check(loss, params, {"p": params["p"].copy()})
    assert err < 1e-6


def test_fd_tanh_loss():
    params = {"p": np.array([0.1, -0.4, 0.9, 1.5])}

    def loss(ps):
        return float(np.sum(np.tanh(ps["p"])))

    analytic = {"p": 1.0 - np.tanh(params["p"]) ** 2}
    assert finite_diff_check(loss, params, analytic) < 1e-5


def test_fd_flags_wrong_gradient():
    params = {"p": np.array([0.5, 1.0])}

    def loss(ps):
        return 0.5 * float(np.sum(ps["p"] ** 2))

    err = finite_diff_check(loss, params, {"p": 2.0 * params["p"]})
    assert abs(err - 1.0 / 3.0) < 1e-3


def test_fd_rejects_nonfinite_loss():
    params = {"p": np.array([1.0])}
    with pytest.raises(NumericError):
        finite_diff_check(lambda ps: float("nan"), params,
                          {"p": np.zeros(1)})


def test_fd_restores_parameters():
    params = {"p": np.array([0.25, -0.75])}
    before = params["p"].copy()
    finite_diff_check(lambda ps: float(np.sum(ps["p"])), params,
                      {"p": np.ones(2)})
    assert np.array_equal(params["p"], before)


# ---------------------------------------------------------------------------
# seeding and elementwise helpers
# ---------------------------------------------------------------------------

def test_seed_tuple_streams_are_distinct():
    a = get_rng(seed_tuple(7, "epoch", 0)).uniform(size=4)
    b = get_rng(seed_tuple(7, "epoch", 1)).uniform(size=4)
    c = get_rng(seed_tuple(7, "init")).uniform(size=4)
    assert not np.array_equal(a, b) and not np.array_equal(a, c)


def test_seed_tuple_flattens_composed_seeds():
    inner = seed_tuple(3, "cv-inner", 2)
    assert seed_tuple(inner, "cv-folds") == seed_tuple(3, "cv-inner", 2,
                                                       "cv-folds")


def test_seed_tuple_deterministic():
    assert seed_tuple(1, "x", 2) == seed_tuple(1, "x", 2)


def test_sigmoid_matches_formula(rng):
    x = rng.normal(size=20) * 3
    assert np.max(np.abs(sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) < 1e-12


SIGMOID_EDGES = [-1e3, -709.8, -37.0, 0.0, 37.0, 709.8, 1e3]


@pytest.mark.parametrize("x", [
    np.array(SIGMOID_EDGES),
    np.concatenate([np.linspace(-750.0, 750.0, 30001),
                    np.random.default_rng(0).normal(size=30000) * 8])])
def test_sigmoid_raises_no_fp_error_and_agrees_with_expit(x):
    # exp(-x) would overflow below -709.78 and underflow above 708.4; the
    # clamp keeps every step finite and normal, so even an errstate that
    # raises on underflow sees nothing.  Wherever expit's value is a normal
    # float the two differ only in how exp rounds: a few ulp.
    from scipy.special import expit
    with np.errstate(all="raise"):
        got = sigmoid(x)
        inplace = x.copy()
        assert sigmoid(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, got)
    assert np.all((got >= 0.0) & (got <= 1.0))
    want = expit(x)
    normal = want >= np.finfo(np.float64).tiny
    assert np.all(np.abs(got - want)[normal] <= 4 * np.spacing(want[normal]))
    assert np.all(got[~normal] < 2 * np.finfo(np.float64).tiny)
    assert np.all(got[x >= 37.0] == 1.0)


def test_sigmoid_keeps_nan():
    assert np.isnan(sigmoid(np.array([np.nan, 0.0]))).tolist() == [True, False]


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(4, 6)) * 10)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12
    assert np.all(p > 0)


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=8)
    assert np.max(np.abs(softmax(x) - softmax(x + 123.0))) < 1e-12


def test_log_softmax_consistent_with_softmax(rng):
    x = rng.normal(size=(3, 5))
    assert np.max(np.abs(np.exp(log_softmax(x)) - softmax(x))) < 1e-12


def test_softmax_survives_large_logits():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# add_matmul: the V-gradient dgemm on numpy's OpenBLAS
# ---------------------------------------------------------------------------

@pytest.fixture
def one_blas_thread():
    """numpy's and scipy's OpenBLAS copies each on one thread: at two,
    OpenBLAS may split a product another way in each copy."""
    import ctypes

    import scipy.linalg._fblas
    scipy_blas = ctypes.CDLL(scipy.linalg._fblas.__file__)
    before = numerics.blas_threads(), scipy_blas.scipy_openblas_get_num_threads()
    numerics.use_one_blas_thread()
    scipy_blas.scipy_openblas_set_num_threads(1)
    assert numerics.blas_threads() == 1
    yield
    numerics._openblas().set_threads(before[0])
    scipy_blas.scipy_openblas_set_num_threads(before[1])


@pytest.mark.parametrize("vocab", [300, 2000, 20000])
def test_add_matmul_gives_the_bits_of_scipy_dgemm(vocab, one_blas_thread):
    # The output layer's call: G.T (column-major view of the C-order logits
    # gradient) times the C-order states S, added into a column-major V
    # gradient; scipy's dgemm was that call before.
    from scipy.linalg.blas import dgemm
    rng = np.random.default_rng(vocab)
    for rows in (17, 64, 90):
        G, S = rng.normal(size=(rows, vocab)), rng.normal(size=(rows, 128))
        want = np.asfortranarray(rng.normal(size=(vocab, 128)))
        got = want.copy(order="F")
        dgemm(1.0, G.T, S.T, trans_b=1, beta=1.0, c=want, overwrite_c=1)
        assert numerics.add_matmul(got, G.T, S) is None
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order_a", "CF")
@pytest.mark.parametrize("order_b", "CF")
def test_add_matmul_reads_either_order(order_a, order_b, rng):
    a = np.asarray(rng.normal(size=(5, 3)), order=order_a)
    b = np.asarray(rng.normal(size=(3, 4)), order=order_b)
    out = np.asfortranarray(rng.normal(size=(5, 4)))
    want = out + a @ b
    numerics.add_matmul(out, a, b)
    assert np.max(np.abs(out - want)) < 1e-12


def _read_only(x):
    x.flags.writeable = False
    return x


def _refused_add_matmuls():
    """(out, a, b, the refusal's message) of each call add_matmul must
    refuse, by name."""
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 5))
    out = np.asfortranarray(rng.normal(size=(6, 5)))
    shared = np.asfortranarray(rng.normal(size=(6, 9)))
    square = np.asfortranarray(rng.normal(size=(4, 4)))
    return {
        "out-c-order": (np.ascontiguousarray(out), a, b, "column-major"),
        "out-float32": (out.astype(np.float32, order="F"), a, b, "float64"),
        "a-float32": (out, a.astype(np.float32), b, "float64"),
        "b-int": (out, a, b.astype(np.int64), "float64"),
        "inner-mismatch": (out, a, b[:3], "cannot add"),
        "out-shape": (np.asfortranarray(out[:, :4]), a, b, "cannot add"),
        "a-strided": (out, rng.normal(size=(6, 8))[:, ::2], b, "contiguous"),
        "out-read-only": (_read_only(out.copy(order="F")), a, b, "writeable"),
        "out-overlaps-a": (shared[:, :5], shared[:, 3:7], b, "overlaps"),
        "out-is-b": (square, a[:4], square, "overlaps"),
    }


@pytest.mark.parametrize("case", list(_refused_add_matmuls()))
def test_add_matmul_refusal_leaves_out_unchanged(case):
    out, a, b, message = _refused_add_matmuls()[case]
    before = out.copy(order="K")
    with pytest.raises(ParameterError, match=message):
        numerics.add_matmul(out, a, b)
    assert np.array_equal(out, before)


# ---------------------------------------------------------------------------
# lbfgs: the linear probes' minimizer
# ---------------------------------------------------------------------------

def _probe_problem(C, soft):
    """Features and hard or soft targets of a probe fit with C classes."""
    rng = np.random.default_rng(C)
    X = rng.normal(size=(60, 8)) * 2.0
    if soft:
        return X, rng.dirichlet(np.ones(C), size=60)
    return X, np.eye(C)[rng.integers(0, C, size=60)]


@pytest.mark.parametrize("l2", [1e-4, 1.0, 100.0])
@pytest.mark.parametrize("C", [2, 4, 5, 9])
@pytest.mark.parametrize("soft", [False, True])
def test_lbfgs_reaches_the_loss_of_scipy_lbfgsb(soft, C, l2):
    # scipy's L-BFGS-B, run to a tighter gradient than the probes accept, is
    # the oracle of the probe objective's minimum.
    from scipy.optimize import minimize

    from skipgru.probes import logreg_objective
    X, T = _probe_problem(C, soft)
    fun = lambda w: logreg_objective(w, X, T, l2)
    w0 = np.zeros(C * 8 + C)
    got = numerics.lbfgs(fun, w0)
    want = minimize(fun, w0, jac=True, method="L-BFGS-B",
                    options={"maxiter": 20000, "ftol": 0.0, "gtol": 1e-12})
    assert np.linalg.norm(got.grad) < 1e-6
    assert np.linalg.norm(want.jac) < 1e-6
    assert abs(got.value - want.fun) < 1e-8
    assert got.value == fun(got.x)[0] and np.array_equal(got.grad, fun(got.x)[1])
    assert not np.any(w0)


def test_lbfgs_finds_the_minimizer_of_a_convex_quadratic(rng):
    # f(x) = x.A x / 2 - b.x with A of condition number 1e3: x* = A^-1 b.
    q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    A = q @ np.diag(np.logspace(0, 3, 20)) @ q.T
    b = rng.normal(size=20)
    res = numerics.lbfgs(lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b),
                         np.zeros(20))
    assert np.linalg.norm(res.grad) < 1e-8
    assert np.max(np.abs(res.x - np.linalg.solve(A, b))) < 1e-8


def test_lbfgs_shrinks_a_first_step_far_too_long():
    # Near the minimizer of a stiff quadratic the first trial, a unit step
    # along -g, goes 1e7 times too far, as a probe fit on features of 1e-3
    # with l2 = 100 does.  The cubic step lands on the minimizer at once,
    # where halving the bracket would take 24 of the 20 evaluations.
    res = numerics.lbfgs(lambda x: (50.0 * x @ x, 100.0 * x),
                         np.full(4, 4e-8))
    assert np.linalg.norm(res.grad) < 1e-8 and res.nfev <= 5


def test_lbfgs_solves_rosenbrock_from_the_classic_start():
    def rosenbrock(x):
        a, b = x
        value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                         200.0 * (b - a * a)])
        return value, grad
    res = numerics.lbfgs(rosenbrock, np.array([-1.2, 1.0]))
    assert np.linalg.norm(res.grad) < 1e-8
    assert np.max(np.abs(res.x - 1.0)) < 1e-7
    assert res.nfev < 200


def test_lbfgs_takes_a_non_finite_value_for_a_step_too_long():
    # Past x = 1.5 the objective is NaN; the doubling steps from -10 land
    # there, and the search brackets back into the finite part.
    def fun(x):
        if x[0] > 1.5:
            return np.nan, np.array([np.nan])
        return (x[0] - 1.0) ** 2, 2.0 * (x - 1.0)
    with np.errstate(all="raise"):
        res = numerics.lbfgs(fun, np.array([-10.0]))
    assert abs(res.x[0] - 1.0) < 1e-8 and res.value < 1e-16


def test_wolfe_search_stops_on_a_bracket_with_no_float_inside():
    # The first trial, at the smallest float step or at 0, is too long; the
    # bracket it closes holds no float, so the search gives up after that
    # one call.  On (0, 0) a cubic step would divide by zero.
    calls = []

    def phi(step):
        calls.append(step)
        return 1.0, -1.0, None, None
    for step in (5e-324, 0.0):
        calls.clear()
        assert numerics._wolfe_search(phi, 0.0, -1.0, step) is None
        assert calls == [step]
