"""Dense float64 linear algebra, initializers, Adam, gradient clipping, and
the L-BFGS minimizer of the linear probes.

A "matrix" throughout the package is a 2-D contiguous float64 ndarray:
row-major, except that training lays out the output matrix V, its gradient
and its Adam moments column-major.  A "parameter set" is a dict mapping
names to float64 arrays.  The optimizer writes into the arrays it is given:
clip_gradients scales the gradient set in place, and adam_step updates the
parameters and the moment buffers in place, each in the parameter's layout.
An AdamState is only the step count and the moments: adam_step takes its
hyperparameters from the caller, and the ADAM_* constants are their defaults.
sigmoid writes into the `out` array it is given, which may be its input, as
the GRU kernel does with each step's gate block, and add_matmul adds a
product into the column-major `out` it is given.  Every other function here
leaves its inputs unchanged; lbfgs calls the objective it is given on new
arrays only.  Every stochastic operation takes an explicit seed (an int, a
tuple of ints, or a numpy Generator), so two runs with the same seed are
bit-identical.

add_matmul, use_one_blas_thread, blas_threads and blas_core call the
OpenBLAS that numpy itself loads (the scipy-openblas64 build shipped in
numpy's wheels) through ctypes, so no second BLAS is loaded for them.  The
library is looked up on first use, through the symbols of numpy's core
extension module; a numpy linked to another BLAS raises ConfigError there,
naming that BLAS.  One thread keeps a product's bits independent of the
host's core count: OpenBLAS splits some products across threads with another
summation order.  The kernel family, which blas_core names, still follows
the CPU, and products of two families can differ in their last bits.
"""

from __future__ import annotations

import ctypes
import functools
import math
import zlib
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError

ParamSet = dict[str, np.ndarray]


def get_rng(seed) -> np.random.Generator:
    """Return a Generator for `seed`; Generators pass through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_tuple(*parts) -> tuple[int, ...]:
    """Entropy tuple for an independent named stream.

    String parts hash via crc32 so e.g. (seed, "epoch", 3) and (seed, "init")
    give unrelated generators; ints are masked to the unsigned 64-bit range
    default_rng accepts.  Tuple parts flatten in place, so a seed that is
    itself a seed_tuple composes without nesting.
    """
    out: list[int] = []
    for p in parts:
        if isinstance(p, str):
            out.append(zlib.crc32(p.encode("utf-8")))
        elif isinstance(p, tuple):
            out.extend(seed_tuple(*p))
        else:
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return tuple(out)


# exp(-x) and 1 / (1 + exp(-x)) stay normal floats for |x| up to this bound,
# -log of the smallest normal float64.  sigmoid's constants are 0-d arrays:
# numpy takes them without converting a Python float on every call, which
# saves about a sixth of a call on one sequence's (2, hidden) gate block.
_SIGMOID_BOUND = -math.log(np.finfo(np.float64).tiny)
_BOUNDS = np.array(_SIGMOID_BOUND), np.array(-_SIGMOID_BOUND)
_ONE = np.array(1.0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) of an array, elementwise; written
    into `out` (which may be x itself) when given, else into a new array.

    It runs as six numpy ufunc calls over the whole array, so one call on a
    GRU step's (r, z) gate block pays their overhead once.  x is clamped to
    [-_SIGMOID_BOUND, _SIGMOID_BOUND] first, so that no step overflows or
    underflows and no floating-point error is raised under any np.errstate:
    below -_SIGMOID_BOUND the result stays at about the smallest normal
    float, 2.2e-308, where the exact value would be subnormal or 0, and
    above the bound it is 1, as it is from x = 37 on.  NaN stays NaN.
    """
    out = np.negative(x, out=out)
    np.minimum(out, _BOUNDS[0], out=out)
    np.maximum(out, _BOUNDS[1], out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    return np.reciprocal(out, out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted; rows sum to 1 up to rounding."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


# CBLAS enum values (cblas.h).
_COL_MAJOR, _NO_TRANS, _TRANS = 102, 111, 112


class _OpenBlas:
    """The entry points of numpy's OpenBLAS, typed for the 64-bit-integer
    interface that its scipy-openblas64 build exports."""

    def __init__(self):
        from numpy._core import _multiarray_umath
        # dlsym through the extension's handle also searches the libraries it
        # links, so this finds the OpenBLAS that numpy's own products run on.
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        try:
            self.dgemm = lib.scipy_cblas_dgemm64_
            self.set_threads = lib.scipy_openblas_set_num_threads64_
            self.get_threads = lib.scipy_openblas_get_num_threads64_
            self.core = lib.scipy_openblas_get_corename64_
        except AttributeError:
            raise ConfigError(f"numpy's BLAS ({blas_name()}) is not the "
                              "scipy-openblas64 build that numpy's wheels "
                              "ship; skipgru needs that build") from None
        i, n, p = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
        self.dgemm.argtypes = [i, i, i, n, n, n, ctypes.c_double, p, n, p, n,
                               ctypes.c_double, p, n]
        self.dgemm.restype = None
        self.set_threads.argtypes, self.set_threads.restype = [i], None
        self.get_threads.argtypes, self.get_threads.restype = [], i
        self.core.argtypes, self.core.restype = [], ctypes.c_char_p


@functools.cache
def _openblas() -> _OpenBlas:
    return _OpenBlas()


def blas_name() -> str:
    """Name and version of the BLAS numpy is built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def use_one_blas_thread() -> None:
    """Run every product of numpy's OpenBLAS on one thread from now on,
    whatever OPENBLAS_NUM_THREADS says."""
    _openblas().set_threads(1)


def blas_threads() -> int:
    """The thread count numpy's OpenBLAS now runs with."""
    return _openblas().get_threads()


def blas_core() -> str:
    """The kernel family ("core type") numpy's OpenBLAS runs its products
    with, such as SkylakeX or Haswell: chosen for the host's CPU when the
    library loads, unless OPENBLAS_CORETYPE names another."""
    return _openblas().core().decode("ascii")


def _blas_operand(x: np.ndarray) -> tuple[int, int]:
    """(CBLAS transpose flag, leading dimension) under which a contiguous
    2-D array is read in place as a column-major matrix."""
    if x.flags.f_contiguous:
        return _NO_TRANS, max(1, x.shape[0])
    return _TRANS, max(1, x.shape[1])


def add_matmul(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a @ b in place, by one dgemm of numpy's OpenBLAS (beta = 1).

    `out` must be a writeable column-major (m, n) float64 array that shares
    no memory with `a` or `b`; a (m, k) and b (k, n) are float64 arrays, each
    contiguous in either order, read without a copy.  Anything else raises
    ParameterError before anything is written.
    """
    for name, x in (("out", out), ("a", a), ("b", b)):
        if (not isinstance(x, np.ndarray) or x.ndim != 2
                or x.dtype != np.float64):
            raise ParameterError(f"add_matmul's {name} must be a 2-D float64 "
                                 "array")
        if not (x.flags.f_contiguous or x.flags.c_contiguous):
            raise ParameterError(f"add_matmul's {name} must be contiguous")
    (m, k), n = a.shape, b.shape[1]
    if b.shape[0] != k or out.shape != (m, n):
        raise ParameterError(f"add_matmul cannot add {a.shape} @ {b.shape} "
                             f"into {out.shape}")
    if not (out.flags.f_contiguous and out.flags.writeable):
        raise ParameterError("add_matmul's out must be a writeable "
                             "column-major array")
    if np.shares_memory(out, a) or np.shares_memory(out, b):
        raise ParameterError("add_matmul's out overlaps an operand")
    if out.size == 0 or k == 0:
        return
    (trans_a, lda), (trans_b, ldb) = _blas_operand(a), _blas_operand(b)
    _openblas().dgemm(_COL_MAJOR, trans_a, trans_b, m, n, k, 1.0,
                      a.ctypes.data, lda, b.ctypes.data, ldb, 1.0,
                      out.ctypes.data, max(1, m))


def orthogonal_init(rows: int, cols: int, seed) -> np.ndarray:
    """Orthogonal (rows, cols) matrix from the QR of a seeded Gaussian.

    The smaller-dimension Gram matrix of the result is the identity.  Signs of
    R's diagonal are folded into Q so the factorization, and hence the output,
    is unique for a given seed.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"orthogonal_init needs positive dims, got ({rows}, {cols})")
    rng = get_rng(seed)
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * np.where(d == 0.0, 1.0, np.sign(d))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)


def global_norm(params: ParamSet) -> float:
    """L2 norm of all parameter entries concatenated, in sorted key order.

    Each array is read in its memory order, so a column-major array is not
    copied first; its sum of squares then runs in that order.
    """
    total = 0.0
    for name in sorted(params):
        g = np.ravel(params[name], order="K")
        total += float(np.dot(g, g))
    return math.sqrt(total)


def clip_gradients(grads: ParamSet, threshold: float, norm: float) -> bool:
    """Rescale the whole set so its global L2 norm is at most `threshold`.

    `norm` is the set's global_norm, which the caller has already measured.
    Up to the threshold nothing changes; above it, every array is multiplied
    by threshold / norm in place.  Returns whether the set was scaled.
    """
    # Written so that NaN fails: every comparison with NaN is false.
    if not threshold > 0:
        raise ParameterError(f"clip threshold must be positive, got {threshold}")
    clipped = norm > threshold
    if clipped:
        scale = threshold / norm
        for g in grads.values():
            g *= scale
    return clipped


# Adam's default hyperparameters, named by adam_step and by TrainConfig.
ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.001, 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Step count and first/second moment buffers for one parameter set.

    adam_step updates m and v in place and advances step, so the state holds
    the only copy of the moments for the whole run.
    """

    step: int
    m: ParamSet
    v: ParamSet

    @classmethod
    def initial(cls, params: ParamSet) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(p) for k, p in params.items()}
        return cls(step=0, m=zeros(), v=zeros())


# Elements per block of adam_step; its two scratch buffers hold one block each.
ADAM_BLOCK = 1 << 15


def _check_adam_inputs(params: ParamSet, grads: ParamSet, state: AdamState) -> None:
    """Raise before adam_step writes anything unless each parameter, its
    gradient and its moments are float64 arrays of one shape, contiguous in
    the parameter's memory order, and all but the gradient are writeable.  A
    flat view of any other array would be a copy, and the update would be
    lost; a gradient or moments in another order would pair each parameter
    entry with another entry's values."""
    if not set(params) == set(grads) == set(state.m) == set(state.v):
        raise ShapeError("params, grads, and Adam buffers must share keys")
    for k, p in params.items():
        order = "F" if p.flags.fnc else "C"
        for name, a in (("param", p), ("grad", grads[k]), ("m", state.m[k]),
                        ("v", state.v[k])):
            if a.shape != p.shape:
                raise ShapeError(f"shape mismatch for '{k}': param {p.shape} "
                                 f"vs {name} {a.shape}")
            if (a.dtype != np.float64 or not a.flags[order + "_CONTIGUOUS"]
                    or not (a.flags.writeable or name == "grad")):
                raise ParameterError(f"Adam {name} '{k}' must be a writeable "
                                     f"(if not the gradient), {order}-"
                                     f"contiguous float64 array")


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState,
              alpha: float = ADAM_ALPHA, beta1: float = ADAM_BETA1,
              beta2: float = ADAM_BETA2, epsilon: float = ADAM_EPSILON) -> None:
    """One bias-corrected Adam update of `params`, `state.m` and `state.v` in
    place, with step size alpha; advances state.step.

    m <- beta1 m + (1 - beta1) g,  v <- beta2 v + (1 - beta2) g^2, and
    p <- p - alpha (m / bc1) / (sqrt(v / bc2) + epsilon).  The parameter, its
    gradient and its moments share one memory order, row- or column-major,
    and each is viewed flat in it, then walked in blocks of ADAM_BLOCK
    elements with two block-sized scratch buffers, so the step allocates no
    parameter-sized array.  Every operation is elementwise and they run in
    the formula's order, so the result is the same bits for any block size
    or layout.  Nothing is written unless every array passes
    _check_adam_inputs.
    """
    _check_adam_inputs(params, grads, state)
    t = state.step + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    size = min(ADAM_BLOCK, max((p.size for p in params.values()), default=0))
    buf_a, buf_b = np.empty(size), np.empty(size)
    for k, p in params.items():
        order = "F" if p.flags.fnc else "C"
        p, g, m, v = (a.reshape(-1, order=order)
                      for a in (p, grads[k], state.m[k], state.v[k]))
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p.size)
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = buf_a[:hi - lo], buf_b[:hi - lo]
            np.multiply(1.0 - beta1, gb, out=a)
            mb *= beta1
            mb += a
            np.multiply(gb, gb, out=a)
            a *= 1.0 - beta2
            vb *= beta2
            vb += a
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += epsilon
            np.divide(mb, bc1, out=a)
            a *= alpha
            np.divide(a, b, out=b)
            pb -= b
    state.step = t



class LbfgsResult(NamedTuple):
    """Where lbfgs stopped: the point, the objective's value and gradient
    there, and how many times the objective was evaluated."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    nfev: int


# lbfgs stops below this gradient norm, which is 100 times tighter than the
# probes' acceptance bound (1e-6), or after this many iterations; it keeps
# this many (s, y) pairs.
LBFGS_GTOL, LBFGS_MAX_ITER, LBFGS_MEMORY = 1e-8, 20000, 10
# Strong-Wolfe constants, sufficient decrease c1 and curvature c2 (the usual
# quasi-Newton pair), and the evaluations one line search may spend.  A trial
# whose value is within _FLAT * |f0| of the search's start is judged by its
# slope alone: there the values differ by little more than their rounding.
_WOLFE_C1, _WOLFE_C2, _SEARCH_EVALS, _FLAT = 1e-4, 0.9, 20, 1e-12


def _cubic_step(lo: tuple, hi: tuple) -> float:
    """Trial step inside the bracket of the (step, value, slope, ...) trials
    lo, the best so far, and hi: the minimizer of the cubic through both
    ends' values and slopes, or the midpoint where that is undefined or not
    short of hi by a tenth of the bracket.  It may lie as close to lo as the
    cubic puts it, so one trial can shrink the bracket by many orders of
    magnitude, as a first step of 1/||g|| often needs."""
    (a, fa, da), (b, fb, db) = lo[:3], hi[:3]
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    rad = d1 * d1 - da * db
    if rad >= 0.0:
        d2 = math.copysign(math.sqrt(rad), b - a)
        den = db - da + 2.0 * d2
        if den != 0.0:
            t = b - (b - a) * (db + d2 - d1) / den
            if 0.0 < (t - a) / (b - a) <= 0.9:
                return t
    return 0.5 * (a + b)


def _wolfe_search(phi, f0: float, d0: float, step: float) -> tuple | None:
    """A step along a descent direction, whose value is f0 and slope d0 < 0
    at step 0, that meets the strong Wolfe conditions: the bracketing and
    zoom of Nocedal & Wright's Algorithms 3.5 and 3.6, trying `step` first
    and doubling it while the value falls and the slope stays negative.

    phi(step) returns (value, slope, point, gradient) there, and the search
    returns the accepted (step, value, slope, point, gradient).  A trial
    whose value is within _FLAT * |f0| of f0 passes the sufficient-decrease
    test when its slope is at most (1 - 2 c1) |d0|, which is that test on a
    quadratic (the approximate Wolfe condition of Hager & Zhang, 2005): near
    a minimum the values stop telling steps apart before the slopes do.  A
    non-finite value or slope counts as a step too long.  The search returns
    None when _SEARCH_EVALS evaluations find no step, or when the bracket has
    no float left strictly between its ends.
    """
    flat = _FLAT * abs(f0)

    def too_long(t, ref):
        if abs(t[1] - f0) <= flat:
            return not t[2] <= (2.0 * _WOLFE_C1 - 1.0) * d0
        return not t[1] <= f0 + _WOLFE_C1 * t[0] * d0 or t[1] >= ref[1]

    prev, lo, hi = (0.0, f0, d0), None, None
    for _ in range(_SEARCH_EVALS):
        if lo is not None:
            a, b = sorted((lo[0], hi[0]))
            if not a < 0.5 * (a + b) < b:
                return None
            step = _cubic_step(lo, hi)
        t = (step, *phi(step))
        if not (math.isfinite(t[1]) and math.isfinite(t[2])):
            t = (step, math.inf, math.nan, *t[3:])
        if lo is None:
            if too_long(t, prev):
                lo, hi = prev, t
            elif abs(t[2]) <= -_WOLFE_C2 * d0:
                return t
            elif t[2] >= 0.0:
                lo, hi = t, prev
            else:
                prev, step = t, 2.0 * step
        elif too_long(t, lo):
            hi = t
        elif abs(t[2]) <= -_WOLFE_C2 * d0:
            return t
        else:
            if t[2] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = t
    return None


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """-H g, for the L-BFGS inverse-Hessian estimate H built from the
    (s, y, 1 / s.y) pairs, oldest first, on the scaled identity
    (s.y / y.y) I of the newest pair (Nocedal & Wright, Algorithm 7.4)."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def lbfgs(fun, x0: np.ndarray) -> LbfgsResult:
    """Minimize fun from x0 by L-BFGS (Liu & Nocedal, 1989); fun maps a
    float64 vector to its (value, gradient).

    Each direction comes from the two-loop recursion over the last
    LBFGS_MEMORY (s, y) pairs; a pair whose s.y is not positive is not
    stored.  The strong-Wolfe line search (c1 = 1e-4, c2 = 0.9) tries step 1,
    or 1/||g|| along -g while no pair is stored, as on the first iteration.
    The run stops once ||g||_2 < LBFGS_GTOL, after LBFGS_MAX_ITER iterations,
    or when a line search finds no step; so the caller reads the returned
    gradient to judge the point.  No accepted step raises the value by more
    than _FLAT * |value|, the band in which the line search judges steps by
    their slope, and every other accepted step lowers it.  The same inputs
    give the same bits.
    """
    x = np.array(x0, dtype=np.float64)
    value, g = fun(x)
    value, nfev, pairs = float(value), 1, deque(maxlen=LBFGS_MEMORY)

    def phi(step):
        nonlocal nfev
        nfev += 1
        xt = x + step * d
        vt, gt = fun(xt)
        return float(vt), float(gt @ d), xt, gt

    for _ in range(LBFGS_MAX_ITER):
        gnorm = math.sqrt(float(g @ g))
        if not gnorm >= LBFGS_GTOL:
            break
        d = _two_loop(g, pairs)
        d0 = float(g @ d)
        if not d0 < 0.0:
            pairs.clear()
            d, d0 = -g, -gnorm * gnorm
        t = _wolfe_search(phi, value, d0, 1.0 if pairs else 1.0 / gnorm)
        if t is None:
            break
        _, value, _, x_new, g_new = t
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        x, g = x_new, g_new
    return LbfgsResult(x, value, g, nfev)
