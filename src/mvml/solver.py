"""Single-loop CCCP+ADMM solver for the per-view linear predictor stack.

The model lives on the present-row prediction stack ``P`` of
``data.StackGeometry``: view ``i`` owns the block ``P_i = Xp_i W_i``,
where ``Xp_i`` holds its present rows, and label ``k``'s stack ``P_k``
stacks, view by view, the predictions ``X_{k,i} W_i`` of the present
rows tagged positive for ``k``. The concave global term is linearized at
the previous iterate through the trace-norm subgradient of the stack,
each label stack is split into an auxiliary ``Z_k`` with a scaled
multiplier ``L_k``, and one sweep is

    R    =  I o (Y - P)  +  sum_k scatter_k(mu Z_k - L_k)  +  lam * subgrad ||P||_*
    W_i  <- (mu Xp_i' D_i Xp_i)^-1  Xp_i' R[block_i]
    Z_k  <- svt(P_k + L_k / mu, lam / mu)
    L_k  <- L_k + mu * (P_k - Z_k)

with ``I`` the observed-entry indicator, ``Y`` the stacked labels,
``scatter_k`` adding a label's rows back where ``P_k`` came from, and
``D_i`` the per-row count of positive tags. The loss enters the W step
through its gradient at the previous iterate, so each view does one
solve against an SPD factor computed once per fit. Labels positive
nowhere are dropped from the splitting. ``fit`` runs these steps on a
compressed stack and never reads a sample row in a sweep.

``fit`` is a set-up (``_Problem``), a step (``_step``) and a driver.

Set-up, once per fit. The loss is a sum of least-squares terms, one per
(view, label): ``A_{i,k} = X_{O,ki}' X_{O,ki}`` over the present rows of
view ``i`` whose tag ``k`` is observed, ``B_i = Xp_i' Y_i`` and half the
number of observed tags give, through one batched product per view
``H_i[:, k] = A_{i,k} W_i[:, k]``, both

    loss(W)                 =  0.5 * sum_i <W_i, H_i - 2 B_i>  +  0.5 * sum(I)
    Xp_i' (-I o (P - Y))_i  =  B_i - H_i,

the loss's value and its W-step share. The ``A_{i,k}`` come from
tag-pattern groups: in a block of ``b`` labels each present row's
observed tags form a ``b``-bit key, the rows sorted by key give one Gram
per nonempty group with a nonzero key, and ``A_{i,k}`` sums the groups
whose key has bit ``k`` set. The width
``b = clamp((rows // 256).bit_length(), 1, 8)`` for a view of ``rows``
present rows keeps about 256 rows or more per group.

Every trace-norm term is the nuclear norm of a row set's stack, and one
rule compresses them all. A row set ``a`` meets view ``i`` in a block
``X_{a,i}``; a block with more rows than the view has features
(``n_{a,i} > d_i``) is replaced by a ``d_i x d_i`` square root of its
Gram, ``R_{a,i}' R_{a,i} = X_{a,i}' X_{a,i}``: the upper Cholesky
factor, or, when Cholesky rejects the Gram of a rank-deficient block,
the eigen root ``diag(sqrt(s)) V' D`` of ``X_{a,i}' X_{a,i} = D V diag(s) V' D``,
with ``D`` the diagonal of the columns' norms.
A shorter block keeps its rows, ``R~_{a,i} = X_{a,i}``. As with a QR
factor (Golub & Van Loan §5.3), any root of a tall block's Gram gives
``X_{a,i} = Q_{a,i} R_{a,i}`` for some ``Q_{a,i}`` of orthonormal columns.
So the set's stack is ``Q~_a P~_a`` with ``P~_a = vstack_i(R~_{a,i} W_i)``
of at most ``sum_i min(n_{a,i}, d_i)`` rows and
``Q~_a = blockdiag_i(Q_{a,i} or I)``, and the two share their singular
values and right singular vectors. View ``i``'s blocks of every set stack
into ``R~_i``. The extended stack holds the rows of every ``R~_i W_i``, one
product per view, ordered set by set, so each ``P~_a`` is a contiguous block
of it; a residual on it is back-projected, ``R~_i' M[view i]`` over view
``i``'s rows, with one product per view.

The label terms are the layout of the active labels' row sets, and the
same rows give the W step's matrix,
``Xp_i' D_i Xp_i = sum_k X_{k,i}' X_{k,i} = R~_i' R~_i``, whose factor
of ``mu R~_i' R~_i`` the set-up keeps. The variant picks the row sets of
the global layout. For ``FULL`` it holds one, every present row: its rows
``R_i`` (the Gram root of ``Xp_i`` for a tall view) give the stack
``S = vstack_i(R_i W_i)``, so ``||P||_* = ||S||_*`` and the subgradient is
``Q~ G`` with ``G = subgrad ||S||_*``. ``LOSS_PLUS_LOCAL`` drops the global
term, so its layout holds no row set: ``S`` and ``G`` have no rows, each
``R_i' G_i`` is zero and ``||S||_*`` is 0.

Step, a pure map from the state ``(W with its products H, Z~, L~)`` to
the next state and its objective, surrogate and primal residual.
``Z_k`` and ``L_k`` start at zero and stay in the range of ``Q~_k``, and
``svt(Q~ M) = Q~ svt(M)``, so the state keeps ``Z~_k`` and ``L~_k`` of
the compressed stack's rows. The labels' row blocks are disjoint and
fill the label layout's extended stack ``P~``, so ``Z~`` and ``L~`` are
two arrays row-aligned with it that hold ``Z~_k`` and ``L~_k`` at the
rows of ``P~_k``. The state also carries ``S`` of its W, the point where
the step takes ``G``; then

    W_i  <- (mu R~_i' R~_i)^-1  (B_i - H_i  +  R~_i' (mu Z~ - L~)[view i]  +  lam * R_i' G_i)
    Z~_k <- svt(P~_k + L~_k / mu, lam / mu)
    L~   <- L~ + mu * (P~ - Z~)

with ``H`` recomputed at the new W. The labels' shrinkages run in
batches, in which the Grams of one size share one stacked ``eigh``.
``||P_k||_* = ||P~_k||_*`` and ``||P_k - Z_k||_F = ||P~_k - Z~_k||_F``
give the local terms, batched alike with ``eigvalsh``, and the residual.
A sweep runs on the calling thread, as the whole fit does. The CCCP
surrogate's linear term is ``<P, Q~ G> = <S, G>`` at the new ``S``, which
the new state carries, so a sweep stacks each layout once. Both
variants run this one sweep; they differ only in their global row sets.

Driver. ``fit`` seeds the state, applies the step until the objective's
relative change falls below ``rel_tol`` or the budget runs out, and
stops with ``NonFiniteObjective`` once the objective is not finite; a sweep
whose new stacks would overflow a Gram records NaN without calling a kernel.
``LOSS_ONLY`` is a direct solve per (view, label) instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .blas import single_threaded
from .data import MultiViewDataset, StackGeometry, WeightStack, check_weight_shapes
from .errors import (
    AllViewsMissing, InvalidInput, NonFiniteObjective, _check_int, _check_real, _check_seed,
    _check_type, _set_checked,
)
from .linalg import (
    SpdFactor, _nuclear_norm_many, _svt_many, nuclear_norm, trace_norm_subgradient,
    svt,  # no sweep calls it, but perfbench's tracer wraps solver.svt
)
from .objective import ObjectiveValue


class Variant(str, Enum):
    """Which objective the sweep minimizes."""

    FULL = "full"
    LOSS_ONLY = "loss_only"
    LOSS_PLUS_LOCAL = "loss_plus_local"


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    mu: float = 5.0
    max_iters: int = 200
    rel_tol: float = 1e-6
    variant: Variant = Variant.FULL
    init_seed: int = 0

    def __post_init__(self):
        _set_checked(self, _check_real, "lam", "rel_tol", bound="nonnegative")
        _set_checked(self, _check_real, "mu", bound="positive")
        _set_checked(self, _check_int, "max_iters", low=1)
        _set_checked(self, _check_seed, "init_seed")
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise InvalidInput(f"unknown solver variant {self.variant!r}")


@dataclass
class SolverTrace:
    """Per-sweep series: objective, surrogate, max primal residual, seconds; and the
    seconds taken to build the fit's set-up."""

    objective: list[float] = field(default_factory=list)
    surrogate: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    converged: bool = False
    setup_seconds: float = 0.0

    @property
    def iterations(self):
        return len(self.objective)

    def append(self, objective, surrogate, residual, seconds):
        self.objective.append(float(objective))
        self.surrogate.append(float(surrogate))
        self.residual.append(float(residual))
        self.seconds.append(float(seconds))

    def summary(self):
        """Sweep count, stop flag, and the last value of each series."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_objective": self.objective[-1],
            "final_surrogate": self.surrogate[-1],
            "final_residual": self.residual[-1],
        }

    def to_dict(self):
        """The convergence series; timings stay out, so reports compare exactly."""
        return {
            "objective": list(self.objective),
            "surrogate": list(self.surrogate),
            "residual": list(self.residual),
        }

    def timing(self):
        """The set-up and per-sweep seconds, the timing subtree of ``fit.json`` and reports."""
        return {"setup_seconds": self.setup_seconds, "iteration_seconds": list(self.seconds)}

    def rows(self):
        """CSV cells: a header, then one row per sweep with floats in ``repr``."""
        rows = [["iteration", "objective", "surrogate", "residual"]]
        for t, values in enumerate(zip(self.objective, self.surrogate, self.residual), 1):
            rows.append([str(t), *map(repr, values)])
        return rows


def _group_width(rows):
    """Labels per tag-pattern block for a view of ``rows`` present rows: the widest
    (up to 8) that leaves about 256 rows or more per group."""
    return min(max((rows // 256).bit_length(), 1), 8)


def _observed_grams(feats, observed, _width=None, rows=None):
    """``gram[k] = X_k' X_k`` over the rows ``rows`` of ``feats`` (all rows by default)
    where ``observed[k]`` holds.

    The labels go in blocks of ``b = _group_width(n)`` for ``n`` rows (``_width``
    overrides it in tests), the last one padded with never-observed labels. Bit ``j``
    of a row's key in a block says whether the block's ``j``-th tag is observed. The
    rows are sorted by key once per block, each group with a nonzero key gives one
    Gram, and a label's Gram is the sum of the groups whose key has its bit set, so a
    row enters the products once per block instead of once per observed tag. Each
    block gathers its rows from ``feats`` in key order, and its gather is gone before
    the next block's. At ``b = 1`` the one group holds the label's rows in ascending
    order.
    """
    c, n = observed.shape
    d = feats.shape[1]
    b = _group_width(n) if _width is None else _width
    blocks = -(-c // b)
    bits = np.zeros((blocks * b, n), dtype=bool)
    bits[:c] = observed
    keys = np.packbits(bits.reshape(blocks, b, n), axis=1, bitorder="little")[:, 0]
    order = np.argsort(keys, axis=1, kind="stable")
    counts = np.bincount((keys + (np.arange(blocks) << b)[:, None]).ravel(),
                         minlength=blocks << b).reshape(blocks, 1 << b)
    sizes = counts[:, 1:]  # key 0 enters no Gram
    member = ((np.arange(1, 1 << b) >> np.arange(b)[:, None]) & 1).astype(float)
    grams = np.empty((blocks, b, d * d))
    for block in range(blocks):
        keyed = order[block, counts[block, 0]:]
        groups = _group_grams(feats[keyed if rows is None else rows[keyed]], sizes[block])
        grams[block] = member @ groups.reshape(len(groups), d * d)
    return grams.reshape(blocks * b, d, d)[:c]


def _group_grams(x, sizes):
    """The Gram of each run of ``sizes[g]`` consecutive rows of ``x``, zero for an empty run."""
    d = x.shape[1]
    groups, ends = np.zeros((len(sizes), d, d)), np.cumsum(sizes)
    for g in np.flatnonzero(sizes):
        xg = x[ends[g] - sizes[g]:ends[g]]
        groups[g] = xg.T @ xg
    return groups


class _LossGrams:
    """The masked loss's normal equations on each view's present rows.

    ``grams[i][k] = X_{O,ki}' X_{O,ki}`` is the Gram of the present rows of
    view ``i`` whose tag ``k`` is observed, ``rhs[i] = Xp_i' Y_i`` (``Y`` is
    zero off the observed tags) and ``constant`` is half the number of
    observed tags, so for ``H_i[:, k] = grams[i][k] W_i[:, k]``

        loss(W)                  =  0.5 * sum_i <W_i, H_i - 2 rhs_i>  +  constant
        Xp_i' (-I o (P - Y))_i   =  rhs_i - H_i.

    The views are taken in turn, so the set-up holds one view's rows at a time.
    """

    def __init__(self, geometry):
        self.grams, self.rhs = [], []
        for i, block in enumerate(geometry.blocks):
            labels = geometry.labels[block]
            self.grams.append(_observed_grams(geometry.views[i].features, labels.T != 0,
                                              rows=geometry.present[i]))
            self.rhs.append(geometry.view_features(i).T @ labels.astype(float))
        self.constant = 0.5 * np.count_nonzero(geometry.labels)

    def predict(self, w):
        """``w`` and its Gram products ``H_i``, one batched product per view."""
        return _GramPreds(w, [np.matmul(gram, wi.T[:, :, None])[:, :, 0].T
                              for gram, wi in zip(self.grams, w.weights)])

    def w_rhs(self, preds):
        """Each view's W-step share of the loss at ``preds``: ``rhs_i - H_i``."""
        return [b - h for b, h in zip(self.rhs, preds.products)]


class _GramPreds(NamedTuple):
    """Weights ``w`` and their Gram products ``H_i``, one ``(d_i, c)`` array per view."""

    w: WeightStack
    products: list


def _masked_loss_from_preds(grams, preds):
    """Half the squared error over observed tags of ``preds = grams.predict(w)``.

    A module-level name, so tests can stub it.
    """
    cross = sum(float(np.sum(wi * (h - 2.0 * b)))
                for wi, h, b in zip(preds.w.weights, preds.products, grams.rhs))
    return 0.5 * cross + grams.constant


def _gram_root(gram):
    """A square ``R`` with ``R' R = gram``: the upper Cholesky factor, or, for a
    singular ``gram`` that Cholesky rejects, the eigen root ``diag(sqrt(s)) V' D`` of
    ``gram = D V diag(s) V' D`` with ``D = diag(sqrt(diag(gram)))``. Decomposing the
    unit-diagonal ``V diag(s) V'`` keeps each column's rounding error relative to the
    column's own size, as Cholesky does, so a tiny feature column is not lost."""
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        norms = np.sqrt(np.diag(gram))
        scale = np.where(norms > 0.0, norms, 1.0)  # a zero column keeps a zero root column
        s, v = np.linalg.eigh(gram / np.outer(scale, scale))
        return np.sqrt(np.maximum(s, 0.0))[:, None] * v.T * norms


def _block_root(x):
    """``R~`` of a block ``x``: ``_gram_root`` of its Gram if it has more rows than
    columns, ``x`` itself otherwise."""
    return _gram_root(x.T @ x) if len(x) > x.shape[1] else x


class _LabelStacks:
    """The stacks of some row sets of ``P`` as contiguous blocks of one compressed stack.

    View ``i``'s rows ``r_factors[i]`` stack, set by set, its blocks
    ``R~_{a,i}``: the square root ``_gram_root`` of the Gram of a block with
    more rows than the view has features, the block's own rows otherwise.
    The extended stack, of ``shape``, orders its rows set by set: the slice
    ``index[a]`` holds row set ``a``'s stack, view by view, and view ``i``'s
    rows sit at the positions ``rows[i]``.
    """

    def __init__(self, geometry, row_sets):
        self.r_factors, owner = [], [np.zeros(0, dtype=int)]
        for i, block in enumerate(geometry.blocks):
            factors = [np.zeros((0, geometry.dims[i]))]
            for a, rows in enumerate(row_sets):
                lo, hi = np.searchsorted(rows, (block.start, block.stop))
                factors.append(_block_root(geometry.view_features(i, rows[lo:hi] - block.start)))
                owner.append(np.full(len(factors[-1]), a))
            self.r_factors.append(np.vstack(factors))
        owner = np.concatenate(owner)  # the row set of each row, views in turn
        position = np.empty_like(owner)
        position[np.argsort(owner, kind="stable")] = np.arange(owner.size)
        bounds = np.cumsum([0] + [len(r) for r in self.r_factors]).tolist()
        self.rows = [position[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        sizes = np.bincount(owner, minlength=len(row_sets)).tolist()
        bounds = np.cumsum([0] + sizes).tolist()
        self.index = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self.shape = (owner.size, geometry.labels.shape[1])

    def stack(self, w):
        """A new extended stack of ``w``: ``R~_i W_i`` at each view's rows."""
        check_weight_shapes(w, [r.shape[1] for r in self.r_factors], self.shape[1])
        ext = np.empty(self.shape)
        for r, rows, wi in zip(self.r_factors, self.rows, w.weights):
            ext[rows] = r @ wi
        return ext

    def back_project(self, ext):
        """``R~_i' ext[rows_i]`` per view, for an extended-stack ``ext``."""
        return [r.T @ ext[rows] for r, rows in zip(self.r_factors, self.rows)]


def _initial_weights(geometry, config):
    """Random weights scaled by 1/sqrt(d) per view, drawn from ``config.init_seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([config.init_seed]))
    c = geometry.labels.shape[1]
    return WeightStack([rng.standard_normal((d, c)) / np.sqrt(d) for d in geometry.dims])


def _factor_views(grams, mu):
    """Cached factors of ``mu * gram`` for each view's W-step Gram ``Xp_i' D_i Xp_i``."""
    factors = []
    for i, gram in enumerate(grams):
        if gram.size and not gram.any():  # its ridge is zero too, so it cannot be factored
            raise InvalidInput(f"view {i}: no present row has a positive tag and nonzero features")
        factors.append(SpdFactor(mu * gram))
    return factors


def _solve_w(factors, *shares):
    """Solve each view's W step against the sum of its right-hand-side shares."""
    return WeightStack([factor.solve(sum(parts)) for factor, *parts in zip(factors, *shares)])


def _rel_change(curr, prev):
    return abs(curr - prev) / max(abs(prev), 1e-12)


def _fit_loss_only(grams, trace):
    start = time.perf_counter()
    weights = []
    for view_grams, b in zip(grams.grams, grams.rhs):
        w = np.zeros_like(b)
        for k, gram in enumerate(view_grams):
            # an all-zero Gram (nothing observed, or only zero features) gets the ridge's
            # minimum-norm limit, a zero column
            if gram.any():
                w[:, k] = SpdFactor(gram).solve(b[:, k])
        weights.append(w)
    w = WeightStack(weights)
    loss = _masked_loss_from_preds(grams, grams.predict(w))
    trace.append(loss, loss, 0.0, time.perf_counter() - start)
    if not np.isfinite(loss):
        raise NonFiniteObjective(1, loss, trace)
    trace.converged = True
    return w, trace


class _Problem:
    """A fit's set-up, built once and never written: the loss Grams, the label layout
    with the W step's factors of ``mu R~_i' R~_i``, and the global layout, of every
    present row for ``FULL`` and of no row set for ``LOSS_PLUS_LOCAL``."""

    def __init__(self, geometry, config):
        self.config = config
        self.grams = _LossGrams(geometry)
        self.layout = _LabelStacks(geometry, geometry.active_index)
        self.factors = _factor_views([r.T @ r for r in self.layout.r_factors], config.mu)
        full = config.variant is Variant.FULL
        self.glob = _LabelStacks(geometry, [np.arange(geometry.labels.shape[0])] if full else [])

    def seed(self, geometry):
        """The seeded state: ``_initial_weights``, zero ``Z~`` and ``L~``, and ``S``."""
        w, zero = _initial_weights(geometry, self.config), np.zeros(self.layout.shape)
        return _Iterate(self.grams.predict(w), zero, zero, self.glob.stack(w))


class _Iterate(NamedTuple):
    """The step's state: weights with their Gram products, ``Z~``, ``L~`` and ``S``."""

    preds: _GramPreds
    z: np.ndarray  # row-aligned with the label layout's extended stack, as is ``multipliers``
    multipliers: np.ndarray
    global_stack: np.ndarray  # the linearization point of the global term


@np.errstate(over="ignore", invalid="ignore")
def _step(problem, state):
    """One sweep: the state after ``state`` and its (objective, surrogate, residual).

    A pure map of ``problem`` and ``state``, linearized at ``state.global_stack``; a
    driver holds that point with ``state._replace(global_stack=held)``. The global
    term runs the same calls for both variants, on a stack of no rows for
    ``LOSS_PLUS_LOCAL``. A diverging sweep warns of no overflow: its objective comes
    out non-finite, and once a new stack is too large for its Gram to be finite the
    record is NaN and the state ``state`` itself, since no trace-norm kernel can take
    that stack. Every label's shrinkage and local norm runs on the calling thread, in
    one batched call each.
    """
    config, grams, layout, glob = problem.config, problem.grams, problem.layout, problem.glob
    mu = config.mu
    grad = trace_norm_subgradient(state.global_stack)  # CCCP: linearized at the state's S
    w = _solve_w(problem.factors, grams.w_rhs(state.preds),
                 layout.back_project(mu * state.z - state.multipliers),
                 [config.lam * g for g in glob.back_project(grad)])
    stack, preds, global_stack = layout.stack(w), grams.predict(w), glob.stack(w)
    shift = stack + state.multipliers / mu
    if not all(np.isfinite(np.vdot(m, m)) for m in (stack, shift, global_stack)):
        return state, (np.nan,) * 3  # some Gram of these stacks would overflow
    # finite stacks, so the batched label kernels skip their per-matrix input checks
    z = np.empty_like(stack)
    _svt_many([shift[block] for block in layout.index], config.lam / mu,
              out=[z[block] for block in layout.index])
    local = _nuclear_norm_many([stack[block] for block in layout.index]).tolist()
    gap = stack - z
    residual = max((float(np.linalg.norm(gap[block])) for block in layout.index), default=0.0)
    value = ObjectiveValue(_masked_loss_from_preds(grams, preds), sum(local),
                           nuclear_norm(global_stack), config.lam)
    # the surrogate's global term is <S, G>, linear in the new S
    linear = replace(value, global_term=float(np.sum(global_stack * grad)))
    state = _Iterate(preds, z, state.multipliers + mu * gap, global_stack)
    return state, (value.total, linear.total, residual)


@single_threaded()
def fit(ds, config):
    """Run the solver to tolerance or the sweep budget on the calling thread, with BLAS
    on one thread.

    Returns ``(weights, trace)``. The trace's objective column holds the
    variant's own objective: the full loss + lam * (local - global) for
    ``FULL``, loss + lam * local for ``LOSS_PLUS_LOCAL``, and the bare
    loss for ``LOSS_ONLY`` (which is a single direct solve). The trace's
    ``setup_seconds`` times the build of ``_Problem`` (of ``_LossGrams``
    for ``LOSS_ONLY``). Raises ``NonFiniteObjective``, carrying the trace
    so far, as soon as the objective stops being finite. A fit starts no
    thread or process; experiment commands spread whole fits over the CPUs
    instead (``experiments.run_experiments``).
    """
    config = _check_type(config, "config", SolverConfig)
    geometry = StackGeometry(ds)
    start = time.perf_counter()
    if config.variant is Variant.LOSS_ONLY:
        grams = _LossGrams(geometry)
        return _fit_loss_only(grams, SolverTrace(setup_seconds=time.perf_counter() - start))
    problem = _Problem(geometry, config)
    trace = SolverTrace(setup_seconds=time.perf_counter() - start)
    state = problem.seed(geometry)
    for t in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        state, record = _step(problem, state)
        trace.append(*record, time.perf_counter() - t0)
        f = trace.objective[-1]
        if not np.isfinite(f):
            raise NonFiniteObjective(t, f, trace)
        if t > 1 and _rel_change(f, trace.objective[-2]) < config.rel_tol:
            trace.converged = True
            break
    return state.preds.w, trace


@single_threaded()
def predict(w, test):
    """Average the per-view predictions over the views that saw each sample, with
    BLAS on one thread as in ``fit``.

    Raises ``AllViewsMissing`` if some test sample is absent everywhere.
    """
    _check_type(test, "test", MultiViewDataset)
    if not test.aligned:
        raise InvalidInput("prediction averages across views, which needs aligned rows")
    check_weight_shapes(w, [view.n_features for view in test.views], test.n_labels)
    n, c = test.n_samples, test.n_labels
    scores, product = np.zeros((n, c)), np.empty((n, c))
    counts = np.zeros(n)
    for view, wi in zip(test.views, w.weights):  # a missing row is stored as zeros
        scores += np.matmul(view.features, wi, out=product)
        counts += ~view.missing_rows
    if np.any(counts == 0):
        raise AllViewsMissing(int(np.flatnonzero(counts == 0)[0]))
    scores /= counts[:, None]
    return scores
