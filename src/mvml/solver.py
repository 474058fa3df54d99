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
nowhere are dropped from the splitting. The public ``update_w``,
``update_z`` and ``update_multipliers`` run these steps on ``P`` itself,
with no compression, as the sample-space reference for ``fit``, which
never reads a sample row in a sweep.

The loss is a sum of least-squares terms, one per (view, label). Once
per fit, ``A_{i,k} = X_{O,ki}' X_{O,ki}`` over the present rows of view
``i`` whose tag ``k`` is observed, ``B_i = Xp_i' Y_i`` and half the
number of observed tags give, through one batched product per view
``H_i[:, k] = A_{i,k} W_i[:, k]``, both

    loss(W)                 =  0.5 * sum_i <W_i, H_i - 2 B_i>  +  0.5 * sum(I)
    Xp_i' (-I o (P - Y))_i  =  B_i - H_i,

the loss's value and its W-step share.

Every trace-norm term is the nuclear norm of a row set's stack, and one
rule compresses them all (Golub & Van Loan §5.3). A row set ``a`` meets
view ``i`` in a block ``X_{a,i}``; once per fit, a block with more rows
than the view has features (``n_{a,i} > d_i``) is replaced by its
Householder QR factor, ``X_{a,i} = Q_{a,i} R_{a,i}``, and a shorter block
keeps its rows, ``R~_{a,i} = X_{a,i}``. Then the set's stack is
``Q~_a P~_a`` with ``P~_a = vstack_i(R~_{a,i} W_i)`` of at most
``sum_i min(n_{a,i}, d_i)`` rows and ``Q~_a = blockdiag_i(Q_{a,i} or I)``
of orthonormal columns, so the two share their singular values and right
singular vectors. View ``i``'s blocks of every set stack into ``R~_i``;
the extended stack ``vstack_i(R~_i W_i)`` takes one product per view, each
``P~_a`` is a row selection of it, and a residual on it is back-projected,
``R~_i' M[view i]``, with one product per view.

The global term is the layout of one row set, every present row. Its
rows ``R_i`` (the QR factor of ``Xp_i`` for a tall view) give the stack
``S = vstack_i(R_i W_i)``, so ``||P||_* = ||S||_*``, the subgradient is
``Q~ G`` with ``G = subgrad ||S||_*``, its W-step share is
``lam * R_i' G[view i]`` and the CCCP surrogate's linear term is
``<P, Q~ G> = <S, G>``.

The label terms are the layout of the active labels' row sets. ``Z_k``
and ``L_k`` start at zero and stay in the range of ``Q~_k``, and
``svt(Q~ M) = Q~ svt(M)``, so the sweep keeps ``Z~_k`` and ``L~_k`` of
the compressed stack's rows:

    Z~_k <- svt(P~_k + L~_k / mu, lam / mu)
    L~_k <- L~_k + mu * (P~_k - Z~_k)

``||P_k||_* = ||P~_k||_*``, ``||P_k - Z_k||_F = ||P~_k - Z~_k||_F``, the
split's W-step share is ``R~_i' (mu Z~ - L~)[view i]``, and the same rows
give the W step's matrix,
``Xp_i' D_i Xp_i = sum_k X_{k,i}' X_{k,i} = R~_i' R~_i``. A sweep is

    W_i  <- (mu R~_i' R~_i)^-1  (B_i - H_i  +  R~_i' (mu Z~ - L~)[view i]  +  lam * R_i' G_i)

followed by the ``Z~``, ``L~`` and loss updates above.
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
    AllViewsMissing, InvalidInput, NonFiniteObjective, _check_int, _check_matrix, _check_real,
    _check_seed, _check_type, _set_checked,
)
from .linalg import SpdFactor, nuclear_norm, svt, trace_norm_subgradient
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
    """Per-sweep series: objective, surrogate, max primal residual, seconds."""

    objective: list[float] = field(default_factory=list)
    surrogate: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    converged: bool = False

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

    def rows(self):
        """CSV cells: a header, then one row per sweep with floats in ``repr``."""
        rows = [["iteration", "objective", "surrogate", "residual"]]
        for t, values in enumerate(zip(self.objective, self.surrogate, self.residual), 1):
            rows.append([str(t), *map(repr, values)])
        return rows


@dataclass
class SolverState:
    """Iterate: weights, per-label splits Z, multipliers, sweep counter."""

    w: WeightStack
    z: list[np.ndarray]
    multipliers: list[np.ndarray]
    iteration: int = 0


class _LossGrams:
    """The masked loss's normal equations on each view's present rows.

    ``grams[i][k] = X_{O,ki}' X_{O,ki}`` is the Gram of the present rows of
    view ``i`` whose tag ``k`` is observed, ``rhs[i] = Xp_i' Y_i`` (``Y`` is
    zero off the observed tags) and ``constant`` is half the number of
    observed tags, so for ``H_i[:, k] = grams[i][k] W_i[:, k]``

        loss(W)                  =  0.5 * sum_i <W_i, H_i - 2 rhs_i>  +  constant
        Xp_i' (-I o (P - Y))_i   =  rhs_i - H_i.
    """

    def __init__(self, geometry):
        self.grams, self.rhs = [], []
        for feats, block in zip(geometry.features, geometry.blocks):
            observed = geometry.indicator[block].T.astype(bool)
            gram = np.empty((observed.shape[0], feats.shape[1], feats.shape[1]))
            for k, rows in enumerate(observed):
                xo = feats[rows]
                gram[k] = xo.T @ xo
            self.grams.append(gram)
            self.rhs.append(feats.T @ geometry.labels[block])
        self.constant = 0.5 * float(geometry.indicator.sum())

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


class _LabelStacks:
    """The stacks of some row sets of ``P`` as row selections of one compressed stack.

    View ``i``'s rows ``r_factors[i]`` stack, set by set, its blocks
    ``R~_{a,i}``: the QR factor of a block with more rows than the view
    has features, the block's own rows otherwise. They sit at
    ``r_blocks[i]`` of the extended stack, and ``index[a]`` selects row
    set ``a``'s stack view by view. The extended stack and its residual
    are allocated once and overwritten by every call.
    """

    def __init__(self, geometry, row_sets):
        self.r_factors, self.r_blocks = [], []
        picks = [[] for _ in row_sets]
        end = 0
        for feats, block in zip(geometry.features, geometry.blocks):
            start, factors = end, [np.zeros((0, feats.shape[1]))]
            for rows, pick in zip(row_sets, picks):
                lo, hi = np.searchsorted(rows, (block.start, block.stop))
                x = feats[rows[lo:hi] - block.start]
                factors.append(np.linalg.qr(x, mode="r") if len(x) > x.shape[1] else x)
                pick.append(np.arange(end, end + len(factors[-1])))
                end += len(factors[-1])
            self.r_factors.append(np.vstack(factors))
            self.r_blocks.append(slice(start, end))
        self.index = [np.concatenate(pick) for pick in picks]
        self.ext = np.empty((end, geometry.labels.shape[1]))
        self.resid = np.empty_like(self.ext)

    def stack(self, w):
        """Write the extended stack of ``w``: ``R~_i W_i`` at each view's rows."""
        check_weight_shapes(w, [r.shape[1] for r in self.r_factors], self.ext.shape[1])
        for r, r_block, wi in zip(self.r_factors, self.r_blocks, w.weights):
            np.matmul(r, wi, out=self.ext[r_block])

    def label_stacks(self):
        return [self.ext[rows] for rows in self.index]

    def w_rhs(self, z, multipliers, mu):
        """Each view's W-step share of the splits, ``R~_i' (mu Z~ - L~)[view i]``."""
        for rows, zk, mk in zip(self.index, z, multipliers):
            self.resid[rows] = mu * zk - mk
        return self.back_project(self.resid)

    def back_project(self, ext):
        """``R~_i' ext[r_block_i]`` per view, for an extended-stack ``ext``."""
        return [r.T @ ext[r_block] for r, r_block in zip(self.r_factors, self.r_blocks)]


def _initial_state(geometry, config, index):
    """Random weights and zero splits and multipliers shaped by the label rows ``index``."""
    rng = np.random.default_rng(np.random.SeedSequence([config.init_seed]))
    c = geometry.labels.shape[1]
    weights = []
    for feats in geometry.features:
        d = feats.shape[1]
        weights.append(rng.standard_normal((d, c)) / np.sqrt(d))
    z = [np.zeros((rows.size, c)) for rows in index]
    mult = [np.zeros_like(zk) for zk in z]
    return SolverState(w=WeightStack(weights), z=z, multipliers=mult, iteration=0)


def _check_state(state, geometry):
    """``state`` with one finite ``(n_k, c)`` split and multiplier per active label."""
    _check_type(state, "state", SolverState)
    c = geometry.labels.shape[1]
    checked = {}
    for name in ("z", "multipliers"):
        mats = getattr(state, name)
        if not isinstance(mats, (list, tuple)) or len(mats) != len(geometry.active_index):
            got = len(mats) if isinstance(mats, (list, tuple)) else type(mats).__name__
            raise InvalidInput(
                f"state.{name} must be a list of {len(geometry.active_index)} matrices, "
                f"one per active label, got {got}"
            )
        checked[name] = [_check_matrix(m, f"state.{name}[{k}]") for k, m in enumerate(mats)]
        for k, (m, rows) in enumerate(zip(checked[name], geometry.active_index)):
            if m.shape != (rows.size, c):
                raise InvalidInput(
                    f"state.{name}[{k}] must have shape {(rows.size, c)}, got {m.shape}"
                )
    return replace(state, **checked)


def init_state(ds, config):
    """Random weights scaled by 1/sqrt(d) per view, zero splits and multipliers."""
    geometry = StackGeometry(ds)
    config = _check_type(config, "config", SolverConfig)
    return _initial_state(geometry, config, geometry.active_index)


def _factor_views(grams, mu):
    """Cached factors of ``mu * gram`` for each view's W-step Gram ``Xp_i' D_i Xp_i``."""
    factors = []
    for i, gram in enumerate(grams):
        if gram.size and not gram.any():  # its ridge is zero too, so it cannot be factored
            raise InvalidInput(f"view {i}: no present row has a positive tag and nonzero features")
        factors.append(SpdFactor(mu * gram))
    return factors


def _update_w(factors, *shares):
    """Solve each view's W step against the sum of its right-hand-side shares."""
    return WeightStack([factor.solve(sum(parts)) for factor, *parts in zip(factors, *shares)])


def _update_z(label_stacks, multipliers, config):
    tau = config.lam / config.mu
    return [svt(stack + mult / config.mu, tau) for stack, mult in zip(label_stacks, multipliers)]


def _update_multipliers(label_stacks, multipliers, z, config):
    return [m + config.mu * (stack - zk) for m, stack, zk in zip(multipliers, label_stacks, z)]


def _sample_space(ds, state, config):
    """Checked config, geometry and state, and the stack ``P`` at ``state.w``."""
    config = _check_type(config, "config", SolverConfig)
    geometry = StackGeometry(ds)
    state = _check_state(state, geometry)
    return config, geometry, state, geometry.stack(state.w)


def update_w(state, ds, config, grad_prev=None):
    """One W sweep; ``grad_prev`` is the trace-norm subgradient of the
    present-row prediction stack at the previous weights (or None)."""
    config, geometry, state, stack = _sample_space(ds, state, config)
    resid = geometry.indicator * (geometry.labels - stack)
    for rows, zk, mk in zip(geometry.active_index, state.z, state.multipliers):
        resid[rows] += config.mu * zk - mk
    if grad_prev is not None:
        grad_prev = _check_matrix(grad_prev, "grad_prev")
        if grad_prev.shape != stack.shape:
            raise InvalidInput(f"grad_prev must have shape {stack.shape}, got {grad_prev.shape}")
        resid += config.lam * grad_prev
    positives = np.sum(geometry.labels == 1.0, axis=1)
    grams = [feats.T @ (positives[block, None] * feats)
             for feats, block in zip(geometry.features, geometry.blocks)]
    rhs = [feats.T @ resid[block] for feats, block in zip(geometry.features, geometry.blocks)]
    return _update_w(_factor_views(grams, config.mu), rhs)


def update_z(state, ds, config):
    """Shrink each active per-label stack by lam/mu around the multipliers."""
    config, geometry, state, stack = _sample_space(ds, state, config)
    return _update_z([stack[rows] for rows in geometry.active_index], state.multipliers, config)


def update_multipliers(state, ds, config):
    """Ascend the scaled multipliers along the current primal residuals."""
    config, geometry, state, stack = _sample_space(ds, state, config)
    label_stacks = [stack[rows] for rows in geometry.active_index]
    return _update_multipliers(label_stacks, state.multipliers, state.z, config)


def _rel_change(curr, prev):
    return abs(curr - prev) / max(abs(prev), 1e-12)


def _fit_loss_only(grams):
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
    if not np.isfinite(loss):
        raise NonFiniteObjective(1, loss)
    trace = SolverTrace(converged=True)
    trace.append(loss, loss, 0.0, time.perf_counter() - start)
    return w, trace


@single_threaded()
def fit(ds, config):
    """Run the solver to tolerance or the sweep budget, with BLAS on one thread.

    Returns ``(weights, trace)``. The trace's objective column holds the
    variant's own objective: the full loss + lam * (local - global) for
    ``FULL``, loss + lam * local for ``LOSS_PLUS_LOCAL``, and the bare
    loss for ``LOSS_ONLY`` (which is a single direct solve). Raises
    ``NonFiniteObjective`` as soon as the objective stops being finite.
    """
    config = _check_type(config, "config", SolverConfig)
    geometry = StackGeometry(ds)
    grams = _LossGrams(geometry)
    if config.variant is Variant.LOSS_ONLY:
        return _fit_loss_only(grams)

    layout = _LabelStacks(geometry, geometry.active_index)
    factors = _factor_views([r.T @ r for r in layout.r_factors], config.mu)
    full = config.variant is Variant.FULL
    glob = _LabelStacks(geometry, [np.arange(geometry.labels.shape[0])]) if full else None
    state = _initial_state(geometry, config, layout.index)
    trace = SolverTrace()
    preds = grams.predict(state.w)
    if full:
        glob.stack(state.w)
    use_grad = full and config.lam > 0
    f_prev = None
    for t in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        shares = [grams.w_rhs(preds), layout.w_rhs(state.z, state.multipliers, config.mu)]
        if use_grad:
            grad_prev = trace_norm_subgradient(glob.ext)
            shares.append([config.lam * g for g in glob.back_project(grad_prev)])
        w = _update_w(factors, *shares)
        layout.stack(w)
        preds = grams.predict(w)
        if full:
            glob.stack(w)
        label_stacks = layout.label_stacks()
        z = _update_z(label_stacks, state.multipliers, config)
        mult = _update_multipliers(label_stacks, state.multipliers, z, config)
        residual = max(
            (float(np.linalg.norm(s - zk)) for s, zk in zip(label_stacks, z)), default=0.0
        )

        value = ObjectiveValue(
            loss=_masked_loss_from_preds(grams, preds),
            local_term=sum(nuclear_norm(s) for s in label_stacks),
            global_term=nuclear_norm(glob.ext) if full else 0.0,
            lam=config.lam,
        )
        f = surrogate = value.total
        if use_grad:  # the CCCP surrogate linearizes the global term at the previous stack
            surrogate = replace(value, global_term=float(np.sum(glob.ext * grad_prev))).total
        if not np.isfinite(f):
            raise NonFiniteObjective(t, f)

        trace.append(f, surrogate, residual, time.perf_counter() - t0)
        state = SolverState(w=w, z=z, multipliers=mult, iteration=t)
        if f_prev is not None and _rel_change(f, f_prev) < config.rel_tol:
            trace.converged = True
            break
        f_prev = f
    return state.w, trace


def predict(w, test):
    """Average the per-view predictions over the views that saw each sample.

    Raises ``AllViewsMissing`` if some test sample is absent everywhere.
    """
    _check_type(test, "test", MultiViewDataset)
    if not test.aligned:
        raise InvalidInput("prediction averages across views, which needs aligned rows")
    check_weight_shapes(w, [view.n_features for view in test.views], test.n_labels)
    n, c = test.n_samples, test.n_labels
    scores = np.zeros((n, c))
    counts = np.zeros(n)
    for view, wi in zip(test.views, w.weights):
        present = ~view.missing_rows
        scores[present] += view.features[present] @ wi
        counts += present
    if np.any(counts == 0):
        raise AllViewsMissing(int(np.flatnonzero(counts == 0)[0]))
    return scores / counts[:, None]
