"""Single-loop CCCP+ADMM solver for the per-view linear predictor stack.

The model lives on the present-row prediction stack ``P`` of
``data.StackGeometry``: view ``i`` owns the block ``P_i = Xp_i W_i``,
where ``Xp_i`` holds its present rows, and label ``k``'s stack ``P_k``
stacks, view by view, the predictions ``X_{k,i} W_i`` of the present
rows tagged positive for ``k``. The concave global term is linearized at
the previous iterate through the trace-norm subgradient of the stack,
each label stack is split into an auxiliary ``Z_k`` with a scaled
multiplier ``L_k``, and one sweep is

    R    =  -I o (P - Y)  +  sum_k scatter_k(mu Z_k - L_k)
    W_i  <- (mu Xp_i' D_i Xp_i)^-1  (Xp_i' R[block_i]  +  lam * R_i' G_i)
    Z_k  <- svt(P_k + L_k / mu, lam / mu)
    L_k  <- L_k + mu * (P_k - Z_k)

with ``I`` the observed-entry indicator, ``Y`` the stacked labels,
``scatter_k`` adding a label's rows back where ``P_k`` came from, and
``D_i`` the per-row count of positive tags. The loss enters the W step
through its gradient at the previous iterate, so each view does one
solve against an SPD factor computed once per fit. Labels positive
nowhere are dropped from the splitting. The public ``update_w``,
``update_z`` and ``update_multipliers`` run these steps on ``P`` itself,
as the reference for ``fit``, which never reads a sample row in a sweep.

The loss is a sum of least-squares terms, one per (view, label). Once
per fit, ``A_{i,k} = X_{O,ki}' X_{O,ki}`` over the present rows of view
``i`` whose tag ``k`` is observed, ``B_i = Xp_i' Y_i`` and half the
number of observed tags give, through one batched product per view
``H_i[:, k] = A_{i,k} W_i[:, k]``, both

    loss(W)                 =  0.5 * sum_i <W_i, H_i - 2 B_i>  +  0.5 * sum(I)
    Xp_i' (-I o (P - Y))_i  =  B_i - H_i,

the loss's value and its W-step share.

The global term is compressed. Once per fit, a Householder
QR of each view's present rows gives ``Xp_i = Q_i R_i`` with ``R_i`` of
at most ``d_i`` rows, and the compressed stack
``S = vstack_i(R_i W_i) = Q' P`` has the singular values and right
singular vectors of ``P``. So ``||P||_* = ||S||_*``, the subgradient is
``subgrad ||P||_* = Q G`` with ``G = subgrad ||S||_*`` split into the
per-view blocks ``G_i``, its W-step share ``lam * Xp_i' (Q G)[block_i]``
is ``lam * R_i' G_i``, and the CCCP surrogate's linear term
``<P, Q G>`` is ``<S, G>``.

So are the label terms. Once per fit, every block ``X_{k,i}`` with more
rows than features (``n_{k,i} > d_i``) is replaced by its QR factor,
``X_{k,i} = Q_{k,i} R_{k,i}``; shorter blocks keep their rows,
``R~_{k,i} = X_{k,i}``. Then ``P_k = Q~_k P~_k`` with
``P~_k = vstack_i(R~_{k,i} W_i)`` and ``Q~_k = blockdiag_i(Q_{k,i} or I)``
of orthonormal columns. ``Z_k`` and ``L_k`` start at zero and stay in
the range of ``Q~_k``, and ``svt(Q~ M) = Q~ svt(M)``, so the sweep keeps
``Z~_k`` and ``L~_k`` of at most ``sum_i min(n_{k,i}, d_i)`` rows:

    Z~_k <- svt(P~_k + L~_k / mu, lam / mu)
    L~_k <- L~_k + mu * (P~_k - Z~_k)

``||P_k||_* = ||P~_k||_*``, ``||P_k - Z_k||_F = ||P~_k - Z~_k||_F``, and
the split's W-step share ``X_{k,i}' Q~ (mu Z~_k - L~_k)[view i]`` is
``R~_{k,i}' (mu Z~_k - L~_k)[view i]``. View ``i``'s blocks stack into
``R~_i``, and the extended stack ``vstack_i(R~_i W_i)`` of
``sum_{k,i} min(n_{k,i}, d_i)`` rows takes one product per view; each
``P~_k`` is a row selection of it, and the splits' residual is
back-projected with one product per view. The same rows give the W
step's matrix,
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
    _check_seed, _set_checked,
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


def _coerce_config(config):
    if not isinstance(config, SolverConfig):
        raise InvalidInput("config must be a SolverConfig")
    return config


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
    """Every active label's stack ``P~_k`` as a row selection of one extended stack.

    View ``i``'s rows ``r_factors[i]`` stack, label by label, its blocks
    ``R~_{k,i}``: the QR factor ``R_{k,i}`` of a block with
    ``n_{k,i} > d_i``, the block's own rows otherwise. They sit at
    ``r_blocks[i]`` of the extended stack, and ``index[a]`` selects
    active label ``a``'s stack view by view; every row belongs to one
    label. With ``compress=False`` every block keeps its rows, so the
    label stacks are the sample-space ``P_k``. The extended stack and its
    residual are allocated once and overwritten by every call.
    """

    def __init__(self, geometry, compress=True):
        dims = [feats.shape[1] for feats in geometry.features]
        stops = [block.stop for block in geometry.blocks[:-1]]
        parts = [np.split(rows, np.searchsorted(rows, stops)) for rows in geometry.active_index]
        heights = [[d if compress and rows.size > d else rows.size for rows, d in zip(p, dims)]
                   for p in parts]
        ends = np.cumsum([sum(h[i] for h in heights) for i in range(len(dims))])
        self.r_blocks = [slice(start, end) for start, end in zip([0, *ends[:-1]], ends)]
        starts = [r_block.start for r_block in self.r_blocks]
        factors = [[] for _ in dims]
        self.index = []
        for label_parts, label_heights in zip(parts, heights):
            picks = []
            for i, (rows, height, feats, block) in enumerate(
                    zip(label_parts, label_heights, geometry.features, geometry.blocks)):
                x = feats[rows - block.start]
                factors[i].append(np.linalg.qr(x, mode="r") if height < rows.size else x)
                picks.append(np.arange(starts[i], starts[i] + height))
                starts[i] += height
            self.index.append(np.concatenate(picks))
        self.r_factors = [np.vstack(f) if f else np.zeros((0, d)) for f, d in zip(factors, dims)]
        self.ext = np.empty((int(ends[-1]), geometry.labels.shape[1]))
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
    if not isinstance(state, SolverState):
        raise InvalidInput(f"state must be a SolverState, got {type(state).__name__}")
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
    return _initial_state(geometry, _coerce_config(config), geometry.active_index)


def _factor_views(layout, mu):
    """Cached factors of mu * sum_k Xk' Xk = mu * R~_i' R~_i from the layout's rows."""
    factors = []
    for i, r in enumerate(layout.r_factors):
        gram = r.T @ r
        if gram.size and not gram.any():  # its ridge is zero too, so it cannot be factored
            raise InvalidInput(f"view {i}: no present row has a positive tag and nonzero features")
        factors.append(SpdFactor(mu * gram))
    return factors


def _qr_factors(geometry):
    """``R_i`` of each view's present rows by Householder QR, so ``R_i' R_i = Xp_i' Xp_i``."""
    return [np.linalg.qr(feats, mode="r") for feats in geometry.features]


def _compressed_stack(r_factors, w):
    """``S = vstack_i(R_i W_i)``: the singular values and right vectors of the stack."""
    return np.vstack([r @ wi for r, wi in zip(r_factors, w.weights)])


def _global_rhs(mats, grad, lam):
    """``lam * M_i' G_i`` per view, ``G_i`` being the next ``M_i.shape[0]`` rows of ``grad``:
    the global term's share of each W-step right-hand side."""
    ends = np.cumsum([m.shape[0] for m in mats])[:-1]
    return [lam * (m.T @ g) for m, g in zip(mats, np.split(grad, ends))]


def _update_w(factors, *shares):
    """Solve each view's W step against the sum of its right-hand-side shares."""
    return WeightStack([factor.solve(sum(parts)) for factor, *parts in zip(factors, *shares)])


def _update_z(label_stacks, multipliers, config):
    tau = config.lam / config.mu
    return [svt(stack + mult / config.mu, tau) for stack, mult in zip(label_stacks, multipliers)]


def _update_multipliers(label_stacks, multipliers, z, config):
    return [m + config.mu * (stack - zk) for m, stack, zk in zip(multipliers, label_stacks, z)]


def _sample_space(ds, state, config):
    """Checked config, geometry, state and the uncompressed label layout at ``state.w``."""
    config = _coerce_config(config)
    geometry = StackGeometry(ds)
    state = _check_state(state, geometry)
    layout = _LabelStacks(geometry, compress=False)
    layout.stack(state.w)
    return config, geometry, state, layout


def update_w(state, ds, config, grad_prev=None):
    """One W sweep; ``grad_prev`` is the trace-norm subgradient of the
    present-row prediction stack at the previous weights (or None)."""
    config, geometry, state, layout = _sample_space(ds, state, config)
    stack = geometry.stack(state.w)
    resid = geometry.indicator * (geometry.labels - stack)
    shares = [[feats.T @ resid[block] for feats, block in zip(geometry.features, geometry.blocks)],
              layout.w_rhs(state.z, state.multipliers, config.mu)]
    if grad_prev is not None:
        grad_prev = _check_matrix(grad_prev, "grad_prev")
        if grad_prev.shape != stack.shape:
            raise InvalidInput(f"grad_prev must have shape {stack.shape}, got {grad_prev.shape}")
        shares.append(_global_rhs(geometry.features, grad_prev, config.lam))
    return _update_w(_factor_views(layout, config.mu), *shares)


def update_z(state, ds, config):
    """Shrink each active per-label stack by lam/mu around the multipliers."""
    config, _, state, layout = _sample_space(ds, state, config)
    return _update_z(layout.label_stacks(), state.multipliers, config)


def update_multipliers(state, ds, config):
    """Ascend the scaled multipliers along the current primal residuals."""
    config, _, state, layout = _sample_space(ds, state, config)
    return _update_multipliers(layout.label_stacks(), state.multipliers, state.z, config)


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
    config = _coerce_config(config)
    geometry = StackGeometry(ds)
    grams = _LossGrams(geometry)
    if config.variant is Variant.LOSS_ONLY:
        return _fit_loss_only(grams)

    layout = _LabelStacks(geometry)
    factors = _factor_views(layout, config.mu)
    full = config.variant is Variant.FULL
    r_factors = _qr_factors(geometry) if full else None
    state = _initial_state(geometry, config, layout.index)
    trace = SolverTrace()
    preds = grams.predict(state.w)
    compressed = _compressed_stack(r_factors, state.w) if full else None
    use_grad = full and config.lam > 0
    f_prev = None
    for t in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        shares = [grams.w_rhs(preds), layout.w_rhs(state.z, state.multipliers, config.mu)]
        if use_grad:
            grad_prev = trace_norm_subgradient(compressed)
            shares.append(_global_rhs(r_factors, grad_prev, config.lam))
        w = _update_w(factors, *shares)
        layout.stack(w)
        preds = grams.predict(w)
        compressed = _compressed_stack(r_factors, w) if full else None
        label_stacks = layout.label_stacks()
        z = _update_z(label_stacks, state.multipliers, config)
        mult = _update_multipliers(label_stacks, state.multipliers, z, config)
        residual = max(
            (float(np.linalg.norm(s - zk)) for s, zk in zip(label_stacks, z)), default=0.0
        )

        value = ObjectiveValue(
            loss=_masked_loss_from_preds(grams, preds),
            local_term=sum(nuclear_norm(s) for s in label_stacks),
            global_term=nuclear_norm(compressed) if full else 0.0,
            lam=config.lam,
        )
        f = surrogate = value.total
        if use_grad:  # the CCCP surrogate linearizes the global term at the previous stack
            surrogate = replace(value, global_term=float(np.sum(compressed * grad_prev))).total
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
    if not isinstance(test, MultiViewDataset):
        raise InvalidInput("test must be a MultiViewDataset")
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
