"""Single-loop CCCP+ADMM solver for the per-view linear predictor stack.

Everything runs on the present-row prediction stack ``P`` of
``data.StackGeometry``: view ``i`` owns the block ``P_i = Xp_i W_i``,
where ``Xp_i`` holds its present rows, and label ``k``'s stack is the
row selection ``P[idx_k]`` of the rows tagged positive for ``k``. The
concave global term is linearized at the previous iterate through the
trace-norm subgradient ``G = subgrad ||P||_*``, each label stack is split
into an auxiliary ``Z_k`` with a scaled multiplier ``L_k``, and one
sweep is

    R    =  -I o (P - Y)  +  lam * G  +  sum_k scatter_k(mu Z_k - L_k)
    W_i  <- (mu Xp_i' D_i Xp_i)^-1  Xp_i' R[block_i]
    Z_k  <- svt(P[idx_k] + L_k / mu, lam / mu)
    L_k  <- L_k + mu * (P[idx_k] - Z_k)

with ``I`` the observed-entry indicator, ``Y`` the stacked labels,
``scatter_k`` adding a label's rows back at ``idx_k``, and ``D_i`` the
per-row count of positive tags. The loss enters the W step through its
gradient at the previous iterate, so each view does one GEMM and one
solve against an SPD factor computed once per fit. Labels positive
nowhere are dropped from the splitting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .blas import single_threaded
from .data import MultiViewDataset, StackGeometry, WeightStack, check_weight_shapes
from .errors import (
    AllViewsMissing, InvalidInput, NonFiniteObjective, _check_int, _check_real, _check_seed,
    _set_checked,
)
from .linalg import SpdFactor, nuclear_norm, svt, trace_norm_subgradient
from .objective import ObjectiveValue
from .objective import stack_loss as _masked_loss_from_preds  # module-level, so tests can stub it


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


def _label_stacks(geometry, stack):
    return [stack[rows] for rows in geometry.active_index]


def _initial_state(geometry, config):
    rng = np.random.default_rng(np.random.SeedSequence([config.init_seed]))
    c = geometry.labels.shape[1]
    weights = []
    for feats in geometry.features:
        d = feats.shape[1]
        weights.append(rng.standard_normal((d, c)) / np.sqrt(d))
    z = [np.zeros((rows.size, c)) for rows in geometry.active_index]
    mult = [np.zeros_like(zk) for zk in z]
    return SolverState(w=WeightStack(weights), z=z, multipliers=mult, iteration=0)


def init_state(ds, config):
    """Random weights scaled by 1/sqrt(d) per view, zero splits and multipliers."""
    return _initial_state(StackGeometry(ds), _coerce_config(config))


def _factor_views(geometry, mu):
    """Cached factors of mu * sum_k Xk' Xk = mu * Xp' diag(positive-tag counts) Xp."""
    counts = (geometry.labels == 1.0).sum(axis=1)
    factors = []
    for i, (feats, block) in enumerate(zip(geometry.features, geometry.blocks)):
        gram = (feats * counts[block, None]).T @ feats
        if gram.size and not gram.any():  # its ridge is zero too, so it cannot be factored
            raise InvalidInput(f"view {i}: no present row has a positive tag and nonzero features")
        factors.append(SpdFactor(mu * gram))
    return factors


def _update_w(geometry, factors, stack, state, config, grad_prev):
    """W step from the stack of ``state.w``; one GEMM and one cached solve per view."""
    resid = -geometry.indicator * (stack - geometry.labels)
    if grad_prev is not None:
        resid += config.lam * grad_prev
    for rows, zk, mk in zip(geometry.active_index, state.z, state.multipliers):
        resid[rows] += config.mu * zk - mk
    return WeightStack([
        factor.solve(feats.T @ resid[block])
        for feats, block, factor in zip(geometry.features, geometry.blocks, factors)
    ])


def _update_z(label_stacks, multipliers, config):
    tau = config.lam / config.mu
    return [svt(stack + mult / config.mu, tau) for stack, mult in zip(label_stacks, multipliers)]


def _update_multipliers(label_stacks, multipliers, z, config):
    return [m + config.mu * (stack - zk) for m, stack, zk in zip(multipliers, label_stacks, z)]


def update_w(state, ds, config, grad_prev=None):
    """One W sweep; ``grad_prev`` is the trace-norm subgradient of the
    present-row prediction stack at the previous weights (or None)."""
    config = _coerce_config(config)
    geometry = StackGeometry(ds)
    stack = geometry.stack(state.w)
    if grad_prev is not None and grad_prev.shape != stack.shape:
        raise InvalidInput(f"grad_prev must have shape {stack.shape}, got {grad_prev.shape}")
    factors = _factor_views(geometry, config.mu)
    return _update_w(geometry, factors, stack, state, config, grad_prev)


def update_z(state, ds, config):
    """Shrink each active per-label stack by lam/mu around the multipliers."""
    config = _coerce_config(config)
    geometry = StackGeometry(ds)
    label_stacks = _label_stacks(geometry, geometry.stack(state.w))
    return _update_z(label_stacks, state.multipliers, config)


def update_multipliers(state, ds, config):
    """Ascend the scaled multipliers along the current primal residuals."""
    config = _coerce_config(config)
    geometry = StackGeometry(ds)
    label_stacks = _label_stacks(geometry, geometry.stack(state.w))
    return _update_multipliers(label_stacks, state.multipliers, state.z, config)


def _rel_change(curr, prev):
    return abs(curr - prev) / max(abs(prev), 1e-12)


def _fit_loss_only(geometry, config):
    start = time.perf_counter()
    weights = []
    for feats, block in zip(geometry.features, geometry.blocks):
        labels, ind = geometry.labels[block], geometry.indicator[block]
        w = np.zeros((feats.shape[1], labels.shape[1]))
        for k in range(labels.shape[1]):
            mask = ind[:, k]
            if not mask.any():
                continue  # nothing observed for this label in this view
            cols = feats * mask[:, None]
            w[:, k] = SpdFactor(cols.T @ feats).solve(feats.T @ (mask * labels[:, k]))
        weights.append(w)
    w = WeightStack(weights)
    loss = _masked_loss_from_preds(geometry, geometry.stack(w))
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
    if config.variant is Variant.LOSS_ONLY:
        return _fit_loss_only(geometry, config)

    factors = _factor_views(geometry, config.mu)
    state = _initial_state(geometry, config)
    trace = SolverTrace()
    stack = geometry.stack(state.w)
    use_grad = config.variant is Variant.FULL and config.lam > 0
    f_prev = None
    for t in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        grad_prev = trace_norm_subgradient(stack) if use_grad else None
        w = _update_w(geometry, factors, stack, state, config, grad_prev)
        stack = geometry.stack(w)
        label_stacks = _label_stacks(geometry, stack)
        z = _update_z(label_stacks, state.multipliers, config)
        mult = _update_multipliers(label_stacks, state.multipliers, z, config)
        residual = max(
            (float(np.linalg.norm(s - zk)) for s, zk in zip(label_stacks, z)), default=0.0
        )

        value = ObjectiveValue(
            loss=_masked_loss_from_preds(geometry, stack),
            local_term=sum(nuclear_norm(s) for s in label_stacks),
            global_term=nuclear_norm(stack) if config.variant is Variant.FULL else 0.0,
            lam=config.lam,
        )
        f = surrogate = value.total
        if use_grad:  # the CCCP surrogate linearizes the global term at the previous stack
            surrogate = replace(value, global_term=float(np.sum(stack * grad_prev))).total
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
