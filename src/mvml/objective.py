"""Masked squared loss and the global/local trace-norm regularizer.

The training objective is

    f(W) = loss(W) + lam * (local(W) - global(W))

where loss is half the squared error over observed label entries, local
sums the nuclear norms of the per-label prediction stacks (rows tagged
positive for that label, stacked across views), and global is the
nuclear norm of the prediction stack over all present rows of all
views. Subtracting the global term rewards spread across the whole
label space while the local sum still pulls each label's block toward
low rank; on data where every present row carries at least one positive
tag the difference is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StackGeometry
from .errors import _check_real
from .linalg import nuclear_norm


@dataclass(frozen=True)
class ObjectiveValue:
    """Decomposed objective: loss, the two regularizer terms, and lam."""

    loss: float
    local_term: float
    global_term: float
    lam: float

    @property
    def regularizer(self):
        return self.local_term - self.global_term

    @property
    def total(self):
        return self.loss + self.lam * self.regularizer


def stack_loss(geometry, stack):
    """Half the squared error of a present-row ``stack`` over observed tags."""
    resid = geometry.indicator * (stack - geometry.labels)
    return 0.5 * float(np.sum(resid * resid))


def _stack_regularizer(geometry, stack):
    local = sum(nuclear_norm(stack[rows]) for rows in geometry.active_index)
    return local, nuclear_norm(stack)


def masked_loss(ds, w):
    """Half the squared prediction error over observed label entries.

    Entries with a zero tag and rows missing from a view contribute
    nothing.
    """
    geometry = StackGeometry(ds)
    return stack_loss(geometry, geometry.stack(w))


def regularizer_value(ds, w):
    """Return ``(local, global)`` nuclear-norm terms for the pair.

    ``local`` sums, over labels in index order, the nuclear norm of the
    stack of predictions for rows tagged positive for that label;
    labels whose stack is empty in every view contribute zero.
    ``global`` is the nuclear norm of the prediction stack over all
    present rows.
    """
    geometry = StackGeometry(ds)
    return _stack_regularizer(geometry, geometry.stack(w))


def objective(ds, w, lam):
    """Evaluate the full objective at ``(ds, w)`` for trade-off ``lam``."""
    lam = _check_real(lam, "lam", bound="nonnegative")
    geometry = StackGeometry(ds)
    stack = geometry.stack(w)
    local, global_term = _stack_regularizer(geometry, stack)
    return ObjectiveValue(
        loss=stack_loss(geometry, stack), local_term=local, global_term=global_term,
        lam=lam,
    )
