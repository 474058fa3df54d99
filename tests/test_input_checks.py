"""Every scalar and matrix argument of the public functions fails with ``InvalidInput``.

One table per kind of input: each bad scalar goes to each scalar
argument, and each bad matrix to each matrix argument.
"""

import numpy as np
import pytest

from mvml import (
    InvalidInput,
    SpdFactor,
    WeightStack,
    bench_subgradient,
    evaluate_predictions,
    nemenyi_cd,
    nuclear_norm,
    rank_diagnostics,
    svt,
    symmetric_eig,
    trace_norm_subgradient,
)
from mvml.objective import objective

from conftest import make_dataset, make_weights

_RNG = np.random.default_rng(3)
_DS = make_dataset(_RNG, n=8, c=3, dims=(2, 3))
_W = make_weights(_RNG, (2, 3), 3)
_A = _RNG.standard_normal((6, 3))

# argument name -> (call with that argument set to x, a value out of its range)
SCALAR_ARGUMENTS = {
    "svt.tau": (lambda x: svt(_A, x), -0.5),
    "objective.lam": (lambda x: objective(_DS, _W, x), -1.0),
    "rank_diagnostics.tol": (lambda x: rank_diagnostics(_A, [[0, 1]], tol=x), 0.0),
    "bench_subgradient.seed": (lambda x: bench_subgradient(((6, 2),), repeats=1, seed=x), -1),
    "bench_subgradient.repeats": (lambda x: bench_subgradient(((6, 2),), repeats=x), 0),
    "bench_subgradient.n": (lambda x: bench_subgradient(((x, 2),), repeats=1), 0),
    "nemenyi_cd.n_methods": (lambda x: nemenyi_cd(x, 10, 2.5), 1),
    "nemenyi_cd.n_results": (lambda x: nemenyi_cd(3, x, 2.5), 0),
    "nemenyi_cd.q_alpha": (lambda x: nemenyi_cd(3, 10, x), 0.0),
}

# None is the documented default of rank_diagnostics' tol, so it is not bad there.
BAD_SCALARS = {"string": "0.5", "none": None, "bool": True, "nan": float("nan"),
               "inf": float("inf")}

SCALAR_CASES = [
    (arg, kind, value)
    for arg, (_, out_of_range) in SCALAR_ARGUMENTS.items()
    for kind, value in [*BAD_SCALARS.items(), ("out-of-range", out_of_range)]
    if not (arg == "rank_diagnostics.tol" and value is None)
]


@pytest.mark.parametrize(
    "arg, kind, value", SCALAR_CASES, ids=[f"{arg}-{kind}" for arg, kind, _ in SCALAR_CASES]
)
def test_bad_scalar_raises_invalid_input(arg, kind, value):
    call, _ = SCALAR_ARGUMENTS[arg]
    with pytest.raises(InvalidInput, match=arg.split(".")[1]):
        call(value)


# argument name -> call with that argument set to x
MATRIX_ARGUMENTS = {
    "svt.a": lambda x: svt(x, 0.1),
    "nuclear_norm.a": nuclear_norm,
    "trace_norm_subgradient.a": trace_norm_subgradient,
    "symmetric_eig.b": symmetric_eig,
    "WeightStack.weights": lambda x: WeightStack([x]),
    "evaluate_predictions.scores": lambda x: evaluate_predictions(x, [[1.0, -1.0]]),
    "evaluate_predictions.truth": lambda x: evaluate_predictions([[0.5, -0.5]], x),
    "rank_diagnostics.pred": lambda x: rank_diagnostics(x, []),
    "SpdFactor.m": SpdFactor,
    "SpdFactor.solve.rhs": lambda x: SpdFactor(np.eye(2)).solve(x),
}

BAD_MATRICES = {
    "strings": [["a", "b"], ["c", "d"]],
    "ragged": [[1.0, 2.0], [3.0]],
    "complex": np.eye(2) * 1j,
    "one-d": np.ones(2),
    "non-finite": [[1.0, np.nan], [0.0, 1.0]],
}

# SpdFactor.solve takes a vector right-hand side as well as a matrix.
MATRIX_CASES = [
    (arg, kind)
    for arg in MATRIX_ARGUMENTS for kind in BAD_MATRICES
    if not (arg == "SpdFactor.solve.rhs" and kind == "one-d")
]


@pytest.mark.parametrize("arg, kind", MATRIX_CASES, ids=[f"{a}-{k}" for a, k in MATRIX_CASES])
def test_bad_matrix_raises_invalid_input(arg, kind):
    with pytest.raises(InvalidInput, match=arg.split(".")[-1]):
        MATRIX_ARGUMENTS[arg](BAD_MATRICES[kind])


def test_vector_rhs_still_solves():
    np.testing.assert_allclose(SpdFactor(np.eye(2)).solve([1.0, 2.0]), [1.0, 2.0])
