"""Every scalar and matrix argument of the public functions fails with ``InvalidInput``.

One table per kind of input: each bad scalar goes to each scalar
argument and to each container argument, which must reject it rather
than iterate it, an int to each dataset, view or spec argument, and each
bad matrix to each matrix argument.
"""

import numpy as np
import pytest

from mvml import (
    CorruptionSpec,
    InvalidInput,
    MultiViewDataset,
    SolverConfig,
    SpdFactor,
    StackGeometry,
    ViewData,
    WeightStack,
    bench_subgradient,
    corrupt,
    adapted_auc,
    average_precision,
    evaluate_predictions,
    fit,
    generate_synthetic,
    hamming_loss,
    indicator_from,
    present_rows,
    run_experiment,
    save_dataset,
    sublabel_rows,
    nemenyi_cd,
    nuclear_norm,
    predict,
    rank_diagnostics,
    ranking_loss,
    singular_values,
    svt,
    trace_norm_subgradient,
)
from mvml.experiments import subset_dataset
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
    "bench_subgradient.oracle_memory_limit": (
        lambda x: bench_subgradient(((6, 2),), repeats=1, oracle_memory_limit=x), -1.0),
    "nemenyi_cd.n_methods": (lambda x: nemenyi_cd(x, 10, 2.5), 1),
    "nemenyi_cd.n_results": (lambda x: nemenyi_cd(3, x, 2.5), 0),
    "nemenyi_cd.q_alpha": (lambda x: nemenyi_cd(3, 10, x), 0.0),
    # the solver's settings, which fit checks through its config
    "SolverConfig.lam": (lambda x: SolverConfig(lam=x), -1.0),
    "SolverConfig.mu": (lambda x: SolverConfig(lam=0.5, mu=x), 0.0),
    "SolverConfig.rel_tol": (lambda x: SolverConfig(lam=0.5, rel_tol=x), -1e-6),
    "SolverConfig.max_iters": (lambda x: SolverConfig(lam=0.5, max_iters=x), 0),
    "SolverConfig.init_seed": (lambda x: SolverConfig(lam=0.5, init_seed=x), -1),
    "SolverConfig.variant": (lambda x: SolverConfig(lam=0.5, variant=x), "sample_space"),
    # containers: a scalar or a string is rejected, not iterated
    "MultiViewDataset.views": (MultiViewDataset, 5),
    "WeightStack.weights": (WeightStack, 5),
    "rank_diagnostics.sublabel_rows_per_label": (lambda x: rank_diagnostics(_A, x), 5),
    "bench_subgradient.sizes": (lambda x: bench_subgradient(x, repeats=1), 5),
}

# None is the documented default of rank_diagnostics' tol, so it is not bad there.
BAD_SCALARS = {"string": "0.5", "none": None, "bool": True, "nan": float("nan"),
               "inf": float("inf")}

# out-of-range values beyond an argument's first: a rank cutoff at tol >= 1 times
# sigma_max would count no singular value
MORE_OUT_OF_RANGE = [("rank_diagnostics.tol", "one", 1.0)]

SCALAR_CASES = [
    (arg, kind, value)
    for arg, (_, out_of_range) in SCALAR_ARGUMENTS.items()
    for kind, value in [*BAD_SCALARS.items(), ("out-of-range", out_of_range)]
    if not (arg == "rank_diagnostics.tol" and value is None)
] + MORE_OUT_OF_RANGE


@pytest.mark.parametrize(
    "arg, kind, value", SCALAR_CASES, ids=[f"{arg}-{kind}" for arg, kind, _ in SCALAR_CASES]
)
def test_bad_scalar_raises_invalid_input(arg, kind, value):
    call, _ = SCALAR_ARGUMENTS[arg]
    with pytest.raises(InvalidInput, match=arg.split(".")[1]):
        call(value)


# argument name -> call, into the directory ``path``, with that argument set to x
TYPED_ARGUMENTS = {
    "corrupt.ds": lambda x, path: corrupt(x, CorruptionSpec()),
    "generate_synthetic.spec": lambda x, path: generate_synthetic(x),
    "run_experiment.config": lambda x, path: run_experiment(x),
    "save_dataset.ds": lambda x, path: save_dataset(x, path),
    "subset_dataset.ds": lambda x, path: subset_dataset(x, [0]),
    "sublabel_rows.view": lambda x, path: sublabel_rows(x, 0),
    "present_rows.view": lambda x, path: present_rows(x),
    "indicator_from.view": lambda x, path: indicator_from(x),
    "fit.ds": lambda x, path: fit(x, SolverConfig(lam=0.5)),
    "fit.config": lambda x, path: fit(_DS, x),
    "predict.test": lambda x, path: predict(_W, x),
    "StackGeometry.ds": lambda x, path: StackGeometry(x),
}


@pytest.mark.parametrize("arg", TYPED_ARGUMENTS)
def test_argument_of_the_wrong_type_raises_invalid_input(arg, tmp_path):
    with pytest.raises(InvalidInput, match=f"{arg.split('.')[1]} must be a"):
        TYPED_ARGUMENTS[arg](5, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# argument name -> call with that argument set to x
MATRIX_ARGUMENTS = {
    "svt.a": lambda x: svt(x, 0.1),
    "nuclear_norm.a": nuclear_norm,
    "singular_values.a": singular_values,
    "trace_norm_subgradient.a": trace_norm_subgradient,
    "WeightStack.weights": lambda x: WeightStack([x]),
    "ViewData.features": lambda x: ViewData(x, np.zeros((2, 1)), np.zeros(2, dtype=bool)),
    "ViewData.labels": lambda x: ViewData(np.ones((2, 2)), x, np.zeros(2, dtype=bool)),
    "evaluate_predictions.scores": lambda x: evaluate_predictions(x, [[1.0, -1.0]]),
    "evaluate_predictions.truth": lambda x: evaluate_predictions([[0.5, -0.5]], x),
    "hamming_loss.scores": lambda x: hamming_loss(x, [[1.0, -1.0]]),
    "ranking_loss.scores": lambda x: ranking_loss(x, [[1.0, -1.0]]),
    "average_precision.scores": lambda x: average_precision(x, [[1.0, -1.0]]),
    "adapted_auc.scores": lambda x: adapted_auc(x, [[1.0, -1.0]]),
    "rank_diagnostics.pred": lambda x: rank_diagnostics(x, []),
    "SpdFactor.m": SpdFactor,
    "SpdFactor.solve.rhs": lambda x: SpdFactor(np.eye(2)).solve(x),
    "MultiViewDataset.views": lambda x: MultiViewDataset([x]),
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


# argument name -> call with that row selection set to x (_A has 6 rows, _DS 8)
ROW_ARGUMENTS = {
    "rank_diagnostics.sublabel_rows_per_label": lambda x: rank_diagnostics(_A, [x]),
    "subset_dataset.rows": lambda x: subset_dataset(_DS, x),
}

BAD_ROWS = {
    "float": [0.7, 1.9],
    "boolean-mask": [True, False, True],
    "text": ["0", "1"],
    "negative": [0, -1],
    "past-the-end": [0, 8],
}

ROW_CASES = [(arg, kind) for arg in ROW_ARGUMENTS for kind in BAD_ROWS]


@pytest.mark.parametrize("arg, kind", ROW_CASES, ids=[f"{a}-{k}" for a, k in ROW_CASES])
def test_bad_row_selection_raises_invalid_input(arg, kind):
    with pytest.raises(InvalidInput, match=arg.split(".")[-1]):
        ROW_ARGUMENTS[arg](BAD_ROWS[kind])


def test_empty_row_selection_is_valid():
    assert rank_diagnostics(_A, [[]]).sub_ranks == (0,)

