"""Every scalar and matrix argument of the public functions fails with ``InvalidInput``.

One table per kind of input: each bad scalar goes to each scalar
argument and to each container argument, which must reject it rather
than iterate it, an int to each dataset, view or spec argument, and each
bad matrix to each matrix argument.
"""

from dataclasses import replace

import numpy as np
import pytest

from mvml import (
    CorruptionSpec,
    InvalidInput,
    MultiViewDataset,
    SolverConfig,
    SpdFactor,
    ViewData,
    WeightStack,
    bench_subgradient,
    corrupt,
    evaluate_predictions,
    generate_synthetic,
    indicator_from,
    present_rows,
    run_experiment,
    save_dataset,
    sublabel_rows,
    nemenyi_cd,
    stack_predictions,
    nuclear_norm,
    rank_diagnostics,
    svt,
    symmetric_eig,
    trace_norm_subgradient,
    init_state,
    update_multipliers,
    update_w,
    update_z,
)
from mvml.experiments import subset_dataset
from mvml.objective import objective

from conftest import make_dataset, make_weights

_RNG = np.random.default_rng(3)
_DS = make_dataset(_RNG, n=8, c=3, dims=(2, 3))
_W = make_weights(_RNG, (2, 3), 3)
_A = _RNG.standard_normal((6, 3))
# every row holds a positive tag, so all 3 labels are active and each view's W step solvable
_SOLVER_DS = make_dataset(_RNG, n=8, c=3, dims=(2, 3), ensure_positive_per_row=True)
_CFG = SolverConfig(lam=0.5)
_STATE = init_state(_SOLVER_DS, _CFG)

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
    # containers: a scalar or a string is rejected, not iterated
    "MultiViewDataset.views": (MultiViewDataset, 5),
    "WeightStack.weights": (WeightStack, 5),
    "rank_diagnostics.sublabel_rows_per_label": (lambda x: rank_diagnostics(_A, x), 5),
    "stack_predictions.rows_per_view": (lambda x: stack_predictions(_DS, _W, x), 5),
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
    "trace_norm_subgradient.a": trace_norm_subgradient,
    "symmetric_eig.b": symmetric_eig,
    "WeightStack.weights": lambda x: WeightStack([x]),
    "ViewData.features": lambda x: ViewData(x, np.zeros((2, 1)), np.zeros(2, dtype=bool)),
    "ViewData.labels": lambda x: ViewData(np.ones((2, 2)), x, np.zeros(2, dtype=bool)),
    "evaluate_predictions.scores": lambda x: evaluate_predictions(x, [[1.0, -1.0]]),
    "evaluate_predictions.truth": lambda x: evaluate_predictions([[0.5, -0.5]], x),
    "rank_diagnostics.pred": lambda x: rank_diagnostics(x, []),
    "SpdFactor.m": SpdFactor,
    "SpdFactor.solve.rhs": lambda x: SpdFactor(np.eye(2)).solve(x),
    "update_w.grad_prev": lambda x: update_w(_STATE, _SOLVER_DS, _CFG, grad_prev=x),
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
    "stack_predictions.rows_per_view": lambda x: stack_predictions(_DS, _W, [x, [0]]),
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
    assert stack_predictions(_DS, _W, [[], []]).shape == (0, 3)


def _with_entry(field, k, value):
    """``_STATE`` with entry ``k`` of its ``field`` list replaced by ``value``."""
    mats = list(getattr(_STATE, field))
    mats[k] = value
    return replace(_STATE, **{field: mats})


STEP_FUNCTIONS = {
    "update_w": lambda state: update_w(state, _SOLVER_DS, _CFG),
    "update_z": lambda state: update_z(state, _SOLVER_DS, _CFG),
    "update_multipliers": lambda state: update_multipliers(state, _SOLVER_DS, _CFG),
}

# kind of malformed state -> (the state, the message it must raise)
BAD_STATES = {
    "none": (None, "state must be a SolverState"),
    "dict": ({"w": _STATE.w, "z": _STATE.z, "multipliers": _STATE.multipliers},
             "state must be a SolverState"),
    "z-none": (replace(_STATE, z=None), r"state\.z must be a list of 3"),
    "multipliers-none": (replace(_STATE, multipliers=None), r"state\.multipliers must be a list"),
    "z-one-short": (replace(_STATE, z=_STATE.z[:-1]), r"state\.z must be a list of 3 .* got 2"),
    "z-one-extra": (replace(_STATE, z=[*_STATE.z, _STATE.z[0]]), r"state\.z .* got 4"),
    "z-too-few-rows": (_with_entry("z", 1, _STATE.z[1][:-1]), r"state\.z\[1\] must have shape"),
    "z-one-d": (_with_entry("z", 2, np.zeros(3)), r"state\.z\[2\] must be 2-D"),
    "multipliers-text": (_with_entry("multipliers", 0, [["a", "b", "c"]]),
                         r"state\.multipliers\[0\] must hold real numbers"),
    "multipliers-nan": (_with_entry("multipliers", 2, np.full_like(_STATE.multipliers[2], np.nan)),
                        r"state\.multipliers\[2\] row 0, column 0 is not finite"),
}

STATE_CASES = [(fn, kind) for fn in STEP_FUNCTIONS for kind in BAD_STATES]


@pytest.mark.parametrize("fn, kind", STATE_CASES, ids=[f"{f}-{k}" for f, k in STATE_CASES])
def test_malformed_state_raises_invalid_input(fn, kind):
    state, message = BAD_STATES[kind]
    with pytest.raises(InvalidInput, match=message):
        STEP_FUNCTIONS[fn](state)


def test_grad_prev_of_the_wrong_shape_is_named():
    with pytest.raises(InvalidInput, match=r"grad_prev must have shape \(\d+, 3\), got \(1, 1\)"):
        update_w(_STATE, _SOLVER_DS, _CFG, grad_prev=[[1.0]])


def test_splits_given_as_nested_lists_pass_every_step():
    state = replace(_STATE, z=[zk.tolist() for zk in _STATE.z])
    for step in STEP_FUNCTIONS.values():
        step(state)
    assert [zk.shape for zk in update_z(state, _SOLVER_DS, _CFG)] == [zk.shape for zk in _STATE.z]
