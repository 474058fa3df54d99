"""Experiment pipeline: seeds, splits, repeat orchestration, reports, bench."""

import json
import multiprocessing
import os
import pickle
import shutil
import stat
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvml import (
    AllViewsMissing,
    CorruptionSpec,
    ExperimentConfig,
    InvalidInput,
    NonFiniteObjective,
    SolverConfig,
    SplitSpec,
    SyntheticSpec,
    Variant,
    WorkerDied,
    bench_subgradient,
    corrupt,
    evaluate_predictions,
    export_report,
    fit,
    generate_synthetic,
    predict,
    run_experiment,
    save_dataset,
    strip_timing,
)
from mvml import experiments
from mvml.experiments import (
    _STREAM_CORRUPT,
    _STREAM_INIT,
    METRIC_NAMES,
    derive_seed,
    load_source,
    run_experiments,
    split_indices,
    subset_dataset,
    summarize,
)

from conftest import (
    DyingDataset, make_dataset, one_lane, stripped_outputs, worker_takes_the_rest,
)


def small_config(**overrides):
    """Cheap two-view experiment that still exercises the full variant."""
    base = dict(
        source=SyntheticSpec(
            n=60, c=5, n_views=2, dims=(5, 6), positives_per_sample=2,
            noise_sigma=0.5, seed=7,
        ),
        corruption=CorruptionSpec(alpha=0.3, beta=0.3, dealign=True, seed=2),
        solver=SolverConfig(lam=0.3, mu=5.0, max_iters=30, init_seed=1),
        split=SplitSpec(train_fraction=0.7, seed=3),
        repeats=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- seeds


def test_derive_seed_is_deterministic():
    a = derive_seed(11, 2, 5)
    b = derive_seed(11, 2, 5)
    assert a == b
    assert isinstance(a, int)
    assert 0 <= a < 2**64


def test_derive_seed_separates_streams_and_repeats():
    seen = set()
    for base in range(10):
        for stream in range(5):
            for repeat in range(5):
                seen.add(derive_seed(base, stream, repeat))
    assert len(seen) == 10 * 5 * 5


def test_derive_seed_key_order_matters():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


# ---------------------------------------------------------------- splits


def test_split_indices_partitions_the_range():
    split = SplitSpec(train_fraction=0.7, seed=4)
    train, test = split_indices(20, split, repeat=0)
    assert train.size == 14 and test.size == 6
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(20))
    assert np.intersect1d(train, test).size == 0
    # both halves come back in ascending order
    assert np.array_equal(train, np.sort(train))
    assert np.array_equal(test, np.sort(test))


def test_split_indices_repeat_is_its_own_stream():
    split = SplitSpec(train_fraction=0.5, seed=0)
    t0a, _ = split_indices(30, split, repeat=0)
    t0b, _ = split_indices(30, split, repeat=0)
    t1, _ = split_indices(30, split, repeat=1)
    assert np.array_equal(t0a, t0b)
    assert not np.array_equal(t0a, t1)


def test_split_indices_rejects_empty_split():
    with pytest.raises(InvalidInput):
        split_indices(1, SplitSpec(train_fraction=0.7, seed=0), repeat=0)
    with pytest.raises(InvalidInput):
        split_indices(2, SplitSpec(train_fraction=0.4, seed=0), repeat=0)


def test_split_spec_rejects_degenerate_fraction():
    for bad in (0.0, 1.0, -0.2, float("nan")):
        with pytest.raises(InvalidInput):
            SplitSpec(train_fraction=bad)


def test_subset_dataset_extracts_rows():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, n=10, c=3, dims=(3, 4), with_missing=True)
    rows = np.array([1, 4, 7])
    sub = subset_dataset(ds, rows)
    assert sub.aligned
    assert sub.n_samples == 3
    for full, small in zip(ds.views, sub.views):
        assert np.array_equal(small.features, full.features[rows])
        assert np.array_equal(small.labels, full.labels[rows])
        assert np.array_equal(small.missing_rows, full.missing_rows[rows])


def test_subset_dataset_gathers_shared_labels_once():
    ds = generate_synthetic(SyntheticSpec(n=30, c=5, n_views=3, dims=(2, 3, 4), seed=7))
    rows = np.array([0, 5, 9, 20])
    sub = subset_dataset(ds, rows)
    assert all(view.labels is sub.views[0].labels for view in sub.views)
    assert np.array_equal(sub.views[0].labels, ds.views[0].labels[rows])
    with pytest.raises(ValueError):
        sub.views[2].labels[0, 0] = 0.0
    # labels of their own stay apart and writeable
    own = subset_dataset(make_dataset(np.random.default_rng(5), n=10, c=3, dims=(3, 4)), rows[:3])
    assert own.views[0].labels is not own.views[1].labels
    assert all(view.labels.flags.writeable for view in own.views)


def test_subset_dataset_requires_alignment():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, n=8, c=3, dims=(3, 4), aligned=False)
    with pytest.raises(InvalidInput):
        subset_dataset(ds, np.arange(4))


# ------------------------------------------------- repeat orchestration


def test_single_repeat_matches_manual_pipeline():
    """run_experiment is exactly split -> corrupt -> fit -> score, nothing more."""
    spec = SyntheticSpec(
        n=80, c=5, n_views=2, dims=(6, 7), positives_per_sample=2,
        noise_sigma=0.4, seed=3,
    )
    config = ExperimentConfig(
        source=spec,
        corruption=CorruptionSpec(alpha=0.0, beta=0.0, dealign=False, seed=9),
        solver=SolverConfig(lam=0.0, mu=1.0, max_iters=50, variant="loss_only", init_seed=4),
        split=SplitSpec(train_fraction=0.7, seed=2),
        repeats=1,
    )
    record = run_experiment(config)

    ds = generate_synthetic(spec)
    train_idx, test_idx = split_indices(ds.n_samples, config.split, repeat=0)
    train = subset_dataset(ds, train_idx)
    test = subset_dataset(ds, test_idx)
    cspec = replace(config.corruption, seed=derive_seed(9, _STREAM_CORRUPT, 0))
    train = corrupt(train, cspec)
    scfg = replace(config.solver, init_seed=derive_seed(4, _STREAM_INIT, 0))
    w, trace = fit(train, scfg)
    report = evaluate_predictions(predict(w, test), test.views[0].labels)

    rep = record.repeats[0]
    assert rep.n_test == test.n_samples
    assert rep.trace.iterations == trace.iterations
    assert rep.trace.converged == trace.converged
    assert rep.trace.objective[-1] == trace.objective[-1]
    assert rep.metrics["one_minus_hamming"] == report.one_minus_hamming
    assert rep.metrics["one_minus_ranking"] == report.one_minus_ranking
    assert rep.metrics["average_precision"] == report.average_precision
    assert rep.metrics["auc"] == report.auc


def test_rerun_is_byte_identical_after_strip_timing():
    config = small_config()
    first = json.dumps(strip_timing(run_experiment(config).to_dict()), sort_keys=True)
    second = json.dumps(strip_timing(run_experiment(config).to_dict()), sort_keys=True)
    assert first == second
    assert '"timing"' not in first
    assert '"fit_seconds"' not in first


def test_repeat_timing_records_the_set_up_and_strips_to_the_untimed_report():
    repeat = run_experiment(small_config()).repeats[0]
    body = repeat.to_dict()
    assert sorted(body["timing"]) == ["fit_seconds", "iteration_seconds", "setup_seconds"]
    assert 0.0 < body["timing"]["setup_seconds"] == repeat.trace.setup_seconds
    assert body["timing"]["setup_seconds"] < body["timing"]["fit_seconds"]
    # the set-up time lives in the timing subtree only, so the stripped report keeps its keys
    assert strip_timing(body) == {
        "metrics": body["metrics"],
        "n_test": body["n_test"],
        "solver": repeat.trace.summary(),
        "convergence": repeat.trace.to_dict(),
    }
    assert "setup_seconds" not in json.dumps(strip_timing(body))


def test_summary_matches_recomputation():
    record = run_experiment(small_config(repeats=3))
    for name in METRIC_NAMES:
        values = np.array([r.metrics[name] for r in record.repeats])
        assert record.summary[name]["mean"] == float(np.mean(values))
        assert record.summary[name]["std"] == float(np.std(values, ddof=1))


def test_summarize_single_repeat_has_zero_std():
    record = run_experiment(small_config(repeats=1, solver=SolverConfig(lam=0.0, variant="loss_only")))
    for name in METRIC_NAMES:
        assert record.summary[name]["std"] == 0.0


def test_failed_repeat_names_the_repeat(tmp_path):
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, n=10, c=3, dims=(3, 4), aligned=False)
    save_dataset(ds, tmp_path / "unaligned")
    config = ExperimentConfig(
        source=str(tmp_path / "unaligned"),
        solver=SolverConfig(lam=0.0, variant="loss_only"),
        repeats=1,
    )
    with pytest.raises(InvalidInput, match="repeat 0"):
        run_experiment(config)


@pytest.mark.parametrize("prefix", ["", "repeat 1: "])
def test_errors_survive_pickling(prefix):
    """A process pool over repeats sends errors back pickled: the type, the attributes
    and the message, with the prefix ``run_experiment`` writes into ``args``, survive."""
    ds = generate_synthetic(SyntheticSpec(n=30, c=3, n_views=2, dims=(3, 4), seed=4))
    _, trace = fit(ds, SolverConfig(lam=0.5, max_iters=3, rel_tol=0.0))
    trace.append(float("nan"), 1.0, 0.5, 0.0)
    errors = [NonFiniteObjective(4, float("nan"), trace), AllViewsMissing(3)]
    for exc in errors:
        exc.args = (f"{prefix}{exc}",)
    nonfinite, missing = (pickle.loads(pickle.dumps(exc)) for exc in errors)
    for exc, back in zip(errors, (nonfinite, missing)):
        assert type(back) is type(exc) and back.args == exc.args
    assert str(nonfinite) == f"{prefix}objective became non-finite (nan) at iteration 4"
    assert nonfinite.iteration == 4 and np.isnan(nonfinite.value)
    assert nonfinite.trace.rows() == trace.rows() and not nonfinite.trace.converged
    assert str(missing) == f"{prefix}sample 3 is missing in every view" and missing.sample == 3


def test_a_repeat_that_diverges_pickles_with_its_repeat(monkeypatch):
    monkeypatch.setattr("mvml.solver._masked_loss_from_preds", lambda grams, preds: np.nan)
    with pytest.raises(NonFiniteObjective, match="^repeat 0: objective became") as info:
        run_experiment(small_config())
    back = pickle.loads(pickle.dumps(info.value))
    assert str(back) == str(info.value) and back.iteration == 1
    assert back.trace.rows() == info.value.trace.rows()


# ---------------------------------------------------------------- lanes


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_worker_lane_writes_the_reports_of_one_lane(tmp_path, fmt):
    config = small_config(repeats=3, outputs=str(tmp_path / "run"))
    runs = []
    for lanes in (one_lane(), worker_takes_the_rest()):
        with lanes as ran:
            record = run_experiment(config, fmt=fmt)
        runs.append((json.dumps(strip_timing(record.to_dict()), sort_keys=True),
                     stripped_outputs(tmp_path / "run")))
        shutil.rmtree(tmp_path / "run")
    assert ran == [0]  # the worker ran repeats 1 and 2
    assert runs[0] == runs[1]


def test_workers_that_claim_at_once_run_every_task_once():
    """Two workers race for eleven claims while the calling lane waits: a claim torn or
    lost between them would change the record or end in ``WorkerDied``."""
    config = small_config(repeats=12, solver=SolverConfig(lam=0.3, mu=5.0, max_iters=5))
    records = []
    for lanes in (one_lane(), worker_takes_the_rest(lanes=3)):
        with lanes as ran:
            records.append(json.dumps(strip_timing(run_experiment(config).to_dict())))
    assert ran == [0]
    assert records[0] == records[1]


def test_more_tasks_than_claims_run_in_blocks():
    """Past ``_MAX_CLAIMS`` tasks a claim takes a block of two or more, so the calling
    lane's first claim is repeats 0 and 1, and any lane count yields one lane's record."""
    config = small_config(repeats=experiments._MAX_CLAIMS + 2,
                          solver=SolverConfig(lam=0.3, mu=5.0, max_iters=3))
    with one_lane():
        want = json.dumps(strip_timing(run_experiment(config).to_dict()))
    for lanes in (2, 3):
        with worker_takes_the_rest(lanes=lanes) as ran:
            assert json.dumps(strip_timing(run_experiment(config).to_dict())) == want
        assert ran == [0, 1]


def diverging_after_the_first(mu_grid=(5.0, 0.02)):
    """Configurations of which the first converges and the second diverges in every repeat."""
    base = small_config(solver=SolverConfig(lam=0.5, mu=5.0, max_iters=150, rel_tol=0.0,
                                            init_seed=1))
    return [replace(base, solver=replace(base.solver, mu=mu)) for mu in mu_grid]


def test_a_task_that_fails_in_a_worker_raises_what_one_lane_raises():
    configs = diverging_after_the_first()
    ds = load_source(configs[0])
    threads = threading.active_count()
    errors = []
    for lanes in (one_lane(), worker_takes_the_rest()):
        with lanes as ran, pytest.raises(NonFiniteObjective) as info:
            list(run_experiments(ds, configs))
        errors.append((type(info.value), str(info.value), info.value.trace.rows()))
    assert ran == [0]  # the worker ran repeat 1 and then failed at the second config's first
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("repeat 0: objective became non-finite")
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_the_records_before_the_first_failure_are_yielded_in_order():
    configs = diverging_after_the_first()
    with worker_takes_the_rest():
        records = run_experiments(load_source(configs[0]), configs)
        assert next(records).config == configs[0].to_dict()
        with pytest.raises(NonFiniteObjective, match="^repeat 0: "):
            next(records)


def test_a_worker_killed_mid_task_raises_worker_died():
    config = small_config(repeats=3)
    source = load_source(config)
    threads = threading.active_count()
    with worker_takes_the_rest() as ran, pytest.raises(WorkerDied) as info:
        list(run_experiments(DyingDataset(views=source.views), [config]))
    assert ran == [0, 2]  # the worker died in repeat 1, so this lane claimed repeat 2
    assert str(info.value) == "repeat 1: the worker process running it died (exit code -9)"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_one_task_starts_no_worker(monkeypatch):
    def no_workers(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr("mvml.experiments._cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_workers)
    assert len(run_experiment(small_config(repeats=1)).repeats) == 1


@pytest.mark.parametrize("lanes", [2, 3, 4])
def test_a_grid_on_any_lane_count_yields_the_records_of_one_lane(lanes):
    """Two configurations of three repeats each: the workers run every task but the
    first, whichever configuration it belongs to, and the records come back in
    configuration order, as on one lane."""
    base = small_config(repeats=3, solver=SolverConfig(lam=0.3, mu=5.0, max_iters=5))
    configs = [base, replace(base, solver=replace(base.solver, lam=0.6, variant="loss_plus_local"))]
    ds = load_source(base)
    threads = threading.active_count()
    records = []
    for lane_count in (one_lane(), worker_takes_the_rest(lanes=lanes)):
        with lane_count as ran:
            records.append([json.dumps(strip_timing(record.to_dict()))
                            for record in run_experiments(ds, configs)])
    assert ran == [0]
    assert records[0] == records[1]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
def test_the_cpus_are_those_the_process_may_use():
    assert experiments._cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("count, cpus", [(5, 5), (None, 1)])
def test_without_an_affinity_call_the_cpus_are_the_cpu_count(monkeypatch, count, cpus):
    """Where the platform has no ``sched_getaffinity``, an unknown count is one CPU."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert experiments._cpus() == cpus


def test_run_experiments_checks_its_arguments():
    ds = load_source(small_config())
    with pytest.raises(InvalidInput, match="configs"):
        next(run_experiments(ds, small_config()))
    with pytest.raises(InvalidInput, match=r"configs\[0\]"):
        next(run_experiments(ds, [{"repeats": 1}]))
    with pytest.raises(InvalidInput, match="ds"):
        next(run_experiments("data", [small_config()]))


# -------------------------------------------------------------- config


def test_config_hash_ignores_outputs_only(tmp_path):
    a = small_config()
    b = small_config(outputs=str(tmp_path / "somewhere"))
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 64
    assert set(a.config_hash) <= set("0123456789abcdef")
    assert a.config_hash != small_config(solver=SolverConfig(lam=0.31)).config_hash
    assert a.config_hash != small_config(repeats=3).config_hash
    assert a.config_hash != small_config(split=SplitSpec(train_fraction=0.7, seed=4)).config_hash


def test_config_dict_round_trip_synthetic():
    config = small_config()
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_dict_round_trip_path():
    config = ExperimentConfig(
        source="/data/somewhere",
        solver=SolverConfig(lam=1.0, variant="loss_plus_local"),
        repeats=4,
        outputs="/tmp/out",
    )
    assert ExperimentConfig.from_dict(config.to_dict()) == config


SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def synthetic_specs(draw):
    c = draw(st.integers(1, 50))
    n_views = draw(st.integers(1, 4))
    return SyntheticSpec(
        n=draw(st.integers(c, 10**6)),
        c=c,
        n_views=n_views,
        dims=tuple(draw(st.lists(st.integers(1, 10**4), min_size=n_views, max_size=n_views))),
        positives_per_sample=draw(st.integers(1, c)),
        noise_sigma=draw(st.floats(0.0, 1e6)),
        seed=draw(SEEDS),
    )


EXPERIMENT_CONFIGS = st.builds(
    ExperimentConfig,
    source=synthetic_specs() | st.text(),
    corruption=st.builds(
        CorruptionSpec, alpha=st.floats(0.0, 1.0, exclude_max=True), beta=st.floats(0.0, 1.0),
        dealign=st.booleans(), seed=SEEDS,
    ),
    solver=st.builds(
        SolverConfig, lam=st.floats(0.0, 1e6), mu=st.floats(0.0, 1e6, exclude_min=True),
        max_iters=st.integers(1, 10**6), rel_tol=st.floats(0.0, 1.0),
        variant=st.sampled_from(Variant), init_seed=SEEDS,
    ),
    split=st.builds(
        SplitSpec, train_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=SEEDS,
    ),
    repeats=st.integers(1, 1000),
    outputs=st.none() | st.text(),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(EXPERIMENT_CONFIGS)
def test_config_dict_round_trip_property(config):
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    from_json = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert from_json == config
    assert from_json.config_hash == config.config_hash


def test_from_dict_takes_n_views_for_views():
    by_alias = ExperimentConfig.from_dict({"dataset": {"synthetic": {"n": 40, "views": 2}}})
    by_field = ExperimentConfig.from_dict({"dataset": {"synthetic": {"n": 40, "n_views": 2}}})
    assert by_alias == by_field
    assert by_alias.source.dims == (40, 40)
    with pytest.raises(InvalidInput, match="not both"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": {"n": 40, "views": 2, "n_views": 2}}})


def test_from_dict_rejects_ambiguous_datasets():
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "x", "synthetic": {}}})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "x", "bogus": 1}})


def test_from_dict_fills_defaults():
    config = ExperimentConfig.from_dict({"dataset": {"synthetic": {"n": 40, "c": 5}}})
    assert config.source == SyntheticSpec(
        n=40, c=5, n_views=3, dims=(40, 40, 40), positives_per_sample=3,
        noise_sigma=0.6, seed=0,
    )
    assert config.corruption == CorruptionSpec(alpha=0.0, beta=0.0, dealign=False, seed=0)
    assert config.solver.lam == 0.5 and config.solver.mu == 5.0
    assert config.split == SplitSpec(train_fraction=0.7, seed=0)
    assert config.repeats == 10
    assert config.outputs is None


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidInput, match="unknown config keys"):
        ExperimentConfig.from_dict({"dataset": {"path": "x"}, "bogus": 1})
    with pytest.raises(InvalidInput, match="unknown solver keys"):
        ExperimentConfig.from_dict({"dataset": {"path": "x"}, "solver": {"lamb": 0.1}})
    with pytest.raises(InvalidInput, match="unknown dataset.synthetic keys"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": {"rows": 10}}})


# (spec class, arguments it cannot do without, the config section that sets it)
CONFIG_SPECS = [
    (SyntheticSpec, {}, "dataset.synthetic"),
    (CorruptionSpec, {}, "corruption"),
    (SolverConfig, {"lam": 0.5}, "solver"),
    (SplitSpec, {}, "split"),
]


SPEC_FIELDS = [
    (spec, required, section, f.name)
    for spec, required, section in CONFIG_SPECS for f in fields(spec)
]


@pytest.mark.parametrize("bad", ["x", None, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "spec, required, section, name", SPEC_FIELDS,
    ids=[f"{section}.{name}" for _, _, section, name in SPEC_FIELDS],
)
def test_every_spec_field_rejects_strings_and_none(spec, required, section, name, bad):
    with pytest.raises(InvalidInput):
        spec(**{**required, name: bad})
    if section == "dataset.synthetic":
        raw = {"dataset": {"synthetic": {name: bad}}}
    else:
        raw = {"dataset": {"path": "data"}, section: {name: bad}}
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict(raw)


def test_configs_store_plain_python_scalars():
    five = ExperimentConfig.from_dict({"dataset": {"path": "d"}, "solver": {"mu": 5}})
    five_point_oh = ExperimentConfig.from_dict({"dataset": {"path": "d"}, "solver": {"mu": 5.0}})
    assert five.solver.mu == 5.0 and type(five.solver.mu) is float
    assert five.config_hash == five_point_oh.config_hash

    from_numpy = ExperimentConfig(
        source="d",
        corruption=CorruptionSpec(alpha=np.float64(0.25), dealign=np.bool_(True)),
        solver=SolverConfig(lam=np.float32(0.5), max_iters=np.int64(7)),
        split=SplitSpec(seed=np.int64(3)),
        repeats=np.int64(2),
    )
    from_python = ExperimentConfig(
        source="d",
        corruption=CorruptionSpec(alpha=0.25, dealign=True),
        solver=SolverConfig(lam=0.5, max_iters=7),
        split=SplitSpec(seed=3),
        repeats=2,
    )
    assert from_numpy.config_hash == from_python.config_hash
    assert type(from_numpy.corruption.dealign) is bool


def test_real_fields_reject_integers_too_large_for_a_float():
    with pytest.raises(InvalidInput):
        SolverConfig(lam=10**400)
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "d"}, "solver": {"lam": 10**400}})


def test_outputs_must_be_a_string():
    with pytest.raises(InvalidInput):
        ExperimentConfig(source="d", outputs=5)
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "d"}, "outputs": 5})


def test_from_dict_rejects_malformed_sections():
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict("not a dict")
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"neither": 1}})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": 7}})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "x"}, "repeats": "ten"})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_dict({"dataset": {"path": "x"}, "solver": []})


def test_config_rejects_bad_source_and_repeats():
    with pytest.raises(InvalidInput):
        ExperimentConfig(source=42)
    with pytest.raises(InvalidInput):
        ExperimentConfig(source="x", repeats=0)


@pytest.mark.parametrize("section, value", [
    ("solver", {"lam": 0.5}),
    ("corruption", None),
    ("corruption", {"alpha": 0.5}),
    ("split", 0.7),
    ("solver", CorruptionSpec()),
])
def test_config_sections_must_be_their_spec_types(section, value):
    with pytest.raises(InvalidInput, match=f"{section} must be a "):
        ExperimentConfig(source=SyntheticSpec(n=200, seed=11), **{section: value})


# ------------------------------------------------------------- reports


def test_json_report_round_trips(tmp_path):
    out = tmp_path / "run"
    record = run_experiment(small_config(outputs=str(out)))
    parsed = json.loads((out / "report.json").read_text())
    assert parsed == record.to_dict()
    assert parsed["config_hash"] == small_config().config_hash
    assert len(parsed["repeats"]) == 2


def test_csv_report_layout(tmp_path):
    record = run_experiment(small_config(repeats=3))
    export_report(record, "csv", tmp_path)

    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,mean,std,rep00,rep01,rep02"
    assert len(lines) == 1 + len(METRIC_NAMES)
    for line, name in zip(lines[1:], METRIC_NAMES):
        cells = line.split(",")
        assert cells[0] == name
        # repr round trip: parsed cells reproduce the floats exactly
        assert float(cells[1]) == record.summary[name]["mean"]
        assert float(cells[2]) == record.summary[name]["std"]
        for cell, rep in zip(cells[3:], record.repeats):
            assert float(cell) == rep.metrics[name]

    for r, rep in enumerate(record.repeats):
        lines = (tmp_path / f"convergence_{r:02d}.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective,surrogate,residual"
        assert len(lines) == 1 + rep.trace.iterations
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == t + 1
            assert float(cells[1]) == rep.trace.objective[t]
            assert float(cells[2]) == rep.trace.surrogate[t]
            assert float(cells[3]) == rep.trace.residual[t]


def test_report_files_get_the_mode_open_gives(tmp_path):
    record = run_experiment(small_config(repeats=1, solver=SolverConfig(lam=0.0, variant="loss_only")))
    old = os.umask(0o027)
    try:
        written = export_report(record, "csv", tmp_path)
    finally:
        os.umask(old)
    assert [stat.S_IMODE(path.stat().st_mode) for path in written] == [0o640] * len(written)
    assert sorted(tmp_path.iterdir()) == sorted(written)  # no temporary file left behind


def test_export_rejects_unknown_format(tmp_path):
    record = run_experiment(small_config(repeats=1, solver=SolverConfig(lam=0.0, variant="loss_only")))
    with pytest.raises(InvalidInput):
        export_report(record, "yaml", tmp_path)


def test_run_rejects_unknown_format_before_fitting(monkeypatch, tmp_path):
    def no_fit(*args):
        raise AssertionError("fit ran")

    monkeypatch.setattr("mvml.experiments.fit", no_fit)
    for outputs in (None, str(tmp_path)):
        with pytest.raises(InvalidInput, match="format"):
            run_experiment(small_config(repeats=1, outputs=outputs), fmt="xml")


def test_strip_timing_removes_every_timing_subtree():
    nested = {
        "timing": {"fit_seconds": 1.0},
        "repeats": [
            {"metrics": {"auc": 0.9}, "timing": {"iteration_seconds": [0.1]}},
            {"metrics": {"auc": 0.8}},
        ],
        "summary": {"auc": {"mean": 0.85}},
    }
    stripped = strip_timing(nested)
    assert stripped == {
        "repeats": [
            {"metrics": {"auc": 0.9}},
            {"metrics": {"auc": 0.8}},
        ],
        "summary": {"auc": {"mean": 0.85}},
    }
    # the original structure is left untouched
    assert "timing" in nested and "timing" in nested["repeats"][0]
    assert strip_timing([1, "x", 2.5]) == [1, "x", 2.5]
    assert strip_timing(3) == 3


# --------------------------------------------------------------- bench


def test_bench_subgradient_smoke():
    rows = bench_subgradient(sizes=((50, 5), (60, 4)), repeats=2, seed=1)
    assert [(r["n"], r["c"]) for r in rows] == [(50, 5), (60, 4)]
    for row in rows:
        assert row["kernel_seconds"] > 0.0
        assert row["oracle_seconds"] > 0.0


def test_bench_subgradient_memory_guard_skips_oracle():
    rows = bench_subgradient(sizes=((80, 4),), repeats=1, oracle_memory_limit=1000)
    assert rows[0]["oracle_seconds"] is None
    assert rows[0]["kernel_seconds"] > 0.0


def test_bench_subgradient_rejects_bad_sizes():
    with pytest.raises(InvalidInput):
        bench_subgradient(sizes=((0, 5),), repeats=1)


def test_bench_subgradient_rejects_non_integer_sizes_and_repeats():
    with pytest.raises(InvalidInput):
        bench_subgradient(sizes=((2.5, 3),), repeats=1)
    with pytest.raises(InvalidInput):
        bench_subgradient(sizes=((50, 5),), repeats=0)


@pytest.mark.parametrize("size", [5, (5, 3, 1)], ids=["scalar", "triple"])
def test_bench_subgradient_rejects_sizes_that_are_not_pairs(size):
    with pytest.raises(InvalidInput, match="pair"):
        bench_subgradient(sizes=(size,), repeats=1)
