"""Acceptance checklist: one test per numbered criterion.

Each test re-derives its expectation from an independent oracle or a
directional property, runs the pinned configuration, and prints a
single ``ACCEPTANCE <k> PASS`` line on success (visible with ``-s``).
"""

from dataclasses import replace
import json

import numpy as np
import pytest

from mvml import (
    CorruptionSpec,
    ExperimentConfig,
    SolverConfig,
    SplitSpec,
    SyntheticSpec,
    UndefinedMetric,
    adapted_auc,
    average_precision,
    bench_subgradient,
    corrupt,
    fit,
    generate_synthetic,
    hamming_loss,
    nemenyi_cd,
    rank_diagnostics,
    ranking_loss,
    regularizer_value,
    run_experiment,
    strip_timing,
    svt,
    trace_norm_subgradient,
)
from mvml.data import StackGeometry
from mvml.experiments import METRIC_NAMES

import oracles
from conftest import make_weights, guarantee_conditions_dataset

DESK = {
    "synthetic": SyntheticSpec(seed=11),  # n=2000, c=30, V=3
    "corruption": CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7),
    "solver": SolverConfig(lam=0.5, mu=5.0, max_iters=200),
}


@pytest.fixture(scope="module")
def desk_run():
    """One converged half-corrupted, de-aligned fit at working scale."""
    ds = generate_synthetic(DESK["synthetic"])
    cor = corrupt(ds, DESK["corruption"])
    w, trace = fit(cor, DESK["solver"])
    return {"data": cor, "weights": w, "trace": trace}


def desk_experiment(lam=0.5, mu=5.0):
    return ExperimentConfig(
        source=DESK["synthetic"],
        corruption=DESK["corruption"],
        solver=SolverConfig(lam=lam, mu=mu, max_iters=200, init_seed=3),
        split=SplitSpec(seed=5),
        repeats=1,
    )


def test_criterion_01_regularizer_guarantee():
    """Local minus global term is nonnegative on 500 condition-satisfying draws."""
    rng = np.random.default_rng(20240818)
    for _ in range(500):
        n = int(rng.integers(10, 40))
        c = int(rng.integers(2, 6))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=int(rng.integers(1, 4))))
        ds = guarantee_conditions_dataset(rng, n=n, c=c, dims=dims)
        w = make_weights(rng, dims, c, scale=float(rng.uniform(0.2, 2.0)))
        local, global_ = regularizer_value(ds, w)
        assert local - global_ >= -1e-7 * local
    print("ACCEPTANCE 1 PASS")


def test_criterion_02_subgradient_oracle():
    """Gram-route subgradient equals the full-SVD polar factor, 200 draws."""
    rng = np.random.default_rng(20240819)
    for trial in range(200):
        n = int(rng.integers(5, 501))
        c = int(rng.integers(1, 21))
        a = rng.standard_normal((n, c))
        full_rank = trial % 4 != 0
        if not full_rank:
            r = max(1, min(n, c) // 2)
            a = rng.standard_normal((n, r)) @ rng.standard_normal((r, c))
        g = trace_norm_subgradient(a)
        nn = oracles.svd_nuclear(a)
        # duality pairing holds for every draw, rank-deficient included
        assert abs(float(np.trace(a.T @ g)) - nn) <= 1e-7 * max(nn, 1e-30)
        if full_rank:
            assert np.linalg.norm(g - oracles.svd_subgradient(a)) <= 1e-8
    print("ACCEPTANCE 2 PASS")


def test_criterion_03_svt_oracle():
    """svt equals full-SVD shrinkage on 200 draws and is a local prox minimum."""
    rng = np.random.default_rng(20240820)
    for trial in range(200):
        n = int(rng.integers(3, 61))
        c = int(rng.integers(1, 13))
        a = rng.standard_normal((n, c))
        if trial % 10 == 0:  # tau beyond the top singular value zeroes everything
            tau = float(np.linalg.svd(a, compute_uv=False)[0] + rng.uniform(0.1, 1.0))
        else:
            tau = float(rng.uniform(0.0, 2.0))
        z = svt(a, tau)
        assert np.linalg.norm(z - oracles.svd_svt(a, tau)) <= 1e-8
        if trial < 20:
            base = oracles.prox_objective(z, a, tau)
            for _ in range(20):
                d = rng.standard_normal((n, c))
                d /= np.linalg.norm(d)
                assert oracles.prox_objective(z + 1e-3 * d, a, tau) >= base - 1e-10
    print("ACCEPTANCE 3 PASS")


def test_criterion_04_monotone_convergence(desk_run):
    trace = desk_run["trace"]
    f = np.array(trace.objective)
    steps = np.diff(f)
    assert np.all(steps <= 1e-8 * np.abs(f[:-1]))  # non-increasing up to slack
    assert trace.converged
    assert trace.iterations <= 200
    # objective and its convex surrogate meet at the fixed point
    assert abs(trace.surrogate[-1] - f[-1]) <= 0.05 * abs(f[-1])
    # the split variables have closed onto the per-tag prediction stacks
    geometry = StackGeometry(desk_run["data"])
    stack, rows_per_label = geometry.stack(desk_run["weights"]), geometry.label_index
    scale = max(float(np.linalg.norm(stack[rows])) for rows in rows_per_label)
    assert trace.residual[-1] <= 1e-3 * scale
    print("ACCEPTANCE 4 PASS")


def test_criterion_05_ablation_ordering():
    records = {}
    for variant in ("full", "loss_plus_local", "loss_only"):
        config = ExperimentConfig(
            source=SyntheticSpec(n=600, noise_sigma=0.8, positives_per_sample=2, seed=42),
            corruption=CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7),
            solver=SolverConfig(lam=0.5, mu=5.0, max_iters=200, variant=variant,
                                init_seed=3),
            split=SplitSpec(train_fraction=0.7, seed=11),
            repeats=10,
        )
        records[variant] = run_experiment(config)

    auc = {v: records[v].summary["auc"]["mean"] for v in records}
    assert auc["full"] > auc["loss_plus_local"] >= auc["loss_only"]

    for metric in ("average_precision", "auc"):
        wins = sum(
            full.metrics[metric] > loss.metrics[metric]
            for full, loss in zip(records["full"].repeats, records["loss_only"].repeats)
        )
        assert wins >= 8
    print("ACCEPTANCE 5 PASS")


def test_criterion_06_mu_invariance():
    finals = {}
    for mu in (1.0, 5.0, 10.0):
        finals[mu] = run_experiment(desk_experiment(mu=mu)).repeats[0].metrics
    for name in METRIC_NAMES:
        values = [finals[mu][name] for mu in (1.0, 5.0, 10.0)]
        assert max(values) - min(values) <= 0.005
    print("ACCEPTANCE 6 PASS")


def test_criterion_07_lambda_plateau():
    auc = {
        lam: run_experiment(desk_experiment(lam=lam)).repeats[0].metrics["auc"]
        for lam in (0.1, 1.0)
    }
    assert abs(auc[0.1] - auc[1.0]) < 0.02
    print("ACCEPTANCE 7 PASS")


def test_criterion_08_corruption_monotonicity():
    means, stds = [], []
    for alpha in (0.1, 0.3, 0.5, 0.7):
        config = ExperimentConfig(
            source=SyntheticSpec(n_views=6, dims=(40, 50, 60, 70, 80, 90),
                                 noise_sigma=1.5, seed=11),
            corruption=CorruptionSpec(alpha=alpha, beta=0.5, dealign=True, seed=7),
            solver=SolverConfig(lam=0.5, mu=5.0, max_iters=200, init_seed=3),
            split=SplitSpec(seed=5),
            repeats=5,
        )
        record = run_experiment(config)
        auc = [r.metrics["auc"] for r in record.repeats]
        means.append(float(np.mean(auc)))
        stds.append(float(np.std(auc, ddof=1)))
    for i in range(len(means) - 1):
        assert means[i + 1] <= means[i] + max(stds[i], stds[i + 1])
    print("ACCEPTANCE 8 PASS")


def test_criterion_09_rank_diagnostics(desk_run):
    geometry = StackGeometry(desk_run["data"])
    stack, rows_per_label = geometry.stack(desk_run["weights"]), geometry.label_index
    signed = np.where(stack >= 0, 1.0, -1.0)
    diag = rank_diagnostics(signed, rows_per_label)
    c = desk_run["data"].n_labels
    assert diag.entire_rank == c
    assert float(np.mean(diag.sub_ranks)) <= c / 2
    print("ACCEPTANCE 9 PASS")


def test_criterion_10_linear_scaling():
    # per-iteration fit cost doubles (within 30%) with the sample count
    per_iter = []
    for n in (2000, 4000, 8000):
        ds = generate_synthetic(replace(DESK["synthetic"], n=n))
        cor = corrupt(ds, DESK["corruption"])
        _, trace = fit(cor, SolverConfig(lam=0.5, mu=5.0, max_iters=40, rel_tol=0.0))
        per_iter.append(float(np.median(trace.seconds)))
    for small, big in zip(per_iter, per_iter[1:]):
        assert 1.4 <= big / small <= 2.6

    # the subgradient kernel scales the same way ...
    rows = bench_subgradient(
        sizes=((10000, 100), (20000, 100), (40000, 100)),
        repeats=3, seed=0, oracle_memory_limit=0,
    )
    kernel = [row["kernel_seconds"] for row in rows]
    for small, big in zip(kernel, kernel[1:]):
        assert 1.4 <= big / small <= 2.6

    # ... and beats the full-SVD oracle wherever the oracle fits in memory
    checked = bench_subgradient(sizes=((10000, 100),), repeats=2, seed=0)
    assert checked[0]["oracle_seconds"] is not None
    assert checked[0]["kernel_seconds"] < checked[0]["oracle_seconds"]
    print("ACCEPTANCE 10 PASS")


def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(20240821)
    defined = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        c = int(rng.integers(2, 7))
        scores = rng.standard_normal((n, c))
        truth = np.where(rng.random((n, c)) < 0.5, 1.0, -1.0)

        assert hamming_loss(scores, truth) == oracles.brute_hamming(scores, truth)
        complete = True
        for fn, oracle in (
            (ranking_loss, oracles.brute_ranking),
            (average_precision, oracles.brute_average_precision),
            (adapted_auc, oracles.brute_auc),
        ):
            want = oracle(scores, truth)
            if want is None:
                complete = False
                with pytest.raises(UndefinedMetric):
                    fn(scores, truth)
            else:
                assert fn(scores, truth) == want
        defined += complete
    assert defined >= 80  # random +/-1 truth rarely degenerates

    assert nemenyi_cd(6, 20, 2.850) == pytest.approx(4.130, abs=1e-3)
    print("ACCEPTANCE 11 PASS")


def test_criterion_12_deterministic_reports(tmp_path):
    config = ExperimentConfig(
        source=SyntheticSpec(n=600, noise_sigma=0.8, positives_per_sample=2, seed=42),
        corruption=CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7),
        solver=SolverConfig(lam=0.5, mu=5.0, max_iters=200, init_seed=3),
        split=SplitSpec(seed=11),
        repeats=2,
    )
    reports = []
    for name in ("first", "second"):
        run_experiment(replace(config, outputs=str(tmp_path / name)))
        parsed = json.loads((tmp_path / name / "report.json").read_text())
        body = strip_timing(parsed)
        body["config"].pop("outputs")  # the only intentional difference
        reports.append(json.dumps(body, sort_keys=True))
    assert reports[0] == reports[1]
    print("ACCEPTANCE 12 PASS")
