"""Print SHA-256 digests of the library's outputs on fixed recipes, one line per group.

Run from the repository root on two trees, on one machine, and compare the lines::

    PYTHONPATH=src python3 tests/parity_digest.py

A change meant to leave every output bit-identical prints the same lines as its
parent. The digests are not committed as a test, because BLAS kernels, and so the
last bits of a product, differ between CPUs.

The groups:

- ``data``: the generated and the corrupted set (features, labels, missing flags,
  ``aligned``) of the desk, large and ablate recipes at seeds 0 and 1, and, on the
  ``aligned`` lines, the set that the same corruption gives without de-alignment;
- ``fit``: the 24 parity recipes, the desk recipe at seeds 0 and 1, the ablate
  recipe at seed 0 and the large recipe at seed 0, each under ``FULL``,
  ``LOSS_PLUS_LOCAL`` and ``LOSS_ONLY`` at lambda 0.5 and 0 (the objective,
  surrogate and residual series, ``converged`` and the weight bytes);
- ``scores``: for each lambda = 0.5 ``FULL`` fit, ``objective()``, the bytes of
  ``predict`` on the clean set and the ``evaluate_predictions`` report against it;
- ``report``: the report of acceptance criterion 12's experiment without its
  timings.

The recipes are those of ``perfbench/workloads.py``: 30 labels, views of
(40, 60, 80) features, alpha = beta = 0.5 with de-alignment; desk has n = 2000 and
runs to ``rel_tol`` 1e-6, large has n = 32000 and 15 sweeps, ablate has n = 600 and
noise 0.8. The whole run takes about 15 s on two CPUs.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from mvml import (
    CorruptionSpec, ExperimentConfig, SolverConfig, SplitSpec, SyntheticSpec, corrupt,
    evaluate_predictions, fit, generate_synthetic, objective, predict, run_experiment,
)
from mvml.experiments import strip_timing

RECIPES = {  # name: (n, noise, synthetic seed, init seed, sweeps, rel_tol)
    "desk": (2000, 0.3, 11, 0, 200, 1e-6),
    "large": (32000, 0.3, 11, 0, 15, 0.0),
    "ablate": (600, 0.8, 42, 3, 200, 1e-6),
}
FIT_RUNS = (("desk", 0), ("desk", 1), ("ablate", 0), ("large", 0))


def corruption(seed, dealign=True):
    """The recipes' corruption at ``seed``: alpha = beta = 0.5, de-aligned by default."""
    return CorruptionSpec(alpha=0.5, beta=0.5, dealign=dealign, seed=7 + seed)


def recipe(name, seed):
    """The clean set, the corrupted set and the solver config of a recipe at ``seed``."""
    n, noise, synthetic_seed, init_seed, sweeps, rel_tol = RECIPES[name]
    clean = generate_synthetic(SyntheticSpec(
        n=n, c=30, n_views=3, dims=(40, 60, 80), positives_per_sample=2, noise_sigma=noise,
        seed=synthetic_seed + seed,
    ))
    train = corrupt(clean, corruption(seed))
    config = SolverConfig(lam=0.5, mu=5.0, max_iters=sweeps, rel_tol=rel_tol,
                          init_seed=init_seed + seed)
    return clean, train, config


def digest(*parts):
    """SHA-256 of ``parts``: arrays by dtype, shape and bytes, anything else by ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def dataset_parts(ds):
    parts = [ds.aligned]
    for view in ds.views:
        parts += [view.features, view.labels, view.missing_rows]
    return parts


def report_digest():
    config = ExperimentConfig(
        source=SyntheticSpec(n=600, noise_sigma=0.8, positives_per_sample=2, seed=42),
        corruption=CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7),
        solver=SolverConfig(lam=0.5, mu=5.0, max_iters=200, init_seed=3),
        split=SplitSpec(seed=11),
        repeats=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(replace(config, outputs=tmp))
        body = strip_timing(json.loads((Path(tmp) / "report.json").read_text()))
    body["config"].pop("outputs")
    return digest(json.dumps(body, sort_keys=True))


def main():
    for name in RECIPES:
        for seed in (0, 1):
            clean, train, _ = recipe(name, seed)
            print(f"data {name} seed {seed}", digest(*dataset_parts(clean), *dataset_parts(train)))
            aligned = corrupt(clean, corruption(seed, dealign=False))
            print(f"data {name} seed {seed} aligned", digest(*dataset_parts(aligned)))
    for name, seed in FIT_RUNS:
        clean, train, config = recipe(name, seed)
        for variant in ("full", "loss_plus_local", "loss_only"):
            for lam in (0.5, 0.0):
                w, trace = fit(train, replace(config, lam=lam, variant=variant))
                print(f"fit {name} seed {seed} {variant} lam {lam}",
                      digest(trace.objective, trace.surrogate, trace.residual,
                             trace.converged, *w.weights))
                if variant == "full" and lam == 0.5:
                    scores = predict(w, clean)
                    print(f"scores {name} seed {seed}",
                          digest(objective(train, w, lam), scores,
                                 evaluate_predictions(scores, clean.views[0].labels)))
    print("report criterion 12", report_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
