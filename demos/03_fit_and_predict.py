"""Fitting a mixed-input GP and using it as a predictor.

Trains on a 35-point LHS of a mixed toy function, checks noiseless
interpolation, compares kernel kinds by likelihood, and round-trips the
model through its file format.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from mixedgp import (
    Categorical,
    CategoricalKernelKind,
    Continuous,
    Dataset,
    DesignSpace,
    FitConfig,
    Integer,
    fit,
    lhs,
    load_model,
    predict,
    save_model,
)

space = DesignSpace((
    Continuous("x", 0.0, 1.0),
    Integer("z", 1, 4),
    Categorical("mode", ("slow", "fast", "turbo")),
))

def truth(w):
    gain = {1: 1.0, 2: 1.6, 3: 2.5}[w.categorical[0]]
    return gain * math.sin(2 * math.pi * w.continuous[0]) + 0.25 * w.integer[0]

train = lhs(space, 35, seed=3)
dataset = Dataset(space, train, np.array([truth(w) for w in train]))

models = {}
for kind in (CategoricalKernelKind.GD, CategoricalKernelKind.CR):
    models[kind] = fit(dataset, kind, p=2, config=FitConfig(n_starts=4, max_evals=2000))
    print(f"{kind.value}: log-likelihood {models[kind].log_likelihood:8.2f} "
          f"(fit {models[kind].fit_seconds:.1f}s)")

# the EHH family nests CR, so seed its multistart with the correlation
# structure CR already found (this is what the benchmark harness does too):
# keep CR's rates and aim EHH's angles at CR's level correlations
from mixedgp import HyperparameterSet, embed_hyper_matrix

cr = models[CategoricalKernelKind.CR].theta_star
angles = embed_hyper_matrix(CategoricalKernelKind.EHH, CategoricalKernelKind.CR,
                            space.level_counts[0], cr.variable(0))
warm = HyperparameterSet.from_flat(space, CategoricalKernelKind.EHH,
                                   np.concatenate([cr.rates, angles]))
models[CategoricalKernelKind.EHH] = fit(
    dataset, CategoricalKernelKind.EHH, p=2,
    config=FitConfig(n_starts=4, max_evals=2000, extra_starts=(warm,)),
)
model = models[CategoricalKernelKind.EHH]
print(f"ehh: log-likelihood {model.log_likelihood:8.2f} "
      f"(fit {model.fit_seconds:.1f}s, warm-started from cr)")

means, variances = predict(model, train)
print("\nmax interpolation residual:",
      float(np.max(np.abs(means - dataset.targets))))
print("max training variance:", float(np.max(variances)))

test = lhs(space, 200, seed=99)
means, variances = predict(model, test)
errors = means - np.array([truth(w) for w in test])
print("held-out RMSE:", float(np.sqrt(np.mean(errors ** 2))))
inside = np.abs(errors) <= 3 * np.sqrt(variances) + 1e-12
print("fraction inside 3 sigma:", float(np.mean(inside)))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    reloaded = load_model(path)
    print("\nserialized to", path)
m1, _ = predict(model, test)
m2, _ = predict(reloaded, test)
print("reloaded predictions bit-identical:", bool(np.array_equal(m1, m2)))
