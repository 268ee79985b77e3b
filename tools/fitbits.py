"""Print the bits of a fixed set of fits, so two checkouts can be compared with diff.

    python tools/fitbits.py > before.txt        # in one checkout
    python tools/fitbits.py > after.txt         # in the other
    diff before.txt after.txt

It fits cosine seeds 0-2 (GD, CR, then EHH, n = 98, ``max_evals=100``,
each kind's starts those the benchmark runner gives it, by
``benchmarks._config_for``: warm starts from the kinds before it, and for
EHH no diagonal starts) and beam seed 0 (CR with p = 2, then CR with p = 1, then CR with
p = 2 from a starting jitter of 1e-12, the same budget), and prints one
line per fit:

- the problem, seed, kind, exponent p and the model's jitter;
- ``repr`` of the log-likelihood;
- a sha256 of ``theta_star.flat``;
- the ``StartRecord`` tuples of every start;
- a sha256 of the saved model file, written with ``fit_seconds`` set to 0;
- sha256s of the means and of the variances on the validation grid;
- the same two sha256s from the model that ``load_model`` reads back from
  that file.

The bits depend on the CPU's BLAS kernels and on the BLAS thread count, so
compare outputs from one machine with one thread setting.  The script
imports the package from the ``src/`` next to it and uses only the
standard library besides; it exits 0 once every fit printed.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402
from mixedgp.doe import grid, lhs  # noqa: E402
from mixedgp.kernels import CategoricalKernelKind as K  # noqa: E402
from mixedgp.space import Dataset  # noqa: E402

N_POINTS = 98
MAX_EVALS = 100


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cosine(points):
    return bm.cosine_function(points.X[:, 0], points.C[:, 0])


def beam(points):
    return bm.cantilever_deflection(bm.CantileverConfig(), points.C[:, 0], points.X[:, 0],
                                    points.X[:, 1])


# (problem, space, truth, validation grid counts, seed, exponent p, kinds, starting jitter)
PROBLEMS = [
    ("cosine", bm.cosine_space(), cosine, (1000,), seed, 2, (K.GD, K.CR, K.EHH),
     gp.JITTER_DEFAULT)
    for seed in range(3)
] + [("beam", bm.beam_space(), beam, (30, 30), 0, p, (K.CR,), jitter)
     for p, jitter in ((2, gp.JITTER_DEFAULT), (1, gp.JITTER_DEFAULT), (2, 1e-12))]


def prediction_shas(model, points, prefix: str = "") -> str:
    means, variances = gp.predict(model, points)
    return f"{prefix}means={sha(means.tobytes())} {prefix}variances={sha(variances.tobytes())}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for name, space, truth, grid_points, seed, p, kinds, jitter in PROBLEMS:
            points = lhs(space, N_POINTS, seed)
            data = Dataset(space, points, truth(points))
            validation = grid(space, grid_points)
            fitted = {}
            for kind in kinds:
                config = bm._config_for(kind, gp.FitConfig(seed=seed, max_evals=MAX_EVALS,
                                                           jitter=jitter), fitted)
                model = fitted[kind] = gp.fit(data, kind, p, config)
                gp.save_model(replace(model, fit_seconds=0.0), path)
                starts = [tuple(record) for record in model.start_log]
                print(f"{name} seed={seed} {kind.value} p={p} jitter={model.jitter!r} "
                      f"ll={model.log_likelihood!r} "
                      f"theta={sha(model.theta_star.flat.tobytes())} starts={starts} "
                      f"model={sha(path.read_bytes())} {prediction_shas(model, validation)} "
                      f"{prediction_shas(gp.load_model(path), validation, 'reloaded_')}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
