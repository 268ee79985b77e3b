"""Count the likelihood work of the fits of ``tools/fitbits.py``, one line per fit.

    python tools/evalcounts.py > counts.txt

It runs the fits of ``fitbits.PROBLEMS`` (the same data, budget, starts
and starting jitter) and prints, for each, the problem, seed, kind
and exponent p, then:

- ``charged``: evaluations charged to the starts' budgets, the sum of
  ``StartRecord.n_evals``;
- ``replayed``: how many of those the multistart record replayed;
- ``one``: rows scored one at a time (``_Workspace.evaluate``);
- ``block``: rows scored in blocks (``_Workspace.evaluate_block``);
- ``rates``: rates factors built (``_Workspace._rates_factor``);
- ``gathers``: level factors gathered (``_Workspace._gathered``);
- ``levels``: level matrices built by ``kernels.categorical_matrix``, an
  (m, count) stack counting m.

The counts cover the whole ``gp.fit`` call: the search, then the model
build, which scores theta* once more on a fresh workspace, so
``one + block == charged - replayed + 1``.  The counters wrap those
methods and that function from outside, only while a fit runs, and the
originals are put back before the next line is printed.  The script
measures and gates nothing; it exits 0 once every fit printed.  The counts
are deterministic wherever the fits' bits are (see ``tools/fitbits.py``).
"""

import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fitbits  # noqa: E402  (puts the src/ next to it on sys.path)
from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402
from mixedgp import kernels as kr  # noqa: E402
from mixedgp.doe import lhs  # noqa: E402
from mixedgp.space import Dataset  # noqa: E402

# counter name -> (owner, attribute, rows counted from the call's arguments)
COUNTED = {
    "one": (gp._Workspace, "evaluate", lambda args: 1),
    "block": (gp._Workspace, "evaluate_block", lambda args: len(args[1])),
    "rates": (gp._Workspace, "_rates_factor", lambda args: 1),
    "gathers": (gp._Workspace, "_gathered", lambda args: 1),
    "levels": (kr, "categorical_matrix",
               lambda args: len(args[2]) if np.ndim(args[2]) == 2 else 1),
}


@contextmanager
def counting():
    """A Counter of the COUNTED calls made inside the block; the originals come back on exit."""
    counts = Counter({name: 0 for name in COUNTED})
    originals = {name: getattr(owner, attr) for name, (owner, attr, _) in COUNTED.items()}

    def wrapper(name, original, rows):
        def counted(*args, **kwargs):
            counts[name] += rows(args)
            return original(*args, **kwargs)
        return counted

    try:
        for name, (owner, attr, rows) in COUNTED.items():
            setattr(owner, attr, wrapper(name, originals[name], rows))
        yield counts
    finally:
        for name, (owner, attr, _) in COUNTED.items():
            setattr(owner, attr, originals[name])


def main() -> int:
    for name, space, truth, _, seed, p, kinds, jitter in fitbits.PROBLEMS:
        points = lhs(space, fitbits.N_POINTS, seed)
        data = Dataset(space, points, truth(points))
        fitted = {}
        for kind in kinds:
            config = bm._config_for(kind, gp.FitConfig(seed=seed, max_evals=fitbits.MAX_EVALS,
                                                       jitter=jitter), fitted)
            with counting() as counts:
                model = fitted[kind] = gp.fit(data, kind, p, config)
            charged = sum(record.n_evals for record in model.start_log)
            replayed = sum(record.replayed for record in model.start_log)
            print(f"{name} seed={seed} {kind.value} p={p} charged={charged} replayed={replayed} "
                  + " ".join(f"{key}={value}" for key, value in counts.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
