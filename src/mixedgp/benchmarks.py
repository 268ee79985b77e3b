"""Reference problems, error metrics and the benchmark harness.

Three problems are bundled:

* a categorical cosine toy (1 continuous variable, 1 categorical variable
  with 13 levels forming two internally coherent groups);
* a cantilever beam (length and section area continuous, 12 cross-section
  levels) whose tip deflection has the closed form F L^3 / (3 E S^2 I~);
* the DRAGON turboelectric aircraft design space (10 continuous variables,
  a 9-level architecture and a 2-level layout), used only to audit relaxed
  dimensions and hyperparameter counts.

Benchmark runners draw an LHS training set, fit the requested kernel kinds,
and score RMSE and predictive variance adequacy on dense validation grids.
Kinds are fitted in nesting order (GD, CR, then the hypersphere kinds) so
each richer kernel can warm-start from the correlation structure of the
simpler ones already fitted.  GD and CR run those warm starts on top of the
usual evenly spaced diagonal starts; a kind with angles (HH, EHH, FE) that
gets one runs its warm starts alone, because they outscore its diagonal
starts (each warm start already scores its source kind's optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gp
from . import kernels as kr
from .doe import grid, lhs
from .errors import DimensionMismatch, MixedGpError
from .space import Categorical, Continuous, Dataset, DesignSpace, _count

__all__ = [
    "BenchmarkResult",
    "CantileverConfig",
    "NORMALIZED_INERTIA",
    "cosine_space",
    "cosine_function",
    "beam_space",
    "cantilever_deflection",
    "dragon_space",
    "dragon_space_audit",
    "rmse",
    "pva",
    "run_cosine_benchmark",
    "run_cantilever_benchmark",
    "write_benchmark_report",
]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def rmse(predictions, truths) -> float:
    """Root mean square error between two equal-length vectors."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    truths = np.asarray(truths, dtype=float).reshape(-1)
    if predictions.size != truths.size or predictions.size == 0:
        raise DimensionMismatch(
            f"predictions ({predictions.size}) and truths ({truths.size}) must "
            "have equal nonzero length"
        )
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


def pva(predictions, variances, truths, var_floor: float = 0.0) -> float:
    """Predictive variance adequacy: log mean of squared error over variance.

    0 means perfectly calibrated variances.  ``var_floor`` guards against
    zero predicted variance at validation points that coincide with
    training points (callers typically pass 1e-12 * sigma2_hat).
    """
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    truths = np.asarray(truths, dtype=float).reshape(-1)
    if not (predictions.size == variances.size == truths.size) or predictions.size == 0:
        raise DimensionMismatch("predictions, variances and truths must have equal length")
    variances = np.maximum(variances, var_floor)
    if np.any(variances <= 0):
        raise ValueError("variances must be positive (apply a floor)")
    return float(np.log(np.mean((predictions - truths) ** 2 / variances)))


# ---------------------------------------------------------------------------
# categorical cosine problem
# ---------------------------------------------------------------------------

def cosine_space() -> DesignSpace:
    """x in [0, 1] plus one categorical variable with 13 levels."""
    return DesignSpace((
        Continuous("x", 0.0, 1.0),
        Categorical("c", tuple(str(i) for i in range(1, 14))),
    ))


def cosine_function(x, level) -> np.ndarray | float:
    """Two groups of phase-shifted cosines over the 13 levels.

    Levels 1..9 read cos(7 pi/2 x + 0.4 pi + (pi/15) c - c/20); levels
    10..13 drop the group phase: cos(7 pi/2 x - c/20).
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(level, dtype=int)
    if np.any((c < 1) | (c > 13)):
        raise ValueError("level must lie in 1..13")
    phase = np.where(c <= 9, 0.4 * math.pi + (math.pi / 15.0) * c, 0.0)
    value = np.cos(3.5 * math.pi * x + phase - c / 20.0)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# cantilever beam problem
# ---------------------------------------------------------------------------

# Area-normalized moments of inertia I~ = I / A^2 for the 12 cross sections:
# four solid shapes (circle 1/(4 pi), equilateral triangle sqrt(3)/18/...,
# square 1/12, 2:1 rectangle 1/6), each also hollowed at inner/outer
# similarity ratio q, which scales I~ by (1 + q^2)/(1 - q^2): q = 0.8 for
# thin-walled, q = 0.5 for thick-walled, q = 0 solid.  Levels are ordered
# shape-major with fills (thin, thick, solid), so the three thickness
# groups are {1,4,7,10}, {2,5,8,11} and {3,6,9,12}.
def _hollow(i_solid: float, q: float) -> float:
    return i_solid * (1.0 + q * q) / (1.0 - q * q)


_SOLID_SHAPES = (
    1.0 / (4.0 * math.pi),   # circle
    math.sqrt(3.0) / 96.0 / (3.0 / 16.0),  # equilateral triangle
    1.0 / 12.0,              # square
    1.0 / 6.0,               # rectangle, 2:1 aspect
)

NORMALIZED_INERTIA = tuple(
    value
    for i_solid in _SOLID_SHAPES
    for value in (_hollow(i_solid, 0.8), _hollow(i_solid, 0.5), i_solid)
)


@dataclass(frozen=True)
class CantileverConfig:
    """Physics of the beam: load, Young modulus and the 12 section inertias."""

    force: float = 50e3          # N
    young_modulus: float = 200e9  # Pa
    inertia: tuple[float, ...] = NORMALIZED_INERTIA

    def __post_init__(self):
        if len(self.inertia) != 12 or any(v <= 0 for v in self.inertia):
            raise ValueError("inertia must hold 12 positive values")


def beam_space() -> DesignSpace:
    """Length L in [10, 20] m, surface S in [1, 2] m^2, 12 cross sections."""
    return DesignSpace((
        Continuous("L", 10.0, 20.0),
        Continuous("S", 1.0, 2.0),
        Categorical("section", tuple(str(i) for i in range(1, 13))),
    ))


def cantilever_deflection(cfg: CantileverConfig, level, length, surface):
    """Tip deflection F L^3 / (3 E S^2 I~) in meters; ``level`` may be an array of levels."""
    level = np.asarray(level, dtype=int)
    if np.any((level < 1) | (level > 12)):
        raise ValueError("section level must lie in 1..12")
    inertia = np.asarray(cfg.inertia)[level - 1]
    length = np.asarray(length, dtype=float)
    surface = np.asarray(surface, dtype=float)
    value = cfg.force * length ** 3 / (3.0 * cfg.young_modulus * surface ** 2 * inertia)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# DRAGON aircraft design space (audit only; the fuel-mass solver is external)
# ---------------------------------------------------------------------------

def dragon_space() -> DesignSpace:
    return DesignSpace((
        Continuous("fan_pressure_ratio", 1.05, 1.3),
        Continuous("wing_aspect_ratio", 8.0, 12.0),
        Continuous("wing_sweep_deg", 15.0, 40.0),
        Continuous("wing_taper_ratio", 0.2, 0.5),
        Continuous("ht_aspect_ratio", 3.0, 6.0),
        Continuous("ht_sweep_deg", 20.0, 40.0),
        Continuous("ht_taper_ratio", 0.3, 0.5),
        Continuous("tofl_m", 1800.0, 2500.0),
        Continuous("climb_speed_ftmin", 300.0, 800.0),
        Continuous("climb_slope_rad", 0.075, 0.15),
        Categorical("architecture", tuple(str(i) for i in range(1, 10))),
        Categorical("layout", ("1", "2")),
    ))


def dragon_space_audit() -> dict:
    """Relaxed-dimension and hyperparameter-count audit of the DRAGON space."""
    space = dragon_space()
    relaxed_total = space.n_continuous + space.n_integer + space.relaxed_dim
    counts = {
        kind.value: kr.hyperparameter_count(space, kind)
        for kind in (
            kr.CategoricalKernelKind.GD,
            kr.CategoricalKernelKind.CR,
            kr.CategoricalKernelKind.EHH,
        )
    }
    expected = {"relaxed_total": 21, "gd": 12, "cr": 21, "ehh": 47}
    found = {"relaxed_total": relaxed_total, **counts}
    if found != expected:
        raise MixedGpError(f"DRAGON audit mismatch: {found} != {expected}")
    return {
        "relaxed_total": relaxed_total,
        "n_continuous": space.n_continuous,
        "n_categorical": space.n_categorical,
        "level_counts": space.level_counts,
        "hyperparameters": counts,
    }


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkResult:
    """Score card of one (kernel, problem) pair."""

    kind: kr.CategoricalKernelKind
    p: int
    n_hyper: int
    rmse: float
    pva: float
    fit_seconds: float
    seed: int
    log_likelihood: float = float("nan")

    def __post_init__(self):
        if self.rmse < 0:
            raise ValueError("rmse must be non-negative")


def _warm_starts(kind, previous: dict) -> tuple:
    """Embed already-fitted kinds without angles (CR, then GD) into ``kind``.

    Only sources of lower nesting rank are used; a source that ``kind``
    cannot represent is skipped.
    """
    rank = kr.KINDS[kind].nesting_rank
    sources = [k for k, rule in sorted(kr.KINDS.items(), key=lambda item: -item[1].nesting_rank)
               if k in previous and not rule.angle_upper and rule.nesting_rank < rank]
    starts = []
    for src_kind in sources:
        theta = previous[src_kind].theta_star
        try:
            embedded = [kr.embed_hyper_matrix(kind, src_kind, L, theta.variable(i))
                        for i, L in enumerate(theta.layout[1])]
        except MixedGpError:
            continue
        flat = np.concatenate([theta.rates, *embedded])
        starts.append(kr.HyperparameterSet(kind, theta.layout, flat))
    return tuple(starts)


def _config_for(kind, fit_config: gp.FitConfig, previous: dict) -> gp.FitConfig:
    """``fit_config`` for ``kind``'s fit after the kinds of ``previous`` were fitted.

    Its warm starts are those of ``fit_config.extra_starts`` of ``kind``,
    then the starts embedded from ``previous`` (:func:`_warm_starts`).  A
    kind with angles that gets an embedded start runs its warm starts and
    no diagonal starts (``n_starts=0``); every other fit keeps
    ``fit_config.n_starts``.
    """
    own = tuple(hp for hp in fit_config.extra_starts if hp.kind is kind)
    embedded = _warm_starts(kind, previous)
    n_starts = 0 if embedded and kr.KINDS[kind].angle_upper else fit_config.n_starts
    return replace(fit_config, n_starts=n_starts, extra_starts=own + embedded)


def _run_problem(
    space: DesignSpace,
    truth,
    validation_points,
    kinds,
    doe_size: int,
    seed: int,
    p: int,
    fit_config: gp.FitConfig,
):
    """Sample, fit every kind and score on the validation grid; ``truth`` maps a batch to values.

    Each kind's fit runs :func:`_config_for`'s config: each warm start of
    ``fit_config.extra_starts`` goes only to the fit of its own kind, ahead
    of the starts embedded from the kinds already fitted, and a kind with
    angles (HH, EHH, FE) that gets an embedded start runs no diagonal
    starts, whatever ``fit_config.n_starts`` says.  ``p`` must be 1 or 2
    and ``doe_size`` at least 2 (ValueError, before any fit).
    """
    p = kr.check_exponent(p)
    if _count(doe_size) < 2:
        raise ValueError(f"doe_size must be >= 2, got {doe_size!r}")
    # a kind named twice is fitted and reported once, where it is first named
    kinds = list(dict.fromkeys(kr.CategoricalKernelKind.parse(k) if isinstance(k, str) else k
                               for k in kinds))
    train_points = lhs(space, doe_size, seed)
    dataset = Dataset(space, train_points, truth(train_points))
    y_valid = truth(validation_points)

    results: dict = {}
    corr: dict = {}
    errors: dict = {}
    fitted: dict = {}
    # stable sort: kinds of one nesting rank are fitted in the caller's order
    for kind in sorted(kinds, key=lambda k: kr.KINDS[k].nesting_rank):
        try:
            model = gp.fit(dataset, kind, p, _config_for(kind, fit_config, fitted))
            means, variances = gp.predict(model, validation_points)
        except MixedGpError as exc:
            errors[kind] = exc
            continue
        fitted[kind] = model
        results[kind] = BenchmarkResult(
            kind=kind,
            p=p,
            n_hyper=kr.hyperparameter_count(space, kind),
            rmse=rmse(means, y_valid),
            pva=pva(means, variances, y_valid, var_floor=1e-12 * model.sigma2_hat),
            fit_seconds=model.fit_seconds,
            seed=seed,
            log_likelihood=model.log_likelihood,
        )
        if space.n_categorical:
            corr[kind] = kr.categorical_matrix(
                kind, space.level_counts[0], model.theta_star.variable(0)
            )
    ordered = [results[k] for k in kinds if k in results]
    return ordered, corr, errors


def run_cosine_benchmark(
    kinds,
    doe_size: int = 98,
    seed: int = 0,
    p: int = 2,
    fit_config: gp.FitConfig | None = None,
    grid_points: int = 1000,
):
    """Cosine problem: LHS training set, 13 x grid_points validation grid.

    Returns (results, correlation_matrices, errors); fit errors of one kind
    do not abort the others.  A warm start in ``fit_config.extra_starts``
    seeds only the fit of its own kind; one on another layout makes that
    kind's fit fail.  ``fit_config.n_starts`` does not apply to a kind with
    angles that gets a warm start embedded from GD or CR: that fit runs its
    warm starts alone.  ``p`` must be the integer 1 or 2 and ``doe_size``
    at least 2 (ValueError, before any fit).
    """
    space = cosine_space()
    validation = grid(space, (grid_points,))
    truth = lambda points: cosine_function(points.X[:, 0], points.C[:, 0])
    return _run_problem(
        space, truth, validation, kinds, doe_size, seed, p,
        fit_config or gp.FitConfig(seed=seed),
    )


def run_cantilever_benchmark(
    kinds,
    doe_size: int = 98,
    seed: int = 0,
    p: int = 2,
    fit_config: gp.FitConfig | None = None,
    grid_points: tuple[int, int] = (30, 30),
):
    """Cantilever beam: LHS training set, 12 x 30 x 30 validation grid.

    Deflections (and hence RMSE) are in meters.  Returns, warm-starts,
    sets each kind's diagonal starts and checks ``p`` and ``doe_size`` as
    :func:`run_cosine_benchmark` does.
    """
    space = beam_space()
    validation = grid(space, grid_points)
    truth = lambda points: cantilever_deflection(
        CantileverConfig(), points.C[:, 0], points.X[:, 0], points.X[:, 1]
    )
    return _run_problem(
        space, truth, validation, kinds, doe_size, seed, p,
        fit_config or gp.FitConfig(seed=seed),
    )


def write_benchmark_report(results, errors, path) -> None:
    """One delimited row per result; failed kinds get an error marker row."""
    lines = ["kernel,p,n_hyper,rmse,pva,log_likelihood,fit_seconds,seed,status"]
    for res in results:
        lines.append(
            f"{res.kind.value},{res.p},{res.n_hyper},{res.rmse!r},{res.pva!r},"
            f"{res.log_likelihood!r},{res.fit_seconds:.3f},{res.seed},ok"
        )
    for kind, exc in errors.items():
        lines.append(f"{kind.value},,,,,,,,error:{type(exc).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
