"""Model definition: exponent, cross section (nu0, amplitude), field e0, run
geometry.  Each type refuses bad values when built, so `dataclasses.replace`
checks them again; `from_config` maps the config's kinds to numbers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import InvalidInput

# the scalings of the kinetic equation in eps; the first is the default
SCALINGS = ("diffusive", "high_field")


def is_number(x, integral: bool = False) -> bool:
    """Whether x is a Python or NumPy int or float (an int for `integral`),
    never a bool: 0 < True holds, and "1.5" or None compare with nothing."""
    kinds = (int, np.integer) if integral else (int, float, np.integer, np.floating)
    return isinstance(x, kinds) and not isinstance(x, (bool, np.bool_))


def _require_numbers(obj, names, integral: bool = False):
    """Refuse by name each field of `names` that is not a number (`is_number`)
    or, unless `integral`, is an int too large for a float."""
    for name in names:
        value = getattr(obj, name)
        if not is_number(value, integral):
            raise InvalidInput(f"{name}={value!r} is not {'an integer' if integral else 'a number'}")
        if integral:
            continue
        try:
            float(value)
        except OverflowError:  # an int beyond the largest float
            raise InvalidInput(f"{name} is an integer too large for a float") from None


def require_scaling(scaling):
    """Refuse a scaling not in SCALINGS."""
    if scaling not in SCALINGS:
        raise InvalidInput(f"unknown scaling {scaling!r}")


def require_eps(eps):
    """Refuse an eps list unless it is a non-empty sequence of numbers in (0, 1], strictly decreasing."""
    if not (isinstance(eps, (tuple, list, np.ndarray)) and len(eps) and all(is_number(e) and 0 < e <= 1 for e in eps)
            and all(b < a for a, b in zip(eps, eps[1:]))):
        raise InvalidInput(f"epsilon values must lie in (0,1], at least one and strictly decreasing; got {eps!r}")


def require_times(times):
    """Refuse report times unless each is a finite number >= 0, in order."""
    for before, t in zip((0.0, *times), times):
        if not (is_number(t) and before <= t < math.inf):
            raise InvalidInput(f"time {t} must be finite and non-negative, and not before {before}")


@dataclass(frozen=True)
class CrossSection:
    """Collision cross section sigma = nu0 + a/((1+|v|)(1+|v'|)), a = amplitude.

    Symmetric, bounded below by nu1 = nu0 - |a| > 0 (refused otherwise), and
    |sigma - nu0| <= |a|/(1+|v|).  Its least upper bound, the majorant
    nu2 = nu0 + max(a, 0), is reached at v = v' = 0 for a > 0 and approached
    at large |v|, |v'| for a < 0.  a = 0 is the constant cross section.
    """

    nu0: float = 1.0
    amplitude: float = 0.0

    def __post_init__(self):
        _require_numbers(self, ("nu0", "amplitude"))
        if not (self.nu1 > 0 and math.isfinite(self.nu2)):
            raise InvalidInput(f"need 0 < nu0 - |amplitude| and a finite nu0 + |amplitude|; "
                               f"got nu0={self.nu0}, amplitude={self.amplitude}")

    @property
    def nu1(self) -> float:
        return self.nu0 - abs(self.amplitude)

    @property
    def nu2(self) -> float:
        return self.nu0 + max(self.amplitude, 0.0)

    def sigma(self, v, vp):
        v = np.asarray(v, dtype=float)
        vp = np.asarray(vp, dtype=float)
        return self.nu0 + self.amplitude / ((1.0 + np.abs(v)) * (1.0 + np.abs(vp)))


@dataclass(frozen=True)
class FieldSpec:
    """Acceleration field E = e0, the same everywhere and at all times."""

    e0: float = 0.0

    def __post_init__(self):
        _require_numbers(self, ("e0",))
        if not math.isfinite(self.e0):
            raise InvalidInput(f"field e0={self.e0} is not finite")

    def __call__(self, x):
        """E at the points x."""
        return np.full_like(np.asarray(x, dtype=float), self.e0)


@dataclass(frozen=True)
class ModelParams:
    alpha: float = 1.5
    cross_section: CrossSection = field(default_factory=CrossSection)
    field_spec: FieldSpec = field(default_factory=FieldSpec)
    domain_length: float = 2.0 * np.pi
    final_time: float = 1.0
    epsilon_schedule: tuple[float, ...] = (0.2, 0.1, 0.05)
    seed: int = 0
    particles: int = 100_000
    velocity_nodes: int = 128
    vmax_over_inv_eps: float = 10.0
    x_bins: int = 64

    def __post_init__(self):
        _require_numbers(self, ("alpha", "domain_length", "final_time", "vmax_over_inv_eps"))
        _require_numbers(self, ("seed", "particles", "x_bins", "velocity_nodes"), integral=True)
        require_eps(self.epsilon_schedule)
        if not 1.0 <= self.alpha < 2.0:
            raise InvalidInput(f"alpha={self.alpha} outside [1,2)")
        if not (0 < self.domain_length < math.inf and 0 < self.final_time < math.inf):
            raise InvalidInput(f"domain_length and final_time must be positive and finite; "
                               f"got {self.domain_length}, {self.final_time}")
        if not 0 < self.vmax_over_inv_eps < math.inf:
            raise InvalidInput(f"vmax_over_inv_eps={self.vmax_over_inv_eps} must be positive and finite")
        if self.particles < 1 or self.x_bins < 1:
            raise InvalidInput(f"need particles >= 1 and x_bins >= 1; got {self.particles}, {self.x_bins}")
        if self.seed < 0:
            raise InvalidInput(f"seed={self.seed} must be non-negative")

    @property
    def vmax(self) -> float:
        return self.vmax_over_inv_eps / min(self.epsilon_schedule)


def require_order_schedule(eps_list):
    """Refuse an eps schedule too short to fit a convergence order to."""
    if len(eps_list) < 2:
        raise InvalidInput(f"a fitted order needs at least two eps values; got {list(eps_list)}")


def fit_order(eps_list, errors) -> tuple[float, bool]:
    """The log-log slope of `errors` against `eps_list` (inf if an error is
    not positive) and whether the errors strictly decrease along the list."""
    errs = np.asarray(errors, dtype=float)
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]) if np.all(errs > 0) else math.inf
    return slope, bool(np.all(errs[1:] < errs[:-1]))


def _entry(cfg: dict, key: str, default=None):
    """The config entry at the dotted `key`, or `default` where it is absent;
    a section on the way that is not an object is refused by name."""
    *sections, last = key.split(".")
    for i, name in enumerate(sections):
        cfg = cfg.get(name, {})
        if not isinstance(cfg, dict):
            raise InvalidInput(f"config entry {'.'.join(sections[:i + 1])!r} is not an object: {cfg!r}")
    return cfg.get(last, default)


def _number(cfg: dict, key: str, default=None, cast=float):
    """The config entry at the dotted `key`, converted by `cast`; refused by
    name if missing (with no default), not a number (`is_number`; an array of
    them for cast=tuple) or, for cast=int, not integral."""
    value = _entry(cfg, key, default)
    items = value if cast is tuple else [value]
    try:
        if not isinstance(items, (list, tuple)) or not all(map(is_number, items)):
            raise TypeError  # float("1.5") and float(True) would read numbers
        out = tuple(map(float, items)) if cast is tuple else cast(value)
    except (TypeError, ValueError, OverflowError):
        what = "is missing" if value is None else f"is not numeric: {value!r}"
        raise InvalidInput(f"config entry {key!r} {what}") from None
    if cast is int and isinstance(value, float) and out != value:
        raise InvalidInput(f"config entry {key!r} is not an integer: {value!r}")
    return out


def _kind_number(cfg: dict, key: str, kinds: dict) -> float:
    """The number at `key` as the kind of its section decides.  `kinds` maps
    each kind (any case; the first is the default) to whether it reads the
    number or fixes it at 0; the latter refuses a nonzero value by name."""
    value = _number(cfg, key, 0.0)
    section, name = key.split(".")
    kind = cfg.get(section, {}).get("kind", next(iter(kinds)))
    if not isinstance(kind, str):
        raise InvalidInput(f"config entry {section!r}: kind {kind!r} is not a string")
    words, reads = section.replace("_", " "), kinds.get(kind.lower())
    if reads is None:
        raise InvalidInput(f"unknown {words} kind {kind!r}")
    if not reads and value != 0.0:
        raise InvalidInput(f"config entry {key!r}: {kind.lower()} {words} with {name}={value}")
    return value if reads else 0.0


def from_config(cfg: dict) -> ModelParams:
    """Build the params from the JSON config mapping.  Keys it does not
    read, such as the retired `time_step_macro`, are ignored; `dim` must be 1.

    The kinds map to numbers: cross section `Constant` is amplitude 0 and
    `PerturbedConstant` reads `amplitude`; field `zero` is e0 = 0 and
    `constant` reads `e0`.  `Constant` with a nonzero amplitude and `zero`
    with a nonzero e0 are refused.
    """
    if not isinstance(cfg, dict):
        raise InvalidInput(f"config is not an object: {cfg!r}")
    if _number(cfg, "dim", 1) != 1:
        raise InvalidInput(f"dim={cfg['dim']}: the solvers are one-dimensional")
    return ModelParams(
        alpha=_number(cfg, "alpha"),
        cross_section=CrossSection(_number(cfg, "cross_section.nu0", 1.0), _kind_number(
            cfg, "cross_section.amplitude", {"constant": False, "perturbedconstant": True, "perturbed": True})),
        field_spec=FieldSpec(_kind_number(cfg, "field.e0", {"zero": False, "constant": True})),
        domain_length=_number(cfg, "domain_length", 2.0 * np.pi),
        final_time=_number(cfg, "final_time", 1.0),
        epsilon_schedule=_number(cfg, "epsilon_schedule", (0.2, 0.1, 0.05), tuple),
        seed=_number(cfg, "seed", 0, int),
        particles=_number(cfg, "particles", 100_000, int),
        velocity_nodes=_number(cfg, "velocity_grid.nodes", 128, int),
        vmax_over_inv_eps=_number(cfg, "velocity_grid.vmax_over_inv_eps", 10.0),
        x_bins=_number(cfg, "x_bins", 64, int),
    )


def load_config(path) -> ModelParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:  # missing, a directory, unreadable
        raise InvalidInput(f"config file {path} cannot be read: {err.strerror or err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InvalidInput(f"config file {path} is not UTF-8 JSON: {err}") from None
    return from_config(cfg)
