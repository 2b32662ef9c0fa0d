"""Scenario configs and canonical JSON, without numpy.

ScenarioConfig is one flat record: masses, levels, sampler ranges, budgets
and overrides.  Its JSON layout is the table _LAYOUT, which to_dict and
from_dict both read.  canonical_json is the one writer of every report
(sorted keys, 17 significant digits), so identical inputs give identical
bytes.  The bounds command needs nothing else beyond the chain, so this
module and bounds are all it loads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Tuple

from . import bounds
from .core import MassParams

__all__ = ["SCHEMA", "ScenarioConfig", "canonical_json"]

SCHEMA = "lunar-bound/3"


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Hand-rolled writer because the stdlib encoder pins floats to repr();
    17 significant digits round-trip every double exactly.  A value of no
    Python JSON type raises TypeError.
    """
    out = []

    def write(o):
        if o is None:
            out.append("null")
        elif isinstance(o, bool):
            out.append("true" if o else "false")
        elif isinstance(o, float):
            out.append(_float_repr(float(o)))
        elif isinstance(o, int):
            out.append(str(int(o)))
        elif isinstance(o, str):
            out.append(json.dumps(o))
        elif isinstance(o, dict):
            out.append("{")
            for i, k in enumerate(sorted(o)):
                if i:
                    out.append(",")
                if not isinstance(k, str):
                    raise TypeError(f"non-string key {k!r}")
                out.append(json.dumps(k))
                out.append(":")
                write(o[k])
            out.append("}")
        elif isinstance(o, (list, tuple)):
            out.append("[")
            for i, v in enumerate(o):
                if i:
                    out.append(",")
                write(v)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    write(obj)
    return "".join(out)


# JSON path -> attribute of every config field.  to_dict and from_dict
# both read this table; the defaults live on the dataclass fields only.
_LAYOUT = {
    "masses": "masses",
    "H": "H",
    "J": "J",
    "far_body": "far_body",
    "sampler.count": "count",
    "sampler.seed": "seed",
    "sampler.inner.a1_frac": "a1_frac",
    "sampler.inner.e1": "e1",
    "sampler.outer.i_lo_factor": "i_lo_factor",
    "sampler.outer.i_hi_factor": "i_hi_factor",
    "sampler.planar": "planar",
    "level": "level",
    "lambda": "lam",
    "B1": "B1",
    "tol": "tol",
    "budget_factor": "budget_factor",
    "max_steps": "max_steps",
    "regularize": "regularize",
    "inbound_only": "inbound_only",
    "i_range": "i_range",
    "lazy_directions": "lazy_directions",
}


def _flatten(d, prefix: str = "") -> dict:
    """The leaves of a config object by JSON path; unknown keys raise."""
    where = prefix[:-1] or "config"
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object")
    allowed = {path[len(prefix):].split(".")[0] for path in _LAYOUT if path.startswith(prefix)}
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    flat = {}
    for key, value in d.items():
        path = prefix + key
        if path in _LAYOUT:
            flat[path] = value
        else:
            flat.update(_flatten(value, path + "."))
    return flat


def _is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: masses, levels, sampler spec, budgets, overrides.

    The sampler draws the inner semi-major axis as a fraction a1_frac of c_r,
    so the binary stays comfortably inside its bound, and the eccentricity
    from e1; the outer draw targets an initial inertia uniformly in
    [level*i_lo_factor, level*i_hi_factor].
    """

    masses: Tuple[float, float, float]
    H: float
    J: Tuple[float, float, float]
    far_body: int = 3
    count: int = 20
    seed: int = 0
    a1_frac: Tuple[float, float] = (0.20, 0.35)
    e1: Tuple[float, float] = (0.0, 0.4)
    i_lo_factor: float = 1.0
    i_hi_factor: float = 10.0
    planar: bool = False
    level: Optional[float] = None
    lam: Optional[float] = None
    B1: Optional[float] = None
    tol: float = 1e-12
    budget_factor: float = 4.0
    max_steps: int = 200_000
    regularize: bool = False
    jobs: int = 1
    inbound_only: bool = False
    # absolute sampling window for I(0); overrides the level-relative factors
    i_range: Optional[Tuple[float, float]] = None
    # when True, the second integration direction is skipped once the first
    # has entered (the pass criterion is "either direction enters")
    lazy_directions: bool = True

    def __post_init__(self):
        J = self.J
        if isinstance(J, (int, float)):
            J = (0.0, 0.0, J)
        # level, lambda, B1 and i_range may be null (unset); no other number may
        nullable = {"level": self.level, "lambda": self.lam, "B1": self.B1}
        # the (low, high) ranges
        pairs = {"sampler.inner.a1_frac": self.a1_frac, "sampler.inner.e1": self.e1,
                 "sampler.outer.i_lo_factor, i_hi_factor": [self.i_lo_factor, self.i_hi_factor]}
        if self.i_range is not None:
            pairs["i_range"] = self.i_range
        for name, vals in (
            ("masses", self.masses), ("H", [self.H]), ("J", J), ("tol", [self.tol]),
            ("budget_factor", [self.budget_factor]), *pairs.items(),
            *((k, [v]) for k, v in nullable.items() if v is not None),
        ):
            if not (isinstance(vals, (list, tuple)) and all(map(_is_finite, vals))):
                raise ValueError(f"{name} must hold finite numbers, got {vals!r}")
        for name, vals in pairs.items():
            if len(vals) != 2 or not vals[0] <= vals[1]:
                raise ValueError(f"{name} must be two numbers, low <= high, got {list(vals)!r}")
        if not self.a1_frac[0] > 0.0:
            raise ValueError(f"sampler.inner.a1_frac must be positive, got {list(self.a1_frac)!r}")
        # the level and the sampling window are inertias: their low ends must be positive
        if self.i_range is not None and not self.i_range[0] > 0.0:
            raise ValueError(f"i_range must be positive, got {list(self.i_range)!r}")
        for name, val in (("sampler.outer.i_lo_factor", self.i_lo_factor), ("level", self.level)):
            if val is not None and not val > 0.0:
                raise ValueError(f"{name} must be positive, got {val!r}")
        if not (self.e1[0] >= 0.0 and self.e1[1] < 1.0):
            raise ValueError(f"sampler.inner.e1 must lie in [0, 1), got {list(self.e1)!r}")
        if len(self.masses) != 3 or len(J) != 3:
            raise ValueError("masses and J must have three components")
        if not self.H < 0.0:
            raise ValueError("H must be negative")
        if self.far_body not in (1, 2, 3):
            raise ValueError(f"far_body must be 1, 2 or 3, got {self.far_body!r}")
        for name, val, lo in (("sampler.count", self.count, 1), ("max_steps", self.max_steps, 1),
                              ("sampler.seed", self.seed, 0), ("jobs", self.jobs, 1)):
            if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {val!r}")
        for name, val in (("sampler.planar", self.planar), ("regularize", self.regularize),
                          ("inbound_only", self.inbound_only),
                          ("lazy_directions", self.lazy_directions)):
            if not isinstance(val, bool):
                raise ValueError(f"{name} must be true or false, got {val!r}")
        if not (self.tol > 0.0 and self.budget_factor > 0.0):
            raise ValueError("tol and budget_factor must be positive")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        object.__setattr__(self, "J", tuple(float(v) for v in J))
        object.__setattr__(self, "i_range", tuple(self.i_range) if self.i_range is not None else None)

    @property
    def mp(self) -> MassParams:
        return MassParams(*self.masses)

    @property
    def far_mp(self) -> MassParams:
        """The masses relabeled so that far_body is last: the labeling of the
        chain's constants, in which states are sampled and integrated."""
        return self.mp.relabeled(self.far_body)

    @property
    def J_mag(self) -> float:
        """|J|, bit for bit numpy's norm: the square root of the fused dot
        product, or inf where |J|^2 exceeds the double range."""
        J = self.J
        if not math.isfinite(J[0] * J[0] + J[1] * J[1] + J[2] * J[2]):
            return math.inf
        return math.sqrt(bounds._dot3(J, J))

    def to_dict(self) -> dict:
        out = {}
        for path, attr in _LAYOUT.items():
            *parents, leaf = path.split(".")
            node = out
            for key in parents:
                node = node.setdefault(key, {})
            value = getattr(self, attr)
            node[leaf] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Inverse of to_dict.  Unknown or missing keys, non-finite numbers
        and out-of-range values raise ValueError."""
        kwargs = {_LAYOUT[path]: tuple(value) if isinstance(value, list) else value
                  for path, value in _flatten(d).items()}
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in kwargs]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))

    def config_hash(self) -> str:
        import hashlib  # only the batch reports carry the hash

        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()
