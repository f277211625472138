"""Single tolerance profile threaded explicitly through every module."""

from __future__ import annotations

import dataclasses
import json
import sys


@dataclasses.dataclass(frozen=True)
class ToleranceProfile:
    """All numerical knobs in one immutable value.

    The defaults are calibrated for curves sampled at ``default_n`` nodes;
    loosen ``closure`` if you lower the resolution.
    """

    closure: float = 1e-7             # frame defect allowed for `closed`
    antipodal_chord: float = 1e-3     # |p + q| for an antipodal witness
    default_n: int = 1024             # curve grid intervals
    band_theta_nodes: int = 64        # theta resolution of band grids
    band_k_nodes: int = 2048          # covering-cylinder meridian nodes
    path_steps: int = 65              # frames per homotopy path
    graft_step: float = 0.05          # default simplex graft increment
    seed: int = 2018                  # first hull vertex of the simplex graft

    def __post_init__(self):
        """Ints must be at least 1 (`seed` at least 0), floats finite and > 0."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float):
                ok, want = 0.0 < value <= sys.float_info.max, "finite and positive"
            else:
                low = 0 if f.name == "seed" else 1
                ok, want = value >= low, f"at least {low}"
            if not ok:
                raise ValueError(f"tolerance field {f.name} must be {want}, not {value!r}")

    def replace(self, **kw) -> "ToleranceProfile":
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_json(cls, path) -> "ToleranceProfile":
        """The profile with the overrides of a JSON object, each of the
        type of its field."""
        with open(path) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("a tolerance profile is a JSON object of overrides")
        kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
        bad = set(overrides) - set(kinds)
        if bad:
            raise ValueError(f"unknown tolerance fields: {sorted(bad)}")
        for name, value in overrides.items():
            if (isinstance(value, bool) or not isinstance(value, (int, kinds[name]))
                    or not abs(value) <= sys.float_info.max):
                raise ValueError(f"tolerance field {name} must be a finite "
                                 f"{kinds[name].__name__}, not {value!r}")
        return cls(**{name: kinds[name](value) for name, value in overrides.items()})


def count_or_default(value: int | None, default: int, name: str = "n") -> int:
    """`default` when `value` is None, else `value`, which must be at least 1."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, not {value}")
    return default if value is None else value


DEFAULT_TOL = ToleranceProfile()
