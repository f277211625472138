import math
import sys

import numpy as np
import pytest

import spherecurve as sc


@pytest.fixture(scope="session")
def tol():
    # smaller grids keep the unit suite fast; acceptance re-runs at defaults
    return sc.DEFAULT_TOL.replace(default_n=256, band_k_nodes=512)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20180214)


@pytest.fixture(scope="session")
def bounds_k0():
    return sc.CurvatureBounds(0.0, math.inf)


@pytest.fixture(scope="session")
def neither_small():
    # small, fast variant of the three-lobe neither-condensed-nor-diffuse curve
    from spherecurve import factory
    return factory.neither_example(rho0=0.5, n_loops=8, dip=0.2, base_n=512)


@pytest.fixture(scope="session")
def neither_coarse():
    # the neither curve on a 256-node base (2048 intervals), as grafted by
    # the graft_chain benchmark workload
    from spherecurve import factory
    return factory.neither_example(rho0=0.5, n_loops=8, dip=0.2, base_n=256)


@pytest.fixture(scope="session")
def diffuse_curve():
    from spherecurve import factory
    return factory.diffuse_example(kappa0=0.3, n_loops=24)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    from spherecurve import sphere
    return sphere.rotation_about(axis, angle)


def count_calls(monkeypatch, fn):
    """Record the calls of `fn` under every spherecurve name bound to it,
    one entry per call: its positional arguments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "spherecurve" or name.startswith("spherecurve."):
            for key in [k for k, v in vars(mod).items() if v is fn]:
                monkeypatch.setattr(mod, key, counting)
    return calls
