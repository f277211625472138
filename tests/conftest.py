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


def caustic_points(curve):
    """The caustic curve chi = cos(rho) gamma + sin(rho) n: the centres of
    curvature, at every node."""
    rho = curve.rho[:, None]
    return np.cos(rho) * curve.gamma + np.sin(rho) * curve.normal


def frames_from_point_data(p, dp, d2p, bounds, domain, closed, tol=sc.DEFAULT_TOL):
    """The frame-matrix oracle of the point-data lifts: F admissible curves
    from pointwise samples and derivatives stacked (F, m, 3), by speeds,
    curvatures, (F, m, 3, 3) frames, Shepperd's method and sign tracking
    (`lift_from_frames`).  A closed curve's last node takes its first
    node's point, tangent, speed and curvature, so lift[-1] = +-lift[0];
    the interval controls are node averages, as `_transported` forms them."""
    from spherecurve.curves import curves_from_node_data, lift_from_frames

    def rowdot(a, b):
        return np.einsum("...i,...i->...", a, b)

    speed = np.linalg.norm(dp, axis=-1)
    kappa = rowdot(p, np.cross(dp, d2p)) / speed ** 3
    unit = p / np.linalg.norm(p, axis=-1, keepdims=True)
    tangent = dp / speed[..., None]
    if closed:
        unit[:, -1], tangent[:, -1] = unit[:, 0], tangent[:, 0]
        speed[:, -1], kappa[:, -1] = speed[:, 0], kappa[:, 0]
    tangent -= unit * rowdot(tangent, unit)[..., None]
    tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
    frames = np.stack([unit, tangent, np.cross(unit, tangent)], axis=-1)
    controls = sc.ControlPair.of(bounds, 0.5 * (speed[:, :-1] + speed[:, 1:]),
                                 0.5 * (kappa[:, :-1] + kappa[:, 1:]))
    return curves_from_node_data(bounds, np.array([lift_from_frames(f) for f in frames]),
                                 speed, kappa, controls, domain=domain, closed=closed, tol=tol)
