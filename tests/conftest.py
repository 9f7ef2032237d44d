"""Shared fixtures and independent reference implementations.

The oracles here are deliberately naive (nested loops over the whole
coefficient box) so that the fast library paths are checked against
something with no shared code.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import kamconj
from kamconj import DiophantineVector, PeriodicField, cs_norm, verified_vector

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PAIR_2D = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)

# run config overrides that a config check rejects, each with its message;
# unchecked, each of them failed deep inside a run with a bare Python error
MALFORMED_CONFIGS = [
    ({"tolerances": {"max_iters": -1}}, "max_iters must be at least 0, got -1"),
    ({"scheduler": {"start_cutoff": 0}}, "start_cutoff must be at least 2, got 0"),
    ({"max_degree": 0}, "max_degree must be at least 1, got 0"),
    ({"max_degree": -3}, "max_degree must be at least 1, got -3"),
    ({"dc_radius": 0}, "dc_radius must be at least 1, got 0"),
    ({"tau": 0}, "tau must be positive"),
    (
        {"tolerances": {"max_iters": "x"}},
        "invalid config document: expected an integer, got 'x' in tolerances.max_iters",
    ),
    (
        {"scheduler": {"sigma": "x"}},
        "invalid config document: expected a number, got 'x' in scheduler.sigma",
    ),
    ({"initial_map": {"kind": "conjugate", "params": [1]}}, "initial_map params must be an object"),
    ({"initial_map": {"kind": "conjugate", "params": {"degree": -1}}}, "degree must be at least 0, got -1"),
    # each of these once ran on and misclassified the run, or failed inside it
    ({"c_post": -1}, "c_post must be at least 0, got -1.0 in c_post"),
    (
        {"drift_tol_abs": math.nan},
        "invalid config document: expected a finite number, got nan in drift_tol_abs",
    ),
    (
        {"tolerances": {"eps_stop": math.nan}},
        "invalid config document: expected a finite number, got nan in tolerances.eps_stop",
    ),
    (
        {"tolerances": {"residual_tol": -1}},
        "residual_tol must be at least 0, got -1.0 in tolerances.residual_tol",
    ),
    ({"tau": math.inf}, "invalid config document: expected a finite number, got inf in tau"),
    ({"gamma": math.nan}, "invalid config document: expected a finite number, got nan in gamma"),
    ({"seed": -3}, "seed must be at least 0, got -3 in seed"),
    ({"smallness_c": -1}, "smallness_c must be positive, got -1.0 in smallness_c"),
    # a path that is not a non-empty string once ran the scheme and wrote to a file descriptor
    ({"output": {"trace": True}}, "output paths must be non-empty strings, got True in output.trace"),
    ({"output": {"trace": 7}}, "output paths must be non-empty strings, got 7 in output.trace"),
    ({"output": {"chain": ""}}, "output paths must be non-empty strings, got '' in output.chain"),
    ({"output": {"final_map": None}}, "output paths must be non-empty strings, got None in output.final_map"),
    # a string is never a number, even one that spells it, nor is a bool beside a number
    (
        {"tolerances": {"max_iters": "5"}},
        "invalid config document: expected an integer, got '5' in tolerances.max_iters",
    ),
    ({"seed": " 7 "}, "invalid config document: expected an integer, got ' 7 ' in seed"),
    ({"smallness_c": "1e-6"}, "invalid config document: expected a number, got '1e-6' in smallness_c"),
    (
        {"initial_map": {"kind": "drifted", "params": {"delta": ["0.01"]}}},
        "invalid config document: expected a number, got '0.01' in initial_map.params.delta",
    ),
    (
        {"alpha": ["sqrt2-1", "sqrt3-1"], "initial_map": {"kind": "drifted", "params": {"delta": [True, 0.01]}}},
        "invalid config document: expected a number, got True in initial_map.params.delta",
    ),
    (
        {"initial_map": {"kind": "single-mode", "params": {"modes": [[1, "1e-4", 0.0]]}}},
        "invalid config document: coefficient values must be numbers in initial_map.params.modes",
    ),
    ({"alpha": [True, 0.3]}, "invalid config document: expected a number, got True in alpha"),
    ({"alpha": math.nan}, "invalid config document: expected a finite number, got nan in alpha"),
]


def eval_oracle(f: PeriodicField, x) -> float | np.ndarray:
    """Plain double loop over every mode in the coefficient box.

    x is one point, or points of shape (dim, ...) with an array of values back.
    """
    x = np.asarray(x, dtype=float)
    deg = f.degree
    total = 0.0 + 0.0j
    if f.dim == 1:
        for i in range(2 * deg + 1):
            k = i - deg
            total += f.coeffs[i] * np.exp(2j * np.pi * k * x[0])
    else:
        for i in range(2 * deg + 1):
            for j in range(2 * deg + 1):
                k = (i - deg, j - deg)
                phase = k[0] * x[0] + k[1] * x[1]
                total += f.coeffs[i, j] * np.exp(2j * np.pi * phase)
    return float(total.real) if np.ndim(total) == 0 else total.real


def entries_oracle(f: PeriodicField) -> list:
    """Nonzero (k, coefficient) pairs by a walk over every cell of the box."""
    out = []
    for idx in np.ndindex(f.coeffs.shape):
        v = f.coeffs[idx]
        if v != 0:
            out.append((tuple(i - f.degree for i in idx), complex(v)))
    return out


def dc_oracle(alpha, tau: float, radius: int):
    """Worst-case ratio dist(k.alpha, Z) * |k|_1^tau by explicit enumeration.

    Returns (worst_ratio, worst_k) over the canonical half ball of
    nonzero integer vectors with |k|_1 <= radius.
    """
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.size
    worst = math.inf
    worst_k = None
    if d == 1:
        candidates = [(k,) for k in range(1, radius + 1)]
    else:
        candidates = []
        for k1 in range(-radius, radius + 1):
            for k2 in range(-radius, radius + 1):
                if abs(k1) + abs(k2) > radius or (k1, k2) == (0, 0):
                    continue
                if k1 > 0 or (k1 == 0 and k2 > 0):
                    candidates.append((k1, k2))
    for k in candidates:
        phase = sum(ki * ai for ki, ai in zip(k, alpha))
        dist = abs(phase - round(phase))
        norm1 = sum(abs(ki) for ki in k)
        ratio = dist * norm1**tau
        if ratio < worst:
            worst = ratio
            worst_k = k
    return worst, worst_k


def suite_env() -> dict:
    """The environment with PYTHONPATH led by the kamconj this suite imported, never a stale install."""
    env = dict(os.environ)
    src = str(Path(kamconj.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def bits(a: np.ndarray) -> tuple:
    """An array's shape, dtype and bytes, so equal means bit for bit equal."""
    return a.shape, a.dtype, a.tobytes()


def hull_contains_oracle(vertices, point, tol: float) -> bool:
    """2D hull membership edge by edge, one scalar cross product per edge.

    An edge a -> b rejects the point when the cross product falls below
    -tol * max(1, |b - a|); one or two vertices compare by distance.
    """
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if len(v) == 1:
        return bool(np.linalg.norm(p - v[0]) <= tol)
    if len(v) == 2:
        ab = v[1] - v[0]
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else float(np.clip((p - v[0]) @ ab / denom, 0.0, 1.0))
        return float(np.linalg.norm(p - (v[0] + t * ab))) <= tol
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        cross = float((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
        if cross < -tol * max(1.0, float(np.linalg.norm(b - a))):
            return False
    return True


def seeded_field(
    dim: int, degree: int, norm0: float, seed: int, decay: float = 0.5
) -> PeriodicField:
    """Random real field with coefficient decay, rescaled to an exact C0 norm."""
    rng = np.random.default_rng(seed)
    entries = []
    if dim == 1:
        ks = [(k,) for k in range(1, degree + 1)]
    else:
        ks = []
        for k1 in range(0, degree + 1):
            for k2 in range(-degree, degree + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                if abs(k1) + abs(k2) <= degree:
                    ks.append((k1, k2))
    for k in ks:
        re, im = rng.standard_normal(2)
        weight = math.exp(-decay * sum(abs(x) for x in k))
        entries.append((k, 0.5 * weight * complex(re, im)))
    f = PeriodicField.from_entries(dim, degree, entries)
    base = cs_norm(f, 0)
    return f * (norm0 / base)


# grid entries that a copy-free sup or sign test must read as the copy did
SPECIAL_ENTRIES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 5e-324])
# a shift added to such a grid: a drift or a translation difference
SHIFTS = st.one_of(st.floats(-2.0, 2.0), SPECIAL_ENTRIES)


@st.composite
def check_grids(draw, count: int, shape: tuple):
    """`count` float grids of one shape, mostly in [-2, 2], each with up to three `SPECIAL_ENTRIES`."""
    size = math.prod(shape)
    grids = []
    for _ in range(count):
        g = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))
        for i, x in draw(st.lists(st.tuples(st.integers(0, size - 1), SPECIAL_ENTRIES), max_size=3)):
            g[i] = x
        grids.append(g.reshape(shape))
    return tuple(grids)


def outcome(fn, *args):
    """fn's value as its repr (nan, inf and -0.0 told apart), or the type of what it raised."""
    with np.errstate(all="ignore"):
        try:
            return repr(fn(*args))
        except Exception as exc:  # noqa: BLE001 - two forms must raise alike
            return type(exc)


@pytest.fixture(scope="session")
def golden_vector() -> DiophantineVector:
    return verified_vector([GOLDEN], 1.0, 256, 3.0)


@pytest.fixture(scope="session")
def pair_vector() -> DiophantineVector:
    return verified_vector(PAIR_2D, 2.0, 256, 17.0)
