"""Metamorphic checks of the whole scheme: a symmetric image of an input runs the same way.

The exact scheme commutes with the symmetries of the torus, so a run on a
transformed input must end with the same status, exit code, step count and
trace cutoffs, and with eps0 and the verification residual equal up to
roundoff.  This exercises the +-k2 fold, the half-spectrum indexing, the reach
rule and the orthant test end to end, with no oracle to maintain.

Each bound is about ten times the largest difference measured over a wider
set of inputs: all 16 quarter-period translations in 2D, and the 40 inputs
below in 1D.  Measured there, in relative terms:
- 2D eps0 within 3.4e-11 (axis swap 2.6e-12), residual within 7.9e-8;
- 1D drifted eps0 within 9.7e-15, residual 0 (these runs verify nothing).
Converged 1D runs end with eps0 between 0 and 8e-10, where one unit in the
last place of alpha (1.1e-16, the largest difference measured) dominates,
and with residual differences up to 1.8e-17: those use an absolute floor.
"""

import math

import numpy as np
import pytest

from kamconj import (
    ExperimentConfig,
    PeriodicField,
    RunStatus,
    TorusMapLift,
    conjugate,
    cs_norm,
    make_test_map,
    run_scheme,
)
from kamconj.io import save_map

from conftest import GOLDEN, PAIR_2D

# criterion 4's 2D run with its degree cap lowered to 48, as the `ref-2d` benchmark runs it
CAPPED_2D = {
    "tau": 2.0,
    "tolerances": {"eps_stop": 1e-9, "max_iters": 8},
    "seed": 2,
    "smallness_c": 1e-16,
    "max_degree": 48,
}
SWEEP_1D = {"tau": 1.0, "seed": 0, "smallness_c": 1e-6}

# (eps0 relative, eps0 floor, residual relative, residual floor)
BOUNDS_2D = (4e-10, 0.0, 8e-7, 0.0)
BOUNDS_1D = (1e-13, 1.2e-15, 0.0, 2e-16)


def _run(path, f: TorusMapLift, alpha, config: dict):
    save_map(f, path)
    raw = {"alpha": [float(a) for a in alpha], "initial_map": {"file": str(path)}, **config}
    return run_scheme(ExperimentConfig.from_dict(raw))


def _close(a, b, rel: float, floor: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def _assert_same_run(a, b, bounds) -> None:
    eps0_rel, eps0_floor, residual_rel, residual_floor = bounds
    assert (b.status, b.exit_code, b.n_steps) == (a.status, a.exit_code, a.n_steps)
    assert [row[1] for row in b.trace] == [row[1] for row in a.trace]
    assert _close(a.final_eps0, b.final_eps0, eps0_rel, eps0_floor), (a.final_eps0, b.final_eps0)
    ra, rb = a.verification_residual, b.verification_residual
    assert (ra is None) == (rb is None)
    if ra is not None:
        assert _close(ra, rb, residual_rel, residual_floor), (ra, rb)


def _criterion_4_map() -> TorusMapLift:
    """Criterion 4's 2D input: the rotation pulled back by an rng(42) degree-2 change of C0 size 0.01."""
    rng = np.random.default_rng(42)
    fields = []
    for _ in range(2):
        entries = []
        for k in [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0)]:
            re, im = rng.standard_normal(2)
            entries.append((k, 0.1 * complex(re, im) * math.exp(-sum(abs(x) for x in k))))
        fields.append(PeriodicField.from_entries(2, 2, entries))
    scale = 0.01 / max(cs_norm(u, 0) for u in fields)
    h = TorusMapLift(np.zeros(2), tuple(u * scale for u in fields))
    return conjugate(h, TorusMapLift.rotation(PAIR_2D), target_degree=16)


@pytest.fixture(scope="module")
def reference_2d(tmp_path_factory):
    f = _criterion_4_map()
    res = _run(tmp_path_factory.mktemp("meta") / "f.json", f, PAIR_2D, CAPPED_2D)
    # the checks below compare against a run that does the whole scheme
    assert res.status is RunStatus.CONVERGED and [row[1] for row in res.trace] == [8, 23, 48]
    return f, res


def test_axis_swap_2d(reference_2d, tmp_path):
    # f'(x1, x2) = S f(S x) with S the swap: the components trade places and
    # each coefficient at (k1, k2) moves to (k2, k1), as do rho and alpha
    f, reference = reference_2d
    swapped = TorusMapLift(
        f.rho[::-1].copy(), tuple(PeriodicField(2, u.degree, u.coeffs.T) for u in f.displacement[::-1])
    )
    _assert_same_run(reference, _run(tmp_path / "f.json", swapped, PAIR_2D[::-1], CAPPED_2D), BOUNDS_2D)


@pytest.mark.parametrize("theta", [(0.25, 0.0), (0.0, 0.25), (0.5, 0.5), (0.75, 0.75)])
def test_quarter_period_translation_2d(reference_2d, tmp_path, theta):
    # translating by theta conjugates f by a translation; every check grid maps onto itself
    f, reference = reference_2d
    moved = TorusMapLift(f.rho, tuple(u.shift(np.array(theta)) for u in f.displacement))
    _assert_same_run(reference, _run(tmp_path / "f.json", moved, PAIR_2D, CAPPED_2D), BOUNDS_2D)


@pytest.mark.parametrize("index", range(40))
def test_reflection_1d(tmp_path, index):
    # f'(x) = -f(-x): rho and alpha change sign, and the coefficient at k becomes minus the one at -k;
    # one index in eight is drifted by a delta of order 1e-2, as in the `sweep-1d` benchmark
    params = {"amplitude": 0.01}
    kind = "drifted" if index % 8 == 7 else "conjugate"
    if kind == "drifted":
        rng = np.random.default_rng(index)
        params["delta"] = [float(rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.02))]
    f = make_test_map(kind, params, [GOLDEN], seed=index)
    reflected = TorusMapLift(-f.rho, (PeriodicField(1, f.degree, -f.displacement[0].coeffs[::-1]),))
    reference = _run(tmp_path / "f.json", f, [GOLDEN], SWEEP_1D)
    expected = RunStatus.DRIFT_OBSTRUCTION if kind == "drifted" else RunStatus.CONVERGED
    assert reference.status is expected
    _assert_same_run(reference, _run(tmp_path / "r.json", reflected, [-GOLDEN], SWEEP_1D), BOUNDS_1D)
