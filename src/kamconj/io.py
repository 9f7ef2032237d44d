"""File formats: JSON documents for maps and conjugacy chains, CSV traces.

Floats are serialized through repr() so round-trips are lossless.  Every JSON
document carries schema_version and a kind tag.  A map's displacement fields
are real, so c(-k) = conj(c(k)): a coefficient list holds k = 0 (when
nonzero) and the half spectrum after it in C order (k1 > 0, or k1 = 0 and
k2 > 0; in 1D k > 0), and loading fills each mirror that is not listed with
its conjugate.  Lists that name both halves, as earlier versions wrote them,
load to the same coefficients.

Every number a run reads, in a config, a document or a `make-map` flag,
follows one rule (`_number`; `_numbers` for a column): a bool or a string is
never a number, an integer (a dimension, a degree, a frequency) is an int or
an integral float, and a float is finite.  A chain's alpha and maps match its dim.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError
from .rotation import Hull
from .spectral import _NOT_NUMBERS, PeriodicField, TorusMapLift

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_HEADER",
    "map_to_doc",
    "map_from_doc",
    "chain_to_doc",
    "chain_from_doc",
    "save_json",
    "load_json",
    "save_map",
    "load_map",
    "save_chain",
    "load_chain",
    "trace_to_csv",
    "hull_to_csv",
]

SCHEMA_VERSION = 1

TRACE_HEADER = "n,N,eps0,eps_s0,drift,drift_bound,env_eps0,env_eps_s0,phi_norm0,accepted"


def _coeffs_to_doc(u: PeriodicField) -> list:
    # k = 0 and the half spectrum after it in C order; the loader fills each mirror
    flat = u.coeffs.ravel()
    idx = flat.size // 2 + np.flatnonzero(flat[flat.size // 2:])
    ks = (np.stack(np.unravel_index(idx, u.coeffs.shape), axis=1) - u.degree).tolist()
    c = flat[idx]
    return [[k, re, im] for k, re, im in zip(ks, c.real.tolist(), c.imag.tolist())]


_NUMBERS = {int, float}


def _number(kind, value, where: str):
    """value as `kind`, int or float, by the rule every number a run reads follows.

    A bool or a string is never a number (numpy's numbers are, for callers
    in Python); an int refuses a non-integral float but reads 8.0 as 8, and
    a float must be finite.  A refusal is a ValueError that ends `in {where}`.
    """
    if type(value) in _NOT_NUMBERS or kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected {'an integer' if kind is int else 'a number'}, got {value!r} in {where}")
    try:
        value = kind(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{exc} in {where}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r} in {where}")
    return value


def _numbers(column, name: str) -> np.ndarray:
    """A list of JSON numbers as floats; a bool or a string is refused by name."""
    if not set(map(type, column)) <= _NUMBERS:
        raise ValueError(f"{name} must be numbers")
    return np.array(column, dtype=float)


def _coeffs_from_doc(dim: int, degree: int, coeffs) -> PeriodicField:
    # before from_spectrum allocates the box: 2**24 coefficients are 256 MB of complex128
    if degree < 0 or dim * math.log2(2 * degree + 1) > 24:
        raise ValueError(f"degree {degree} is negative or gives a box of more than 2**24 coefficients")
    if coeffs and set(map(len, coeffs)) != {3}:
        raise ValueError("each coefficient entry must be [k, re, im]")
    ks, re, im = zip(*coeffs) if coeffs else ((), (), ())
    values = np.empty(len(ks), dtype=np.complex128)
    values.real = _numbers(re, "coefficient values")
    values.imag = _numbers(im, "coefficient values")
    return PeriodicField.from_spectrum(dim, degree, ks, values)


def _expect(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object for a {kind} document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if "kind" in doc and doc["kind"] != kind:
        raise ConfigError(f"expected kind {kind!r}, found {doc.get('kind')!r}")


@contextmanager
def _invalid(name: str, where: str = ""):
    """Report what a malformed document raises as a ConfigError, ending `in {where}` when given."""
    at = f" in {where}" if where else ""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"invalid {name} document: missing key {exc}{at}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {name} document: {exc}{at}") from None


def map_to_doc(f: TorusMapLift) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "torus_map",
        "dim": f.dim,
        "degree": f.degree,
        "rho": f.rho.tolist(),
        # one coefficient list per displacement component, in axis order
        "coeffs": [_coeffs_to_doc(u) for u in f.displacement],
    }


def map_from_doc(doc: dict) -> TorusMapLift:
    _expect(doc, "torus_map")
    with _invalid("map"):
        dim, degree = _number(int, doc["dim"], "dim"), _number(int, doc["degree"], "degree")
        comps = doc["coeffs"]
        if len(comps) != dim:
            raise ConfigError("component count does not match dim")
        fields = tuple(_coeffs_from_doc(dim, degree, comp) for comp in comps)
        return TorusMapLift(_numbers(doc["rho"], "rho"), fields)


def chain_to_doc(chain, alpha, composed: TorusMapLift | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "conjugacy_chain",
        "dim": len(np.atleast_1d(alpha)),
        "alpha": [float(x) for x in np.atleast_1d(alpha)],
        "steps": [map_to_doc(phi) for phi in chain],
    }
    if composed is not None:
        doc["composed"] = map_to_doc(composed)
    return doc


def chain_from_doc(doc: dict) -> tuple:
    """Returns (list of corrector maps, alpha, composed or None)."""
    _expect(doc, "conjugacy_chain")
    with _invalid("chain"):
        chain = [map_from_doc(d) for d in doc["steps"]]
        composed = map_from_doc(doc["composed"]) if "composed" in doc else None
        dim, alpha = _number(int, doc["dim"], "dim"), _numbers(doc["alpha"], "alpha")
        if dim not in (1, 2) or alpha.shape != (dim,) or not np.isfinite(alpha).all():
            raise ValueError(f"alpha must be dim finite numbers, dim 1 or 2, got {alpha.tolist()} and dim {dim}")
        for key, maps in (("steps", chain), ("composed", [composed] if composed else [])):
            if any(f.dim != dim for f in maps):
                raise ValueError(f"a map in {key} does not match dim = {dim}")
        return chain, alpha, composed


def save_json(doc: dict, path) -> None:
    # json.dumps without indent runs the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_map(f: TorusMapLift, path) -> None:
    save_json(map_to_doc(f), path)


def load_map(path) -> TorusMapLift:
    return map_from_doc(load_json(path))


def save_chain(chain, alpha, path, composed: TorusMapLift | None = None) -> None:
    save_json(chain_to_doc(chain, alpha, composed), path)


def load_chain(path) -> tuple:
    return chain_from_doc(load_json(path))


def trace_to_csv(rows, path) -> None:
    """Write iteration trace rows under the fixed header.

    Each row is (n, N, eps0, eps_s0, drift, drift_bound, env_eps0, env_eps_s0,
    phi_norm0, accepted); floats go through repr for lossless round-trips.
    """
    lines = [TRACE_HEADER]
    for row in rows:
        n, cutoff, *floats, accepted = row
        cells = [str(int(n)), str(int(cutoff))]
        cells += [repr(float(x)) for x in floats]
        cells.append(str(int(accepted)))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def hull_to_csv(hull: Hull, path) -> None:
    cols = ",".join(f"x{i + 1}" for i in range(hull.dim))
    lines = [cols]
    for v in np.atleast_2d(hull.vertices):
        lines.append(",".join(repr(float(x)) for x in np.atleast_1d(v)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
