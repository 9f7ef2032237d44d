"""Band-limited real fields on the torus and lifts of near-rotation maps.

Coefficients live on the index box [-N, N]^d, but only the l1 ball
|k|_1 <= N carries data; constructors zero the corners.  Fields are
real-valued, so coefficient arrays are kept exactly Hermitian-symmetric.
Dimensions 1 and 2 are supported.  A field is validated where its data is
not yet known to be valid (the public constructor, the spectrum builders and
the loaders on them, a projected FFT, the cohomological solver's division);
exact operations on valid fields (negation, real scaling, addition, shift,
derivative, truncation) only check that their result is finite.

The box degree N is the nominal band, the one a schedule or caller asked
for, and the check grids (norms, hulls, Jacobians, verification) follow it.
The live degree is the largest l1 shell holding a nonzero coefficient; the
evaluation kernels and the walk grids of the map chain (the inverse's sweeps
included) and of the composition defect follow that, since the box past it
is exactly zero.  Both size their first grid by how far the maps' spectra
reach before they decay to the chain's tail (`_reach`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NonFinite, NotContractive

__all__ = [
    "PeriodicField",
    "TorusMapLift",
    "frequency_axis",
    "sampling_grid",
    "value_grid",
    "field_from_grid",
    "eval_at_points",
    "truncate",
    "cs_norm",
    "deviation_norm",
    "rebase",
    "compose",
    "conjugate",
]


def frequency_axis(degree: int) -> np.ndarray:
    return np.arange(-degree, degree + 1)


def _l1_radii(dim: int, degree: int) -> np.ndarray:
    ax = np.abs(frequency_axis(degree))
    if dim == 1:
        return ax
    return ax[:, None] + ax[None, :]


# floats of scratch a blocked evaluation holds: `_values`' two complex
# (points, modes + 1) buffers, or the 2D displaced kernel's rows and basis
_BLOCK_ENTRIES = 2 ** 19


# sup-norm tolerance of an inverse's pointwise defect
_INVERT_TOL = 1e-12

# largest coefficient beyond the kept band above which a map chain doubles
# its grid; the kept band ends at the last l1 shell holding a coefficient above
# it.  A kept coefficient's aliases lie just past that band, so this holds
# each one within about 1e-16 of its value on the widest grid.  The
# largest entry's roundoff floor (about 5e-19 on the 2D reference run's chain
# grids) does not grow with the grid, where that of a sum over the band does.
_CHAIN_TAIL = 1e-4 * _INVERT_TOL


def _round4(m: int) -> int:
    return ((int(m) + 3) // 4) * 4


def _is_number(x) -> bool:
    return np.isscalar(x) and not isinstance(x, (str, bytes))  # np.isscalar("1") is true


def _real_scalar(scalar) -> float:
    """A scalar as a float; one with an imaginary part would make a field complex."""
    if abs(complex(scalar).imag) > 0:
        raise ValueError("only real scalars keep the field real")
    return float(np.real(scalar))


def _frequency_array(dim: int, ks) -> np.ndarray:
    """Frequencies as an (n, dim) integer array; in 1D a frequency may be a scalar."""
    try:
        try:
            k = np.array(ks, dtype=np.int64)
        except ValueError:  # ragged: in 1D, scalars mixed with 1-tuples
            k = np.array([np.ravel(x) for x in ks], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(f"frequencies must be integer tuples matching dimension {dim}") from None
    if k.ndim == 1:  # scalar frequencies, or none at all
        k = k.reshape(-1, 1 if k.size else dim)
    if k.ndim != 2 or k.shape[1] != dim:
        raise ValueError(f"frequency {tuple(k[0].ravel().tolist())} does not match dimension {dim}")
    return k


@dataclass(frozen=True, eq=False)
class PeriodicField:
    """Real trigonometric polynomial with spectrum in the l1 ball of radius `degree`."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        n = 2 * self.degree + 1
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (n,) * self.dim:
            raise ValueError(
                f"coefficient box must have shape {(n,) * self.dim}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise NonFinite("coefficients must be finite")
        flipped = np.conj(np.flip(c))
        scale = max(1.0, float(np.max(np.abs(c))))
        if float(np.max(np.abs(c - flipped))) > 1e-9 * scale:
            raise ValueError("coefficients are not Hermitian-symmetric (field must be real)")
        # 0.5 * (c + flipped) without its overflow: halving is exact in the normal range
        c = 0.5 * c + 0.5 * flipped
        c[_l1_radii(self.dim, self.degree) > self.degree] = 0.0
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _exact(cls, dim: int, degree: int, coeffs: np.ndarray) -> "PeriodicField":
        """The field over an array that an exact operation on valid fields has just built.

        Takes ownership of `coeffs`, which is already an exactly Hermitian
        complex box of the right shape, zero past the l1 ball.  Only
        finiteness is checked, since an exact operation may still overflow.
        """
        if not np.all(np.isfinite(coeffs)):
            raise NonFinite("coefficients must be finite")
        coeffs.flags.writeable = False
        f = object.__new__(cls)
        f.__dict__.update(dim=dim, degree=degree, coeffs=coeffs)
        return f

    @classmethod
    def zeros(cls, dim: int, degree: int = 0) -> "PeriodicField":
        n = 2 * degree + 1
        return cls._exact(dim, degree, np.zeros((n,) * dim, dtype=np.complex128))

    @classmethod
    def constant(cls, dim: int, value: float) -> "PeriodicField":
        box = np.full((1,) * dim, complex(value))
        return cls(dim, 0, box)

    @classmethod
    def from_entries(cls, dim: int, degree: int, entries) -> "PeriodicField":
        """Build a field from (k, value) pairs; see `from_spectrum`."""
        pairs = list(entries)
        ks, values = zip(*pairs) if pairs else ((), ())
        return cls.from_spectrum(dim, degree, ks, values)

    @classmethod
    def from_spectrum(cls, dim: int, degree: int, ks, values) -> "PeriodicField":
        """Build a field from frequencies `ks` and their complex `values`.

        In 1D a frequency may be a scalar.  For a repeated k the last value
        wins.  The mirror coefficient at -k is filled with the conjugate unless
        -k is given too; inconsistent explicit pairs are rejected by the
        constructor's symmetry check.
        """
        k = _frequency_array(dim, ks)
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (len(k),):
            raise ValueError("need one value per frequency")
        # clipped first, so that no huge frequency can wrap its l1 radius
        outside = np.flatnonzero(np.abs(np.clip(k, -degree - 1, degree + 1)).sum(axis=1) > degree)
        if outside.size:
            k0 = tuple(k[outside[0]].tolist())
            raise ValueError(f"frequency {k0} outside the l1 ball of radius {degree}")
        n = 2 * degree + 1
        flat = np.ravel_multi_index(tuple((k + degree).T), (n,) * dim)
        last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]  # each k's last entry
        flat, values = flat[last], values[last]
        box = np.zeros(n ** dim, dtype=np.complex128)
        box[flat] = values
        given = np.zeros(n ** dim, dtype=bool)
        given[flat] = True
        mirror = box.size - 1 - flat  # -k in C order
        fill = ~given[mirror]
        box[mirror[fill]] = np.conj(values[fill])
        return cls(dim, degree, box.reshape((n,) * dim))

    def coefficient(self, k) -> complex:
        k = (int(k),) if np.isscalar(k) else tuple(int(x) for x in k)
        if any(abs(x) > self.degree for x in k):
            return 0.0 + 0.0j
        return complex(self.coeffs[tuple(x + self.degree for x in k)])

    def entries(self) -> list:
        """Nonzero (k, coefficient) pairs in lexicographic frequency order."""
        idx = np.argwhere(self.coeffs)
        ks = (idx - self.degree).tolist()
        return [(tuple(k), c) for k, c in zip(ks, self.coeffs[tuple(idx.T)].tolist())]

    def mean(self) -> float:
        return float(self.coeffs[(self.degree,) * self.dim].real)

    @cached_property
    def live_degree(self) -> int:
        """Largest l1 radius of a nonzero coefficient (0 for a constant field)."""
        return int(np.max(_l1_radii(self.dim, self.degree), where=self.coeffs != 0, initial=0))

    @cached_property
    def _reach(self) -> float:
        """The l1 shell by which the spectrum's geometric decay falls to `_CHAIN_TAIL`.

        Read from the live shell L (largest |c| there: top) and the shell
        L - j, j = min(4, L) (largest |c|: low): L when top is at most the
        tail, inf when no decay shows (low <= top), else L plus the shells
        that the ratio (top/low)^(1/j) per shell takes from top to the tail.
        """
        deg = self.live_degree
        c, radii = np.abs(self._embed(deg)), _l1_radii(self.dim, deg)
        j = min(4, deg)
        top = float(np.max(c, where=radii == deg, initial=0.0))
        low = float(np.max(c, where=radii == deg - j, initial=0.0))
        if top <= _CHAIN_TAIL:
            return deg
        if low <= top:
            return math.inf
        # top / tail in logs: it passes the float maximum for top above ~1e292
        return deg + math.ceil((math.log(top) - math.log(_CHAIN_TAIL)) * j / math.log(low / top))

    def _embed(self, degree: int) -> np.ndarray:
        """The coefficients in the box [-degree, degree]^d, which must hold the live shell."""
        if degree == self.degree:
            return self.coeffs
        if degree < self.degree:
            if degree < self.live_degree:
                raise ValueError("cannot embed into a box smaller than the live shell")
            lo = self.degree - degree
            return self.coeffs[(slice(lo, lo + 2 * degree + 1),) * self.dim]
        box = np.zeros((2 * degree + 1,) * self.dim, dtype=np.complex128)
        lo, hi = degree - self.degree, degree + self.degree + 1
        box[(slice(lo, hi),) * self.dim] = self.coeffs
        return box

    def __add__(self, other):
        if _is_number(other):
            c = self.coeffs.copy()
            c[(self.degree,) * self.dim] += _real_scalar(other)
            return PeriodicField._exact(self.dim, self.degree, c)
        if not isinstance(other, PeriodicField):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        deg = max(self.degree, other.degree)
        return PeriodicField._exact(self.dim, deg, self._embed(deg) + other._embed(deg))

    __radd__ = __add__

    def __neg__(self):
        return PeriodicField._exact(self.dim, self.degree, -self.coeffs)

    def __sub__(self, other):
        return self + (-other) if _is_number(other) or isinstance(other, PeriodicField) else NotImplemented

    def __mul__(self, factor):
        if not _is_number(factor):
            return NotImplemented
        return PeriodicField._exact(self.dim, self.degree, self.coeffs * _real_scalar(factor))

    __rmul__ = __mul__

    def shift(self, delta) -> "PeriodicField":
        """Translate the argument: (shifted f)(x) = f(x + delta).  Exact."""
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if delta.size != self.dim:
            raise ValueError("shift vector does not match dimension")
        ax = frequency_axis(self.degree)
        if self.dim == 1:
            phase = np.exp(2j * np.pi * ax * delta[0])
        else:
            phase = np.exp(2j * np.pi * (ax[:, None] * delta[0] + ax[None, :] * delta[1]))
        return PeriodicField._exact(self.dim, self.degree, self.coeffs * phase)

    def derivative(self, order=1) -> "PeriodicField":
        """Partial derivative of the given multi-order (an int is accepted in 1D)."""
        if np.isscalar(order):
            if self.dim != 1:
                raise ValueError("scalar order is only unambiguous in 1D")
            order = (int(order),)
        order = tuple(int(o) for o in order)
        if len(order) != self.dim or any(o < 0 for o in order):
            raise ValueError(f"bad derivative order {order}")
        ax = frequency_axis(self.degree)
        if self.dim == 1:
            w = (2j * np.pi * ax) ** order[0]
        else:
            w = ((2j * np.pi * ax[:, None]) ** order[0]) * ((2j * np.pi * ax[None, :]) ** order[1])
        return PeriodicField._exact(self.dim, self.degree, self.coeffs * w)


def sampling_grid(degree: int) -> int:
    """Points per axis used to sample a field of the given degree: 4 per mode, at least 16.

    A multiple of 4 so that quarter-period points (extrema of the lowest
    modes) land on the grid exactly.
    """
    return _round4(max(16, 4 * (int(degree) + 1)))


def value_grid(f: PeriodicField, m: int | None = None) -> np.ndarray:
    """Values of f on the uniform grid (j/m)_j, exact for m >= 2*live_degree+1.

    The default grid samples the box degree.  Only the live shells of the
    half spectrum k1 >= 0 are transformed, so a field gives the same bits in
    any box that holds them: in 2D their rows go through a complex inverse
    FFT along the second axis, then a real inverse FFT along the first axis
    supplies the mirror half and zero-pads the spectrum to the grid.  The
    mean is added on the grid, so value_grid(f + c) is value_grid(f) + c
    bit for bit.
    """
    if m is None:
        m = sampling_grid(f.degree)
    m = int(m)
    deg = f.live_degree
    if m < 2 * deg + 1:
        raise ValueError("grid too coarse for the field's bandwidth")
    half = f._embed(deg)[deg:]
    if f.dim == 1:
        half = half.copy()
        half[0] = 0.0
    else:
        rows = np.zeros((deg + 1, m), dtype=np.complex128)
        rows[:, frequency_axis(deg) % m] = half
        rows[0, 0] = 0.0
        half = np.fft.ifft(rows, axis=1, norm="forward")
    vals = np.fft.irfft(half, n=m, axis=0, norm="forward")
    vals += f.mean()
    return vals


def field_from_grid(values: np.ndarray, degree: int) -> PeriodicField:
    """Project grid samples onto the l1 ball of the given degree.

    The grid must resolve the target band (m >= 2*degree+1 per axis); energy
    at box corners outside the ball is discarded by the field constructor.
    """
    values = np.asarray(values, dtype=float)
    dim = values.ndim
    m = values.shape[0]
    if any(s != m for s in values.shape):
        raise ValueError("grid must be square")
    if m < 2 * degree + 1:
        raise ValueError("grid too coarse for the requested degree")
    return _project(np.fft.fftn(values) / (m ** dim), degree)


def _project(spec: np.ndarray, degree: int, box: int | None = None) -> PeriodicField:
    """The field carried by the l1 ball of radius `degree` of a normalized DFT.

    Its box is [-box, box]^d (default: the ball's own), zero past the ball.
    """
    ax = frequency_axis(degree) % spec.shape[0]
    f = PeriodicField(spec.ndim, degree, spec[ax] if spec.ndim == 1 else spec[np.ix_(ax, ax)])
    if box is not None and box > degree:
        return PeriodicField._exact(spec.ndim, box, f._embed(box))
    return f


def _beyond(spec: np.ndarray, degree: int) -> float:
    """Largest |c| among the entries of a normalized DFT outside the box [-degree, degree]^d."""
    m = spec.shape[0]
    out = slice(degree + 1, m - degree)
    top = float(np.max(np.abs(spec[out])))
    if spec.ndim == 2:
        top = max(top, float(np.max(np.abs(spec[frequency_axis(degree) % m, out]))))
    return top


def _live_degree(spec: np.ndarray) -> int:
    """Largest l1 radius of an entry of a normalized DFT above `_CHAIN_TAIL` (0 if none)."""
    m = spec.shape[0]
    ax = np.minimum(np.arange(m), m - np.arange(m))
    radii = ax if spec.ndim == 1 else ax[:, None] + ax[None, :]
    return int(np.max(radii, where=np.abs(spec) > _CHAIN_TAIL, initial=0))


def _modes(fields, means) -> tuple:
    """The half spectrum of real fields on one torus, as `_mode_sum` reads it.

    Keeps each frequency k whose first nonzero component is positive, where
    some field has a coefficient, as 2*pi*k of shape (dim, n).  The weights
    have one row per field, interleaved as exp(i theta) viewed as floats:
    2 Re c_k, -2 Im c_k for each k, then the field's entry of `means`, 0.
    """
    deg = max(u.degree for u in fields)
    box = np.stack([u._embed(deg) for u in fields])
    flat = box.reshape(len(fields), -1)
    centre = flat.shape[1] // 2
    # in C order the entries after the centre are exactly the half spectrum
    idx = centre + 1 + np.flatnonzero(np.any(flat[:, centre + 1:] != 0, axis=0))
    k = np.array(np.unravel_index(idx, box.shape[1:])) - deg
    c, w = flat[:, idx], np.zeros((len(fields), 2 * len(idx) + 2))
    w[:, 0:-2:2], w[:, 1:-2:2], w[:, -2] = 2.0 * c.real, -2.0 * c.imag, means
    return 2.0 * np.pi * k, w


def _mode_scratch(modes: tuple, p: int) -> tuple:
    """`_mode_sum`'s buffers at p points: two zeroed complex (p, n+1) arrays and views."""
    phase, unit = np.zeros((2, p, modes[0].shape[1] + 1), dtype=np.complex128)
    return phase.imag[:, :-1], phase, unit, unit.view(np.float64)


def _mode_sum(modes: tuple, x: np.ndarray, scratch: tuple, out: np.ndarray) -> np.ndarray:
    """Values at points x of shape (p, dim) of the fields whose `_modes` are given, into out.

    One phase theta = 2*pi k.x serves every field; one complex exponential of
    i theta (from `_mode_scratch`, real part 0) has a last column exp(0) = 1
    that carries the mean, and the value is its float view [cos, sin, ..., 1, 0]
    dotted with the weights, one matrix-vector product per point (numpy's
    `vecmat`/`matvec`), so a point's bits do not depend on its batch.  It
    beats `einsum` to about 40-64 points; at 1,024 it is about 19% slower.
    """
    k, w = modes
    theta, phase, unit, unit_floats = scratch
    np.vecmat(x, k, out=theta)
    np.exp(phase, out=unit)
    return np.matvec(w, unit_floats, out=out)


def _values(fields, means, x: np.ndarray) -> np.ndarray:
    """`_mode_sum` at points x of shape (p, dim), in blocks; shape (p, len(fields))."""
    modes = _modes(fields, means)
    out = np.empty((len(x), len(fields)))
    block = _BLOCK_ENTRIES // (2 * modes[1].shape[1]) + 1
    scratch = _mode_scratch(modes, min(block, len(x)))
    for lo in range(0, len(x), block):
        xb = x[lo:lo + block]
        _mode_sum(modes, xb, tuple(a[:len(xb)] for a in scratch), out[lo:lo + block])
    return out


def _points(pts: np.ndarray, dim: int) -> tuple:
    """(flat points of shape (p, dim), shape of the point array without its axis)."""
    if dim == 1:
        return pts.reshape(-1, 1), pts.shape
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ValueError("2D evaluation needs points of shape (..., 2)")
    return pts.reshape(-1, 2), pts.shape[:-1]


def eval_at_points(f: PeriodicField, points) -> np.ndarray | float:
    """Evaluate at arbitrary points; 1D accepts scalars or arrays, 2D arrays (..., 2)."""
    x, shape = _points(np.asarray(points, dtype=float), f.dim)
    out = _values((f,), (f.mean(),), x)[:, 0]
    return float(out[0]) if shape == () else out.reshape(shape)


def truncate(f: PeriodicField, cutoff: int, mode: str = "inhomogeneous") -> PeriodicField:
    """Split the spectrum at l1 radius `cutoff`.

    mode "inhomogeneous" keeps |k|_1 <= cutoff, "homogeneous" keeps
    0 < |k|_1 <= cutoff (dropping the mean), "tail" keeps |k|_1 > cutoff.
    The inhomogeneous and tail parts sum back to the original field exactly:
    the split is by index set, with no arithmetic on the coefficients.
    """
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if mode == "tail":
        c = f.coeffs.copy()
        c[_l1_radii(f.dim, f.degree) <= cutoff] = 0.0
        return PeriodicField._exact(f.dim, f.degree, c)
    if mode not in ("inhomogeneous", "homogeneous"):
        raise ValueError(f"unknown truncation mode {mode!r}")
    deg = min(f.degree, cutoff)
    lo, hi = f.degree - deg, f.degree + deg + 1
    c = f.coeffs[(slice(lo, hi),) * f.dim].copy()
    c[_l1_radii(f.dim, deg) > cutoff] = 0.0
    if mode == "homogeneous":
        c[(deg,) * f.dim] = 0.0
    return PeriodicField._exact(f.dim, deg, c)


def _sup(grids, shifts=None) -> float:
    """Largest |g + shift| over the grids (no shifts: |g|), with no copy of a grid.

    np.max(np.abs(g + shift)) bit for bit: rounding is monotone, so
    max(g) + shift is the largest entry of g + shift (likewise the smallest).
    The grids are read one at a time, so a generator of them holds one, and
    their extremes (the ufuncs under np.max and np.min) are reduced with
    np.max, not max(): a nan anywhere gives nan, whatever the order of the grids.
    """
    shifts = itertools.repeat(0.0) if shifts is None else shifts
    top, low = np.maximum.reduce, np.minimum.reduce
    return float(np.max(np.abs([(top(g, None) + a, low(g, None) + a) for g, a in zip(grids, shifts)])))


def _multi_orders(dim: int, s: int) -> list:
    if dim == 1:
        return [(t,) for t in range(s + 1)]
    return [(a, t - a) for t in range(s + 1) for a in range(t + 1)]


def cs_norm(f: PeriodicField, s: float = 0, method: str = "grid") -> float:
    """C^s norm proxy of a field.

    method "grid" takes the max over derivative orders |sigma| <= s of the sup
    on an oversampled grid (a lower bound on the true norm; integer s only).
    method "fourier" sums max(1, 2*pi*|k|_1)^s weighted coefficient magnitudes
    (an upper bound; any real s >= 0).  The two bracket the true norm.
    The weighted sum is taken in logs over the nonzero coefficients, so it is
    inf only when the norm itself passes the float maximum.
    """
    if not 0 <= s < math.inf:  # not (...): a nan s fails too
        raise ValueError(f"s must be nonnegative and finite, got {s}")
    if method == "fourier":
        nz = f.coeffs != 0
        if not nz.any():
            return 0.0
        weights = np.maximum(1.0, 2.0 * np.pi * _l1_radii(f.dim, f.degree)[nz])
        logs = float(s) * np.log(weights) + np.log(np.abs(f.coeffs[nz]))
        top = float(np.max(logs))
        try:
            return math.exp(top) * float(np.sum(np.exp(logs - top)))
        except OverflowError:
            return math.inf
    if method != "grid":
        raise ValueError(f"unknown norm method {method!r}")
    if s != int(s):
        raise ValueError("grid method needs integer s; use method='fourier'")
    return _derivative_sup((f,), _multi_orders(f.dim, int(s)), sampling_grid(f.degree), _sup,
                           lambda: cs_norm(f, s, "fourier"))


def _derivative_sup(fields, orders, m: int, reduce, bound) -> float:
    """reduce() of the m-point grids of the fields' derivatives, field by field, order by order.

    inf where a derivative's coefficient, and so its sup, passes the float
    maximum.  `bound()` bounds every grid value: past 2^1000 a transform may
    overflow to inf or nan, so a read that is not finite is made again at an
    exact 2^-64 and scaled back.  Finite reads keep their bits.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [u.derivative(o) if any(o) else u for u in fields for o in orders]
            sup = reduce(value_grid(d, m) for d in parts)
    except NonFinite:
        return math.inf
    if not math.isfinite(sup) and bound() > 2.0 ** 1000:
        sup = reduce(value_grid(d * 2.0 ** -64, m) for d in parts) * 2.0 ** 64
    return sup


@dataclass(frozen=True, eq=False)
class TorusMapLift:
    """Lift x -> x + rho + u(x) of a torus self-map.

    The displacement components u_i are stored zero-mean; any constant part is
    folded into the translation `rho` on construction.
    """

    rho: np.ndarray
    displacement: tuple

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float)).copy()
        disp = tuple(self.displacement)
        if rho.size not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if len(disp) != rho.size:
            raise ValueError("need one displacement component per axis")
        if not np.all(np.isfinite(rho)):
            raise NonFinite("rho must be finite")
        fixed = []
        for i, u in enumerate(disp):
            if not isinstance(u, PeriodicField) or u.dim != rho.size:
                raise ValueError("displacement components must be fields of matching dimension")
            mu = u.mean()
            if mu != 0.0:
                rho[i] += mu
                u = u + (-mu)
            fixed.append(u)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "displacement", tuple(fixed))

    @property
    def dim(self) -> int:
        return int(self.rho.size)

    @property
    def degree(self) -> int:
        return max(u.degree for u in self.displacement)

    @property
    def live_degree(self) -> int:
        return max(u.live_degree for u in self.displacement)

    @classmethod
    def rotation(cls, rho) -> "TorusMapLift":
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        zero = PeriodicField.zeros(rho.size, 0)
        return cls(rho, (zero,) * rho.size)

    @classmethod
    def identity(cls, dim: int) -> "TorusMapLift":
        return cls.rotation(np.zeros(dim))

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        x, _ = _points(pts, self.dim)
        return pts + _values(self.displacement, self.rho, x).reshape(pts.shape)

    def displacement_values(self, m: int) -> tuple:
        return tuple(value_grid(u, m) for u in self.displacement)

    def jacobian_sup(self) -> float:
        """Sampled sup of the max row sum of the displacement Jacobian, read as `cs_norm` reads."""
        def rows(grids):  # each component's first-order partials in turn: sum their absolute values
            return _sup(sum(np.abs(g, out=g) for g in row) for row in zip(*[iter(grids)] * self.dim))

        units = _multi_orders(self.dim, 1)[1:]
        return _derivative_sup(self.displacement, units, sampling_grid(self.degree), rows,
                               lambda: max(cs_norm(u, 1, "fourier") for u in self.displacement))


def rebase(f: TorusMapLift, alpha) -> TorusMapLift:
    """Shift the translation part by integers so rho - alpha lands in [-1/2, 1/2)^d."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != f.dim:
        raise ValueError("alpha does not match the map dimension")
    shift = np.floor(f.rho - alpha + 0.5)
    if not shift.any():
        return f
    return TorusMapLift(f.rho - shift, f.displacement)


def deviation_norm(f: TorusMapLift, alpha, s: float = 0, method: str = "grid") -> float:
    """C^s size of f minus the rotation by alpha, max over components.

    Uses the lift difference as given; rebase first if rho and alpha may
    differ by integers.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != f.dim:
        raise ValueError("alpha does not match the map dimension")
    norms = [cs_norm(u + (f.rho[i] - alpha[i]), s, method) for i, u in enumerate(f.displacement)]
    return float(np.max(norms))


def _horner(re, im, z: np.ndarray, out: np.ndarray) -> None:
    """out = Re(a_0 + 2 sum_{j >= 1} a_j z^j), a_j = re[j] + i im[j], by Horner in z, in place.

    Each re[j] and im[j] is a scalar or an array broadcast to out's shape.
    """
    acc = np.zeros(out.shape, dtype=np.complex128)
    real, imag = acc.real, acc.imag
    for j in range(len(re) - 1, 0, -1):
        real += re[j]
        imag += im[j]
        acc *= z
    # the real part of acc + conj(acc) + a_0, bit for bit
    np.add(real, real, out=out)
    np.add(out, re[0], out=out)


def _eval_displaced(fields, shift, v: tuple, m: int) -> tuple:
    """Values of each field at x_j + shift + v(x_j) over the m-point grid carrying v.

    One exact spectral sum at the displaced points serves all the fields (the
    components of one map), so its accuracy does not depend on the size of v.
    Hermitian symmetry halves the frequency range of the outer axis, summed
    by Horner in its unit phase, which the fields share.  In 2D each row of
    that half box is folded over +-k2 onto the real basis cos 2 pi k2 x2
    (k2 = 0 .. deg) and sin 2 pi k2 x2 (k2 = 1 .. deg).  The basis is formed
    once per block of points from the powers of the inner axis's unit phase,
    and one real matrix product contracts it against the Re and Im rows of
    every field, so the cost is dense BLAS rather than a loop over individual
    modes.  A block is as many whole grid rows as fit `_BLOCK_ENTRIES` floats
    of rows and basis (at least one row), and forms its own displaced points;
    its buffers are reused from block to block.  A point's bits can depend on
    its block (at roundoff, through the product's tail columns), never on
    the fields' box: only the live shells are read.
    """
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    deg = max(u.live_degree for u in fields)
    nf = len(fields)
    out = np.empty((nf, m ** fields[0].dim))
    ax = np.arange(m) / m
    if fields[0].dim == 1:
        z = np.exp(2j * np.pi * (ax + shift[0] + v[0]))
        for u, row in zip(fields, out):  # scalar coefficients, k = 0 .. live degree
            c = u._embed(u.live_degree)[u.live_degree:]
            _horner(c.real.tolist(), c.imag.tolist(), z, row)
        return tuple(out)
    width = 2 * deg + 1
    if (deg + 1) * width * m * m > 2e11:
        warnings.warn("displaced evaluation over a very large spectrum/grid", RuntimeWarning)
    # row k1 = 0 .. deg of each box, folded over +-k2 against the real basis
    # [cos 2 pi k2 x2, k2 = 0 .. deg; sin 2 pi k2 x2, k2 = 1 .. deg]
    half = np.stack([u._embed(deg)[deg:] for u in fields], axis=1)
    plus, minus = half[..., deg + 1:], half[..., deg - 1::-1]
    fold = np.concatenate([half[..., deg:deg + 1], plus + minus, 1j * (plus - minus)], axis=-1)
    # real rows in (k1, Re/Im, field) order
    fold = np.concatenate([fold.real, fold.imag], axis=1).reshape(-1, width)
    rows_per_block = min(m, max(1, _BLOCK_ENTRIES // ((len(fold) + width) * m)))
    cap = rows_per_block * m
    # one allocation for the block buffers: glibc's malloc hands a freed heap
    # top back to the OS once it passes twice the largest chunk it has
    # unmapped, which separate buffers exceed, so every call faulted them in
    # anew; one chunk raises that limit past itself and stays mapped
    scratch = np.empty((len(fold) + width) * cap)
    rows_buf, basis_buf = scratch[:len(fold) * cap], scratch[len(fold) * cap:]
    # the powers sit at the front of the rows, which the product writes only once
    # the basis holds them (len(fold) = 2 (deg + 1) nf > 2 deg); rows first keeps
    # their complex view 16-byte aligned
    powers_buf = rows_buf[:2 * deg * cap].view(np.complex128)
    ax1, ax2 = ax + shift[0], ax + shift[1]
    for top in range(0, m, rows_per_block):
        end = min(top + rows_per_block, m)
        lo, hi = top * m, end * m
        size = hi - lo
        powers = powers_buf[:deg * size].reshape(deg, size)
        np.exp(2j * np.pi * (ax2 + v[1][top:end]).ravel(), out=powers[:1])
        for i in range(1, deg):
            np.multiply(powers[i - 1], powers[0], out=powers[i])
        basis = basis_buf[:width * size].reshape(width, size)
        basis[0] = 1.0
        basis[1:deg + 1] = powers.real
        basis[deg + 1:] = powers.imag
        # rows[k1, :, f] = Re and Im of sum_k2 c_f[k1, k2] z2^k2
        rows = np.matmul(fold, basis, out=rows_buf[:len(fold) * size].reshape(len(fold), size))
        rows = rows.reshape(deg + 1, 2, nf, size)
        z1 = np.exp(2j * np.pi * (ax1[top:end, None] + v[0][top:end]).ravel())
        _horner(rows[:, 0], rows[:, 1], z1, out[:, lo:hi])
    return tuple(out.reshape(nf, m, m))


def _grid(target: int, maps) -> int:
    """Points per axis to sample maps at, resolving each live shell, and project at `target`."""
    return _round4(max(sampling_grid(target), *(2 * p.live_degree + 2 for p in maps)))


def _inverse_values(phi: TorusMapLift, m: int) -> tuple:
    """The displacement w of phi's inverse at each point y of the m-point grid.

    phi must pass the Jacobian gate of `_chain` and the grid resolve its live
    shell, as every chain grid does.  The first sweep, from w = 0, is the grid
    transform -u(y - rho); each later one, w <- -u(y - rho + w), moves w by the
    last defect, which past the gate it multiplies by under 1/2.  So the sweeps
    run while the defect is above a fifth of `_INVERT_TOL` and below half the
    one before (about 43 halvings from 1): one that fails to halve it has lost
    the gate's premise or reached roundoff.  w is then within its last measured
    defect of the exact value, which must be within `_INVERT_TOL` at every
    point (else NoConvergence).
    """
    shift = -phi.rho
    w = tuple(-value_grid(u.shift(shift), m) for u in phi.displacement)
    last, defect = math.inf, _sup(w)
    while 0.2 * _INVERT_TOL < defect < 0.5 * last:  # a nan or inf defect stops the sweeps
        uvals = _eval_displaced(phi.displacement, shift, w, m)
        last, defect = defect, _sup(a + b for a, b in zip(w, uvals))
        w = tuple(-a for a in uvals)
    if not defect <= _INVERT_TOL:  # not (<=): a nan defect fails too
        raise NoConvergence(f"inverse defect {defect:.3e} above tolerance {_INVERT_TOL:.1e} on grid {m}")
    return w


def _walk(maps, m: int, invert: bool = False) -> tuple:
    """(displacement values, translation) on the m-point grid of maps[0] (or its inverse), then the rest."""
    if invert:
        v, rho = _inverse_values(maps[0], m), -maps[0].rho
    else:
        v, rho = maps[0].displacement_values(m), maps[0].rho
    for p in maps[1:]:
        if p.live_degree:
            moved = _eval_displaced(p.displacement, rho, v, m)
            for a, b in zip(v, moved):  # b + a is a + b bit for bit
                b += a
            v = moved
        rho = rho + p.rho
    return v, rho


def _accepted_walk(walk, maps, target: int, bound: float) -> tuple:
    """(m, values, translation, spectra, bands) of `walk(m)` on the grid the chain's rule accepts.

    Each component keeps the band L = min(its live degree, target), its
    largest l1 shell above `_CHAIN_TAIL` on the walk's grid.  Only modes at
    |k| >= m - L alias into it, so the walk starts on the smallest grid that
    resolves every map and samples min(target, bound, R + 1) twice over, R
    being the largest `_reach` among the maps' components.  It is accepted
    when it samples each L twice over and no coefficient beyond L is above
    `_CHAIN_TAIL` (a value that is not finite makes them all so), and is
    doubled until then, up to `_grid(target, maps)`.
    """
    reach = max(u._reach for p in maps for u in p.displacement)
    band = min(target, bound, reach + 1)
    m = _round4(max(2 * (band + 1), *(2 * p.live_degree + 2 for p in maps)))
    ceiling = _grid(target, maps)
    while True:
        v, rho = walk(m)
        spec = [np.fft.fftn(a) / a.size for a in v]
        bands = [min(_live_degree(c), target) for c in spec]
        if m >= ceiling or all(
            2 * band + 2 <= m and _beyond(c, band) <= _CHAIN_TAIL for c, band in zip(spec, bands)
        ):
            return m, v, rho, spec, bands
        m = min(2 * m, ceiling)


def _chain(maps, target: int, invert: bool = False) -> TorusMapLift:
    """The `_walk` of maps on the grid `_accepted_walk` settles on, up to `_grid`, projected at `target`.

    Each component keeps its band in the box of `target`.  An inverted first
    map's reach is read from its own components.  An inverting chain refuses
    a first map whose Jacobian reaches 1/2 (NotContractive) once, before it walks.
    """
    if invert and not maps[0].jacobian_sup() < 0.5:  # not (< 1/2): a nan Jacobian fails too
        raise NotContractive("displacement Jacobian reaches 1/2; refusing to invert")
    # a chain without inverse is band-limited at its summed live degrees
    bound = math.inf if invert else sum(p.live_degree for p in maps)
    _, _, rho, spec, bands = _accepted_walk(lambda m: _walk(maps, m, invert), maps, target, bound)
    return TorusMapLift(rho, tuple(_project(c, band, target) for c, band in zip(spec, bands)))


def compose(g: TorusMapLift, f: TorusMapLift) -> TorusMapLift:
    """Compose lifts, returning the band-limited projection of g after f.

    The composed displacement is generally not band-limited; it is sampled
    pointwise on an oversampled grid and projected once at the sum of the
    two degrees, which holds its whole spectrum.
    """
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    return _chain((f, g), g.degree + f.degree)


def _composition_defect(a, b, c, d) -> float:
    """Sup over the box grid of |a(b(x)) - c(d(x))|, max over components.

    The box grid is the sampling grid of the maps' largest degree D.  Each
    side is one `_walk`, and their displacements and translations are
    differenced apart, so no small defect is rounded against a translation
    of size 1.  The walks run on the grid `_accepted_walk` settles on, with
    bands at most D and the larger side's summed live degrees, up to the box
    grid (the maps' `_grid`, as no live degree passes D).  Below the box grid
    the defect's bands are read on it (`value_grid`), so the same points are
    checked; a walk that reaches it is read directly.
    """
    target = max(a.degree, b.degree, c.degree, d.degree, 1)
    box = sampling_grid(target)

    def walk(m):
        (left, lrho), (right, rrho) = _walk((b, a), m), _walk((d, c), m)
        for x, y in zip(left, right):
            x -= y
        return left, lrho - rrho

    bound = max(a.live_degree + b.live_degree, c.live_degree + d.live_degree)
    m, v, rho, spec, bands = _accepted_walk(walk, (a, b, c, d), target, bound)
    if m < box:
        v = (value_grid(_project(s, band), box) for s, band in zip(spec, bands))
    return _sup(v, rho)


def conjugate(phi: TorusMapLift, f: TorusMapLift, target_degree: int | None = None) -> TorusMapLift:
    """Push f forward by phi: the inverse of phi, then f, then phi on top.

    One `_chain` walk on one oversampled grid solves the inverse at its own
    points (`_inverse_values`) and builds no inverse field.  The result is
    projected once at `target_degree` (default: the larger of the two
    degrees), so no intermediate truncation error is introduced.
    """
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch")
    target = max(f.degree, phi.degree) if target_degree is None else int(target_degree)
    return _chain((phi, f, phi), target, invert=True)
