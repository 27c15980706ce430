"""Interaction kernels with two-sided fractional ellipticity bounds.

A kernel K(x, y) on R^d x R^d belongs to the ellipticity class when

    (1 - s) * lam * |x - y|^(-d-2s)  <=  K(x, y)  <=  (1 - s) * Lam * |x - y|^(-d-2s)

for some order s in (0, 1) and constants 0 < lam <= Lam. Every built-in family is
written as K(x, y) = (1 - s) * m(x, y) * |x - y|^(-d-2s) with a symmetric,
position-dependent multiplier m, so the envelope ratio equals m exactly. No
continuity of m is assumed (the checkerboard family is deliberately
discontinuous).

Rescaling K~(x, y) = r^(d+2s) * K(x0 + r x, x0 + r y) is represented exactly by
an affine position transform stored on the KernelSpec: the r^(d+2s) prefactor cancels
the |.|^(-d-2s) homogeneity, so only the multiplier lookup positions move and
the ellipticity constants are preserved bit for bit.

A pair's kernel is its radial factor |x - y|^(-d-2s) (radial: sqrt, then the
power, of the squared distance) times its multiplier (pair_multiplier).
eval_kernel forms the squared distance from the coordinates; assembly reads
the radial factor from one table over the lattice offsets (offset_radial),
whose axis steps are rounded once, so its weights can differ from eval_kernel
at the node positions by a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, DomainError

FAMILIES = ("fractional_laplacian", "modulated", "checkerboard", "custom_table")

ENVELOPE_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its ellipticity envelope.

    params holds family-specific parameters (see the factory helpers below).
    origin/scale encode the affine rescaling map x -> origin + scale * x applied
    to multiplier lookups; fresh specs use the identity.
    """

    family: str
    s: float
    lam: float
    Lam: float
    dim: int = 1
    params: dict = field(default_factory=dict)
    origin: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        if not (0.0 < self.s < 1.0):
            raise ConfigurationError(f"kernel order s must lie in (0, 1), got {self.s}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ConfigurationError(f"lambda must be positive and finite, got {self.lam}")
        if not (self.Lam >= self.lam and math.isfinite(self.Lam)):
            raise ConfigurationError(f"Lambda must satisfy Lambda >= lambda, got {self.Lam}")
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ConfigurationError(f"kernel transform scale must be positive, got {self.scale}")
        if self.origin == ():
            object.__setattr__(self, "origin", (0.0,) * self.dim)
        elif len(self.origin) != self.dim:
            raise ConfigurationError("kernel transform origin must have length dim")
        _validate_params(self)


def _validate_params(spec: KernelSpec):
    p = spec.params
    if spec.family == "modulated":
        for key in ("amplitude", "frequency"):
            if key not in p:
                raise ConfigurationError(f"modulated kernel requires params[{key!r}]")
        if not 0.0 <= p["amplitude"] < 1.0:
            raise ConfigurationError(f"modulation amplitude must lie in [0, 1), where the "
                                     f"multiplier stays positive; got {p['amplitude']}")
        if p.get("multiplier", 1.0) <= 0.0:
            raise ConfigurationError("modulated base multiplier must be positive")
    elif spec.family == "checkerboard":
        if p.get("block_size", 0.0) <= 0.0:
            raise ConfigurationError("checkerboard kernel requires params['block_size'] > 0")
        mults = p.get("multipliers", ())
        if len(mults) == 0 or any(m <= 0.0 for m in mults):
            raise ConfigurationError("checkerboard multipliers must be a nonempty positive list")
    elif spec.family == "custom_table":
        if p.get("block_size", 0.0) <= 0.0:
            raise ConfigurationError("custom_table kernel requires a positive block size")
        if "table" not in p:
            raise ConfigurationError("custom_table kernel requires a block-pair table")


def fractional_kernel(s, lam=1.0, Lam=None, dim=1) -> KernelSpec:
    """Constant-multiplier kernel K = (1-s) * lam * |x-y|^(-d-2s)."""
    return KernelSpec("fractional_laplacian", s, lam, lam if Lam is None else Lam, dim)


def modulated_kernel(s, lam, Lam, amplitude, frequency, multiplier=None, dim=1) -> KernelSpec:
    """Smoothly modulated multiplier m = c * (1 + a * sin(w * (x1 + y1))).

    The caller chooses c and a so that m stays inside [lam, Lam]; violations are
    not rejected here, they are what check_ellipticity exists to detect. A
    nonpositive multiplier (a >= 1) is refused: it makes weights negative.
    """
    c = 0.5 * (lam + Lam) if multiplier is None else multiplier
    params = {"amplitude": amplitude, "frequency": frequency, "multiplier": c}
    return KernelSpec("modulated", s, lam, Lam, dim, params)


def checkerboard_kernel(s, lam, Lam, block_size, multipliers, dim=1) -> KernelSpec:
    """Piecewise-constant multiplier on blocks of side block_size.

    Blocks are 2-colored by the parity of their integer index sum; an unordered
    pair of points picks multipliers[(color(x) + color(y)) % len(multipliers)].
    The multiplier is symmetric by construction and discontinuous across block
    boundaries.
    """
    params = {"block_size": block_size, "multipliers": tuple(float(m) for m in multipliers)}
    return KernelSpec("checkerboard", s, lam, Lam, dim, params)


def load_custom_table(path) -> KernelSpec:
    """Load a custom block-pair multiplier table.

    Text format: a header line `d s lambda Lambda block_size`, then one line
    `i_block j_block multiplier` per known pair. Pairs not listed default to
    multiplier 1. Blocks are indexed by the first coordinate only,
    i_block = floor(x1 / block_size), which keeps the two-column pair format
    valid in both dimensions. The table is stored symmetrically; listing both
    (i, j) and (j, i) with different values is rejected, and every multiplier
    must lie inside [lambda, Lambda].
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read kernel table {path!r}: {exc}") from exc

    rows = [(n, ln.strip()) for n, ln in enumerate(lines, start=1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise DataError(f"kernel table {path!r} is empty")

    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 5:
        raise DataError(f"{path}:{head_no}: header must be 'd s lambda Lambda block_size'")
    try:
        dim = int(parts[0])
        s, lam, Lam, block = (float(v) for v in parts[1:])
    except ValueError as exc:
        raise DataError(f"{path}:{head_no}: malformed header: {exc}") from exc

    table = {}
    for line_no, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{line_no}: expected 'i_block j_block multiplier'")
        try:
            i, j, mult = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: malformed entry: {exc}") from exc
        if not (lam <= mult <= Lam):
            raise DataError(
                f"{path}:{line_no}: multiplier {mult} violates the envelope [{lam}, {Lam}]")
        key = (i, j) if i <= j else (j, i)
        if key in table and table[key] != mult:
            raise DataError(
                f"{path}:{line_no}: blocks ({i}, {j}) already listed with a different value")
        table[key] = mult

    params = {"block_size": block, "table": table}
    return KernelSpec("custom_table", s, lam, Lam, dim, params)


def _as_points(dim, x):
    """Coerce scalars / length-d sequences / (n, d) arrays to an (n, d) array."""
    arr = np.asarray(x, dtype=np.float64)
    if dim == 1:
        if arr.ndim == 0:
            return arr.reshape(1, 1), True
        if arr.ndim == 1:
            return arr.reshape(-1, 1), False
        if arr.ndim == 2 and arr.shape[1] == 1:
            return arr, False
    else:
        if arr.ndim == 1 and arr.shape[0] == dim:
            return arr.reshape(1, dim), True
        if arr.ndim == 2 and arr.shape[1] == dim:
            return arr, False
    raise DomainError(f"cannot interpret position of shape {arr.shape} in dimension {dim}")


def pair_multiplier(spec: KernelSpec, X, Y):
    """(1 - s) * m(x, y) at per-axis coordinates X, Y, from per-node parities or block
    ids combined per pair: a scalar (fractional, which reads no coordinate) or a fresh
    pair-shaped array, computed at the spec's transformed coordinates origin + scale * x."""
    p = spec.params
    if spec.family == "fractional_laplacian":
        return (1.0 - spec.s) * spec.lam
    Xt, Yt = ([o + spec.scale * c for o, c in zip(spec.origin, P)] for P in (X, Y))
    if spec.family == "modulated":
        m = np.add(Xt[0], Yt[0])
        m *= p["frequency"]
        np.sin(m, out=m)
        m *= p["amplitude"]
        m += 1.0
        m *= p["multiplier"]
        m *= 1.0 - spec.s
        return m
    if spec.family == "checkerboard":
        cx, cy = (sum(np.floor(c / p["block_size"]).astype(np.int64) for c in P) % 2
                  for P in (Xt, Yt))
        mults = np.asarray(p["multipliers"], dtype=np.float64)
        # a pair's color sum is 0, 1 or 2: look it up with one-byte indices
        by_sum = (1.0 - spec.s) * mults[np.arange(3) % len(mults)]
        return by_sum[np.add(cx, cy, dtype=np.int8)]
    # custom_table: start from the default multiplier 1 and overwrite listed pairs
    bi, bj = (np.floor(P[0] / p["block_size"]).astype(np.int64) for P in (Xt, Yt))
    out = np.full(np.broadcast_shapes(bi.shape, bj.shape), 1.0 - spec.s)
    for (i, j), mult in p["table"].items():
        hit = ((bi == i) & (bj == j)) | ((bi == j) & (bj == i))
        out[hit] = (1.0 - spec.s) * mult
    return out


def radial(spec: KernelSpec, d2):
    """|x - y|^(-d-2s) from the squared distances d2, in place: sqrt, then the power."""
    np.sqrt(d2, out=d2)
    return np.power(d2, -(spec.dim + 2.0 * spec.s), out=d2)


def offset_radial(spec: KernelSpec, h, span):
    """The radial factor |delta h|^(-d-2s) of every lattice offset delta with
    |delta_a| <= span[a], as an array of shape 2 span + 1 indexed by delta + span.

    Each axis step delta_a h is rounded once, and the squares are summed axis by
    axis, as eval_kernel sums them. The zero offset, which only a self-pair has,
    is set to 1 before the power (no 0 ** -p) and to 0 after it.
    """
    squares = [np.square(np.arange(-n, n + 1) * h) for n in span]
    d2 = squares[0] if spec.dim == 1 else np.add.outer(squares[0], squares[1])
    zero = tuple(span)
    d2[zero] = 1.0
    radial(spec, d2)
    d2[zero] = 0.0
    return d2


def eval_kernel(spec: KernelSpec, x, y):
    """Evaluate K(x, y); accepts single points or matching batches of points.

    K = radial(d2) * pair_multiplier, with d2 = sum_a (x_a - y_a)^2 summed axis
    by axis (as einsum sums). Coincident points are outside the kernel's domain
    and raise DomainError.
    """
    X, x_single = _as_points(spec.dim, x)
    Y, y_single = _as_points(spec.dim, y)
    if X.shape[0] != Y.shape[0] and 1 not in (X.shape[0], Y.shape[0]):
        raise DomainError(f"mismatched position batches {X.shape} vs {Y.shape}")
    d2 = np.subtract(X[:, 0], Y[:, 0])
    np.square(d2, out=d2)
    for a in range(1, spec.dim):
        diff = np.subtract(X[:, a], Y[:, a])
        d2 += np.square(diff, out=diff)
    if np.any(d2 == 0.0):
        raise DomainError("kernel evaluated at coincident points")
    value = radial(spec, d2)
    value *= pair_multiplier(spec, X.T, Y.T)
    if x_single and y_single:
        return float(value[0])
    return value


def rescale_kernel(spec: KernelSpec, x0, r) -> KernelSpec:
    """Exact rescaling K~(x, y) = r^(d+2s) * K(x0 + r x, x0 + r y).

    The fractional family is scale and translation invariant, so its spec is
    returned unchanged. For the others, the affine transform is composed so
    that rescaling twice equals the single composed rescaling exactly, and the
    ellipticity constants are untouched.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"rescale factor must be positive, got {r}")
    x0_arr = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0_arr.shape[0] != spec.dim:
        raise DomainError(f"rescale center must have length {spec.dim}")
    if spec.family == "fractional_laplacian":
        return spec
    origin = np.asarray(spec.origin, dtype=np.float64)
    new_origin = tuple(float(v) for v in origin + spec.scale * x0_arr)
    return KernelSpec(spec.family, spec.s, spec.lam, spec.Lam, spec.dim,
                      spec.params, new_origin, spec.scale * float(r))


@dataclass(frozen=True)
class EllipticityReport:
    empirical_lambda: float
    empirical_Lambda: float
    passed: bool
    n_samples: int


def check_ellipticity(spec: KernelSpec, n_samples=10000, seed=0, box_halfwidth=2.0) -> EllipticityReport:
    """Sample the envelope ratio K(x, y) / ((1-s) |x-y|^(-d-2s)) at random point pairs;
    the denominator is the fractional kernel with lam = 1.

    Pairs are drawn uniformly from the box [-box_halfwidth, box_halfwidth]^d.
    passed requires the empirical ratio range to stay inside [lam, Lam] up to a
    1e-12 relative tolerance.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_samples, spec.dim))
    Y = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_samples, spec.dim))
    coincident = np.all(X == Y, axis=1)
    while np.any(coincident):
        Y[coincident] = rng.uniform(-box_halfwidth, box_halfwidth,
                                    size=(int(coincident.sum()), spec.dim))
        coincident = np.all(X == Y, axis=1)

    ratio = eval_kernel(spec, X, Y) / eval_kernel(fractional_kernel(spec.s, dim=spec.dim), X, Y)
    lo = float(ratio.min())
    hi = float(ratio.max())
    passed = bool(lo >= spec.lam * (1.0 - ENVELOPE_TOL) and hi <= spec.Lam * (1.0 + ENVELOPE_TOL))
    return EllipticityReport(lo, hi, passed, n_samples)
