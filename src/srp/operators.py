"""Linear operator algebra: composable maps with exact adjoints.

All operators act on real vectors along the last axis, so every map is
real-linear and every adjoint is an exact transpose. Complex-valued signals
are carried as interleaved real pairs [re0, im0, re1, im1, ...]; under that
convention the unitary discrete Fourier transform is an orthogonal real map
whose adjoint is its inverse.

Every transform on an apply, adjoint or innovation-solve path goes through
one FFT layer (``_fftn``, ``_rfft``, ``_irfft``) that calls pocketfft's
kernels directly, as ``scipy.fft`` does internally, without the public
functions' per-call argument checks and dispatch. The kernel module is
private scipy API; its outputs are pinned bit for bit against
``scipy.fft.fftn``/``ifftn`` and ``np.fft.rfft``/``irfft`` by the test suite.
The layer runs single-threaded, so ``scipy.fft.set_workers`` does not reach it.

An operator's parameters are fixed at construction. Its caches (dense form,
H Hᵀ description, innovation factorizations and denominators) are filled
lazily on first use and never rewritten, so they do not change observable
behavior; filling them is not synchronized across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.fft._pocketfft import pypocketfft as _pocketfft

DENSE_CAP = 2 ** 22  # max in_dim * out_dim entries for to_dense()
_JITTERS = (0.0, 1e-12, 1e-10)  # escalation ladder before giving up


class DimensionMismatch(ValueError):
    """Vector length does not match the operator's expected dimension."""

    def __init__(self, what, expected, actual):
        self.what = what
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(f"{what}: expected length {expected}, got {actual}")


class DenseCapExceeded(ValueError):
    """Dense materialization refused because in_dim*out_dim exceeds the cap."""


class FactorizationError(RuntimeError):
    """A covariance (or innovation covariance) failed to factorize as SPD."""


def _chol_with_jitter(mat, what):
    """Lower Cholesky factor of mat + j I for the first j on the ladder that works."""
    for jitter in _JITTERS:
        try:
            return scipy.linalg.cholesky(
                mat + jitter * np.eye(mat.shape[0]), lower=True
            )
        except scipy.linalg.LinAlgError:
            continue
    raise FactorizationError(f"{what}: not positive definite (jitter up to 1e-10)")


# -- FFT layer ------------------------------------------------------------------
# The argument order is pocketfft's (a, axes, [lastsize,] forward, inorm, out,
# nthreads); inorm 1 divides by sqrt(N). ``out=None`` makes every output a fresh
# array. Inputs are coerced as the public functions coerce them: the kernels
# refuse lists and integer arrays, and would run float32 in single precision.


def _fftn(z, ndim, inverse):
    """Unitary DFT over the last ``ndim`` axes, taking z as complex;
    scipy.fft.(i)fftn(z, norm="ortho") for complex z."""
    z = np.asarray(z, dtype=complex)
    return _pocketfft.c2c(z, tuple(range(-ndim, 0)), not inverse, 1, None, 1)


def _rfft(v):
    """Half spectrum along the last axis; np.fft.rfft(v)."""
    return _pocketfft.r2c(np.asarray(v, dtype=float), (-1,), True, 0, None, 1)


def _irfft(z, n):
    """Length-n real signal from half spectra along the last axis; np.fft.irfft(z, n).

    The 1/n scale is applied here, as numpy applies it: pocketfft's own
    (inorm 2) computes 1/n in long double, which rounds differently from the
    double 1/n at some lengths (on x86-64, 2731 is the first).
    """
    out = _pocketfft.c2r(np.asarray(z, dtype=complex), (-1,), n, False, 0, None, 1)
    out *= 1.0 / n
    return out


def _as_vec(v, dim, *what):
    """v as a float array of shape (..., dim); the ``what`` parts, joined by
    ".", label the ``DimensionMismatch`` raised otherwise."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != dim:
        actual = v.shape[-1] if v.ndim else 1
        raise DimensionMismatch(".".join(what), dim, actual)
    return v


def interleave(z):
    """Complex array (..., N) -> interleaved real array (..., 2N), a fresh copy."""
    return np.array(z, dtype=complex, order="C", ndmin=1).view(np.float64)


def deinterleave(v):
    """Interleaved real array (..., 2N) -> complex array (..., N), a fresh copy.

    Interleaved float64 pairs are the memory layout of complex128, so both
    helpers are views plus one copy: exact for inf, nan and signed zeros.
    """
    v = np.array(v, dtype=float, order="C", ndmin=1)
    if v.shape[-1] % 2:
        raise ValueError(f"interleaved length must be even, got {v.shape[-1]}")
    return v.view(np.complex128)


class LinearOperator:
    """Base class for all linear maps.

    Subclasses implement the cores ``_apply`` and ``_adjoint``, which assume
    validated float arrays of shape (..., dim). The public ``apply``,
    ``adjoint_apply`` and ``gram_apply`` validate their operand once and
    delegate to the cores: they are the boundary for outside callers. The
    solver loop, whose operands are arrays it made itself after validating
    its inputs at entry, calls the cores. The ``innovation_*`` methods
    solve against (c * H Hᵀ + σ² I) through ``_gram_dual``, which describes
    H Hᵀ once per operator from the structural hooks: as a diagonal, as the
    DFT eigenvalues of a circulant (solved by real FFTs), or as a dense
    matrix (solved by a cached Cholesky factor). Nothing an innovation
    solve needs but its right-hand side is computed twice: the description
    once per operator, and per (c, σ²) the diagonal and circulant paths'
    denominator c λ + σ² once (``_innovation_denominator``) and the dense
    path's factor once.
    ``_innovation_factor`` is the one place an innovation covariance is
    factored: it climbs the jitter ladder (0, 1e-12, 1e-10) and raises
    ``FactorizationError`` past its end.
    """

    kind = "abstract"

    def __init__(self, in_dim, out_dim):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self._dense = None
        self._dual = None
        self._innovation_cache = {}  # (c, σ²) -> Cholesky factor, dense path
        self._denominators = {}  # (c, σ²) -> c λ + σ², diagonal and circulant paths

    # -- core action ------------------------------------------------------

    def _apply(self, v):
        raise NotImplementedError

    def _adjoint(self, u):
        raise NotImplementedError

    def apply(self, v):
        """H v, batched over leading axes."""
        return self._apply(_as_vec(v, self.in_dim, self.kind, "apply"))

    def adjoint_apply(self, u):
        """Hᵀ u, batched over leading axes."""
        return self._adjoint(_as_vec(u, self.out_dim, self.kind, "adjoint"))

    def gram_apply(self, v):
        """Hᵀ H v. Always the literal composition, so fused paths cannot drift."""
        return self._adjoint(self._apply(_as_vec(v, self.in_dim, self.kind, "apply")))

    # -- dense materialization ---------------------------------------------

    def to_dense(self):
        """Dense (out_dim, in_dim) matrix; column j is H e_j."""
        if self.in_dim * self.out_dim > DENSE_CAP:
            raise DenseCapExceeded(
                f"{self.kind}: {self.out_dim}x{self.in_dim} exceeds cap of "
                f"{DENSE_CAP} entries"
            )
        if self._dense is None:
            mat = self.apply(np.eye(self.in_dim)).T
            mat.flags.writeable = False
            self._dense = mat
        return self._dense

    # -- innovation system (c * H Hᵀ + σ² I) --------------------------------

    @property
    def has_orthonormal_rows(self):
        """True when H Hᵀ = I, which lets compositions peel this stage."""
        return False

    def _diagonal_entries(self):
        """Entries d when H = diag(d) (square), else None."""
        return None

    def _gram_dual_symbol(self):
        """Full-FFT symbol t with H = circulant(t) (so H Hᵀ has spectrum |t|²)."""
        return None

    def _circulant_spectrum(self):
        """DFT eigenvalues of H Hᵀ when it is circulant, else None."""
        t = self._gram_dual_symbol()
        return None if t is None else np.abs(t) ** 2

    def _gram_dual(self):
        """H Hᵀ as ("diagonal", d), ("circulant", λ) or ("dense", G), computed
        once per operator; the data is read-only."""
        if self._dual is None:
            d = self._diagonal_entries()
            if d is not None:
                dual = ("diagonal", d * d)
            elif self.has_orthonormal_rows:
                dual = ("diagonal", np.ones(self.out_dim))
            elif (lam := self._circulant_spectrum()) is not None:
                dual = ("circulant", lam)
            else:
                hd = self.to_dense()
                dual = ("dense", hd @ hd.T)
            dual[1].flags.writeable = False
            self._dual = dual
        return self._dual

    def _innovation_factor(self, c, sigma2):
        """Lower Cholesky factor of c H Hᵀ + σ² I, cached per (c, σ²)."""
        key = (float(c), float(sigma2))
        if key not in self._innovation_cache:
            s = c * self._gram_dual()[1] + sigma2 * np.eye(self.out_dim)
            self._innovation_cache[key] = _chol_with_jitter(
                s, f"{self.kind} innovation covariance")
        return self._innovation_cache[key]

    def _innovation_denominator(self, c, sigma2):
        """c λ + σ² for the diagonal and circulant paths, with λ the diagonal
        of H Hᵀ or the half spectrum of its circulant; computed once per
        (c, σ²) and read-only. A column c is keyed by its shape and bytes."""
        if isinstance(c, np.ndarray) and c.ndim:
            key = (c.shape, c.tobytes(), float(sigma2))
        else:
            key = (float(c), float(sigma2))
        denom = self._denominators.get(key)
        if denom is None:
            kind, data = self._gram_dual()
            if kind == "circulant":
                data = data[: self.out_dim // 2 + 1]
            denom = c * data + sigma2
            denom.flags.writeable = False
            self._denominators[key] = denom
        return denom

    def innovation_solve(self, c, sigma2, r):
        """Solve (c H Hᵀ + σ² I) z = r, batched over leading axes of r.

        ``c`` is a scalar or a column of shape (K, 1); a column solves K
        systems at once, row k of ``r``'s (..., K, m) trailing block against
        c[k]. Every row is bit-identical to its scalar solve: the diagonal
        path broadcasts the division, the circulant path runs one real-FFT
        pair over all rows, and the dense path solves the rows in turn with
        each c[k]'s cached factor. The denominator (diagonal and circulant
        paths) and the factor (dense path) are computed on the first solve
        with a given (c, σ²) and reused by every later one.
        """
        kind = self._gram_dual()[0]
        if kind == "diagonal":
            return r / self._innovation_denominator(c, sigma2)
        if kind == "circulant":
            return _irfft(_rfft(r) / self._innovation_denominator(c, sigma2), self.out_dim)
        r = np.asarray(r, dtype=float)
        if np.ndim(c) == 0:
            return self._cholesky_solve(c, sigma2, r)
        return np.stack([self._cholesky_solve(ck, sigma2, r[..., k, :])
                         for k, ck in enumerate(np.ravel(c))], axis=-2)

    def _cholesky_solve(self, c, sigma2, r):
        chol = self._innovation_factor(c, sigma2)
        flat = r.reshape(-1, self.out_dim)
        z = scipy.linalg.cho_solve((chol, True), flat.T).T
        return z.reshape(r.shape)

    def innovation_logdet(self, c, sigma2):
        """log det(c H Hᵀ + σ² I)."""
        kind, data = self._gram_dual()
        if kind != "dense":
            return float(np.sum(np.log(c * data + sigma2)))
        chol = self._innovation_factor(c, sigma2)
        return float(2.0 * np.sum(np.log(np.diag(chol))))

    def __repr__(self):
        return f"<{type(self).__name__} {self.out_dim}x{self.in_dim}>"


class Identity(LinearOperator):
    kind = "identity"

    def __init__(self, dim):
        super().__init__(dim, dim)

    def _apply(self, v):
        return v.copy()

    def _adjoint(self, u):
        return u.copy()

    @property
    def has_orthonormal_rows(self):
        return True

    def _diagonal_entries(self):
        return np.ones(self.in_dim)


class Scale(LinearOperator):
    kind = "scale"

    def __init__(self, dim, factor):
        super().__init__(dim, dim)
        self.factor = float(factor)

    def _apply(self, v):
        return self.factor * v

    def _adjoint(self, u):
        return self.factor * u

    @property
    def has_orthonormal_rows(self):
        return abs(self.factor) == 1.0

    def _diagonal_entries(self):
        return np.full(self.in_dim, self.factor)


class DenseMatrix(LinearOperator):
    kind = "dense-matrix"

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("dense-matrix requires a 2-D array")
        matrix.flags.writeable = False
        super().__init__(matrix.shape[1], matrix.shape[0])
        self.matrix = matrix
        self._dense = matrix

    def _apply(self, v):
        return v @ self.matrix.T

    def _adjoint(self, u):
        return u @ self.matrix


class CoordinateMask(LinearOperator):
    """Square mask that zeroes all coordinates outside ``keep``.

    Kept square (out_dim == in_dim) with zeroed rows, matching zero-filled
    reconstruction conventions; masks are then self-adjoint projections.
    """

    kind = "coordinate-mask"

    def __init__(self, dim, keep):
        super().__init__(dim, dim)
        keep = np.sort(np.atleast_1d(keep).astype(int))
        if keep.size > 1:  # drop repeats
            keep = keep[np.concatenate(([True], keep[1:] != keep[:-1]))]
        if keep.size and (keep[0] < 0 or keep[-1] >= dim):
            raise ValueError(f"mask indices out of range for dim {dim}")
        indicator = np.zeros(dim)
        indicator[keep] = 1.0
        indicator.flags.writeable = False
        keep.flags.writeable = False
        self.keep = keep
        self.indicator = indicator

    def _apply(self, v):
        return v * self.indicator

    def _adjoint(self, u):
        return u * self.indicator

    @property
    def has_orthonormal_rows(self):
        return self.keep.size == self.in_dim

    def _diagonal_entries(self):
        return self.indicator


class DiscreteFourier(LinearOperator):
    """Unitary DFT over a complex grid stored as interleaved real pairs.

    ``shape`` is the complex grid shape (1-D or 2-D); the real vector length
    is 2 * prod(shape). The adjoint is the inverse transform.
    """

    kind = "discrete-Fourier"

    def __init__(self, shape):
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        n = int(np.prod(shape))
        super().__init__(2 * n, 2 * n)
        self.shape = shape

    def _transform(self, v, inverse):
        lead = v.shape[:-1]
        z = np.ascontiguousarray(v).view(np.complex128).reshape(lead + self.shape)
        z = _fftn(z, len(self.shape), inverse)
        return z.reshape(lead + (-1,)).view(np.float64)

    def _apply(self, v):
        return self._transform(v, inverse=False)

    def _adjoint(self, u):
        return self._transform(u, inverse=True)

    @property
    def has_orthonormal_rows(self):
        return True


class CircularConvolution(LinearOperator):
    """Circular convolution on real signals; kernel taps sit at lags 0..L-1.

    Apply and adjoint are real FFT pairs against the symbol's half spectrum.
    """

    kind = "circular-convolution"

    def __init__(self, dim, kernel):
        super().__init__(dim, dim)
        kernel = np.array(kernel, dtype=float).ravel()
        if kernel.size == 0 or kernel.size > dim:
            raise ValueError("kernel must be non-empty and no longer than dim")
        kernel.flags.writeable = False
        self.kernel = kernel
        padded = np.zeros(dim)
        padded[: kernel.size] = kernel
        self._symbol = np.fft.fft(padded)
        self._symbol.flags.writeable = False
        self._half = self._symbol[: dim // 2 + 1]
        self._half_conj = np.conj(self._half)
        self._half_conj.flags.writeable = False

    def _convolve(self, v, half):
        return _irfft(_rfft(v) * half, self.in_dim)

    def _apply(self, v):
        return self._convolve(v, self._half)

    def _adjoint(self, u):
        return self._convolve(u, self._half_conj)

    def _gram_dual_symbol(self):
        return self._symbol


class FoldDownsample(LinearOperator):
    """Keep every ``factor``-th sample starting at index 0; adjoint zero-inserts."""

    kind = "fold-downsample"

    def __init__(self, in_dim, factor):
        factor = int(factor)
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        out_dim = -(-int(in_dim) // factor)
        super().__init__(in_dim, out_dim)
        self.factor = factor

    def _apply(self, v):
        return v[..., :: self.factor].copy()

    def _adjoint(self, u):
        out = np.zeros(u.shape[:-1] + (self.in_dim,))
        out[..., :: self.factor] = u
        return out

    @property
    def has_orthonormal_rows(self):
        return True


class Composition(LinearOperator):
    """Stages applied in list order: composition([A, B]) v = B(A(v))."""

    kind = "composition"

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise ValueError("composition requires at least one stage")
        for a, b in zip(stages, stages[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionMismatch(
                    f"composition stage chain {a.kind}->{b.kind}",
                    a.out_dim,
                    b.in_dim,
                )
        super().__init__(stages[0].in_dim, stages[-1].out_dim)
        self.stages = stages

    def _apply(self, v):
        for stage in self.stages:
            v = stage._apply(v)
        return v

    def _adjoint(self, u):
        for stage in reversed(self.stages):
            u = stage._adjoint(u)
        return u

    @property
    def has_orthonormal_rows(self):
        return all(s.has_orthonormal_rows for s in self.stages)

    def _gram_dual(self):
        # C = Sk...S1 and S1 S1ᵀ = I make C Cᵀ equal (Sk...S2)(Sk...S2)ᵀ, so
        # leading coisometric stages are peeled; one stage left gives its own.
        if self._dual is None:
            stages = list(self.stages)
            while len(stages) > 1 and stages[0].has_orthonormal_rows:
                stages.pop(0)
            if len(stages) == 1:
                self._dual = stages[0]._gram_dual()
            elif len(stages) < len(self.stages):
                self._dual = Composition(stages)._gram_dual()
        return super()._gram_dual()

    def _circulant_spectrum(self):
        # Folding by f | n keeps every f-th lag of the circulant G = head headᵀ,
        # so D G Dᵀ is circulant on the coarse grid with G's spectrum aliased
        # f ways: λ_j = mean_a G[j + a n/f].
        *head, last = self.stages
        if not head:
            return last._circulant_spectrum()
        if not (isinstance(last, FoldDownsample) and last.in_dim % last.factor == 0):
            return None
        head = head[0] if len(head) == 1 else Composition(head)
        g = head._circulant_spectrum()
        if g is None:
            return None
        return g.reshape(last.factor, -1).mean(axis=0)


class ConvexCombination(LinearOperator):
    """(1 - alpha) I + alpha * inner, for square inner operators."""

    kind = "convex-combo"

    def __init__(self, alpha, inner):
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if inner.in_dim != inner.out_dim:
            raise DimensionMismatch(
                "convex-combo inner operator must be square",
                inner.in_dim,
                inner.out_dim,
            )
        super().__init__(inner.in_dim, inner.out_dim)
        self.alpha = alpha
        self.inner = inner
        d = inner._diagonal_entries()
        # a diagonal inner makes this diag(d), applied as v * d: the bits of
        # any other elementwise product with d
        self._diagonal = None if d is None else (1.0 - alpha) + alpha * d

    def _apply(self, v):
        if self._diagonal is not None:
            return v * self._diagonal
        return (1.0 - self.alpha) * v + self.alpha * self.inner._apply(v)

    def _adjoint(self, u):
        if self._diagonal is not None:
            return u * self._diagonal
        return (1.0 - self.alpha) * u + self.alpha * self.inner._adjoint(u)

    def _diagonal_entries(self):
        return self._diagonal

    def _gram_dual_symbol(self):
        t = self.inner._gram_dual_symbol()
        if t is None:
            return None
        return (1.0 - self.alpha) + self.alpha * t


# -- degradation ensembles --------------------------------------------------


class DegradationEnsemble:
    """Finite family {H_1..H_b} with selection weights and a shared noise level."""

    def __init__(self, members, sigma, weights=None):
        members = tuple(members)
        if not members:
            raise ValueError("ensemble requires at least one member")
        in_dim = members[0].in_dim
        for m in members:
            if m.in_dim != in_dim:
                raise DimensionMismatch("ensemble member in_dim", in_dim, m.in_dim)
        if weights is None:
            weights = np.full(len(members), 1.0 / len(members))
        weights = np.array(weights, dtype=float)
        if weights.shape != (len(members),):
            raise ValueError("weights length must match member count")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"weights must be finite, got {weights!r}")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        sigma = float(sigma)
        if not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        weights.flags.writeable = False
        self.members = members
        self.weights = weights
        self.sigma = sigma

    @property
    def size(self):
        return len(self.members)

    @property
    def in_dim(self):
        return self.members[0].in_dim

    def observe(self, x, count, rng):
        """``count`` degraded observations of x, grouped by member.

        Draws all member indices in one ``choice`` call, then one
        (c, out_dim) noise block per member drawn c > 0 times, in member
        order; yields (j, H, rows, s) with ``rows`` the draw positions of
        member j and ``s = H x + sigma * noise``. Identically seeded calls
        therefore share their randomness (common random numbers).
        """
        idx = rng.choice(self.size, size=int(count), p=self.weights)
        for j, H in enumerate(self.members):
            rows = np.flatnonzero(idx == j)
            if rows.size:
                noise = rng.standard_normal((rows.size, H.out_dim))
                yield j, H, rows, H.apply(x) + self.sigma * noise


# -- verification helpers -----------------------------------------------------


def adjoint_mismatch(op, rng, trials=100):
    """Worst relative gap between <u, Hv> and <Hᵀu, v> over random pairs."""
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(op.in_dim)
        u = rng.standard_normal(op.out_dim)
        a = float(np.dot(u, op.apply(v)))
        b = float(np.dot(op.adjoint_apply(u), v))
        scale = max(abs(a), abs(b), np.linalg.norm(u) * np.linalg.norm(v), 1e-300)
        worst = max(worst, abs(a - b) / scale)
    return worst


def gram_operator_norm(op):
    """||Hᵀ H||_2 = ||H Hᵀ||_2, read exactly from the cached H Hᵀ description:
    max d (diagonal), max λ (circulant) or G's top eigenvalue (dense).

    A tall H (out_dim > in_dim, which only a dense-matrix stage makes) takes
    the top eigenvalue of the smaller in_dim² Gram Hᵀ H instead, and leaves
    ``_gram_dual`` unfilled. Both dense paths go through ``to_dense`` and so
    raise ``DenseCapExceeded`` past its cap.
    """
    if op.out_dim > op.in_dim:
        hd = op.to_dense()
        return float(scipy.linalg.eigvalsh(hd.T @ hd)[-1])
    kind, data = op._gram_dual()
    if kind == "dense":
        return float(scipy.linalg.eigvalsh(data)[-1])
    return float(np.max(data))


# -- k-space row masks --------------------------------------------------------


def uniform_row_mask(n_rows, accel, offset=0, acs_lines=0):
    """Equidistant row sampling plus a fully sampled center band."""
    rows = np.zeros(n_rows, dtype=bool)
    rows[offset % accel :: accel] = True
    if acs_lines:
        start = (n_rows - acs_lines) // 2
        rows[start : start + acs_lines] = True
    return rows


def random_row_mask(n_rows, accel, acs_lines, rng):
    """Random row sampling at ~n/accel total rows, center band always included."""
    rows = np.zeros(n_rows, dtype=bool)
    if acs_lines:
        start = (n_rows - acs_lines) // 2
        rows[start : start + acs_lines] = True
    target = max(int(round(n_rows / accel)), int(rows.sum()))
    candidates = np.flatnonzero(~rows)
    extra = target - int(rows.sum())
    if extra > 0:
        chosen = rng.choice(candidates, size=min(extra, candidates.size), replace=False)
        rows[chosen] = True
    return rows


def row_mask_indices(shape, rows):
    """Kept interleaved-vector indices for the given k-space rows.

    Row masks are specified on the centered (fftshifted) grid, so a band in
    the middle of ``rows`` is a fully sampled region around DC; indices are
    converted to the unshifted transform order here.
    """
    h, w = shape
    rows = np.asarray(rows, dtype=bool)
    if rows.shape != (h,):
        raise ValueError(f"row mask must have shape ({h},)")
    base = 2 * ((np.flatnonzero(rows) - h // 2) % h) * w
    return np.sort((base[:, None] + np.arange(2 * w)).ravel())


def masked_fourier(shape, rows):
    """Row-subsampled unitary 2-D Fourier operator on interleaved vectors."""
    dft = DiscreteFourier(shape)
    mask = CoordinateMask(dft.out_dim, row_mask_indices(shape, rows))
    return Composition([dft, mask])
