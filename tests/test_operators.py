import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st

from srp.operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    DenseCapExceeded,
    DimensionMismatch,
    DiscreteFourier,
    FoldDownsample,
    Identity,
    Scale,
    _fftn,
    _irfft,
    _rfft,
    adjoint_mismatch,
    deinterleave,
    gram_operator_norm,
    interleave,
    masked_fourier,
    random_row_mask,
    row_mask_indices,
    uniform_row_mask,
)

from references import sample_degradation


def operator_zoo(rng):
    """One instance of every kind, dims <= 64."""
    return [
        Identity(7),
        Scale(5, -1.7),
        Scale(4, 0.0),
        CoordinateMask(9, [0, 3, 4]),
        CoordinateMask(6, []),
        DenseMatrix(rng.standard_normal((6, 9))),
        DenseMatrix(rng.standard_normal((9, 4))),
        DiscreteFourier((8,)),
        DiscreteFourier((4, 4)),
        CircularConvolution(12, rng.standard_normal(5)),
        CircularConvolution(16, [1.0]),
        FoldDownsample(12, 3),
        FoldDownsample(10, 4),
        Composition([DiscreteFourier((8,)), CoordinateMask(16, range(0, 16, 2))]),
        Composition(
            [CircularConvolution(12, rng.standard_normal(3)), FoldDownsample(12, 2)]
        ),
        ConvexCombination(0.3, CoordinateMask(10, [1, 2, 7])),
        ConvexCombination(0.5, CircularConvolution(8, [0.5, 0.25, 0.25])),
        ConvexCombination(0.0, Scale(6, 2.0)),
        ConvexCombination(1.0, Scale(6, 2.0)),
        masked_fourier((4, 4), np.array([True, False, True, False])),
        # 4 does not divide 10: the dense fallback
        Composition(
            [CircularConvolution(10, rng.standard_normal(3)), FoldDownsample(10, 4)]
        ),
    ]


class TestApplyExamples:
    def test_mask_zero_fills(self):
        op = CoordinateMask(2, [0])
        np.testing.assert_array_equal(op.apply([3.0, 4.0]), [3.0, 0.0])
        assert op.out_dim == op.in_dim == 2

    def test_convex_combo_halfway_to_annihilation(self):
        op = ConvexCombination(0.5, Scale(2, 0.0))
        np.testing.assert_allclose(op.apply([2.0, 2.0]), [1.0, 1.0])

    def test_convex_combo_endpoints(self):
        rng = np.random.default_rng(20)
        inner = DenseMatrix(rng.standard_normal((4, 4)))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(
            ConvexCombination(0.0, inner).apply(v), v, atol=1e-14
        )
        np.testing.assert_allclose(
            ConvexCombination(1.0, inner).apply(v), inner.apply(v), atol=1e-14
        )

    def test_identity_kernel_convolution(self):
        op = CircularConvolution(3, [1.0])
        np.testing.assert_allclose(op.apply([5.0, 6.0, 7.0]), [5.0, 6.0, 7.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for op in operator_zoo(rng):
            u = rng.standard_normal(op.in_dim)
            v = rng.standard_normal(op.in_dim)
            lhs = op.apply(2.5 * u - 1.25 * v)
            rhs = 2.5 * op.apply(u) - 1.25 * op.apply(v)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            Identity(3).apply([1.0, 2.0])
        assert err.value.expected == 3
        assert err.value.actual == 2

    @pytest.mark.parametrize("method,label,dim", [
        ("apply", "apply", "in_dim"), ("adjoint_apply", "adjoint", "out_dim"),
        ("gram_apply", "apply", "in_dim")])
    @pytest.mark.parametrize("op", [Identity(3), FoldDownsample(6, 2),
                                    DenseMatrix(np.ones((2, 5)))], ids=lambda op: op.kind)
    def test_dimension_mismatch_names_kind_and_method(self, op, method, label, dim):
        # the label is built only when the check fails; gram_apply checks
        # its operand as the apply factor's
        expected = getattr(op, dim)
        with pytest.raises(DimensionMismatch) as err:
            getattr(op, method)(np.zeros(expected + 1))
        assert err.value.what == f"{op.kind}.{label}"
        assert str(err.value) == (
            f"{op.kind}.{label}: expected length {expected}, got {expected + 1}")


class TestAdjointExamples:
    def test_mask_self_adjoint(self):
        op = CoordinateMask(2, [0])
        np.testing.assert_array_equal(op.adjoint_apply([3.0, 0.0]), [3.0, 0.0])

    def test_downsample_adjoint_zero_inserts(self):
        op = FoldDownsample(4, 2)
        np.testing.assert_array_equal(op.adjoint_apply([1.0, 2.0]), [1.0, 0.0, 2.0, 0.0])
        # oracle: transpose of the dense downsampling matrix
        dense = op.to_dense()
        np.testing.assert_allclose(op.adjoint_apply([1.0, 2.0]), dense.T @ [1.0, 2.0])

    def test_fourier_adjoint_inverts(self):
        op = DiscreteFourier((8,))
        rng = np.random.default_rng(1)
        v = rng.standard_normal(16)
        np.testing.assert_allclose(op.adjoint_apply(op.apply(v)), v, atol=1e-12)

    def test_adjoint_test_all_kinds(self):
        rng = np.random.default_rng(2)
        for op in operator_zoo(rng):
            assert adjoint_mismatch(op, rng, trials=100) < 1e-10, op.kind


def random_stage(draw, rng, dim, square=False, convex=True):
    """One operator with in_dim ``dim``; ``square`` keeps out_dim == dim."""
    kinds = ["identity", "scale", "mask", "blur", "dense-square"]
    if dim % 2 == 0:
        kinds.append("dft")
    if not square:
        kinds += ["dense", "fold"]
    if convex:
        kinds.append("convex")
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return Identity(dim)
    if kind == "scale":
        return Scale(dim, rng.standard_normal())
    if kind == "mask":
        return CoordinateMask(dim, np.flatnonzero(rng.random(dim) < 0.5))
    if kind == "blur":
        return CircularConvolution(dim, rng.standard_normal(draw(st.integers(1, dim))))
    if kind == "dft":
        return DiscreteFourier((dim // 2,))
    if kind == "dense-square":
        return DenseMatrix(rng.standard_normal((dim, dim)))
    if kind == "dense":
        return DenseMatrix(rng.standard_normal((draw(st.integers(1, 12)), dim)))
    if kind == "fold":
        return FoldDownsample(dim, draw(st.integers(1, 4)))
    inner = random_stage(draw, rng, dim, square=True, convex=False)
    return ConvexCombination(draw(st.floats(0.0, 1.0)), inner)


@st.composite
def compositions(draw, square=False):
    """A 2- or 3-stage composition of random kinds with chained dimensions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 12))
    stages = []
    for _ in range(draw(st.integers(2, 3))):
        stages.append(random_stage(draw, rng, dim, square))
        dim = stages[-1].out_dim
    return Composition(stages), rng


class TestAdjointProperties:
    @given(compositions())
    def test_compositions(self, case):
        op, rng = case
        assert adjoint_mismatch(op, rng, trials=10) < 1e-10

    @given(compositions(square=True), st.floats(0.0, 1.0))
    def test_convex_combinations(self, case, alpha):
        inner, rng = case
        op = ConvexCombination(alpha, inner)
        assert adjoint_mismatch(op, rng, trials=10) < 1e-10


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(Identity(2).gram_apply([1.0, 2.0]), [1.0, 2.0])

    def test_mask_projection_idempotent(self):
        op = CoordinateMask(3, [1])
        np.testing.assert_array_equal(op.gram_apply([4.0, 5.0, 6.0]), [0.0, 5.0, 0.0])

    def test_dense_example(self):
        op = DenseMatrix([[1.0, 1.0], [0.0, 1.0]])
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
        expected = h.T @ h @ np.array([1.0, 1.0])
        np.testing.assert_allclose(op.gram_apply([1.0, 1.0]), expected)
        np.testing.assert_allclose(op.gram_apply([1.0, 1.0]), [2.0, 3.0])

    def test_gram_is_the_composition(self):
        rng = np.random.default_rng(4)
        for op in operator_zoo(rng):
            v = rng.standard_normal(op.in_dim)
            np.testing.assert_array_equal(
                op.gram_apply(v), op.adjoint_apply(op.apply(v))
            )


class TestDense:
    def test_identity(self):
        np.testing.assert_array_equal(Identity(2).to_dense(), np.eye(2))

    def test_scale(self):
        np.testing.assert_array_equal(Scale(1, 3.0).to_dense(), [[3.0]])

    def test_convex_combo_interpolates_entrywise(self):
        inner = CoordinateMask(2, [0])
        op = ConvexCombination(0.25, inner)
        np.testing.assert_allclose(
            op.to_dense(), [[1.0, 0.0], [0.0, 0.75]], atol=1e-14
        )
        rng = np.random.default_rng(5)
        for alpha in (0.0, 0.3, 1.0):
            inner = DenseMatrix(rng.standard_normal((5, 5)))
            op = ConvexCombination(alpha, inner)
            expected = (1 - alpha) * np.eye(5) + alpha * inner.to_dense()
            np.testing.assert_allclose(op.to_dense(), expected, atol=1e-14)

    def test_dense_apply_agreement(self):
        rng = np.random.default_rng(6)
        for op in operator_zoo(rng):
            dense = op.to_dense()
            v = rng.standard_normal(op.in_dim)
            ref = dense @ v
            scale = max(float(np.linalg.norm(ref)), 1.0)
            assert float(np.linalg.norm(op.apply(v) - ref)) / scale < 1e-10

    def test_cap_refusal(self):
        with pytest.raises(DenseCapExceeded):
            Identity(3000).to_dense()


class TestComposition:
    def test_associativity_at_action_level(self):
        rng = np.random.default_rng(7)
        a = DenseMatrix(rng.standard_normal((5, 4)))
        b = DenseMatrix(rng.standard_normal((6, 5)))
        c = DenseMatrix(rng.standard_normal((3, 6)))
        v = rng.standard_normal(4)
        full = Composition([a, b, c]).apply(v)
        nested = c.apply(b.apply(a.apply(v)))
        np.testing.assert_allclose(full, nested, atol=1e-12)
        pair = Composition([Composition([a, b]), c]).apply(v)
        np.testing.assert_allclose(full, pair, atol=1e-12)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Composition([Identity(3), Identity(4)])


class TestInnovationSystem:
    """(c H Hᵀ + σ² I) solves and log-dets vs the dense oracle."""

    @pytest.mark.parametrize("c,sigma2", [(0.0, 0.5), (0.7, 0.09), (3.0, 1.0)])
    def test_structured_paths_match_dense(self, c, sigma2):
        rng = np.random.default_rng(8)
        for op in operator_zoo(rng):
            hd = op.to_dense()
            s_mat = c * hd @ hd.T + sigma2 * np.eye(op.out_dim)
            r = rng.standard_normal(op.out_dim)
            np.testing.assert_allclose(
                op.innovation_solve(c, sigma2, r),
                np.linalg.solve(s_mat, r),
                atol=1e-9,
                err_msg=op.kind,
            )
            np.testing.assert_allclose(
                op.innovation_logdet(c, sigma2),
                np.linalg.slogdet(s_mat)[1],
                atol=1e-9,
            )

    def test_one_stage_composition_takes_its_stage_path(self):
        # the mask's dense form (4096² entries) is past DENSE_CAP
        rng = np.random.default_rng(17)
        stages = [
            (CoordinateMask(4096, range(0, 4096, 3)), "diagonal"),
            (CircularConvolution(12, rng.standard_normal(5)), "circulant"),
            (DenseMatrix(rng.standard_normal((5, 3))), "dense"),
        ]
        for stage, kind in stages:
            op = Composition([stage])
            r = rng.standard_normal((3, op.out_dim))
            np.testing.assert_array_equal(
                op.innovation_solve(0.7, 0.2, r), stage.innovation_solve(0.7, 0.2, r)
            )
            assert op.innovation_logdet(0.7, 0.2) == stage.innovation_logdet(0.7, 0.2)
            assert op._gram_dual()[0] == kind
            assert op._dense is None
        # a one-stage head of a fold keeps the fold spectral
        blur = stages[1][0]
        nested = Composition([Composition([blur]), FoldDownsample(12, 3)])
        flat = Composition([blur, FoldDownsample(12, 3)])
        assert nested._gram_dual()[0] == "circulant"
        np.testing.assert_array_equal(nested._gram_dual()[1], flat._gram_dual()[1])

    def test_gram_dual_is_computed_once_and_read_only(self):
        for op in operator_zoo(np.random.default_rng(18)):
            kind, data = op._gram_dual()
            assert kind in ("diagonal", "circulant", "dense")
            assert op._gram_dual()[1] is data
            assert not data.flags.writeable

    def test_batched_solve(self):
        op = masked_fourier((4, 4), np.array([True, True, False, False]))
        rng = np.random.default_rng(9)
        r = rng.standard_normal((5, 32))
        batch = op.innovation_solve(0.4, 0.2, r)
        for i in range(5):
            np.testing.assert_allclose(
                batch[i], op.innovation_solve(0.4, 0.2, r[i]), atol=1e-12
            )


def _dense_circulant(n, kernel):
    """Independent oracle: entry (i, j) is the tap at lag (i - j) mod n."""
    padded = np.zeros(n)
    padded[: kernel.size] = kernel
    lags = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return padded[lags]


@st.composite
def circulant_systems(draw):
    """A circulant-based operator, its dense form, and an innovation system.

    Kinds: plain blur, convex combination with a blur, and blur followed by
    a fold (factor dividing n or not), optionally behind a unitary DFT that
    the innovation paths peel off.
    """
    factor = draw(st.integers(1, 6))
    if draw(st.booleans()):
        n = factor * draw(st.integers(1, 10))
    else:
        n = draw(st.integers(max(factor, 2), 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kernel = rng.standard_normal(draw(st.integers(1, n)))
    alpha = draw(st.floats(0.0, 1.0))
    blur = CircularConvolution(n, kernel)
    dense = _dense_circulant(n, kernel)
    kind = draw(st.sampled_from(["blur", "convex", "blur-fold", "convex-fold", "dft-blur-fold"]))
    if kind.startswith("convex"):
        blur = ConvexCombination(alpha, blur)
        dense = (1.0 - alpha) * np.eye(n) + alpha * dense
    if kind.endswith("fold"):
        fold = FoldDownsample(n, factor)
        op = Composition([blur, fold])
        dense = dense[::factor]
        if kind == "dft-blur-fold" and n % 2 == 0:
            dft = DiscreteFourier((n // 2,))
            op = Composition([dft, blur, fold])
            dense = dense @ dft.to_dense()
    else:
        op = blur
    c = draw(st.floats(0.0, 5.0))
    sigma2 = draw(st.floats(0.05, 2.0))
    return op, dense, c, sigma2, rng


class TestSpectralProperties:
    """Circulant innovation paths and real-FFT convolution vs dense linear algebra."""

    @given(circulant_systems())
    def test_innovation_matches_dense(self, system):
        op, dense, c, sigma2, rng = system
        s_mat = c * dense @ dense.T + sigma2 * np.eye(op.out_dim)
        r = rng.standard_normal(op.out_dim)
        np.testing.assert_allclose(
            op.innovation_solve(c, sigma2, r), np.linalg.solve(s_mat, r), atol=1e-9
        )
        np.testing.assert_allclose(
            op.innovation_logdet(c, sigma2), np.linalg.slogdet(s_mat)[1], atol=1e-9
        )

    @given(circulant_systems())
    def test_divisible_folds_take_the_spectral_path(self, system):
        op, _, c, sigma2, rng = system
        op.innovation_solve(c, sigma2, rng.standard_normal(op.out_dim))
        fold = op.stages[-1] if isinstance(op, Composition) else None
        spectral = fold is None or fold.in_dim % fold.factor == 0
        assert (op._gram_dual()[0] == "circulant") == spectral
        assert (not op._innovation_cache) == spectral

    @given(circulant_systems())
    def test_cached_denominator_solves_as_the_uncached_expression(self, system):
        op, _, c, sigma2, rng = system
        if op._gram_dual()[0] != "circulant":
            return
        m = op.out_dim
        r = rng.standard_normal((2, m))
        want = _irfft(_rfft(r) / (c * op._gram_dual()[1][: m // 2 + 1] + sigma2), m)
        for _ in range(2):  # the first solve builds the denominator, the second reads it
            np.testing.assert_array_equal(op.innovation_solve(c, sigma2, r), want)
        (denom,) = op._denominators.values()
        assert op._innovation_denominator(c, sigma2) is denom
        assert not denom.flags.writeable

    @given(circulant_systems())
    def test_batched_solve_matches_rows(self, system):
        op, _, c, sigma2, rng = system
        r = rng.standard_normal((4, op.out_dim))
        batch = op.innovation_solve(c, sigma2, r)
        rows = np.stack([op.innovation_solve(c, sigma2, row) for row in r])
        if op._gram_dual()[0] == "circulant":
            np.testing.assert_array_equal(batch, rows)
        else:
            np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12)

    @given(circulant_systems())
    def test_convolution_matches_dense(self, system):
        op, dense, _, _, rng = system
        v = rng.standard_normal((3, op.in_dim))
        u = rng.standard_normal((3, op.out_dim))
        np.testing.assert_allclose(op.apply(v), v @ dense.T, atol=1e-10)
        np.testing.assert_allclose(op.adjoint_apply(u), u @ dense, atol=1e-10)
        np.testing.assert_allclose(op.to_dense(), dense, atol=1e-10)
        assert adjoint_mismatch(op, rng, trials=10) < 1e-10


def _dense_dft(shape):
    """Independent oracle: the unitary DFT over a row-major grid as a complex
    matrix, the Kronecker product of 1-D DFT matrices built from ``np.exp``."""
    mat = np.ones((1, 1))
    for n in shape:
        k = np.arange(n)
        mat = np.kron(mat, np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n))
    return mat


def _real_form(mat):
    """Real matrix acting on interleaved [re, im, ...] vectors as ``mat`` does."""
    out = np.empty((2 * mat.shape[0], 2 * mat.shape[1]))
    out[0::2, 0::2] = mat.real
    out[0::2, 1::2] = -mat.imag
    out[1::2, 0::2] = mat.imag
    out[1::2, 1::2] = mat.real
    return out


grid_shapes = st.one_of(
    st.tuples(st.integers(1, 24)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)


class TestFourierProperties:
    """The DFT kernel: values against a dense oracle, bit-exact layouts."""

    @given(grid_shapes, st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_dft(self, shape, seed):
        op = DiscreteFourier(shape)
        mat = _dense_dft(shape)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((3, op.in_dim))
        z = deinterleave(v)
        np.testing.assert_allclose(
            op.apply(v), interleave(z @ mat.T), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            op.adjoint_apply(v), interleave(z @ mat.conj()), rtol=0, atol=1e-12
        )

    @given(grid_shapes, st.integers(0, 2 ** 32 - 1))
    def test_layouts_are_bit_identical(self, shape, seed):
        op = DiscreteFourier(shape)
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((4, 2 * op.in_dim))
        v = np.ascontiguousarray(wide[:, : op.in_dim])
        for f in (op.apply, op.adjoint_apply):
            batch = f(v)
            rows = np.stack([f(row) for row in v])
            np.testing.assert_array_equal(batch, rows)
            np.testing.assert_array_equal(f(wide[:, : op.in_dim]), batch)
            np.testing.assert_array_equal(f(np.asfortranarray(v)), batch)
            strided = wide[:, ::2]
            np.testing.assert_array_equal(f(strided), f(strided.copy()))

    def test_agrees_with_numpy_to_rounding(self):
        op = DiscreteFourier((32, 32))
        v = np.random.default_rng(16).standard_normal((20, op.in_dim))
        z = deinterleave(v).reshape(20, 32, 32)
        for f, ref in ((op.apply, np.fft.fftn), (op.adjoint_apply, np.fft.ifftn)):
            want = interleave(ref(z, axes=(1, 2), norm="ortho").reshape(20, -1))
            np.testing.assert_allclose(f(v), want, rtol=0, atol=1e-14)

    @given(grid_shapes)
    def test_output_does_not_alias_input(self, shape):
        op = DiscreteFourier(shape)
        v = np.arange(op.in_dim, dtype=float)
        for f in (op.apply, op.adjoint_apply):
            out = f(v)
            out[:] = -1.0
            np.testing.assert_array_equal(v, np.arange(op.in_dim, dtype=float))


def _assert_same_bits(got, want):
    """Equal dtype, shape and bits, so -0.0 and nan payloads count; memory
    order is not compared."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def _with_layout(x, layout):
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":  # every other entry of a doubled last axis
        return np.repeat(x, 2, axis=-1)[..., ::2]
    if layout == "read-only":
        x = x.copy()
        x.flags.writeable = False
    return x


@st.composite
def fft_cases(draw):
    """An array the FFT layer may receive, and how many trailing axes form its grid.

    Grids are 1-D or 2-D with odd and even sizes, lengths 1, 2 and 3 among
    them; leading batch axes have sizes 0 to 3. Some entries are replaced by
    signed zeros, infinities or nan; the memory is C, Fortran, strided or
    read-only.
    """
    size = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 40))
    grid = tuple(draw(st.lists(size, min_size=1, max_size=2)))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(lead + grid)
    if draw(st.booleans()):
        flat = x.reshape(-1)
        picks = rng.integers(0, max(flat.size, 1), size=min(flat.size, 3))
        flat[picks] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=picks.size)
    layout = draw(st.sampled_from(["C", "fortran", "strided", "read-only"]))
    return x, len(grid), layout


class TestFftLayer:
    """The private FFT layer against the public functions it replaces, bit for bit.

    The layer calls a private scipy module; this is the test that fails if
    scipy moves it or changes what its kernels compute.
    """

    @given(fft_cases())
    def test_helpers_match_public_functions(self, case):
        x, ndim, layout = case
        n = x.shape[-1]
        z = x.astype(complex)
        z.imag = x[..., ::-1]
        z, x = _with_layout(z, layout), _with_layout(x, layout)
        axes = tuple(range(-ndim, 0))
        with np.errstate(all="ignore"):
            half = np.fft.rfft(x)
            pairs = [
                (_fftn(z, ndim, False), scipy.fft.fftn(z, axes=axes, norm="ortho")),
                (_fftn(z, ndim, True), scipy.fft.ifftn(z, axes=axes, norm="ortho")),
                (_rfft(x), half),
                (_irfft(half, n), np.fft.irfft(half, n=n)),
                (_irfft(_with_layout(half, layout), n),
                 np.fft.irfft(_with_layout(half, layout), n=n)),
            ]
        for got, want in pairs:
            _assert_same_bits(got, want)
            assert not np.shares_memory(got, z) and not np.shares_memory(got, half)

    @pytest.mark.parametrize("n", [*range(1, 65), 2731, 4623])
    def test_irfft_scales_as_numpy_at_every_length(self, n):
        # pocketfft's own 1/n rounds differently from numpy's at n = 2731, 4623
        half = np.fft.rfft(np.random.default_rng(n).standard_normal((2, n)))
        _assert_same_bits(_irfft(half, n), np.fft.irfft(half, n=n))

    def test_coerces_as_the_public_functions_do(self):
        ints = np.arange(7)
        for v in (ints, ints.tolist(), ints.astype(np.float32)):
            _assert_same_bits(_rfft(v), np.fft.rfft(ints.astype(float)))
        half = np.fft.rfft(ints.astype(float))
        _assert_same_bits(_irfft(half.tolist(), 7), np.fft.irfft(half, n=7))
        _assert_same_bits(_irfft(half.astype(np.complex64), 7),
                          np.fft.irfft(half.astype(np.complex64).astype(complex), n=7))
        grid = (ints[:6].reshape(2, 3) + 1j).tolist()
        _assert_same_bits(_fftn(grid, 2, False), scipy.fft.fftn(np.array(grid), norm="ortho"))

    @pytest.mark.parametrize("r", [[1, -2, 3, 0, 5, -1, 2, 4], np.arange(-4, 4)])
    def test_circulant_solve_takes_lists_and_ints(self, r):
        # the circulant innovation solve as written on np.fft before the layer
        op = CircularConvolution(8, [0.5, 0.3, 0.2])
        kind, lam = op._gram_dual()
        assert kind == "circulant"
        want = np.fft.irfft(np.fft.rfft(r, axis=-1) / (0.7 * lam[:5] + 0.2), n=8, axis=-1)
        _assert_same_bits(op.innovation_solve(0.7, 0.2, r), want)


@st.composite
def diagonal_and_dense_systems(draw):
    """An operator on the diagonal or dense-Cholesky innovation path, an
    independent dense form of it, and an innovation system.

    Kinds: coordinate mask, scale, masked Fourier (the DFT is peeled off),
    a convex combination of a mask (diagonal path), and a dense matrix
    (Cholesky path).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["mask", "scale", "masked-fourier", "convex-mask", "dense"]))
    if kind == "masked-fourier":
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        rows = rng.random(shape[0]) < 0.5
        op = masked_fourier(shape, rows)
        keep = np.zeros(op.out_dim)
        keep[row_mask_indices(shape, rows)] = 1.0
        dense = keep[:, None] * _real_form(_dense_dft(shape))
    elif kind == "dense":
        mat = rng.standard_normal((draw(st.integers(1, 8)), draw(st.integers(1, 8))))
        op = DenseMatrix(mat)
        dense = mat.copy()
    else:
        n = draw(st.integers(1, 16))
        if kind == "scale":
            s = draw(st.floats(-3.0, 3.0))
            op = Scale(n, s)
            dense = s * np.eye(n)
        else:
            keep = rng.random(n) < 0.5
            op = CoordinateMask(n, np.flatnonzero(keep))
            dense = np.diag(keep.astype(float))
            if kind == "convex-mask":
                alpha = draw(st.floats(0.0, 1.0))
                op = ConvexCombination(alpha, op)
                dense = (1.0 - alpha) * np.eye(n) + alpha * dense
    c = draw(st.floats(0.0, 5.0))
    sigma2 = draw(st.floats(0.05, 2.0))
    return kind, op, dense, c, sigma2, rng


class TestDiagonalAndDenseProperties:
    """Diagonal and dense-Cholesky innovation paths vs dense linear algebra."""

    @given(diagonal_and_dense_systems())
    def test_innovation_matches_dense(self, system):
        kind, op, dense, c, sigma2, rng = system
        np.testing.assert_allclose(op.to_dense(), dense, atol=1e-12)
        s_mat = c * dense @ dense.T + sigma2 * np.eye(op.out_dim)
        r = rng.standard_normal(op.out_dim)
        np.testing.assert_allclose(
            op.innovation_solve(c, sigma2, r), np.linalg.solve(s_mat, r), atol=1e-9
        )
        np.testing.assert_allclose(
            op.innovation_logdet(c, sigma2), np.linalg.slogdet(s_mat)[1], atol=1e-9
        )
        diagonal = kind != "dense"
        assert (op._gram_dual()[0] == "diagonal") == diagonal
        assert (not op._innovation_cache) == diagonal


@st.composite
def column_systems(draw):
    """An operator on each innovation path, a column c of K coefficients
    (equal or distinct) and stacked residuals of shape lead + (K, m)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 12))
    kernel = rng.standard_normal(draw(st.integers(1, n)))
    kind, op = draw(st.sampled_from([
        ("diagonal", CoordinateMask(n, np.flatnonzero(rng.random(n) < 0.5))),
        ("diagonal", Scale(n, rng.uniform(-2.0, 2.0))),
        ("diagonal", masked_fourier((2, 3), np.array([True, False]))),
        ("circulant", CircularConvolution(n, kernel)),
        ("circulant", ConvexCombination(0.6, CircularConvolution(n, kernel))),
        ("circulant", Composition([CircularConvolution(2 * n, kernel), FoldDownsample(2 * n, 2)])),
        ("dense", DenseMatrix(rng.standard_normal((draw(st.integers(1, 8)), n)))),
        # 3 does not divide 3n + 1: the fold's remainder takes the dense path
        ("dense", Composition([CircularConvolution(3 * n + 1, kernel),
                               FoldDownsample(3 * n + 1, 3)])),
    ]))
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        c = np.full(count, draw(st.floats(0.0, 5.0)))
    else:
        c = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=count, max_size=count)))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    sigma2 = draw(st.floats(0.05, 2.0))
    r = rng.standard_normal(lead + (count, op.out_dim))
    return kind, op, c[:, None], sigma2, r


class TestColumnSolve:
    """A column c solves K systems in one call, each bit for bit its scalar solve."""

    @given(column_systems())
    def test_column_matches_scalar_solves(self, system):
        kind, op, c, sigma2, r = system
        got = op.innovation_solve(c, sigma2, r)
        expected = np.stack([op.innovation_solve(float(ck), sigma2, r[..., k, :])
                             for k, ck in enumerate(c[:, 0])], axis=-2)
        assert got.shape == r.shape
        np.testing.assert_array_equal(got, expected)
        assert op._gram_dual()[0] == kind

    @given(column_systems())
    def test_cached_denominator_solves_as_the_uncached_expression(self, system):
        # for the column and for the scalar c of its first row, the first
        # solve builds the denominator c λ + σ² and later ones read it
        kind, op, c, sigma2, r = system
        m = op.out_dim
        cases = [(c, r), (float(c[0, 0]), r[..., 0, :])]
        for ck, rk in cases:
            data = op._gram_dual()[1]
            if kind == "diagonal":
                want = rk / (ck * data + sigma2)
            elif kind == "circulant":
                want = _irfft(_rfft(rk) / (ck * data[: m // 2 + 1] + sigma2), m)
            else:
                want = op.innovation_solve(ck, sigma2, rk)
            for _ in range(2):
                np.testing.assert_array_equal(op.innovation_solve(ck, sigma2, rk), want)
        if kind == "dense":
            assert not op._denominators
            return
        assert len(op._denominators) == 2  # one per (c, σ²): the column, the scalar
        for ck, _ in cases:
            denom = op._innovation_denominator(ck, sigma2)
            assert op._innovation_denominator(ck, sigma2) is denom
            assert not denom.flags.writeable
        op._innovation_denominator(c, sigma2 + 1.0)
        assert len(op._denominators) == 3

    def test_columns_of_equal_bytes_and_other_shapes_keep_their_own_denominators(self):
        # c of shape (1, 1) and (1,) hold the same bytes; each solve keeps
        # the shape it would have without the cache
        op = CoordinateMask(5, [0, 2, 3])
        r = np.arange(5.0)
        for c in (np.array([[0.5]]), np.array([0.5]), 0.5):
            got = op.innovation_solve(c, 0.3, r)
            want = r / (c * op.indicator ** 2 + 0.3)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert len(op._denominators) == 3

    def test_dense_column_does_not_reenter_the_public_solve(self):
        op = DenseMatrix(np.random.default_rng(19).standard_normal((4, 6)))
        calls = []
        solve = op.innovation_solve
        op.innovation_solve = lambda *args: calls.append(args) or solve(*args)
        op.innovation_solve(np.array([[0.5], [1.5], [0.5]]), 0.3, np.ones((2, 3, 4)))
        assert len(calls) == 1
        assert set(op._innovation_cache) == {(0.5, 0.3), (1.5, 0.3)}


@st.composite
def observed_ensembles(draw):
    """An ensemble with some zero weights and mixed out_dims, x and a count."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=size, max_size=size)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    n = draw(st.integers(1, 6))
    members = [DenseMatrix(rng.standard_normal((draw(st.integers(1, 6)), n)))
               for _ in range(size)]
    ens = DegradationEnsemble(members, sigma=draw(st.floats(0.1, 2.0)),
                              weights=weights / weights.sum())
    return ens, rng.standard_normal(n), draw(st.integers(2, 40)), draw(st.integers(0, 2 ** 32 - 1))


class TestObserve:
    """DegradationEnsemble.observe against a loop written out in the test."""

    @staticmethod
    def reference(ens, x, count, rng):
        idx = rng.choice(ens.size, size=count, p=ens.weights)
        groups = []
        for j in range(ens.size):
            rows = [i for i in range(count) if idx[i] == j]
            if rows:
                H = ens.members[j]
                noise = rng.standard_normal((len(rows), H.out_dim))
                groups.append((j, rows, H.apply(x) + ens.sigma * noise))
        return groups

    @given(observed_ensembles())
    def test_matches_reference_draw_order(self, case):
        ens, x, count, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(ens.observe(x, count, rng))
        expected = self.reference(ens, x, count, ref_rng)
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (j, H, rows, s), (_, ref_rows, ref_s) in zip(got, expected):
            assert H is ens.members[j] and ens.weights[j] > 0
            assert rows.tolist() == ref_rows
            np.testing.assert_array_equal(s, ref_s)
        assert sorted(i for g in got for i in g[2]) == list(range(count))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEnsemble:
    def test_single_member_always_selected(self):
        ens = DegradationEnsemble([Identity(2)], sigma=0.5)
        rng = np.random.default_rng(10)
        assert all(sample_degradation(ens, rng)[0] == 0 for _ in range(50))

    def test_degenerate_weights(self):
        ens = DegradationEnsemble([Identity(2), Scale(2, 2.0)], sigma=1.0,
                                  weights=[1.0, 0.0])
        rng = np.random.default_rng(11)
        assert all(sample_degradation(ens, rng)[0] == 0 for _ in range(50))

    def test_uniform_frequencies(self):
        b, n = 8, 100_000
        ens = DegradationEnsemble([Identity(2)] * b, sigma=1.0)
        rng = np.random.default_rng(12)
        counts = np.zeros(b)
        for _ in range(n):
            idx, member = sample_degradation(ens, rng)
            counts[idx] += 1
            assert member is ens.members[idx]
        p = 1.0 / b
        se = np.sqrt(p * (1 - p) / n)
        np.testing.assert_array_less(np.abs(counts / n - p), 3 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationEnsemble([], sigma=1.0)
        with pytest.raises(ValueError):
            DegradationEnsemble([Identity(2)], sigma=0.0)
        with pytest.raises(ValueError):
            DegradationEnsemble([Identity(2), Identity(3)], sigma=1.0)
        with pytest.raises(ValueError):
            DegradationEnsemble([Identity(2)], sigma=1.0, weights=[0.9])

    @pytest.mark.parametrize("sigma,weights,message", [
        (float("nan"), None, "sigma must be positive and finite"),
        (float("inf"), None, "sigma must be positive and finite"),
        (1.0, [float("nan")], "weights must be finite"),
        (1.0, [float("inf"), 0.0], "weights must be finite"),
        (1.0, [float("nan"), 1.0], "weights must be finite"),
    ])
    def test_non_finite_refused(self, sigma, weights, message):
        members = [Identity(2)] * (1 if weights is None else len(weights))
        with pytest.raises(ValueError, match=message):
            DegradationEnsemble(members, sigma=sigma, weights=weights)


class TestRowMasks:
    def test_uniform_pattern(self):
        rows = uniform_row_mask(16, 4, offset=1, acs_lines=0)
        np.testing.assert_array_equal(np.flatnonzero(rows), [1, 5, 9, 13])

    def test_acs_band_centered(self):
        rows = uniform_row_mask(16, 8, offset=0, acs_lines=4)
        assert rows[6] and rows[7] and rows[8] and rows[9]

    def test_random_mask_deterministic_and_sized(self):
        a = random_row_mask(32, 4, 4, np.random.default_rng(3))
        b = random_row_mask(32, 4, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.sum() == 8
        assert a[14] and a[15] and a[16] and a[17]

    def test_center_rows_map_to_dc(self):
        # the center of the shifted grid is the DC row of the transform
        rows = np.zeros(8, dtype=bool)
        rows[4] = True
        idx = row_mask_indices((8, 8), rows)
        np.testing.assert_array_equal(idx, np.arange(16))

    @staticmethod
    def loop_row_mask_indices(shape, rows):
        # the per-row loop that row_mask_indices replaces, kept as reference
        h, w = shape
        kept = []
        for r in np.flatnonzero(rows):
            base = 2 * ((r - h // 2) % h) * w
            kept.extend(range(base, base + 2 * w))
        return np.asarray(sorted(kept), dtype=int)

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5), (16, 4), (1, 3), (32, 32)])
    @pytest.mark.parametrize("accel,offset,acs_lines", [
        (1, 0, 0), (2, 0, 0), (3, 1, 0), (4, 2, 2), (8, 5, 3), (4, 0, 0)])
    def test_indices_match_the_row_loop(self, shape, accel, offset, acs_lines):
        h = shape[0]
        masks = [uniform_row_mask(h, accel, offset, min(acs_lines, h)),
                 random_row_mask(h, accel, min(acs_lines, h), np.random.default_rng(h)),
                 np.zeros(h, dtype=bool)]
        for rows in masks:
            got = row_mask_indices(shape, rows)
            want = self.loop_row_mask_indices(shape, rows)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("keep", [
        [4, 0, 7], [3, 3, 1, 3, 0, 1], [], np.array([], dtype=int), [5],
        np.array([6, 2, 2], dtype=np.int32), [np.int64(4), np.int16(1), np.int64(4)],
        [2.0, 0.9, 7.5, 2.2], range(8, 0, -3)])
    def test_mask_keep_matches_the_set_construction(self, keep):
        want = np.asarray(sorted(set(int(i) for i in np.atleast_1d(keep))), dtype=int)
        op = CoordinateMask(9, keep)
        assert op.keep.dtype == want.dtype
        np.testing.assert_array_equal(op.keep, want)
        indicator = np.zeros(9)
        indicator[want] = 1.0
        np.testing.assert_array_equal(op.indicator, indicator)

    @pytest.mark.parametrize("keep", [[0, 9], [-1, 2], [9], [3, 3, -2]])
    def test_mask_keep_out_of_range_is_refused(self, keep):
        with pytest.raises(ValueError, match="out of range"):
            CoordinateMask(9, keep)

    def test_masked_fourier_roundtrip_on_kept_rows(self):
        rows = np.ones(4, dtype=bool)
        op = masked_fourier((4, 4), rows)
        rng = np.random.default_rng(13)
        v = rng.standard_normal(32)
        np.testing.assert_allclose(op.adjoint_apply(op.apply(v)), v, atol=1e-12)


class TestInterleaving:
    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        np.testing.assert_array_equal(deinterleave(interleave(z)), z)

    def test_exact_for_non_finite_and_signed_zero(self):
        parts = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1.5]
        z = np.array([complex(a, b) for a in parts for b in parts])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = interleave(z)
            back = deinterleave(v)
        for got, want in ((v[0::2], z.real), (v[1::2], z.imag),
                          (back.real, z.real), (back.imag, z.imag)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_odd_length_raises(self):
        with pytest.raises(ValueError, match="even"):
            deinterleave(np.zeros((2, 5)))

    def test_results_do_not_alias_inputs(self):
        v = np.arange(8.0)
        z = deinterleave(v)
        assert not np.shares_memory(z, v)
        assert not np.shares_memory(interleave(z), z)


def _norm_cases():
    """operator_zoo, plus a square dense matrix, the superres blur→fold A
    (9-tap Gaussian of width 1.5 on 512 samples, 4x fold) and a tall dense
    matrix."""
    rng = np.random.default_rng(16)
    taps = np.exp(-0.5 * ((np.arange(9) - 4) / 1.5) ** 2)
    return operator_zoo(rng) + [
        DenseMatrix(rng.standard_normal((6, 6))),
        Composition([CircularConvolution(512, taps / taps.sum()), FoldDownsample(512, 4)]),
        DenseMatrix(rng.standard_normal((40, 8))),
    ]


@pytest.mark.parametrize("index", range(len(_norm_cases())))
def test_gram_operator_norm_is_exact(index):
    op = _norm_cases()[index]
    calls, gram = [], op.gram_apply
    op.gram_apply = lambda v: calls.append(1) or gram(v)
    got = gram_operator_norm(op)
    expected = np.linalg.norm(op.to_dense(), 2) ** 2
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert calls == []
    if op.out_dim > op.in_dim:
        assert op._dual is None
