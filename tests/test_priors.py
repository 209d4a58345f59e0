import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srp.operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DenseMatrix,
    FoldDownsample,
    Identity,
    Scale,
    masked_fourier,
    uniform_row_mask,
)
from srp.oracle import QuadratureGrid, oracle_mmse
from srp.priors import (
    FactorizationError,
    GmmPrior,
    LinearGaussianPosterior,
    ObservationModel,
    mmse_restore,
    observation_logpdf,
    observation_score,
)


def standard_normal_prior(n=1):
    return GmmPrior([1.0], [np.zeros(n)], [np.asarray(1.0)])


def random_prior(rng, n, k, full=True):
    w = rng.dirichlet(np.full(k, 4.0))
    w = w / w.sum()
    means = rng.standard_normal((k, n))
    covs = []
    for _ in range(k):
        if full:
            a = 0.3 * rng.standard_normal((n, n))
            covs.append(a @ a.T + rng.uniform(0.4, 1.2) * np.eye(n))
        else:
            covs.append(rng.uniform(0.4, 1.2, size=n))
    return GmmPrior(w, means, covs)


class TestPriorValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmPrior([0.5, 0.4], np.zeros((2, 1)), [np.asarray(1.0)] * 2)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmPrior([1.0, 0.0], np.zeros((2, 1)), [np.asarray(1.0)] * 2)

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(FactorizationError):
            GmmPrior([1.0], [[0.0, 0.0]], [np.array([[1.0, 1.0], [1.0, 1.0]])])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(FactorizationError):
            GmmPrior([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_equal_diagonal_collapses_to_isotropic(self):
        p = GmmPrior([1.0], [[0.0, 0.0]], [np.array([0.7, 0.7])])
        assert p.is_isotropic

    def test_shared_scalar_covariance(self):
        p = GmmPrior([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], 0.9)
        assert p.is_isotropic and p.n_components == 2

    @pytest.mark.parametrize("weights,means,covs,error", [
        ([np.nan], [[0.0]], [1.0], ValueError),
        ([0.5, np.nan], [[0.0], [1.0]], [1.0, 1.0], ValueError),
        ([1.0], [[np.nan, 0.0]], [1.0], ValueError),
        ([1.0], [[np.inf, 0.0]], [1.0], ValueError),
        ([1.0], [[0.0]], [np.nan], FactorizationError),
        ([1.0], [[0.0]], [np.inf], FactorizationError),
        ([1.0], [[0.0, 0.0]], [np.array([1.0, np.inf])], FactorizationError),
        ([1.0], [[0.0, 0.0]], [np.array([[1.0, np.nan], [np.nan, 1.0]])],
         FactorizationError),
        ([1.0], [[0.0, 0.0]], [np.array([[np.inf, 0.0], [0.0, 1.0]])],
         FactorizationError),
    ])
    def test_non_finite_parameters_refused(self, weights, means, covs, error):
        with pytest.raises(error, match="finite"):
            GmmPrior(weights, means, covs)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    def test_observation_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            ObservationModel(Identity(1), sigma)

    def test_bare_matrix_covariance_rejected_as_ambiguous(self):
        with pytest.raises(ValueError, match="ambiguous"):
            GmmPrior([1.0], [[0.0, 0.0]], np.eye(2))


class TestSampling:
    def test_near_degenerate_concentrates_at_mean(self):
        p = GmmPrior([1.0], [[2.0, -1.0]], [np.asarray(1e-12)])
        x = p.sample(np.random.default_rng(0))
        np.testing.assert_allclose(x, [2.0, -1.0], atol=1e-5)

    def test_standard_normal_moments(self):
        p = standard_normal_prior()
        xs = p.sample(np.random.default_rng(1), size=100_000)
        assert abs(float(xs.mean())) < 0.02
        assert abs(float(xs.var()) - 1.0) < 0.02

    def test_degenerate_weight_uses_first_component(self):
        p = GmmPrior(
            [1.0 - 1e-13, 1e-13], [[0.0], [100.0]], [np.asarray(1e-6), np.asarray(1e-6)]
        )
        xs = p.sample(np.random.default_rng(2), size=1000)
        assert np.all(np.abs(xs) < 1.0)

    def test_deterministic_per_seed(self):
        p = random_prior(np.random.default_rng(3), 3, 2)
        a = p.sample(np.random.default_rng(10), size=5)
        b = p.sample(np.random.default_rng(10), size=5)
        np.testing.assert_array_equal(a, b)


class TestObservationLogpdf:
    def test_worked_example_at_zero(self):
        p = standard_normal_prior()
        obs = ObservationModel(Identity(1), 1.0)
        expected = -0.5 * np.log(2 * np.pi * 2.0)
        np.testing.assert_allclose(
            observation_logpdf(p, obs, np.array([0.0])), expected, atol=1e-12
        )

    def test_worked_example_quadratic_term(self):
        p = standard_normal_prior()
        obs = ObservationModel(Identity(1), 1.0)
        base = observation_logpdf(p, obs, np.array([0.0]))
        np.testing.assert_allclose(
            observation_logpdf(p, obs, np.array([np.sqrt(2.0)])), base - 0.5,
            atol=1e-12,
        )

    def test_fully_degrading_operator_ignores_prior(self):
        rng = np.random.default_rng(4)
        p = random_prior(rng, 2, 3)
        obs = ObservationModel(Scale(2, 0.0), 0.7)
        s = rng.standard_normal(2)
        expected = -0.5 * (np.dot(s, s) / 0.49 + 2 * np.log(2 * np.pi * 0.49))
        np.testing.assert_allclose(observation_logpdf(p, obs, s), expected, atol=1e-10)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        p = random_prior(rng, 3, 2)
        obs = ObservationModel(DenseMatrix(rng.standard_normal((3, 3))), 0.8)
        s = rng.standard_normal((6, 3))
        batch = observation_logpdf(p, obs, s)
        single = [observation_logpdf(p, obs, row) for row in s]
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_infinite_entry_is_minus_inf_without_warnings(self):
        p = GmmPrior([0.3, 0.7], [[0.5, -0.2], [-1.0, 0.4]], [np.asarray(0.6), np.asarray(1.1)])
        obs = ObservationModel(Identity(2), 0.7)
        s = np.array([[np.inf, 0.3], [-np.inf, 0.3], [0.2, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = observation_logpdf(p, obs, s)
            single = observation_logpdf(p, obs, s[0])
        assert got[0] == got[1] == single == -np.inf
        assert np.isfinite(got[2])


class TestMmseRestore:
    def test_worked_example(self):
        p = standard_normal_prior()
        obs = ObservationModel(Identity(1), 1.0)
        np.testing.assert_allclose(
            mmse_restore(p, obs, np.array([2.0])), [1.0], atol=1e-12
        )

    def test_zero_innovation_returns_mean(self):
        rng = np.random.default_rng(6)
        mu = rng.standard_normal(4)
        p = GmmPrior([1.0], [mu], [np.asarray(0.5)])
        for H in (Identity(4), CoordinateMask(4, [0, 2]), FoldDownsample(4, 2)):
            obs = ObservationModel(H, 0.9)
            np.testing.assert_allclose(
                mmse_restore(p, obs, H.apply(mu)), mu, atol=1e-10
            )

    def test_two_point_mixture_tanh(self):
        p = GmmPrior(
            [0.5, 0.5], [[1.0], [-1.0]], [np.asarray(1e-6), np.asarray(1e-6)]
        )
        obs = ObservationModel(Identity(1), 1.0)
        est = mmse_restore(p, obs, np.array([0.5]))
        np.testing.assert_allclose(est, [np.tanh(0.5)], atol=1e-3)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        p = random_prior(rng, 3, 4)
        obs = ObservationModel(DenseMatrix(rng.standard_normal((2, 3))), 0.6)
        s = rng.standard_normal((20, 2))
        resp = LinearGaussianPosterior(p, obs).responsibilities(s)
        np.testing.assert_allclose(resp.sum(axis=-1), 1.0, atol=1e-12)

    def test_identity_channel_matches_oracle_denoiser(self):
        rng = np.random.default_rng(8)
        p = random_prior(rng, 2, 3)
        obs = ObservationModel(Identity(2), 0.8)
        for _ in range(5):
            s = rng.standard_normal(2) * 1.5
            closed = mmse_restore(p, obs, s)
            brute = oracle_mmse(p, obs, s, QuadratureGrid(301))
            np.testing.assert_allclose(closed, brute, atol=1e-8)

    def test_isotropic_fast_path_matches_dense(self):
        # same prior, isotropic stored two ways: scalar and full matrix
        rng = np.random.default_rng(9)
        mu = rng.standard_normal((2, 3))
        w = [0.3, 0.7]
        iso = GmmPrior(w, mu, [np.asarray(0.5), np.asarray(1.1)])
        dense = GmmPrior(w, mu, [0.5 * np.eye(3), 1.1 * np.eye(3)])
        H = CoordinateMask(3, [0, 2])
        obs = ObservationModel(H, 0.7)
        s = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            mmse_restore(iso, obs, s), mmse_restore(dense, obs, s), atol=1e-10
        )
        np.testing.assert_allclose(
            observation_logpdf(iso, obs, s),
            observation_logpdf(dense, obs, s),
            atol=1e-10,
        )

    def test_posterior_mean_beats_perturbations(self):
        # variational check: the posterior mean minimizes posterior expected
        # squared error, evaluated by the quadrature oracle
        rng = np.random.default_rng(10)
        p = random_prior(rng, 2, 2)
        obs = ObservationModel(DenseMatrix(rng.standard_normal((2, 2))), 0.8)
        s = rng.standard_normal(2)
        m_star = mmse_restore(p, obs, s)

        from srp.oracle import _log_noise_kernel, _prior_logpdf, _trapezoid_nodes

        X, w = _trapezoid_nodes(p, QuadratureGrid(201))
        HX = obs.H.apply(X)
        logk = _log_noise_kernel(s[None, :], HX, obs.sigma)[0]
        log_post = logk + _prior_logpdf(p, X) + np.log(w)
        post = np.exp(log_post - np.max(log_post))
        post /= post.sum()

        def expected_sq_error(m):
            return float(post @ np.sum((X - m) ** 2, axis=1))

        base = expected_sq_error(m_star)
        for _ in range(50):
            perturbed = m_star + 0.1 * rng.standard_normal(2)
            assert expected_sq_error(perturbed) >= base


class TestResponsibilityScale:
    """Tied components share the posterior mass at any observation scale."""

    @pytest.mark.parametrize("s", [1e17, 1e150])
    def test_tied_components_split_evenly(self, s):
        p = GmmPrior([0.5, 0.5], [[0.0], [0.0]], [np.asarray(1.0)] * 2)
        post = LinearGaussianPosterior(p, ObservationModel(Identity(1), 1.0))
        np.testing.assert_array_equal(post.responsibilities(np.array([s])), [0.5, 0.5])
        np.testing.assert_allclose(post.posterior_mean(np.array([s])), [s / 2],
                                   rtol=4 * np.finfo(float).eps)

    def test_all_infinite_logliks_stay_nan(self):
        # s² overflows, so every log-likelihood is -inf; the solver's
        # divergence check, not the posterior, stops such a run
        p = GmmPrior([0.5, 0.5], [[0.0], [0.0]], [np.asarray(1.0)] * 2)
        post = LinearGaussianPosterior(p, ObservationModel(Identity(1), 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isnan(post.responsibilities(np.array([1e155]))))


class TestObservationScore:
    def test_worked_example(self):
        p = standard_normal_prior()
        obs = ObservationModel(Identity(1), 1.0)
        np.testing.assert_allclose(
            observation_score(p, obs, np.array([2.0])), [-1.0], atol=1e-12
        )

    def test_score_vanishes_at_mode(self):
        p = GmmPrior([1.0], [[0.7, -0.3]], [np.asarray(0.9)])
        obs = ObservationModel(Identity(2), 1.0)
        s = obs.H.apply(p.means[0])
        np.testing.assert_allclose(observation_score(p, obs, s), 0.0, atol=1e-12)

    def test_matches_finite_difference(self):
        # the identity that makes restoration residuals into gradients
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 4))
            p = random_prior(rng, n, k, full=bool(rng.integers(0, 2)))
            kind = rng.integers(0, 3)
            if kind == 0:
                H = Identity(n)
            elif kind == 1:
                H = DenseMatrix(rng.standard_normal((n, n)))
            else:
                H = CoordinateMask(n, rng.choice(n, size=max(1, n // 2), replace=False))
            obs = ObservationModel(H, rng.uniform(0.5, 1.5))
            s = H.apply(p.sample(rng)) + obs.sigma * rng.standard_normal(n)
            score = observation_score(p, obs, s)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1e-5
                fd[i] = (
                    observation_logpdf(p, obs, s + e)
                    - observation_logpdf(p, obs, s - e)
                ) / 2e-5
            gap = float(np.max(np.abs(score - fd)))
            tol = max(1e-6, 1e-4 * float(np.max(np.abs(score))))
            assert gap < tol, f"trial {trial}: gap {gap}"
            worst = max(worst, gap)
        assert worst < 1e-6


# Contract of the posterior fast path against the per-component reference:
# bit-identical for one component and for non-isotropic priors; isotropic
# mixtures fold K adjoints into one, which reorders a sum.
FOLD_RTOL = 1e-13


def reference_posterior_mean(post, s):
    """Per-component form: sum-normalized responsibilities, K adjoints."""
    logp = post.component_loglik(s) + post.log_w
    e = np.exp(logp - np.max(logp, axis=-1, keepdims=True))
    resp = e / np.sum(e, axis=-1, keepdims=True)
    H, prior = post.obs.H, post.prior
    mean = np.zeros(s.shape[:-1] + (prior.dim,))
    for k in range(prior.n_components):
        r = s - H.apply(prior.means[k])
        if prior.is_isotropic:
            c = float(prior.covariances[k])
            shift = c * H.adjoint_apply(H.innovation_solve(c, post.sigma2, r))
        else:
            shift = post._solve(k, r) @ (prior.cov_matrix(k) @ H.to_dense().T).T
        mean += resp[..., k, None] * (prior.means[k] + shift)
    return mean


def _assert_same_bits(got, want):
    """Equal arrays, bit for bit: signed zeros must match too."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _fast_path_operators():
    n = 16
    kernel = np.zeros(n)
    kernel[[0, 1, -1]] = [0.5, 0.25, 0.25]
    rng = np.random.default_rng(13)
    return {
        "coordinate-mask": CoordinateMask(n, [0, 3, 4, 9, 15]),
        "masked-fourier": masked_fourier((4, 2), uniform_row_mask(4, 2, acs_lines=2)),
        "blur-fold": Composition([CircularConvolution(n, kernel), FoldDownsample(n, 4)]),
        "convex-combo": ConvexCombination(0.6, CircularConvolution(n, kernel)),
        "dense-matrix": DenseMatrix(rng.standard_normal((10, n))),
    }


def _fast_path_priors(rng, n):
    means = rng.standard_normal((3, n))
    return {
        "single": GmmPrior([1.0], means[:1], [np.asarray(0.7)]),
        "isotropic": GmmPrior([0.2, 0.5, 0.3], means, [np.asarray(v) for v in (0.4, 0.9, 1.3)]),
        "diagonal": GmmPrior([0.2, 0.5, 0.3], means,
                             [rng.uniform(0.4, 1.2, size=n) for _ in range(3)]),
        "single-full": GmmPrior([1.0], means[:1], [np.diag(rng.uniform(0.4, 1.2, size=n))]),
    }


FAST_PATH_CASES = [(op, pr) for op in _fast_path_operators()
                   for pr in ("single", "isotropic", "diagonal", "single-full")]


class TestPosteriorFastPath:
    def _setup(self, op_name, prior_name):
        H = _fast_path_operators()[op_name]
        rng = np.random.default_rng(14)
        prior = _fast_path_priors(rng, H.in_dim)[prior_name]
        post = LinearGaussianPosterior(prior, ObservationModel(H, 0.6))
        # a few rows near each component mean so responsibilities are mixed
        x = prior.means[rng.integers(0, prior.n_components, size=40)]
        s = H.apply(x + 0.5 * rng.standard_normal(x.shape))
        return post, s

    @pytest.mark.parametrize("op_name,prior_name", FAST_PATH_CASES)
    def test_matches_reference(self, op_name, prior_name):
        post, s = self._setup(op_name, prior_name)
        got = post.posterior_mean(s)
        expected = reference_posterior_mean(post, s)
        if post.prior.n_components > 1 and post.prior.is_isotropic:
            np.testing.assert_allclose(got, expected, rtol=FOLD_RTOL,
                                       atol=FOLD_RTOL * np.abs(expected).max())
        else:
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op_name,prior_name", FAST_PATH_CASES)
    def test_batch_matches_rows(self, op_name, prior_name):
        post, s = self._setup(op_name, prior_name)
        batch = post.posterior_mean(s)
        rows = np.stack([post.posterior_mean(row) for row in s])
        np.testing.assert_allclose(batch, rows, rtol=FOLD_RTOL,
                                   atol=FOLD_RTOL * np.abs(rows).max())

    @pytest.mark.parametrize("op_name,prior_name", FAST_PATH_CASES)
    def test_in_place_steps_match_the_allocating_form(self, op_name, prior_name):
        # the responsibilities and the isotropic fold run in place; the
        # allocating expressions they replaced are the reference, bit for
        # bit, also on far rows where some responsibilities underflow to 0
        post, s = self._setup(op_name, prior_name)
        s = np.vstack([s, 1e3 * s[:5]])
        logp = post.component_loglik(s) + post.log_w
        e = np.exp(logp - np.max(logp, axis=-1, keepdims=True))
        resp = e / np.sum(e, axis=-1, keepdims=True)
        assert np.any(resp == 0.0) == (post.prior.n_components > 1)
        _assert_same_bits(post.responsibilities(s), resp)
        if prior_name == "isotropic":
            z = post._innovations(s)[1]
            acc = sum((c * resp[..., k, None]) * z[..., k, :]
                      for k, c in enumerate(post._cvals))
            want = resp @ post.prior.means + post.obs.H.adjoint_apply(acc)
            _assert_same_bits(post.posterior_mean(s), want)

    @pytest.mark.parametrize("op_name", ["coordinate-mask", "masked-fourier", "blur-fold",
                                         "convex-combo"])
    def test_denominator_built_once_per_posterior(self, op_name):
        # an isotropic posterior solves against one column c: its operator
        # holds one denominator for it, built by the first solve
        post, s = self._setup(op_name, "isotropic")
        H = post.obs.H
        assert not H._denominators
        first = post.posterior_mean(s)
        (denom,) = H._denominators.values()
        for _ in range(2):
            np.testing.assert_array_equal(post.posterior_mean(s), first)
            assert list(H._denominators.values()) == [denom]
            assert H._denominators[next(iter(H._denominators))] is denom
        other = LinearGaussianPosterior(post.prior, ObservationModel(H, 0.9))
        other.posterior_mean(s)
        assert len(H._denominators) == 2  # a second σ², a second denominator
        assert not H._innovation_cache

    def test_blur_fold_builds_no_dense_form(self):
        # f | n makes the member's innovation system circulant: a silent
        # fallback to the dense Cholesky path fails here
        post, s = self._setup("blur-fold", "isotropic")
        post.posterior_mean(s)
        post.logpdf(s)
        H = post.obs.H
        assert H.in_dim % H.stages[-1].factor == 0
        assert H._dense is None
        assert not H._innovation_cache

    @pytest.mark.parametrize("op_name,prior_name", FAST_PATH_CASES)
    def test_one_solve_per_component(self, op_name, prior_name):
        # isotropic mixtures solve all K systems in one batched call on H;
        # other priors solve component by component on their whitened operators
        post, s = self._setup(op_name, prior_name)
        H, calls = post.obs.H, {"solve": 0, "innovation_solve": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        post._solve = counted("solve", post._solve)
        H.innovation_solve = counted("innovation_solve", H.innovation_solve)
        H._adjoint = counted("adjoint", H._adjoint)  # the posterior calls the core
        post.posterior_mean(s)
        k, iso = post.prior.n_components, post.prior.is_isotropic
        assert calls["solve"] == (1 if k == 1 else 0 if iso else k)
        assert calls["innovation_solve"] == (1 if iso else 0)
        assert calls["adjoint"] == (1 if iso else 0)

    @pytest.mark.parametrize("sigma", [0.6, 0.05])
    @pytest.mark.parametrize("shape", ["rows", "single", "grid"])
    @pytest.mark.parametrize("op_name,prior_name", FAST_PATH_CASES)
    def test_bit_identical_to_per_component_loop(self, op_name, prior_name, shape, sigma):
        post, s = self._setup(op_name, prior_name)
        post = LinearGaussianPosterior(post.prior, ObservationModel(post.obs.H, sigma))
        s = {"rows": s, "single": s[0], "grid": s[:6].reshape(2, 3, -1)}[shape]
        loglik, mean = per_component_reference(post, s)
        np.testing.assert_array_equal(post.component_loglik(s), loglik)
        np.testing.assert_array_equal(post.posterior_mean(s), mean)


def per_component_reference(post, s):
    """Log-likelihoods and posterior mean with one scalar solve per component,
    in the fast path's summation order (one folded adjoint when isotropic)."""
    H, prior = post.obs.H, post.prior
    count = prior.n_components
    logliks, zs = [], []
    for k in range(count):
        r = s - H.apply(prior.means[k])
        if prior.is_isotropic:
            z = H.innovation_solve(float(prior.covariances[k]), post.sigma2, r)
        else:
            z = post._solve(k, r)
        logliks.append(-0.5 * (np.sum(r * z, axis=-1) + post._logdets[k]
                               + H.out_dim * np.log(2.0 * np.pi)))
        zs.append(z)
    loglik = np.stack(logliks, axis=-1)

    def shift(k):
        if prior.is_isotropic:
            return float(prior.covariances[k]) * H.adjoint_apply(zs[k])
        return zs[k] @ (prior.cov_matrix(k) @ H.to_dense().T).T

    if count == 1:
        return loglik, prior.means[0] + shift(0)
    logp = loglik + post.log_w
    e = np.exp(logp - np.max(logp, axis=-1, keepdims=True))
    resp = e / np.sum(e, axis=-1, keepdims=True)
    if prior.is_isotropic:
        acc = sum((float(prior.covariances[k]) * resp[..., k, None]) * zs[k]
                  for k in range(count))
        return loglik, resp @ prior.means + H.adjoint_apply(acc)
    mean = np.zeros(s.shape[:-1] + (prior.dim,))
    for k in range(count):
        mean += resp[..., k, None] * (prior.means[k] + shift(k))
    return loglik, mean


# Two equal rows make H Hᵀ singular. With unit isotropic covariance and
# sigma = 1e-8 the second Cholesky pivot is (1 + 1e-16) - 1, exactly zero,
# until the 1e-12 jitter; scaled by 1e4 it is (1e8 + 1e-10) - 1e8, still
# exactly zero after the last (1e-10) jitter.
RANK_DEFICIENT = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestInnovationJitter:
    """Every dense innovation factorization climbs the jitter ladder."""

    @pytest.mark.parametrize("cov", [np.asarray(1.0), np.array([1.0, 2.0]),
                                     np.array([[1.0, 0.2], [0.2, 1.0]])],
                             ids=["isotropic", "diagonal", "full"])
    def test_rank_deficient_member_factors(self, cov):
        prior = GmmPrior([1.0], [np.zeros(2)], [cov])
        post = LinearGaussianPosterior(
            prior, ObservationModel(DenseMatrix(RANK_DEFICIENT), 1e-8))
        x = np.array([0.3, -0.7])
        assert np.all(np.isfinite(post._logdets))
        np.testing.assert_allclose(post.posterior_mean(RANK_DEFICIENT @ x), x,
                                   atol=1e-6)

    def test_beyond_the_ladder_raises(self):
        H = DenseMatrix(1e4 * RANK_DEFICIENT)
        with pytest.raises(FactorizationError, match="not positive definite"):
            LinearGaussianPosterior(standard_normal_prior(2), ObservationModel(H, 1e-8))


@st.composite
def non_isotropic_posteriors(draw):
    """A posterior whose components have diagonal or full covariances."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(
        ["identity", "coordinate-mask", "blur-fold", "dense", "rank-deficient"]))
    if kind == "identity":
        H = Identity(n)
    elif kind == "coordinate-mask":
        H = CoordinateMask(n, np.flatnonzero(rng.random(n) < 0.5))
    elif kind == "blur-fold":
        H = Composition([CircularConvolution(n, rng.standard_normal(draw(st.integers(1, n)))),
                         FoldDownsample(n, draw(st.integers(1, 4)))])
    else:
        rows = rng.standard_normal((draw(st.integers(1, 6)), n))
        H = DenseMatrix(np.vstack([rows, rows]) if kind == "rank-deficient" else rows)
    covs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            covs.append(rng.uniform(0.3, 1.5, size=n))
        else:
            a = 0.5 * rng.standard_normal((n, n))
            covs.append(a @ a.T + rng.uniform(0.2, 1.0) * np.eye(n))
    weights = rng.dirichlet(np.ones(len(covs)))
    prior = GmmPrior(weights / weights.sum(), rng.standard_normal((len(covs), n)), covs)
    sigma = draw(st.floats(0.2, 1.5))
    return LinearGaussianPosterior(prior, ObservationModel(H, sigma)), rng


class TestNonIsotropicInnovationProperties:
    @given(non_isotropic_posteriors())
    def test_component_systems_match_dense(self, case):
        post, rng = case
        H, prior = post.obs.H, post.prior
        assert not prior.is_isotropic
        hd = H.to_dense()
        for k in range(prior.n_components):
            s_mat = hd @ prior.cov_matrix(k) @ hd.T + post.sigma2 * np.eye(H.out_dim)
            r = rng.standard_normal(H.out_dim)
            np.testing.assert_allclose(post._solve(k, r), np.linalg.solve(s_mat, r),
                                       atol=1e-9)
            np.testing.assert_allclose(post._logdets[k], np.linalg.slogdet(s_mat)[1],
                                       atol=1e-9)
            assert (1.0, post.sigma2) in post._ops[k]._innovation_cache
