"""Unit tests for the variance-inference toolkit."""

import gc
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp

from betsim.errors import ConvergenceError
from betsim.inference import (
    EXPONENTIAL,
    GAUSSIAN_KNOWN_MEAN,
    LIKELIHOOD_KINDS,
    MAX_NODES,
    DataSet,
    InvGammaParams,
    ModelSpec,
    conjugate_variance_posterior,
    exponential_loglik,
    gaussian_variance_loglik,
    log_evidence,
    model_posteriors,
    _NODE_TABLES,
    _SCAN,
    _TABLED_NODES,
    _invgamma_log_density,
    _logsumexp,
    _node_table,
    _prior_quantiles,
    select_model,
)
import oracle
from oracle import closed_form_log_evidence


def _dataset(seed=0, n=30, mu=0.4, sigma=1.2):
    x = np.random.default_rng(seed).normal(mu, sigma, n)
    return DataSet(x, mu=mu)


# ---------------------------------------------------------------------------
# data container and parameters

def test_dataset_squared_deviation_sum():
    x = np.array([1.0, 2.0, 4.0])
    data = DataSet(x, mu=2.0)
    assert data.n == 3
    assert data.squared_deviation_sum() == pytest.approx(1.0 + 0.0 + 4.0)


@pytest.mark.parametrize("samples, mu, match", [
    (np.ones((2, 2)), 0.0, "one-dimensional"),
    ([0.5, np.nan], 0.0, "finite"),
    ([0.5, 1.0], np.inf, "mu must be finite"),
])
def test_dataset_rejects_what_no_likelihood_reads(samples, mu, match):
    with pytest.raises(ValueError, match=match):
        DataSet(samples, mu=mu)


def _sample_cases():
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 1000, 100_003):
        x = rng.exponential(0.8, n)
        for mu in (0.0, 0.37, -2.5):
            yield x, mu
    yield rng.normal(0.0, 1.0, 30_001)[::3], 0.1  # a strided view


def test_dataset_statistics_equal_direct_sums():
    for x, mu in _sample_cases():
        data = DataSet(x, mu=mu)
        assert data.n == x.size
        assert data.squared_deviation_sum() == float((x - mu) @ (x - mu))
        assert data.sample_sum() == float(x.sum())


def test_likelihoods_equal_closed_forms_on_the_sums():
    theta = np.geomspace(1e-3, 1e3, 41)
    for x, mu in _sample_cases():
        data = DataSet(np.abs(x), mu=mu)
        n, s, total = data.n, data.squared_deviation_sum(), data.sample_sum()
        gauss = -0.5 * n * np.log(2.0 * np.pi * theta) - s / (2.0 * theta)
        assert np.array_equal(gaussian_variance_loglik(data, theta), gauss)
        assert np.array_equal(exponential_loglik(data, theta), n * np.log(theta) - theta * total)


def test_dataset_keeps_no_copy_of_the_samples():
    x = np.random.default_rng(6).normal(0.0, 1.0, 10**6)
    tracemalloc.start()
    try:
        data = DataSet(x, mu=0.2)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.n == 10**6
    assert retained < 1024


def test_dataset_at_zero_mean_reads_the_samples_in_place():
    # x - 0.0 is x, so S needs no n-sized copy of the samples
    x = np.random.default_rng(7).normal(0.0, 1.0, 10**6)
    tracemalloc.start()
    try:
        data = DataSet(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2
    assert data.squared_deviation_sum() == float(x @ x)
    assert data.sample_sum() == float(x.sum())
    # BLAS may sum a strided view in another order than a contiguous copy
    # (numpy 2.4.6's OpenBLAS does): S stays the copy's sum
    y = x[::3]
    assert DataSet(y).squared_deviation_sum() == float((y - 0.0) @ (y - 0.0))


def test_invgamma_params_validation():
    with pytest.raises(ValueError):
        InvGammaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        InvGammaParams(1.0, -2.0)


def test_invgamma_log_density_matches_reference():
    x = np.geomspace(0.01, 50, 200)
    got = _invgamma_log_density(3.2, 1.7)(x)
    expect = stats.invgamma(3.2, scale=1.7).logpdf(x)
    assert np.allclose(got, expect, atol=1e-12)


def test_nan_parameters_are_rejected():
    # NaN passes a <= 0 check: a NaN rel_tol refined to MAX_NODES first
    for alpha, beta in ((math.nan, 2.0), (2.0, math.nan)):
        with pytest.raises(ValueError, match="alpha and beta must be positive"):
            InvGammaParams(alpha, beta)
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN,
                  prior=InvGammaParams(3.0, 2.0), rel_tol=math.nan)
    # a conjugate update can reach an infinite scale
    assert InvGammaParams(2.0, math.inf).beta == math.inf


# ---------------------------------------------------------------------------
# likelihoods

def test_gaussian_loglik_matches_reference():
    x = np.random.default_rng(0).normal(0.4, 1.2, 30)
    data = DataSet(x, mu=0.4)
    for s2 in (0.3, 1.0, 4.7):
        expect = float(stats.norm(data.mu, math.sqrt(s2)).logpdf(x).sum())
        assert gaussian_variance_loglik(data, s2) == pytest.approx(expect)


def test_gaussian_loglik_array_and_validation():
    data = _dataset()
    out = gaussian_variance_loglik(data, np.array([0.5, 1.5]))
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        gaussian_variance_loglik(data, 0.0)


def test_exponential_loglik_matches_reference():
    x = np.random.default_rng(3).exponential(0.7, 25)
    data = DataSet(x)
    for theta in (0.5, 1.0, 3.0):
        expect = float(stats.expon(scale=1.0 / theta).logpdf(x).sum())
        assert exponential_loglik(data, theta) == pytest.approx(expect)


def test_exponential_loglik_requires_positive_samples():
    data = DataSet(np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="strictly positive"):
        exponential_loglik(data, 1.0)
    with pytest.raises(ValueError, match="theta"):
        exponential_loglik(DataSet(np.array([0.5])), 0.0)


# ---------------------------------------------------------------------------
# conjugate updating

def test_conjugate_update_formula():
    data = _dataset(n=12)
    prior = InvGammaParams(3.0, 2.0)
    post = conjugate_variance_posterior(prior, data)
    assert post.alpha == pytest.approx(3.0 + 6.0)
    assert post.beta == pytest.approx(2.0 + data.squared_deviation_sum() / 2.0)


@settings(max_examples=50)
@given(
    first=st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=0, max_size=15),
    second=st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=0, max_size=15),
    alpha=st.floats(0.5, 8.0),
    beta=st.floats(0.5, 8.0),
)
def test_conjugate_update_composes(first, second, alpha, beta):
    """Updating on a batch equals updating on its parts in sequence."""
    mu = 0.25
    prior = InvGammaParams(alpha, beta)
    joint = conjugate_variance_posterior(prior, DataSet(first + second, mu=mu))
    staged = conjugate_variance_posterior(
        conjugate_variance_posterior(prior, DataSet(first, mu=mu)),
        DataSet(second, mu=mu),
    )
    assert joint.alpha == pytest.approx(staged.alpha, rel=1e-12)
    assert joint.beta == pytest.approx(staged.beta, rel=1e-9)


def test_posterior_concentrates_on_truth():
    sigma2 = 2.25
    x = np.random.default_rng(8).normal(0.0, math.sqrt(sigma2), 4000)
    post = conjugate_variance_posterior(InvGammaParams(3.0, 2.0), DataSet(x, mu=0.0))
    post_mean = post.beta / (post.alpha - 1.0)
    assert post_mean == pytest.approx(sigma2, rel=0.1)


# ---------------------------------------------------------------------------
# evidence quadrature

def test_log_evidence_gaussian_matches_closed_form():
    data = _dataset(seed=2, n=17)
    prior = InvGammaParams(2.5, 1.5)
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    assert log_evidence(spec, data) == pytest.approx(
        closed_form_log_evidence(data, prior), abs=1e-8
    )


@pytest.mark.parametrize("alpha", [1e-3, 1e-10])
def test_log_evidence_small_prior_shape_matches_closed_form(alpha):
    # the prior's upper quantile is past the float range for these shapes
    data = _dataset(seed=2, n=50)
    prior = InvGammaParams(alpha, 2.0)
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    assert log_evidence(spec, data) == pytest.approx(
        closed_form_log_evidence(data, prior), abs=1e-8
    )


@pytest.mark.parametrize("beta", [1e-10, 1e-30, 1e-60, 1e-100])
def test_log_evidence_small_prior_scale_matches_closed_form(beta):
    # on the prior's own range the integrand is about -1e28 nats at
    # beta = 1e-30, where gmax - 46 rounds back to gmax: the domain scan
    # must compare differences
    data = _dataset(seed=2, n=50, mu=0.0, sigma=1.0)
    prior = InvGammaParams(3.0, beta)
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    assert log_evidence(spec, data) == pytest.approx(
        closed_form_log_evidence(data, prior), rel=1e-6
    )


def test_log_evidence_exponential_matches_quadrature():
    x = np.random.default_rng(4).exponential(0.9, 20)
    data = DataSet(x)
    prior = InvGammaParams(3.0, 2.0)
    spec = ModelSpec(id="e", likelihood_kind=EXPONENTIAL, prior=prior)
    got = log_evidence(spec, data)

    # independent oracle: adaptive quadrature on the shifted integrand
    shift = got
    def integrand(theta):
        return math.exp(
            exponential_loglik(data, theta)
            + stats.invgamma(prior.alpha, scale=prior.beta).logpdf(theta)
            - shift
        )
    total, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    assert math.log(total) + shift == pytest.approx(got, abs=1e-7)


def test_log_evidence_empty_dataset_is_zero():
    spec = ModelSpec(
        id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(2.0, 2.0)
    )
    assert log_evidence(spec, DataSet(np.array([]))) == 0.0


def test_log_evidence_stops_before_the_node_cap():
    # a prior far narrower than the likelihood: the estimate jitters in its
    # last bits, so no rel_tol this small is met, and the doubling stops
    # at the cap instead of heading for billions of nodes
    spec = ModelSpec(
        id="g",
        likelihood_kind=GAUSSIAN_KNOWN_MEAN,
        prior=InvGammaParams(1e6, 1e6),
        rel_tol=1e-300,
    )
    with pytest.raises(ConvergenceError, match=f"after 13 doublings \\({MAX_NODES} nodes") as err:
        log_evidence(spec, _dataset(n=50))
    est = err.value.estimates
    assert est is not None and len(est) == 2
    older, newer = est
    assert math.isfinite(older) and math.isfinite(newer) and older != newer


@pytest.mark.parametrize(
    "alpha, beta, match",
    [
        (3.0, 1e308, "domain .* is not finite"),
        (1e200, 2.0, "first estimate is -inf"),
        (1e300, 1e-100, r"upper quantile underflows to 0, so the domain \[1e-300, 0.0\] is empty"),
    ],
    ids=["upper-quantile-overflows", "prior-far-below-the-likelihood", "upper-quantile-underflows"],
)
def test_log_evidence_without_a_finite_start_fails_at_once(alpha, beta, match):
    # with the default 24 doublings a non-finite grid would be refined
    # up to 2.1e9 nodes before ConvergenceError
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(alpha, beta))
    with pytest.raises(ConvergenceError, match=match):
        log_evidence(spec, _dataset(n=50))


@pytest.mark.parametrize("beta", [1e-200, 1e-300])
def test_log_evidence_fails_when_the_domain_scan_cannot_reach_the_peak(beta):
    # the prior's quantiles sit near beta, the likelihood peaks near 1, and
    # 200 rounds of 8x widening reach only a factor 8**200 = 1e180
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(3.0, beta))
    with pytest.raises(ConvergenceError, match="peak at an edge after 200 rounds"):
        log_evidence(spec, _dataset(n=50))


@pytest.mark.parametrize(
    "alpha, beta, match",
    [
        (1e300, 1e-100, "the prior's upper quantile underflows to 0"),
        (3.0, 1e308, r"the integration domain \[.*, inf\] is not finite"),
    ],
    ids=["empty-domain", "infinite-domain"],
)
def test_cached_prior_range_errors_name_each_model(alpha, beta, match):
    # the quantiles are cached on the prior alone, and each model's error
    # still names that model, whichever model filled the cache
    prior = InvGammaParams(alpha, beta)
    data = DataSet(np.random.default_rng(4).exponential(1.0, 50))
    _prior_quantiles.cache_clear()
    for model_id, kind in [("first", GAUSSIAN_KNOWN_MEAN), ("second", EXPONENTIAL),
                           ("first", EXPONENTIAL)]:
        spec = ModelSpec(id=model_id, likelihood_kind=kind, prior=prior)
        with pytest.raises(ConvergenceError, match=f"for model '{model_id}': {match}"):
            log_evidence(spec, data)
    assert _prior_quantiles.cache_info()[:2] == (2, 1)  # hits, misses


def _outcome(evidence, spec, data):
    """The float an evidence returns, or its error's type, text and estimates."""
    try:
        return repr(evidence(spec, data))
    except (ConvergenceError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "estimates", None)


def _powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(LIKELIHOOD_KINDS),
    n=st.one_of(st.integers(1, 300), st.sampled_from([1000, 10**4, 10**5, 600_000])),
    scale=_powers_of_ten(-3, 3),
    signed=st.booleans(),
    alpha=_powers_of_ten(-10, 200),
    beta=_powers_of_ten(-10, 200),
    rel_tol=_powers_of_ten(-12, -0.5),
)
@example(kind=GAUSSIAN_KNOWN_MEAN, n=50, scale=1.0, signed=True, alpha=1e6, beta=1e6, rel_tol=1e-300)
@example(kind=GAUSSIAN_KNOWN_MEAN, n=50, scale=1.0, signed=True, alpha=3.0, beta=1e-200, rel_tol=1e-8)
@example(kind=GAUSSIAN_KNOWN_MEAN, n=50, scale=1.0, signed=True, alpha=1e200, beta=2.0, rel_tol=1e-8)
@example(kind=EXPONENTIAL, n=50, scale=1.0, signed=False, alpha=3.0, beta=1e308, rel_tol=1e-8)
@example(kind=EXPONENTIAL, n=50, scale=1.0, signed=False, alpha=1e300, beta=1e-100, rel_tol=1e-8)
@example(kind=EXPONENTIAL, n=600_000, scale=0.8, signed=False, alpha=3.0, beta=2.0, rel_tol=1e-8)
def test_log_evidence_is_bit_equal_to_the_fresh_grid_quadrature(
    kind, n, scale, signed, alpha, beta, rel_tol
):
    # the examples: the node cap, a scan that cannot reach the peak, a
    # non-finite first estimate, an infinite domain, an upper quantile
    # that underflows to 0 (an empty domain), and n = 6e5
    signed = signed and kind == GAUSSIAN_KNOWN_MEAN  # exponential samples are positive
    rng = np.random.default_rng([n, int(signed)])
    x = scale * (rng.normal(0.0, 1.0, n) if signed else rng.exponential(1.0, n))
    data = DataSet(x)
    spec = ModelSpec(id="m", likelihood_kind=kind, prior=InvGammaParams(alpha, beta), rel_tol=rel_tol)
    assert _outcome(log_evidence, spec, data) == _outcome(oracle.log_evidence, spec, data)


# the property's examples, an evidence of 1e4 samples under InvGamma(3, 2)
# for each likelihood, and signed samples the exponential likelihood refuses
_TABLE_CASES = [
    (GAUSSIAN_KNOWN_MEAN, 50, 1.0, True, 1e6, 1e6, 1e-300),
    (GAUSSIAN_KNOWN_MEAN, 50, 1.0, True, 3.0, 1e-200, 1e-8),
    (GAUSSIAN_KNOWN_MEAN, 50, 1.0, True, 1e200, 2.0, 1e-8),
    (EXPONENTIAL, 50, 1.0, False, 3.0, 1e308, 1e-8),
    (EXPONENTIAL, 50, 1.0, False, 1e300, 1e-100, 1e-8),
    (EXPONENTIAL, 600_000, 0.8, False, 3.0, 2.0, 1e-8),
    (GAUSSIAN_KNOWN_MEAN, 10**4, 0.8, False, 3.0, 2.0, 1e-8),
    (EXPONENTIAL, 10**4, 0.8, False, 3.0, 2.0, 1e-8),
    (EXPONENTIAL, 50, 1.0, True, 3.0, 2.0, 1e-8),
]


@pytest.mark.parametrize("kind, n, scale, signed, alpha, beta, rel_tol", _TABLE_CASES)
def test_log_evidence_on_cold_and_warm_tables_equals_the_fresh_grid_quadrature(
    kind, n, scale, signed, alpha, beta, rel_tol
):
    rng = np.random.default_rng([n, int(signed)])
    x = scale * (rng.normal(0.0, 1.0, n) if signed else rng.exponential(1.0, n))
    data = DataSet(x)
    spec = ModelSpec(id="m", likelihood_kind=kind, prior=InvGammaParams(alpha, beta), rel_tol=rel_tol)
    want = _outcome(oracle.log_evidence, spec, data)
    _node_table.cache_clear()
    assert _outcome(log_evidence, spec, data) == want  # cold
    assert _outcome(log_evidence, spec, data) == want  # warm


def test_model_posteriors_on_shared_tables_equal_cold_evidences():
    prior = InvGammaParams(3.0, 2.0)
    gauss = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    expo = ModelSpec(id="e", likelihood_kind=EXPONENTIAL, prior=prior)
    data = DataSet(np.random.default_rng(9).exponential(0.8, 10**4))

    def cold(spec):
        _node_table.cache_clear()
        return log_evidence(spec, data)

    want = {spec.id: repr(cold(spec)) for spec in (gauss, expo)}
    for models in ([gauss, expo], [expo, gauss]):
        _node_table.cache_clear()
        for _ in range(2):
            posts = model_posteriors(models, [0.5, 0.5], data)
            assert [repr(p.log_evidence) for p in posts] == [want[m.id] for m in models]
    assert _node_table.cache_info().hits > 0


def test_threads_sharing_the_node_tables_get_the_cold_evidences():
    # four threads, and more tables than the cache holds, so entries are
    # evicted and rebuilt while other threads read them
    data = DataSet(np.random.default_rng(10).exponential(0.8, 1000))
    specs = [
        ModelSpec(id=f"{kind}-{alpha}", likelihood_kind=kind, prior=InvGammaParams(alpha, 2.0))
        for kind in LIKELIHOOD_KINDS
        for alpha in (1.5, 2.0, 3.0, 4.5, 7.0, 11.0)
    ]

    def cold(spec):
        _node_table.cache_clear()
        return repr(log_evidence(spec, data))

    want = [cold(spec) for spec in specs]
    got, errors = {}, []

    def work(k):
        try:
            for rep in range(3):
                for i in np.random.default_rng([k, rep]).permutation(len(specs)):
                    got[k, rep, int(i)] = repr(log_evidence(specs[i], data))
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 4 * 3 * len(specs)
    assert all(value == want[i] for (_, _, i), value in got.items())


def test_node_tables_are_read_only():
    for kind in LIKELIHOOD_KINDS:
        for level in (_SCAN, 0, 3):
            table = _node_table(kind, 3.0, 2.0, 0.0686, 2370.76, level)
            for a in table:
                if a is None:
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0


def test_node_tables_stay_bounded_after_the_node_cap():
    # the climb to MAX_NODES tables its levels of up to 65,537 nodes only,
    # about 3.2 MB as documented; one more level would add 3.1 MB
    spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN,
                     prior=InvGammaParams(1e6, 1e6), rel_tol=1e-300)
    data = _dataset(n=50)
    _node_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        try:
            log_evidence(spec, data)
        except ConvergenceError:
            pass
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _node_table.cache_info().currsize <= _NODE_TABLES
    assert retained < 3.3e6
    # the documented worst case: every entry a level of _TABLED_NODES nodes
    largest = _node_table(GAUSSIAN_KNOWN_MEAN, 1e6, 1e6, 0.5, 2.0, 9)
    assert largest.weights.size == _TABLED_NODES == 65_537
    assert sum(a.nbytes for a in largest) == 1_572_872
    assert _NODE_TABLES * 1_572_872 < 50.4e6


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def test_likelihoods_overflow_to_minus_inf_without_a_warning():
    data = DataSet(np.array([0.5, 1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_variance_loglik(data, 1e308) == -math.inf
        assert exponential_loglik(data, 1e308) == -math.inf


# ---------------------------------------------------------------------------
# log-sum-exp

# weight scales: a grid's own, subnormal (end weights then halve toward
# 0) and negative
_WEIGHT_SCALES = [1.0, 1e-310, 5e-324, -1.0, -3e-320]


def _trapezoid_grids():
    # a log integrand on a uniform grid with trapezoid weights, as
    # log_evidence builds them, from the first grid to past the 32,769
    # nodes of a climb's sixth doubling; clipping the peak makes ties
    # among the interior weights w, and a peak at an end ties it with its
    # neighbours, under the end weight w/2
    @st.composite
    def grid(draw):
        nodes = draw(st.sampled_from([129, 257, 513, 1025, 4097, 16385, 40_001]))
        u = np.linspace(draw(st.floats(-50, 0)), draw(st.floats(0.5, 50)), nodes)
        peak = draw(st.floats(-1e4, 1e4))
        centre = draw(st.one_of(st.floats(-40, 40), st.sampled_from([u[0], u[-1]])))
        a = peak - draw(st.floats(1e-3, 1e4)) * (u - centre) ** 2
        if draw(st.booleans()):
            a = np.minimum(a, a.max() - draw(st.floats(0.0, 1.0)))  # repeated maxima
        w = np.full(nodes, (u[-1] - u[0]) / (nodes - 1) * draw(st.sampled_from(_WEIGHT_SCALES)))
        w[0] *= 0.5
        w[-1] *= 0.5
        return a, w
    return grid()


def _lists_with_special_entries():
    entries = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([-math.inf, math.inf, math.nan, 0.0, 1e308, -1e308]),
    )
    weights = st.one_of(
        st.floats(-2.0, 2.0),
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-310, math.inf, math.nan]),
    )

    @st.composite
    def case(draw):
        a = np.array(draw(st.lists(entries, min_size=1, max_size=40)))
        if draw(st.booleans()):
            a[: draw(st.integers(1, a.size))] = a.max()  # repeated maxima, leading
        if draw(st.booleans()):
            a[draw(st.lists(st.integers(0, a.size - 1), max_size=12))] = a.max()  # scattered
        if not draw(st.booleans()):
            return a, None
        return a, np.array(draw(st.lists(weights, min_size=a.size, max_size=a.size)))
    return case()


def _zero_prior_posteriors():
    # model_posteriors' log posteriors when one of two models has prior 0
    return st.builds(
        lambda x, first: (np.array([x, -math.inf] if first else [-math.inf, x]), None),
        st.floats(-1e6, 1e6),
        st.booleans(),
    )


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(_trapezoid_grids(), _lists_with_special_entries(), _zero_prior_posteriors()))
@example(case=(np.full(5, -math.inf), None))
@example(case=(np.array([-3.5]), None))
@example(case=(np.array([7.25]), np.array([0.5])))
@example(case=(np.array([-1234.5, -math.inf]), None))
@example(case=(np.array([math.inf, 1.0]), np.array([0.0, 1.0])))
@example(case=(np.array([1.0, 1.0, 1.0]), np.array([1.0, -1.0, -0.5])))
# +inf, NaN and -inf at the max, with and without weight
@example(case=(np.array([1.0, math.inf, 2.0]), None))
@example(case=(np.array([1.0, math.inf, math.inf]), np.array([1.0, 1.0, -1.0])))
@example(case=(np.array([2.0, -math.inf, math.inf]), np.array([1.0, 2.0, 0.0])))
@example(case=(np.array([math.nan, 3.0, 1.0]), None))
@example(case=(np.array([1.0, math.nan, 3.0]), np.array([1.0, 0.0, 2.0])))
@example(case=(np.array([-math.inf, -math.inf]), np.array([1.0, -1.0])))
# one maximal entry: of subnormal or negative weight, an inf or NaN weight
# elsewhere, and a zero weight elsewhere, which needs no mask
@example(case=(np.array([0.0, -1.0]), np.array([5e-324, 1.0])))
@example(case=(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 1e-310, 1e-310])))
@example(case=(np.array([2.0, 1.0]), np.array([-1.0, 0.5])))
@example(case=(np.array([2.0, 1.0, 0.5]), np.array([-1.0, 0.75, -0.25])))
@example(case=(np.array([3.0, 1.0]), np.array([1.0, math.inf])))
@example(case=(np.array([3.0, -math.inf]), np.array([1.0, math.nan])))
@example(case=(np.array([3.0, 1.0, 2.0]), np.array([2.0, -0.0, 0.0])))
# a zero weight at the max: scipy masks the entry, and the direct sum
# would be NaN here
@example(case=(np.array([1000.0, 800.0]), np.array([0.0, 1.0])))
# ties at 0, 4 and 8 of 16, which numpy's pairwise sum groups by index
# mod 8: m sums the whole weighted mask, (1e-16 + 1e-16) + 1, where the
# compacted maxima would give (1e-16 + 1) + 1e-16, and the result is log m
@example(case=(np.where((np.arange(16) % 4 == 0) & (np.arange(16) < 9), 0.0, -math.inf),
               np.where(np.arange(16) % 8 == 0, 1e-16, 1.0)))
def test_logsumexp_is_bit_equal_to_scipy(case):
    a, b = case
    with np.errstate(all="ignore"):
        want = logsumexp(a, b=b)
    got = _logsumexp(a, b)
    assert isinstance(got, float)
    assert _bits(got) == _bits(want) or (math.isnan(got) and np.isnan(want)), (got, want)


def test_evidence_never_calls_scipy_logsumexp(monkeypatch):
    import scipy.special

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special.logsumexp was called")

    monkeypatch.setattr(scipy.special, "logsumexp", refuse)
    prior = InvGammaParams(3.0, 2.0)
    gauss = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    expo = ModelSpec(id="e", likelihood_kind=EXPONENTIAL, prior=prior)
    data = DataSet(np.random.default_rng(3).exponential(1.0, 40))
    assert math.isfinite(log_evidence(gauss, data))
    posts = model_posteriors([gauss, expo], [0.5, 0.5], data)
    assert sum(p.posterior_prob for p in posts) == pytest.approx(1.0)
    assert model_posteriors([gauss, expo], [1.0, 0.0], data)[1].posterior_prob == 0.0


# ---------------------------------------------------------------------------
# model comparison

def test_model_posteriors_validation():
    spec = ModelSpec(
        id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(2.0, 2.0)
    )
    data = _dataset()
    with pytest.raises(ValueError, match="at least one model"):
        model_posteriors([], [], data)
    with pytest.raises(ValueError, match="align"):
        model_posteriors([spec], [0.5, 0.5], data)
    with pytest.raises(ValueError, match="nonnegative"):
        model_posteriors([spec, spec], [1.5, -0.5], data)
    with pytest.raises(ValueError, match="sum to 1"):
        model_posteriors([spec, spec], [0.6, 0.6], data)


def test_model_posteriors_zero_prior_allowed():
    spec = ModelSpec(
        id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(2.0, 2.0)
    )
    other = ModelSpec(
        id="h", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=InvGammaParams(3.0, 1.0)
    )
    posts = model_posteriors([spec, other], [1.0, 0.0], _dataset())
    assert posts[0].posterior_prob == pytest.approx(1.0)
    assert posts[1].posterior_prob == 0.0
    assert posts[0].model_id == "g"


def test_select_model_clear_winner_and_tie():
    assert select_model([0.7, 0.2, 0.1]).best == 0
    choice = select_model([0.5, 0.5])
    assert choice.best is None
    assert choice.tied == (0, 1)
    with pytest.raises(ValueError):
        select_model([])
