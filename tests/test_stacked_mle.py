"""The stacked maximum-likelihood loop against per-block oracles, and the
work one reconstruction does.

``oracle_mle`` is the extrapolated R.rho.R cycle of ``mle_reconstruct`` in
dict-of-blocks form: one factor per block, R formed block by block, the
normalization and the factor norms summed over sectors in Python.  The
update rules, the extrapolation, the dilution and the stopping rule are the
same, so both must take the same steps.

``diluted_mle`` is the loop that the extrapolated one replaced, diluted
R.rho.R on the blocks themselves, kept as a likelihood oracle: the new loop
must reach its log-likelihood in no more steps.
"""

import math

import numpy as np
import pytest

from accdm import measurement, tomography
from accdm.measurement import CountTable, simulate_counts
from accdm.schur import _layout, occurring_two_j, su2_multiplicity
from accdm.states import PSD_TOL, AccessibleDensityMatrix
from accdm.tomography import (
    EXTRAPOLATION_CAP,
    LOG_FLOOR,
    START_MIX,
    _clip_and_normalize,
    linear_inversion,
    mle_reconstruct,
)

from conftest import TWELVE_SETTINGS, random_accessible_state, random_settings


def oracle_clip_and_normalize(blocks, n):
    """Per-block positivity clip and normalization; also each block's
    smallest eigenvalue before the clip."""
    clipped, low = {}, {}
    total = 0.0
    for two_j, b in blocks.items():
        vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        low[two_j] = vals[0]
        vals = np.clip(vals, 0.0, None)
        clipped[two_j] = (vecs * vals) @ vecs.conj().T
        total += su2_multiplicity(n, two_j) * vals.sum()
    return {tj: b / total for tj, b in clipped.items()}, low


def mixed_start(data, n):
    try:
        start = linear_inversion(data)
    except ValueError:
        start = AccessibleDensityMatrix.maximally_mixed(n)
    return {tj: (1 - START_MIX) * b + START_MIX * np.eye(tj + 1) / 2 ** n
            for tj, b in start.blocks.items()}


def oracle_factor(blocks):
    factors = {}
    for two_j, b in blocks.items():
        vals, vecs = np.linalg.eigh(b)
        assert vals[0] >= -PSD_TOL
        factors[two_j] = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return factors


def oracle_mle(data, *, max_iters, tol):
    """The dict-of-blocks extrapolated R.rho.R loop; returns (estimate,
    iterations, ll_trace)."""
    model = data.model
    n = data.n
    counts = data.counts.ravel()
    total_counts = counts.sum()

    def gram(factors):
        return {tj: f @ f.conj().T for tj, f in factors.items()}

    def ll_of(p):
        return float(counts @ np.log(np.maximum(p, LOG_FLOOR)))

    def state(factors):
        rho = gram(factors)
        total = sum(su2_multiplicity(n, tj) * b.trace().real for tj, b in rho.items())
        p = model.probabilities(model.layout.theta(rho)) / total
        return {tj: f / math.sqrt(total) for tj, f in factors.items()}, p, ll_of(p)

    def r_step(factors, p):
        weights = counts / np.maximum(p, 1e-15) / max(total_counts, 1.0)
        r_ops = model.layout.blocks(model.operator_theta(weights))
        return state({tj: r_ops[tj] @ f for tj, f in factors.items()})

    def plain(factors, p, ll):
        f1, p1, ll1 = r_step(factors, p)
        if ll1 >= ll:
            return f1, p1, ll1, False
        rho, direction = gram(factors), gram(f1)
        d = 0.5
        while d > 1e-12:
            p_d = (1 - d) * p + d * p1
            ll_d = ll_of(p_d)
            if ll_d >= ll:
                diluted = {tj: (1 - d) * rho[tj] + d * direction[tj] for tj in rho}
                return oracle_factor(diluted), p_d, ll_d, True
            d /= 2
        return None

    def extrapolated(f0, f1, f2, ll2):
        r = {tj: f1[tj] - f0[tj] for tj in f0}
        v = {tj: f2[tj] - 2 * f1[tj] + f0[tj] for tj in f0}
        norm_r = math.sqrt(sum(np.vdot(b, b).real for b in r.values()))
        norm_v = math.sqrt(sum(np.vdot(b, b).real for b in v.values()))
        # one capped try; the cap also stands in for -|r| / |v| at v = 0
        alpha = (-EXTRAPOLATION_CAP if norm_r >= EXTRAPOLATION_CAP * norm_v
                 else -norm_r / norm_v)
        if not alpha < -1 - 1 / 16:
            return None
        point = state({tj: f0[tj] - 2 * alpha * r[tj] + alpha ** 2 * v[tj] for tj in f0})
        return point if point[2] >= ll2 else None

    factors, p, ll = state(oracle_factor(mixed_start(data, n)))
    trace = [ll]
    iterations = 0
    while iterations < max_iters:
        # a cycle: two plain steps, the extrapolated point, a stabilizing step
        iterations += 1
        step = plain(factors, p, ll)
        if step is None:
            break
        f0, gain = factors, step[2] - ll
        factors, p, ll, diluted = step
        trace.append(ll)
        if gain < tol:
            break
        if diluted or iterations == max_iters:
            continue
        iterations += 1
        step = plain(factors, p, ll)
        if step is None:
            break
        f1 = factors
        factors, p, ll, diluted = step
        trace.append(ll)
        if diluted or iterations == max_iters:
            continue
        point = extrapolated(f0, f1, factors, ll)
        if point is None:
            continue
        factors, p, ll = point
        trace.append(ll)
        iterations += 1
        stable = r_step(factors, p)
        if stable[2] >= ll:
            factors, p, ll = stable
            trace.append(ll)
    rho = gram(factors)
    total = sum(su2_multiplicity(n, tj) * b.trace().real for tj, b in rho.items())
    estimate = AccessibleDensityMatrix(n, {tj: b / total for tj, b in rho.items()})
    return estimate, iterations, np.array(trace)


def diluted_mle(data, *, max_iters, tol):
    """The dict-of-blocks diluted R.rho.R loop that the extrapolated one
    replaced; returns (estimate, iterations, ll_trace)."""
    model = data.model
    n = data.n
    blocks = mixed_start(data, n)
    counts = data.counts.ravel()
    total_counts = counts.sum()

    def ll_of(p):
        return float((counts * np.log(np.maximum(p, LOG_FLOOR))).sum())

    p = model.probabilities(model.layout.theta(blocks))
    ll = ll_of(p)
    trace = [ll]
    iterations = 0
    d_start = 1.0
    for iterations in range(1, max_iters + 1):
        weights = counts / np.maximum(p, 1e-15) / max(total_counts, 1.0)
        direction = {tj: r_op @ blocks[tj] @ r_op
                     for tj, r_op in model.layout.blocks(
                         model.operator_theta(weights)).items()}
        total = sum(su2_multiplicity(n, tj) * b.trace().real
                    for tj, b in direction.items())
        if total <= 1e-300:
            break
        direction = {tj: b / total for tj, b in direction.items()}
        p_dir = model.probabilities(model.layout.theta(direction))
        d = d_start
        accepted = False
        while d > 1e-12:
            p_cand = (1 - d) * p + d * p_dir
            ll_cand = ll_of(p_cand)
            if ll_cand >= ll:
                accepted = True
                break
            d /= 2
        if not accepted:
            break
        d_start = min(1.0, 2 * d)
        gain = ll_cand - ll
        blocks = {tj: (1 - d) * blocks[tj] + d * direction[tj] for tj in blocks}
        p, ll = p_cand, ll_cand
        trace.append(ll)
        if gain < tol:
            break
    estimate = AccessibleDensityMatrix(n, oracle_clip_and_normalize(blocks, n)[0])
    return estimate, iterations, np.array(trace)


def exact_counts(rho, settings, shots):
    p = measurement._OutcomeModel(settings, rho.n).distributions(rho)
    return CountTable(settings, shots * p)


def assert_same_run(data, **kwargs):
    result = mle_reconstruct(data, **kwargs)
    estimate, iterations, trace = oracle_mle(data, **kwargs)
    assert result.iterations == iterations
    np.testing.assert_allclose(result.ll_trace, trace, rtol=1e-9, atol=0)
    assert result.estimate.allclose(estimate, atol=1e-12)
    return result


def test_stacked_mle_matches_oracle_exact_counts_n3(golden_state):
    # exact data: the linear-inversion start is already the maximum
    result = assert_same_run(exact_counts(golden_state, TWELVE_SETTINGS, 1e4),
                             max_iters=5000, tol=1e-5)
    assert result.estimate.allclose(golden_state, atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_mle_matches_oracle_poisson_counts_n3(golden_state, seed):
    result = assert_same_run(n3_counts(golden_state, seed), max_iters=5000, tol=1e-5)
    assert result.converged and result.iterations > 100


def test_stacked_mle_matches_oracle_n5():
    result = assert_same_run(n5_counts(), max_iters=5000, tol=1e-3)
    assert result.converged and result.iterations > 10


def test_stacked_mle_matches_oracle_n8():
    # At N = 8 with 48 settings the iteration amplifies round-off about
    # tenfold every 30 to 50 steps, so two loops that sum in different
    # orders drift apart after some hundred steps; compare the first 100.
    result = assert_same_run(n8_counts(), max_iters=100, tol=1e-3)
    assert result.iterations == 100


def n3_counts(golden_state, seed):
    return simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=seed)


def n5_counts():
    rng = np.random.default_rng(51)
    settings = random_settings(rng, 40)
    rho = random_accessible_state(5, rng)
    return simulate_counts(rho, settings, 1e4, seed=51)


def n8_counts():
    rng = np.random.default_rng(81)
    settings = random_settings(rng, 48)
    rho = random_accessible_state(8, rng)
    return simulate_counts(rho, settings, 1e4, seed=81)


@pytest.mark.parametrize("case", ["n3-seed0", "n3-seed1", "n3-seed2", "n5"])
def test_extrapolated_mle_reaches_the_diluted_likelihood(golden_state, case):
    # at the default tolerance the extrapolated loop stops no later than the
    # diluted one, and no more than 1e-6 nats below it
    data = n5_counts() if case == "n5" else n3_counts(golden_state, int(case[-1]))
    result = mle_reconstruct(data, tol=1e-10)
    _, iterations, trace = diluted_mle(data, max_iters=100_000, tol=1e-10)
    assert result.converged
    assert result.iterations <= iterations
    assert result.log_likelihood >= trace[-1] - 1e-6


def test_extrapolation_does_not_amplify_round_off(monkeypatch):
    # a 1e-15 relative change of the start moves the estimate after 300
    # steps by at most 1e-9 (1.4e-10 at the cap); without the cap on the
    # extrapolation it moved by 6.6e-6
    data = n8_counts()
    base = mle_reconstruct(data, max_iters=300, tol=0.0)
    start = linear_inversion(data)
    sigma = random_accessible_state(8, np.random.default_rng(82))
    moved = AccessibleDensityMatrix(8, {tj: (1 - 1e-15) * b + 1e-15 * sigma.blocks[tj]
                                        for tj, b in start.blocks.items()})
    monkeypatch.setattr(tomography, "linear_inversion", lambda data: moved)
    result = mle_reconstruct(data, max_iters=300, tol=0.0)
    assert base.iterations == result.iterations == 300
    assert result.estimate.allclose(base.estimate, atol=1e-9)


def test_stacked_mle_keeps_padding_zero():
    # R A of zero-padded blocks and factors, and its Gram matrix, stay zero
    # off the blocks
    rng = np.random.default_rng(5)
    settings = random_settings(rng, 30)
    rho = random_accessible_state(5, rng)
    data = simulate_counts(rho, settings, 1e4, seed=5)
    model, layout = data.model, data.model.layout
    a = tomography._factor(layout.pad(rho.blocks), layout)
    r_op = layout.stack(model.operator_theta(data.counts.ravel()))
    step = r_op @ a
    gram = step @ step.conj().swapaxes(-1, -2)
    inside = layout.pad({tj: np.ones((tj + 1, tj + 1)) for tj in rho.blocks}) != 0
    assert not step[~inside.any(axis=2)].any()
    assert not gram[~inside].any()


def test_factor_refuses_a_negative_block():
    layout = _layout(3)
    blocks = {3: np.eye(4) / 4, 1: -2 * PSD_TOL * np.eye(2)}
    with pytest.raises(measurement.NumericalError, match="positive cone: block two_j=1 "):
        tomography._factor(layout.pad(blocks), layout)
    blocks[1] = -PSD_TOL / 2 * np.eye(2)
    a = tomography._factor(layout.pad(blocks), layout)
    assert not a[1].any()


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_clip_matches_per_block_clip(n):
    # random Hermitian blocks, each with a negative eigenvalue for the clip
    # to remove and, when wider than 1, a positive one
    rng = np.random.default_rng(1300 + n)
    layout = _layout(n)
    for _ in range(3):
        blocks = {}
        for two_j in occurring_two_j(n):
            dim = two_j + 1
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            vals = rng.uniform(-1, 1, size=dim)
            vals[0] = -rng.uniform(0.1, 1)
            vals[1:2] = rng.uniform(0.1, 1)
            blocks[two_j] = (q * vals) @ q.conj().T
        expected, expected_low = oracle_clip_and_normalize(blocks, n)
        clipped = _clip_and_normalize(layout.pad(blocks), layout)
        got = layout.unpad(clipped)
        for two_j in layout.sectors:
            np.testing.assert_allclose(got[two_j], expected[two_j], rtol=0, atol=1e-14)
            assert expected_low[two_j] < 0


def test_one_model_and_one_qr_per_reconstruction(monkeypatch, golden_state):
    # the 12-setting design at N = 3 is well conditioned, so the Cholesky
    # certificate proves its full rank: the one factorization of the
    # observed design is the QR of the linear-inversion solve
    calls = {"model": 0, "qr": 0, "svd": 0, "lstsq": 0}
    original_init = measurement._OutcomeModel.__init__

    def counting_init(self, *args, **kwargs):
        calls["model"] += 1
        original_init(self, *args, **kwargs)

    def counting(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    data = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=3)
    monkeypatch.setattr(measurement._OutcomeModel, "__init__", counting_init)
    for name in ("qr", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    mle_reconstruct(data, max_iters=50)
    assert calls == {"model": 1, "qr": 1, "svd": 0, "lstsq": 0}

