"""The stacked maximum-likelihood iteration against the per-block loop it
replaced, and the work one reconstruction does.

The oracle below is the earlier ``mle_reconstruct`` loop: the iterate as a
dict of blocks, R formed block by block, the normalization summed over
sectors in Python, and the final positivity clip done block by block.  The
update rule, the backtracking schedule and the stopping rule are the same,
so both must take the same steps.
"""

import numpy as np
import pytest

from accdm import measurement
from accdm.measurement import CountRecord, WaveplateSetting, simulate_counts
from accdm.schur import _layout, occurring_two_j, su2_multiplicity
from accdm.states import AccessibleDensityMatrix
from accdm.tomography import (
    LOG_FLOOR,
    START_MIX,
    _clip_and_normalize,
    _Dataset,
    linear_inversion,
    mle_reconstruct,
)

from conftest import TWELVE_SETTINGS, random_accessible_state


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


def oracle_mle(records, *, max_iters, tol, dilution=1.0):
    """The dict-of-blocks diluted R.rho.R loop; returns (estimate, iterations,
    ll_trace)."""
    dataset = _Dataset(records)
    model = dataset.model
    n = dataset.n
    try:
        start = linear_inversion(records)
    except ValueError:
        start = AccessibleDensityMatrix.maximally_mixed(n)
    blocks = {tj: (1 - START_MIX) * b + START_MIX * np.eye(tj + 1) / 2 ** n
              for tj, b in start.blocks.items()}
    counts = dataset.counts.ravel()
    total_counts = counts.sum()

    def ll_of(p):
        return float((counts * np.log(np.maximum(p, LOG_FLOOR))).sum())

    p = model.probabilities(model.layout.theta(blocks))
    ll = ll_of(p)
    trace = [ll]
    iterations = 0
    d_start = dilution
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
        d_start = min(dilution, 2 * d)
        gain = ll_cand - ll
        blocks = {tj: (1 - d) * blocks[tj] + d * direction[tj] for tj in blocks}
        p, ll = p_cand, ll_cand
        trace.append(ll)
        if gain < tol:
            break
    estimate = AccessibleDensityMatrix(n, oracle_clip_and_normalize(blocks, n)[0])
    return estimate, iterations, np.array(trace)


def random_settings(rng, count):
    return [WaveplateSetting(q, h) for q, h in rng.uniform(0, 180, size=(count, 2))]


def exact_records(rho, settings, shots):
    p = measurement._OutcomeModel(settings, rho.n).distributions(rho)
    return [CountRecord(s.qwp_deg, s.hwp_deg, rho.n - k, k, shots * p[si, k])
            for si, s in enumerate(settings) for k in range(rho.n + 1)]


def assert_same_run(records, **kwargs):
    result = mle_reconstruct(records, **kwargs)
    estimate, iterations, trace = oracle_mle(records, **kwargs)
    assert result.iterations == iterations
    np.testing.assert_allclose(result.ll_trace, trace, rtol=1e-9, atol=0)
    assert result.estimate.allclose(estimate, atol=1e-12)
    return result


def test_stacked_mle_matches_oracle_exact_counts_n3(golden_state):
    # exact data: the linear-inversion start is already the maximum
    result = assert_same_run(exact_records(golden_state, TWELVE_SETTINGS, 1e4),
                             max_iters=5000, tol=1e-5)
    assert result.estimate.allclose(golden_state, atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_mle_matches_oracle_poisson_counts_n3(golden_state, seed):
    records = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=seed)
    result = assert_same_run(records, max_iters=5000, tol=1e-5)
    assert result.converged and result.iterations > 100


def test_stacked_mle_matches_oracle_n5():
    rng = np.random.default_rng(51)
    settings = random_settings(rng, 40)
    rho = random_accessible_state(5, rng)
    records = simulate_counts(rho, settings, 1e4, seed=51)
    result = assert_same_run(records, max_iters=5000, tol=1e-3)
    assert result.converged and result.iterations > 10


def test_stacked_mle_matches_oracle_n8():
    # At N = 8 with 48 settings the iteration amplifies round-off about
    # tenfold every 30 to 50 steps, so two loops that sum in different
    # orders drift apart after some hundred steps; compare the first 100.
    rng = np.random.default_rng(81)
    settings = random_settings(rng, 48)
    rho = random_accessible_state(8, rng)
    records = simulate_counts(rho, settings, 1e4, seed=81)
    result = assert_same_run(records, max_iters=100, tol=1e-3)
    assert result.iterations == 100


def test_stacked_mle_keeps_padding_zero():
    # R rho R and convex steps of zero-padded blocks stay zero off the blocks
    rng = np.random.default_rng(5)
    settings = random_settings(rng, 30)
    rho = random_accessible_state(5, rng)
    dataset = _Dataset(simulate_counts(rho, settings, 1e4, seed=5))
    model, layout = dataset.model, dataset.model.layout
    stack = layout.pad(rho.blocks)
    r_op = layout.stack(model.operator_theta(dataset.counts.ravel()))
    step = 0.3 * stack + 0.7 * (r_op @ stack @ r_op)
    inside = layout.pad({tj: np.ones((tj + 1, tj + 1)) for tj in rho.blocks}) != 0
    assert not step[~inside].any()
    assert layout.pad(layout.unpad(step)).tobytes() == step.tobytes()


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
        clipped, low = _clip_and_normalize(layout.pad(blocks), layout)
        got = layout.unpad(clipped)
        for s, two_j in enumerate(layout.sectors):
            np.testing.assert_allclose(got[two_j], expected[two_j], rtol=0, atol=1e-14)
            assert expected_low[two_j] < 0
            assert abs(low[s] - expected_low[two_j]) <= 1e-14


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

    records = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=3)
    monkeypatch.setattr(measurement._OutcomeModel, "__init__", counting_init)
    for name in ("qr", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    mle_reconstruct(records, max_iters=50)
    assert calls == {"model": 1, "qr": 1, "svd": 0, "lstsq": 0}


def test_linear_inversion_of_dataset_matches_records(golden_state):
    records = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=4)
    dataset = _Dataset(records)
    from_records = linear_inversion(records)
    from_dataset = linear_inversion(dataset)
    for two_j, block in from_records.blocks.items():
        np.testing.assert_array_equal(from_dataset.blocks[two_j], block)
