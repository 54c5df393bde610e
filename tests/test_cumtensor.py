"""Fourth-cumulant estimator and rank-1 CP extraction."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import cumlab
from cumlab import cumtensor, datagen, learn
from cumlab.hermite import GDistribution
from oracles import contract3_full, contract4, from_full, full_tensor, orbit_tensor

RADEM = GDistribution.rademacher()


def rank1_tensor(w, weight=1.0):
    return from_full(weight * np.einsum("i,j,k,l->ijkl", w, w, w, w))


def test_gaussian_cumulant_is_noise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100_000, 8))
    k = full_tensor(cumtensor.empirical_fourth_cumulant(x))
    # all-distinct entries have per-sample SD ~ 1, diagonal ones ~ sqrt 96
    assert np.abs(k).max() < 5 * np.sqrt(96 / 100_000)


def test_symmetry_is_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 5))
    k = full_tensor(cumtensor.empirical_fourth_cumulant(x))
    for perm in itertools.permutations(range(4)):
        assert np.array_equal(k, np.transpose(k, perm)), perm


def test_spiked_cumulant_projection():
    # contraction onto ubar^(x4) recovers (beta/(1+beta))^2 kappa4_g;
    # oracle = direct moment estimation of the projected samples
    d, beta, n = 8, 10.0, 400_000
    u = datagen.draw_spike(d, np.random.default_rng(2))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=beta,
                             g_dist=RADEM, spike=u)
    x = datagen.sample_class(spec, n, 33)
    ubar = u / np.sqrt(d)
    k = cumtensor.empirical_fourth_cumulant(x)
    contracted = contract4(k, ubar)
    t = x @ ubar
    t -= t.mean()
    oracle = np.mean(t**4) - 3 * np.mean(t**2) ** 2
    expected = (beta / (1 + beta)) ** 2 * RADEM.kappa4
    assert contracted == pytest.approx(oracle, abs=1e-10)
    se = np.std(t**4, ddof=1) / np.sqrt(n)
    assert abs(contracted - expected) < 5 * se


def test_degenerate_inputs():
    row = np.ones((4, 6))  # repeated rows: defined and finite
    k = full_tensor(cumtensor.empirical_fourth_cumulant(row))
    assert np.all(np.isfinite(k))
    with pytest.raises(ValueError, match="two samples"):
        cumtensor.empirical_fourth_cumulant(np.ones((1, 4)))
    with pytest.raises(ValueError, match="MiB"):
        cumtensor.empirical_fourth_cumulant(np.ones((10, 65)))


def test_rank1_recovery():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(7)
    weight = -3.0  # negative weights take the power iteration on -T
    res = cumtensor.rank1_cp(rank1_tensor(w, weight), rng=np.random.default_rng(4))
    assert not res.degenerate
    norm4 = np.linalg.norm(w) ** 4
    assert res.weight == pytest.approx(weight * norm4, rel=1e-8)
    cos = abs(res.factor @ w) / np.linalg.norm(w)
    assert cos == pytest.approx(1.0, abs=1e-8)
    assert learn.ipr(res.factor) == pytest.approx(learn.ipr(w), abs=1e-8)


def test_rank1_zero_tensor_flags_degenerate():
    res = cumtensor.rank1_cp(from_full(np.zeros((5,) * 4)),
                             rng=np.random.default_rng(5))
    assert res.degenerate and res.weight == 0.0


def test_rank1_on_noisy_planted_tensor():
    rng = np.random.default_rng(6)
    w = np.zeros(10)
    w[3] = 1.0
    noise = rng.standard_normal((10,) * 4)
    noise = (noise + noise.transpose(1, 0, 2, 3)) / 2  # rough symmetrisation
    t = from_full(
        5.0 * full_tensor(rank1_tensor(w)) + 0.01 * (noise + noise.transpose(2, 3, 0, 1)) / 2
    )
    res = cumtensor.rank1_cp(t, rng=np.random.default_rng(7))
    assert abs(res.factor[3]) > 0.99


def full_gram_cumulant(data):
    """The estimator written out longhand: the Gram of all d^2 pair
    products in one product, the d^4 moment tensor minus the three pairing
    products, then every index orbit averaged over its 24 permutations."""
    x = data - data.mean(axis=0)
    n, d = x.shape
    m2 = x.T @ x / n
    pair = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    m4 = (pair.T @ pair / n).reshape(d, d, d, d)
    k = m4 - (np.einsum("ij,kl->ijkl", m2, m2) + np.einsum("ik,jl->ijkl", m2, m2)
              + np.einsum("il,jk->ijkl", m2, m2))
    orbits = np.array(list(itertools.combinations_with_replacement(range(d), 4))).T
    perms = list(itertools.permutations(orbits))
    vals = sum(k[p] for p in perms) / len(perms)
    out = np.empty_like(k)
    for p in perms:
        out[p] = vals
    return out


ROWS = cumtensor._MOMENT_BLOCK_ROWS


@pytest.mark.parametrize("n", [ROWS // 8, ROWS, ROWS + ROWS // 4 + 1])
@pytest.mark.parametrize("d", [1, 5, 20, 33])
def test_estimator_matches_full_gram_reference(d, n):
    # skewed, non-centred data, so that every moment term matters; n below,
    # equal to and not a multiple of the row block
    x = np.random.default_rng(d * n).exponential(size=(n, d)) + 0.5
    new = full_tensor(cumtensor.empirical_fourth_cumulant(x))
    ref = full_gram_cumulant(x)
    assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


def reference_rank1_cp(tensor, rng, restarts=8, max_iters=1000, tol=1e-10):
    """Power iteration that contracts afresh for every weight it needs.

    Returns the best (weight, factor) and the number of candidate iterates
    it evaluated: each accepted step, plus the step that ends a restart by
    lowering |weight|.
    """
    def contract4(v):
        return float(tensor.contract3(v) @ v)

    best_weight, best_factor, evaluated = 0.0, None, 0
    for _ in range(restarts):
        v = rng.standard_normal(tensor.d)
        v /= np.linalg.norm(v)
        sign = 1.0 if contract4(v) >= 0 else -1.0
        gamma_abs = abs(contract4(v))
        for _ in range(max_iters):
            w = sign * tensor.contract3(v)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w /= norm
            evaluated += 1
            new_gamma_abs = abs(contract4(w))
            if new_gamma_abs < gamma_abs - 1e-12:
                break
            step = min(np.linalg.norm(w - v), np.linalg.norm(w + v))
            v, gamma_abs = w, new_gamma_abs
            if step < tol:
                break
        gamma = contract4(v)
        if abs(gamma) > abs(best_weight):
            best_weight, best_factor = gamma, v
    return best_weight, best_factor, evaluated


def nlgp_cumulant(d, n, seed):
    spec = datagen.ModelSpec(kind=datagen.NLGP, d=d, gain=3.0, xi=1.0)
    return cumtensor.empirical_fourth_cumulant(datagen.sample_class(spec, n, seed))


@pytest.mark.parametrize("make", [
    lambda: nlgp_cumulant(12, 3000, 9),
    lambda: rank1_tensor(np.random.default_rng(10).standard_normal(9), -2.0),
], ids=["nlgp", "planted"])
def test_rank1_cp_contracts_once_per_step(make, monkeypatch):
    tensor = make()
    weight, factor, evaluated = reference_rank1_cp(tensor, np.random.default_rng(11))
    calls = []
    contract3 = cumtensor.FourthCumulant.contract3

    def counted(self, v):
        calls.append(None)
        return contract3(self, v)

    monkeypatch.setattr(cumtensor.FourthCumulant, "contract3", counted)
    res = cumtensor.rank1_cp(tensor, rng=np.random.default_rng(11))
    assert len(calls) == 8 + evaluated  # one per restart and one per step
    assert res.weight == pytest.approx(weight, rel=1e-12)
    np.testing.assert_allclose(res.factor, factor, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_contract3_matches_full_tensor_oracle(d):
    rng = np.random.default_rng(20 + d)
    vals = rng.standard_normal(len(list(itertools.combinations_with_replacement(range(d), 4))))
    t = orbit_tensor(d, vals)
    k = from_full(t)
    for _ in range(3):
        v = rng.standard_normal(d)
        np.testing.assert_allclose(k.contract3(v), contract3_full(t, v), rtol=1e-12)


def test_contract3_matches_full_tensor_oracle_on_nlgp_cumulant():
    k = nlgp_cumulant(12, 3000, 9)
    t = full_tensor(k)
    rng = np.random.default_rng(12)
    for _ in range(3):
        v = rng.standard_normal(12)
        np.testing.assert_allclose(k.contract3(v), contract3_full(t, v), rtol=1e-12)


@pytest.mark.parametrize("d", [1, 5, 12])
def test_pair_matrix_is_the_orbit_scatter(d):
    # one value per sorted orbit, read at its (ij, kl) entry, scattered to
    # its 24 permutations gives the full tensor bit for bit: every entry of
    # K is the value computed for its orbit
    x = np.random.default_rng(30 + d).exponential(size=(700, d))
    k = cumtensor.empirical_fourth_cumulant(x)
    a, b = np.triu_indices(d)
    pair = {(i, j): p for p, (i, j) in enumerate(zip(a, b))}
    orbits = list(itertools.combinations_with_replacement(range(d), 4))
    vals = np.array([k.matrix[pair[i, j], pair[m, l]] for i, j, m, l in orbits])
    assert np.array_equal(full_tensor(k), orbit_tensor(d, vals))
    assert np.array_equal(k.matrix, k.matrix.T)


def test_localisation_point_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(cumlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from cumlab import cumtensor, datagen\n"
        "spec = datagen.ModelSpec(kind=datagen.NLGP, d=6, gain=3.0, xi=1.0)\n"
        "rows = datagen.sample_class(spec, 200, 1)\n"
        "cumtensor.rank1_cp(cumtensor.empirical_fourth_cumulant(rows))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_orbit_index_cache_is_about_the_size_of_k():
    # K alone is 33 MiB at d = 64; the cached indices hold no sorted
    # quadruples and store int32
    def nbytes(item):
        return sum(map(nbytes, item)) if isinstance(item, tuple) else item.nbytes

    assert nbytes(cumtensor._orbit_indices(64)) <= 35 * 2**20
    cumtensor._orbit_indices.cache_clear()
