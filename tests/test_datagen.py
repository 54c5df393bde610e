"""Samplers, whitening, exports, and their statistical contracts."""

import os
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from cumlab import datagen
from cumlab.hermite import GDistribution
from cumlab.rng import block_generator, spawn_seed
from oracles import erf_variance_quadrature, whitening_matrix, write_csv_unbuffered

RADEM = GDistribution.rademacher()


def cumulant_spec(d, beta, seed=0, g=RADEM):
    u = datagen.draw_spike(d, np.random.default_rng(seed))
    return datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=beta, g_dist=g, spike=u)


def test_draw_spike_basic():
    rng = np.random.default_rng(1)
    u = datagen.draw_spike(4, rng)
    assert set(np.unique(u)) <= {-1.0, 1.0}
    assert np.linalg.norm(u) == 2.0
    replay = datagen.draw_spike(16, np.random.default_rng(9))
    assert np.array_equal(replay, datagen.draw_spike(16, np.random.default_rng(9)))


def test_draw_spike_fair_coin():
    rng = np.random.default_rng(2)
    draws = np.array([datagen.draw_spike(1, rng)[0] for _ in range(10_000)])
    n_plus = int(np.sum(draws > 0))
    chi2 = (2 * n_plus - len(draws)) ** 2 / len(draws)
    assert chi2 < 6.64  # chi^2_1 at the 1% level


def test_whitening_matrix_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 65))
        beta = float(rng.uniform(0.0, 100.0))
        u = datagen.draw_spike(d, rng)
        S = whitening_matrix(u, beta)
        M = S @ (np.eye(d) + beta * np.outer(u, u) / d) @ S
        assert np.abs(M - np.eye(d)).max() < 1e-12


def test_whitening_matrix_eigenstructure():
    rng = np.random.default_rng(4)
    d, beta = 12, 7.5
    u = datagen.draw_spike(d, rng)
    S = whitening_matrix(u, beta)
    np.testing.assert_allclose(S @ u, u / np.sqrt(1.0 + beta), rtol=1e-13)
    w = rng.standard_normal(d)
    w -= (w @ u) * u / d
    np.testing.assert_allclose(S @ w, w, rtol=1e-12, atol=1e-13)
    assert np.array_equal(whitening_matrix(u, 0.0), np.eye(d))
    with pytest.raises(ValueError):
        whitening_matrix(u, float("nan"))


def test_closed_form_matches_whitening_matrix():
    # same Philox stream replayed: closed-form rows == S @ raw rows
    d, beta, seed = 8, 3.0, 42
    spec = cumulant_spec(d, beta, seed=5)
    x = datagen.sample_class(spec, 500, seed)
    S = whitening_matrix(spec.spike, beta)
    rng = block_generator(seed, 0)
    z = rng.standard_normal((500, d))
    g = spec.g_dist.sample(500, rng)
    raw = z + np.sqrt(beta / d) * np.outer(g, spec.spike)
    assert np.abs(x - raw @ S.T).max() < 1e-10


def test_seed_determinism():
    spec = cumulant_spec(6, 10.0)
    a = datagen.sample_class(spec, 1000, 77)
    b = datagen.sample_class(spec, 1000, 77)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, datagen.sample_class(spec, 1000, 78))


def test_block_streams_are_independent():
    # rows past the first block boundary come from their own stream, so a
    # two-block draw replays the corresponding one-block draws exactly
    spec = datagen.ModelSpec(kind=datagen.NULL, d=3)
    big = datagen.sample_class(spec, 65536 + 200, 55)
    first = datagen.sample_class(spec, 65536, 55)
    assert np.array_equal(big[:65536], first)
    tail = big[65536:]
    rng = block_generator(55, 1)
    assert np.array_equal(tail, rng.standard_normal((200, 3)))


def test_beta_zero_is_null():
    spec = cumulant_spec(5, 0.0)
    x = datagen.sample_class(spec, 10_000, 11)
    proj = x @ spec.spike / np.sqrt(spec.d)
    assert stats.kstest(proj, "norm").pvalue > 0.01
    assert stats.kstest(x[:, 0], "norm").pvalue > 0.01


def test_spiked_cumulant_identity_covariance():
    d, n = 16, 40_000
    spec = cumulant_spec(d, 10.0, seed=6)
    x = datagen.sample_class(spec, n, 13)
    cov = x.T @ x / n
    # entrywise 4-standard-error band, SE estimated from the sample itself
    for i in range(d):
        for j in range(i, d):
            prod = x[:, i] * x[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            target = 1.0 if i == j else 0.0
            assert abs(cov[i, j] - target) < 4 * se, (i, j)


def test_projection_fourth_cumulant():
    # kappa4 of the u-projection is (beta/(1+beta))^2 kappa4_g
    d, beta, n = 8, 10.0, 1_000_000
    spec = cumulant_spec(d, beta, seed=8)
    x = datagen.sample_class(spec, n, 21)
    t = x @ spec.spike / np.sqrt(d)
    k4 = np.mean(t**4) - 3 * np.mean(t**2) ** 2
    expected = (beta / (1 + beta)) ** 2 * RADEM.kappa4
    # oracle tolerance: 5 SE of the fourth-moment estimator
    se = np.std(t**4, ddof=1) / np.sqrt(n)
    assert abs(k4 - expected) < 5 * se


def test_wishart_variance_along_spike():
    d, beta, n = 10, 5.0, 200_000
    u = datagen.draw_spike(d, np.random.default_rng(10))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=d, beta=beta, spike=u)
    x = datagen.sample_class(spec, n, 3)
    t = x @ u / np.sqrt(d)
    assert np.var(t) == pytest.approx(1.0 + beta, rel=0.02)
    w = np.zeros(d)
    w[0], w[1] = u[1], -u[0]  # orthogonal to u
    s = x @ w / np.linalg.norm(w)
    assert np.var(s) == pytest.approx(1.0, rel=0.02)


def test_nlgp_pixel_variance():
    spec = datagen.ModelSpec(kind=datagen.NLGP, d=20, gain=3.0, xi=1.0)
    n = 200_000
    x = datagen.sample_class(spec, n, 17)
    var = x.var(axis=0)
    se = np.std(x**2, axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(var - 1.0) < 3 * se + 1e-3)


def test_erf_normalisation_quadrature_vs_closed_form():
    for gain in (0.3, 1.0, 3.0, 10.0):
        q = erf_variance_quadrature(gain)
        c = datagen.erf_variance_closed_form(gain)
        assert q == pytest.approx(c, abs=1e-12)


def ordered_bits(x):
    """The float64 values as integers in the order of the reals, so that adjacent
    doubles differ by 1 (+0 and -0 both map to 0)."""
    bits = x.view(np.int64)
    return np.where(bits < 0, np.int64(-(2**63)) - bits, bits)


def test_erf_matches_scipy_to_one_ulp():
    # a dense grid, both sides of each Cephes branch edge (|x| = 1, 8 and
    # sqrt(MAXLOG), where exp(-x^2) underflows), subnormals and the specials
    edges = np.array([1.0, 8.0, np.sqrt(7.09782712893383996843e2)])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    tiny = np.array([5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0), 1e-300])
    x = np.concatenate([np.linspace(0, 30, 600_001), near, tiny, [np.inf]])
    x = np.concatenate([x, -x, [np.nan]])[None, :]
    got = x.copy()
    with np.errstate(all="raise"):
        datagen._erf(got)
    want = special.erf(x)
    assert np.abs(ordered_bits(got) - ordered_bits(want)).max() <= 1
    exact = (x == 0) | np.isinf(x)
    assert np.array_equal(got[exact].view(np.int64), want[exact].view(np.int64))  # signs of 0
    assert np.isnan(got[:, -1]).all()
    half = (x.size - 1) // 2
    assert np.array_equal(got[:, half:-1].view(np.int64), (-got[:, :half]).view(np.int64))


def test_erf_works_in_row_chunks_of_any_width():
    for shape in ((3, 1), (7, 2**14 + 3), (5000, 7)):
        x = np.random.default_rng(shape[1]).normal(scale=3.0, size=shape)
        got = x.copy()
        datagen._erf(got)
        assert np.abs(ordered_bits(got) - ordered_bits(special.erf(x))).max() <= 1


def test_gp_match_covariance_matches_nlgp():
    d, n = 8, 1_000_000
    nl = datagen.ModelSpec(kind=datagen.NLGP, d=d, gain=3.0, xi=1.0)
    x = datagen.sample_class(nl, n, 19)
    emp = x.T @ x / n
    target = datagen.nlgp_output_covariance(nl)
    for i in range(d):
        for j in range(d):
            prod = x[:, i] * x[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(emp[i, j] - target[i, j]) < 4 * se, (i, j)
    # and the GPMatch sampler reproduces those second moments
    gp = datagen.ModelSpec(kind=datagen.GP_MATCH, d=d, gain=3.0, xi=1.0)
    y = datagen.sample_class(gp, n, 23)
    emp_gp = y.T @ y / n
    assert np.abs(emp_gp - target).max() < 6e-3


def test_cholesky_failure_reports_minor():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError, match="leading minor of order 2"):
        datagen._cholesky_or_raise(bad, "test")


def test_make_dataset_labels_and_pairing():
    spec = cumulant_spec(6, 10.0, seed=30)
    data = datagen.make_dataset(spec, 40, 4)
    assert data.n == 80 and data.d == 6
    assert np.all(data.labels[:40] == 1.0) and np.all(data.labels[40:] == -1.0)
    assert data.spec_pair[1].kind == datagen.NULL
    null_rows = data.values[data.labels < 0]
    expected = datagen.sample_class(datagen.null_spec(6), 40, spawn_seed(4, "neg"))
    assert np.array_equal(null_rows, expected)
    assert np.array_equal(data.values[:40], datagen.sample_class(spec, 40, spawn_seed(4, "pos")))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        datagen.ModelSpec(kind="bogus", d=4)
    with pytest.raises(ValueError):
        datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=4, beta=1.0)  # no g
    with pytest.raises(ValueError):
        datagen.ModelSpec(kind=datagen.NLGP, d=4, gain=-1.0)
    with pytest.raises(ValueError):
        datagen.ModelSpec(
            kind=datagen.SPIKED_CUMULANT, d=4, beta=1.0, g_dist=RADEM,
            spike=np.array([1.0, 2.0, 1.0, 1.0]),
        )


def test_export_round_trip(tmp_path):
    spec = cumulant_spec(5, 10.0, seed=31)
    data = datagen.make_dataset(spec, 25, 9)
    csv_path = tmp_path / "data.csv"
    bin_path = tmp_path / "data.bin"
    datagen.write_csv(data, csv_path)
    datagen.write_binary(data, bin_path)
    for loaded in (datagen.read_csv(csv_path), datagen.read_binary(bin_path)):
        assert np.array_equal(loaded.values, data.values)
        assert np.array_equal(loaded.labels, data.labels)
    with open(csv_path) as fh:
        assert fh.readline().strip() == "label," + ",".join(f"x_{i}" for i in range(5))


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
    with pytest.raises(ValueError, match="bad magic"):
        datagen.read_binary(path)


def test_binary_truncated_file_is_refused(tmp_path):
    path = tmp_path / "short.bin"
    datagen.write_binary(special_dataset(50, 4), path)
    payload = path.read_bytes()
    # cut in the header, in the labels and in the last value
    for size in (12, 16 + 8 * 25, len(payload) - 1):
        path.write_bytes(payload[:size])
        with pytest.raises(ValueError, match="truncated file") as info:
            datagen.read_binary(path)
        assert str(path) in str(info.value)


# values whose repr is easy to get wrong: signed zero, non-finite values,
# the smallest subnormal and the largest double, and the points where repr
# switches between positional and exponent notation, from either side
SPECIAL_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                  1e-5, 9.999e-5, 1e16, 1e-16, 1e-4, -1e-4, np.nextafter(1e-4, 0),
                  np.nextafter(1e16, 0)]


def special_dataset(n, d, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
    flat = values.reshape(-1)
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: flat.size]
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return datagen.DataMatrix(values=values, labels=labels)


CSV_D = 20
CSV_BLOCK = datagen._CSV_BLOCK_VALUES // (CSV_D + 1)  # rows per written block


@pytest.mark.parametrize("n", [1, CSV_BLOCK - 1, CSV_BLOCK, 2 * CSV_BLOCK + 1])
def test_write_csv_matches_unbuffered_writer(tmp_path, n):
    data = special_dataset(n, CSV_D, seed=n)
    datagen.write_csv(data, tmp_path / "blocks.csv")
    write_csv_unbuffered(data, tmp_path / "reference.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = datagen.read_csv(tmp_path / "blocks.csv")
    assert back.values.tobytes() == data.values.tobytes()
    assert back.labels.tobytes() == data.labels.tobytes()


def test_write_csv_matches_unbuffered_writer_on_gaussian_rows(tmp_path):
    # special_dataset spans 10^-300..10^300, so nearly all of its rows take
    # the repr fallback; Gaussian rows mostly do not.  Each special value
    # goes alone into a row that has no other value below 1e-4, so every
    # edge of the fallback's mask decides how its row is written.
    d = 100
    block = datagen._CSV_BLOCK_VALUES // (d + 1)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3 * block + 7, d))
    clean = np.flatnonzero((np.abs(values) >= 1e-4).all(axis=1))
    values[clean[: len(SPECIAL_VALUES)], 0] = SPECIAL_VALUES
    labels = np.where(rng.random(len(values)) < 0.5, 1.0, -1.0)
    data = datagen.DataMatrix(values=values, labels=labels)
    datagen.write_csv(data, tmp_path / "blocks.csv")
    write_csv_unbuffered(data, tmp_path / "reference.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_read_csv_keeps_one_row_two_dimensional(tmp_path):
    data = special_dataset(1, 1)
    datagen.write_csv(data, tmp_path / "one.csv")
    back = datagen.read_csv(tmp_path / "one.csv")
    assert back.values.shape == (1, 1) and back.labels.shape == (1,)
    assert back.values.tobytes() == data.values.tobytes()


def test_read_csv_refuses_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="not a cumlab dataset CSV"):
        datagen.read_csv(path)


def traced_peak(call) -> int:
    """Peak bytes allocated through Python while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # the writer holds one block of rows, never the whole file
    n = CSV_BLOCK
    small_data, large_data = special_dataset(n, CSV_D), special_dataset(4 * n, CSV_D)
    small = traced_peak(lambda: datagen.write_csv(small_data, tmp_path / "a.csv"))
    large = traced_peak(lambda: datagen.write_csv(large_data, tmp_path / "b.csv"))
    assert large <= 1.1 * small, (small, large)


def test_make_dataset_samples_into_one_value_array():
    # each class is drawn straight into its half of the returned array, so
    # beside that array only one class's sampler output is ever held
    n, d = 2_000, 50
    peak = traced_peak(lambda: datagen.make_dataset(datagen.null_spec(d), n, 1))
    assert peak < 1.75 * (2 * n * d * 8), peak


def test_spiked_class_is_sampled_into_its_output_rows():
    # the export-dataset config: each block is drawn into the rows that
    # sample_class hands it, with one (rows, d) temporary beside them
    spec = cumulant_spec(100, 10.0)
    peak = traced_peak(lambda: datagen.make_dataset(spec, 10_000, 1))
    assert peak <= 24.5e6, peak


@pytest.mark.parametrize("out", [np.empty((4, 3)), np.empty((5, 4)), np.empty((5, 3), np.float32),
                                 np.empty((3, 5)).T])
def test_sample_class_refuses_an_unfit_output(out):
    with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
        datagen.sample_class(datagen.null_spec(3), 5, 1, out=out)


def test_write_binary_makes_no_full_copy(tmp_path):
    data = special_dataset(20_000, CSV_D)
    peak = traced_peak(lambda: datagen.write_binary(data, tmp_path / "data.bin"))
    assert peak < data.values.nbytes / 10, (peak, data.values.nbytes)


def test_read_csv_holds_little_beyond_the_parsed_array(tmp_path):
    # parsed straight into one float array, not via a list of string rows
    data = special_dataset(5_000, CSV_D)
    datagen.write_csv(data, tmp_path / "data.csv")
    peak = traced_peak(lambda: datagen.read_csv(tmp_path / "data.csv"))
    assert peak < 3 * (data.values.nbytes + data.labels.nbytes), peak


def test_read_binary_reads_straight_into_its_arrays(tmp_path):
    # no bytes object or view copy beside the arrays it returns
    data = special_dataset(20_000, CSV_D)
    datagen.write_binary(data, tmp_path / "data.bin")
    peak = traced_peak(lambda: datagen.read_binary(tmp_path / "data.bin"))
    assert peak < 1.25 * (data.values.nbytes + data.labels.nbytes), peak


class FailingValues:
    """A value matrix whose rows past the first cannot be read, as if the
    disk filled up part-way through the file."""

    def __init__(self, values):
        self.values = values
        self.shape = values.shape

    def __getitem__(self, rows):
        if rows.start:
            raise OSError("injected write failure")
        return self.values[rows]

    def __array__(self, dtype=None, copy=None):
        raise OSError("injected write failure")


@pytest.mark.parametrize("write", [datagen.write_csv, datagen.write_binary])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, write):
    monkeypatch.setattr(datagen, "_CSV_BLOCK_VALUES", 8)  # two rows a block at d = 3
    data = special_dataset(6, 3)
    failing = datagen.DataMatrix(values=FailingValues(data.values), labels=data.labels)
    with pytest.raises(OSError, match="injected"):
        write(failing, tmp_path / "data.out")
    assert os.listdir(tmp_path) == []
    # an existing file is left as it was, not truncated
    write(data, tmp_path / "data.out")
    before = (tmp_path / "data.out").read_bytes()
    with pytest.raises(OSError, match="injected"):
        write(failing, tmp_path / "data.out")
    assert os.listdir(tmp_path) == ["data.out"]
    assert (tmp_path / "data.out").read_bytes() == before
