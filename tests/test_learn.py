"""Network training, random features, and the overlap/IPR diagnostics."""

import numpy as np
import pytest

from cumlab import _kernels, datagen, learn
from cumlab.hermite import GDistribution
from cumlab.rng import generator

RADEM = GDistribution.rademacher()


def wishart_data(d, n_per, beta, seed, spike_seed=0):
    u = datagen.draw_spike(d, np.random.default_rng(spike_seed))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=d, beta=beta, spike=u)
    return datagen.make_dataset(spec, n_per, seed), u


def test_ipr_values():
    d = 10
    one_hot = np.eye(d)[3]
    assert learn.ipr(one_hot) == 1.0
    uniform = np.ones(d) / np.sqrt(d)
    assert learn.ipr(uniform) == pytest.approx(1.0 / d, rel=1e-14)
    assert learn.ipr(np.array([1.0, 1.0, 0.0, 0.0])) == pytest.approx(0.5, rel=1e-14)


def test_ipr_scale_invariance_and_zero():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(17)
    for c in (-3.0, 0.1, 42.0):
        assert learn.ipr(c * w) == pytest.approx(learn.ipr(w), rel=1e-12)
    with pytest.raises(ValueError):
        learn.ipr(np.zeros(5))


def scalar_max_ipr(W):
    return max((learn.ipr(w) for w in W if np.any(w)), default=float("nan"))


@pytest.mark.parametrize("d", [8, 30, 64])
def test_screened_max_ipr_equals_scalar_max(d):
    # the vectorised screen only selects rows; the value is always ipr's
    rng = np.random.default_rng(d)
    base = rng.standard_normal(d)
    cases = [rng.standard_normal((150, d)) for _ in range(20)]
    # near-ties: permuted and rescaled copies of one row have the same IPR
    # up to the last bits of ipr's sums
    cases.append(np.array([rng.permutation(base) * rng.uniform(0.1, 10.0)
                           for _ in range(150)]))
    with_zeros = rng.standard_normal((150, d))
    with_zeros[rng.choice(150, 40, replace=False)] = 0.0
    cases.append(with_zeros)
    for W in cases:
        assert learn._max_ipr(W) == scalar_max_ipr(W)
    assert np.isnan(learn._max_ipr(np.zeros((5, d))))


def test_ipr_of_huge_but_finite_weights():
    # w**4 and (w . w)^2 overflow, so the rows are rescaled: the IPR is the
    # scale-invariant value, where it raised before
    want = learn.ipr(np.array([1.0, 2.0, 0.0]))
    assert want == pytest.approx(0.68, rel=1e-15)
    assert learn.ipr(np.array([1e100, 2e100, 0.0])) == pytest.approx(want, rel=1e-15)
    assert learn._max_ipr(np.array([[1e100, 2e100, 0.0], [1.0, 0.0, 0.0]])) == 1.0
    assert learn._max_ipr(np.array([[1e100, 2e100, 0.0], [1.0, 1.0, 1.0]])) == pytest.approx(
        want, rel=1e-15)
    # the rows the screen leaves alone keep their bits
    rng = np.random.default_rng(6)
    W = rng.standard_normal((50, 8))
    W[3] *= 1e120
    assert learn._max_ipr(W) == scalar_max_ipr(W)
    assert learn._max_ipr(np.delete(W, 3, axis=0)) == scalar_max_ipr(np.delete(W, 3, axis=0))


def test_max_spike_overlap_basic():
    d = 12
    u = datagen.draw_spike(d, np.random.default_rng(1))
    W = np.vstack([u, np.zeros(d), 3.0 * u])
    assert learn.max_spike_overlap(W, u) == pytest.approx(1.0, rel=1e-14)
    # rows orthogonal to u
    q = np.zeros(d)
    q[0], q[1] = u[1], -u[0]
    assert learn.max_spike_overlap(np.vstack([q, 2 * q]), u) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        learn.max_spike_overlap(np.zeros((3, d)), u)


def test_max_spike_overlap_invariances():
    rng = np.random.default_rng(2)
    u = datagen.draw_spike(9, rng)
    W = rng.standard_normal((15, 9))
    base = learn.max_spike_overlap(W, u)
    scales = rng.uniform(0.1, 5.0, size=15)[:, None]
    assert learn.max_spike_overlap(W * scales, u) == pytest.approx(base, rel=1e-12)
    assert learn.max_spike_overlap(W, -u) == pytest.approx(base, rel=1e-12)


def test_initial_overlap_concentration():
    # max |cos| over m = 5d Gaussian rows concentrates near sqrt(2 log(5d)/d)
    d, m = 100, 500
    rng = np.random.default_rng(3)
    u = datagen.draw_spike(d, rng)
    vals = []
    for _ in range(100):
        W = rng.standard_normal((m, d)) / np.sqrt(d)
        vals.append(learn.max_spike_overlap(W, u))
    predicted = np.sqrt(2 * np.log(m) / d)
    assert 0.75 * predicted < np.mean(vals) < 1.25 * predicted


def test_train_determinism():
    data, u = wishart_data(10, 150, 5.0, seed=5)
    test, _ = wishart_data(10, 150, 5.0, seed=6)
    cfg = learn.TrainConfig(epochs=5, batch_size=32, seed=11)
    rep1, net1 = learn.train_2lnn(data, test, u, cfg)
    rep2, net2 = learn.train_2lnn(data, test, u, cfg)
    assert rep1.test_accuracy == rep2.test_accuracy
    assert rep1.overlap_trajectory == rep2.overlap_trajectory
    assert np.array_equal(net1.W, net2.W) and np.array_equal(net1.v, net2.v)


def test_train_shuffled_labels_at_chance():
    data, u = wishart_data(12, 300, 5.0, seed=7)
    rng = np.random.default_rng(8)
    data.labels = rng.permutation(data.labels)
    test, _ = wishart_data(12, 800, 5.0, seed=9)
    test.labels = rng.permutation(test.labels)
    cfg = learn.TrainConfig(epochs=10, batch_size=32, seed=12)
    rep, _ = learn.train_2lnn(data, test, u, cfg)
    se = 0.5 / np.sqrt(2 * 800)
    assert abs(rep.test_accuracy[-1] - 0.5) < 4 * se


def test_early_stop_is_max_over_epochs():
    data, u = wishart_data(10, 200, 5.0, seed=10)
    test, _ = wishart_data(10, 400, 5.0, seed=11)
    rep, _ = learn.train_2lnn(data, test, u, learn.TrainConfig(epochs=8, seed=1))
    assert rep.early_stop_accuracy == max(rep.test_accuracy)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_epoch():
    data, u = wishart_data(8, 120, 5.0, seed=13)
    cfg = learn.TrainConfig(learning_rate=50.0, epochs=10, batch_size=8, seed=2)
    with pytest.raises(learn.DivergenceError, match="epoch"):
        learn.train_2lnn(data, data, u, cfg)


def test_centred_forward_and_alpha_scaling():
    # each epoch's test accuracy is the sign readout of the plain network at
    # alpha = 1 and of alpha * (phi - phi0) against the frozen initial
    # network otherwise, exactly as net.forward computes them
    data, u = wishart_data(8, 60, 5.0, seed=19)
    test, _ = wishart_data(8, 200, 5.0, seed=20)
    for alpha in (1.0, 10.0):
        cfg = learn.TrainConfig(alpha_lazy=alpha, epochs=3, batch_size=16, seed=9)
        rep, net = learn.train_2lnn(data, test, u, cfg)
        net0 = learn.init_network(8, cfg.width_factor * 8, generator(cfg.seed, "train2lnn"))
        out = net.forward(test.values)
        if alpha != 1.0:
            out = alpha * (out - net0.forward(test.values))
        assert rep.test_accuracy[-1] == float(np.mean(np.sign(out) == test.labels))


def test_gradients_match_finite_differences():
    # one full-batch step of the SGD kernel at lr = 1 moves every parameter
    # by its loss gradient, plus weight decay on W and v
    rng = generator(77, "fd")
    n, d, m, wd = 12, 5, 8, 0.01
    X = rng.standard_normal((n, d))
    y = np.sign(rng.standard_normal(n))
    for alpha in (1.0, 10.0):
        net = learn.init_network(d, m, rng)
        net0 = net.copy()
        net.W += 0.05 * rng.standard_normal(net.W.shape)  # move off kinks
        after = net.copy()
        after.c = _kernels.sgd_epoch(
            after.W, after.b, after.v, after.c, X, y, np.arange(n), n, 1.0, wd,
            alpha=alpha, frozen=None if alpha == 1.0 else net0.forward,
        )
        eps = 1e-6

        def loss_of(net_mod):
            out = net_mod.forward(X)
            if alpha != 1.0:
                out = alpha * (out - net0.forward(X))
            return float(np.mean((out - y) ** 2)) / alpha**2

        def fd_grad(key, idx):
            losses = []
            for delta in (eps, -eps):
                probe = net.copy()
                if key == "c":
                    probe.c += delta
                else:
                    getattr(probe, key)[idx] += delta
                losses.append(loss_of(probe))
            return (losses[0] - losses[1]) / (2 * eps)

        assert net.c - after.c == pytest.approx(fd_grad("c", None), rel=1e-5, abs=1e-7)
        probes = [(int(rng.integers(m)), int(rng.integers(d))) for _ in range(10)]
        for j, i in probes:
            for key in ("W", "b", "v"):
                idx = (j, i) if key == "W" else (j,)
                decay = wd * getattr(net, key)[idx] if key in ("W", "v") else 0.0
                step = getattr(net, key)[idx] - getattr(after, key)[idx]
                assert step == pytest.approx(fd_grad(key, idx) + decay, rel=1e-5, abs=1e-7)


def test_lazy_alpha_runs_use_centred_path():
    d = 8
    u = datagen.draw_spike(d, np.random.default_rng(20))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=10.0,
                             g_dist=RADEM, spike=u)
    train = datagen.make_dataset(spec, 10 * d, 31)
    test = datagen.make_dataset(spec, 1000, 32)
    cfg = learn.TrainConfig(alpha_lazy=100.0, epochs=15, batch_size=32, seed=5)
    rep, _ = learn.train_2lnn(train, test, u, cfg)
    # the laziest network cannot learn this task in the linear regime
    se = 0.5 / np.sqrt(2 * 1000)
    assert abs(rep.test_accuracy[-1] - 0.5) < 5 * se + 0.02


def test_rf_duplication_invariance():
    data, u = wishart_data(10, 120, 5.0, seed=14)
    test, _ = wishart_data(10, 500, 5.0, seed=15)
    doubled = datagen.DataMatrix(
        values=np.vstack([data.values, data.values]),
        labels=np.concatenate([data.labels, data.labels]),
    )
    acc1 = learn.fit_random_features(data, test, learn.RFConfig(width=50, ridge=0.1, seed=3))
    acc2 = learn.fit_random_features(doubled, test, learn.RFConfig(width=50, ridge=0.2, seed=3))
    assert acc1 == acc2


def test_rf_readout_matches_cholesky_reference():
    from scipy.linalg import cho_factor, cho_solve

    data, _ = wishart_data(16, 300, 5.0, seed=29)
    test, _ = wishart_data(16, 1000, 5.0, seed=30)
    cfg = learn.RFConfig(width=80, ridge=0.1, seed=31)
    F = generator(cfg.seed, "rf").standard_normal((cfg.width, 16)) / np.sqrt(16)
    phi_tr = np.maximum(data.values @ F.T, 0.0)
    gram = phi_tr.T @ phi_tr + cfg.ridge * np.eye(cfg.width)
    w = cho_solve(cho_factor(gram), phi_tr.T @ data.labels)
    ref = float(np.mean(np.sign(np.maximum(test.values @ F.T, 0.0) @ w) == test.labels))
    assert learn.fit_random_features(data, test, cfg) == ref


def test_strong_signal_wishart_run():
    # large SNR: the network should solve the task and lock onto the spike
    d, beta = 32, 100.0
    u = datagen.draw_spike(d, np.random.default_rng(40))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=d, beta=beta, spike=u)
    train = datagen.make_dataset(spec, 50 * d, 41)
    test = datagen.make_dataset(spec, 2000, 42)
    cfg = learn.TrainConfig(epochs=50, batch_size=8, seed=43)
    rep, _ = learn.train_2lnn(train, test, u, cfg)
    assert rep.early_stop_accuracy > 0.8
    assert rep.overlap_trajectory[-1] > 0.7


def test_rf_learns_wishart_variance_signal():
    # quadratic-regime smoke check at small scale
    data, u = wishart_data(12, 600, 20.0, seed=16)
    test, _ = wishart_data(12, 1500, 20.0, seed=17)
    acc = learn.fit_random_features(data, test, learn.RFConfig(width=60, seed=4))
    assert acc > 0.55


def test_rf_at_chance_on_cumulant_linear_regime():
    # the fourth-order target is invisible to a ridge readout of random
    # relu features at linear sample complexity
    d, beta = 64, 10.0
    u = datagen.draw_spike(d, np.random.default_rng(21))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=beta,
                             g_dist=RADEM, spike=u)
    train = datagen.make_dataset(spec, 10 * d, 22)
    test = datagen.make_dataset(spec, 2000, 23)
    acc = learn.fit_random_features(train, test, learn.RFConfig(width=5 * d, seed=24))
    se = 0.5 / np.sqrt(2 * 2000)
    assert abs(acc - 0.5) < 3 * se


def test_rf_learns_wishart_at_quadratic_complexity():
    d, beta = 24, 5.0
    data, _ = wishart_data(d, d * d, beta, seed=25, spike_seed=26)
    test, _ = wishart_data(d, 2000, beta, seed=27, spike_seed=26)
    acc = learn.fit_random_features(data, test, learn.RFConfig(width=5 * d, seed=28))
    assert acc > 0.55


def test_train_report_serialisation():
    data, u = wishart_data(8, 80, 5.0, seed=18)
    rep, _ = learn.train_2lnn(data, data, u, learn.TrainConfig(epochs=3, seed=6))
    assert len(rep.test_accuracy) == len(rep.overlap_trajectory) == len(rep.ipr_trajectory) == 3
