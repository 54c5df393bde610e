"""Network training, random features, and the overlap/IPR diagnostics."""

import copy

import numpy as np
import pytest

from cumlab import _kernels, cli, datagen, learn
from cumlab.rng import generator
from oracles import RADEM, traced_peak

# the train-sweep defaults of train_2lnn's keyword arguments, at alpha 1
TRAIN = {name: key.default for name, key in cli._TRAIN.keys.items()
         if key.default is not cli.OPTIONAL} | {"alpha_lazy": 1.0}


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
def test_max_ipr_equals_max_of_row_iprs(d):
    # ipr of a matrix gives each row the bits of ipr of that row alone, so
    # the per-epoch maximum is the maximum of the per-row values
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
    huge = rng.standard_normal((150, d))
    huge[::7] *= 1e120
    cases.append(huge)
    # sums of squares below sqrt(float min) and squares that underflow to 0
    tiny = rng.standard_normal((150, d))
    tiny[::5] *= 1e-100
    tiny[1::5] *= 1e-170
    cases.append(tiny)
    for W in cases:
        assert learn._max_ipr(W) == scalar_max_ipr(W)
        rows = W[np.any(W, axis=1)]
        assert learn.ipr(rows).tolist() == [learn.ipr(w) for w in rows]
    np.testing.assert_allclose(learn.ipr(tiny[::5]), learn.ipr(tiny[::5] * 1e100), rtol=1e-14)
    np.testing.assert_allclose(learn.ipr(tiny[1::5]), learn.ipr(tiny[1::5] * 1e170), rtol=1e-14)
    assert np.isnan(learn._max_ipr(np.zeros((5, d))))
    assert learn.ipr(np.array([1e-100, 2e-100])) == pytest.approx(0.68, rel=1e-15)
    assert learn.ipr(np.array([1e-170, 1e-170])) == 0.5
    assert learn._max_ipr(np.array([[1e-100, 2e-100], [1.0, 1.0]])) == pytest.approx(
        0.68, rel=1e-15)


def test_ipr_of_huge_but_finite_weights():
    # w**4 and (w . w)^2 overflow, so the rows are rescaled: the IPR is the
    # scale-invariant value, where it raised before
    want = learn.ipr(np.array([1.0, 2.0, 0.0]))
    assert want == pytest.approx(0.68, rel=1e-15)
    assert learn.ipr(np.array([1e100, 2e100, 0.0])) == pytest.approx(want, rel=1e-15)
    assert learn._max_ipr(np.array([[1e100, 2e100, 0.0], [1.0, 0.0, 0.0]])) == 1.0
    assert learn._max_ipr(np.array([[1e100, 2e100, 0.0], [1.0, 1.0, 1.0]])) == pytest.approx(
        want, rel=1e-15)
    # the rows that are not rescaled keep their bits
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
    kwargs = dict(TRAIN, epochs=5, batch_size=32, seed=11)
    curves1, net1 = learn.train_2lnn(data, test, u, **kwargs)
    curves2, net2 = learn.train_2lnn(data, test, u, **kwargs)
    assert curves1["test_acc"] == curves2["test_acc"]
    assert curves1["max_overlap"] == curves2["max_overlap"]
    assert np.array_equal(net1.W, net2.W) and np.array_equal(net1.v, net2.v)


def test_train_shuffled_labels_at_chance():
    data, u = wishart_data(12, 300, 5.0, seed=7)
    rng = np.random.default_rng(8)
    data.labels = rng.permutation(data.labels)
    test, _ = wishart_data(12, 800, 5.0, seed=9)
    test.labels = rng.permutation(test.labels)
    curves, _ = learn.train_2lnn(data, test, u, **dict(TRAIN, epochs=10, batch_size=32, seed=12))
    se = 0.5 / np.sqrt(2 * 800)
    assert abs(curves["test_acc"][-1] - 0.5) < 4 * se


def test_early_stop_is_max_over_epochs(monkeypatch, tmp_path):
    # train-sweep records the best test accuracy over the epochs
    monkeypatch.delenv("CUMLAB_SEED", raising=False)
    runs, train_2lnn = [], learn.train_2lnn

    def recorded(*args, **kwargs):
        runs.append(train_2lnn(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(learn, "train_2lnn", recorded)
    cfg = cli._validate({"experiment": "train-sweep", "task": "spiked_wishart", "d": 10,
                         "n_per_class": 200, "n_test_per_class": 400, "beta": 5.0, "rf": False,
                         "train": {"epochs": 8}})
    (point, run), = cfg.tasks
    result = cli._run_task((0, cfg.experiment, cfg.values, point, run, cfg.seed, str(tmp_path)))
    assert result.error is None
    (curves, _), = runs
    assert len(curves["test_acc"]) == 8
    assert result.metrics["nn_early_stop_acc"] == max(curves["test_acc"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_epoch():
    data, u = wishart_data(8, 120, 5.0, seed=13)
    kwargs = dict(TRAIN, learning_rate=50.0, epochs=10, batch_size=8, seed=2)
    with pytest.raises(learn.DivergenceError, match="epoch"):
        learn.train_2lnn(data, data, u, **kwargs)


def test_train_refuses_alpha_below_one():
    data, u = wishart_data(8, 20, 5.0, seed=13)
    with pytest.raises(ValueError, match="alpha_lazy must be >= 1"):
        learn.train_2lnn(data, data, u, **dict(TRAIN, alpha_lazy=0.5, epochs=1, seed=2))


def test_train_and_rf_refuse_bad_arguments():
    data, u = wishart_data(8, 20, 5.0, seed=13)
    test, _ = wishart_data(9, 20, 5.0, seed=14)
    with pytest.raises(ValueError, match="train/test dimensions differ"):
        learn.train_2lnn(data, test, u, **dict(TRAIN, epochs=1, seed=2))
    for ridge in (0.0, -1.0):
        with pytest.raises(ValueError, match="ridge regulariser must be positive"):
            learn.fit_random_features(data, data, 40, ridge, 3)


def test_centred_forward_and_alpha_scaling():
    # each epoch's test accuracy is the sign readout of the plain network at
    # alpha = 1 and of phi - phi0 against the initial network otherwise
    # (the sign of alpha * (phi - phi0)), exactly as net.forward computes them
    data, u = wishart_data(8, 60, 5.0, seed=19)
    test, _ = wishart_data(8, 200, 5.0, seed=20)
    for alpha in (1.0, 10.0):
        kwargs = dict(TRAIN, alpha_lazy=alpha, epochs=3, batch_size=16, seed=9)
        curves, net = learn.train_2lnn(data, test, u, **kwargs)
        net0 = learn.init_network(8, TRAIN["width_factor"] * 8, generator(9, "train2lnn"))
        out = net.forward(test.values)
        if alpha != 1.0:
            out = out - net0.forward(test.values)
        assert curves["test_acc"][-1] == float(np.mean(np.sign(out) == test.labels))


@pytest.mark.parametrize("alpha", [1.0, 10.0])
def test_forward_is_bit_equal_to_one_expression(alpha):
    # forward works a block of rows at a time and gives the bits of the
    # expression written out in full over all rows at once, in the lazy
    # run's centred readout phi - phi0 too: on one row, on one block, on a
    # block and one row (the row joins the block) and on 4000 rows.  Width
    # 205 is there because blocks of 256 rows, a multiple of 64 but not of
    # 192, gave other bits than the whole product at that width
    rng = generator(21, "forward")

    def expression(n, Xn):
        return np.maximum(Xn @ n.W.T + n.b, 0.0) @ n.v + n.c

    for d, m in ((32, 160), (41, 205)):
        X = rng.standard_normal((4000, d))
        net0 = learn.init_network(d, m, rng)
        net = copy.deepcopy(net0)
        net.W += 0.1 * rng.standard_normal(net.W.shape)
        net.b = 0.1 * rng.standard_normal(m)
        net.c = float(rng.standard_normal())
        align = _kernels._ROW_ALIGN
        block = max(1, _kernels._BLOCK_VALUES // m // align) * align
        assert 1 < block < 4000
        for rows in (1, block, block + 1, 4000):
            Xn = X[:rows]
            out, want = net.forward(Xn), expression(net, Xn)
            if alpha != 1.0:
                out, want = out - net0.forward(Xn), want - expression(net0, Xn)
            assert np.array_equal(out, want), (m, rows)


def test_forward_working_set_stays_small():
    # one (20000, 160) hidden array takes 25.6 MB; the block buffer stays
    # under 1 MB
    rng = generator(22, "forward")
    d, m = 32, 160
    X = rng.standard_normal((20000, d))
    net = learn.init_network(d, m, rng)
    peak = traced_peak(lambda: net.forward(X))
    assert peak < 2_000_000


def test_gradients_match_finite_differences():
    # one full-batch step of the SGD kernel at lr = 1 moves every parameter
    # by its loss gradient, plus weight decay on W and v; at alpha 10 the
    # kernel steps on the shifted targets y/alpha + phi0 and the loss is the
    # centred alpha^-2 (alpha (phi - phi0) - y)^2, which checks their identity
    rng = generator(77, "fd")
    n, d, m, wd = 12, 5, 8, 0.01
    X = rng.standard_normal((n, d))
    y = np.sign(rng.standard_normal(n))
    for alpha in (1.0, 10.0):
        net = learn.init_network(d, m, rng)
        net0 = copy.deepcopy(net)
        net.W += 0.05 * rng.standard_normal(net.W.shape)  # move off kinks
        after = copy.deepcopy(net)
        targets = y if alpha == 1.0 else y / alpha + net0.forward(X)
        after.c = _kernels.sgd_epoch(
            after.W, after.b, after.v, after.c, X, targets, np.arange(n), n, 1.0, wd,
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
                probe = copy.deepcopy(net)
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


def test_lazy_run_is_plain_sgd_on_shifted_targets():
    # train_2lnn at alpha 10 is a loop of sgd_epoch on y/alpha + phi0(X) with
    # the same permutations, and reads out the sign of phi - phi0
    data, u = wishart_data(8, 60, 5.0, seed=21)
    test, _ = wishart_data(8, 200, 5.0, seed=22)
    alpha = 10.0
    kwargs = dict(TRAIN, alpha_lazy=alpha, epochs=4, batch_size=16, seed=3)
    curves, net = learn.train_2lnn(data, test, u, **kwargs)
    rng = generator(3, "train2lnn")
    ref = learn.init_network(8, TRAIN["width_factor"] * 8, rng)
    net0 = copy.deepcopy(ref)
    targets = data.labels / alpha + net0.forward(data.values)
    acc = []
    for _ in range(4):
        ref.c = _kernels.sgd_epoch(
            ref.W, ref.b, ref.v, ref.c, data.values, targets, rng.permutation(len(targets)),
            16, TRAIN["learning_rate"], TRAIN["weight_decay"],
        )
        out = ref.forward(test.values) - net0.forward(test.values)
        acc.append(float(np.mean(np.sign(out) == test.labels)))
    np.testing.assert_array_equal(net.W, ref.W)
    np.testing.assert_array_equal(net.b, ref.b)
    np.testing.assert_array_equal(net.v, ref.v)
    assert net.c == ref.c
    assert curves["test_acc"] == acc


def test_lazy_alpha_runs_use_centred_path():
    d = 8
    u = datagen.draw_spike(d, np.random.default_rng(20))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=10.0,
                             g_dist=RADEM, spike=u)
    train = datagen.make_dataset(spec, 10 * d, 31)
    test = datagen.make_dataset(spec, 1000, 32)
    kwargs = dict(TRAIN, alpha_lazy=100.0, epochs=15, batch_size=32, seed=5)
    curves, _ = learn.train_2lnn(train, test, u, **kwargs)
    # the laziest network cannot learn this task in the linear regime
    se = 0.5 / np.sqrt(2 * 1000)
    assert abs(curves["test_acc"][-1] - 0.5) < 5 * se + 0.02


def test_rf_duplication_invariance():
    data, u = wishart_data(10, 120, 5.0, seed=14)
    test, _ = wishart_data(10, 500, 5.0, seed=15)
    doubled = datagen.DataMatrix(
        values=np.vstack([data.values, data.values]),
        labels=np.concatenate([data.labels, data.labels]),
    )
    acc1 = learn.fit_random_features(data, test, 50, 0.1, 3)
    acc2 = learn.fit_random_features(doubled, test, 50, 0.2, 3)
    assert acc1 == acc2


def test_rf_readout_matches_cholesky_reference():
    from scipy.linalg import cho_factor, cho_solve

    data, _ = wishart_data(16, 300, 5.0, seed=29)
    test, _ = wishart_data(16, 1000, 5.0, seed=30)
    width, ridge, seed = 80, 0.1, 31
    F = generator(seed, "rf").standard_normal((width, 16)) / np.sqrt(16)
    phi_tr = np.maximum(data.values @ F.T, 0.0)
    gram = phi_tr.T @ phi_tr + ridge * np.eye(width)
    w = cho_solve(cho_factor(gram), phi_tr.T @ data.labels)
    ref = float(np.mean(np.sign(np.maximum(test.values @ F.T, 0.0) @ w) == test.labels))
    assert learn.fit_random_features(data, test, width, ridge, seed) == ref


@pytest.mark.parametrize("n_train, n_test", [(320, 4000), (800, 4000), (320, 4001), (100, 385),
                                              (100, 1)])
def test_rf_accuracy_matches_whole_array_expression(n_train, n_test):
    # the train-wishart shape (d 32, width 160, 4,000 test rows) and ragged
    # test counts (a block of 384 rows and one more, one row): scoring through
    # the blocked forward pass gives the accuracy of the whole feature array
    d, width, ridge, seed = 32, 160, 0.1, 31
    data, _ = wishart_data(d, n_train, 5.0, seed=32)
    full, _ = wishart_data(d, (n_test + 1) // 2, 5.0, seed=33)
    test = datagen.DataMatrix(values=full.values[:n_test], labels=full.labels[:n_test])
    F = generator(seed, "rf").standard_normal((width, d)) / np.sqrt(d)
    phi = np.maximum(data.values @ F.T, 0.0)
    w = np.linalg.solve(phi.T @ phi + ridge * np.eye(width), phi.T @ data.labels)
    want = float(np.mean(np.sign(np.maximum(test.values @ F.T, 0.0) @ w) == test.labels))
    assert learn.fit_random_features(data, test, width, ridge, seed) == want


def test_rf_working_set_holds_no_test_feature_array():
    # at 20,000 test rows and width 160 one (rows, width) feature array takes
    # 25.6 MB, and scoring the whole array made two; the blocked test pass
    # keeps the peak under the training features plus 1 MB
    d, width, n_train = 32, 160, 320
    data, _ = wishart_data(d, n_train, 5.0, seed=34)
    test, _ = wishart_data(d, 10_000, 5.0, seed=35)
    peak = traced_peak(lambda: learn.fit_random_features(data, test, width, 0.1, 36))
    assert peak < 2 * n_train * width * 8 + 1_000_000, peak


def test_strong_signal_wishart_run():
    # large SNR: the network should solve the task and lock onto the spike
    d, beta = 32, 100.0
    u = datagen.draw_spike(d, np.random.default_rng(40))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=d, beta=beta, spike=u)
    train = datagen.make_dataset(spec, 50 * d, 41)
    test = datagen.make_dataset(spec, 2000, 42)
    curves, _ = learn.train_2lnn(train, test, u, **dict(TRAIN, epochs=50, batch_size=8, seed=43))
    assert max(curves["test_acc"]) > 0.8
    assert curves["max_overlap"][-1] > 0.7


def test_rf_learns_wishart_variance_signal():
    # quadratic-regime smoke check at small scale
    data, u = wishart_data(12, 600, 20.0, seed=16)
    test, _ = wishart_data(12, 1500, 20.0, seed=17)
    acc = learn.fit_random_features(data, test, 60, 0.1, 4)
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
    acc = learn.fit_random_features(train, test, 5 * d, 0.1, 24)
    se = 0.5 / np.sqrt(2 * 2000)
    assert abs(acc - 0.5) < 3 * se


def test_rf_learns_wishart_at_quadratic_complexity():
    d, beta = 24, 5.0
    data, _ = wishart_data(d, d * d, beta, seed=25, spike_seed=26)
    test, _ = wishart_data(d, 2000, beta, seed=27, spike_seed=26)
    acc = learn.fit_random_features(data, test, 5 * d, 0.1, 28)
    assert acc > 0.55


def test_train_2lnn_records_one_value_per_epoch():
    data, u = wishart_data(8, 80, 5.0, seed=18)
    curves, _ = learn.train_2lnn(data, data, u, **dict(TRAIN, epochs=3, seed=6))
    assert {name: len(curve) for name, curve in curves.items()} == {
        "test_acc": 3, "max_overlap": 3, "max_ipr": 3}
