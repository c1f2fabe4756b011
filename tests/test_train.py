"""Loss, gradients, Adam, and the training loop on hand-checkable cases."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from gaflearn.errors import ConfigError, GafError, InputShapeError
from gaflearn.graph import GafStructure, output_distributions
from gaflearn.train import (
    AdamState,
    MaskedNet,
    TrainConfig,
    TrainingHistory,
    accuracy,
    adam_step,
    forward_loss,
    gradients,
    to_classifier,
    train,
    train_population,
)
from gaflearn.util import log_sum_exp


def zero_net(layer_sizes):
    structure = GafStructure.fully_connected(layer_sizes)
    weights = [np.zeros(m.shape) for _, _, m in structure.blocks]
    biases = [np.zeros(s) for s in layer_sizes[1:]]
    return MaskedNet(structure, weights, biases)


def test_uniform_prediction_loss_is_log_n_classes():
    net = zero_net([2, 3])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, probs = forward_loss(net, x, np.array([0, 2]))
    assert abs(loss - math.log(3)) < 1e-12
    assert np.allclose(probs, 1 / 3, rtol=0, atol=1e-12)


def test_near_certain_prediction_has_near_zero_loss():
    structure = GafStructure.fully_connected([1, 2])
    net = MaskedNet(structure, [np.array([[30.0, -30.0]])], [np.zeros(2)])
    loss, _ = forward_loss(net, np.array([[1.0]]), np.array([0]))
    assert 0 <= loss < 1e-9


def test_batch_loss_is_mean_of_instance_losses():
    rng = np.random.default_rng(0)
    structure = GafStructure.fully_connected([3, 4, 2])
    net = MaskedNet.initialize(structure, rng)
    x = rng.uniform(size=(2, 3))
    y = np.array([0, 1])
    la, _ = forward_loss(net, x[:1], y[:1])
    lb, _ = forward_loss(net, x[1:], y[1:])
    lab, _ = forward_loss(net, x, y)
    assert abs(lab - (la + lb) / 2) < 1e-12


def test_output_bias_gradients_sum_to_zero():
    net = zero_net([2, 4])
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([0, 1, 2, 3])  # balanced
    _, _, grad_b = gradients(net, x, y)
    # balanced labels and uniform outputs: gradient vanishes per class
    assert np.allclose(grad_b[-1], 0.0, rtol=0, atol=1e-12)
    # and the softmax rows always sum to zero across classes
    _, _, grad_b2 = gradients(net, x, np.array([0, 0, 1, 2]))
    assert abs(grad_b2[-1].sum()) < 1e-12


def random_net(rng, allow_skip=True):
    n_in = int(rng.integers(1, 7))
    n_out = int(rng.integers(2, 4))
    n_hidden = int(rng.integers(0, 5))
    if n_hidden == 0:
        sizes = (n_in, n_out)
    else:
        sizes = (n_in, n_hidden, n_out)
    blocks = []
    for i in range(len(sizes) - 1):
        mask = rng.uniform(size=(sizes[i], sizes[i + 1])) < 0.8
        blocks.append((i, i + 1, mask))
    if allow_skip and len(sizes) == 3 and rng.uniform() < 0.3:
        blocks.append((0, 2, rng.uniform(size=(sizes[0], sizes[2])) < 0.5))
    structure = GafStructure(sizes, tuple(blocks))
    weights = [rng.uniform(-2, 2, size=m.shape) * m for _, _, m in structure.blocks]
    biases = [rng.uniform(-2, 2, size=s) for s in sizes[1:]]
    return MaskedNet(structure, weights, biases)


def finite_difference_check(net, x, y, h=1e-5):
    """Max guarded relative error between analytic and central-difference grads."""
    _, grad_w, grad_b = gradients(net, x, y)
    worst = 0.0
    for bi, (_, _, mask) in enumerate(net.structure.blocks):
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if not mask[i, j]:
                    assert grad_w[bi][i, j] == 0.0
                    continue
                orig = net.weights[bi][i, j]
                net.weights[bi][i, j] = orig + h
                lp, _ = forward_loss(net, x, y)
                net.weights[bi][i, j] = orig - h
                lm, _ = forward_loss(net, x, y)
                net.weights[bi][i, j] = orig
                fd = (lp - lm) / (2 * h)
                a = grad_w[bi][i, j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    for li in range(len(net.biases)):
        for j in range(net.biases[li].shape[0]):
            orig = net.biases[li][j]
            net.biases[li][j] = orig + h
            lp, _ = forward_loss(net, x, y)
            net.biases[li][j] = orig - h
            lm, _ = forward_loss(net, x, y)
            net.biases[li][j] = orig
            fd = (lp - lm) / (2 * h)
            a = grad_b[li][j]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(314)
    for _ in range(25):
        net = random_net(rng)
        n_in = net.structure.layer_sizes[0]
        n_out = net.structure.layer_sizes[-1]
        x = rng.uniform(size=(int(rng.integers(1, 8)), n_in))
        y = rng.integers(0, n_out, size=x.shape[0])
        assert finite_difference_check(net, x, y) < 1e-4


def random_stack(rng, n_nets=3):
    """Nets of one random layout (some with a skip block) and their stack."""
    first = random_net(rng)
    layout = first.structure
    nets = [first]
    for _ in range(n_nets - 1):
        blocks = tuple((s, d, rng.uniform(size=m.shape) < 0.7) for s, d, m in layout.blocks)
        structure = GafStructure(layout.layer_sizes, blocks)
        weights = [rng.uniform(-2, 2, size=m.shape) * m for _, _, m in blocks]
        biases = [rng.uniform(-2, 2, size=s) for s in layout.layer_sizes[1:]]
        nets.append(MaskedNet(structure, weights, biases))
    return nets, MaskedNet.stack(nets)


def test_stacked_gradients_match_each_slice_and_finite_differences():
    rng = np.random.default_rng(2718)
    h = 1e-5
    for _ in range(10):
        nets, stack = random_stack(rng)
        sizes = stack.structure.layer_sizes
        x = rng.uniform(size=(3, int(rng.integers(1, 8)), sizes[0]))
        y = rng.integers(0, sizes[-1], size=x.shape[:2])
        loss, grad_w, grad_b = gradients(stack, x, y)
        # a shared input batch broadcasts over the stack
        shared_loss, shared_w, shared_b = gradients(stack, x[0], y[0])
        for k, net in enumerate(nets):
            alone_loss, alone_w, alone_b = gradients(net, x[k], y[k])
            assert loss[k] == alone_loss
            assert all(np.array_equal(g[k], a) for g, a in zip(grad_w + grad_b, alone_w + alone_b))
            first_loss, first_w, first_b = gradients(net, x[0], y[0])
            assert shared_loss[k] == first_loss
            assert all(np.array_equal(g[k], a) for g, a in zip(shared_w + shared_b, first_w + first_b))

        # criterion 1's check, on every slice of the stacked net
        worst = 0.0
        params = stack.weights + stack.biases
        masks = stack.masks + [np.ones(b.shape, dtype=bool) for b in stack.biases]
        for p, g, mask in zip(params, grad_w + grad_b, masks):
            for index in zip(*np.nonzero(mask)):
                orig = p[index]
                p[index] = orig + h
                lp, _ = forward_loss(stack, x, y)
                p[index] = orig - h
                lm, _ = forward_loss(stack, x, y)
                p[index] = orig
                k = index[0]
                fd = (lp[k] - lm[k]) / (2 * h)
                worst = max(worst, abs(g[index] - fd) / max(abs(g[index]), abs(fd), 1e-6))
            assert (g[~mask] == 0.0).all()
        assert worst < 1e-4


def test_log_sum_exp_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(3000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        kind = trial % 3
        if kind == 0:  # random, from tiny to huge magnitudes
            z = rng.normal(size=shape) * 10.0 ** float(rng.integers(-300, 308))
        elif kind == 1:  # many tied maxima
            z = rng.integers(-2, 3, size=shape).astype(np.float64)
        else:  # +/-inf entries, including rows of only -inf
            z = rng.normal(0.0, 3.0, size=shape)
            u = rng.uniform(size=shape)
            z[u < 0.25] = -np.inf
            z[u > 0.85] = np.inf
            z[int(rng.integers(shape[0]))] = -np.inf
        expected = logsumexp(z, axis=1)
        got = log_sum_exp(z)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), z


def test_adam_first_step_moves_by_learning_rate():
    params = [np.array([1.0, -2.0])]
    grads = [np.array([0.5, -0.25])]
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, t=1, learning_rate=0.01)
    # bias-corrected first step: lr * g / (|g| + eps), i.e. about lr * sign(g)
    expected = np.array(
        [1.0 - 0.01 * 0.5 / (0.5 + 1e-8), -2.0 + 0.01 * 0.25 / (0.25 + 1e-8)]
    )
    assert np.allclose(params[0], expected, rtol=0, atol=1e-15)


def test_adam_zero_gradient_is_a_no_op():
    params = [np.array([3.0, -1.0])]
    state = AdamState.zeros_like(params)
    adam_step(params, [np.zeros(2)], state, t=1, learning_rate=0.5)
    assert np.array_equal(params[0], [3.0, -1.0])


def test_adam_is_deterministic():
    def run():
        params = [np.array([[1.0, 2.0]]), np.array([0.5])]
        state = AdamState.zeros_like(params)
        for t in range(1, 6):
            adam_step(params, [np.array([[0.3, -0.7]]), np.array([0.9])], state, t, 0.05)
        return params

    a, b = run(), run()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def separable_toy():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    y = x[:, 0].astype(np.int64)
    return x, y


def three_class_task(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, 4)).astype(np.float64)
    y = (x[:, 0] + x[:, 1] + x[:, 2] * rng.uniform(size=n)).astype(np.int64)
    return x, y


def reference_train(structure, x, y, xv, yv, config):
    """The per-structure training loop, written with the single-net kernels."""
    rng = np.random.default_rng(config.seed)
    net = MaskedNet.initialize(structure, rng)
    params = net.weights + net.biases
    state = AdamState.zeros_like(params)
    n = x.shape[0]
    batch = config.batch_size if 0 < config.batch_size < n else n
    history = TrainingHistory()
    best_loss, best, best_epoch, stall, step = np.inf, None, 0, 0, 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n) if batch < n else np.arange(n)
        losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grad_w, grad_b = gradients(net, x[idx], y[idx])
            losses.append(loss)
            step += 1
            adam_step(params, grad_w + grad_b, state, step, config.learning_rate)
        val_loss, _ = forward_loss(net, xv, yv)
        history.train_loss.append(float(np.mean(losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(accuracy(net, xv, yv))
        stall = 0 if epoch == 1 or val_loss < best_loss - config.es_tolerance else stall + 1
        if epoch == 1 or val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            best = [w.copy() for w in net.weights], [b.copy() for b in net.biases]
        if stall >= config.es_patience:
            break
    net.set_params(*best)
    return net, history, best_epoch


@pytest.mark.parametrize(
    "batch_size, es_patience",
    [(0, 60), (0, 3), (16, 60), (16, 3), (7, 2)],
)
def test_train_population_equals_training_each_structure_alone(batch_size, es_patience):
    rng = np.random.default_rng(batch_size * 100 + es_patience)
    sizes = (4, 5, 3)
    x, y = three_class_task(seed=11, n=70)
    xv, yv = three_class_task(seed=12, n=30)
    structures = [
        GafStructure(sizes, tuple(
            (i, i + 1, rng.uniform(size=(sizes[i], sizes[i + 1])) < 0.6) for i in range(2)
        ))
        for _ in range(8)
    ]
    seeds = [int(s) for s in rng.integers(1 << 40, size=len(structures))]
    config = TrainConfig(learning_rate=0.1, max_epochs=60, es_patience=es_patience,
                         es_tolerance=1e-3, batch_size=batch_size)
    together = train_population(structures, x, y, xv, yv, config, seeds)
    for structure, seed, result in zip(structures, seeds, together):
        alone = train(structure, x, y, xv, yv, replace(config, seed=seed))
        net, history, best_epoch = reference_train(structure, x, y, xv, yv, replace(config, seed=seed))
        for other in (alone.net, net):
            for p, q in zip(result.net.weights + result.net.biases, other.weights + other.biases):
                assert np.array_equal(p, q)
        assert result.history == alone.history == history
        assert result.epochs_run == alone.epochs_run == len(history.val_loss)
        assert result.best_epoch == alone.best_epoch == best_epoch
        assert result.seed == alone.seed == seed
    if es_patience < 10:  # individuals stop at different epochs, so the stack shrank
        assert len({r.epochs_run for r in together}) > 1


def test_train_population_rejects_mixed_layouts():
    x, y = separable_toy()
    config = TrainConfig(learning_rate=0.1, max_epochs=2)
    two = [GafStructure.fully_connected([2, 2]), GafStructure.fully_connected([2, 3, 2])]
    with pytest.raises(InputShapeError, match="share layer sizes"):
        train_population(two, x, y, x, y, config, [1, 2])
    with pytest.raises(ConfigError, match="seeds"):
        train_population(two[:1], x, y, x, y, config, [1, 2])


def test_diverged_training_fails_loudly():
    x, y = noisy_task()
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=1e308, max_epochs=20, es_patience=20)
    with pytest.raises(GafError, match=r"individual 0 \(seed 0\) diverged at epoch \d+"):
        train(structure, x, y, x, y, config)


def test_training_solves_separable_toy_without_hidden_layer():
    x, y = separable_toy()
    structure = GafStructure.fully_connected([2, 2])
    config = TrainConfig(learning_rate=0.1, max_epochs=200, es_patience=200, es_tolerance=0.0)
    result = train(structure, x, y, x, y, config)
    assert accuracy(result.net, x, y) == 1.0


def test_immediate_early_stop_runs_exactly_two_epochs():
    x, y = separable_toy()
    structure = GafStructure.fully_connected([2, 2])
    config = TrainConfig(
        learning_rate=0.05, max_epochs=50, es_patience=1, es_tolerance=float("inf")
    )
    result = train(structure, x, y, x, y, config)
    assert result.epochs_run == 2


def noisy_task(seed=1, n=60):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, 4)).astype(np.float64)
    y = ((x[:, 0] + x[:, 1] + rng.uniform(size=n) > 1.2)).astype(np.int64)
    return x, y


def test_best_epoch_parameters_are_restored():
    x, y = noisy_task()
    xv, yv = noisy_task(seed=2, n=30)
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=0.2, max_epochs=60, es_patience=5, es_tolerance=1e-4)
    result = train(structure, x, y, xv, yv, config)
    assert result.epochs_run == len(result.history.val_loss)
    assert result.epochs_run == len(result.history.train_loss)
    restored_loss, _ = forward_loss(result.net, xv, yv)
    assert abs(restored_loss - min(result.history.val_loss)) < 1e-12
    assert result.best_epoch == 1 + int(np.argmin(result.history.val_loss))
    assert all(math.isfinite(v) and v >= 0 for v in result.history.train_loss)
    assert all(math.isfinite(v) and v >= 0 for v in result.history.val_loss)


def test_training_is_deterministic_under_seed():
    x, y = noisy_task()
    xv, yv = noisy_task(seed=5, n=20)
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=0.1, max_epochs=30, es_patience=30, es_tolerance=0.0,
                         batch_size=16, seed=99)
    a = train(structure, x, y, xv, yv, config)
    b = train(structure, x, y, xv, yv, config)
    assert a.history.val_loss == b.history.val_loss
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.net.weights, b.net.weights))
    c = train(structure, x, y, xv, yv, TrainConfig(
        learning_rate=0.1, max_epochs=30, es_patience=30, es_tolerance=0.0,
        batch_size=16, seed=100))
    assert a.history.train_loss[0] != c.history.train_loss[0]


def test_masked_positions_stay_zero_through_training():
    x, y = noisy_task(seed=3)
    mask01 = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=bool)
    mask12 = np.array([[1, 1], [0, 1], [1, 0]], dtype=bool)
    structure = GafStructure((4, 3, 2), ((0, 1, mask01), (1, 2, mask12)))
    config = TrainConfig(learning_rate=0.1, max_epochs=40, es_patience=40, es_tolerance=0.0)
    result = train(structure, x, y, x, y, config)
    assert (result.net.weights[0][~mask01] == 0.0).all()
    assert (result.net.weights[1][~mask12] == 0.0).all()
    _, grad_w, _ = gradients(result.net, x, y)
    assert (grad_w[0][~mask01] == 0.0).all()


def test_empty_splits_are_rejected():
    structure = GafStructure.fully_connected([2, 2])
    config = TrainConfig(learning_rate=0.1)
    empty = np.zeros((0, 2))
    x, y = separable_toy()
    with pytest.raises(ConfigError, match="training split"):
        train(structure, empty, np.zeros(0, np.int64), x, y, config)
    with pytest.raises(ConfigError, match="validation split"):
        train(structure, x, y, empty, np.zeros(0, np.int64), config)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, es_patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, es_tolerance=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=-1)


def test_classifier_assembly_matches_net_predictions():
    x, y = noisy_task(seed=7)
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=0.1, max_epochs=25, es_patience=25, es_tolerance=0.0)
    result = train(structure, x, y, x, y, config)
    gaf = to_classifier(result, ["f0", "f1", "f2", "f3"], ["no", "yes"])
    assert gaf.class_labels == ("no", "yes")
    assert [a.name for a in gaf.input_arguments()] == ["f0", "f1", "f2", "f3"]
    for arg in gaf.arguments()[4:]:
        assert 1e-6 <= arg.base_score <= 1 - 1e-6
    # graph evaluation agrees with the net (up to the base-score round trip)
    assert np.allclose(
        output_distributions(gaf, x), result.net.predict_proba(x), rtol=0, atol=1e-9
    )
    # and is bit-identical when the net is rebuilt from the graph itself
    rebuilt = MaskedNet.from_gaf(gaf)
    assert np.array_equal(output_distributions(gaf, x), rebuilt.predict_proba(x))
