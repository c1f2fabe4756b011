"""Loss, gradients, Adam, and the training loop on hand-checkable cases."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gaflearn.errors import ConfigError, GafError, InputShapeError
from gaflearn.graph import GafStructure, live_units, output_distributions
from gaflearn.train import (
    MaskedNet,
    TrainConfig,
    _pick,
    _slab,
    _cross_entropy,
    _views,
    adam_step,
    gradients,
    to_classifier,
    train,
    train_population,
)
from gaflearn.util import last_axis_sum, log_sum_exp, softmax_rows


def zero_net(layer_sizes):
    structure = GafStructure.fully_connected(layer_sizes)
    weights = [np.zeros(m.shape) for _, _, m in structure.blocks]
    biases = [np.zeros(s) for s in layer_sizes[1:]]
    return MaskedNet(structure, weights, biases)


def test_uniform_prediction_loss_is_log_n_classes():
    net = zero_net([2, 3])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, z = net.forward(x)
    loss = _cross_entropy(z, np.array([0, 2]))
    assert abs(loss - math.log(3)) < 1e-12
    assert np.allclose(softmax_rows(z), 1 / 3, rtol=0, atol=1e-12)


def test_near_certain_prediction_has_near_zero_loss():
    structure = GafStructure.fully_connected([1, 2])
    net = MaskedNet(structure, [np.array([[30.0, -30.0]])], [np.zeros(2)])
    loss = _cross_entropy(net.forward(np.array([[1.0]]))[1], np.array([0]))
    assert 0 <= loss < 1e-9


def test_batch_loss_is_mean_of_instance_losses():
    rng = np.random.default_rng(0)
    structure = GafStructure.fully_connected([3, 4, 2])
    net = MaskedNet.initialize(structure, rng)
    x = rng.uniform(size=(2, 3))
    y = np.array([0, 1])
    la = _cross_entropy(net.forward(x[:1])[1], y[:1])
    lb = _cross_entropy(net.forward(x[1:])[1], y[1:])
    lab = _cross_entropy(net.forward(x)[1], y)
    assert abs(lab - (la + lb) / 2) < 1e-12


def test_output_bias_gradients_sum_to_zero():
    net = zero_net([2, 4])
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([0, 1, 2, 3])  # balanced
    _, grad_b = gradients(net, x, y)
    # balanced labels and uniform outputs: gradient vanishes per class
    assert np.allclose(grad_b[-1], 0.0, rtol=0, atol=1e-12)
    # and the softmax rows always sum to zero across classes
    _, grad_b2 = gradients(net, x, np.array([0, 0, 1, 2]))
    assert abs(grad_b2[-1].sum()) < 1e-12


@pytest.mark.parametrize("stacked", [False, True], ids=["one-net", "stack"])
def test_gradients_refuse_bad_labels(stacked):
    net = zero_net([2, 3])
    if stacked:
        net = MaskedNet.stack([net, zero_net([2, 3])])
    x = np.ones((4, 2))
    for y in ([0, 1, 2, 3], [0, -1, 1, 2], [0, 0.5, 1, 2], [0, 1, 2], [[0, 1, 2, 0]] * 3):
        with pytest.raises(InputShapeError, match="class indices"):
            gradients(net, x, np.array(y))


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
    grad_w, grad_b = gradients(net, x, y)
    worst = 0.0
    for bi, (_, _, mask) in enumerate(net.structure.blocks):
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if not mask[i, j]:
                    assert grad_w[bi][i, j] == 0.0
                    continue
                orig = net.weights[bi][i, j]
                net.weights[bi][i, j] = orig + h
                lp = _cross_entropy(net.forward(x)[1], y)
                net.weights[bi][i, j] = orig - h
                lm = _cross_entropy(net.forward(x)[1], y)
                net.weights[bi][i, j] = orig
                fd = (lp - lm) / (2 * h)
                a = grad_w[bi][i, j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    for li in range(len(net.biases)):
        for j in range(net.biases[li].shape[0]):
            orig = net.biases[li][j]
            net.biases[li][j] = orig + h
            lp = _cross_entropy(net.forward(x)[1], y)
            net.biases[li][j] = orig - h
            lm = _cross_entropy(net.forward(x)[1], y)
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
        grad_w, grad_b = gradients(stack, x, y)
        loss = _cross_entropy(stack.forward(x)[1], y)
        # a shared input batch broadcasts over the stack
        shared_w, shared_b = gradients(stack, x[0], y[0])
        shared_loss = _cross_entropy(stack.forward(x[0])[1], y[0])
        for k, net in enumerate(nets):
            alone_w, alone_b = gradients(net, x[k], y[k])
            assert loss[k] == _cross_entropy(net.forward(x[k])[1], y[k])
            assert all(np.array_equal(g[k], a) for g, a in zip(grad_w + grad_b, alone_w + alone_b))
            first_w, first_b = gradients(net, x[0], y[0])
            assert shared_loss[k] == _cross_entropy(net.forward(x[0])[1], y[0])
            assert all(np.array_equal(g[k], a) for g, a in zip(shared_w + shared_b, first_w + first_b))

        # criterion 1's check, on every slice of the stacked net
        worst = 0.0
        params = stack.weights + stack.biases
        masks = stack.masks + [np.ones(b.shape, dtype=bool) for b in stack.biases]
        for p, g, mask in zip(params, grad_w + grad_b, masks):
            for index in zip(*np.nonzero(mask)):
                orig = p[index]
                p[index] = orig + h
                lp = _cross_entropy(stack.forward(x)[1], y)
                p[index] = orig - h
                lm = _cross_entropy(stack.forward(x)[1], y)
                p[index] = orig
                k = index[0]
                fd = (lp[k] - lm[k]) / (2 * h)
                worst = max(worst, abs(g[index] - fd) / max(abs(g[index]), abs(fd), 1e-6))
            assert (g[~mask] == 0.0).all()
        assert worst < 1e-4


def class_axis_cases(seed, trials, stacked=False):
    """Matrices with 1-12 classes, or stacks of them: random magnitudes, ties,
    +/-inf and NaN rows."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        # from width 8 on, numpy sums the class axis pairwise
        lead = (int(rng.integers(1, 4)),) if stacked else ()
        shape = lead + (int(rng.integers(1, 6)), int(rng.integers(1, 13)))
        kind = trial % 4
        if kind == 0:  # random, from tiny to huge magnitudes
            z = rng.normal(size=shape) * 10.0 ** float(rng.integers(-300, 308))
        elif kind == 1:  # many tied maxima
            z = rng.integers(-2, 3, size=shape).astype(np.float64)
        elif kind == 2:  # +/-inf entries, including rows of only -inf
            z = rng.normal(0.0, 3.0, size=shape)
            u = rng.uniform(size=shape)
            z[u < 0.25] = -np.inf
            z[u > 0.85] = np.inf
            z[..., int(rng.integers(shape[-2])), :] = -np.inf
        else:  # NaN entries, including rows of only NaN
            z = rng.normal(0.0, 3.0, size=shape)
            z[rng.uniform(size=shape) < 0.3] = np.nan
            z[..., int(rng.integers(shape[-2])), :] = np.nan
        yield z


def same_floats(got, expected):
    """Equal shapes, NaN in the same places, and equal bytes everywhere else."""
    nan = np.isnan(expected)
    return (
        got.shape == expected.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == expected[~nan].tobytes()
    )


def test_log_sum_exp_equals_scipy_bit_for_bit():
    with np.errstate(invalid="ignore"):
        for z in class_axis_cases(11, 4000):
            assert same_floats(log_sum_exp(z), logsumexp(z, axis=1)), z


def reference_softmax(z):
    """The former softmax_rows: a row loop where z holds +/-inf, else inline."""
    if not np.isinf(z).any():
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    out = np.empty_like(z)
    for i in np.ndindex(z.shape[:-1]):
        row = z[i]
        pos = np.isposinf(row)
        if pos.any():
            out[i] = pos / pos.sum()
        elif np.isneginf(row).all():
            out[i] = 1.0 / row.size
        else:
            shifted = row - row[np.isfinite(row)].max()
            e = np.where(np.isneginf(shifted), 0.0, np.exp(shifted))
            out[i] = e / e.sum()
    return out


def test_log_sum_exp_and_softmax_rows_equal_the_reference_formulas():
    with np.errstate(invalid="ignore", over="ignore"):
        for z in [*class_axis_cases(12, 2000), *class_axis_cases(13, 1000, stacked=True)]:
            assert same_floats(log_sum_exp(z), logsumexp(z, axis=-1)), z
            assert same_floats(softmax_rows(z), reference_softmax(z)), z


@pytest.mark.parametrize("width", range(1, 13))
def test_last_axis_sum_equals_numpy_sum_bit_for_bit(width):
    rng = np.random.default_rng(width)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0**-1074, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        for shape in [(60, width), (3, 20, width), (1, width), (1, 1, width)]:
            magnitudes = 10.0 ** rng.integers(-300, 300, size=shape)
            for a in (
                rng.choice(special, size=shape),
                rng.normal(size=shape) * magnitudes,  # rounding shows any change of order
                np.full(shape, -0.0),  # numpy's sum of only -0.0 terms is +0.0
            ):
                assert same_floats(last_axis_sum(a), a.sum(axis=-1, keepdims=True)), a
            ties = rng.uniform(size=shape) < 0.5
            expected = ties.sum(axis=-1, keepdims=True, dtype=np.float64)
            assert same_floats(last_axis_sum(ties), expected)


def test_flat_pick_equals_take_along_axis():
    rng = np.random.default_rng(4)
    for shape in [(7, 3), (4, 7, 3), (2, 5, 1), (3, 6, 12)]:
        z = rng.normal(size=shape)
        shared = rng.integers(shape[-1], size=shape[-2])  # one label per row for every net
        per_net = rng.integers(shape[-1], size=shape[:-1])
        for y in (shared, per_net):
            labels = y.reshape((1,) * (z.ndim - 1 - y.ndim) + y.shape + (1,))
            expected = np.take_along_axis(z, labels, axis=-1)[..., 0]
            assert np.array_equal(_pick(z, y), expected)
            assert np.array_equal(_pick(np.asfortranarray(z), y), expected)


def adam_zeros(params):
    """Zero first and second moments for each array of params."""
    return [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]


def adam_step_each(params, grads, moments, t, learning_rate):
    """adam_step on each array of params in turn."""
    for p, g, m, v in zip(params, grads, *moments):
        adam_step(p, g, m, v, t, learning_rate)


def test_adam_step_on_one_slab_equals_adam_step_on_each_array():
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(5,) + shape) for shape in [(4, 3), (3, 2), (4, 2), (3,), (2,)]]
    shapes = [a.shape[1:] for a in arrays]
    slab = _slab(arrays)
    views = _views(slab, shapes)
    assert all(np.shares_memory(v, slab) and np.array_equal(v, a) for v, a in zip(views, arrays))
    m, v = np.zeros_like(slab), np.zeros_like(slab)
    separate, moments = [a.copy() for a in arrays], adam_zeros(arrays)
    for t in range(1, 9):
        grads = [rng.normal(size=a.shape) * (rng.uniform(size=a.shape) < 0.7) for a in separate]
        adam_step(slab, _slab(grads), m, v, t, 0.05)
        adam_step_each(separate, grads, moments, t, 0.05)
        for got, expected in zip(views, separate):
            assert got.tobytes() == expected.tobytes()
        for got, expected in zip(_views(m, shapes) + _views(v, shapes), moments[0] + moments[1]):
            assert got.tobytes() == expected.tobytes()
        if t in (3, 6):  # drop nets as train_population does when they stop
            keep = np.array([0, 2]) if t == 6 else np.array([0, 1, 3, 4])
            slab, m, v = slab[keep], m[keep], v[keep]
            views = _views(slab, shapes)
            separate = [a[keep] for a in separate]
            moments = tuple([a[keep] for a in moment] for moment in moments)


def test_adam_first_step_moves_by_learning_rate():
    params = np.array([1.0, -2.0])
    grads = np.array([0.5, -0.25])
    m, v = np.zeros(2), np.zeros(2)
    adam_step(params, grads, m, v, t=1, learning_rate=0.01)
    # bias-corrected first step: lr * g / (|g| + eps), i.e. about lr * sign(g)
    expected = np.array(
        [1.0 - 0.01 * 0.5 / (0.5 + 1e-8), -2.0 + 0.01 * 0.25 / (0.25 + 1e-8)]
    )
    assert np.allclose(params, expected, rtol=0, atol=1e-15)


def test_adam_zero_gradient_is_a_no_op():
    params = np.array([3.0, -1.0])
    adam_step(params, np.zeros(2), np.zeros(2), np.zeros(2), t=1, learning_rate=0.5)
    assert np.array_equal(params, [3.0, -1.0])


def test_adam_is_deterministic():
    def run():
        params = [np.array([[1.0, 2.0]]), np.array([0.5])]
        moments = adam_zeros(params)
        for t in range(1, 6):
            adam_step_each(params, [np.array([[0.3, -0.7]]), np.array([0.9])], moments, t, 0.05)
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


def reference_train(structure, x, y, xv, yv, config, seed):
    """The per-structure training loop, written with the single-net kernels
    on the full-shape net."""
    rng = np.random.default_rng(seed)
    net = MaskedNet.initialize(structure, rng)
    params = net.weights + net.biases
    moments = adam_zeros(params)
    n = x.shape[0]
    batch = config.batch_size if 0 < config.batch_size < n else n
    val_losses, val_accuracies = [], []
    best_loss, best, best_epoch, stall, step = np.inf, None, 0, 0, 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            grad_w, grad_b = gradients(net, x[idx], y[idx])
            step += 1
            adam_step_each(params, grad_w + grad_b, moments, step, config.learning_rate)
        val_loss = float(_cross_entropy(net.forward(xv)[1], yv))
        val_losses.append(val_loss)
        val_accuracies.append(float(np.mean(net.predict(xv) == yv)))
        stall = 0 if epoch == 1 or val_loss < best_loss - config.es_tolerance else stall + 1
        if epoch == 1 or val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            best = [w.copy() for w in net.weights], [b.copy() for b in net.biases]
        if stall >= config.es_patience:
            break
    net.weights, net.biases = best
    return net, val_losses, val_accuracies, best_epoch


def assert_stack_trains_each_structure_alone(structures, x, y, xv, yv, config, seeds):
    """train_population equals train and the dense reference_train, bit for bit,
    scores each net's train accuracy as the reference net's predictions do
    and its validation accuracy as the reference loop did at its best epoch,
    and leaves every dead edge at its initial draw and every dead hidden bias at 0."""
    together = train_population(structures, x, y, xv, yv, config, seeds)
    varied = 0
    for structure, seed, result in zip(structures, seeds, together):
        alone = train(structure, x, y, xv, yv, config, seed)
        net, val_losses, val_accuracies, best_epoch = reference_train(
            structure, x, y, xv, yv, config, seed
        )
        for other in (alone.net, net):
            for p, q in zip(result.net.weights + result.net.biases, other.weights + other.biases):
                assert np.array_equal(p, q)
        assert result.val_loss == alone.val_loss == val_losses
        assert result.epochs_run == alone.epochs_run == len(val_losses)
        assert result.best_epoch == alone.best_epoch == best_epoch
        best_accuracy = val_accuracies[best_epoch - 1]
        assert result.val_accuracy == alone.val_accuracy == best_accuracy
        assert result.seed == alone.seed == seed
        predicted = net.predict(x)
        assert result.train_accuracy == alone.train_accuracy == float(np.mean(predicted == y))
        varied += len(set(predicted.tolist())) > 1

        initial = MaskedNet.initialize(structure, np.random.default_rng(seed))
        live = live_units(structure)
        blocks = result.net.structure.blocks
        for (_, dst, mask), w, w0 in zip(blocks, result.net.weights, initial.weights):
            dead = mask & ~live[dst][None, :]
            assert w[dead].tobytes() == w0[dead].tobytes()
        for b, alive in zip(result.net.biases[:-1], live[1:-1]):
            assert (b[~alive] == 0.0).all()
    assert varied  # some nets' predictions move with the inputs, so the scoring is tested
    return together


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
    together = assert_stack_trains_each_structure_alone(structures, x, y, xv, yv, config, seeds)
    if es_patience < 10:  # individuals stop at different epochs, so the stack shrank
        assert len({r.epochs_run for r in together}) > 1


def shared_subset_structures():
    """Three (4, 5, 3) nets whose live inputs are the same strict subset,
    columns 0-2, under different hidden-to-output blocks."""
    into_hidden = np.array(
        [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 1, 1], [0, 0, 0, 0, 0]], dtype=bool
    )
    to_output = [
        [[1, 1, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 1, 1], [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]],
    ]
    return [
        GafStructure((4, 5, 3), ((0, 1, into_hidden), (1, 2, np.array(m, dtype=bool))))
        for m in to_output
    ]


@pytest.mark.parametrize("batch_size", [0, 16])
@pytest.mark.parametrize("stack", ["shared-strict-subset", "fully-connected"])
def test_stacks_with_equal_input_columns_train_each_structure_alone(stack, batch_size):
    if stack == "fully-connected":
        structures = [GafStructure.fully_connected((4, 3))] * 2
    else:
        structures = shared_subset_structures()
        inputs = {live_units(s)[0].tobytes() for s in structures}
        assert inputs == {np.array([1, 1, 1, 0], dtype=bool).tobytes()}
    x, y = three_class_task(seed=11, n=70)
    xv, yv = three_class_task(seed=12, n=30)
    config = TrainConfig(learning_rate=0.1, max_epochs=60, es_patience=60,
                         es_tolerance=1e-3, batch_size=batch_size)
    seeds = [7 + i for i in range(len(structures))]
    assert_stack_trains_each_structure_alone(structures, x, y, xv, yv, config, seeds)


ADULT_SIZES = (118, 12, 2)


def adult_like_task(seed, n):
    """Binary indicator rows of Adult's width; the label follows three columns."""
    rng = np.random.default_rng(seed)
    x = (rng.uniform(size=(n, ADULT_SIZES[0])) < 0.3).astype(np.float64)
    y = ((x[:, 3] + x[:, 40] - x[:, 77] + rng.uniform(size=n)) > 1.0).astype(np.int64)
    return x, y


def sparse_adult_structure(rng, n_input_edges, n_output_edges, skip_edges=0):
    """A search-like structure with blocks (0,1), (0,2) and (1,2).

    Each hidden argument gets at most two input edges, so every live hidden
    pre-activation sums at most two nonzero terms, which any summation order
    adds alike. With three or more co-active inputs the dense reference's
    118-wide product can round differently: OpenBLAS sums some of its output
    columns out of index order, the compact product sums them in order.
    """
    n_in, n_hidden, n_out = ADULT_SIZES
    m01 = np.zeros((n_in, n_hidden), dtype=bool)
    targets = rng.permutation(np.repeat(np.arange(n_hidden), 2))[:n_input_edges]
    m01[rng.choice(n_in, size=n_input_edges, replace=False), targets] = True
    m12 = np.zeros((n_hidden, n_out), dtype=bool)
    m12.flat[rng.choice(m12.size, size=n_output_edges, replace=False)] = True
    m02 = np.zeros((n_in, n_out), dtype=bool)
    skip_sources = rng.choice(n_in, size=skip_edges, replace=False)
    m02[skip_sources, rng.integers(n_out, size=skip_edges)] = True
    return GafStructure(ADULT_SIZES, ((0, 1, m01), (0, 2, m02), (1, 2, m12)))


@pytest.mark.parametrize("batch_size", [0, 16])
def test_train_population_equals_training_each_structure_alone_on_adult_like_stacks(batch_size):
    rng = np.random.default_rng(batch_size + 5)
    x, y = adult_like_task(seed=21, n=160)
    xv, yv = adult_like_task(seed=22, n=60)
    structures = [sparse_adult_structure(rng, 10, 6) for _ in range(5)]  # many dead edges
    structures.append(sparse_adult_structure(rng, 4, 12))  # mostly live hidden arguments
    structures.append(sparse_adult_structure(rng, 0, 0))  # no edges at all
    structures.append(sparse_adult_structure(rng, 6, 3, skip_edges=2))  # a skip block
    # a live hidden argument with outgoing but no incoming edges
    lone = sparse_adult_structure(rng, 3, 0)
    lone_hidden = int(np.flatnonzero(~lone.blocks[0][2].any(axis=0))[0])
    lone.blocks[2][2][lone_hidden, 1] = True
    structures.append(lone)
    seeds = [int(s) for s in rng.integers(1 << 40, size=len(structures))]
    config = TrainConfig(learning_rate=0.1, max_epochs=12, es_patience=3,
                         es_tolerance=1e-3, batch_size=batch_size)
    together = assert_stack_trains_each_structure_alone(structures, x, y, xv, yv, config, seeds)
    assert live_units(lone)[1][lone_hidden]
    assert together[-1].net.biases[0][lone_hidden] != 0.0  # trained through its outgoing edge

    # the logistic baseline's net: every input column live, trained alone
    full = GafStructure.fully_connected((ADULT_SIZES[0], ADULT_SIZES[-1]))
    assert_stack_trains_each_structure_alone([full], x, y, xv, yv, config, [seeds[0]])


def assert_same_training(got, want):
    """Two lists of TrainResults agree bit for bit."""
    for a, b in zip(got, want, strict=True):
        for p, q in zip(a.net.weights + a.net.biases, b.net.weights + b.net.biases):
            assert p.tobytes() == q.tobytes()
        assert a.val_loss == b.val_loss and a.best_epoch == b.best_epoch
        assert (a.train_accuracy, a.val_accuracy) == (b.train_accuracy, b.val_accuracy)


@pytest.mark.parametrize("batch_size", [0, 16])
@pytest.mark.parametrize("stack", ["fully-connected", "sparse"])
def test_uint8_and_bool_inputs_train_as_their_float64_copy(stack, batch_size):
    rng = np.random.default_rng(batch_size + 41)
    x, y = adult_like_task(seed=31, n=160)
    xv, yv = adult_like_task(seed=32, n=60)
    if stack == "fully-connected":  # as the logistic baseline's: x_train is read as given
        structures = [GafStructure.fully_connected((ADULT_SIZES[0], ADULT_SIZES[-1]))] * 2
    else:
        structures = [sparse_adult_structure(rng, 8, 6, skip_edges=2) for _ in range(4)]
    seeds = [int(s) for s in rng.integers(1 << 40, size=len(structures))]
    config = TrainConfig(learning_rate=0.1, max_epochs=10, es_patience=3,
                         es_tolerance=1e-3, batch_size=batch_size)
    want = train_population(structures, x, y, xv, yv, config, seeds)
    for dtype in (np.uint8, bool):
        got = train_population(structures, x.astype(dtype), y, xv.astype(dtype), yv, config, seeds)
        assert_same_training(got, want)


@pytest.mark.parametrize("split", ["x_train", "x_val"])
@pytest.mark.parametrize(
    "dtype, value", [(np.uint8, 2), (np.int8, -1)], ids=["uint8-2", "int8-minus-1"]
)
def test_training_refuses_integer_inputs_outside_0_1(split, dtype, value):
    x, y = noisy_task(n=20)
    data = {"x_train": x.astype(dtype), "x_val": x[:8].astype(dtype)}
    data[split][3, 1] = value
    config = TrainConfig(learning_rate=0.1, max_epochs=3, batch_size=8)
    structure = GafStructure.fully_connected([4, 2])
    with pytest.raises(InputShapeError, match=r"input strengths must be finite values in \[0,1\]"):
        train(structure, data["x_train"], y, data["x_val"], y[:8], config)


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
    assert result.train_accuracy == 1.0


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
    assert result.epochs_run == len(result.val_loss)
    restored_loss = _cross_entropy(result.net.forward(xv)[1], yv)
    assert abs(restored_loss - min(result.val_loss)) < 1e-12
    assert result.best_epoch == 1 + int(np.argmin(result.val_loss))
    assert all(math.isfinite(v) and v >= 0 for v in result.val_loss)
    assert result.val_accuracy == float(np.mean(result.net.predict(xv) == yv))


def test_training_is_deterministic_under_seed():
    x, y = noisy_task()
    xv, yv = noisy_task(seed=5, n=20)
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=0.1, max_epochs=30, es_patience=30, es_tolerance=0.0,
                         batch_size=16)
    a = train(structure, x, y, xv, yv, config, 99)
    b = train(structure, x, y, xv, yv, config, 99)
    assert a.val_loss == b.val_loss
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.net.weights, b.net.weights))
    c = train(structure, x, y, xv, yv, config, 100)
    assert a.val_loss != c.val_loss


def test_masked_positions_stay_zero_through_training():
    x, y = noisy_task(seed=3)
    mask01 = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=bool)
    mask12 = np.array([[1, 1], [0, 1], [1, 0]], dtype=bool)
    structure = GafStructure((4, 3, 2), ((0, 1, mask01), (1, 2, mask12)))
    config = TrainConfig(learning_rate=0.1, max_epochs=40, es_patience=40, es_tolerance=0.0)
    result = train(structure, x, y, x, y, config)
    assert (result.net.weights[0][~mask01] == 0.0).all()
    assert (result.net.weights[1][~mask12] == 0.0).all()
    grad_w, _ = gradients(result.net, x, y)
    assert (grad_w[0][~mask01] == 0.0).all()


def one_live_column_structure():
    """A 3-input net whose only live input column is 0: the compact kernels
    read that column alone, so a wrong input width cannot show in a product."""
    m01 = np.array([[1, 1], [0, 0], [0, 0]], dtype=bool)
    return GafStructure((3, 2, 2), ((0, 1, m01), (1, 2, np.ones((2, 2), dtype=bool))))


@pytest.mark.parametrize(
    "case",
    ["wide x_train", "short y_train", "short minibatch y_train", "narrow x_val",
     "short y_val", "label too large", "negative label", "fractional labels",
     "column of labels", "1-D x_train"],
)
def test_train_rejects_mismatched_inputs_and_labels(case):
    x, y = noisy_task(n=20)
    x = x[:, :3]
    data = {"x": x, "y": y, "xv": x[:8], "yv": y[:8]}
    batch_size = 0
    if case == "wide x_train":
        data["x"] = np.ones((20, 4))
    elif case == "short y_train":
        data["y"] = y[:-1]
    elif case == "short minibatch y_train":
        data["y"], batch_size = y[:-1], 8
    elif case == "narrow x_val":
        data["xv"] = x[:8, :2]
    elif case == "short y_val":
        data["yv"] = y[:7]
    elif case == "label too large":
        data["y"] = np.where(np.arange(20) == 5, 2, y)
    elif case == "negative label":
        data["yv"] = np.where(np.arange(8) == 3, -1, y[:8])
    elif case == "fractional labels":  # they used to be truncated to classes
        data["y"] = y + 0.5
    elif case == "column of labels":
        data["yv"] = y[:8, None]
    else:
        data["x"] = x[:, 0]
    config = TrainConfig(learning_rate=0.1, max_epochs=3, batch_size=batch_size)
    with pytest.raises(InputShapeError):
        train(one_live_column_structure(), data["x"], data["y"], data["xv"], data["yv"], config)


@pytest.mark.parametrize("split", ["x_train", "x_val"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 5.0, -1.0])
def test_training_refuses_input_strengths_outside_0_1(split, value):
    x, y = noisy_task(n=20)
    data = {"x_train": x.copy(), "x_val": x[:8].copy()}
    data[split][3, 1] = value
    config = TrainConfig(learning_rate=0.1, max_epochs=3)
    structure = GafStructure.fully_connected([4, 2])
    with pytest.raises(InputShapeError, match=r"input strengths must be finite values in \[0,1\]"):
        train(structure, data["x_train"], y, data["x_val"], y[:8], config)


@pytest.mark.parametrize("split", ["x_train", "x_val"])
def test_training_refuses_inputs_that_are_not_0_1_indicators(split):
    x, y = noisy_task(n=20)
    data = {"x_train": x.copy(), "x_val": x[:8].copy()}
    data[split][3, 1] = 0.5
    config = TrainConfig(learning_rate=0.1, max_epochs=3, batch_size=8)
    structure = GafStructure.fully_connected([4, 2])
    with pytest.raises(InputShapeError, match="training inputs must be 0/1 indicators"):
        train(structure, data["x_train"], y, data["x_val"], y[:8], config)


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
    with pytest.raises(ConfigError, match="es_tolerance"):
        TrainConfig(learning_rate=0.1, es_tolerance=float("nan"))
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=-1)


def test_classifier_assembly_matches_net_predictions():
    x, y = noisy_task(seed=7)
    structure = GafStructure.fully_connected([4, 3, 2])
    config = TrainConfig(learning_rate=0.1, max_epochs=25, es_patience=25, es_tolerance=0.0)
    result = train(structure, x, y, x, y, config)
    gaf = to_classifier(result, ["f0", "f1", "f2", "f3"], ["no", "yes"])
    assert gaf.class_labels == ("no", "yes")
    assert [a.name for a in gaf.layers[0]] == ["f0", "f1", "f2", "f3"]
    for arg in gaf.arguments()[4:]:
        assert 1e-6 <= arg.base_score <= 1 - 1e-6
    # graph evaluation agrees with the net (up to the base-score round trip)
    assert np.allclose(
        output_distributions(gaf, x), softmax_rows(result.net.forward(x)[1]), rtol=0, atol=1e-9
    )
    # and is bit-identical when the net is rebuilt from the graph itself
    rebuilt = MaskedNet.from_gaf(gaf)
    assert np.array_equal(output_distributions(gaf, x), softmax_rows(rebuilt.forward(x)[1]))
