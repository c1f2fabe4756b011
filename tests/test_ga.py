"""Genetic operators against hand-enumerable cases, plus small end-to-end runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaflearn.ga as ga
from gaflearn.errors import CodecError, ConfigError, InputShapeError
from gaflearn.ga import (
    EvaluatedIndividual,
    GaConfig,
    chromosome_length,
    decode,
    elitist_replace,
    evolve,
    exchange_segments,
    fitness,
    flip_mutate,
    init_population,
    k_point_crossover,
    tournament_select,
)
from gaflearn.train import TrainConfig


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_chromosome_length_sums_adjacent_products():
    assert chromosome_length((4, 12, 3)) == 4 * 12 + 12 * 3
    assert chromosome_length((2, 2)) == 4


def test_decode_empty_full_and_diagonal():
    empty = decode(np.zeros(4, np.uint8), (2, 2))
    assert empty.n_connections == 0
    full = decode(np.ones(4, np.uint8), (2, 2))
    assert full.n_connections == 4
    diag = decode(bits("1001"), (2, 2))
    assert np.array_equal(diag.blocks[0][2], [[True, False], [False, True]])


def test_decode_is_row_major_within_blocks():
    # bit offset(i) + a*s_{i+1} + b: second block, a=1, b=0 -> position 6+2
    c = np.zeros(chromosome_length((3, 2, 2)), np.uint8)
    c[6 + 1 * 2 + 0] = 1
    structure = decode(c, (3, 2, 2))
    assert structure.blocks[0][2].sum() == 0
    assert np.array_equal(structure.blocks[1][2], [[False, False], [True, False]])


def test_chromosome_rejects_bad_shapes_and_values():
    with pytest.raises(CodecError):
        decode(np.zeros(5, np.uint8), (2, 2))
    with pytest.raises(CodecError):
        decode(np.zeros((2, 2), np.uint8), (2, 2))
    with pytest.raises(CodecError):
        decode(np.array([0, 2, 0, 0], np.uint8), (2, 2))


def test_fitness_hand_values():
    assert fitness(0.8, 6, 12, 0.5) == pytest.approx(0.65, abs=1e-15)
    acc = 0.7312
    assert fitness(acc, 5, 9, 0.0) == acc  # lambda 0: fitness is the accuracy, exactly
    assert fitness(0.9, 12, 12, 0.3) == pytest.approx(0.7 * 0.9, abs=1e-15)
    assert fitness(1.0, 0, 10, 1.0) == 1.0
    with pytest.raises(ValueError):
        fitness(1.5, 0, 4, 0.5)
    with pytest.raises(ValueError):
        fitness(0.5, 5, 4, 0.5)
    with pytest.raises(ValueError):
        fitness(0.5, 0, 0, 0.5)


def iris_like_config(**over):
    base = dict(
        population_size=20,
        generations=20,
        crossover_rate=0.9,
        mutation_rate=1e-3,
        elitist_fraction=0.1,
        lam=0.1,
        n_conn_init=(12, 6),
        seed=0,
    )
    base.update(over)
    return GaConfig(**base)


def test_init_population_places_exact_counts():
    config = iris_like_config()
    pop = init_population(config, (4, 12, 3))
    assert len(pop) == 20
    for c in pop:
        assert c[: 4 * 12].sum() == 12
        assert c[4 * 12 :].sum() == 6
    again = init_population(config, (4, 12, 3))
    assert all(np.array_equal(a, b) for a, b in zip(pop, again))


def test_init_population_edge_counts():
    full = init_population(iris_like_config(n_conn_init=(48, 36)), (4, 12, 3))
    assert all(c.all() for c in full)
    none = init_population(iris_like_config(n_conn_init=(0, 0)), (4, 12, 3))
    assert all(not c.any() for c in none)
    with pytest.raises(ConfigError, match="capacity"):
        init_population(iris_like_config(n_conn_init=(49, 6)), (4, 12, 3))
    with pytest.raises(ConfigError, match="layer pairs"):
        init_population(iris_like_config(n_conn_init=(12,)), (4, 12, 3))


def make_individual(fit, n_conn=0, length=10):
    c = np.zeros(length, np.uint8)
    c[:n_conn] = 1
    return EvaluatedIndividual(
        bits=c,
        fitness=fit,
        train_accuracy=fit,
        n_connections=n_conn,
        n_possible=length,
        result=None,
    )


def test_tournament_full_size_returns_global_best():
    pop = [make_individual(f) for f in (0.9, 0.5, 0.1)]
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert tournament_select(pop, q=3, rng=rng) is pop[0]


def test_tournament_breaks_ties_toward_sparser_then_lower_index():
    pop = [make_individual(0.7, 6), make_individual(0.7, 2), make_individual(0.7, 2)]
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert tournament_select(pop, q=3, rng=rng) is pop[1]


def test_tournament_q1_is_uniform_draw():
    pop = [make_individual(f) for f in (0.9, 0.5, 0.1)]
    rng = np.random.default_rng(2)
    seen = {id(tournament_select(pop, q=1, rng=rng)) for _ in range(200)}
    assert len(seen) == 3


def test_exchange_segments_hand_example():
    c1, c2 = exchange_segments(bits("000000"), bits("111111"), [2, 4])
    assert np.array_equal(c1, bits("001100"))
    assert np.array_equal(c2, bits("110011"))


def test_crossover_identical_parents_yield_identical_children():
    rng = np.random.default_rng(3)
    p = bits("0110")
    for _ in range(10):
        c1, c2 = k_point_crossover(p, p.copy(), k=2, rng=rng)
        assert np.array_equal(c1, p)
        assert np.array_equal(c2, p)


def test_crossover_conserves_loci():
    rng = np.random.default_rng(4)
    for _ in range(300):
        length = int(rng.integers(4, 40))
        p1 = (rng.uniform(size=length) < 0.5).astype(np.uint8)
        p2 = (rng.uniform(size=length) < 0.5).astype(np.uint8)
        k = int(rng.integers(1, length))
        c1, c2 = k_point_crossover(p1, p2, k, rng)
        assert np.array_equal(c1 + c2, p1 + p2)
        assert np.array_equal(c1 | c2, p1 | p2)


def test_crossover_rate_zero_copies_parents():
    rng = np.random.default_rng(5)
    p1 = bits("0000")
    p2 = bits("1111")
    c1, c2 = k_point_crossover(p1, p2, k=2, rng=rng, crossover_rate=0.0)
    assert np.array_equal(c1, p1)
    assert np.array_equal(c2, p2)
    c1[0] = 1  # children are copies, not views
    assert p1[0] == 0


def test_mutation_rate_extremes():
    rng = np.random.default_rng(6)
    c = bits("010011")
    same = flip_mutate(c, 0.0, rng)
    assert np.array_equal(same, c)
    flipped = flip_mutate(c, 1.0, rng)
    assert np.array_equal(flipped, 1 - c)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_operator_rows_decode_and_round_trip(sizes, seed, data):
    # the rows carry no layer sizes, so decode is where a bad row must be caught
    length = chromosome_length(sizes)
    n_conn_init = tuple(data.draw(st.integers(0, a * b)) for a, b in zip(sizes, sizes[1:]))
    rng = np.random.default_rng(seed)
    config = iris_like_config(population_size=4, n_conn_init=n_conn_init)
    rows = init_population(config, sizes, rng)
    if length > 1:
        k = data.draw(st.integers(1, length - 1))
        rate = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        rows.extend(k_point_crossover(rows[0], rows[1], k, rng, rate))
    rows.extend(flip_mutate(r, data.draw(st.sampled_from([0.0, 0.1, 1.0])), rng) for r in rows[:])
    for bits in rows:
        assert bits.dtype == np.uint8 and bits.shape == (length,)
        assert ((bits == 0) | (bits == 1)).all()
        blocks = decode(bits, sizes).blocks
        assert [(src, dst) for src, dst, _ in blocks] == [(i, i + 1) for i in range(len(sizes) - 1)]
        again = np.concatenate([mask.ravel() for _, _, mask in blocks]).astype(np.uint8)
        assert np.array_equal(again, bits)

    with pytest.raises(CodecError):
        decode(rows[0][:-1], sizes)
    with pytest.raises(CodecError):
        decode(np.append(rows[0], np.uint8(0)), sizes)
    two = rows[0].copy()
    two[data.draw(st.integers(0, length - 1))] = 2
    with pytest.raises(CodecError):
        decode(two, sizes)
    with pytest.raises(CodecError):
        k_point_crossover(rows[0], np.append(rows[1], np.uint8(1)), 1, rng)


def test_mutation_flip_rate_is_binomial():
    rng = np.random.default_rng(7)
    c = np.zeros(20000, np.uint8)
    flips = flip_mutate(c, 0.01, rng).sum()
    # n*p = 200, sd about 14; allow 5 sd
    assert 130 <= flips <= 270


def test_elitist_replace_carries_top_individuals():
    old = [make_individual(f) for f in (0.1, 0.9, 0.5, 0.7)]
    offspring = [make_individual(0.2) for _ in range(4)]
    new = elitist_replace(old, offspring, elitist_fraction=0.30)  # ceil(1.2) = 2 elites
    assert new[0] is old[1] and new[1] is old[3]
    assert new[2] is offspring[0] and len(new) == 4
    assert max(ind.fitness for ind in new) >= max(ind.fitness for ind in old)


def test_elitist_replace_fraction_zero_is_generational():
    old = [make_individual(f) for f in (0.9, 0.8)]
    offspring = [make_individual(0.1), make_individual(0.2)]
    new = elitist_replace(old, offspring, elitist_fraction=0.0)
    assert new == offspring


def test_elitist_replace_needs_enough_offspring():
    old = [make_individual(0.5) for _ in range(4)]
    with pytest.raises(InputShapeError, match="offspring"):
        elitist_replace(old, [make_individual(0.1)], elitist_fraction=0.25)


def test_config_validation():
    with pytest.raises(ConfigError):
        iris_like_config(population_size=1)
    with pytest.raises(ConfigError):
        iris_like_config(lam=1.5)
    with pytest.raises(ConfigError):
        iris_like_config(elitist_fraction=1.0)
    with pytest.raises(ConfigError):
        iris_like_config(q=21)
    with pytest.raises(ConfigError):
        iris_like_config(ga_tolerance=-0.1)
    with pytest.raises(ConfigError, match="ga_tolerance"):
        iris_like_config(ga_tolerance=float("nan"))
    assert iris_like_config(ga_tolerance=float("inf")).ga_tolerance == float("inf")


# -- end-to-end evolution on a toy problem -------------------------------


def toy_problem():
    # one binary feature; the label is the feature itself
    x = np.array([[0.0], [1.0]] * 8)
    y = x[:, 0].astype(np.int64)
    return x, y


def toy_train_config():
    return TrainConfig(learning_rate=0.3, max_epochs=80, es_patience=10, es_tolerance=1e-5)


def test_evolve_finds_sparse_perfect_toy_solution():
    x, y = toy_problem()
    config = GaConfig(
        population_size=8,
        generations=10,
        crossover_rate=0.9,
        mutation_rate=0.05,
        elitist_fraction=0.125,
        lam=0.1,
        n_conn_init=(1,),
        q=3,
        k=1,
        ga_patience=10,
        ga_tolerance=0.0,
        seed=11,
    )
    best, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    # exhaustive oracle over all 4 structures: accuracy 1.0 needs >= 1 edge,
    # so the optimum is 1 connection with fitness 0.9 + 0.1/2
    assert best.train_accuracy == 1.0
    assert best.n_connections <= 2
    assert best.fitness == fitness(best.train_accuracy, best.n_connections, 2, 0.1)
    assert max(s.best_fitness for s in log) == best.fitness


def test_evolve_best_fitness_is_monotone_and_log_well_formed():
    x, y = toy_problem()
    config = GaConfig(
        population_size=6,
        generations=8,
        crossover_rate=0.9,
        mutation_rate=0.1,
        elitist_fraction=0.2,
        lam=0.3,
        n_conn_init=(2,),
        seed=5,
        ga_patience=8,
        ga_tolerance=0.0,
        k=1,
    )
    best, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    fits = [s.best_fitness for s in log]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert [s.generation for s in log] == list(range(len(log)))
    for s in log:
        # mean is subject to summation rounding, hence the epsilon
        assert 0.0 <= s.mean_fitness <= s.best_fitness + 1e-12
        assert s.best_fitness <= 1.0
    assert best.fitness == fits[-1]


def test_evolve_runs_when_elites_fill_the_population():
    # ceil(0.6 * 2) = 2 elites leave no offspring to train in later generations
    x, y = toy_problem()
    config = GaConfig(
        population_size=2,
        generations=3,
        crossover_rate=0.9,
        mutation_rate=0.1,
        elitist_fraction=0.6,
        lam=0.3,
        n_conn_init=(1,),
        q=2,
        seed=5,
        ga_patience=3,
        ga_tolerance=0.0,
        k=1,
    )
    best, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    assert [s.generation for s in log] == [0, 1, 2, 3]
    assert len({s.best_fitness for s in log}) == 1
    assert best.fitness == log[0].best_fitness


def test_evolve_lambda_one_empties_the_graph():
    x, y = toy_problem()
    config = GaConfig(
        population_size=10,
        generations=15,
        crossover_rate=0.9,
        mutation_rate=0.02,
        elitist_fraction=0.1,
        lam=1.0,
        n_conn_init=(2,),
        seed=3,
        ga_patience=15,
        ga_tolerance=0.0,
        k=1,
    )
    best, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    assert best.n_connections == 0
    assert best.fitness == 1.0


def test_evolve_is_deterministic_and_batch_composition_invariant(monkeypatch):
    x, y = toy_problem()
    config = GaConfig(
        population_size=6,
        generations=4,
        crossover_rate=0.9,
        mutation_rate=0.05,
        elitist_fraction=0.2,
        lam=0.2,
        n_conn_init=(1,),
        seed=21,
        ga_patience=4,
        ga_tolerance=0.0,
        k=1,
    )
    tc = toy_train_config()
    best_a, log_a = evolve(x, y, x, y, (1, 2), config, tc)
    best_b, log_b = evolve(x, y, x, y, (1, 2), config, tc)
    assert log_a == log_b
    assert np.array_equal(best_a.bits, best_b.bits)

    # train each structure alone instead of in its generation's stack
    together = ga.train_population

    def one_at_a_time(structures, x_tr, y_tr, x_va, y_va, train_config, seeds):
        return [
            together([s], x_tr, y_tr, x_va, y_va, train_config, [seed])[0]
            for s, seed in zip(structures, seeds)
        ]

    monkeypatch.setattr(ga, "train_population", one_at_a_time)
    best_c, log_c = evolve(x, y, x, y, (1, 2), config, tc)
    assert log_c == log_a
    assert np.array_equal(best_c.bits, best_a.bits)
    for p, q in zip(best_c.result.net.weights + best_c.result.net.biases,
                    best_a.result.net.weights + best_a.result.net.biases):
        assert np.array_equal(p, q)
    assert best_c.result.history == best_a.result.history


def test_ga_patience_stops_early():
    x, y = toy_problem()
    config = GaConfig(
        population_size=6,
        generations=20,
        crossover_rate=0.0,
        mutation_rate=0.0,  # nothing changes, every generation stalls
        elitist_fraction=0.2,
        lam=0.1,
        n_conn_init=(1,),
        seed=2,
        ga_patience=3,
        ga_tolerance=0.0,
        k=1,
    )
    _, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    assert len(log) == 4  # generation 0 plus 3 stalled generations


def test_duplicate_chromosomes_are_trained_once(monkeypatch):
    x, y = toy_problem()
    calls = {"n": 0}
    real = ga.train_population

    def counting(structures, *args):
        calls["n"] += len(structures)
        return real(structures, *args)

    monkeypatch.setattr(ga, "train_population", counting)
    config = GaConfig(
        population_size=6,
        generations=1,
        crossover_rate=0.0,
        mutation_rate=0.0,
        elitist_fraction=0.0,
        lam=0.1,
        n_conn_init=(2,),  # capacity 2: every row is fully connected
        seed=1,
        ga_patience=1,
        ga_tolerance=0.0,
        k=1,
    )
    _, log = evolve(x, y, x, y, (1, 2), config, toy_train_config())
    # one unique row in generation 0 and one in generation 1
    assert calls["n"] == 2
    pop_fitness = {s.best_fitness for s in log}
    assert len(pop_fitness) == 1
