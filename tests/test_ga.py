"""Genetic operators against hand-enumerable cases, plus small end-to-end runs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaflearn.ga as ga
from gaflearn.errors import CodecError, ConfigError, GafError, InputShapeError
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
from gaflearn.graph import live_units
from gaflearn.train import TrainConfig, train
from gaflearn.util import derive_seed


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_chromosome_length_sums_adjacent_products():
    assert chromosome_length((4, 12, 3)) == 4 * 12 + 12 * 3
    assert chromosome_length((2, 2)) == 4


def test_decode_empty_full_and_diagonal():
    empty = decode(np.zeros(4, np.uint8), (2, 2))
    assert not any(m.any() for _, _, m in empty.blocks)
    full = decode(np.ones(4, np.uint8), (2, 2))
    assert sum(int(m.sum()) for _, _, m in full.blocks) == 4
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
    return EvaluatedIndividual(bits=c, fitness=fit, n_connections=n_conn, result=None)


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
    if length == 1:  # no cut point, so no k is valid
        with pytest.raises(ConfigError, match="k must lie"):
            init_population(iris_like_config(n_conn_init=n_conn_init, k=1), sizes, rng)
        return
    k = data.draw(st.integers(1, length - 1))
    config = iris_like_config(population_size=4, n_conn_init=n_conn_init, k=k)
    rows = init_population(config, sizes, rng)
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
    assert best.result.train_accuracy == 1.0
    assert best.n_connections <= 2
    assert best.fitness == fitness(best.result.train_accuracy, best.n_connections, 2, 0.1)
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
    assert best_c.result.val_loss == best_a.result.val_loss
    assert best_c.result.val_accuracy == best_a.result.val_accuracy


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
    # one unique row in generation 0; generation 1's row is the same one
    assert calls["n"] == 1
    pop_fitness = {s.best_fitness for s in log}
    assert len(pop_fitness) == 1


def test_bad_k_fails_before_any_training(monkeypatch):
    def refuse(*_args):
        raise AssertionError("trained before k was checked")

    monkeypatch.setattr(ga, "train_population", refuse)
    x, y = toy_problem()
    config = GaConfig(
        population_size=4,
        generations=2,
        crossover_rate=0.9,
        mutation_rate=0.1,
        elitist_fraction=0.25,
        lam=0.1,
        n_conn_init=(1,),
        k=2,  # a (1, 2) row has 2 bits, so one cut point
    )
    with pytest.raises(ConfigError, match=r"k must lie in \[1, 1\], got 2"):
        evolve(x, y, x, y, (1, 2), config, toy_train_config())


# -- live rows and the per-run memo ----------------------------------------


def edge_row(structure):
    return np.concatenate([mask.ravel() for _, _, mask in structure.blocks]).astype(np.uint8)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple), data=st.data())
def test_live_row_keeps_exactly_the_edges_into_live_units(sizes, data):
    length = chromosome_length(sizes)
    row = np.array(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
    row = row.astype(np.uint8)
    live = ga.live_row(row, sizes)
    assert live.dtype == np.uint8 and live.shape == row.shape
    assert not (live & (1 - row)).any()  # a subset of the row's edges
    assert np.array_equal(ga.live_row(live, sizes), live)  # a fixed point
    structure = decode(live, sizes)
    units = live_units(structure)
    for _, dst, mask in structure.blocks:
        assert not mask[:, ~units[dst]].any()
    for kept, original in zip(units, live_units(decode(row, sizes))):
        assert np.array_equal(kept, original)


SMALL_SIZES = (3, 3, 2)


def small_data():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(24, 3)).astype(np.float64)
    y = (x[:, 0] + x[:, 1] >= 1).astype(np.int64)
    return x, y


def small_search(seed):
    config = GaConfig(
        population_size=2,
        generations=2,
        crossover_rate=0.9,
        mutation_rate=0.1,
        elitist_fraction=0.0,
        lam=0.1,
        n_conn_init=(3, 2),
        q=2,
        seed=seed,
        ga_patience=2,
    )
    return ga.Search(SMALL_SIZES, config)


def step(search, x, y, rows=None):
    """One generation by hand; rows, when given, replace the pending rows."""
    if rows is not None:
        search.pending = rows
    structures, seeds = search.ask()
    search.tell(ga.train_population(structures, x, y, x, y, toy_train_config(), seeds))
    return search.population


def record_trainings(monkeypatch):
    """Patch ga.train_population to log each call's rows and seeds."""
    calls = []
    real = ga.train_population

    def recording(structures, *args):
        calls.append(([edge_row(s) for s in structures], list(args[-1])))
        return real(structures, *args)

    monkeypatch.setattr(ga, "train_population", recording)
    return calls


def assert_same_training(a, b):
    for p, q in zip(a.net.weights + a.net.biases, b.net.weights + b.net.biases):
        assert np.array_equal(p, q)
    assert a.val_loss == b.val_loss
    assert (a.train_accuracy, a.val_accuracy) == (b.train_accuracy, b.val_accuracy)


def test_memo_hit_in_a_later_generation_equals_training_the_row_alone(monkeypatch):
    calls = record_trainings(monkeypatch)
    search, (x, y) = small_search(5), small_data()
    # hidden argument 2 has two inputs but no path to an output: it is dead
    row = bits("101" "000" "001" "10" "01" "00")
    live = bits("100" "000" "000" "10" "01" "00")
    other = bits("010" "100" "000" "01" "10" "00")
    first = step(search, x, y, [row, other])
    assert np.array_equal(first[0].bits, live)
    later = step(search, x, y, [bits("110" "000" "000" "11" "00" "00"), row])
    assert len(calls) == 2 and len(calls[1][0]) == 1
    assert not any(np.array_equal(r, live) for r in calls[1][0])  # not trained again
    hit = later[1]
    assert hit is first[0] is search.memo[live.tobytes()]  # the memo's one record for the row
    assert np.array_equal(hit.bits, live) and hit.result is first[0].result
    assert hit.n_connections == 3

    seed = derive_seed(5, live.tobytes().hex())
    assert calls[0][1][0] == seed
    assert_same_training(hit.result, train(decode(live, SMALL_SIZES), x, y, x, y,
                                           toy_train_config(), seed))
    # the row with its dead edges trains to the same live weights and scores
    raw = train(decode(row, SMALL_SIZES), x, y, x, y, toy_train_config(), seed)
    for w, w_live, mask in zip(raw.net.weights, hit.result.net.weights, hit.result.net.masks):
        assert np.array_equal(w * mask, w_live)
    for b, b_live in zip(raw.net.biases, hit.result.net.biases):
        assert np.array_equal(b, b_live)
    assert raw.val_loss == hit.result.val_loss
    assert raw.val_accuracy == hit.result.val_accuracy


def test_runs_with_different_seeds_train_a_shared_row_under_different_seeds(monkeypatch):
    calls = record_trainings(monkeypatch)
    row = bits("100" "010" "000" "10" "01" "00")  # a live row
    # twice, so that the population holds the q=2 rows a tournament draws
    a = step(small_search(1), *small_data(), [row, row])[0]
    b = step(small_search(2), *small_data(), [row, row])[0]
    seeds = [seed for _, call_seeds in calls for seed in call_seeds]
    key = row.tobytes().hex()
    assert seeds == [derive_seed(1, key), derive_seed(2, key)]
    assert seeds[0] != seeds[1]
    assert not np.array_equal(a.result.net.weights[0], b.result.net.weights[0])


def test_evolve_trains_each_live_row_once_and_keeps_only_live_rows(monkeypatch):
    calls = record_trainings(monkeypatch)
    populations = []
    real_stats = ga._stats

    def recording_stats(population, generation):
        populations.append([ind.bits for ind in population])
        return real_stats(population, generation)

    monkeypatch.setattr(ga, "_stats", recording_stats)
    scored = []
    real_fitness = ga.fitness

    def recording_fitness(*args):
        scored.append(args)
        return real_fitness(*args)

    monkeypatch.setattr(ga, "fitness", recording_fitness)
    sizes = (3, 3, 3, 2)
    config = GaConfig(
        population_size=8,
        generations=8,
        crossover_rate=0.9,
        mutation_rate=0.05,
        elitist_fraction=0.25,
        lam=0.2,
        n_conn_init=(3, 3, 2),
        seed=4,
        ga_patience=8,
        ga_tolerance=0.0,
    )
    x, y = small_data()
    best, log = evolve(x, y, x, y, sizes, config, toy_train_config())

    trained = [r.tobytes() for rows, _ in calls for r in rows]
    assert len(trained) == len(set(trained))
    # each trained row is scored once, into the memo's one record for it
    assert [n_conn for _, n_conn, _, _ in scored] == [
        int(r.sum()) for rows, _ in calls for r in rows
    ]
    for population in populations:
        for row in population:
            assert np.array_equal(ga.live_row(row, sizes), row)
            assert row.tobytes() in trained
    # the mapping had dead edges to drop, and some rows came back
    initial = init_population(config, sizes, np.random.default_rng(derive_seed(4, "ga")))
    assert any(not np.array_equal(ga.live_row(r, sizes), r) for r in initial)
    evaluated = config.population_size + (len(log) - 1) * (config.population_size - 2)
    assert len(trained) < evaluated
    masks = best.result.net.structure.blocks
    assert best.n_connections == int(best.bits.sum()) == sum(int(m.sum()) for _, _, m in masks)


def test_evolve_returns_the_earliest_top_ranked_individual_of_all_populations(monkeypatch):
    # without elites a population's best can fall, so the returned best may
    # have left the population, and several records may tie at the top
    populations = []
    real_stats = ga._stats

    def recording_stats(population, generation):
        populations.append(list(population))
        return real_stats(population, generation)

    monkeypatch.setattr(ga, "_stats", recording_stats)
    x, y = small_data()
    left, tied = 0, 0
    for seed in range(6):
        populations.clear()
        config = GaConfig(
            population_size=6,
            generations=6,
            crossover_rate=0.9,
            mutation_rate=0.1,
            elitist_fraction=0.0,
            lam=0.2,
            n_conn_init=(3, 3, 2),
            seed=seed,
            ga_patience=6,
            ga_tolerance=0.0,
        )
        best, _ = evolve(x, y, x, y, (3, 3, 3, 2), config, toy_train_config())
        seen = [ind for population in populations for ind in population]
        # higher fitness, then fewer connections, then the first one seen
        top = min(range(len(seen)), key=lambda i: (-seen[i].fitness, seen[i].n_connections, i))
        assert best is seen[top]
        left += all(ind is not best for ind in populations[-1])
        top_rank = (best.fitness, best.n_connections)
        tied += len({id(i) for i in seen if (i.fitness, i.n_connections) == top_rank}) > 1
    assert left and tied


# -- stepping a search by hand ----------------------------------------------


def search_config(seed, ga_patience=6):
    return GaConfig(
        population_size=8,
        generations=6,
        crossover_rate=0.9,
        mutation_rate=0.05,
        elitist_fraction=0.25,
        lam=0.2,
        n_conn_init=(3, 3, 2),
        seed=seed,
        ga_patience=ga_patience,
        ga_tolerance=0.0,
    )


def assert_same_record(a, b):
    assert np.array_equal(a.bits, b.bits)
    assert (a.fitness, a.n_connections) == (b.fitness, b.n_connections)
    assert_same_training(a.result, b.result)


def test_driving_a_search_by_hand_equals_evolve(monkeypatch):
    x, y = small_data()
    sizes, config = (3, 3, 3, 2), search_config(4)
    search = ga.Search(sizes, config)
    while not search.done:
        step(search, x, y)

    ran = []

    class Recorded(ga.Search):
        def __init__(self, *args):
            super().__init__(*args)
            ran.append(self)

    monkeypatch.setattr(ga, "Search", Recorded)
    best, log = evolve(x, y, x, y, sizes, config, toy_train_config())
    assert len(log) > 2
    assert search.log == log
    assert list(search.memo) == list(ran[0].memo)
    assert_same_record(search.best(), best)


def test_searches_trained_in_one_stack_each_equal_their_own_evolve():
    # the property that lets several runs train each generation as one stack
    x, y = small_data()
    sizes = (3, 3, 3, 2)
    configs = [search_config(4), search_config(9, ga_patience=2)]
    searches = [ga.Search(sizes, config) for config in configs]
    shared = 0
    while not all(search.done for search in searches):
        live = [search for search in searches if not search.done]
        asked = [search.ask() for search in live]
        results = ga.train_population(
            [s for structures, _ in asked for s in structures], x, y, x, y,
            toy_train_config(), [seed for _, seeds in asked for seed in seeds],
        )
        for search, (structures, _) in zip(live, asked):
            search.tell(results[: len(structures)])
            results = results[len(structures):]
        shared += sum(len(structures) > 0 for structures, _ in asked) == 2
    assert shared and len(searches[0].log) != len(searches[1].log)
    for search, config in zip(searches, configs):
        best, log = evolve(x, y, x, y, sizes, config, toy_train_config())
        assert search.log == log
        assert_same_record(search.best(), best)


def test_tell_with_a_result_count_other_than_asked_raises_naming_both():
    search, (x, y) = small_search(0), small_data()
    structures, seeds = search.ask()
    results = ga.train_population(structures, x, y, x, y, toy_train_config(), seeds)
    n = len(results)
    for told in (results + results[:1], results[:-1]):
        with pytest.raises(InputShapeError, match=rf"asked for {n} results, told {len(told)}"):
            search.tell(told)
    assert not search.memo and not search.log  # nothing was scored
    search.tell(results)
    assert len(search.memo) == n and len(search.log) == 1


def test_a_finished_search_refuses_to_be_asked_or_told():
    search = ga.Search(SMALL_SIZES, replace(small_search(0).config, generations=1))
    x, y = small_data()
    while not search.done:
        step(search, x, y)
    log, memo, population = list(search.log), dict(search.memo), list(search.population)
    assert [s.generation for s in log] == [0, 1]
    for call in (search.ask, lambda: search.tell([])):
        with pytest.raises(GafError, match=r"the search is done after generation 1$"):
            call()
    assert search.log == log and search.memo == memo and search.population == population
