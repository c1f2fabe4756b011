"""Genetic search over classifier graph structures.

A genome is a uint8 row of 0/1 bits over adjacent layer pairs: bit
offset(i) + a*s_{i+1} + b switches the edge from argument a of layer i to
argument b of layer i+1, and :func:`decode` reads a row against the run's
layer sizes. Each individual is evaluated by training its weights
(training module) and scoring a convex combination of train accuracy and
sparsity: f = (1-lambda)*accuracy + lambda*(N_poss-N_conn)/N_poss.
Selection is q-tournament, recombination k-point crossover, mutation
per-bit flips, replacement elitist. Everything is deterministic under the
config seed. A run's state is one :class:`Search`: it asks for the rows new
to the run and is told their training results, and :func:`evolve` is that
loop, training each generation's asked rows as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CodecError, ConfigError, GafError, InputShapeError
from .graph import GafStructure, live_units
from .train import TrainConfig, TrainResult, train_population
from .util import check_field_types, derive_seed


def chromosome_length(layer_sizes: Sequence[int]) -> int:
    return sum(layer_sizes[i] * layer_sizes[i + 1] for i in range(len(layer_sizes) - 1))


def decode(bits: np.ndarray, layer_sizes: Sequence[int]) -> GafStructure:
    """Bits to connection masks, row-major per adjacent layer pair.

    A row that is not chromosome_length(layer_sizes) 0/1 bits raises CodecError.
    """
    bits = np.asarray(bits)
    sizes = tuple(int(s) for s in layer_sizes)
    want = chromosome_length(sizes)
    if bits.ndim != 1 or bits.shape[0] != want:
        raise CodecError(f"layers {sizes} need {want} bits, got shape {bits.shape}")
    if ((bits != 0) & (bits != 1)).any():
        raise CodecError("bits must be 0 or 1")
    blocks = []
    offset = 0
    for i in range(len(sizes) - 1):
        n = sizes[i] * sizes[i + 1]
        mask = bits[offset : offset + n].reshape(sizes[i], sizes[i + 1]) != 0
        blocks.append((i, i + 1, mask))
        offset += n
    return GafStructure(sizes, tuple(blocks))


def fitness(train_accuracy: float, n_connections: int, n_possible: int, lam: float) -> float:
    """Convex combination of accuracy and sparsity; 1 only for a perfect empty graph."""
    if not 0.0 <= train_accuracy <= 1.0:
        raise ValueError(f"accuracy must lie in [0,1], got {train_accuracy}")
    if n_possible <= 0:
        raise ValueError("n_possible must be positive")
    if not 0 <= n_connections <= n_possible:
        raise ValueError(f"n_connections {n_connections} outside [0, {n_possible}]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0,1], got {lam}")
    return (1.0 - lam) * train_accuracy + lam * (n_possible - n_connections) / n_possible


@dataclass(frozen=True)
class GaConfig:
    population_size: int
    generations: int
    crossover_rate: float
    mutation_rate: float
    elitist_fraction: float
    lam: float = field(metadata={"key": "lambda"})
    n_conn_init: tuple[int, ...]
    q: int = 3
    k: int = 2
    ga_patience: int = 5
    ga_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        object.__setattr__(self, "n_conn_init", tuple(self.n_conn_init))
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        for name, v in (
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
            ("lambda", self.lam),
        ):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        if not 0.0 <= self.elitist_fraction < 1.0:
            raise ConfigError(
                f"elitist_fraction must lie in [0,1), got {self.elitist_fraction}"
            )
        if not 1 <= self.q <= self.population_size:
            raise ConfigError(f"q must lie in [1, population_size], got {self.q}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.ga_patience < 1:
            raise ConfigError(f"ga_patience must be >= 1, got {self.ga_patience}")
        if not self.ga_tolerance >= 0:  # NaN fails too; +inf is allowed
            raise ConfigError(f"ga_tolerance must be >= 0, got {self.ga_tolerance}")
        if any(c < 0 for c in self.n_conn_init):
            raise ConfigError("n_conn_init counts must be >= 0")


@dataclass(eq=False)
class EvaluatedIndividual:
    bits: np.ndarray  # uint8 row of 0/1, see decode
    fitness: float
    n_connections: int
    result: TrainResult  # its train_accuracy is the fitness's accuracy


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_accuracy: float
    best_connections: int


def init_population(
    config: GaConfig, layer_sizes: Sequence[int], rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """N bit rows with exactly n_conn_init[i] ones per layer-pair block."""
    sizes = tuple(int(s) for s in layer_sizes)
    n_blocks = len(sizes) - 1
    if len(config.n_conn_init) != n_blocks:
        raise ConfigError(
            f"n_conn_init has {len(config.n_conn_init)} entries for {n_blocks} layer pairs"
        )
    capacities = [sizes[i] * sizes[i + 1] for i in range(n_blocks)]
    for count, cap in zip(config.n_conn_init, capacities):
        if count > cap:
            raise ConfigError(f"n_conn_init count {count} exceeds block capacity {cap}")
    if not 1 <= config.k < sum(capacities):  # fail before any training, not in crossover
        raise ConfigError(f"k must lie in [1, {sum(capacities) - 1}], got {config.k}")
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.seed, "init"))
    population = []
    for _ in range(config.population_size):
        parts = []
        for count, cap in zip(config.n_conn_init, capacities):
            block = np.zeros(cap, dtype=np.uint8)
            block[rng.choice(cap, size=count, replace=False)] = 1
            parts.append(block)
        population.append(np.concatenate(parts))
    return population


def _rank_key(individual: EvaluatedIndividual, index: int) -> tuple:
    # higher fitness wins, then fewer connections, then lower stable index
    return (-individual.fitness, individual.n_connections, index)


def tournament_select(
    population: Sequence[EvaluatedIndividual], q: int, rng: np.random.Generator
) -> EvaluatedIndividual:
    """Best of q individuals sampled without replacement."""
    if not population:
        raise InputShapeError("population is empty")
    if not 1 <= q <= len(population):
        raise ConfigError(f"q must lie in [1, {len(population)}], got {q}")
    drawn = rng.choice(len(population), size=q, replace=False)
    best = min(drawn.tolist(), key=lambda i: _rank_key(population[i], i))
    return population[best]


def exchange_segments(
    bits1: np.ndarray, bits2: np.ndarray, points: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Swap alternating segments delimited by sorted cut points."""
    cuts = np.asarray(sorted(points))
    seg = np.searchsorted(cuts, np.arange(bits1.shape[0]), side="right")
    take = seg % 2 == 1
    child1 = np.where(take, bits2, bits1).astype(np.uint8)
    child2 = np.where(take, bits1, bits2).astype(np.uint8)
    return child1, child2


def k_point_crossover(
    parent1: np.ndarray,
    parent2: np.ndarray,
    k: int,
    rng: np.random.Generator,
    crossover_rate: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Children alternate parent segments cut at k distinct points.

    The gate uniform is always drawn, so the random stream advances the
    same way whatever the rate. With probability 1 - crossover_rate the
    children are plain copies.
    """
    if parent1.shape != parent2.shape:
        raise CodecError(f"parents have shapes {parent1.shape} and {parent2.shape}")
    length = parent1.shape[0]
    if not 1 <= k < length:
        raise ConfigError(f"k must lie in [1, {length - 1}], got {k}")
    gate = rng.uniform()
    if gate >= crossover_rate:
        return parent1.copy(), parent2.copy()
    points = rng.choice(np.arange(1, length), size=k, replace=False)
    return exchange_segments(parent1, parent2, points.tolist())


def flip_mutate(bits: np.ndarray, mutation_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with the given probability."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigError(f"mutation_rate must lie in [0,1], got {mutation_rate}")
    flips = rng.uniform(size=bits.shape[0]) < mutation_rate
    return bits ^ flips.astype(np.uint8)


def elitist_replace(
    old_population: Sequence[EvaluatedIndividual],
    offspring: Sequence[EvaluatedIndividual],
    elitist_fraction: float,
) -> list[EvaluatedIndividual]:
    """Carry the top ceil(fraction*N) evaluated individuals, fill with offspring."""
    n = len(old_population)
    n_elites = math.ceil(elitist_fraction * n)
    needed = n - n_elites
    if len(offspring) < needed:
        raise InputShapeError(f"need {needed} offspring to refill, got {len(offspring)}")
    order = sorted(range(n), key=lambda i: _rank_key(old_population[i], i))
    elites = [old_population[i] for i in order[:n_elites]]
    return elites + list(offspring[:needed])


# -- the search ------------------------------------------------------------

def live_row(bits: np.ndarray, layer_sizes: Sequence[int]) -> np.ndarray:
    """The row without its edges into dead units (see :func:`graph.live_units`)."""
    structure = decode(bits, layer_sizes)
    live = live_units(structure)
    kept = [(mask & live[dst]).ravel() for _, dst, mask in structure.blocks]
    return np.concatenate(kept).astype(np.uint8)


class Search:
    """One run's search state, stepped by asking for rows and telling results.

    :meth:`ask` turns the rows waiting to be scored (``pending``) into live
    rows, so the fitness counts the edges the model exports, and returns the
    structures and seeds (from the run seed and the row) of those new to the
    run: the arguments of :func:`train_population`. :meth:`tell` scores the
    results into ``memo``, which maps a live row's bytes to its one record
    for the rest of the search; forms and logs the population; and, unless
    ``done``, breeds the next rows. Once ``done``, both raise GafError.
    Results do not depend on which rows, or which searches' rows, share a
    stack wherever BLAS adds each product's terms in index order (OpenBLAS
    0.3.31 does for at most 15 terms).
    """

    def __init__(self, layer_sizes: Sequence[int], config: GaConfig) -> None:
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.config = config
        self.rng = np.random.default_rng(derive_seed(config.seed, "ga"))
        self.memo: dict[bytes, EvaluatedIndividual] = {}
        self.population: list[EvaluatedIndividual] = []
        self.log: list[GenerationStats] = []
        self.stall = 0
        self.done = False
        self.pending = init_population(config, self.layer_sizes, self.rng)

    def _fresh(self) -> dict[bytes, np.ndarray]:
        keys = [bits.tobytes() for bits in self.pending]
        return {key: bits for key, bits in zip(keys, self.pending) if key not in self.memo}

    def _check_running(self) -> None:
        if self.done:
            raise GafError(f"the search is done after generation {len(self.log) - 1}")

    def ask(self) -> tuple[list[GafStructure], list[int]]:
        self._check_running()
        self.pending = [live_row(bits, self.layer_sizes) for bits in self.pending]
        fresh = self._fresh()
        structures = [decode(bits, self.layer_sizes) for bits in fresh.values()]
        return structures, [derive_seed(self.config.seed, key.hex()) for key in fresh]

    def tell(self, results: Sequence[TrainResult]) -> None:
        self._check_running()
        c, fresh = self.config, self._fresh()
        if len(results) != len(fresh):
            raise InputShapeError(f"asked for {len(fresh)} results, told {len(results)}")
        for (key, bits), result in zip(fresh.items(), results):
            n_conn = int(bits.sum())
            score = fitness(result.train_accuracy, n_conn, len(bits), c.lam)
            self.memo[key] = EvaluatedIndividual(bits, score, n_conn, result)
        scored = [self.memo[bits.tobytes()] for bits in self.pending]
        self.population = (
            elitist_replace(self.population, scored, c.elitist_fraction) if self.log else scored
        )
        self.log.append(_stats(self.population, len(self.log)))
        if len(self.log) > 1:
            gain = self.log[-1].best_fitness - self.log[-2].best_fitness
            self.stall = self.stall + 1 if gain <= c.ga_tolerance else 0
        self.done = self.stall >= c.ga_patience or len(self.log) > c.generations
        if not self.done:
            self.pending = self._breed()

    def _breed(self) -> list[np.ndarray]:
        """Tournament selection, k-point crossover and flip mutation, in that order."""
        c, rng, n = self.config, self.rng, len(self.population)
        n_offspring = n - math.ceil(c.elitist_fraction * n)
        pool = [tournament_select(self.population, c.q, rng) for _ in range(n_offspring)]
        children: list[np.ndarray] = []
        for p1, p2 in zip(pool[::2], pool[1::2]):
            children.extend(k_point_crossover(p1.bits, p2.bits, c.k, rng, c.crossover_rate))
        if len(children) < n_offspring:  # odd pool: clone the leftover parent
            children.append(pool[-1].bits.copy())
        return [flip_mutate(child, c.mutation_rate, rng) for child in children]

    def best(self) -> EvaluatedIndividual:
        """The first top-ranked record of the memo: every scored row joined a
        population, so this is the best individual the search saw."""
        return _population_best(list(self.memo.values()))


def evolve(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    layer_sizes: Sequence[int],
    ga_config: GaConfig,
    train_config: TrainConfig,
) -> tuple[EvaluatedIndividual, list[GenerationStats]]:
    """Run one :class:`Search` to the end: ask, train, tell.

    Stops early once the best fitness has improved by at most ga_tolerance
    for ga_patience consecutive generations. Returns the search's best plus
    the per-generation log. An error names the generation it arose in.
    """
    search = Search(layer_sizes, ga_config)
    while not search.done:
        try:
            structures, seeds = search.ask()
            results = train_population(
                structures, x_train, y_train, x_val, y_val, train_config, seeds
            )
        except GafError as exc:
            raise type(exc)(f"generation {len(search.log)}: {exc}") from exc
        search.tell(results)
    return search.best(), search.log


def _population_best(population: list[EvaluatedIndividual]) -> EvaluatedIndividual:
    i = min(range(len(population)), key=lambda j: _rank_key(population[j], j))
    return population[i]


def _stats(population: list[EvaluatedIndividual], generation: int) -> GenerationStats:
    best = _population_best(population)
    return GenerationStats(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=float(np.mean([ind.fitness for ind in population])),
        best_accuracy=best.result.train_accuracy,
        best_connections=best.n_connections,
    )
