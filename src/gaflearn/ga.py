"""Genetic search over classifier graph structures.

Chromosomes are bit strings over adjacent layer pairs: bit
offset(i) + a*s_{i+1} + b switches the edge from argument a of layer i to
argument b of layer i+1. Each individual is evaluated by training its
weights (training module) and scoring a convex combination of train
accuracy and sparsity: f = (1-lambda)*accuracy + lambda*(N_poss-N_conn)/N_poss.
Selection is q-tournament, recombination k-point crossover, mutation
per-bit flips, replacement elitist. Everything is deterministic under the
config seed; each generation's structures train together as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CodecError, ConfigError, GafError, InputShapeError
from .graph import GafStructure
from .train import TrainConfig, TrainResult, accuracy as net_accuracy, train_population
from .util import derive_seed


def chromosome_length(layer_sizes: Sequence[int]) -> int:
    return sum(layer_sizes[i] * layer_sizes[i + 1] for i in range(len(layer_sizes) - 1))


@dataclass(eq=False)
class Chromosome:
    bits: np.ndarray  # uint8 vector of 0/1
    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        want = chromosome_length(self.layer_sizes)
        if self.bits.ndim != 1 or self.bits.shape[0] != want:
            raise CodecError(
                f"chromosome for layers {self.layer_sizes} needs {want} bits, "
                f"got shape {self.bits.shape}"
            )
        if ((self.bits != 0) & (self.bits != 1)).any():
            raise CodecError("chromosome bits must be 0 or 1")

    @property
    def length(self) -> int:
        return int(self.bits.shape[0])

    def n_connections(self) -> int:
        return int(self.bits.sum())

    def key(self) -> bytes:
        return self.bits.tobytes()

    def copy(self) -> "Chromosome":
        return Chromosome(self.bits.copy(), self.layer_sizes)


def decode(chromosome: Chromosome) -> GafStructure:
    """Bits to connection masks, row-major per adjacent layer pair."""
    sizes = chromosome.layer_sizes
    blocks = []
    offset = 0
    for i in range(len(sizes) - 1):
        n = sizes[i] * sizes[i + 1]
        mask = chromosome.bits[offset : offset + n].reshape(sizes[i], sizes[i + 1]) != 0
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
    lam: float
    n_conn_init: tuple[int, ...]
    q: int = 3
    k: int = 2
    ga_patience: int = 5
    ga_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_conn_init", tuple(int(c) for c in self.n_conn_init))
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        for name in ("crossover_rate", "mutation_rate", "lam"):
            v = getattr(self, name)
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
        if self.ga_tolerance < 0:
            raise ConfigError(f"ga_tolerance must be >= 0, got {self.ga_tolerance}")
        if any(c < 0 for c in self.n_conn_init):
            raise ConfigError("n_conn_init counts must be >= 0")


@dataclass
class EvaluatedIndividual:
    chromosome: Chromosome
    fitness: float
    train_accuracy: float
    n_connections: int
    n_possible: int
    result: TrainResult


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_accuracy: float
    best_connections: int


def init_population(
    config: GaConfig, layer_sizes: Sequence[int], rng: np.random.Generator | None = None
) -> list[Chromosome]:
    """N chromosomes with exactly n_conn_init[i] ones per layer-pair block."""
    sizes = tuple(int(s) for s in layer_sizes)
    n_blocks = len(sizes) - 1
    if len(config.n_conn_init) != n_blocks:
        raise ConfigError(
            f"n_conn_init has {len(config.n_conn_init)} entries for {n_blocks} layer pairs"
        )
    capacities = [sizes[i] * sizes[i + 1] for i in range(n_blocks)]
    for count, cap in zip(config.n_conn_init, capacities):
        if count > cap:
            raise ConfigError(f"initial connection count {count} exceeds block capacity {cap}")
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.seed, "init"))
    population = []
    for _ in range(config.population_size):
        parts = []
        for count, cap in zip(config.n_conn_init, capacities):
            block = np.zeros(cap, dtype=np.uint8)
            block[rng.choice(cap, size=count, replace=False)] = 1
            parts.append(block)
        population.append(Chromosome(np.concatenate(parts), sizes))
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
    parent1: Chromosome,
    parent2: Chromosome,
    k: int,
    rng: np.random.Generator,
    crossover_rate: float = 1.0,
) -> tuple[Chromosome, Chromosome]:
    """Children alternate parent segments cut at k distinct points.

    The gate uniform is always drawn, so the random stream advances the
    same way whatever the rate. With probability 1 - crossover_rate the
    children are plain copies.
    """
    if parent1.layer_sizes != parent2.layer_sizes:
        raise CodecError("parents must share layer sizes")
    length = parent1.length
    if not 1 <= k < length:
        raise ConfigError(f"k must lie in [1, {length - 1}], got {k}")
    gate = rng.uniform()
    if gate >= crossover_rate:
        return parent1.copy(), parent2.copy()
    points = rng.choice(np.arange(1, length), size=k, replace=False)
    c1, c2 = exchange_segments(parent1.bits, parent2.bits, points.tolist())
    return Chromosome(c1, parent1.layer_sizes), Chromosome(c2, parent2.layer_sizes)


def flip_mutate(
    chromosome: Chromosome, mutation_rate: float, rng: np.random.Generator
) -> Chromosome:
    """Flip each bit independently with the given probability."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigError(f"mutation_rate must lie in [0,1], got {mutation_rate}")
    flips = rng.uniform(size=chromosome.length) < mutation_rate
    return Chromosome(chromosome.bits ^ flips.astype(np.uint8), chromosome.layer_sizes)


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


# -- fitness evaluation ----------------------------------------------------

@dataclass
class _Evaluator:
    """Trains a generation's unique chromosomes once each, together.

    Duplicate chromosomes within a generation reuse the first occurrence's
    trained result (and therefore its derived seed), so evaluation cost
    scales with structural diversity. Each seed comes from the generation
    and the first occurrence's index, and a stacked training equals a lone
    one, so results do not depend on which structures train together.
    """

    data: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # x, y train; x, y val
    master_seed: int
    lam: float
    train_config: TrainConfig

    def evaluate(self, chromosomes: list[Chromosome], generation: int) -> list[EvaluatedIndividual]:
        first_index: dict[bytes, int] = {}
        for i, c in enumerate(chromosomes):
            first_index.setdefault(c.key(), i)
        results = train_population(
            [decode(chromosomes[i]) for i in first_index.values()],
            *self.data,
            self.train_config,
            [derive_seed(self.master_seed, generation, i) for i in first_index.values()],
        )
        accuracies = [net_accuracy(r.net, *self.data[:2]) for r in results]
        outcomes = dict(zip(first_index, zip(accuracies, results)))

        population = []
        for c in chromosomes:
            acc, result = outcomes[c.key()]
            n_conn = c.n_connections()
            population.append(
                EvaluatedIndividual(
                    chromosome=c,
                    fitness=fitness(acc, n_conn, c.length, self.lam),
                    train_accuracy=acc,
                    n_connections=n_conn,
                    n_possible=c.length,
                    result=result,
                )
            )
        return population


def evolve(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    layer_sizes: Sequence[int],
    ga_config: GaConfig,
    train_config: TrainConfig,
) -> tuple[EvaluatedIndividual, list[GenerationStats]]:
    """Run the full loop: evaluate, select, recombine, mutate, replace.

    Stops early once the best fitness has improved by at most ga_tolerance
    for ga_patience consecutive generations; always returns the all-time
    best individual plus the per-generation log. Weight-training seeds are
    derived from (seed, generation, individual index), so the outcome does
    not depend on which structures share a generation's training stack.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(derive_seed(ga_config.seed, "ga"))
    evaluator = _Evaluator(
        (x_train, y_train, x_val, y_val), ga_config.seed, ga_config.lam, train_config
    )
    chromosomes = init_population(ga_config, sizes, rng)
    population = _with_context(evaluator, chromosomes, 0)
    log = [_stats(population, 0)]
    best = _population_best(population)
    prev_best = log[0].best_fitness
    stall = 0

    n = ga_config.population_size
    n_elites = math.ceil(ga_config.elitist_fraction * n)
    n_offspring = n - n_elites
    for generation in range(1, ga_config.generations + 1):
        pool = [tournament_select(population, ga_config.q, rng) for _ in range(n_offspring)]
        children: list[Chromosome] = []
        for i in range(0, n_offspring - 1, 2):
            c1, c2 = k_point_crossover(
                pool[i].chromosome,
                pool[i + 1].chromosome,
                ga_config.k,
                rng,
                ga_config.crossover_rate,
            )
            children.extend((c1, c2))
        if len(children) < n_offspring:  # odd pool: clone the leftover parent
            children.append(pool[-1].chromosome.copy())
        children = [flip_mutate(c, ga_config.mutation_rate, rng) for c in children]
        offspring = _with_context(evaluator, children, generation)
        population = elitist_replace(population, offspring, ga_config.elitist_fraction)

        log.append(_stats(population, generation))
        candidate = _population_best(population)
        if candidate.fitness > best.fitness or (
            candidate.fitness == best.fitness
            and candidate.n_connections < best.n_connections
        ):
            best = candidate
        gen_best = log[-1].best_fitness
        if gen_best - prev_best <= ga_config.ga_tolerance:
            stall += 1
        else:
            stall = 0
        prev_best = gen_best
        if stall >= ga_config.ga_patience:
            break
    return best, log


def _with_context(
    evaluator: _Evaluator, chromosomes: list[Chromosome], generation: int
) -> list[EvaluatedIndividual]:
    try:
        return evaluator.evaluate(chromosomes, generation)
    except GafError as exc:
        raise type(exc)(f"generation {generation}: {exc}") from exc


def _population_best(population: list[EvaluatedIndividual]) -> EvaluatedIndividual:
    i = min(range(len(population)), key=lambda j: _rank_key(population[j], j))
    return population[i]


def _stats(population: list[EvaluatedIndividual], generation: int) -> GenerationStats:
    best = _population_best(population)
    return GenerationStats(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=float(np.mean([ind.fitness for ind in population])),
        best_accuracy=best.train_accuracy,
        best_connections=best.n_connections,
    )
