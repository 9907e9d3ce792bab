"""The genetic-algorithm selector R2C2 settled on (paper §3.4).

"We opted for genetic algorithms, a search heuristic that emulates natural
selection ... our problem can be naturally encoded as bit strings, where one
or more bits identify the routing protocol assigned to a given flow."

The implementation follows the paper's description: the initial population
contains the *current* routing allocation plus random genotypes; each
generation keeps the top genotypes (elitism) and fills the rest with
crossover + mutation offspring; the loop stops after a fixed number of
generations or once no improvement is seen for a patience window.  The
paper's experiment uses a population of 100 and a mutation probability of
0.01, which are the defaults here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import SelectionError
from .search import Assignment, SearchResult, SelectionProblem

#: Genotypes drawn per tournament (selection pressure).
_TOURNAMENT_SIZE = 3


@dataclass
class GeneticConfig:
    """GA hyper-parameters (paper defaults)."""

    population_size: int = 100
    mutation_probability: float = 0.01
    elite_fraction: float = 0.1
    max_generations: int = 50
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SelectionError("population_size must be >= 2")
        if not (0.0 <= self.mutation_probability <= 1.0):
            raise SelectionError("mutation_probability must be in [0, 1]")
        if not (0.0 < self.elite_fraction <= 1.0):
            raise SelectionError("elite_fraction must be in (0, 1]")
        if self.max_generations < 1 or self.patience < 1:
            raise SelectionError("max_generations and patience must be >= 1")


class GeneticSelector:
    """Evolves protocol assignments toward maximal utility."""

    def __init__(self, config: Optional[GeneticConfig] = None) -> None:
        self.config = config or GeneticConfig()

    def search(self, problem: SelectionProblem) -> SearchResult:
        """Run the GA; returns the best assignment found."""
        cfg = self.config
        rng = random.Random(cfg.seed)

        # Seed with the current allocation (the paper's choice) plus each
        # all-one-protocol genotype, so the search result can never fall
        # below the best uniform baseline; fill the rest randomly.
        population: List[Assignment] = [problem.current_assignment()]
        for choice in range(problem.n_choices):
            uniform = (choice,) * problem.n_flows
            if uniform not in population:
                population.append(uniform)
        while len(population) < cfg.population_size:
            population.append(problem.random_assignment(rng))
        population = population[: cfg.population_size]

        n_elite = max(1, int(cfg.elite_fraction * cfg.population_size))
        best: Tuple[float, Assignment] = (float("-inf"), population[0])
        history: List[float] = []
        stale = 0

        for _ in range(cfg.max_generations):
            scored = sorted(
                ((problem.fitness(g), g) for g in population),
                key=lambda pair: pair[0],
                reverse=True,
            )
            generation_best = scored[0]
            history.append(generation_best[0])
            if generation_best[0] > best[0] + 1e-12:
                best = generation_best
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

            elites = [g for _, g in scored[:n_elite]]
            next_population = list(elites)
            while len(next_population) < cfg.population_size:
                parent_a = self._tournament(scored, rng)
                parent_b = self._tournament(scored, rng)
                child = self._crossover(parent_a, parent_b, rng)
                child = self._mutate(child, problem.n_choices, rng)
                next_population.append(child)
            population = next_population

        return SearchResult(
            assignment=best[1],
            utility=best[0],
            evaluations=problem.evaluations,
            history=history,
            heuristic="genetic",
        )

    def _tournament(self, scored, rng: random.Random) -> Assignment:
        """Pick the fittest of a random handful (selection pressure)."""
        contenders = [scored[rng.randrange(len(scored))] for _ in range(_TOURNAMENT_SIZE)]
        return max(contenders, key=lambda pair: pair[0])[1]

    @staticmethod
    def _crossover(a: Assignment, b: Assignment, rng: random.Random) -> Assignment:
        """Single-point crossover on the genotype string."""
        if len(a) <= 1:
            return a
        point = rng.randrange(1, len(a))
        return a[:point] + b[point:]

    def _mutate(
        self, genotype: Assignment, n_choices: int, rng: random.Random
    ) -> Assignment:
        """Per-gene resampling with the configured probability."""
        if n_choices < 2:
            return genotype
        p = self.config.mutation_probability
        mutated = list(genotype)
        for i in range(len(mutated)):
            if rng.random() < p:
                mutated[i] = rng.randrange(n_choices)
        return tuple(mutated)
