"""The routing-selection search problem and shared harness (paper §3.4).

A candidate solution ("genotype") assigns each flow one routing protocol
from a candidate set; its fitness is the operator's utility metric applied
to the water-filled rate allocation under that assignment.  The search
space is ``len(protocols) ** n_flows`` and the landscape has many local
maxima, which is why the paper moved from hill climbing to a genetic
algorithm; all the heuristics it mentions are implemented on top of this
harness for comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..congestion.flowstate import FlowSpec
from ..congestion.linkweights import WeightProvider
from ..congestion.waterfill import waterfill
from ..errors import SelectionError
from ..topology.base import Topology
from .objective import AggregateThroughput, UtilityMetric

#: An assignment: protocol index per flow, parallel to the flow list.
Assignment = Tuple[int, ...]


class SelectionProblem:
    """Evaluates protocol assignments for a fixed set of flows.

    Evaluations are memoized: heuristics revisit genotypes constantly, and
    a water-fill is the expensive step.
    """

    def __init__(
        self,
        topology: Topology,
        flows: Sequence[FlowSpec],
        protocols: Sequence[str] = ("rps", "vlb"),
        utility: Optional[UtilityMetric] = None,
        provider: Optional[WeightProvider] = None,
        headroom: float = 0.0,
    ) -> None:
        if not flows:
            raise SelectionError("selection needs at least one flow")
        if not protocols:
            raise SelectionError("selection needs at least one candidate protocol")
        self.topology = topology
        self.flows = list(flows)
        self.protocols = list(protocols)
        self.utility = utility if utility is not None else AggregateThroughput()
        self.provider = provider if provider is not None else WeightProvider(topology)
        self.headroom = headroom
        self.evaluations = 0
        self._cache: Dict[Assignment, float] = {}

    @property
    def n_flows(self) -> int:
        """Number of flows being assigned."""
        return len(self.flows)

    @property
    def n_choices(self) -> int:
        """Number of candidate protocols per flow."""
        return len(self.protocols)

    def current_assignment(self) -> Assignment:
        """The flows' present protocols, as an assignment (for seeding)."""
        indices = []
        for spec in self.flows:
            try:
                indices.append(self.protocols.index(spec.protocol))
            except ValueError:
                indices.append(0)
        return tuple(indices)

    def random_assignment(self, rng: random.Random) -> Assignment:
        """A uniformly random genotype."""
        return tuple(rng.randrange(self.n_choices) for _ in range(self.n_flows))

    def fitness(self, assignment: Assignment) -> float:
        """Utility of the water-filled allocation under *assignment*."""
        if len(assignment) != self.n_flows:
            raise SelectionError(
                f"assignment length {len(assignment)} != {self.n_flows} flows"
            )
        cached = self._cache.get(assignment)
        if cached is not None:
            return cached
        specs = [
            spec.with_protocol(self.protocols[idx])
            for spec, idx in zip(self.flows, assignment)
        ]
        allocation = waterfill(
            self.topology, specs, self.provider, headroom=self.headroom
        )
        value = self.utility.evaluate(allocation)
        self._cache[assignment] = value
        self.evaluations += 1
        return value

    def assignment_as_protocols(self, assignment: Assignment) -> List[str]:
        """Protocol names per flow for an assignment."""
        return [self.protocols[idx] for idx in assignment]


@dataclass
class SearchResult:
    """Outcome of one heuristic run."""

    assignment: Assignment
    utility: float
    evaluations: int
    history: List[float] = field(default_factory=list)
    heuristic: str = ""


def uniform_baseline(problem: SelectionProblem, protocol: str) -> SearchResult:
    """Everyone uses *protocol* — the RPS/VLB baselines of Figure 18."""
    try:
        idx = problem.protocols.index(protocol)
    except ValueError:
        raise SelectionError(
            f"{protocol!r} not among candidates {problem.protocols}"
        ) from None
    assignment = (idx,) * problem.n_flows
    return SearchResult(
        assignment=assignment,
        utility=problem.fitness(assignment),
        evaluations=1,
        heuristic=f"all-{protocol}",
    )


def random_baseline(problem: SelectionProblem, seed: int = 0) -> SearchResult:
    """Each flow picks uniformly at random — Figure 18's Random baseline."""
    rng = random.Random(seed)
    assignment = problem.random_assignment(rng)
    return SearchResult(
        assignment=assignment,
        utility=problem.fitness(assignment),
        evaluations=1,
        heuristic="random",
    )
