"""Campaign and mutant records: everything the harness needs to run one oracle."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from .core import Evaluator, TransformationDescriptor, UnknownMutantError
from .seeds import SeededSource

# build_evaluator(programs, statistical_repetitions, budget_seconds)
EvaluatorFactory = Callable[[Mapping[str, Callable], Optional[int], Optional[float]],
                            Evaluator]


@dataclass(frozen=True)
class Mutant:
    """One injectable seeded bug, with its expected detectability.

    ``replaces`` maps a component name of the owning campaign to the buggy
    program that stands in for it; the campaign's evaluator runs with these
    replacements laid over its default components. ``expected_detected``
    records whether the campaign's oracle should flag the bug; ``in_matrix``
    is False for bugs the oracle provably cannot see per input (they stay
    runnable but contribute no detection-matrix cell). ``replaces`` is held
    as a read-only copy, so a registered mutant cannot be edited in place.
    """

    name: str
    summary: str
    replaces: Mapping[str, Callable]
    expected_detected: bool = True
    in_matrix: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "replaces", MappingProxyType(dict(self.replaces)))

    def expectation_label(self) -> str:
        if not self.in_matrix:
            return "outside-matrix"
        return "expected-detected" if self.expected_detected else "blind-spot"


@dataclass(frozen=True)
class Campaign:
    """A registered (generator, oracle, mutant catalog) triple.

    ``oracle_style`` is one of unit / differential / metamorphic /
    intramorphic; intramorphic campaigns must carry a transformation
    descriptor, and a campaign is stochastic exactly when that descriptor
    admits false alarms. A stochastic campaign, and only such a one, has
    ``default_repetitions``: the k of its median-of-k relation.

    ``components`` maps the name of each program the oracle runs to its
    default implementation; mutants may replace only these.
    ``build_evaluator`` is called with the programs the harness resolved
    from this record (:meth:`programs`), so a copy made with
    ``dataclasses.replace`` runs the ``components`` and ``mutants`` it holds.
    ``components`` is held as a read-only copy, so a registered campaign
    cannot be edited in place.
    """

    name: str
    case_study: str
    oracle_style: str
    generate: Callable[[SeededSource], Any]
    build_evaluator: EvaluatorFactory
    render_payload: Callable[[Any], str]
    shrink_payload: Callable[[Any], list]
    components: Mapping[str, Callable]
    render_output: Callable[[Any], str] = str
    descriptor: Optional[TransformationDescriptor] = None
    mutants: tuple[Mutant, ...] = ()
    default_repetitions: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        names = [mutant.name for mutant in self.mutants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate mutant names in campaign {self.name}: {names}")
        declared = set(self.components)
        for mutant in self.mutants:
            if not mutant.replaces or not set(mutant.replaces) <= declared:
                raise ValueError(
                    f"mutant {mutant.name!r} of campaign {self.name} must replace some of "
                    f"the components {sorted(declared)}, got {sorted(mutant.replaces)}")
        if self.oracle_style == "intramorphic" and self.descriptor is None:
            raise ValueError(f"campaign {self.name} is intramorphic but has no descriptor")
        if self.stochastic != (self.default_repetitions is not None):
            raise ValueError(f"campaign {self.name} must have default repetitions exactly "
                             f"when it is stochastic, got {self.default_repetitions!r}")

    @property
    def stochastic(self) -> bool:
        return self.descriptor is not None and self.descriptor.false_alarm_possible

    def mutant(self, name: str) -> Mutant:
        for mutant in self.mutants:
            if mutant.name == name:
                return mutant
        raise UnknownMutantError(
            f"campaign {self.name!r} has no mutant {name!r}; "
            f"known: {[m.name for m in self.mutants]}")

    def programs(self, mutant: Optional[str]) -> dict[str, Callable]:
        """The default components with the named mutant's replacements laid over."""
        programs = dict(self.components)
        if mutant is not None:
            programs.update(self.mutant(mutant).replaces)
        return programs

    def matrix_mutants(self) -> tuple[Mutant, ...]:
        return tuple(mutant for mutant in self.mutants if mutant.in_matrix)
