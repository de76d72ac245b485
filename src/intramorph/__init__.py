"""Random-testing harness built around program pairs: run an original and a
deliberately modified variant on the same generated inputs and check the
declared relation between their outputs. Ships unit, differential, and
metamorphic baseline oracles plus four mutant-injectable case studies."""

from .baselines import (UnitCase, differential_oracle, metamorphic_removal_oracle,
                        unit_oracle)
from .campaign import Campaign, Mutant
from .core import (ApplicationMode, Automation, BudgetExceededError, ConfigurationError,
                   Granularity, InputCase, IntramorphicRelation, IntramorphError,
                   ProgramPair, Provenance, RelationOutcome, RelationStatus,
                   TransformationDescriptor, UnknownCampaignError, UnknownMutantError,
                   equivalence_relation, evaluate_pair)
from .generators import random_array, random_knapsack_instance, random_tree
from .harness import (CampaignConfig, CampaignReport, Counterexample, MatrixCell,
                      MatrixReport, run_campaign, run_detection_matrix)
from .registry import all_campaigns, default_registry, get_campaign
from .seeds import SeededSource, derive_seed

__all__ = [
    "ApplicationMode", "Automation", "BudgetExceededError", "Campaign", "CampaignConfig",
    "CampaignReport", "ConfigurationError", "Counterexample", "Granularity", "InputCase",
    "IntramorphError", "IntramorphicRelation", "MatrixCell", "MatrixReport", "Mutant",
    "ProgramPair", "Provenance", "RelationOutcome", "RelationStatus", "SeededSource",
    "TransformationDescriptor", "UnitCase", "UnknownCampaignError",
    "UnknownMutantError", "all_campaigns", "default_registry", "derive_seed",
    "differential_oracle", "equivalence_relation", "evaluate_pair", "get_campaign",
    "metamorphic_removal_oracle", "random_array", "random_knapsack_instance", "random_tree",
    "run_campaign", "run_detection_matrix", "unit_oracle",
]
