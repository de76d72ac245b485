"""The campaign table: mutant records, component overlays, catalog checks."""

import dataclasses

import pytest

import intramorph
from intramorph.cases import knapsack, sorting
from intramorph.core import InputCase, Provenance, UnknownCampaignError, UnknownMutantError
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign

SORTING_CAMPAIGNS = ("sorting-unit", "sorting-differential", "sorting-metamorphic",
                     "sorting-intramorphic", "sorting-equivalence")


def test_swap_index_record_is_shared_by_every_sorting_campaign():
    records = {id(get_campaign(name).mutant("swap-index-i")) for name in SORTING_CAMPAIGNS}
    assert len(records) == 1


def test_programs_overlay_the_mutant_on_the_defaults():
    campaign = get_campaign("sorting-intramorphic")
    assert campaign.programs(None) == {"ascending": sorting.bubble_sort,
                                       "descending": sorting.bubble_sort_reverse}
    assert campaign.programs("sort-ascending-in-reverse") == {
        "ascending": sorting.bubble_sort,
        "descending": sorting.bubble_sort}
    knapsack_campaign = get_campaign("knapsack-optimality")
    assert knapsack_campaign.programs("exhaustive-skip-include") == {
        "greedy": knapsack.knapsack_greedy,
        "exhaustive": knapsack.knapsack_exhaustive_skip_include}
    # overlaying never edits the defaults
    assert campaign.components["descending"] is sorting.bubble_sort_reverse


def test_registered_campaign_and_mutant_cannot_be_edited_in_place():
    campaign = get_campaign("sorting-unit")
    config = CampaignConfig(campaign=campaign.name, seed=1, iterations=50,
                            mutant="swap-index-i")
    expected = run_campaign(config)
    with pytest.raises(TypeError):
        campaign.components["ascending"] = sorting.bubble_sort_reverse
    with pytest.raises(TypeError):
        campaign.mutant("swap-index-i").replaces["ascending"] = sorting.bubble_sort
    report = run_campaign(config)
    assert (dataclasses.replace(report, wall_time_ms=0)
            == dataclasses.replace(expected, wall_time_ms=0))
    assert report.counterexample is not None


def test_campaign_lookup_searches_the_given_registry():
    campaign = get_campaign("sorting-unit")
    assert get_campaign("sorting-unit", {"sorting-unit": campaign}) is campaign
    with pytest.raises(UnknownCampaignError) as raised:
        get_campaign("sorting-unit", {"other": campaign})
    assert str(raised.value) == "unknown campaign 'sorting-unit'; known: ['other']"


def test_unknown_mutant_raises_when_the_programs_are_resolved():
    with pytest.raises(UnknownMutantError):
        get_campaign("sorting-equivalence").programs("nope")


def test_campaign_rejects_a_mutant_replacing_an_undeclared_component():
    campaign = get_campaign("sorting-unit")
    stray = dataclasses.replace(campaign.mutant("swap-index-i"), name="stray",
                                replaces={"descending": sorting.bubble_sort_reverse})
    with pytest.raises(ValueError, match="stray"):
        dataclasses.replace(campaign, mutants=campaign.mutants + (stray,))
    empty = dataclasses.replace(stray, replaces={})
    with pytest.raises(ValueError, match="stray"):
        dataclasses.replace(campaign, mutants=campaign.mutants + (empty,))


def test_campaign_rejects_duplicate_mutant_names():
    campaign = get_campaign("sorting-unit")
    with pytest.raises(ValueError, match="duplicate mutant names in campaign sorting-unit"):
        dataclasses.replace(campaign, mutants=campaign.mutants * 2)


def test_intramorphic_campaign_needs_a_descriptor():
    with pytest.raises(ValueError,
                       match="campaign sorting-equivalence is intramorphic but has no descriptor"):
        dataclasses.replace(get_campaign("sorting-equivalence"), descriptor=None)


# default repetitions are the k of a median-of-k relation, so a campaign
# has them exactly when its descriptor admits false alarms
def test_campaign_has_default_repetitions_exactly_when_stochastic():
    stochastic = get_campaign("montecarlo-convergence")
    deterministic_descriptor = dataclasses.replace(stochastic.descriptor,
                                                   false_alarm_possible=False)
    copies = [
        lambda: dataclasses.replace(get_campaign("sorting-unit"), default_repetitions=3),
        lambda: dataclasses.replace(get_campaign("sorting-equivalence"), default_repetitions=3),
        lambda: dataclasses.replace(stochastic, default_repetitions=None),
        lambda: dataclasses.replace(stochastic, descriptor=deterministic_descriptor),
    ]
    for copy in copies:
        with pytest.raises(ValueError, match="must have default repetitions exactly "
                                             "when it is stochastic"):
            copy()


def test_every_public_name_resolves():
    namespace = {}
    # a name in __all__ that the package does not define makes the import raise
    exec("from intramorph import *", namespace)
    assert set(intramorph.__all__) <= set(namespace)


def test_default_registry_cannot_be_edited():
    registry = intramorph.default_registry()
    with pytest.raises(TypeError):
        registry["sorting-unit"] = get_campaign("sorting-equivalence")
    with pytest.raises(TypeError):
        del registry["sorting-unit"]
    assert get_campaign("sorting-unit").name == "sorting-unit"


def returning_none(values):
    return None


# a sort that returns None fails its side, labelled, whichever sort of a
# pair it is and whether or not the other side fails alike
@pytest.mark.parametrize("name, components, detail", [
    ("sorting-equivalence", ("merge",), "variant: TypeError: sort returned NoneType, not a list"),
    ("sorting-equivalence", ("ascending", "merge"),
     "original: TypeError: sort returned NoneType, not a list"),
    ("sorting-intramorphic", ("descending",),
     "variant: TypeError: sort returned NoneType, not a list"),
])
def test_pair_side_whose_sort_returns_none_is_a_labelled_error(name, components, detail):
    campaign = get_campaign(name)
    broken = dataclasses.replace(
        campaign, components={**campaign.components, **dict.fromkeys(components, returning_none)})
    report = run_campaign(CampaignConfig(campaign=name, seed=1, iterations=5),
                          registry={name: broken})
    assert (report.violations, report.execution_errors) == (0, 5)
    evaluate = broken.build_evaluator(broken.programs(None), None, None)
    assert evaluate(InputCase((2, 1), Provenance(1, 1))).error_detail == detail
