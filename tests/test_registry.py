"""The campaign table: mutant records, component overlays, catalog checks."""

import dataclasses

import pytest

import intramorph
from intramorph.cases import knapsack, sorting
from intramorph.core import UnknownCampaignError, UnknownMutantError
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


def test_every_public_name_resolves():
    namespace = {}
    # a name in __all__ that the package does not define makes the import raise
    exec("from intramorph import *", namespace)
    assert set(intramorph.__all__) <= set(namespace)
