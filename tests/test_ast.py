"""Printers, the token-multiset relation, and the printer bug catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.cases.ast_printing import (Constant, Operation, Variable,
                                           as_string_infix, as_string_postfix,
                                           as_string_prefix, infix_drop_right_operand,
                                           infix_paren_left_as_right,
                                           infix_paren_missing, render_tree,
                                           token_texts_match)
from intramorph.core import UnknownMutantError
from intramorph.generators import random_tree, shrink_tree
from intramorph.registry import get_campaign
from intramorph.seeds import SeededSource


def node_count(node):
    if isinstance(node, Operation):
        return 1 + node_count(node.left) + node_count(node.right)
    return 1


def token_multiset_relation(tree, infix_printer=as_string_infix):
    """The campaign's relation applied to one tree's three renderings."""
    return token_texts_match(infix_printer(tree), as_string_prefix(tree),
                             as_string_postfix(tree))


EXAMPLE = Operation("*", Operation("+", Variable("a"), Constant(3)), Constant(2))

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def seeded_trees():
    return seeds.map(lambda seed: random_tree(SeededSource(seed)))


def test_golden_renderings():
    assert as_string_infix(EXAMPLE) == "(a + 3) * 2"
    assert as_string_prefix(EXAMPLE) == "* + a 3 2"
    assert as_string_postfix(EXAMPLE) == "a 3 + 2 *"


def test_leaves_render_bare():
    assert as_string_infix(Constant(3)) == "3"
    assert as_string_prefix(Variable("a")) == "a"
    assert as_string_postfix(Constant(7)) == "7"


def test_addition_on_top_needs_no_parentheses():
    tree = Operation("+", Variable("a"), Operation("*", Constant(3), Constant(2)))
    assert as_string_infix(tree) == "a + 3 * 2"


def test_small_shapes():
    assert as_string_prefix(Operation("+", Variable("a"), Variable("b"))) == "+ a b"
    assert as_string_postfix(Operation("*", Variable("a"), Variable("b"))) == "a b *"


def test_nested_additions_under_multiplication_wrap_both_sides():
    tree = Operation("*", Operation("+", Variable("a"), Constant(1)),
                     Operation("+", Variable("b"), Constant(2)))
    assert as_string_infix(tree) == "(a + 1) * (b + 2)"


def test_operation_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Operation("-", Variable("a"), Variable("b"))


def test_token_relation_on_example_tree():
    assert token_multiset_relation(EXAMPLE) is True


def test_token_relation_single_leaf():
    assert token_multiset_relation(Variable("c")) is True


@given(seeded_trees())
def test_token_relation_holds_for_correct_printers(tree):
    assert token_multiset_relation(tree) is True


@given(seeded_trees())
def test_prefix_and_postfix_token_counts_equal_node_count(tree):
    count = node_count(tree)
    assert len(as_string_prefix(tree).split(" ")) == count
    assert len(as_string_postfix(tree).split(" ")) == count


def test_paren_left_as_right_mutant_trace():
    tree = Operation("*", Constant(2), Operation("+", Variable("a"), Constant(3)))
    assert infix_paren_left_as_right(tree) == "2 * (2)"
    assert token_multiset_relation(tree, infix_printer=infix_paren_left_as_right) is False


def test_drop_right_operand_mutant_trace():
    tree = Operation("+", Variable("a"), Variable("b"))
    assert infix_drop_right_operand(tree) == "a +"
    assert token_multiset_relation(tree, infix_printer=infix_drop_right_operand) is False


@given(seeded_trees())
def test_paren_missing_is_invisible_to_the_token_relation(tree):
    # stripping parentheses erases exactly what this mutant omits
    assert token_multiset_relation(tree, infix_printer=infix_paren_missing) is True


def test_paren_missing_differs_textually():
    assert infix_paren_missing(EXAMPLE) == "a + 3 * 2"
    assert infix_paren_missing(EXAMPLE) != as_string_infix(EXAMPLE)


def hand_written_paren_missing(node):
    """The body ``infix_paren_missing`` was written as before it was derived."""
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return (hand_written_paren_missing(node.left) + " " + node.operator + " "
            + hand_written_paren_missing(node.right))


@given(seeded_trees())
@settings(max_examples=300)
def test_derived_paren_missing_equals_the_hand_written_one(tree):
    assert infix_paren_missing(tree) == hand_written_paren_missing(tree)


def test_inject_ast_mutant_lookup():
    campaign = get_campaign("ast-token-multiset")
    assert campaign.mutant("paren-left-as-right").replaces == {
        "infix": infix_paren_left_as_right}
    with pytest.raises(UnknownMutantError):
        campaign.mutant("nope")


def test_render_tree_matches_constructor_shape():
    assert render_tree(EXAMPLE) == ("Operation('*', Operation('+', Variable('a'), "
                                    "Constant(3)), Constant(2))")


# --- node value semantics ---------------------------------------------------------

def rebuilt(node):
    """``node`` rebuilt through the public constructors."""
    if isinstance(node, Operation):
        return Operation(node.operator, rebuilt(node.left), rebuilt(node.right))
    if isinstance(node, Variable):
        return Variable(node.name)
    return Constant(node.value)


def test_example_repr_is_pinned():
    assert repr(EXAMPLE) == (
        "Operation(operator='*', left=Operation(operator='+', left=Variable(name='a'), "
        "right=Constant(value=3)), right=Constant(value=2))")


@given(seeded_trees())
def test_a_generated_tree_equals_its_constructor_built_twin(tree):
    twin = rebuilt(tree)
    assert tree == twin and hash(tree) == hash(twin)
    assert type(tree) is type(twin) and repr(tree) == repr(twin)


def test_nodes_are_immutable():
    for node, field in ((EXAMPLE, "operator"), (EXAMPLE, "left"), (Variable("a"), "name"),
                        (Constant(3), "value")):
        with pytest.raises(AttributeError):
            setattr(node, field, getattr(node, field))


def test_an_operation_built_by_replace_is_checked_too():
    with pytest.raises(ValueError):
        EXAMPLE._replace(operator="-")
    assert EXAMPLE._replace(operator="+") == Operation("+", EXAMPLE.left, EXAMPLE.right)


def test_every_shrink_candidate_equals_its_constructor_built_twin():
    for seed in range(200):
        for candidate in shrink_tree(random_tree(SeededSource(seed))):
            twin = rebuilt(candidate)
            assert candidate == twin and hash(candidate) == hash(twin), seed
            assert repr(candidate) == repr(twin), seed
