"""Expression-tree case study: infix, prefix, and postfix printers.

The infix printer must parenthesize an addition that sits directly under a
multiplication; prefix and postfix need no parentheses at all, which is what
makes them trustworthy companions. The token-multiset relation compares the
three renderings after stripping the infix parentheses. One bug is derived
from the infix printer by one edit; the other two are written out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import derive


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Constant:
    value: int


@dataclass(frozen=True)
class Operation:
    operator: str
    left: "ExprNode"
    right: "ExprNode"

    def __post_init__(self) -> None:
        if self.operator not in ("+", "*"):
            raise ValueError(f"unsupported operator {self.operator!r}")


ExprNode = Union[Operation, Variable, Constant]


def as_string_infix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    left = as_string_infix(node.left)
    right = as_string_infix(node.right)
    if node.operator == "*":
        if isinstance(node.left, Operation) and node.left.operator == "+":
            left = "(" + left + ")"
        if isinstance(node.right, Operation) and node.right.operator == "+":
            right = "(" + right + ")"
    return left + " " + node.operator + " " + right


def as_string_prefix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return node.operator + " " + as_string_prefix(node.left) + " " + as_string_prefix(node.right)


def as_string_postfix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return as_string_postfix(node.left) + " " + as_string_postfix(node.right) + " " + node.operator


def token_texts_match(infix_text: str, prefix_text: str, postfix_text: str) -> bool:
    """Sorted-token equality of the three renderings, parentheses stripped first."""
    infix_tokens = sorted(infix_text.replace("(", "").replace(")", "").split(" "))
    prefix_tokens = sorted(prefix_text.split(" "))
    postfix_tokens = sorted(postfix_text.split(" "))
    return infix_tokens == prefix_tokens and infix_tokens == postfix_tokens


def render_tree(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return f"Variable({node.name!r})"
    if isinstance(node, Constant):
        return f"Constant({node.value})"
    return f"Operation({node.operator!r}, {render_tree(node.left)}, {render_tree(node.right)})"


infix_paren_left_as_right = derive(
    as_string_infix, "infix_paren_left_as_right",
    """Seeded bug: when the right operand needs parentheses, the left operand's
    text is wrapped and assigned instead.""",
    ('"(" + right + ")"', '"(" + left + ")"'))


def infix_drop_right_operand(node: ExprNode) -> str:
    """Seeded bug: operations render the left operand and operator only."""
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return infix_drop_right_operand(node.left) + " " + node.operator


def infix_paren_missing(node: ExprNode) -> str:
    """Seeded bug: parentheses are never added.

    Known blind spot: the token relation strips parentheses before comparing,
    so it cannot distinguish this printer from the correct one.
    """
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return (infix_paren_missing(node.left) + " " + node.operator + " "
            + infix_paren_missing(node.right))
