"""Shared helpers for the tests that walk an action's group node by node."""

from qha.groups import QuadratureGroup


def nodes_of(action):
    """Every node of the action's group, in node order."""
    group = action.group
    if isinstance(group, QuadratureGroup):
        return list(group.nodes)
    return list(group.elements())
