"""Shared fixtures and arenas: the bundled three-obstacle workspace, the
overlap arena, translated copies of an arena, a seeded generator, and an
import parser.  Test modules import ``OVERLAP`` and ``shifted`` from here."""

import ast
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from apf_rcbf import Obstacle, Scenario, load_scenario

# two obstacles whose influence shells overlap in the gap between them, in
# front of the goal: two filter corrections are live at once, and apf runs
# from (0, 0.1) stall in front of the gap long before t_max
OVERLAP = Scenario(goal=[5.0, 0.0],
                   obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                              Obstacle([2.0, -0.6], 0.5, 0.4)))


def shifted(scenario: Scenario, shift: float) -> Scenario:
    """``scenario`` translated by ``shift`` along both axes."""
    return Scenario(goal=scenario.goal + shift,
                    obstacles=tuple(Obstacle(o.center + shift, o.radius, o.influence_margin)
                                    for o in scenario.obstacles),
                    k_att=scenario.k_att, k_rep=scenario.k_rep,
                    alpha_gain=scenario.alpha_gain)


def bundled_data(name: str) -> Path:
    return Path(str(resources.files("apf_rcbf").joinpath("data", name)))


@pytest.fixture(scope="session")
def arena() -> Scenario:
    """The bundled three-obstacle workspace the demo config runs in."""
    return load_scenario(bundled_data("fig2_scenario.json"))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def package_imports():
    """A function: the package modules a module of ``apf_rcbf`` imports,
    parsed from its source (``from .x import y`` and ``from . import x``
    both name ``x``)."""
    def parse(module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    names.update([node.module] if node.module
                                 else [alias.name for alias in node.names])
                elif node.module.startswith("apf_rcbf"):
                    names.add(node.module)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.startswith("apf_rcbf"))
        return names
    return parse
