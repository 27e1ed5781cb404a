"""Shared fixtures: the bundled three-obstacle workspace, a seeded generator,
and an import parser."""

import ast
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from apf_rcbf import Scenario, load_scenario


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
