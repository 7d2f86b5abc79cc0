"""Fixtures shared by the rule and check-order tests."""

import importlib

import pytest

cli_module = importlib.import_module("ecdkit.cli")
ecd_module = importlib.import_module("ecdkit.ecd")
experiments_module = importlib.import_module("ecdkit.experiments")


@pytest.fixture
def calls(monkeypatch):
    """Names of the stages that ran: pooled distances, subsample rounds,
    k-MSTs, experiment cells and CSV loads."""
    seen = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_pooled_distances", "subsample_round_indices", "kmst"):
        counted(ecd_module, name)
    for name in ("_pooled_distances", "_sweep_cell", "_grid_cell"):
        counted(experiments_module, name)
    for name in ("load_feature_csv", "load_distance_csv"):
        counted(cli_module, name)
    return seen
