"""Shared fixtures: a lazily built session corpus of generated inputs, and
recorders of the states and cold solves a run makes."""

from __future__ import annotations

import pytest

import helpers
import logsurf.crepant
from logsurf import (
    MorphismSpec,
    DecompositionTrace,
    SurfaceState,
    decompose_morphism,
    generate_crepant_pair,
)

PAIR_COUNT = 500


def _template(seed: int):
    return helpers.corner() if seed % 2 == 0 else helpers.boundary_chain()


class Corpus:
    """Generated crepant pairs and their decompositions, built once on demand."""

    def __init__(self) -> None:
        self._pairs: list[MorphismSpec] | None = None
        self._traces: list[DecompositionTrace] | None = None

    def pairs(self) -> list[MorphismSpec]:
        if self._pairs is None:
            self._pairs = [
                generate_crepant_pair(_template(seed), 1 + seed % 12, seed)
                for seed in range(PAIR_COUNT)
            ]
        return self._pairs

    def adopt_traces(self, traces: list[DecompositionTrace]) -> None:
        self._traces = traces

    def traces(self) -> list[DecompositionTrace]:
        if self._traces is None:
            self._traces = [decompose_morphism(spec) for spec in self.pairs()]
        return self._traces


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    return Corpus()


@pytest.fixture
def made(monkeypatch):
    """Every state `SurfaceState.successor` makes."""
    states = []
    real = SurfaceState.successor

    def recording(self, cid):
        new = real(self, cid)
        states.append(new)
        return new

    monkeypatch.setattr(SurfaceState, "successor", recording)
    return states


@pytest.fixture
def cold(monkeypatch):
    """Every (configuration, contracted set, solution) that is solved cold
    (`crepant_pullback`)."""
    solved = []
    real = logsurf.crepant.crepant_pullback

    def recording(config, contracted):
        data = real(config, contracted)
        solved.append((config, data.contracted, data))
        return data

    monkeypatch.setattr(logsurf.crepant, "crepant_pullback", recording)
    return solved
