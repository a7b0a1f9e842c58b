"""Shared fixtures: generator outputs and spectra are cached per session so
the acceptance sweep and the unit tests never recompute the same family."""

import functools

import pytest

from linespectra import GENERATORS, spectrum


@functools.lru_cache(maxsize=None)
def _config(name, params):
    return GENERATORS[name](*params)


@functools.lru_cache(maxsize=None)
def _spectrum(name, params):
    return spectrum(_config(name, params))


@pytest.fixture(scope="session")
def get_config():
    def get(name, *params):
        return _config(name, tuple(params))
    return get


@pytest.fixture(scope="session")
def get_spectrum():
    def get(name, *params):
        return _spectrum(name, tuple(params))
    return get


def corpus_cases():
    """(name, params) for every family configuration the broad sweeps use."""
    cases = []
    cases += [("fermat", (m,)) for m in range(3, 13)]
    cases += [("boroczky", (m,)) for m in range(3, 21)]
    cases += [("two_lines", (m,)) for m in range(2, 16)]
    cases += [("near_pencil", (n,)) for n in range(3, 31)]
    cases += [("sylvester_cubic", (k,)) for k in range(2, 16)]
    cases += [("grid", (a, b)) for a in range(2, 7) for b in range(a, 7)]
    cases += [("random", (4 + seed % 37, seed)) for seed in range(100)]
    return cases


@pytest.fixture(scope="session")
def corpus():
    return corpus_cases()
