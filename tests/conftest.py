"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.logic import lemmas
from repro.logic.heapnames import FieldPath, HeapName, Var, reset_fresh_counter


@pytest.fixture(autouse=True)
def _fresh_names():
    """Deterministic logic-variable names in every test."""
    reset_fresh_counter()
    yield
    reset_fresh_counter()


def fp(base: HeapName | str, *fields: str) -> HeapName:
    """Build an access-path heap name: ``fp('a', 'next', 'next')``."""
    name: HeapName = Var(base) if isinstance(base, str) else base
    for field in fields:
        name = FieldPath(name, field)
    return name


def unmemoized_pair_key(env, kind: str, concrete: str, general: str) -> str:
    """The lemma pair key built from scratch, bypassing the environment
    memo: the reference ``lemmas.pair_key`` must agree with."""
    return repr(
        (
            "lemma",
            lemmas.LEMMA_SCHEMA,
            kind,
            lemmas.structural_serial(env, concrete),
            lemmas.structural_serial(env, general),
        )
    )
