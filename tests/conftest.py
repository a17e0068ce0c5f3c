"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess

import numpy as np
import pytest

from repro.sim.request import BLOCK_SIZE

#: Untracked directories the test tooling itself maintains.
TOOL_CACHES = {".pytest_cache", ".hypothesis", "__pycache__"}


def _tree_entries():
    """``git status --porcelain --ignored`` lines outside the tool
    caches; None outside a git checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--ignored"], cwd=root,
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {line for line in out.splitlines()
            if not TOOL_CACHES & set(line[3:].strip('"').split("/"))}


@pytest.fixture(scope="session", autouse=True)
def _clean_working_tree():
    """Fail the session if the tests leave anything in the working tree
    (outputs belong under ``tmp_path``)."""
    before = _tree_entries()
    yield
    after = _tree_entries()
    if before is not None and after is not None:
        residue = sorted(after - before)
        assert not residue, \
            "tests left residue in the working tree: " + ", ".join(residue)


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch) -> None:
    """Keep tests from writing `.repro-ledger/` into the repo.

    The CLI records every experiment invocation by default
    (docs/LEDGER.md); tests that exercise recording construct a
    ``LedgerWriter`` on a tmp_path explicitly instead.
    """
    monkeypatch.setenv("REPRO_LEDGER", "0")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def random_block(rng) -> np.ndarray:
    return rng.integers(0, 256, size=BLOCK_SIZE, dtype=np.uint8)


def make_block(fill: int = 0) -> np.ndarray:
    """A 4 KB block with a constant fill byte."""
    return np.full(BLOCK_SIZE, fill, dtype=np.uint8)


def make_dataset(n_blocks: int, seed: int = 7) -> np.ndarray:
    """A random (n_blocks, 4096) uint8 dataset."""
    gen = np.random.default_rng(seed)
    return gen.integers(0, 256, size=(n_blocks, BLOCK_SIZE), dtype=np.uint8)


def mutate_block(block: np.ndarray, offsets, value: int = 0xAB) -> np.ndarray:
    out = block.copy()
    for offset in offsets:
        out[offset] = value
    return out
