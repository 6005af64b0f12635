"""Shared fixtures for the SecureLease reproduction test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.crypto.keys import KeyGenerator
from repro.deployment import SecureLeaseDeployment
from repro.sgx import SgxMachine
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRng


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234)


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def keygen(rng) -> KeyGenerator:
    return KeyGenerator(rng.fork("keys"))


@pytest.fixture
def machine() -> SgxMachine:
    return SgxMachine("test-machine")


@pytest.fixture
def deployment() -> SecureLeaseDeployment:
    return SecureLeaseDeployment(seed=7)


@pytest.fixture
def src_env() -> dict:
    """Environment for a child ``python -m repro...``: ``src/`` importable.

    Tests that must not inherit this process's ``sys.modules`` (import
    closures, command-local imports) run their subject in a fresh
    interpreter with this.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), env.get("PYTHONPATH", "")])
    return env
