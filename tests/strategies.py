"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.model.builder import ExecutionBuilder
from repro.workloads.generators import (
    random_computation_overlay,
    random_event_execution,
    random_semaphore_execution,
)


# ----------------------------------------------------------------------
# canonical micro-executions
# ----------------------------------------------------------------------
@pytest.fixture
def vp_execution():
    """One V and one P on a zero semaphore, in separate processes."""
    b = ExecutionBuilder()
    v = b.process("producer").sem_v("s")
    p = b.process("consumer").sem_p("s")
    return b.build(), v, p


@pytest.fixture
def independent_pair():
    """Two events with no constraints whatsoever."""
    b = ExecutionBuilder()
    x = b.process("A").skip(label="x")
    y = b.process("B").skip(label="y")
    return b.build(), x, y


@pytest.fixture
def deadlocked_execution():
    """Two P operations on empty semaphores that nothing ever signals:
    the event set can never complete (``F`` is empty)."""
    b = ExecutionBuilder()
    x = b.process("A").sem_p("s1")
    y = b.process("B").sem_p("s2")
    return b.build(), x, y


@pytest.fixture
def fork_join_execution():
    """main forks two children, each one event, then joins."""
    b = ExecutionBuilder()
    main = b.process("main")
    f = main.fork()
    c1 = b.process("c1", parent=f).skip(label="c1e")
    c2 = b.process("c2", parent=f).skip(label="c2e")
    j = main.join(f)
    return b.build(), f, c1, c2, j


# ----------------------------------------------------------------------
# hypothesis strategies over random-but-feasible executions
# ----------------------------------------------------------------------
def small_semaphore_executions():
    """Strategy: tiny semaphore executions (enumeration-tractable)."""
    return st.builds(
        random_semaphore_execution,
        processes=st.integers(2, 3),
        events_per_process=st.integers(1, 2),
        semaphores=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )


def tiny_overlay_executions():
    """Strategy: computation overlays with shared-data dependences, the
    shapes TSO can relax (enumeration-tractable: |E| <= 6)."""
    return st.builds(
        random_computation_overlay,
        processes=st.integers(2, 3),
        events_per_process=st.integers(1, 2),
        semaphores=st.integers(1, 2),
        shared_vars=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )


def small_event_executions():
    return st.builds(
        random_event_execution,
        processes=st.integers(2, 3),
        events_per_process=st.integers(1, 2),
        variables=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )


def medium_semaphore_executions():
    """Strategy: engine-tractable but not enumeration-tractable."""
    return st.builds(
        random_semaphore_execution,
        processes=st.integers(2, 4),
        events_per_process=st.integers(2, 4),
        semaphores=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )


def overlay_executions():
    """Strategy: semaphores plus shared-variable accesses (non-empty D)."""
    return st.builds(
        random_computation_overlay,
        processes=st.integers(2, 3),
        events_per_process=st.integers(2, 3),
        semaphores=st.integers(1, 2),
        shared_vars=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
