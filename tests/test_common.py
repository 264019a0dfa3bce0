"""Unit tests for repro.common utilities."""

import math
import time

import numpy as np
import pytest

from repro.common import Deadline, Timer, ensure_rng, spawn_rngs
from repro.common.exceptions import ConfigurationError
from repro.common.validation import check_temperature_range


class TestRng:
    def test_int_seed_reproducible(self):
        a = ensure_rng(5).integers(0, 1000, 10)
        b = ensure_rng(5).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        g = ensure_rng(np.random.SeedSequence(3))
        assert isinstance(g, np.random.Generator)

    def test_spawn_independent(self):
        children = spawn_rngs(1, 3)
        assert len(children) == 3
        streams = [c.integers(0, 10**9, 5).tolist() for c in children]
        assert streams[0] != streams[1] != streams[2]

    def test_spawn_zero(self):
        assert spawn_rngs(1, 0) == []

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestTimers:
    def test_timer_context(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_deadline_unlimited(self):
        d = Deadline(None)
        assert not d.expired()
        assert d.remaining() == math.inf
        assert Deadline(math.inf).expired() is False

    def test_deadline_expires(self):
        d = Deadline(0.01)
        time.sleep(0.03)
        assert d.expired()
        assert d.remaining() == 0.0

    def test_deadline_elapsed(self):
        d = Deadline(10.0)
        time.sleep(0.01)
        assert d.elapsed() >= 0.005


class TestValidation:
    def test_temperature_range(self):
        assert check_temperature_range(0.0, 1.0) == (0.0, 1.0)
        with pytest.raises(ConfigurationError):
            check_temperature_range(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            check_temperature_range(-1.0, 1.0)
