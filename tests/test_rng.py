"""Stream derivation: one checked SeedSequence behind derive_rng and derive_seed."""

import inspect

import numpy as np
import pytest

from relaypower.rng import derive_rng, derive_seed


@pytest.mark.parametrize("derive", [derive_rng, derive_seed])
class TestChecks:
    def test_negative_seed_rejected(self, derive):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            derive(-1, 0)

    @pytest.mark.parametrize("key", [(-1,), (0, -3), (2, 0, -1)])
    def test_negative_key_component_rejected(self, derive, key):
        with pytest.raises(ValueError, match="^stream key components must be non-negative$"):
            derive(5, *key)

    def test_plain_function_of_seed_and_key_path(self, derive):
        # perfbench counts derive_rng calls by wrapping the module function
        assert inspect.isfunction(derive)
        assert list(inspect.signature(derive).parameters) == ["seed", "key"]


@pytest.mark.parametrize("key", [(), (0,), (1, 2), (3, 0, 7)])
def test_streams_are_the_seed_sequences_of_the_key_path(key):
    ss = np.random.SeedSequence(entropy=9, spawn_key=key)
    want = np.random.default_rng(ss).standard_normal(4)
    assert derive_rng(9, *key).standard_normal(4).tobytes() == want.tobytes()
    assert derive_seed(9, *key) == int(ss.generate_state(1, np.uint64)[0])

