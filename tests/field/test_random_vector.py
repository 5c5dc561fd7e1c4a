"""``PrimeField.random_vector`` draws exactly what ``randrange`` draws.

Serve requests, benchmark inputs and golden vectors are all seeded
through ``random_vector``, so the inlined ``getrandbits`` rejection
loop must reproduce ``[rng.randrange(p) for _ in range(n)]`` value for
value *and* leave the generator in the same state, so that every draw
after it is unchanged too.
"""

import random

import pytest

from repro.field import ALL_FIELDS


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [0, 1, 7, 4096])
@pytest.mark.parametrize("seed", [0, 1, 0xA5A5, "request-7"])
def test_values_and_rng_state_match_randrange(field, n, seed):
    ours, reference = random.Random(seed), random.Random(seed)
    got = field.random_vector(n, ours)
    want = [reference.randrange(field.modulus) for _ in range(n)]
    assert got == want
    assert ours.getstate() == reference.getstate()
    assert ours.random() == reference.random()
