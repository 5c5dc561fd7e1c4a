"""Finite-field substrate: prime fields, Montgomery form, ZKP presets.

The bulk helpers (``vec_*``) run on a pluggable compute backend — NumPy
``uint64`` lanes and limb planes when NumPy is installed, pure Python
otherwise or when selected — see
:mod:`repro.field.backend` and ``docs/BACKENDS.md``.  NumPy is an
optional dependency (``pip install repro[fast]``); the Goldilocks
lane kernels (``gl_add``, ``gl_sub``, ``gl_mul``, ``gl_neg``) that
the backend runs are only importable when it is installed.
"""

from repro.field.backend import (
    BACKEND_ENV_VAR, FieldBackend, NumPyBackend, PythonBackend,
    available_backends, get_backend, numpy_available, set_backend,
    use_backend,
)
from repro.field.limbgen import (
    LimbSchedule, describe_schedule, generate_schedule,
)
from repro.field.montgomery import MontgomeryContext, MontgomeryElement
from repro.field.packed import (
    PackStats, fused_mul_sub_scale, host_list, pack_stats, pack_values,
    packed_coset_intt, packed_coset_ntt, packed_disabled, packed_intt,
    packed_ntt, packed_ops, packed_pad, unpack_values,
)
from repro.field.presets import (
    ALL_FIELDS, BABYBEAR, BLS12_381_FR, BN254_FR, GOLDILOCKS, TEST_FIELD_97,
    TEST_FIELD_7681, ZKP_FIELDS, field_by_name,
)
from repro.field.prime_field import FieldElement, PrimeField
from repro.field.vector import (
    host_values, validate_vector, vec_add, vec_dot, vec_inv, vec_mul,
    vec_neg, vec_pow_series, vec_scale, vec_sub, vec_sum,
)

__all__ = [
    "PrimeField", "FieldElement", "MontgomeryContext", "MontgomeryElement",
    "GOLDILOCKS", "BABYBEAR", "BN254_FR", "BLS12_381_FR",
    "TEST_FIELD_97", "TEST_FIELD_7681", "ZKP_FIELDS", "ALL_FIELDS",
    "field_by_name",
    "vec_add", "vec_sub", "vec_mul", "vec_scale", "vec_neg",
    "vec_pow_series", "vec_inv", "vec_dot", "vec_sum", "validate_vector",
    "host_values",
    "FieldBackend", "PythonBackend", "NumPyBackend", "available_backends",
    "get_backend", "set_backend", "use_backend", "numpy_available",
    "BACKEND_ENV_VAR",
    "LimbSchedule", "generate_schedule", "describe_schedule",
    "PackStats", "pack_stats", "packed_ops", "packed_disabled",
    "pack_values", "unpack_values", "host_list", "packed_ntt",
    "packed_intt", "packed_coset_ntt", "packed_coset_intt", "packed_pad",
    "fused_mul_sub_scale",
]

# The Goldilocks lane kernels need the optional dependency; without it
# the generic backends above still work (pure Python).
if numpy_available():
    from repro.field.goldilocks import (
        GOLDILOCKS_P, gl_add, gl_mul, gl_neg, gl_sub,
    )

    __all__ += ["GOLDILOCKS_P", "gl_add", "gl_sub", "gl_mul", "gl_neg"]
