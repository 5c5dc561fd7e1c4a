"""NTT algorithm library: kernels, decompositions, and the UniNTT planner."""

from repro.ntt.batch import BatchTransform, batch_intt, batch_ntt
from repro.ntt.bluestein import bluestein_intt, bluestein_ntt
from repro.ntt.montgomery_ntt import MontgomeryNTT
from repro.ntt.coset import (
    coset_intt, coset_ntt, negacyclic_intt, negacyclic_ntt, negacyclic_shift,
)
from repro.ntt.fourstep import (
    four_step_intt, four_step_ntt, six_step_ntt, split_size, transpose_flat,
)
from repro.ntt.plan import Plan, balanced_plan, hierarchical_plan, leaf, split
from repro.ntt.polymul import (
    cyclic_convolution, negacyclic_convolution, next_power_of_two,
    poly_multiply,
)
from repro.ntt.radix2 import (
    apply_bit_reversal, intt, ntt, ntt_dif_inplace, ntt_dit_inplace,
    radix2_butterfly_count,
)
from repro.ntt.radix4 import intt_radix4, ntt_radix4, radix4_multiply_count
from repro.ntt.recursive import (
    execute_plan, execute_plan_inverse, plan_intt, plan_ntt,
)
from repro.ntt.stockham import intt_stockham, ntt_stockham
from repro.ntt.reference import (
    dft, idft, naive_cyclic_convolution, naive_negacyclic_convolution,
)
from repro.ntt.twiddle import (
    TwiddleCache, bit_reverse, bit_reverse_permutation, default_cache,
)

__all__ = [
    "ntt", "intt", "ntt_dit_inplace", "ntt_dif_inplace", "apply_bit_reversal",
    "radix2_butterfly_count",
    "ntt_radix4", "intt_radix4", "radix4_multiply_count",
    "ntt_stockham", "intt_stockham",
    "bluestein_ntt", "bluestein_intt",
    "MontgomeryNTT",
    "four_step_ntt", "four_step_intt", "six_step_ntt", "split_size",
    "transpose_flat",
    "Plan", "leaf", "split", "balanced_plan", "hierarchical_plan",
    "execute_plan", "execute_plan_inverse", "plan_ntt", "plan_intt",
    "coset_ntt", "coset_intt", "negacyclic_ntt", "negacyclic_intt",
    "negacyclic_shift",
    "batch_ntt", "batch_intt", "BatchTransform",
    "cyclic_convolution", "negacyclic_convolution", "poly_multiply",
    "next_power_of_two",
    "dft", "idft", "naive_cyclic_convolution", "naive_negacyclic_convolution",
    "TwiddleCache", "default_cache", "bit_reverse", "bit_reverse_permutation",
]
