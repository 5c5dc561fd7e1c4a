"""F26: measured packed vs unpacked Groth16 prover pipeline.

Times the seven-transform QAP quotient pipeline
(``QAP.witness_polynomials``) over BN254-Fr under the multi-limb
backend in both currencies: unpacked (every transform pays the limb
pack/unpack round trip) and packed (the pipeline stays on limb planes
between every leg, with the fused ``(A*B - C) * Z^-1`` pointwise
kernel).  The runner itself asserts the packed runs performed **zero**
hot-leg unpacks and stayed bit-identical to the unpacked reference;
the acceptance bar here is that the packed pipeline is no slower
end-to-end at n = 2^14.
"""

import pytest

from repro.bench import packed_prover_pipeline
from repro.field import numpy_available


def test_f26_packed_prover(benchmark, emit):
    table = benchmark.pedantic(packed_prover_pipeline,
                               rounds=1, iterations=1)
    emit("F26_packed_prover",
         "F26: packed vs unpacked Groth16 prover pipeline (measured)",
         table)
    if not numpy_available():
        pytest.skip("numpy unavailable: python-only column recorded")
    headers, rows = table
    by_size = {row[0]: row for row in rows}
    row = by_size[14]
    # Hard invariant: the packed pipeline never unpacked between legs
    # and the fused (A*B - C) * Z^-1 kernel engaged.  (The runner
    # already raised if the packed output diverged bit-wise.)
    assert row[7] == 0, f"hot unpacks recorded at 2^14: {row[7]}"
    assert row[8] >= 1, "fused pointwise kernel never engaged"
    # Soft floor on the measured ratio (1.4-1.5x at 2^14 on a shared
    # 2-vCPU VM): 0.9 only trips a real regression, not shared-runner
    # jitter.
    speedup = float(str(row[4]).rstrip("x"))
    assert speedup >= 0.9, (
        f"2^14 BN254-Fr packed pipeline slower than unpacked: "
        f"{speedup}x")
