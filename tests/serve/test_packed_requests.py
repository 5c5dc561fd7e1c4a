"""Big-field requests through the serving stack on a lane backend.

On the numpy backend (``multilimb`` is another name for it) the batcher
transforms each BN254-Fr lane on limb planes; the request itself says
nothing about the host route.  Outputs must be byte-identical to the
reference transforms, and journal records written while requests still
carried a ``packed`` route flag must keep loading.
"""

import pytest

from repro.errors import ServeError
from repro.field import numpy_available, use_backend
from repro.ntt import dft, idft
from repro.serve import ProofRequest, ProofServer


def _request(**overrides):
    base = dict(request_id=0, field_name="BN254-Fr", log_size=5)
    base.update(overrides)
    return ProofRequest(**base)


class TestRecords:
    def test_record_round_trip(self):
        request = _request(request_id=9, data_seed=3)
        record = request.to_record()
        assert "packed" not in record
        assert ProofRequest.from_record(record) == request

    def test_legacy_record_loads_as_unpacked(self):
        """Records in the older format carry ``"packed"``; either value
        loads to the same request, and no other unknown key is let by."""
        request = _request(request_id=4, data_seed=2)
        for flag in (True, False):
            record = dict(request.to_record(), packed=flag)
            restored = ProofRequest.from_record(record)
            assert restored == request
            assert restored.shape_key() == request.shape_key()
        with pytest.raises(ServeError, match="bad request record"):
            ProofRequest.from_record(dict(request.to_record(), route="lanes"))


class TestOutputs:
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_packed_outputs_are_bit_exact(self, direction):
        if not numpy_available():
            pytest.skip("packed path needs the numpy/multilimb backend")
        workload = [_request(request_id=i, direction=direction,
                             data_seed=11 + i, batch=2)
                    for i in range(3)]
        with use_backend("multilimb"):
            report = ProofServer().serve(workload)
        assert report.completed == 3
        reference = idft if direction == "inverse" else dft
        for result in report.results:
            field = result.request.field
            for lane, out in zip(result.request.vectors(), result.outputs):
                assert list(out) == reference(field, lane), (
                    "packed serve output diverged from the reference")
