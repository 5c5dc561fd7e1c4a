"""F18: out-of-core transforms — the host-staging tax and its scaling."""

from repro.bench import streaming_table


def test_f18_streaming(benchmark, emit):
    table = benchmark(streaming_table)
    emit("F18_streaming",
         "F18: out-of-core (host-staged) NTT vs in-memory "
         "(DGX-A100, BLS12-381-Fr)", table)
