"""F16: the uniformity demonstration as a regenerable table."""

from repro.bench import uniformity_table


def test_f16_uniformity(benchmark, emit):
    table = benchmark(uniformity_table)
    emit("F16_uniformity",
         "F16: one engine at four hierarchy scales (functional)", table)
