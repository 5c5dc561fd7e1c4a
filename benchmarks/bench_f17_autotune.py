"""F17: the planning layer — tile autotuning and the tuned bottleneck."""

from repro.bench import autotune_table


def test_f17_autotune(benchmark, emit):
    table = benchmark(autotune_table)
    emit("F17_autotune",
         "F17: autotuned tiles and UniNTT bottleneck (2^24)", table)
