"""Repo lint: clean on src/repro, and each rule fires on bad input."""

import textwrap

from repro.analysis.lint import default_root, lint_file, lint_paths


def checks_of(findings):
    return {finding.check for finding in findings}


def write_module(tmp_path, package, name, source):
    directory = tmp_path / package if package else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(textwrap.dedent(source))
    return str(path)


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        assert lint_paths() == []

    def test_default_root_is_the_package(self):
        assert default_root().endswith("repro")


class TestRawMod:
    def test_comprehension_in_hot_package(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def twiddle(shard, tw, p):
                return [a * b % p for a, b in zip(shard, tw)]
            """)
        findings = lint_file(path, root=str(tmp_path))
        assert checks_of(findings) == {"lint.raw-mod"}

    def test_lambda_combiner(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def pointwise(p):
                return lambda a, b: (a + b) % p
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.raw-mod"}

    def test_element_store_loop(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def scale(shard, s, p):
                for i in range(len(shard)):
                    shard[i] = shard[i] * s % p
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.raw-mod"}

    def test_multi_statement_twiddle_sweep(self, tmp_path):
        """The running-factor sweep: two statements per element."""
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def twiddle(column, w, factor, p):
                for k in range(len(column)):
                    column[k] = column[k] * factor % p
                    factor = factor * w % p
            """)
        findings = lint_file(path, root=str(tmp_path))
        assert checks_of(findings) == {"lint.raw-mod"}
        assert [f.where for f in findings] == ["multigpu/bad.py:2"]

    def test_augmented_stores(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def sweep(shard, s, p):
                for i in range(len(shard)):
                    shard[i] %= p
                for i in range(len(shard)):
                    total = i
                    shard[i] += total * s % p
            """)
        findings = lint_file(path, root=str(tmp_path))
        assert [f.where for f in findings] == [
            "multigpu/bad.py:2", "multigpu/bad.py:4"]

    def test_nested_loop_flagged_once(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def sweep(rows, s, p):
                for row in rows:
                    for i in range(len(row)):
                        row[i] = row[i] * s % p
            """)
        findings = lint_file(path, root=str(tmp_path))
        assert [f.where for f in findings] == ["multigpu/bad.py:3"]

    def test_scalar_mod_in_loop_body_is_fine(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "ok.py", """\
            def owners(indices, g):
                out = []
                for j in indices:
                    owner = j % g
                    out.append(owner)
                return out
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_scalar_mod_is_fine(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "ok.py", """\
            def index(i, g):
                return i % g
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_same_code_outside_hot_packages_is_fine(self, tmp_path):
        path = write_module(tmp_path, "field", "ok.py", """\
            def twiddle(shard, tw, p):
                return [a * b % p for a, b in zip(shard, tw)]
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestNondeterminism:
    def test_random_call_in_sim(self, tmp_path):
        path = write_module(tmp_path, "sim", "bad.py", """\
            import random

            def jitter():
                return random.random()
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.nondeterminism"}

    def test_time_call_in_multigpu(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            import time

            def stamp():
                return time.time()
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.nondeterminism"}

    def test_seeded_random_is_allowed(self, tmp_path):
        path = write_module(tmp_path, "sim", "ok.py", """\
            import random

            def rng(seed):
                return random.Random(seed)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_random_outside_deterministic_packages(self, tmp_path):
        path = write_module(tmp_path, "bench", "ok.py", """\
            import random

            def pick():
                return random.random()
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestMutableDefault:
    def test_list_default(self, tmp_path):
        path = write_module(tmp_path, "util", "bad.py", """\
            def collect(items=[]):
                return items
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.mutable-default"}

    def test_dict_constructor_default(self, tmp_path):
        path = write_module(tmp_path, "util", "bad.py", """\
            def collect(*, mapping=dict()):
                return mapping
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.mutable-default"}

    def test_none_default_is_fine(self, tmp_path):
        path = write_module(tmp_path, "util", "ok.py", """\
            def collect(items=None):
                return items or []
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestTraceKind:
    def test_unregistered_literal_kind(self, tmp_path):
        path = write_module(tmp_path, "sim", "bad.py", """\
            from repro.sim.trace import TraceEvent

            def event():
                return TraceEvent(kind="teleport", level="gpu")
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.trace-kind"}

    def test_registered_kind_is_fine(self, tmp_path):
        path = write_module(tmp_path, "sim", "ok.py", """\
            from repro.sim.trace import TraceEvent

            def event():
                return TraceEvent(kind="all-to-all", level="multi-gpu")
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestDriver:
    def test_syntax_error_is_a_finding(self, tmp_path):
        path = write_module(tmp_path, "", "broken.py", "def oops(:\n")
        findings = lint_file(path, root=str(tmp_path))
        assert len(findings) == 1
        assert "does not parse" in findings[0].message

    def test_lint_paths_recurses_and_sorts(self, tmp_path):
        write_module(tmp_path, "multigpu", "a.py", """\
            def f(p):
                return lambda a, b: a * b % p
            """)
        write_module(tmp_path, "sim", "b.py", """\
            import time

            def f():
                return time.time()
            """)
        findings = lint_paths([str(tmp_path)], root=str(tmp_path))
        # sim/ is both a deterministic and a simulated-time package, so
        # the time.time() call trips nondeterminism AND wall-clock.
        assert [f.check for f in findings] == [
            "lint.raw-mod", "lint.nondeterminism", "lint.wall-clock"]


class TestDictOrder:
    def test_loop_over_breaker_values_in_serve(self, tmp_path):
        path = write_module(tmp_path, "serve", "bad.py", """\
            def poll(self):
                for breaker in self._breakers.values():
                    breaker.poll(0.0)
            """)
        findings = lint_file(path, root=str(tmp_path))
        assert checks_of(findings) == {"lint.dict-order"}
        assert "sorted" in findings[0].message

    def test_sorted_wrap_is_fine(self, tmp_path):
        path = write_module(tmp_path, "serve", "ok.py", """\
            def poll(self):
                for key in sorted(self._breakers.keys()):
                    self._breakers[key].poll(0.0)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_comprehension_over_shard_map(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def totals(shard_map):
                return [len(shard) for shard in shard_map.values()]
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.dict-order"}

    def test_items_over_gpu_map(self, tmp_path):
        path = write_module(tmp_path, "sim", "bad.py", """\
            def dump(per_gpu):
                for gpu, shard in per_gpu.items():
                    print(gpu, shard)
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.dict-order"}

    def test_innocent_map_name_is_fine(self, tmp_path):
        path = write_module(tmp_path, "serve", "ok.py", """\
            def dump(options):
                for value in options.values():
                    print(value)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_same_code_outside_deterministic_packages(self, tmp_path):
        path = write_module(tmp_path, "bench", "ok.py", """\
            def dump(shard_map):
                for shard in shard_map.values():
                    print(shard)
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestNondeterminismInServe:
    def test_time_call_in_serve(self, tmp_path):
        path = write_module(tmp_path, "serve", "bad.py", """\
            import time

            def now():
                return time.monotonic()
            """)
        # The overlap with lint.wall-clock is deliberate: the two
        # rules answer different questions (determinism vs simulated
        # time) and serve/ is in scope for both.
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.nondeterminism", "lint.wall-clock"}


class TestPowInverse:
    def test_fermat_inverse_in_ntt(self, tmp_path):
        path = write_module(tmp_path, "ntt", "bad.py", """\
            def invert_all(shard, p):
                return [pow(x, p - 2, p) for x in shard]
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.pow-inverse"}

    def test_fermat_inverse_in_multigpu(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def unscale(x, n, p):
                return x * pow(n, p - 2, p)
            """)
        assert "lint.pow-inverse" in checks_of(
            lint_file(path, root=str(tmp_path)))

    def test_two_arg_pow_is_fine(self, tmp_path):
        path = write_module(tmp_path, "ntt", "ok.py", """\
            def square_tower(x, s):
                return pow(x, 2 ** s)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_non_inverse_exponent_is_fine(self, tmp_path):
        path = write_module(tmp_path, "ntt", "ok.py", """\
            def root_step(w, step, p):
                return pow(w, step, p)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_same_code_outside_bigfield_packages_is_fine(self, tmp_path):
        path = write_module(tmp_path, "field", "ok.py", """\
            def inv(x, p):
                return pow(x, p - 2, p)
            """)
        assert lint_file(path, root=str(tmp_path)) == []


class TestRawTransfers:
    SOURCE = """\
        from repro.multigpu.schedule import ShardTransfer

        def handmade():
            return ShardTransfer(src=0, dst=1, nbytes=8)
        """

    def test_hand_constructed_transfer_is_flagged(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "custom.py",
                            self.SOURCE)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.raw-transfers"}

    def test_flagged_anywhere_in_the_tree(self, tmp_path):
        path = write_module(tmp_path, "serve", "custom.py", self.SOURCE)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.raw-transfers"}

    def test_schedule_builders_are_exempt(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "schedule.py",
                            self.SOURCE)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_pass_framework_is_exempt(self, tmp_path):
        for name in ("passes.py", "synth.py"):
            path = write_module(tmp_path, "analysis", name, self.SOURCE)
            assert lint_file(path, root=str(tmp_path)) == []


class TestWallClock:
    def test_time_time_in_runtime_package(self, tmp_path):
        path = write_module(tmp_path, "runtime", "bad.py", """\
            import time

            def stamp():
                return time.time()
            """)
        assert "lint.wall-clock" in checks_of(
            lint_file(path, root=str(tmp_path)))

    def test_ns_variants_and_clock_gettime(self, tmp_path):
        path = write_module(tmp_path, "sim", "bad.py", """\
            import time

            def stamps():
                return (time.perf_counter_ns(), time.monotonic_ns(),
                        time.clock_gettime(0))
            """)
        findings = [f for f in lint_file(path, root=str(tmp_path))
                    if f.check == "lint.wall-clock"]
        assert len(findings) == 3

    def test_from_import_is_flagged_at_the_import_and_the_call(
            self, tmp_path):
        path = write_module(tmp_path, "serve", "bad.py", """\
            from time import perf_counter as tick

            def stamp():
                return tick()
            """)
        findings = [f for f in lint_file(path, root=str(tmp_path))
                    if f.check == "lint.wall-clock"]
        assert len(findings) == 2

    def test_datetime_now_is_flagged(self, tmp_path):
        path = write_module(tmp_path, "serve", "bad.py", """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """)
        assert "lint.wall-clock" in checks_of(
            lint_file(path, root=str(tmp_path)))

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        # time.sleep stalls but does not *read* the clock; the
        # nondeterminism rule covers it in serve, wall-clock does not.
        path = write_module(tmp_path, "runtime", "ok.py", """\
            import time

            def nap():
                time.sleep(0.1)
            """)
        assert "lint.wall-clock" not in checks_of(
            lint_file(path, root=str(tmp_path)))

    def test_bench_package_is_exempt(self, tmp_path):
        # Benchmarks measure real elapsed time on purpose.
        path = write_module(tmp_path, "bench", "timer.py", """\
            import time

            def measure():
                return time.perf_counter()
            """)
        assert "lint.wall-clock" not in checks_of(
            lint_file(path, root=str(tmp_path)))


class TestAbftHook:
    def test_charge_without_hook_is_flagged(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def charge(self, muls, detail):
                self.cluster.trace.record(TraceEvent(
                    kind="local-compute", level="gpu", detail=detail))
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.abft-hook"}

    def test_charge_with_hook_is_clean(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "ok.py", """\
            def charge(self, muls, detail):
                self.cluster.trace.record(TraceEvent(
                    kind="local-compute", level="gpu", detail=detail))
                self.cluster.local_compute_hook(self._live_buffers(),
                                                detail)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_hook_with_none_buffers_counts(self, tmp_path):
        # The streaming engine advances the step counter with no live
        # buffers; that is still a hook call.
        path = write_module(tmp_path, "multigpu", "ok.py", """\
            def charge(self, detail):
                self.cluster.trace.record(TraceEvent(
                    kind="local-compute", level="gpu", detail=detail))
                self.cluster.local_compute_hook(None, detail)
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_hook_in_nested_function_does_not_pair(self, tmp_path):
        # A hook buried in an inner def does not run when the charge
        # does; the pairing is per function body.
        path = write_module(tmp_path, "multigpu", "bad.py", """\
            def charge(self, detail):
                self.cluster.trace.record(TraceEvent(
                    kind="local-compute", level="gpu", detail=detail))

                def later():
                    self.cluster.local_compute_hook(None, detail)
            """)
        assert checks_of(lint_file(path, root=str(tmp_path))) == {
            "lint.abft-hook"}

    def test_other_event_kinds_are_exempt(self, tmp_path):
        path = write_module(tmp_path, "multigpu", "ok.py", """\
            def note(self, detail):
                self.cluster.trace.record(TraceEvent(
                    kind="memory-pass", level="gpu", detail=detail))
            """)
        assert lint_file(path, root=str(tmp_path)) == []

    def test_outside_multigpu_is_exempt(self, tmp_path):
        # The serving layer records local-compute only through the
        # engines; a charge elsewhere is not on the ABFT hot path.
        path = write_module(tmp_path, "serve", "ok.py", """\
            def charge(self, detail):
                self.trace.record(TraceEvent(
                    kind="local-compute", level="gpu", detail=detail))
            """)
        assert "lint.abft-hook" not in checks_of(
            lint_file(path, root=str(tmp_path)))
