"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import signal
import sys
import time
import types

import pytest

import checks
import machine
import run
from tracing import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_package():
    """A package whose ``outer`` calls ``inner`` through a module global and a
    method, the way the program calls its layers; each advances the clock."""
    clock = FakeClock()
    lib = types.ModuleType("fakepkg.lib")

    class Table:
        def lookup(self) -> None:
            clock.now += 5

    def inner() -> None:
        clock.now += 2

    def outer() -> None:
        clock.now += 1
        lib.inner()
        clock.now += 1
        lib.inner()
        Table().lookup()
        clock.now += 1

    lib.inner, lib.outer, lib.Table = inner, outer, Table
    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # imported by name, as ``from .lib import inner`` does
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user}
    sys.modules.update(mods)
    yield clock, lib, user
    for name in mods:
        del sys.modules[name]


TARGETS = (
    ("lib.outer", "fakepkg.lib", "outer"),
    ("lib.inner", "fakepkg.lib", "inner"),
    ("lib.lookup", "fakepkg.lib", "Table.lookup"),
)


def test_self_time_subtracts_nested_spans(fake_package):
    clock, lib, _ = fake_package
    tracer = Tracer(clock=clock)
    with tracer.installed(TARGETS):
        lib.outer()
        lib.inner()
    assert tracer.calls == {"lib.outer": 1, "lib.inner": 3, "lib.lookup": 1}
    assert tracer.total["lib.outer"] == 12
    assert tracer.self_time["lib.outer"] == 3  # 12 - 2 - 2 - 5
    assert tracer.total["lib.inner"] == tracer.self_time["lib.inner"] == 6
    assert tracer.total["lib.lookup"] == tracer.self_time["lib.lookup"] == 5


def test_install_wraps_imported_names_and_uninstall_restores(fake_package):
    clock, lib, user = fake_package
    originals = (lib.outer, lib.inner, user.inner, vars(lib.Table)["lookup"])
    tracer = Tracer(clock=clock)
    with tracer.installed(TARGETS):
        user.inner()
        assert user.inner is not originals[2]
    assert tracer.calls["lib.inner"] == 1
    assert (lib.outer, lib.inner, user.inner, vars(lib.Table)["lookup"]) == originals


def test_missing_target_reads_zero_and_does_not_crash(fake_package):
    clock, lib, _ = fake_package
    tracer = Tracer(clock=clock)
    gone = (
        ("gone.fn", "fakepkg.lib", "inlined_away"),
        ("gone.method", "fakepkg.lib", "Table.inlined_away"),
        ("gone.class", "fakepkg.lib", "NoSuchClass.lookup"),
        ("gone.module", "fakepkg.nosuchmodule", "fn"),
    )
    with tracer.installed(gone):
        lib.outer()
    assert tracer.calls["gone.fn"] == 0
    assert tracer.total["gone.method"] == 0.0


def test_span_closes_when_the_call_raises(fake_package):
    clock, lib, _ = fake_package

    def broken() -> None:
        clock.now += 4
        raise ValueError("boom")

    lib.inner = broken
    tracer = Tracer(clock=clock)
    with tracer.installed(TARGETS):
        with pytest.raises(ValueError):
            lib.outer()
    assert tracer.calls["lib.inner"] == 1
    assert tracer.self_time["lib.outer"] == 1


def test_rank_at_is_nearest_rank():
    assert checks.rank_at(10_000, 9990) == 9990
    assert checks.rank_at(48, 7500) == 36
    assert checks.rank_at(49, 7500) == 37
    assert checks.rank_at(1, 5000) == 1


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_tail_percentile_keeps_ten_decodes_beyond_it(name):
    # A timed run makes at least wl.count decodes, which cycle through the
    # workload's distinct decodes; the percentiles range over those.
    wl = run.WORKLOADS[name]
    n_talas = len(wl.talas or run.load_program().eval.standard_suite(run.REFERENCE_SEED).talas)
    distinct = min(wl.count, n_talas * wl.per_tala * len(wl.modes))
    assert distinct - checks.rank_at(distinct, wl.tail_bp) >= checks.TAIL_BEYOND


# 0 -a-> 1 -b-> 2 -c-> 3 (final), with a competitor x on 1->2, a deletion
# arc 1->3 labelled c, and an insertion route 2 -d-> 4 -c-> 3.
ARCS = ((0, 1, 1), (1, 2, 2), (1, 2, 5), (2, 3, 3), (1, 3, 3), (2, 4, 4), (4, 3, 3))


@pytest.mark.parametrize("labels", [(1, 2, 3), (1, 5, 3), (1, 3), (1, 2, 4, 3)])
def test_path_checker_accepts_lattice_paths(labels):
    assert checks.is_lattice_path(ARCS, 0, {3}, labels)


@pytest.mark.parametrize(
    "labels",
    [
        (1, 3, 2),  # right labels, wrong order
        (1, 2),  # a prefix that stops short of a final node
        (1, 2, 3, 3),  # runs past the final node
        (2, 2, 3),  # a label absent from the first position
        (),  # the empty path: start is not final
    ],
)
def test_path_checker_rejects_non_paths(labels):
    assert not checks.is_lattice_path(ARCS, 0, {3}, labels)


def test_edit_distance():
    assert checks.edit_distance((1, 2, 3), (1, 2, 3)) == 0
    assert checks.edit_distance((1, 2, 3), (1, 3)) == 1
    assert checks.edit_distance((1, 2, 3), (4, 1, 2, 5)) == 2
    assert checks.edit_distance((1,), ()) == 1


def test_speed_probe_samples_while_running_and_restores_the_timer():
    probe = machine.SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)
    with probe.running():
        end = time.perf_counter() + 3.5 * machine.EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3  # one on entry, then from the timer
    assert probe.times == sorted(probe.times)
    assert probe.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_stopwatch_leaves_out_the_probes_time():
    probe = machine.SpeedProbe()
    elapsed = run.stopwatch(probe)
    probe.spent += 100.0  # as if the probe sampled for 100 s meanwhile
    assert -100.0 < elapsed() < -99.0


def test_scales_over_averages_the_samples_near_each_interval():
    probe = machine.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    probe.samples = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    ref = machine.REFERENCE_S
    intervals = [
        (0.9, 3.1),  # samples at 1, 2 and 3
        (1.9, 1.9),  # the sample at 2 only
        (3.5, 3.5),  # none within the margin: the nearest, at 3 (a tie with 4)
        (10.0, 11.0),  # after the last sample: the last
        (-5.0, -4.0),  # before the first: the first
    ]
    assert probe.scales_over(intervals) == pytest.approx([ref * 3 / 11, ref / 9, ref / 1, ref / 2, ref / 1])
    assert probe.scale() == pytest.approx(ref * 7 / 18)


def test_timings_scale_each_decode_and_take_repeat_medians():
    outcomes = [
        run.Outcome(0, (1,), ms=2.0),
        run.Outcome(1, (1,), ms=6.0),
        run.Outcome(0, (1,), ms=50.0),  # a pause: the repeat median drops it
        run.Outcome(0, (1,), ms=2.0),
        run.Outcome(1, None, ms=1.0),  # failed: not timed
    ]
    values, beyond = run.timings(outcomes, [0.5, 0.5, 1.0, 1.0, 1.0], wall=1.0, tail_bp=5000)
    # Scaled, decode 0 took 1.0, 50.0 and 2.0 ms, decode 1 took 3.0 ms.
    assert values["decode_ms.p50"] == 2.5
    assert values["decode_ms.tail"] == 2.0
    assert beyond == 1
    # The wall time is scaled by the decode-time weighted mean scale,
    # (1 + 3 + 50 + 2 + 1) / (2 + 6 + 50 + 2 + 1).
    assert values["decodes_per_s"] == pytest.approx(4 / (57 / 61))
