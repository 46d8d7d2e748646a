"""Tests of the benchmark's own helpers.  Run with `python -m pytest bench`."""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from pace import MIXES, REFERENCE_S, reference_loop, scale_factors, scaled
from run import percentile
from tracing import Tracer, self_times
from workloads import WORKLOADS, EstimateFiles, check_estimate, make

SRC = Path(__file__).resolve().parent.parent / "src"


def test_percentile_matches_linear_interpolation():
    values = list(np.random.default_rng(3).exponential(size=137))
    for q in (0.5, 0.9):
        assert percentile(values, q) == pytest.approx(np.percentile(values, 100 * q), rel=1e-12)


@pytest.mark.parametrize("q, enough, too_few", [(0.9, 92, 91), (0.5, 20, 19)])
def test_percentile_needs_ten_samples_beyond(q, enough, too_few):
    percentile(range(enough), q)
    with pytest.raises(ValueError):
        percentile(range(too_few), q)


def test_scaling_cancels_a_change_of_host_speed():
    speed = [1.0] * 6 + [2.0] * 6 + [1.0] * 6  # a phase at half speed
    loop_times = [0.005 * x for x in speed]
    times = [0.1 * x for x in speed[:-1]]
    scaled_times = scaled("array", times, loop_times)
    want = 0.1 * REFERENCE_S["array"] / 0.005
    # Requests wholly inside a phase scale exactly; the two at its edges, whose
    # mix times straddle the change, come out between the two speeds.
    assert scaled_times[:5] + scaled_times[6:11] + scaled_times[12:] == pytest.approx([want] * 15)
    assert scaled_times[5] == pytest.approx(want * 2 / 3)
    assert scaled_times[11] == pytest.approx(want * 4 / 3)


def test_scale_factors_average_the_mix_times_before_and_after_each_request():
    ref = REFERENCE_S["interpreted"]
    assert scale_factors("interpreted", [1.0, 3.0, 2.0]) == pytest.approx([ref / 2.0, ref / 2.5])
    with pytest.raises(ValueError):
        scaled("interpreted", [1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_reference_mixes_run(mix):
    assert reference_loop(mix) > 0.0


def test_workloads_name_a_reference_mix(tmp_path):
    for name in WORKLOADS:
        assert make(name, 1, tmp_path).pace_mix in MIXES


def test_self_times_subtract_union_of_children_clipped_to_parent():
    spans = [  # (start, end, parent), in order of start
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (2.0, 3.0, 1),
        (5.0, 9.0, 0),
        (5.0, 7.0, 3),
        (6.0, 8.0, 3),  # overlaps its sibling: [5, 8] is covered once
        (8.5, 9.5, 3),  # runs past its parent: only [8.5, 9] counts
    ]
    starts, ends, parents = zip(*spans)
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 1.0])


def test_self_times_of_nested_request_sum_to_its_wall_time():
    ticks = iter([0.0, 0.5, 1.0, 3.0, 3.5, 4.0, 4.25, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.request():
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        leaf = tracer.open("leaf")
        tracer.close(leaf)
    tracer.fold()
    assert tracer.totals == {
        "request": [1, 7.0, 3.75],
        "outer": [1, 3.0, 1.0],
        "inner": [1, 2.0, 2.0],
        "leaf": [1, 0.25, 0.25],
    }
    assert tracer.max_self_sum_error == 0.0


def _fake_package(name: str) -> dict[str, types.ModuleType]:
    special = types.ModuleType(f"{name}.special_functions")
    special.regularized_incomplete_beta = lambda x: x * x
    cli = types.ModuleType(f"{name}.cli")
    cli.regularized_incomplete_beta = special.regularized_incomplete_beta  # a `from` import
    cli.main = lambda xs: sum(cli.regularized_incomplete_beta(x) for x in xs)
    return {name: types.ModuleType(name), special.__name__: special, cli.__name__: cli}


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    modules = _fake_package("fakepkg")
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    cli = modules["fakepkg.cli"]
    original = cli.main
    tracer = Tracer()
    tracer.install("fakepkg")
    with tracer.request():
        assert cli.main([1.0, 2.0, 3.0]) == 14.0
    tracer.fold()
    assert tracer.totals["cli.main"][0] == 1
    assert tracer.totals["special_functions.regularized_incomplete_beta"][0] == 3
    assert tracer.layer_metrics()["special_functions.regularized_incomplete_beta.calls"] == (3, "count")
    tracer.uninstall()
    assert cli.main is original


def test_estimate_inputs_reproduce_byte_for_byte(tmp_path):
    first, again, other = (EstimateFiles(seed, tmp_path) for seed in (7, 7, 8))
    for k in (0, 3, 17):
        assert first.input(k).text() == again.input(k).text()
        assert first.input(k).argv(tmp_path / "x") == again.input(k).argv(tmp_path / "x")
        assert first.input(k).text() != other.input(k).text()


def test_estimate_inputs_have_distinct_sizes_and_three_floored_files_per_block(tmp_path):
    workload = EstimateFiles(11, tmp_path)
    inputs = [workload.input(k) for k in range(90)]
    sizes = [inp.n for inp in inputs]
    assert len(set(sizes)) == len(sizes)
    assert all(1_000 <= n <= 100_000 for n in sizes)
    for b in range(3):
        block = inputs[30 * b:30 * b + 30]
        strata = np.floor(15 * np.log(np.array([inp.n for inp in block]) / 1e3) / np.log(100.0))
        assert sorted(np.minimum(strata, 14)) == sorted(list(range(15)) * 2)
        assert sorted(inp.p for inp in block) == [0.001] * 15 + [0.01] * 15
        floored = [inp for inp in block if inp.floor_count]
        assert len(floored) == 3
        for inp in floored:
            values = inp.values
            assert np.count_nonzero(values == values.min()) == inp.floor_count >= 0.03 * values.size


def test_simulate_requests_are_fixed_by_the_seed(tmp_path):
    assert make("sim-small-n", 5, tmp_path).prepare(0) == make("sim-small-n", 5, tmp_path).prepare(9)
    assert make("sim-small-n", 5, tmp_path).prepare(0) != make("sim-small-n", 6, tmp_path).prepare(0)


def test_estimate_check_accepts_the_program_and_catches_a_wrong_quantile(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from tailquant import cli

    workload = EstimateFiles(2, tmp_path)
    inp = min((workload.input(k) for k in range(10) if not workload.input(k).floor_count), key=lambda i: i.n)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workload.prepare(inp.k).argv) == 0
    assert check_estimate(inp, out.getvalue()) == []
    lines = [
        f"quantile={float(line[9:]) + 1.0!r}" if line.startswith("quantile=") else line
        for line in out.getvalue().splitlines()
    ]
    assert any("quantile" in problem for problem in check_estimate(inp, "\n".join(lines)))
