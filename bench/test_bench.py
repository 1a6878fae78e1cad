"""Tests of the benchmark itself: inputs, output checker and span arithmetic.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import sys

import pytest

import checker
import run
import tracer
import workloads
from workloads import Call, rows_from_edges

P3 = rows_from_edges(3, [(0, 1), (1, 2)])
P3_WORD = (0, 1, 0, 1, 0, 2, 0, 2, 1)  # reverses every colour of P3 in 9 = 4n-3 letters


def reverse_output(word) -> str:
    return f"word: {','.join(map(str, word))}\nlength: {len(word)}\nbound: 9\nverification: ok\n"


def exact_output(exact: int, witness) -> str:
    return json.dumps(
        {"graph": "Bg", "n": 3, "exact_cr": exact, "witness": list(witness),
         "synthesized_length": 9, "bound": 9}
    )


def fingerprint(wl: workloads.Workload) -> list:
    return [(c.kind, c.edge_list(), c.argv("g.txt")) for c in (*wl.calls, wl.warmup)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(name):
    assert fingerprint(workloads.build(name, 7)) == fingerprint(workloads.build(name, 7))


@pytest.mark.parametrize("name", ["cli-small", "synth-large"])
def test_inputs_change_with_the_seed(name):
    assert fingerprint(workloads.build(name, 7)) != fingerprint(workloads.build(name, 8))


def test_workload_shapes():
    small = workloads.build("cli-small", 3).calls
    assert len(small) == 1000
    assert sorted({c.n for c in small}) == list(range(2, 17))
    kinds = [c.kind for c in small]
    assert (kinds.count("reverse"), kinds.count("transform"), kinds.count("apply")) == (400, 400, 200)
    large = workloads.build("synth-large", 3).calls
    assert len(large) == 60 and all(64 <= c.n <= 256 for c in large)
    for c in small + large:
        reach, frontier = 1, 1
        while frontier:
            nxt = 0
            for v in range(c.n):
                if (frontier >> v) & 1:
                    nxt |= c.rows[v]
            frontier = nxt & ~reach
            reach |= nxt
        assert reach == (1 << c.n) - 1, "workload graphs are connected"


def test_checker_accepts_a_correct_word():
    assert checker.check(Call("reverse", 3, P3), 0, reverse_output(P3_WORD)) is None


def test_checker_flags_one_letter_changes_like_the_package_replay():
    # vertices 0 and 2 of P3 are twins, so some changed words stay correct;
    # the package's own tuple replay decides which
    run.load_package()
    from locinv.graph_core import BicoloredGraph, Graph, apply_word, flip

    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    start = BicoloredGraph(g, (1, 1, 1))
    call = Call("reverse", 3, P3)
    flagged = 0
    for i, letter in enumerate(P3_WORD):
        for other in range(3):
            if other != letter:
                word = P3_WORD[:i] + (other,) + P3_WORD[i + 1 :]
                correct = apply_word(start, word) == flip(start, range(3))
                reason = checker.check(call, 0, reverse_output(word))
                assert (reason is None) == correct, (word, reason)
                flagged += reason is not None
    assert flagged >= 12


def test_checker_flags_a_word_over_its_bound():
    # appending 0,0 keeps the effect but takes the word past 4n-3 = 9 letters
    reason = checker.check(Call("reverse", 3, P3), 0, reverse_output(P3_WORD + (0, 0)))
    assert reason is not None and "bound" in reason


def test_checker_flags_a_wrong_transform_flip_set():
    call = Call("transform", 3, P3, {"from": "+++", "to": "++-"})
    assert checker.check(call, 0, reverse_output(P3_WORD)) is not None
    ok = Call("transform", 3, P3, {"from": "+-+", "to": "-+-"})
    assert checker.check(ok, 0, reverse_output(P3_WORD)) is None


def test_checker_flags_a_nonzero_exit():
    assert checker.check(Call("reverse", 3, P3), 1, reverse_output(P3_WORD)) == "exit code 1"


def test_checker_replays_apply():
    call = Call("apply", 3, P3, {"colors": "+++", "word": (1,)})
    # inversion at the centre flips both ends and joins them
    assert checker.check(call, 0, "n 3\n0 1\n0 2\n1 2\ncolors: -+-\n") is None
    assert checker.check(call, 0, "n 3\n0 1\n1 2\ncolors: -+-\n") is not None
    assert checker.check(call, 0, "n 3\n0 1\n0 2\n1 2\ncolors: +++\n") is not None


def test_checker_pins_oracle_values():
    call = Call("exact", 3, P3, {"expect": 9})
    assert checker.check(call, 0, exact_output(9, P3_WORD)) is None
    assert checker.check(call, 0, exact_output(8, P3_WORD[:-1])) is not None
    wrong_pin = Call("exact", 3, P3, {"expect": 8})
    assert checker.check(wrong_pin, 0, exact_output(9, P3_WORD)) is not None
    tampered = P3_WORD[:-1] + (0,)
    assert checker.check(call, 0, exact_output(9, tampered)) is not None


def test_checker_pins_the_survey_summary():
    call = Call("survey", 0, (), {"max_n": 3, "classes": {3: 1}})
    summary = {"graphs": 1, "max_cr": 9, "max_ratio": 1.0, "violations": []}
    good = exact_output(9, P3_WORD) + "\n" + json.dumps(summary)
    assert checker.check(call, 0, good) is None
    for key, value in (("graphs", 2), ("max_ratio", 0.9), ("violations", ["x"])):
        bad = exact_output(9, P3_WORD) + "\n" + json.dumps({**summary, key: value})
        assert checker.check(call, 0, bad) is not None, key


def test_full_scale_oracle_pins_hold(tmp_path):
    # the oracle workload runs at n <= 7 with sub-second calls; these are the
    # larger searches it leaves out (about 20 s), with their known answers
    cycle7 = rows_from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    calls = [
        Call("survey", 0, (), {"max_n": 6, "classes": {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}}),
        Call("exact", 7, cycle7, {"expect": 21}),
    ]
    cli = run.load_package()
    for call in calls:
        path = tmp_path / "g.txt"
        path.write_text(call.edge_list(), encoding="utf-8")
        rc, out, _ = run.invoke(cli, call.argv(str(path)))
        assert checker.check(call, rc, out) is None, call.kind


def test_tampered_word_counts_as_failed():
    calls = (Call("reverse", 3, P3),)
    tampered = (1,) + P3_WORD[1:]
    records = [(0, 0, reverse_output(P3_WORD), 0.001), (0, 0, reverse_output(tampered), 0.001)]
    failed, reasons = run.count_failures(calls, records)
    assert failed == 1 and len(reasons) == 1


def test_self_times_on_a_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["root2", 20.0, 21.0, -1],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracer.root_residual(spans, selfs) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0]]
    assert tracer.self_times(spans)[0] == 4.0


def test_tracer_times_each_next_of_a_generator():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def gen():
        yield 1
        yield 2

    traced = tr._wrap_generator(gen, "g")
    outer = tr.open("outer")
    assert list(traced()) == [1, 2]
    tr.close(outer)
    names = [s[0] for s in tr.spans]
    assert names == ["outer", "g", "g", "g"]  # two items and the final StopIteration
    assert all(s[3] == 0 for s in tr.spans[1:])
    assert tr.counts["g.items"] == 2
    selfs = tracer.self_times(tr.spans)
    assert tracer.root_residual(tr.spans, selfs) == 0.0


def test_tracer_wraps_every_site_and_restores_it():
    run.load_package()
    modules = {m: sys.modules[m] for m in sys.modules if m.startswith("locinv.")}
    sites = [(modules[m], attr) for names in tracer.SITES.values() for m, attr in names]
    originals = [getattr(mod, attr) for mod, attr in sites]
    assert all(fn.__module__.startswith("locinv.") for fn in originals)
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(sites, originals))
    finally:
        tr.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(sites, originals))


def test_setup_runs_in_fresh_interpreters(tmp_path):
    wl = workloads.build("cli-small", 1)
    _, warmup_argv = workloads.write_inputs(wl, tmp_path)
    times, outputs = run.setup(warmup_argv, 3)
    assert len(times) == len(outputs) == 3 and min(times) > 0
    assert all(checker.check(wl.warmup, rc, out) is None for rc, out in outputs)


def test_traced_loop_pairs_every_call(tmp_path):
    wl = workloads.build("cli-small", 1)
    argvs, _ = workloads.write_inputs(wl, tmp_path)
    cli = run.load_package()
    tr = tracer.Tracer()
    records, traced, _ = run.closed_loop(cli, argvs[:6], 0, tr)
    assert [r[0] for r in records] == [r[0] for r in traced] == list(range(6))
    assert [r[1:3] for r in records] == [r[1:3] for r in traced]
    assert [s[0] for s in tr.spans].count("cli.main") == 6
    assert not hasattr(cli.main, "__wrapped__"), "the tracer is uninstalled after each traced call"
