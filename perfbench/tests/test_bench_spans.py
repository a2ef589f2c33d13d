"""Self-time arithmetic and wrapper installation of the benchmark tracer."""

import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(p) for p in (BENCH, BENCH.parent / "src") if str(p) not in sys.path]

import rec.lifelong  # noqa: E402
import rec.netcore  # noqa: E402
import rec.regularize  # noqa: E402
from layers import pass_metrics  # noqa: E402
from spans import NO_PARENT, Tracer, install, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # 0 [0,10] has children 1 [1,4] and 2 [5,9]; 1 has child 3 [2,3];
    # 2 has children 4 [5,6] and 5 [7,9]; 5 has no children.
    start = [0.0, 1.0, 5.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 9.0, 3.0, 6.0, 9.0]
    parent = [NO_PARENT, 0, 0, 1, 2, 2]
    np.testing.assert_allclose(self_times(start, end, parent),
                               [10 - 3 - 4, 3 - 1, 4 - 1 - 2, 1, 1, 2])


def test_self_time_counts_overlapping_children_once():
    # Children [1,5] and [3,8] cover [1,8]; a child running past its parent's
    # end is clipped to the parent.
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 8.0, 12.0]
    parent = [NO_PARENT, 0, 0, 0]
    np.testing.assert_allclose(self_times(start, end, parent)[0], 10 - 7 - 1)


def test_attributed_share_leaves_out_the_benchmarks_own_time():
    # bench.pass [0,10] > cli._run_one [0,9] > run_sequence [1,6]; then
    # cli._write_reports [9,10]. Unattributed: the 4 s of _run_one outside
    # run_sequence; the pass itself has no self time.
    tracer = Tracer()
    with tracer.span("bench.pass"):
        with tracer.span("cli._run_one"):
            tracer.wrap(lambda: None, "lifelong.run_sequence", "cli")()
        with tracer.span("cli._write_reports"):
            pass
    tracer.job_id[2] = 0
    tracer.start[:] = array("d", [0.0, 0.0, 1.0, 9.0])
    tracer.end[:] = array("d", [10.0, 9.0, 6.0, 10.0])
    m = pass_metrics(tracer, ["sn"])
    assert m["trace.attributed_share"] == pytest.approx(0.6)
    assert m["lifelong.job_s.sn"] == pytest.approx(5.0)
    assert m["cli.report_s"] == pytest.approx(1.0)


def test_recorded_spans_nest_and_sum():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    cols = tracer.columns()
    assert cols["parent"].tolist() == [NO_PARENT, 0]
    dur = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert own[0] + own[1] == pytest.approx(dur[0])


def test_install_wraps_every_importing_module_and_restores():
    originals = (rec.netcore.forward, rec.regularize.forward, rec.lifelong.evaluate)
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert rec.regularize.forward is not originals[1]
        assert rec.netcore.forward is not originals[0]
        net = rec.netcore.init_network(rec.netcore.Arch(4, (3,), 2), seed=0)
        x, y = np.ones((5, 4)), np.zeros(5, dtype=int)
        rec.lifelong.evaluate(net, x, y)
        keys = [tracer.keys[k] for k in tracer.columns()["key"]]
        # evaluate is defined in netcore; the call site is lifelong, and its
        # call to predict_logits is a child span recorded at the netcore site.
        assert keys[-2:] == [("netcore.evaluate", "lifelong"),
                             ("netcore.predict_logits", "netcore")]
        assert tracer.columns()["parent"][-1] == len(keys) - 2
    finally:
        restore()
    assert (rec.netcore.forward, rec.regularize.forward, rec.lifelong.evaluate) == originals


def test_wrapped_call_that_raises_is_marked_and_propagates():
    tracer = Tracer()

    def boom():
        raise rec.regularize.TrainingDiverged("non-finite loss")

    with pytest.raises(rec.regularize.TrainingDiverged):
        tracer.wrap(boom, "regularize.train_task", "controller")()
    tracer.wrap(lambda: None, "regularize.train_task", "lifelong")()
    assert tracer.columns()["raised"].tolist() == [1, 0]
    assert tracer._stack == []
