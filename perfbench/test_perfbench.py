"""Self-tests of the benchmark's own machinery.

Run from the root of a source checkout:

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import tablegen  # noqa: E402
import workloads  # noqa: E402
from rovib.database import bundled_path, load_database  # noqa: E402
from rovib.potentials import alpha_dmrm, derive  # noqa: E402

BUNDLED = bundled_path().read_text()


def test_same_seed_gives_byte_identical_table():
    assert tablegen.generate(7, BUNDLED) == tablegen.generate(7, BUNDLED)
    assert tablegen.generate(7, BUNDLED) != tablegen.generate(8, BUNDLED)


@pytest.mark.parametrize("seed", range(20))
def test_every_generated_row_loads_and_stays_in_range(seed, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(tablegen.generate(seed, BUNDLED))
    db = load_database(path)
    bundled = load_database()
    assert len(db.names) == len(bundled.names) * (1 + tablegen.PER_PARENT)
    for name in bundled.names:
        assert db.get(name) == bundled.get(name)
    for name in db.names:
        params = db.get(name)
        # `rovib varshni` needs the corrected Lambert-W variant to be real
        alpha_dmrm(params, derive(params), "corrected")
        assert tablegen.bound_count(params.De, params.we) >= 40


def test_bound_counts_spread_evenly_whatever_the_seed():
    def counts(seed):
        rows = tablegen.data_lines(tablegen.generate(seed, BUNDLED))
        return sorted(
            tablegen.bound_count(float(r.split()[6]), float(r.split()[7])) for r in rows
        )

    for seed in range(1, 10):
        assert abs(sum(counts(seed)) - sum(counts(0))) <= len(counts(0))


def test_self_time_on_a_synthetic_span_tree():
    # 0: [0, 10]  root
    # 1: [1, 4]   child of 0
    # 2: [2, 3]   child of 1
    # 3: [5, 9]   child of 0
    # 4: [6, 7]   child of 3
    # 5: [7, 8.5] child of 3
    # 6: [20, 21] second root
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5, 21.0]
    parent = [-1, 0, 1, 0, 3, 3, -1]
    own = spans.self_times(start, end, parent)
    assert list(own) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])
    assert own.sum() == pytest.approx(11.0)  # root durations add up to all self time

    names = ["root", "mid", "leaf"]
    labels = [0, 1, 2, 1, 2, 2, 0]
    errors = [0, 0, 1, 0, 0, 0, 0]
    summary = spans.summarize(names, start, end, labels, parent, errors)
    assert summary["root"] == {"calls": 2, "errors": 0, "total_s": 11.0, "self_s": 4.0}
    assert summary["mid"]["self_s"] == pytest.approx(3.5)
    assert summary["leaf"]["self_s"] == pytest.approx(3.5)
    assert summary["leaf"]["errors"] == 1
    # cut into pieces at root spans, the sums do not change
    for chunk in (1, 2, 5):
        assert spans.summarize(names, start, end, labels, parent, errors, chunk) == summary
    one_root = spans.summarize(
        names, start[:6], end[:6], labels[:6], parent[:6], errors[:6], chunk=2
    )
    assert one_root["root"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_functions(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original = module.inner

    tracer = spans.Tracer()
    tracer.install([
        (module.__name__, "outer", "fake.outer", None),
        (module.__name__, "inner", "fake.inner", lambda a, k, r: {"fake.sum": r}),
        (module.__name__, "removed_by_a_refactor", "fake.gone", None),
    ])
    assert module.outer(1) == 4  # inactive: no spans
    tracer.active = True
    with tracer.span("bench.request"):
        assert module.outer(1) == 4
    tracer.active = False
    tracer.uninstall()

    assert module.inner is original
    assert tracer.absent == [f"{module.__name__}.removed_by_a_refactor"]
    assert list(tracer.parent) == [-1, 0, 1]
    summary = tracer.summary()
    assert summary["spans"]["fake.inner"]["calls"] == 1
    assert summary["counters"] == {"fake.sum": 2}
    assert summary["span_count"] == 3


def test_failed_call_is_marked_and_still_raises(monkeypatch):
    module = types.ModuleType("perfbench_fake_failing")

    def boom():
        raise ValueError("no")

    module.boom = boom
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = spans.Tracer()
    tracer.wrap(module.__name__, "boom", "fake.boom")
    tracer.active = True
    with pytest.raises(ValueError):
        module.boom()
    assert tracer.summary()["spans"]["fake.boom"]["errors"] == 1


def test_import_times_counts_outermost_package_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |   rovib.potentials",
        "import time:        10 |         10 |       scipy",
        "import time:        20 |         30 |     scipy.linalg",
        "import time:         5 |         35 |   rovib.oracle",
        "import time:         1 |        386 | rovib",
        "import time:         4 |        390 | rovib.cli",
    ])
    times = workloads.import_times(stderr)
    assert times["rovib"] == pytest.approx(776e-6)
    assert times["scipy"] == pytest.approx(30e-6)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    value, percentile = workloads.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0
