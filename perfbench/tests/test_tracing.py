"""Self-time arithmetic and the identity wrapping of the tracer."""

import pytest

import tracing
import signedfam
from signedfam import shifting, solver, vectors


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 9.5, 9.75, 0],
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.25)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 0.25)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(4.0)
    # self times partition the root span exactly
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_sum_a_module_and_guard_empty_ratios():
    spans = [["formulas.p_split", 0.0, 2.0, -1], ["formulas.g_bounds", 0.5, 1.0, 0]]
    values = tracing.layer_metrics(spans, tracing.Counter())
    assert values["formulas.self_s"] == pytest.approx(2.0)
    assert values["cache.hit_ratio"] == 0.0
    assert values["solver.nodes_per_s"] == 0.0
    assert set(values) == set(tracing.LAYER_METRICS)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_wraps_names_imported_elsewhere(tracer):
    # solver imported precedes and scalar_product by name; both are rebound
    assert solver.precedes is shifting.precedes
    assert solver.scalar_product is vectors.scalar_product is signedfam.scalar_product
    assert solver.precedes.__wrapped__.__module__ == "signedfam.shifting"


def test_uninstall_restores_originals():
    before = (solver.precedes, vectors.scalar_product, solver.solve_extremal)
    t = tracing.Tracer()
    t.install()
    assert solver.precedes is not before[0]
    t.uninstall()
    assert (solver.precedes, vectors.scalar_product, solver.solve_extremal) == before


def test_counts_and_spans_of_a_pruned_solve(tracer):
    profile = vectors.Profile(6, 3, 2)
    solver.solve_extremal(profile, "g")  # inactive: records nothing
    assert not tracer.spans and not tracer.counts

    tracer.active = True
    result = solver.solve_extremal(profile, "g")
    tracer.active = False
    size = profile.family_size()
    counts = tracer.counts
    pairs = size * (size - 1) // 2
    # one pairwise pass for the graph and one for the shift closure
    assert counts["vectors.scalar_product.calls"] == pairs
    assert counts["shifting.precedes.calls"] == pairs
    assert counts["solver.solve_extremal.calls"] == 1
    assert counts["solver.nodes"] == result.nodes_explored
    values = tracing.layer_metrics(tracer.spans, counts)
    assert values["solver.seed_ratio"] == pytest.approx(
        counts["solver.seed_members"] / result.value
    )
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve_extremal", "solver.build_conflict_graph", "vectors.enumerate_all"} <= names
    root = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in root] == ["solver.solve_extremal"]
