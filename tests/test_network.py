"""Tests for the generic thermal RC network builder."""

import numpy as np
import pytest

from repro.errors import ModelBuildError
from repro.rcmodel import NetworkBuilder


def build_two_node():
    builder = NetworkBuilder()
    a = builder.add_node(1.0, label="a")
    b = builder.add_node(2.0, label="b")
    builder.connect(a, b, 0.5)
    builder.to_ambient(b, 0.25)
    return builder.build(), a, b


def test_basic_build():
    net, a, b = build_two_node()
    assert net.n_nodes == 2
    assert net.node_labels == {"a": 0, "b": 1}
    np.testing.assert_allclose(net.capacitance, [1.0, 2.0])
    np.testing.assert_allclose(net.ambient_conductance, [0.0, 0.25])


def test_laplacian_structure():
    net, a, b = build_two_node()
    lap = net.laplacian.toarray()
    np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]])
    # rows sum to zero: pure inter-node conduction conserves heat
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-15)


def test_system_matrix_is_symmetric_positive_definite():
    net, _, _ = build_two_node()
    a = net.system_matrix.toarray()
    np.testing.assert_allclose(a, a.T)
    eigvals = np.linalg.eigvalsh(a)
    assert np.all(eigvals > 0)


def test_system_matrix_buffers_are_frozen():
    """The cached CSC aliases the steady solver's factor-cache keying:
    a would-be in-place edit of its buffers raises instead of silently
    desynchronizing matrix content and cached factorization."""
    net, _, _ = build_two_node()
    system = net.system_matrix
    assert not system.data.flags.writeable
    with pytest.raises(ValueError):
        system.data[0] = 99.0
    # reads and copies still work
    assert system.toarray().shape == (2, 2)
    mutable = system.copy()
    mutable.data[0] = 99.0  # a copy is fair game
    # invalidate() + reassembly still produces a fresh frozen matrix
    net.invalidate()
    again = net.system_matrix
    assert again is not system
    assert not again.data.flags.writeable
    np.testing.assert_allclose(again.toarray(), system.toarray())


def test_parallel_conductances_accumulate():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.connect(a, b, 0.5)
    builder.connect(b, a, 0.5)  # same pair, either order
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.laplacian[0, 1] == pytest.approx(-1.0)


def test_zero_conductance_is_ignored():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_node(1.0)
    builder.connect(a, 1, 0.0)
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.laplacian.nnz == 0


def test_self_connection_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    with pytest.raises(ModelBuildError):
        builder.connect(a, a, 1.0)


def test_duplicate_labels_rejected():
    builder = NetworkBuilder()
    builder.add_node(1.0, label="x")
    with pytest.raises(ModelBuildError):
        builder.add_node(1.0, label="x")


def test_no_ambient_path_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.connect(a, b, 1.0)
    with pytest.raises(ModelBuildError):
        builder.build()


def test_negative_conductance_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_node(1.0)
    with pytest.raises(ValueError):
        builder.connect(a, 1, -1.0)


def test_add_capacitance_accumulates():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_capacitance(a, 0.5)
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.capacitance[0] == pytest.approx(1.5)


class RecordingBuilder(NetworkBuilder):
    """Logs every array-method call (scalar calls arrive as one-element
    array calls), so a real model's assembly can be replayed."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def _log(self, name, *args):
        self.calls.append((name, [np.array(arg) for arg in args]))

    def add_nodes(self, capacitances):
        self._log("add_nodes", capacitances)
        return super().add_nodes(capacitances)

    def add_capacitances(self, nodes, capacitances):
        self._log("add_capacitances", nodes,
                  np.broadcast_to(capacitances, np.shape(nodes)))
        super().add_capacitances(nodes, capacitances)

    def connect_many(self, a_nodes, b_nodes, conductances):
        self._log("connect_many", a_nodes, b_nodes,
                  np.broadcast_to(conductances, np.shape(a_nodes)))
        super().connect_many(a_nodes, b_nodes, conductances)

    def to_ambient_many(self, nodes, conductances):
        self._log("to_ambient_many", nodes,
                  np.broadcast_to(conductances, np.shape(nodes)))
        super().to_ambient_many(nodes, conductances)


@pytest.fixture(scope="module")
def ev6_assembly():
    """An EV6 oil grid's network plus the builder calls that made it."""
    import repro.rcmodel.grid as grid
    from repro.convection.flow import FlowDirection
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package

    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height,
                                 velocity=3.0,
                                 direction=FlowDirection("left_to_right"))
    recorders = []

    def recording():
        recorders.append(RecordingBuilder())
        return recorders[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "NetworkBuilder", recording)
        model = grid.ThermalGridModel(plan, config, nx=8, ny=8)
    return model.network, recorders[0].calls


def assert_networks_bitwise_equal(net1, net2):
    a1, a2 = net1.system_matrix, net2.system_matrix
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a1, field), getattr(a2, field))
        assert getattr(a1, field).dtype == getattr(a2, field).dtype
    assert np.array_equal(net1.capacitance, net2.capacitance)
    assert np.array_equal(net1.ambient_conductance, net2.ambient_conductance)


def test_vectorized_builders_match_scalar(ev6_assembly):
    """A real EV6 grid's assembly replayed element by element through
    the scalar methods, and in one array call per kind, gives the
    model's network bit for bit (duplicate sums keep their order)."""
    network, calls = ev6_assembly
    assert any(name == "add_capacitances" for name, _ in calls)

    scalar = NetworkBuilder()
    for name, args in calls:
        if name == "add_nodes":
            for cap in args[0]:
                scalar.add_node(cap)
        elif name == "add_capacitances":
            for node, cap in zip(*args):
                scalar.add_capacitance(node, cap)
        elif name == "connect_many":
            for a, b, g in zip(*args):
                scalar.connect(a, b, g)
        else:
            for node, g in zip(*args):
                scalar.to_ambient(node, g)
    assert_networks_bitwise_equal(scalar.build(), network)

    def joined(kind, i):
        return np.concatenate([args[i] for name, args in calls if name == kind])

    whole = NetworkBuilder()
    whole.add_nodes(joined("add_nodes", 0))
    whole.connect_many(joined("connect_many", 0), joined("connect_many", 1),
                       joined("connect_many", 2))
    whole.to_ambient_many(joined("to_ambient_many", 0),
                          joined("to_ambient_many", 1))
    whole.add_capacitances(joined("add_capacitances", 0),
                           joined("add_capacitances", 1))
    assert_networks_bitwise_equal(whole.build(), network)


def three_nodes():
    builder = NetworkBuilder()
    builder.add_nodes([1.0, 1.0, 1.0])
    return builder


ARRAY_CALLS = {
    "connect_many": lambda b, v: b.connect_many([0, 1], [1, 2], [0.5, v]),
    "to_ambient_many": lambda b, v: b.to_ambient_many([0, 1], [0.5, v]),
    "add_capacitances": lambda b, v: b.add_capacitances([0, 1], [0.5, v]),
}
SCALAR_CALLS = {
    "connect_many": lambda b, v: b.connect(1, 2, v),
    "to_ambient_many": lambda b, v: b.to_ambient(1, v),
    "add_capacitances": lambda b, v: b.add_capacitance(1, v),
}


@pytest.mark.parametrize("method", sorted(ARRAY_CALLS))
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_array_methods_reject_bad_values_like_scalar(method, bad):
    with pytest.raises(ValueError) as array_error:
        ARRAY_CALLS[method](three_nodes(), bad)
    with pytest.raises(ValueError) as scalar_error:
        SCALAR_CALLS[method](three_nodes(), bad)
    assert str(array_error.value) == str(scalar_error.value)


def test_rejected_array_call_stores_nothing():
    builder = three_nodes()
    with pytest.raises(ValueError):
        builder.connect_many([0, 1], [1, 2], [0.5, -1.0])
    builder.to_ambient(0, 1.0)
    assert builder.build().laplacian.nnz == 0


def test_array_self_loop_rejected_like_scalar():
    with pytest.raises(ModelBuildError, match="itself"):
        three_nodes().connect_many([0, 2], [1, 2], 0.5)
    with pytest.raises(ModelBuildError, match="itself"):
        three_nodes().connect(2, 2, 0.5)


def test_array_zero_conductances_are_omitted_like_scalar():
    array = three_nodes()
    array.connect_many([0, 1], [1, 2], [0.0, 0.5])
    array.to_ambient_many([0, 1, 2], [0.0, 0.0, 0.25])
    scalar = three_nodes()
    scalar.connect(1, 2, 0.5)
    scalar.to_ambient(2, 0.25)
    net1, net2 = array.build(), scalar.build()
    assert net1.laplacian.nnz == 4  # one edge: two off-diagonal + two degree
    assert_networks_bitwise_equal(net1, net2)


@pytest.mark.parametrize("call, index", [
    (lambda b: b.to_ambient(-1, 0.5), -1),
    (lambda b: b.add_capacitance(-1, 0.5), -1),
    (lambda b: b.to_ambient(7, 0.5), 7),
    (lambda b: b.add_capacitance(3, 0.5), 3),
    (lambda b: b.connect(0, -1, 0.5), -1),
    (lambda b: b.connect(3, 0, 0.5), 3),
    (lambda b: b.connect_many([0, 1], [1, 5], 0.5), 5),
    (lambda b: b.to_ambient_many([0, -2], 0.5), -2),
    (lambda b: b.add_capacitances([2, 9], 0.5), 9),
], ids=["ambient_neg", "cap_neg", "ambient_past_end", "cap_past_end",
        "connect_neg", "connect_past_end", "connect_many", "ambient_many",
        "capacitances"])
def test_out_of_range_node_is_a_build_error(call, index):
    """Negative indices used to wrap to the last node silently, and
    indices past the end raised raw IndexError/ValueError."""
    with pytest.raises(ModelBuildError, match=f"node index {index} "):
        call(three_nodes())


def test_heat_to_ambient():
    net, _, _ = build_two_node()
    rise = np.array([3.0, 4.0])
    assert net.heat_to_ambient(rise) == pytest.approx(0.25 * 4.0)


def test_totals():
    net, _, _ = build_two_node()
    assert net.total_capacitance() == pytest.approx(3.0)
    assert net.total_ambient_conductance() == pytest.approx(0.25)
