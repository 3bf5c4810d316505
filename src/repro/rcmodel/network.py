"""Generic thermal RC networks.

A thermal network is an undirected graph of nodes with thermal
capacitances, conductances between node pairs, and conductances from
individual nodes to the ambient (a Dirichlet boundary folded out of the
system).  Writing ``x = T - T_ambient`` for the vector of temperature
rises:

* steady state:  ``A x = P``
* transient:     ``C dx/dt = P(t) - A x``

where ``A = L + diag(g_amb)`` combines the graph Laplacian ``L`` of the
inter-node conductances with the per-node ambient conductances.  ``A``
is symmetric and, whenever at least one node reaches ambient, positive
definite -- properties the tests assert and the solvers rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..errors import ModelBuildError
from ..units import require_non_negative

#: Values the array builder methods broadcast over their nodes.
ArrayLike = Union[float, Sequence[float], np.ndarray]
#: Node indices the array builder methods accept.
NodeArray = Union[int, Sequence[int], np.ndarray]


class ThermalNetwork:
    """An assembled thermal RC network (see module docstring)."""

    def __init__(
        self,
        conductance: sparse.spmatrix,
        ambient_conductance: np.ndarray,
        capacitance: np.ndarray,
        node_labels: Optional[Dict[str, int]] = None,
    ) -> None:
        n = conductance.shape[0]
        if conductance.shape != (n, n):
            raise ModelBuildError("conductance matrix must be square")
        if ambient_conductance.shape != (n,) or capacitance.shape != (n,):
            raise ModelBuildError("vector lengths do not match matrix size")
        if np.any(capacitance <= 0):
            raise ModelBuildError("every node needs positive capacitance")
        if np.any(ambient_conductance < 0):
            raise ModelBuildError("ambient conductances must be >= 0")
        if ambient_conductance.sum() <= 0:
            raise ModelBuildError(
                "no path to ambient: the steady-state problem is singular"
            )
        self._laplacian = conductance.tocsr()
        self.ambient_conductance = ambient_conductance
        self.capacitance = capacitance
        self.node_labels = dict(node_labels or {})
        self._system: Optional[sparse.csc_matrix] = None

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network (ambient excluded)."""
        return self._laplacian.shape[0]

    @property
    def laplacian(self) -> sparse.csr_matrix:
        """Graph Laplacian of inter-node conductances (no ambient)."""
        return self._laplacian

    @property
    def system_matrix(self) -> sparse.csc_matrix:
        """``A = L + diag(g_amb)``, cached in CSC form for factorization.

        The returned matrix is the cached instance itself, and the
        steady solver keys its LU factor cache on this matrix's
        content: an in-place edit of its buffers would silently
        invalidate that keying.  The CSC buffers are therefore frozen —
        mutate the network through its public fields and call
        :meth:`invalidate` instead, or ``.copy()`` the matrix first.
        """
        if self._system is None:
            system = (
                self._laplacian + sparse.diags(self.ambient_conductance)
            ).tocsc()
            system.data.setflags(write=False)
            system.indices.setflags(write=False)
            system.indptr.setflags(write=False)
            self._system = system
        return self._system

    def invalidate(self) -> None:
        """Drop the cached system matrix after an in-place mutation.

        Call after editing ``ambient_conductance`` (or the Laplacian)
        directly; the next solve then reassembles ``A`` and, because
        the steady solver keys its factor cache on the matrix content,
        refactorizes instead of reusing the stale factorization.
        """
        self._system = None

    def total_ambient_conductance(self) -> float:
        """Sum of all conductances to ambient, W/K."""
        return float(self.ambient_conductance.sum())

    def total_capacitance(self) -> float:
        """Sum of all node capacitances, J/K."""
        return float(self.capacitance.sum())

    def heat_to_ambient(self, rise: np.ndarray) -> float:
        """Total heat flow into the ambient for a temperature-rise state."""
        return float(self.ambient_conductance @ rise)


class NetworkBuilder:
    """Incremental construction of a :class:`ThermalNetwork`.

    Conductances between the same node pair accumulate (parallel
    combination); capacitance added to the same node accumulates too.

    The array methods (:meth:`add_nodes`, :meth:`connect_many`,
    :meth:`to_ambient_many`, :meth:`add_capacitances`) check and store
    whole arrays with no per-element Python call; the scalar methods
    are their one-element calls, so every check lives in the array
    methods.  A call is checked in full before anything is stored, and
    each call's arrays are kept as one chunk in call order:
    :meth:`build` concatenates the chunks, so entries that land on the
    same matrix position sum in the order they were added, however
    they were split across calls.
    """

    def __init__(self) -> None:
        self._n_nodes = 0
        self._labels: Dict[str, int] = {}
        self._node_caps: List[np.ndarray] = []
        self._extra_caps: List[Tuple[np.ndarray, np.ndarray]] = []
        self._edges: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._ambient: List[Tuple[np.ndarray, np.ndarray]] = []

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return self._n_nodes

    def add_node(self, capacitance: float, label: Optional[str] = None) -> int:
        """Add one node; returns its index."""
        require_non_negative("capacitance", capacitance)
        if label is not None and label in self._labels:
            raise ModelBuildError(f"duplicate node label {label!r}")
        index = int(self.add_nodes([capacitance])[0])
        if label is not None:
            self._labels[label] = index
        return index

    def add_nodes(self, capacitances: Sequence[float]) -> np.ndarray:
        """Add a block of nodes; returns their indices as an array."""
        capacitances = np.array(capacitances, dtype=float).ravel()
        if np.any(~np.isfinite(capacitances)) or np.any(capacitances < 0):
            raise ModelBuildError("capacitances must be finite and >= 0")
        start = self._n_nodes
        self._node_caps.append(capacitances)
        self._n_nodes += capacitances.size
        return np.arange(start, self._n_nodes)

    def add_capacitance(self, node: int, capacitance: float) -> None:
        """Add extra capacitance to an existing node (e.g. the oil layer
        lumped onto the wetted silicon surface, paper Fig. 7(b))."""
        self.add_capacitances([node], capacitance)

    def add_capacitances(self, nodes: NodeArray, capacitances: ArrayLike) -> None:
        """Add extra capacitance to each of ``nodes`` (values broadcast)."""
        nodes = self._nodes(nodes)
        self._extra_caps.append(
            (nodes, self._values("capacitance", capacitances, nodes.size))
        )

    def connect(self, a: int, b: int, conductance: float) -> None:
        """Add a conductance (W/K) between nodes ``a`` and ``b``."""
        self.connect_many([a], [b], conductance)

    def connect_many(
        self,
        a_nodes: NodeArray,
        b_nodes: NodeArray,
        conductances: ArrayLike,
    ) -> None:
        """Add a conductance between each pair ``a_nodes[i]``,
        ``b_nodes[i]`` (values broadcast); exact zeros are omitted."""
        a_nodes = self._nodes(a_nodes)
        b_nodes = self._nodes(b_nodes)
        if a_nodes.shape != b_nodes.shape:
            raise ModelBuildError(
                f"{a_nodes.size} a-nodes but {b_nodes.size} b-nodes"
            )
        loops = np.flatnonzero(a_nodes == b_nodes)
        if loops.size:
            raise ModelBuildError(
                f"cannot connect a node to itself (node {a_nodes[loops[0]]})"
            )
        values = self._values("conductance", conductances, a_nodes.size)
        keep = values != 0.0  # repro-ok: float-equality; exact zero = omitted edge
        self._edges.append((a_nodes[keep], b_nodes[keep], values[keep]))

    def to_ambient(self, node: int, conductance: float) -> None:
        """Add a conductance from ``node`` to the ambient."""
        self.to_ambient_many([node], conductance)

    def to_ambient_many(self, nodes: NodeArray, conductances: ArrayLike) -> None:
        """Add a conductance from each of ``nodes`` to the ambient
        (values broadcast); exact zeros are omitted."""
        nodes = self._nodes(nodes)
        values = self._values("conductance", conductances, nodes.size)
        keep = values != 0.0  # repro-ok: float-equality; exact zero = no ambient path
        self._ambient.append((nodes[keep], values[keep]))

    def _nodes(self, nodes: NodeArray) -> np.ndarray:
        """``nodes`` as a flat int array; each must be an added node."""
        nodes = np.array(nodes, dtype=int).ravel()
        bad = np.flatnonzero((nodes < 0) | (nodes >= self._n_nodes))
        if bad.size:
            raise ModelBuildError(
                f"node index {nodes[bad[0]]} is out of range for a network "
                f"of {self._n_nodes} nodes"
            )
        return nodes

    @staticmethod
    def _values(name: str, values: ArrayLike, size: int) -> np.ndarray:
        """``values`` broadcast to ``size`` as a flat float copy; each
        must be finite and >= 0."""
        values = np.broadcast_to(
            np.asarray(values, dtype=float).ravel(), (size,)
        ).copy()
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
        if bad.size:
            # raises the ValueError a scalar check of this value raises
            require_non_negative(name, values[bad[0]])
        return values

    def build(self) -> ThermalNetwork:
        """Assemble the sparse Laplacian and return the network."""
        n = self._n_nodes
        if n == 0:
            raise ModelBuildError("network has no nodes")
        a_nodes = _concat([e[0] for e in self._edges], int)
        b_nodes = _concat([e[1] for e in self._edges], int)
        vals = _concat([e[2] for e in self._edges], float)
        rows = np.concatenate([a_nodes, b_nodes])
        cols = np.concatenate([b_nodes, a_nodes])
        vals = np.concatenate([vals, vals])
        off_diag = sparse.coo_matrix((-vals, (rows, cols)), shape=(n, n)).tocsr()
        degree = -np.asarray(off_diag.sum(axis=1)).ravel()
        laplacian = off_diag + sparse.diags(degree)
        ambient = np.zeros(n)
        np.add.at(ambient, _concat([c[0] for c in self._ambient], int),
                  _concat([c[1] for c in self._ambient], float))
        capacitance = np.concatenate(self._node_caps)
        # unbuffered and in call order: the same float sums, bit for
        # bit, as adding each capacitance to its node one at a time
        for nodes, values in self._extra_caps:
            np.add.at(capacitance, nodes, values)
        if np.any(capacitance <= 0):
            zero = int(np.argmin(capacitance))
            raise ModelBuildError(
                f"node {zero} ended up with non-positive capacitance; every "
                f"physical node must store heat"
            )
        return ThermalNetwork(laplacian, ambient, capacitance, self._labels)


def _concat(chunks: List[np.ndarray], dtype: type) -> np.ndarray:
    """Concatenate stored chunks; an empty list is an empty array."""
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)
