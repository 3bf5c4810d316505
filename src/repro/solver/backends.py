"""Pluggable linear-algebra backends for the solver hot loop.

Every solver engine — steady, transient, adaptive, batched — reduces to
the same three operations on the (constant) implicit system matrix:
factorize once, back-solve many times (one RHS or a lockstep batch of
columns), and multiply by a sparse matrix when assembling the RHS.
This module narrows that surface to a :class:`LinearBackend` protocol
so faster linear algebra can compete under an explicit contract:

* ``bitwise=True`` backends promise results bitwise identical
  (``np.array_equal``) to the historical SuperLU column-by-column
  path, including the "batch column == stepping that scenario alone"
  guarantee of DESIGN.md §5.4.
* ``bitwise=False`` backends promise agreement with the
  ``superlu-serial`` reference only within their declared ``rtol``
  envelope, in exchange for speed (blocked multi-RHS kernels, SPD
  Cholesky-style eliminations).

Backend selection precedence (first match wins):

1. an explicit ``backend=`` argument on the solver entry point;
2. the innermost active :func:`backend_override` context (how
   ``CampaignSpec.backend`` is scoped around job execution);
3. the ``REPRO_SOLVER_BACKEND`` environment variable;
4. the default, :data:`DEFAULT_BACKEND` (``superlu-serial``).

Factorization failures of any backend (singular SuperLU
``RuntimeError``, scipy validation ``ValueError``) are normalized to
:class:`~repro.errors.SolverError` at the protocol boundary, so
callers see one exception type regardless of the engine underneath.
"""

from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .. import obs
from ..errors import SolverError

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_SOLVER_BACKEND"

#: The bitwise-faithful extraction of the historical solver path.
DEFAULT_BACKEND = "superlu-serial"

try:
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    def csr_matvecs(matrix: Any, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` for 2-D ``x`` without operator-dispatch cost.

        Calls the same C kernel scipy's ``@`` runs (``csr_matvecs``),
        which accumulates each output column in exactly the single-
        vector order — so column ``k`` is bitwise ``matrix @ x[:, k]``.
        The batched stepping loop calls this every step, where the
        public operator's per-call validation would dominate on small
        grids.
        """
        n_row, n_col = matrix.shape
        n_vecs = x.shape[1]
        x = np.ascontiguousarray(x)
        out = np.zeros((n_row, n_vecs))
        _scipy_sparsetools.csr_matvecs(
            n_row, n_col, n_vecs, matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), out.ravel(),
        )
        return out
except ImportError:  # pragma: no cover - scipy layout changed
    def csr_matvecs(matrix: Any, x: np.ndarray) -> np.ndarray:
        return matrix @ x


class Factor:
    """A factorization of one system matrix, ready for repeated solves."""

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve one right-hand-side vector ``(n,)``."""
        raise NotImplementedError

    def solve_columns(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve a multi-column RHS ``(n, K)``.

        The base implementation solves column by column against the
        shared factorization — the exact serial operation sequence, so
        ``solve_columns(rhs)[:, k]`` is bitwise ``solve(rhs[:, k])``
        by construction (the contract ``bitwise=True`` backends rely
        on; see DESIGN.md §5.4 for why SuperLU's blocked multi-RHS
        kernel cannot be certified bitwise).  Tolerance backends
        override this with blocked kernels.
        """
        rhs = np.asfortranarray(rhs)  # column slices become copy-free views
        out = np.empty(rhs.shape)  # C order: the next RHS ravels for free
        for k in range(rhs.shape[1]):
            out[:, k] = self.solve(rhs[:, k])
        return out


class _SuperLUFactor(Factor):
    """Wraps a SuperLU object; inherits the bitwise column loop."""

    def __init__(self, lu: Any) -> None:
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


class _BlockedSuperLUFactor(_SuperLUFactor):
    """SuperLU factor that routes multi-RHS solves through the blocked
    kernel (faster, but only per-column-close, not bitwise)."""

    def solve_columns(self, rhs: np.ndarray) -> np.ndarray:
        return np.asarray(self._lu.solve(np.asfortranarray(rhs)))


class LinearBackend:
    """One linear-algebra engine behind the solver hot loop.

    Subclasses implement :meth:`_factorize`; the public
    :meth:`factorize` adds the span, the per-backend counter, and the
    :class:`SolverError` normalization every backend shares.
    """

    #: Registry key, CLI/env spelling, and campaign-hash component.
    name: str = ""
    #: True iff results are bitwise identical to ``superlu-serial``.
    bitwise: bool = False
    #: Documented agreement envelope vs the reference backend
    #: (0.0 for bitwise backends).
    rtol: float = 0.0

    def cache_key(self) -> str:
        """Identity component for factor caches: a factor produced by
        one backend must never be served to another."""
        return self.name

    def factorize(self, matrix: sparse.spmatrix) -> Factor:
        """Factorize an SPD sparse system matrix, or raise SolverError."""
        with obs.span("solver.backend.factorize", backend=self.name,
                      n_nodes=matrix.shape[0], nnz=int(matrix.nnz)):
            try:
                factor = self._factorize(matrix)
            except SolverError:
                raise
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                # RuntimeError: SuperLU singular-matrix (and Arpack-
                # family) errors; ValueError: scipy input validation.
                raise SolverError(
                    f"backend {self.name!r} factorization failed: {exc}"
                ) from exc
        obs.metrics().counter(
            f"solver.backend.{self.name}.factorizations"
        ).inc()
        return factor

    def _factorize(self, matrix: sparse.spmatrix) -> Factor:
        raise NotImplementedError

    def matvec(self, matrix: Any, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` for RHS assembly, 1-D or column-batched 2-D.

        The default routes 2-D products through the per-column C
        kernel so batch columns stay bitwise equal to their serial
        counterparts.
        """
        if x.ndim == 2:
            return csr_matvecs(matrix, x)
        return np.asarray(matrix @ x)


def _check_symmetric(matrix: sparse.spmatrix, name: str) -> None:
    """Reject matrices a symmetric-only elimination would silently
    mis-solve (Cholesky reads one triangle; asymmetry must be an
    error, not an answer)."""
    asym = (matrix - matrix.T).tocoo()
    if asym.nnz == 0:
        return
    scale = float(np.max(np.abs(matrix.data))) if matrix.nnz else 0.0
    worst = float(np.max(np.abs(asym.data)))
    if worst > 1e-12 * max(scale, 1.0):
        raise SolverError(
            f"backend {name!r} requires a symmetric matrix; "
            f"max |A - A^T| = {worst:.3e}"
        )


class SuperLUSerialBackend(LinearBackend):
    """The historical solver path, extracted verbatim.

    Plain ``splu`` with scipy defaults plus the column-by-column
    back-solve loop: bitwise identical to the pre-backend engines by
    construction, and therefore the default.
    """

    name = "superlu-serial"
    bitwise = True
    rtol = 0.0

    def _factorize(self, matrix: sparse.spmatrix) -> Factor:
        return _SuperLUFactor(splu(matrix.tocsc()))


class SparseCholeskyBackend(LinearBackend):
    """SPD sparse Cholesky-like elimination (SuperLU symmetric mode).

    scipy ships no sparse Cholesky, but SuperLU's symmetric mode with
    diagonal pivoting disabled performs the equivalent LDL^T-style
    elimination on an SPD matrix with a symmetric fill-reducing
    ordering.  A symmetry precheck and a positive-pivot postcheck make
    indefinite input a :class:`SolverError` instead of a wrong answer.
    Multi-RHS solves use the blocked kernel, so results carry a
    tolerance contract rather than a bitwise one.
    """

    name = "cholesky"
    bitwise = False
    rtol = 1e-9

    def _factorize(self, matrix: sparse.spmatrix) -> Factor:
        matrix = matrix.tocsc()
        _check_symmetric(matrix, self.name)
        lu = splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        if not np.all(lu.U.diagonal() > 0.0):
            raise SolverError(
                f"backend {self.name!r} requires a positive definite "
                "matrix; elimination produced a non-positive pivot"
            )
        return _BlockedSuperLUFactor(lu)


_REGISTRY: Dict[str, LinearBackend] = {}

#: Dynamic-scope override installed by :func:`backend_override`; a
#: ContextVar so concurrent campaign threads/tasks cannot observe each
#: other's selection.
_OVERRIDE: ContextVar[Optional[str]] = ContextVar(
    "repro_solver_backend_override", default=None
)


def register_backend(backend: LinearBackend) -> LinearBackend:
    """Add a backend instance to the registry (name must be unique)."""
    if not backend.name:
        raise SolverError("backend must declare a non-empty name")
    if backend.name in _REGISTRY:
        raise SolverError(
            f"backend {backend.name!r} is already registered"
        )
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: Optional[str] = None) -> LinearBackend:
    """Resolve a backend by the documented precedence.

    ``name=None`` consults the :func:`backend_override` context, then
    the ``REPRO_SOLVER_BACKEND`` environment variable, then the
    default.  Unknown names raise :class:`SolverError`.
    """
    if name is None:
        name = _OVERRIDE.get()
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is None:
        name = DEFAULT_BACKEND
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown solver backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


@contextlib.contextmanager
def backend_override(name: str) -> Iterator[LinearBackend]:
    """Scope a backend selection over a dynamic extent.

    Explicit ``backend=`` arguments still win inside the scope; the
    override only changes what ``backend=None`` resolves to.  Used by
    the campaign executor to apply ``CampaignSpec.backend`` around job
    execution without threading the name through every call.
    """
    backend = get_backend(name)  # validate eagerly, before any work runs
    token = _OVERRIDE.set(backend.name)
    try:
        yield backend
    finally:
        _OVERRIDE.reset(token)


register_backend(SuperLUSerialBackend())
register_backend(SparseCholeskyBackend())
