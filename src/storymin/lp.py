"""LP relaxation backends: one warm-started HiGHS model, and a linprog fallback.

Both backends hold a problem of the form

    minimize c.x   subject to   A x <= b,   l <= x <= u

with incrementally added rows (cutting planes) and adjustable bounds
(branching).  Rows are only ever added, never removed: ``add_rows`` returns
the positions of the new rows, in the order they were added, and
``row_count`` the number held.  ``add_rows`` takes a :class:`RowBlock` (CSR
arrays, for many rows built in bulk) or any iterable of
``(coefficients dict, rhs)`` rows.  ``solve`` reports status, objective and
primal point.  A solve that reaches the deadline given to ``set_deadline``
stops and reports ``TIME_LIMIT``.

:class:`SimplexBackend` builds one HiGHS model (dual simplex, presolve off)
on ``load`` and sends it each change as it is made: ``set_bounds`` and
``add_rows`` update the model at once.  Every solve restarts from the
previous basis, so a round of cuts or a branching fix costs a few pivots
instead of a cold solve.  The rows live in the HiGHS model alone; the
backend keeps the costs and bounds it was given (``_BaseBackend``), for
``get_bounds``, and the number of rows, for ``row_count``.

The model comes from the HiGHS binding that SciPy ships as the private
extension ``scipy.optimize._highspy._core``.  Importing it the normal way
runs all of ``scipy.optimize`` (about 0.24 s and 15 MB that the package does
not otherwise need), so the extension alone is loaded from its file on the
first ``load`` and registered under its own name, where a later
``import scipy.optimize`` finds the same module.  Branch-and-cut creates no
backend for an instance whose start heuristic already meets the root
bound, so such instances never load it.  A SciPy without the extension
makes :func:`highs_available` false, and branch-and-cut then uses
:class:`ScipyBackend`, which keeps its rows as one ``RowBlock`` and calls
``scipy.optimize.linprog`` cold on them as a sparse matrix at every solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from ._lazy import np

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "NUMERICAL",
    "TIME_LIMIT",
    "LpResult",
    "RelaxationBackend",
    "RowBlock",
    "SimplexBackend",
    "ScipyBackend",
    "highs_available",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"
TIME_LIMIT = "time-limit"

_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_OPTIONS = {"solver": "simplex", "presolve": "off", "output_flag": False}

_core = None  # the loaded HiGHS extension; False once loading it failed

Row = tuple[dict[int, float], float]  # coefficients and right-hand side of one <= row


@dataclass
class LpResult:
    status: str
    objective: float = float("nan")
    x: np.ndarray | None = None


class RelaxationBackend(Protocol):
    """What the branch-and-cut loop needs from an LP solver."""

    def load(self, costs: np.ndarray | Sequence[float], lower: np.ndarray | Sequence[float],
             upper: np.ndarray | Sequence[float]) -> None: ...

    def set_deadline(self, deadline: float) -> None: ...

    def set_bounds(self, var: int, lo: float, hi: float) -> None: ...

    def add_rows(self, rows: RowBlock | Iterable[Row]) -> list[int]: ...

    def solve(self) -> LpResult: ...


def _load_highs_core():
    """The HiGHS extension module, loaded from its file without ``scipy.optimize``."""
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.exists(path):
            break
    else:
        raise ImportError(f"no HiGHS extension in {folder}")
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    if not hasattr(module, "_Highs"):
        raise ImportError(f"{_HIGHS_MODULE} has no _Highs class")
    return module


def highs_available() -> bool:
    """Load the HiGHS extension on first call; False if it cannot be loaded."""
    global _core
    if _core is None:
        try:
            _core = _load_highs_core()
        except (ImportError, OSError):
            _core = False
    return _core is not False


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows ``A x <= b`` in CSR form: row k's coefficients ``data`` on the
    variables ``indices``, both over ``indptr[k]:indptr[k + 1]``, and its
    right-hand side ``rhs[k]``."""

    indptr: np.ndarray  # int32, (k + 1,)
    indices: np.ndarray  # int32
    data: np.ndarray  # float
    rhs: np.ndarray  # float, (k,)

    def __len__(self) -> int:
        return len(self.rhs)

    @classmethod
    def of(cls, rows: Iterable[Row]) -> RowBlock:
        """The rows ``(coefficients dict, rhs)``, in order."""
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        rhs: list[float] = []
        for coefs, b in rows:
            indices.extend(coefs)
            data.extend(coefs.values())
            indptr.append(len(indices))
            rhs.append(b)
        return cls(np.asarray(indptr, dtype=np.int32), np.asarray(indices, dtype=np.int32),
                   np.asarray(data, dtype=float), np.asarray(rhs, dtype=float))

    def append(self, other: RowBlock) -> RowBlock:
        """These rows, then ``other``'s."""
        return RowBlock(np.concatenate((self.indptr, other.indptr[1:] + self.indptr[-1])),
                        np.concatenate((self.indices, other.indices)),
                        np.concatenate((self.data, other.data)),
                        np.concatenate((self.rhs, other.rhs)))


class _BaseBackend:
    def __init__(self) -> None:
        self.c = np.zeros(0)
        self.lo = np.zeros(0)
        self.hi = np.zeros(0)
        self.deadline = math.inf
        self._n_rows = 0

    def load(self, costs, lower, upper) -> None:
        # float copies: ``set_bounds`` writes ``lo`` and ``hi`` in place
        self.c = np.array(costs, dtype=float)
        self.lo = np.array(lower, dtype=float)
        self.hi = np.array(upper, dtype=float)
        if not (len(self.c) == len(self.lo) == len(self.hi)):
            raise ValueError("costs/lower/upper length mismatch")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")
        self._n_rows = 0

    def set_deadline(self, deadline: float) -> None:
        """``time.monotonic()`` value at which a solve stops with TIME_LIMIT."""
        self.deadline = deadline

    def set_bounds(self, var: int, lo: float, hi: float) -> None:
        if lo > hi:
            raise ValueError(f"bad bounds for var {var}: [{lo}, {hi}]")
        self.lo[var] = lo
        self.hi[var] = hi

    def get_bounds(self, var: int) -> tuple[float, float]:
        return float(self.lo[var]), float(self.hi[var])

    def add_rows(self, rows) -> list[int]:
        block = rows if isinstance(rows, RowBlock) else RowBlock.of(rows)
        bad = block.indices[(block.indices < 0) | (block.indices >= len(self.c))]
        if bad.size:
            raise ValueError(f"row references unknown variable {bad[0]}")
        start = self._n_rows
        if len(block):  # each subclass hands the rows to its solver
            self._add_block(block)
            self._n_rows += len(block)
        return list(range(start, self._n_rows))

    def row_count(self) -> int:
        return self._n_rows


class SimplexBackend(_BaseBackend):
    """One persistent HiGHS simplex model; see the module docstring."""

    def load(self, costs, lower, upper) -> None:
        super().load(costs, lower, upper)
        if not highs_available():
            raise ImportError(f"{_HIGHS_MODULE} cannot be loaded; use ScipyBackend")
        self._highs = highs = _core._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            highs.setOptionValue(name, value)
        n = len(self.c)
        highs.addCols(n, self.c, self.lo, self.hi, 0, np.zeros(n, dtype=np.int32),
                      np.zeros(0, dtype=np.int32), np.zeros(0))

    def set_bounds(self, var: int, lo: float, hi: float) -> None:
        super().set_bounds(var, lo, hi)
        self._highs.changeColBounds(var, lo, hi)

    def _add_block(self, block: RowBlock) -> None:
        self._highs.addRows(len(block), np.full(len(block), -np.inf), block.rhs,
                            len(block.indices), block.indptr[:-1], block.indices, block.data)

    def solve(self) -> LpResult:
        highs = self._highs
        left = self.deadline - time.monotonic()
        if left <= 0:
            return LpResult(TIME_LIMIT)
        # HiGHS compares time_limit with the model's run time summed over all runs
        highs.setOptionValue("time_limit", highs.getRunTime() + left)
        highs.run()
        model_status = _core.HighsModelStatus
        status = {
            model_status.kOptimal: OPTIMAL,
            model_status.kInfeasible: INFEASIBLE,
            model_status.kUnbounded: UNBOUNDED,
            model_status.kTimeLimit: TIME_LIMIT,
        }.get(highs.getModelStatus(), NUMERICAL)
        if status != OPTIMAL:
            return LpResult(status)
        return LpResult(OPTIMAL, float(highs.getObjectiveValue()),
                        np.asarray(highs.getSolution().col_value, dtype=float))


class ScipyBackend(_BaseBackend):
    """scipy.optimize.linprog (HiGHS), solved cold at every call."""

    def load(self, costs, lower, upper) -> None:
        super().load(costs, lower, upper)
        self._rows = RowBlock.of(())  # every row added since this load, passed to linprog

    def _add_block(self, block: RowBlock) -> None:
        self._rows = self._rows.append(block)

    def solve(self) -> LpResult:
        from scipy.optimize import linprog
        from scipy.sparse import csr_array

        left = self.deadline - time.monotonic()
        if left <= 0:
            return LpResult(TIME_LIMIT)
        kwargs = {}
        rows = self._rows
        if len(rows):
            kwargs = {"A_ub": csr_array((rows.data, rows.indices, rows.indptr),
                                        shape=(len(rows), len(self.c))),
                      "b_ub": rows.rhs}
        if math.isfinite(left):
            kwargs["options"] = {"time_limit": left}
        res = linprog(self.c, bounds=list(zip(self.lo, self.hi)), method="highs", **kwargs)
        if res.status == 1:
            return LpResult(TIME_LIMIT)
        if res.status == 2:
            return LpResult(INFEASIBLE)
        if res.status == 3:
            return LpResult(UNBOUNDED)
        if res.status != 0 or res.x is None:
            return LpResult(NUMERICAL)
        return LpResult(OPTIMAL, float(res.fun), np.asarray(res.x, dtype=float))
