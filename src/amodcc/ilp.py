"""Integer linear programs: root LP on HiGHS, HiGHS MILP when it is fractional.

Problems are all-integer minimizations over bounded-below variables.  Every
solve starts with the LP relaxation: each :class:`IlpProblem` builds one
HiGHS model of its rows, costs and bounds through SciPy's HiGHS bindings
(``scipy.optimize._highspy``), and a solve writes only its right-hand side
into that model and runs HiGHS dual simplex after presolve.  Row order and
options are those of SciPy's ``method="highs"`` LP front end, so among tied
optima the root vertex is the one that front end returns.  When that optimum
is integral, which is the common case for the rebalancing programs, its
vertex is the plan.  Otherwise one ``scipy.optimize.milp`` call proves the
integer optimum with a zero relative gap.  The time limit is only a safety
stop: a MILP that reaches it raises :class:`SolverError` rather than
returning an incumbent, so no plan depends on the speed of the machine.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import InfeasibleError, InvalidInputError, NumericalError, SolverError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # SciPy before 1.15 has no pybind11 HiGHS module
    raise ImportError(
        "amodcc needs scipy>=1.15: its root LP runs on "
        "scipy.optimize._highspy._core") from exc

_INT_TOL = 1e-6      # an LP value this close to an integer counts as integral


def _lp_options():
    """SciPy's ``method="highs"`` LP options: presolve, dual simplex, no output."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    return opts


_LP_OPTIONS = _lp_options()


def _finite(v: np.ndarray) -> np.ndarray:
    """``v`` with infinite entries replaced by HiGHS's own infinity."""
    return np.where(np.isinf(v), np.copysign(_highs.kHighsInf, v), v)


class _RowSplit(NamedTuple):
    """The rows in SciPy's LP order: "L" rows, negated "G" rows, "E" rows.

    ``model`` is the LP relaxation in that order; only its row bounds
    change between solves, written under ``lock``.
    """

    sense: np.ndarray            # the senses as an array
    order: np.ndarray            # row ids in the model's row order
    sign: np.ndarray             # -1 for a "G" row, +1 otherwise
    n_ub: int                    # the first n_ub model rows have no lower bound
    model: _highs.HighsLp
    lock: threading.Lock


def _split_rows(prob: IlpProblem) -> _RowSplit:
    sense = np.asarray(prob.senses)
    le, ge, eq = (np.flatnonzero(sense == s) for s in ("L", "G", "E"))
    a = sparse.csc_array(sparse.vstack([prob.a[le], -prob.a[ge], prob.a[eq]], format="coo"))
    n_rows, n_cols = a.shape
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    # Lists, not arrays: the bindings copy a list faster than they walk an array.
    lp.a_matrix_.start_ = a.indptr.tolist()
    lp.a_matrix_.index_ = a.indices.tolist()
    lp.a_matrix_.value_ = a.data.tolist()
    lp.col_cost_ = prob.c
    lp.col_lower_ = _finite(prob.lb)
    lp.col_upper_ = _finite(prob.ub)
    return _RowSplit(sense=sense, order=np.concatenate([le, ge, eq]),
                     sign=np.repeat([1.0, -1.0, 1.0], [le.size, ge.size, eq.size]),
                     n_ub=le.size + ge.size, model=lp, lock=threading.Lock())


def _check_rhs(b: np.ndarray) -> None:
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("right-hand side must be finite")


@dataclass
class IlpProblem:
    """min c.x  s.t.  A x {<=,=,>=} b,  lb <= x <= ub,  x integer."""

    c: np.ndarray
    a: sparse.csr_matrix
    senses: list[str]            # one of "L", "E", "G" per row
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    split: _RowSplit = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        self.a = sparse.csr_matrix(self.a)
        n = self.c.shape[0]
        m = self.b.shape[0]
        if self.a.shape != (m, n):
            raise InvalidInputError(
                f"row matrix is {self.a.shape}, expected {(m, n)}")
        if len(self.senses) != m or not np.isin(self.senses, ("L", "E", "G")).all():
            raise InvalidInputError("senses must be 'L', 'E' or 'G', one per row")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise InvalidInputError("bound vectors must match the variable count")
        if not np.all(np.isfinite(self.lb)):
            raise InvalidInputError("lower bounds must be finite")
        if np.any(np.isnan(self.ub)):
            raise InvalidInputError("upper bounds must not be NaN")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.a.data))):
            raise InvalidInputError("costs and row coefficients must be finite")
        _check_rhs(self.b)
        self.split = _split_rows(self)

    def with_rhs(self, b: np.ndarray) -> "IlpProblem":
        """The same program with another right-hand side.

        Everything else, the row split and its HiGHS model included, is
        shared, not copied.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != self.b.shape:
            raise InvalidInputError(
                f"right-hand side is {b.shape}, expected {self.b.shape}")
        _check_rhs(b)
        out = copy.copy(self)
        out.b = b
        return out

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class SolverConfig:
    time_limit_s: float = 10.0   # safety stop per MILP solve; reaching it raises


@dataclass
class IlpSolution:
    x: np.ndarray
    objective: float
    status: str                  # always "optimal": anything else raises
    nodes: int                   # 1 for the root LP, plus the MILP's nodes
    wall_seconds: float


def _check_rows(prob: IlpProblem, x: np.ndarray, tol: float = 1e-6) -> bool:
    r = prob.a @ x - prob.b
    senses = prob.split.sense
    violated = (((senses == "E") & (np.abs(r) > tol)) | ((senses == "L") & (r > tol))
                | ((senses == "G") & (r < -tol)))
    return bool(not violated.any() and np.all(x >= prob.lb - tol)
                and np.all(x <= prob.ub + tol))


def _solve_root(prob: IlpProblem) -> np.ndarray:
    split = prob.split
    upper = prob.b[split.order] * split.sign
    lower = upper.copy()
    lower[:split.n_ub] = -_highs.kHighsInf
    highs = _highs._Highs()
    highs.passOptions(_LP_OPTIONS)
    with split.lock:
        split.model.row_lower_ = lower
        split.model.row_upper_ = upper
        loaded = highs.passModel(split.model)
    if loaded == _highs.HighsStatus.kError:
        raise NumericalError("LP backend rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError("no integer-feasible point")
    if status == _highs.HighsModelStatus.kUnbounded:
        raise SolverError("LP relaxation is unbounded")
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalError(f"LP backend failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value)


def _solve_milp(prob: IlpProblem, time_limit_s: float) -> tuple[np.ndarray, int]:
    senses = prob.split.sense
    lo = np.where(senses == "L", -np.inf, prob.b)
    hi = np.where(senses == "G", np.inf, prob.b)
    res = milp(c=prob.c, constraints=LinearConstraint(prob.a, lo, hi),
               integrality=np.ones(prob.n_vars), bounds=Bounds(prob.lb, prob.ub),
               options={"time_limit": time_limit_s, "mip_rel_gap": 0.0})
    if res.status == 2:
        raise InfeasibleError("no integer-feasible point")
    if res.status == 1:
        raise SolverError(
            f"MILP not proven optimal within the {time_limit_s} s time limit")
    if res.status != 0:
        raise SolverError(f"MILP backend failed: {res.message}")
    return np.asarray(res.x, dtype=float), int(res.mip_node_count)


def solve_ilp(prob: IlpProblem, cfg: SolverConfig | None = None) -> IlpSolution:
    """Integer optimum: the root LP vertex if integral, else HiGHS MILP.

    Raises :class:`InfeasibleError` when no integer point exists and
    :class:`SolverError` when the MILP reaches the time limit.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    x = _solve_root(prob)
    nodes = 1
    if np.any(np.abs(x - np.round(x)) > _INT_TOL):
        x, milp_nodes = _solve_milp(prob, cfg.time_limit_s)
        nodes += milp_nodes
    xr = np.round(x)
    if not _check_rows(prob, xr):
        raise NumericalError("rounded optimum violates the rows")
    return IlpSolution(x=xr, objective=float(prob.c @ xr), status="optimal",
                       nodes=nodes, wall_seconds=time.perf_counter() - t0)
