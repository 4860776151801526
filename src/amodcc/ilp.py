"""Integer linear programs: root LP on HiGHS, HiGHS MILP when it is fractional.

Problems are all-integer minimizations over bounded-below variables.  Every
solve starts with the LP relaxation on SciPy's HiGHS backend; when that
optimum is integral, which is the common case for the rebalancing programs,
its vertex is the plan.  Otherwise one ``scipy.optimize.milp`` call proves
the integer optimum with a zero relative gap.  The time limit is only a
safety stop: a MILP that reaches it raises :class:`SolverError` rather than
returning an incumbent, so no plan depends on the speed of the machine.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import InfeasibleError, InvalidInputError, NumericalError, SolverError

_INT_TOL = 1e-6      # an LP value this close to an integer counts as integral


class _RowSplit(NamedTuple):
    """The rows in the <=/= form HiGHS wants; >= rows are negated."""

    sense: np.ndarray            # the senses as an array
    ub_rows: np.ndarray          # rows of A_ub: the "L" rows, then the "G" rows
    ub_sign: np.ndarray          # +1 for an "L" row, -1 for a "G" row
    a_ub: sparse.csr_matrix | None
    eq_rows: np.ndarray
    a_eq: sparse.csr_matrix | None


def _split_rows(a: sparse.csr_matrix, senses: list[str]) -> _RowSplit:
    sense = np.asarray(senses)
    le, ge, eq = (np.flatnonzero(sense == s) for s in ("L", "G", "E"))
    a_ub = None
    if le.size or ge.size:
        a_ub = sparse.vstack([a[le], -a[ge]], format="csr") if ge.size else a[le]
    return _RowSplit(sense=sense, ub_rows=np.concatenate([le, ge]),
                     ub_sign=np.repeat([1.0, -1.0], [le.size, ge.size]), a_ub=a_ub,
                     eq_rows=eq, a_eq=a[eq] if eq.size else None)


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
        self.split = _split_rows(self.a, self.senses)

    def with_rhs(self, b: np.ndarray) -> "IlpProblem":
        """The same program with another right-hand side.

        Everything else, the row split included, is shared, not copied.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != self.b.shape:
            raise InvalidInputError(
                f"right-hand side is {b.shape}, expected {self.b.shape}")
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
    b_ub = prob.b[split.ub_rows] * split.ub_sign if split.a_ub is not None else None
    b_eq = prob.b[split.eq_rows] if split.a_eq is not None else None
    res = linprog(prob.c, A_ub=split.a_ub, b_ub=b_ub, A_eq=split.a_eq, b_eq=b_eq,
                  bounds=np.column_stack([prob.lb, prob.ub]), method="highs")
    if res.status == 2:
        raise InfeasibleError("no integer-feasible point")
    if res.status == 3:
        raise SolverError("LP relaxation is unbounded")
    if res.status != 0:
        raise NumericalError(f"LP backend failed: {res.message}")
    return np.asarray(res.x, dtype=float)


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
