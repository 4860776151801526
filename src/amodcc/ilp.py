"""Integer linear programs: canonical root LP on HiGHS, HiGHS MILP when it is fractional.

Problems are all-integer minimizations over bounded-below variables.  Every
solve starts with the LP relaxation: each :class:`IlpProblem` builds one
HiGHS model of its rows, costs and bounds through SciPy's HiGHS bindings
(``scipy.optimize._highspy``), shared by every right-hand side of the same
program.  A solve writes only its right-hand side into that model and runs
HiGHS dual simplex from the last optimal basis any instant of the program
reached; the costs never change, so that basis stays dual feasible.  The
first solve, and any warm solve that ends anywhere but at an optimum, runs
from scratch after presolve instead.

Warm and cold solves land on different optima when optima tie, so the
vertex is then made canonical.  The reduced costs and row duals of
whatever optimum was found describe the whole optimal face: a column with
a nonzero reduced cost sits at the same bound in every optimum, and an
inequality row with a nonzero dual at the same activity.  A second solve
fixes those and minimises a fixed generic cost over what is left: i.i.d.
U(1, 2) draws from a fixed seed, one per column.  The minimiser is
unique, so the root vertex is a function of the instant alone, not of
the solver's path: a one-shot solve gets cold what a run gets warm.  A
reduced cost or dual counts as nonzero above HiGHS's own dual
feasibility tolerance, taken relative to the largest cost.  Should the
second solve fail, the root LP is solved again from scratch and, failing
a second tie-break too, that cold vertex is returned as it is.

When that vertex is integral, which is the common case for the rebalancing
programs, it is the plan.  Otherwise one ``scipy.optimize.milp`` call
proves the integer optimum with a zero relative gap.  That call starts
from scratch every time, so it does not depend on earlier instants either,
but among tied integer optima it returns the one its own search meets
first.  The time limit is only a safety stop: a MILP that reaches it
raises :class:`SolverError` rather than returning an incumbent, so no plan
depends on the speed of the machine.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field

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
_DUAL_TOL = 1e-7     # a reduced cost or row dual this far from zero, relative to
                     # the largest cost, pins its bound (HiGHS's dual feasibility tolerance)
_TIE_SEED = 0        # seed of the generic cost that picks one vertex of a tied face


def _lp_options(strategy):
    """Presolve, the given simplex strategy, no output."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = strategy
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    return opts


_STRATEGY = _highs.simplex_constants.SimplexStrategy
_LP_OPTIONS = _lp_options(_STRATEGY.kSimplexStrategyDual)
# The tie-break starts at a primal feasible basis, where primal simplex is at home.
_FACE_OPTIONS = _lp_options(_STRATEGY.kSimplexStrategyPrimal)
_OPTIMAL = _highs.HighsModelStatus.kOptimal


def _finite(v: np.ndarray) -> np.ndarray:
    """``v`` with infinite entries replaced by HiGHS's own infinity."""
    return np.where(np.isinf(v), np.copysign(_highs.kHighsInf, v), v)


@dataclass(eq=False)
class _RootLp:
    """One program's LP relaxation in HiGHS, shared by all its instants.

    ``model`` holds the rows in their own order; only its row bounds
    change between solves.  ``basis`` is the last optimal basis any
    instant reached, the warm start of the next.  Both are written under
    ``lock``.  ``tie_cost`` is the fixed generic cost that picks one
    vertex of a tied optimal face, and ``dual_tol`` the size above which
    a reduced cost or dual is taken as nonzero.
    """

    sense: np.ndarray            # the senses as an array
    model: _highs.HighsLp
    tie_cost: np.ndarray
    dual_tol: float
    lock: threading.Lock = field(default_factory=threading.Lock)
    basis: _highs.HighsBasis | None = None

    def row_bounds(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's lower and upper bound for the right-hand side ``b``."""
        inf = _highs.kHighsInf
        return (np.where(self.sense == "L", -inf, b), np.where(self.sense == "G", inf, b))


def _root_lp(prob: IlpProblem) -> _RootLp:
    a = prob.a.tocsc()
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
    tie_cost = np.random.default_rng(_TIE_SEED).uniform(1.0, 2.0, n_cols)
    scale = float(np.abs(prob.c).max(initial=0.0)) or 1.0
    return _RootLp(sense=np.asarray(prob.senses), model=lp, tie_cost=tie_cost,
                   dual_tol=_DUAL_TOL * scale)


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
    root: _RootLp = field(init=False, repr=False, compare=False)

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
        self.root = _root_lp(self)

    def with_rhs(self, b: np.ndarray) -> "IlpProblem":
        """The same program with another right-hand side.

        Everything else, the HiGHS model and its warm-start basis
        included, is shared, not copied.
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
    iterations: int              # simplex iterations of the root LP and its tie-break


def _check_rows(prob: IlpProblem, x: np.ndarray, tol: float = 1e-6) -> bool:
    r = prob.a @ x - prob.b
    senses = prob.root.sense
    violated = (((senses == "E") & (np.abs(r) > tol)) | ((senses == "L") & (r > tol))
                | ((senses == "G") & (r < -tol)))
    return bool(not violated.any() and np.all(x >= prob.lb - tol)
                and np.all(x <= prob.ub + tol))


def _load(root: _RootLp, lower: np.ndarray, upper: np.ndarray, options) -> _highs._Highs:
    highs = _highs._Highs()
    highs.passOptions(options)
    with root.lock:
        root.model.row_lower_ = lower
        root.model.row_upper_ = upper
        loaded = highs.passModel(root.model)
    if loaded == _highs.HighsStatus.kError:
        raise NumericalError("LP backend rejected the model")
    return highs


def _optimum(root: _RootLp, lower: np.ndarray, upper: np.ndarray,
             basis: _highs.HighsBasis | None) -> _highs._Highs:
    """A HiGHS handle at an optimum of the root LP.

    Dual simplex starts from ``basis``, an optimal basis of another
    instant: the costs never change, so it stays dual feasible and only
    the new right-hand side has to be repaired.  Without a basis, or when
    the warm solve ends anywhere but at an optimum, the LP is solved
    again from scratch after presolve, and its status decides the error.
    """
    if basis is not None:
        highs = _load(root, lower, upper, _LP_OPTIONS)
        highs.setBasis(basis)
        highs.run()
        if highs.getModelStatus() == _OPTIMAL:
            return highs
    highs = _load(root, lower, upper, _LP_OPTIONS)
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError("no integer-feasible point")
    if status == _highs.HighsModelStatus.kUnbounded:
        raise SolverError("LP relaxation is unbounded")
    if status != _OPTIMAL:
        raise NumericalError(f"LP backend failed: {highs.modelStatusToString(status)}")
    return highs


def _canonical(prob: IlpProblem, highs: _highs._Highs, lower: np.ndarray,
               upper: np.ndarray) -> np.ndarray | None:
    """The tie cost's minimiser over the optimal face ``highs`` sits on.

    Whatever optimum ``highs`` holds, its reduced costs and row duals
    describe the whole optimal face: a column with a nonzero reduced cost
    stays at the bound where it sits, and an inequality row with a
    nonzero dual at its activity, in every optimum.  Fixing those and
    minimising the generic ``tie_cost`` over what is left gives the
    face's one minimiser.  The solve starts where the first one ended and
    changes the handle for good.  None if it does not reach an optimum.
    """
    root, n = prob.root, prob.n_vars
    sol = highs.getSolution()
    x, d = np.asarray(sol.col_value), np.asarray(sol.col_dual)
    activity, y = np.asarray(sol.row_value), np.asarray(sol.row_dual)
    nonbasic = np.ones(n + lower.size, dtype=bool)
    basic = highs.getBasicVariables()[1]            # column j, or row i as -1 - i
    nonbasic[np.where(basic >= 0, basic, n - 1 - basic)] = False
    cols = np.flatnonzero(nonbasic[:n] & (np.abs(d) > root.dual_tol)).astype(np.int32)
    lb, ub = prob.lb[cols], prob.ub[cols]
    at = np.where(np.abs(x[cols] - lb) <= np.abs(x[cols] - ub), lb, ub)
    highs.changeColsBounds(cols.size, cols, at, at)
    for i in np.flatnonzero(nonbasic[n:] & (np.abs(y) > root.dual_tol) & (lower != upper)):
        at = lower[i] if abs(activity[i] - lower[i]) <= abs(activity[i] - upper[i]) else upper[i]
        highs.changeRowBounds(int(i), at, at)
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), root.tie_cost)
    highs.passOptions(_FACE_OPTIONS)
    highs.run()
    if highs.getModelStatus() != _OPTIMAL:
        return None
    return np.array(highs.getSolution().col_value)


def _solve_root(prob: IlpProblem) -> tuple[np.ndarray, int]:
    """The canonical root vertex and the simplex iterations it took.

    The first solve warm-starts from the program's last optimal basis and
    leaves its own optimal basis there for the next instant; the second
    (:func:`_canonical`) picks the vertex that depends on the instant
    alone.  If that pick fails, the LP is solved again from scratch and
    picked again, and failing that the cold vertex is returned as it is:
    still the same for every path to this instant, though not the face's
    tie-cost minimiser.
    """
    root = prob.root
    lower, upper = root.row_bounds(prob.b)
    highs = _optimum(root, lower, upper, root.basis)
    iterations = highs.getInfo().simplex_iteration_count
    with root.lock:
        root.basis = highs.getBasis()
    x = _canonical(prob, highs, lower, upper)
    iterations += highs.getInfo().simplex_iteration_count
    if x is None:
        highs = _optimum(root, lower, upper, None)
        iterations += highs.getInfo().simplex_iteration_count
        x_cold = np.array(highs.getSolution().col_value)
        x = _canonical(prob, highs, lower, upper)
        iterations += highs.getInfo().simplex_iteration_count
        if x is None:
            x = x_cold
    return x, iterations


def _solve_milp(prob: IlpProblem, time_limit_s: float) -> tuple[np.ndarray, int]:
    lo, hi = prob.root.row_bounds(prob.b)
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
    x, iterations = _solve_root(prob)
    nodes = 1
    if np.any(np.abs(x - np.round(x)) > _INT_TOL):
        x, milp_nodes = _solve_milp(prob, cfg.time_limit_s)
        nodes += milp_nodes
    xr = np.round(x)
    if not _check_rows(prob, xr):
        raise NumericalError("rounded optimum violates the rows")
    return IlpSolution(x=xr, objective=float(prob.c @ xr), status="optimal",
                       nodes=nodes, wall_seconds=time.perf_counter() - t0,
                       iterations=iterations)
