"""Integer linear programs: canonical root LP on HiGHS, HiGHS MILP when it is fractional.

Problems are all-integer minimizations over bounded-below variables,
and every row is an equality.  A solve that the start basis below does
not certify goes to the LP relaxation: each :class:`IlpProblem` builds
one HiGHS model of its rows, costs and bounds through SciPy's HiGHS
bindings (``scipy.optimize._highspy``), shared by every right-hand side
of the same program.  The program keeps two HiGHS handles loaded with
that model for as long as it lives: a root handle with its costs and a
face handle with the tie cost below.  A solve changes on each handle
only the right-hand sides that differ from the ones it holds, each
loaded as both bounds of its row, and runs dual simplex on the root
handle from the basis, factor and edge weights the program's last
solved instant left there; the costs never change, so that basis stays
dual feasible.  The first solve of a
program, and any warm solve that ends anywhere but at an optimum, loads
fresh handles and runs cold without presolve, from the pivots' basis
below when the problem names one.

Warm and cold solves land on different optima when optima tie, so the
vertex is then made canonical.  The reduced costs of whatever optimum was
found describe the whole optimal face: a column with a nonzero reduced
cost sits at the same bound in every optimum.  The face handle pins
those, starts from the root handle's optimal basis and minimises a
fixed generic cost over what is left with primal simplex: i.i.d.
U(1, 2) draws from a fixed seed, one per column.  The minimiser is
unique, so the root vertex is a function of the instant alone, not of
the solver's path: a one-shot solve gets cold what a run gets warm.  A
reduced cost counts as nonzero above HiGHS's own dual feasibility
tolerance, taken relative to the largest cost.  HiGHS reports a zero
reduced cost for every basic column, and an optimum puts a column with
a positive reduced cost at its lower bound and one with a negative at
its upper, so the pins are read off the reduced costs alone.  Should
the second solve fail, both handles are dropped and the root LP is solved
again from scratch and, failing a second tie-break too, that cold vertex
is returned as it is.  Any error inside a solve drops both handles too,
so the next instant starts cold.

A problem may name two things about its columns, and they are separate.
Per row, a distinct pivot column: a cold solve starts from the basis
where each pivot is basic in its row.  The caller picks pivots that make
this basis dual feasible, so dual simplex starts there with only primal
infeasibilities to repair, instead of pivoting each of those columns in
from the all-slack basis.  And the dependent columns: ones the rows fix
once the other columns are set, as a stock is fixed by the flows
through its balance row.  A dependent column gets a zero tie cost, so
the face's minimiser in the other columns does not depend on it; every
other column, pivot or not, keeps its draw.

With pivots, their basis B is factored once per program and kept if it
is strictly optimal: the reduced cost d = c - Aᵀ B⁻ᵀ c_B of every column
off it that is not fixed exceeds the dual tolerance.  A solve first takes
that basis's solution for its right-hand side, with every other column at
its lower bound.  If it is integral and within the bounds, it is the LP's
one optimum (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, section 3.1) and so the plan, with no tie to break
and no HiGHS run.  Otherwise, when the root vertex is integral, which is
the common case for the rebalancing programs, it is the plan.  Otherwise
one ``scipy.optimize.milp`` call proves the integer optimum with a zero
relative gap.  That call starts from scratch every time, so it does not
depend on earlier instants either, but among tied integer optima it
returns the one its own search meets first.  The time limit is only a
safety stop: a MILP that reaches it raises :class:`SolverError` rather
than returning an incumbent, so no plan depends on the speed of the
machine.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.linalg import splu

from .errors import InfeasibleError, InvalidInputError, NumericalError, SolverError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # SciPy before 1.15 has no pybind11 HiGHS module
    raise ImportError(
        "amodcc needs scipy>=1.15: its root LP runs on "
        "scipy.optimize._highspy._core") from exc

_INT_TOL = 1e-6      # an LP value this close to an integer counts as integral
_DUAL_TOL = 1e-7     # a reduced cost this far from zero, relative to
                     # the largest cost, pins its bound (HiGHS's dual feasibility tolerance)
_TIE_SEED = 0        # seed of the generic cost that picks one vertex of a tied face


def _lp_options(strategy):
    """No presolve, the given simplex strategy, no output."""
    opts = _highs.HighsOptions()
    opts.presolve = "off"
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


class _Handle:
    """A HiGHS handle loaded with a program's model, and the right-hand
    side and column bounds it holds.

    They change only where they differ from the held ones, so the
    handle keeps its basis, factor and edge weights for its next run.
    """

    def __init__(self, root: _RootLp, options, b: np.ndarray, cost: np.ndarray | None = None):
        self.highs = _highs._Highs()
        self.highs.passOptions(options)
        # Loads run under the program's lock, so the shared model is free to carry their rows.
        root.model.row_lower_ = root.model.row_upper_ = b
        if self.highs.passModel(root.model) == _highs.HighsStatus.kError:
            raise NumericalError("LP backend rejected the model")
        if cost is not None:
            self.highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost)
        self.b = b.copy()
        self.cols = root.cols

    def set_rows(self, b: np.ndarray) -> None:
        changed = np.flatnonzero(b != self.b)
        for i, bi in zip(changed.tolist(), b[changed].tolist()):
            self.highs.changeRowBounds(i, bi, bi)
        self.b = b.copy()

    def set_cols(self, lower: np.ndarray, upper: np.ndarray) -> None:
        held_lower, held_upper = self.cols
        changed = np.flatnonzero((lower != held_lower) | (upper != held_upper)).astype(np.int32)
        if changed.size:
            self.highs.changeColsBounds(changed.size, changed, lower[changed], upper[changed])
        self.cols = lower, upper

    def run(self) -> tuple[_highs.HighsModelStatus, int]:
        """Run HiGHS; its model status and simplex iterations."""
        self.highs.run()
        return self.highs.getModelStatus(), self.highs.getInfo().simplex_iteration_count


@dataclass(eq=False)
class _RootLp:
    """One program's LP relaxation in HiGHS, shared by all its instants.

    ``model`` holds the rows in their own order, the costs and the column
    bounds ``cols``.  Two handles keep it loaded from one instant to the
    next: the root handle ``lp`` with the program's costs and ``face``
    with ``tie_cost``, the fixed generic cost that picks one vertex of a
    tied optimal face.  Both are None until a solve loads them, and a
    failed solve drops both.  A solve holds ``lock`` from its first bound change to its last
    read and while it uses ``basis``, so one program's solves run one at a time.
    ``dual_tol`` is the size above which a reduced cost is taken as nonzero.
    """

    model: _highs.HighsLp
    cols: tuple[np.ndarray, np.ndarray]
    tie_cost: np.ndarray
    dual_tol: float
    start: _highs.HighsBasis | None   # the cold solve's first basis, None for HiGHS's own
    basis: tuple | None          # the pivots' factor and A_N lb_N, when strictly optimal
    lock: threading.Lock = field(default_factory=threading.Lock)
    lp: _Handle | None = None
    face: _Handle | None = None

    def drop(self) -> None:
        """Forget both handles, so that the next solve starts cold."""
        self.lp = self.face = None


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
    cols = _finite(prob.lb), _finite(prob.ub)
    lp.col_lower_, lp.col_upper_ = cols
    tie_cost = np.random.default_rng(_TIE_SEED).uniform(1.0, 2.0, n_cols)
    if prob.dependent is not None:
        # A dependent column is fixed by the other columns, so it adds nothing
        # to the tie cost and the face's minimiser in the others stays put.
        tie_cost[prob.dependent] = 0.0
    start = None
    if prob.pivots is not None:
        lower = _highs.HighsBasisStatus.kLower
        col_status = [lower] * n_cols
        for j in prob.pivots.tolist():
            col_status[j] = _highs.HighsBasisStatus.kBasic
        start = _highs.HighsBasis()
        start.col_status = col_status
        start.row_status = [lower] * n_rows
        start.valid = True
        start.alien = False
    dual_tol = _DUAL_TOL * (float(np.abs(prob.c).max(initial=0.0)) or 1.0)
    return _RootLp(model=lp, cols=cols, tie_cost=tie_cost, dual_tol=dual_tol, start=start,
                   basis=_strict_basis(prob, a, dual_tol))


def _strict_basis(prob: IlpProblem, a: sparse.csc_matrix, dual_tol: float) -> tuple | None:
    """The factor of B = ``a[:, pivots]`` and the rows' activity A_N lb_N
    of the other columns, if the problem names pivots and their basis is
    strictly optimal at ``dual_tol``; else None."""
    if prob.pivots is None:
        return None
    try:
        factor = splu(a[:, prob.pivots], permc_spec="NATURAL")
    except RuntimeError:     # B is singular
        return None
    y = factor.solve(prob.c[prob.pivots], trans="T")
    nonbasic = ~np.isin(np.arange(prob.n_vars), prob.pivots)
    if np.any((prob.c - a.T @ y)[nonbasic & (prob.lb != prob.ub)] <= dual_tol):
        return None
    return factor, a @ np.where(nonbasic, prob.lb, 0.0)


def _check_rhs(b: np.ndarray) -> None:
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("right-hand side must be finite")


@dataclass
class IlpProblem:
    """min c.x  s.t.  A x = b,  lb <= x <= ub,  x integer."""

    c: np.ndarray
    a: sparse.csr_matrix
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    pivots: np.ndarray | None = None   # per row, a distinct column basic in the cold
                                       # solve's and the certificate's basis
    dependent: np.ndarray | None = None   # columns the rows fix once the others are
                                          # set: they carry no tie cost (see _root_lp)
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
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise InvalidInputError("bound vectors must match the variable count")
        if not np.all(np.isfinite(self.lb)):
            raise InvalidInputError("lower bounds must be finite")
        if np.any(np.isnan(self.ub)):
            raise InvalidInputError("upper bounds must not be NaN")
        if self.pivots is not None:
            self.pivots = np.asarray(self.pivots, dtype=np.int64)
            if (self.pivots.shape != (m,) or np.any(self.pivots < 0) or np.any(self.pivots >= n)
                    or np.unique(self.pivots).size != m):
                raise InvalidInputError("pivots must name a distinct column per row")
        if self.dependent is not None:
            self.dependent = np.asarray(self.dependent, dtype=np.int64)
            if np.any(self.dependent < 0) or np.any(self.dependent >= n):
                raise InvalidInputError("dependent columns must be column ids")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.a.data))):
            raise InvalidInputError("costs and row coefficients must be finite")
        _check_rhs(self.b)
        self.root = _root_lp(self)

    def with_rhs(self, b: np.ndarray) -> "IlpProblem":
        """The same program with another right-hand side.

        Everything else, the HiGHS model and the handles that keep it
        loaded included, is shared, not copied.
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

    @property
    def senses(self) -> list[str]:
        """``"E"`` for every row: ``perfbench/tracing.py`` passes a sense per row to its checks."""
        return ["E"] * self.b.shape[0]


@dataclass
class SolverConfig:
    time_limit_s: float = 10.0   # safety stop per MILP solve; reaching it raises

    def __post_init__(self):
        if not (np.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise InvalidInputError(
                f"time_limit_s must be finite and positive, got {self.time_limit_s}")


@dataclass
class IlpSolution:
    x: np.ndarray
    objective: float
    status: str                  # always "optimal": anything else raises
    nodes: int                   # 0 when the start basis certifies, else 1 + MILP nodes
    wall_seconds: float
    iterations: int              # simplex iterations of the root LP and its tie-break


def _check_rows(prob: IlpProblem, x: np.ndarray, tol: float = 1e-6) -> bool:
    return bool(np.all(np.abs(prob.a @ x - prob.b) <= tol) and np.all(x >= prob.lb - tol)
                and np.all(x <= prob.ub + tol))


def _optimum(root: _RootLp, b: np.ndarray) -> int:
    """Bring ``root.lp`` to an optimum of the root LP; its simplex iterations.

    A loaded handle changes the right-hand sides that differ and runs dual
    simplex from the basis, factor and edge weights of the last instant
    it solved: the costs never change, so that basis stays dual feasible
    and only the new right-hand side has to be repaired.  Without one, or
    when the warm solve ends anywhere but at an optimum, both handles are
    dropped and the LP is solved from scratch on a fresh handle, from
    ``root.start`` if the problem names pivots, and its status decides
    the error.
    """
    if root.lp is not None:
        root.lp.set_rows(b)
        status, iterations = root.lp.run()
        if status == _OPTIMAL:
            return iterations
        root.drop()
    root.lp = _Handle(root, _LP_OPTIONS, b)
    if root.start is not None:
        root.lp.highs.setBasis(root.start)
    status, iterations = root.lp.run()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError("no integer-feasible point")
    if status == _highs.HighsModelStatus.kUnbounded:
        raise SolverError("LP relaxation is unbounded")
    if status != _OPTIMAL:
        raise NumericalError(f"LP backend failed: {root.lp.highs.modelStatusToString(status)}")
    return iterations


def _canonical(root: _RootLp, b: np.ndarray) -> tuple[np.ndarray | None, int]:
    """The tie cost's minimiser over the optimal face ``root.lp`` sits on,
    and the simplex iterations it took.

    Whatever optimum ``root.lp`` holds, its reduced costs describe the
    whole optimal face: a column with a nonzero reduced cost stays at the
    bound where it sits in every optimum.  The reduced costs alone say
    which those are and where they sit.  The face handle pins those,
    releases what the last instant pinned and nothing pins now,
    and minimises the generic ``tie_cost`` over what is left with primal
    simplex, from the optimal basis of ``root.lp``.  That gives the face's
    one minimiser; None if the solve does not reach an optimum.
    """
    lp = root.lp.highs
    lb, ub = root.cols
    # The bindings hand each vector over as a list; fromiter reads it
    # without the dtype discovery of np.asarray.
    d = np.fromiter(lp.getSolution().col_dual, float, lb.size)
    # HiGHS reports a zero dual for every basic column, so a nonzero
    # one is nonbasic, and by dual feasibility a column with a positive
    # reduced cost sits at its lower bound and one with a negative at its upper.
    pin = np.abs(d) > root.dual_tol
    at = np.where(d > 0, lb, ub)
    col_lower, col_upper = np.where(pin, at, lb), np.where(pin, at, ub)
    if root.face is None:
        root.face = _Handle(root, _FACE_OPTIONS, b, root.tie_cost)
    face = root.face
    face.set_rows(b)
    face.set_cols(col_lower, col_upper)
    face.highs.setBasis(lp.getBasis())
    status, iterations = face.run()
    if status != _OPTIMAL:
        return None, iterations
    return np.fromiter(face.highs.getSolution().col_value, float, lb.size), iterations


def _solve_root(prob: IlpProblem) -> tuple[np.ndarray, int]:
    """The canonical root vertex and the simplex iterations it took.

    The first solve (:func:`_optimum`) warm-starts on the program's root
    handle and leaves it at its own optimum for the next instant; the
    second (:func:`_canonical`) picks, on the face handle, the vertex that
    depends on the instant alone.  If that pick fails, both handles are
    dropped, the LP is solved again from scratch and picked again, and
    failing that the cold vertex is returned as it is: still the same for
    every path to this instant, though not the face's tie-cost minimiser.
    Any error drops both handles, so the next instant starts cold.
    """
    root, b = prob.root, prob.b
    with root.lock:
        try:
            iterations = _optimum(root, b)
            x, more = _canonical(root, b)
            iterations += more
            if x is None:
                root.drop()
                iterations += _optimum(root, b)
                x_cold = np.fromiter(root.lp.highs.getSolution().col_value, float,
                                     prob.c.size)
                x, more = _canonical(root, b)
                iterations += more
                if x is None:
                    root.drop()
                    x = x_cold
        except BaseException:
            root.drop()
            raise
    return x, iterations


def _solve_milp(prob: IlpProblem, time_limit_s: float) -> tuple[np.ndarray, int]:
    res = milp(c=prob.c, constraints=LinearConstraint(prob.a, prob.b, prob.b),
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


def _certified(prob: IlpProblem) -> np.ndarray | None:
    """The strictly optimal basis's solution B⁻¹(b - A_N lb_N), rounded,
    if it is integral and satisfies the rows and bounds; else None."""
    root = prob.root
    if root.basis is None:
        return None
    factor, nonbasic = root.basis
    x = prob.lb.copy()
    with root.lock:
        x[prob.pivots] = factor.solve(prob.b - nonbasic)
    xr = np.round(x)
    # A negative basic value, the common miss, is caught before the rows are multiplied out.
    if np.any(np.abs(x - xr) > _INT_TOL) or np.any(xr < prob.lb) or not _check_rows(prob, xr):
        return None
    return xr


def solve_ilp(prob: IlpProblem, cfg: SolverConfig | None = None) -> IlpSolution:
    """Integer optimum: the start basis's solution if it certifies, else
    the root LP vertex if integral, else HiGHS MILP.

    Raises :class:`InfeasibleError` when no integer point exists and
    :class:`SolverError` when the MILP reaches the time limit.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    x, nodes, iterations = _certified(prob), 0, 0
    if x is None:
        x, iterations = _solve_root(prob)
        nodes = 1
        if np.any(np.abs(x - np.round(x)) > _INT_TOL):
            x, milp_nodes = _solve_milp(prob, cfg.time_limit_s)
            nodes += milp_nodes
        x = np.round(x)
        if not _check_rows(prob, x):
            raise NumericalError("rounded optimum violates the rows")
    return IlpSolution(x=x, objective=float(prob.c @ x), status="optimal",
                       nodes=nodes, wall_seconds=time.perf_counter() - t0,
                       iterations=iterations)
