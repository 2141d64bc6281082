"""Flow matrix, symmetrization, eigenanalysis, and convergence classification.

The linear Forman flow d omega/dt = F omega is analyzed through the
symmetrized matrix Ftilde = M F M^-1 with M = diag(sqrt(m2)).  Ftilde is
irreducible with nonnegative off-diagonal, so its top eigenvalue is simple
with a positive eigenvector; that Perron pair determines the long-time
behavior of the flow and the limiting normalized metric.  Per-edge inputs
and outputs (omega, target curvatures, the limit) are arrays in edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, MetricAssignment, edge_key, is_tree

VANISHING = "vanishing"
CONSTANT_METRIC = "constant_metric"
DIVERGENT = "divergent"

PATH_CASE = "path_case"
K13_CASE = "k13_case"
BIG_DEGREE_CASE = "big_degree_case"

JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
EIGEN_GAP_TOL = 1e-10
DEFAULT_TOL_ZERO = 1e-9


class ConvergenceFailure(RuntimeError):
    """No finite spectral answer: the flow matrix overflowed, or Jacobi sweeps
    did not drive the off-diagonal norm below tolerance."""


class EigenvalueGapTooSmall(RuntimeError):
    """Top eigenvalue not numerically simple; signals corrupted input."""


class NotATree(ValueError):
    pass


class NotUniformMeasure(ValueError):
    pass


@dataclass(frozen=True)
class FlowMatrix:
    """Generator F of the linear Forman flow plus its symmetrization."""

    F: np.ndarray
    sqrt_m2: np.ndarray  # sqrt(m2(e_i)), the diagonal of M
    Ftilde: np.ndarray

    def bounds(self):
        """Gerschgorin bracket (lower, upper) for the limiting curvature -lambda_max."""
        diag = -np.diag(self.Ftilde)  # m2/m1(u) + m2/m1(v) per edge
        offsum = np.sum(np.abs(self.Ftilde), axis=1) + np.diag(self.Ftilde)
        return float(np.min(diag - offsum)), float(np.min(diag))


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenpairs of Ftilde; columns of ``eigenvectors`` are orthonormal."""

    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])

    @property
    def perron_vector(self):
        return self.eigenvectors[:, -1]


@dataclass(frozen=True)
class ConvergenceReport:
    """Long-time behavior of the Forman flow on a measured graph."""

    classification: str
    lambda_max: float
    limiting_curvature: float
    limiting_normalized_metric: np.ndarray  # positive, in edge order, sums to 1
    bounds: tuple  # (lower, upper) with lower <= -lambda_max <= upper


def build_flow_matrix(g):
    """Assemble F, sqrt(m2) and the averaged-symmetric Ftilde for g.

    F[i, j] = m2(e_j) / m1(x) for edges e_i != e_j meeting at x, and
    F[i, i] = -(m2/m1(u) + m2/m1(v)) for e_i = (u, v).  ConvergenceFailure
    if an entry of F or Ftilde overflows, so no command reads an inf.
    """
    n = g.n_edges
    m1 = np.array([g.m1[x] for x in g.vertices])
    m2 = np.array([g.m2[edge_key(u, v)] for u, v in g.edges])
    inc = g.incidence
    # m1 of the vertex e_i and e_j share; a simple graph's edges share at most one
    shared = inc.T @ (inc * m1[:, None])
    np.fill_diagonal(shared, 0.0)
    with np.errstate(over="ignore"):  # an overflow is raised just below
        f = np.divide(m2[None, :], shared, out=np.zeros((n, n)), where=shared > 0.0)
        u, v = g.ends.T
        f[np.diag_indices(n)] = -(m2 / m1[u] + m2 / m1[v])
        sqrt_m2 = np.sqrt(m2)
        ftilde = sqrt_m2[:, None] * f * (1.0 / sqrt_m2)[None, :]
        ftilde = 0.5 * (ftilde + ftilde.T)  # kill rounding asymmetry
    if not (np.isfinite(f).all() and np.isfinite(ftilde).all()):
        raise ConvergenceFailure("flow matrix overflows: an m2/m1 ratio is too large")
    return FlowMatrix(F=f, sqrt_m2=sqrt_m2, Ftilde=ftilde)


def _jacobi_sweeps(a, v, tol, max_sweeps):
    """Cyclic Jacobi rotations in place; returns sweeps used or -1."""
    n = a.shape[0]
    skip_tol = tol / (n * n)
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        if math.sqrt(off) < tol:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip_tol:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i in range(n):
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = c * aip - s * aiq
                    a[i, q] = s * aip + c * aiq
                for i in range(n):
                    api = a[p, i]
                    aqi = a[q, i]
                    a[p, i] = c * api - s * aqi
                    a[q, i] = s * api + c * aqi
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = c * vip - s * viq
                    v[i, q] = s * vip + c * viq
    return -1


try:  # JIT the rotation kernel when numba is around; plain Python otherwise
    from numba import njit

    _jacobi_sweeps = njit(cache=True)(_jacobi_sweeps)
except ImportError:  # pragma: no cover
    pass


def jacobi_eigh(a, tol=JACOBI_OFFDIAG_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Rotations sweep
    the upper triangle until the off-diagonal Frobenius norm drops below
    ``tol``.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    if _jacobi_sweeps(a, v, tol, max_sweeps) < 0:
        raise ConvergenceFailure(
            f"Jacobi did not converge in {max_sweeps} sweeps"
        )
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _perron_eigh(a):
    # the package's one eigensolve: ascending eigenpairs of the symmetric a,
    # with the top eigenvector's largest-magnitude entry made positive
    w, p = jacobi_eigh(a)
    top = p[:, -1]
    if top[np.argmax(np.abs(top))] < 0:
        p[:, -1] = -top
    return w, p


def eigendecompose(fm):
    """Full orthonormal eigendecomposition of Ftilde.

    The top eigenvector is sign-fixed so its largest-magnitude entry is
    positive; on a connected graph it is then entrywise positive and the
    top eigenvalue is simple.
    """
    w, p = _perron_eigh(fm.Ftilde)
    top = p[:, -1]
    if len(w) > 1:
        gap = w[-1] - w[-2]
        if gap <= EIGEN_GAP_TOL:
            raise EigenvalueGapTooSmall(
                f"top eigenvalue gap {gap} below {EIGEN_GAP_TOL}; "
                "input is not a valid connected flow matrix"
            )
        if np.any(top <= 0):
            raise EigenvalueGapTooSmall(
                "Perron eigenvector has nonpositive entries; input corrupted"
            )
    return SpectralData(eigenvalues=w, eigenvectors=p)


def flow_coefficients(sd, fm, omega0_vec):
    """Coefficient matrix C with C[i, l] = c_i(e_l) from the spectral solution.

    omega(t, e_l) = sum_i C[i, l] * exp(lambda_i * t).
    """
    omega0_vec = np.asarray(omega0_vec, dtype=float)
    sqrt_m2 = fm.sqrt_m2
    proj = sd.eigenvectors.T @ (sqrt_m2 * omega0_vec)  # proj_i = sum_j p_ij w0_j sqrt(m2_j)
    return (proj[:, None] * sd.eigenvectors.T) / sqrt_m2[None, :]


def curvature_bounds(g):
    """Gerschgorin bracket (lower, upper) for the limiting curvature -lambda_max."""
    return build_flow_matrix(g).bounds()


def classify_convergence(g, tol_zero=DEFAULT_TOL_ZERO):
    """Classify the long-time behavior of the Forman flow on g.

    vanishing if lambda_max < -tol_zero, constant_metric if
    |lambda_max| <= tol_zero, divergent otherwise.  The limiting
    normalized metric is the Perron direction pulled back through M.
    The result depends only on the graph and its measures: every positive
    initial metric has the same limit.
    """
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    lam = sd.lambda_max
    if lam < -tol_zero:
        classification = VANISHING
    elif lam <= tol_zero:
        classification = CONSTANT_METRIC
    else:
        classification = DIVERGENT
    shape = sd.perron_vector / fm.sqrt_m2
    return ConvergenceReport(
        classification=classification,
        lambda_max=lam,
        limiting_curvature=-lam,
        limiting_normalized_metric=shape / np.sum(shape),
        bounds=fm.bounds(),
    )


@dataclass(frozen=True)
class InverseResult:
    """Outcome of the prescribed-curvature problem."""

    metric: object  # MetricAssignment or None
    lambda_max: float  # of K = Ftilde + diag(kappa)


def inverse_curvature(g, kappa_target, tol=DEFAULT_TOL_ZERO):
    """Find a positive metric realizing the target Forman curvature vector.

    ``kappa_target`` holds one curvature per edge, in edge order.  Builds
    K = Ftilde + diag(kappa); a positive solution exists iff
    lambda_max(K) = 0, in which case the metric is M^-1 times the Perron
    eigenvector of K.  Absence is a valid answer and carries the
    diagnostic lambda_max(K).
    """
    kappa = np.asarray(kappa_target, dtype=float)
    if kappa.shape != (g.n_edges,):
        raise GraphError(f"kappa target needs {g.n_edges} values, got {kappa.size}")
    fm = build_flow_matrix(g)
    k = fm.Ftilde + np.diag(kappa)
    w, p = _perron_eigh(k)
    lam = float(w[-1])
    if abs(lam) > tol:
        return InverseResult(metric=None, lambda_max=lam)
    omega = p[:, -1] / fm.sqrt_m2
    return InverseResult(
        metric=MetricAssignment.from_vector(g, omega), lambda_max=lam
    )


def _require_uniform_tree(g):
    if not is_tree(g):
        raise NotATree("graph is not a tree")
    if any(abs(g.m1[x] - 1.0) > 0 for x in g.vertices) or any(
        abs(m - 1.0) > 0 for m in g.m2.values()
    ):
        raise NotUniformMeasure("tree classification needs m1 = m2 = 1")


def classify_tree_uniform(g):
    """Complete trichotomy for uniform-measure trees.

    Paths shrink (positive limiting curvature), K_{1,3} is the balanced
    case (curvature 0), every other tree with a degree >= 3 vertex blows
    up (negative limiting curvature).
    """
    _require_uniform_tree(g)
    degrees = sorted(g.degree(x) for x in g.vertices)
    if degrees[-1] <= 2:
        return PATH_CASE
    if degrees == [1, 1, 1, 3]:
        return K13_CASE
    return BIG_DEGREE_CASE
