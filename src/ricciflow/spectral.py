"""Flow matrix, symmetrization, eigenanalysis, and convergence classification.

The linear Forman flow d omega/dt = F omega is analyzed through the
symmetrized matrix Ftilde = M F M^-1 with M = diag(sqrt(m2)).  Ftilde is
irreducible with nonnegative off-diagonal, so its top eigenvalue is simple
with a positive eigenvector; that Perron pair determines the long-time
behavior of the flow and the limiting normalized metric.  Per-edge inputs
and outputs (omega, target curvatures, the limit) are arrays in edge order.
Every eigensolve runs at unit scale: the matrix is scaled exactly by the
power of two that puts its largest magnitude in [2, 4), where Jacobi's
stopping test bounds each eigenvalue's error by JACOBI_OFFDIAG_TOL (Weyl's
inequality).  So with rho = max |lambda|, lambda_max is zero within
JACOBI_OFFDIAG_TOL * rho, a top gap must exceed EIGEN_GAP_TOL * rho, and
scaling m1 or m2 by a power of two scales the eigenvalues exactly.  An
overflow, Jacobi sweeps that do not converge and a top eigenvalue that is
not numerically simple raise NumericalFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, MetricAssignment, NumericalFailure, is_tree

VANISHING = "vanishing"
CONSTANT_METRIC = "constant_metric"
DIVERGENT = "divergent"

PATH_CASE = "path_case"
K13_CASE = "k13_case"
BIG_DEGREE_CASE = "big_degree_case"

JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
EIGEN_GAP_TOL = 1e-10
DEFAULT_INVERSE_TOL = 1e-9


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
    F[i, i] = -(m2/m1(u) + m2/m1(v)) for e_i = (u, v): B^T (B m2 / m1) with
    its diagonal negated, B the 0/1 vertex-edge incidence, exact as a simple
    graph's edges share at most one vertex.  NumericalFailure if an entry
    of F or Ftilde overflows, so no command reads an inf.
    """
    n, m2 = g.n_edges, g.m2
    b = np.zeros((g.n_vertices, n))
    b[g.ends, np.arange(n)[:, None]] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised just below
        f = b.T @ (b * m2 / g.m1[:, None])
        f[np.diag_indices(n)] *= -1.0
        sqrt_m2 = np.sqrt(m2)
        ftilde = sqrt_m2[:, None] * f * (1.0 / sqrt_m2)[None, :]
        ftilde = 0.5 * (ftilde + ftilde.T)  # kill rounding asymmetry
    if not (np.isfinite(f).all() and np.isfinite(ftilde).all()):
        raise NumericalFailure("flow matrix overflows: an m2/m1 ratio is too large")
    return FlowMatrix(F=f, sqrt_m2=sqrt_m2, Ftilde=ftilde)


def _round_robin(n):
    """The round-robin (circle-method) ordering of Brent & Luk's parallel
    Jacobi, over the pairs p < q < n, as (p, q) index arrays of shape
    (rounds, pairs): n - 1 rounds of n/2 pairs for even n, n rounds of
    (n - 1)/2 for odd n.

    Round r pairs i with (r - i) mod (m - 1), m = n rounded up to even, and
    pairs the one i that this would pair with itself with m - 1.  Each
    round's pairs are disjoint, and the rounds cover every pair once; for
    odd n, m - 1 = n pads, and its pair is dropped.
    """
    m = n + n % 2
    i = np.arange(m - 1)
    j = (i[:, None] - i) % (m - 1)  # row r, column i: i's partner in round r
    j[j == i] = m - 1
    keep = (i < j) & (j < n)
    return np.broadcast_to(i, j.shape)[keep].reshape(m - 1, -1), j[keep].reshape(m - 1, -1)


def _jacobi_sweeps(av, tol, max_sweeps):
    """Parallel-order Jacobi rotations in place; returns sweeps used or -1.

    ``av`` stacks the symmetric a (first n rows) over v (last n rows).  A
    sweep walks the rounds of ``_round_robin``.  A round's pairs are
    disjoint, so every angle is read from the matrix as it stood at the
    round's start, and the round is one vectorized step: one fancy-indexed
    update rotates every pair's columns of a and v, then one rotates their
    rows of a.  Each entry gets ``c*x - s*y`` or ``s*x + c*y``: the same
    floating-point operations as the entry-at-a-time form that rotates all
    of a round's columns before any of its rows.  The off-diagonal norm is
    summed in a sequential loop (numpy's pairwise sum rounds differently).
    """
    n = av.shape[1]
    a = av[:n]
    skip_tol = tol / (n * n)
    upper = np.triu_indices(n, 1)
    diag = a.diagonal()  # a view: it follows the rotations
    rounds = list(zip(*_round_robin(n)))
    for sweep in range(max_sweeps):
        off = 0.0
        for x in a[upper].tolist():
            off += 2.0 * x * x
        if math.sqrt(off) < tol:
            return sweep
        for p, q in rounds:
            apq = a[p, q]
            on = np.abs(apq) > skip_tol
            if not on.all():
                p, q, apq = p[on], q[on], apq[on]
            if not p.size:
                continue
            with np.errstate(over="ignore"):  # an overflowing theta gives t = 0
                theta = (diag[q] - diag[p]) / (2.0 * apq)
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # x_p -> c x_p + (-s) x_q and x_q -> c x_q + s x_p, the same bits as
            # c x_p - s x_q and s x_p + c x_q: negation is exact, addition commutes
            pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
            cc, ss = np.concatenate((c, c)), np.concatenate((-s, s))
            for m in (av, a.T):  # columns of a and v, then rows of a
                m[:, pq] = cc * m[:, pq] + ss * m[:, qp]
            a[pq, qp] = 0.0  # a[p, q] and a[q, p]
    return -1


def jacobi_eigh(a, tol=JACOBI_OFFDIAG_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """Parallel-order Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Each sweep
    rotates every pair of the upper triangle once, in the rounds of
    disjoint pairs of the round-robin ordering, until the off-diagonal
    Frobenius norm drops below ``tol``.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    av = np.vstack((a, np.eye(n)))
    if _jacobi_sweeps(av, tol, max_sweeps) < 0:
        raise NumericalFailure(f"Jacobi did not converge in {max_sweeps} sweeps")
    w = np.diag(av[:n]).copy()
    order = np.argsort(w, kind="stable")
    return w[order], av[n:, order]


def _perron_eigh(a):
    # the one eigensolve: ascending eigenpairs, top vector's largest entry positive
    k = 2 - np.frexp(np.max(np.abs(a)))[1]  # 2**k * max |a| in [2, 4)
    w, p = jacobi_eigh(np.ldexp(a, k))
    top = p[:, -1]
    if top[np.argmax(np.abs(top))] < 0:
        p[:, -1] = -top
    with np.errstate(over="ignore"):  # an overflow is raised just below
        w = np.ldexp(w, -k)
    if not np.isfinite(w).all():
        raise NumericalFailure("an eigenvalue overflows the float range")
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
        gap, floor = w[-1] - w[-2], EIGEN_GAP_TOL * np.max(np.abs(w))
        if gap <= floor:
            raise NumericalFailure(
                f"top eigenvalue gap {gap} below {floor}; "
                "input is not a valid connected flow matrix"
            )
        if np.any(top <= 0):
            raise NumericalFailure(
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


def classify_convergence(g):
    """Classify the long-time behavior of the Forman flow on g.

    With the eigensolve's own error bound as the zero band,
    band = JACOBI_OFFDIAG_TOL * max |lambda|: vanishing if lambda_max < -band,
    constant_metric if |lambda_max| <= band, divergent otherwise.  The limiting
    normalized metric is the Perron direction pulled back through M.
    The result depends only on the graph and its measures: every positive
    initial metric has the same limit.
    """
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    lam = sd.lambda_max
    band = JACOBI_OFFDIAG_TOL * np.max(np.abs(sd.eigenvalues))
    if lam < -band:
        classification = VANISHING
    elif lam <= band:
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


def inverse_curvature(g, kappa_target, tol=DEFAULT_INVERSE_TOL):
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


def classify_tree_uniform(g):
    """Complete trichotomy for uniform-measure trees.

    Paths shrink (positive limiting curvature), K_{1,3} is the balanced
    case (curvature 0), every other tree with a degree >= 3 vertex blows
    up (negative limiting curvature).  None unless g is a tree with
    m1 = m2 = 1.
    """
    if not is_tree(g) or np.any(g.m1 != 1.0) or np.any(g.m2 != 1.0):
        return None
    degrees = sorted(g.degree(x) for x in g.vertices)
    if degrees[-1] <= 2:
        return PATH_CASE
    if degrees == [1, 1, 1, 3]:
        return K13_CASE
    return BIG_DEGREE_CASE
