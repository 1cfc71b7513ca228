"""Block Gibbs machinery for the Bayesian adaptive graphical LASSO.

Two samplers share every update except the off-diagonal step:

* ``"bgs"`` draws each off-diagonal column from its unconstrained normal
  full conditional.  That draw can push the partially updated precision
  matrix out of the positive definite cone, which is exactly what the
  violation audit counts.
* ``"hrs"`` draws the same column by a hit-and-run move restricted to the
  set where the partially updated matrix stays positive definite, so a
  chain started at a positive definite matrix never leaves the cone.  It
  moves in whitened coordinates, where the step has unit variance.

A sweep visits every column once.  For column i the other variables form
the blocks

    omega = [[Omega11, beta], [beta', w22]]

and the Schur complement ``gamma = w22 - beta' Omega11^{-1} beta``.
gamma > 0 together with a positive definite Omega11 is equivalent to the
whole matrix being positive definite.  Following Wang (2012), a column
update draws beta, then gamma, and rebuilds ``w22 = gamma + beta'
Omega11^{-1} beta``; gamma > 0, so omega is positive definite again at
every column boundary whatever beta was drawn.  The only moment bgs can
leave the cone is between the off-diagonal write and the diagonal write,
and that is the moment the audit checks.

The blocks are masked, not permuted: column i is row i of the full p x p
matrices, in natural order, with slot i decoupled.  Slot i is zero in
Omega11^{-1}, s12 and beta and one in tau12, so the inverse conditional
covariance ``C^{-1} = (s22 + 2 lambda22) Omega11^{-1} + diag(1/tau12)``
has a unit (i, i) entry and a zero row and column i, and the beta draw
comes out exactly 0 in slot i.  Omega and Sigma are then updated in place
with one row write and one column write each.

The shrinkage variables are not chain state: each column draws the ones it
reads just before it reads them.  Given everything else, the rate lambda_ij
and the latent scale tau_ij depend on omega_ij alone.  In Wang's order
tau_ij is drawn at the end of column i or column j and read only at the
other one, through tau12, and lambda_ii is drawn at the end of column i and
read only at column i of the next sweep, through lambda22.  Neither omega_ij
nor omega_ii changes between a draw and its read, and nothing else reads the
draw, so moving the draw to just before its read leaves the chain's law as
it was.  Column i therefore begins by drawing the rates of row i of omega,
``Ga(r + 1, s + |omega_ij|)``, and the latent scales of that row from them;
entry i of the rates is lambda22 and the scales, slot i set to 1, are
tau12.  A chain's first sweep is the one exception: there, Wang's order has
not yet drawn row i's entries j > i or lambda_ii when column i reads them,
so they keep their initial value 1.

The partition copies only what it must.  S is fixed for the chain, so each
sweep makes one copy of it with a zero diagonal, and s12 is a row view of
that copy.  beta is the one row copied, because omega keeps its diagonal.
Besides the bank, a sweep allocates two buffers and reuses them in every
column: the p x p workspace in which C^{-1} is formed and factored, and a
length-p buffer for |omega_i.|.  The tau draw works in place in that buffer
and in its row of bank 4 below, which no later column reads.

The sweep carries ``Sigma = Omega^{-1}`` across columns (Wang's own
bookkeeping).  One Cholesky factorisation of omega per sweep gives Sigma
and asserts the column-boundary invariant; then, per column,

* the partition downdates Sigma in place to ``Omega11^{-1} = Sigma - u u'``
  with ``u = sigma_i / sqrt(sigma_ii)``, row and column i set to zero;
* the audit is the Schur test ``w22 - beta' Omega11^{-1} beta > PD_TOL**2``
  on the matrix holding the new beta and the old w22;
* after the gamma draw, with ``v = Omega11^{-1} beta``, Sigma becomes
  ``Omega11^{-1} + v v' / gamma`` in place, with row and column i set to
  ``-v / gamma`` and ``sigma_ii = 1 / gamma``.

All three cost O(p^2), so the one O(p^3) step of a column is the Cholesky
factorisation of C^{-1} that the beta draw needs.  C^{-1} is formed in one
p x p workspace per sweep and factored there in place.

Within a sweep Sigma is carried as one triangle: the lower triangle of
``sigma.T`` as BLAS sees it, which is the upper triangle of ``sigma`` in
numpy's indexing.  The rank-1 updates are BLAS ``dsyr`` on that triangle,
every Omega11^{-1} product is ``dsymv`` reading it, and C^{-1} and its
factor are read from the same triangle.  The other triangle goes stale and
is mirrored from the current one once, when the sweep ends, so Sigma is
exactly symmetric between sweeps.  A full-matrix ``A - u u'`` (BLAS
``dger``) is not used: depending on the OpenBLAS kernel it rounds entry
(j, k) and entry (k, j) differently, which leaves Sigma slightly
asymmetric, while one stored triangle is symmetric by construction.
Products of two vectors are BLAS ``ddot``, several times cheaper per call
than numpy's ``@`` at these sizes; the bitwise reference test, which uses
``@``, checks that the two agree on each OpenBLAS kernel it runs on.

Randomness comes in one bank per sweep.  Right after the sweep-start
factorisation, :func:`sweep` makes five bulk calls on the generator (six
for hrs), in this order and with these shapes whatever the state:

1. ``standard_normal((p, p))``, diagonal set to zero: row i is the bgs
   normal vector of column i, or hrs's direction z;
2. ``standard_gamma(n/2 + 1, p)``: entry i is the gamma draw of column i
   before its rate is applied;
3. ``standard_gamma(r + 1, (p, p))``: row i holds the shrinkage-rate draws
   of row i of omega as it stands when column i begins, entry i the
   diagonal one;
4. ``standard_normal((p, p))`` and
5. ``random((p, p))``: entry (i, j) feeds the inverse-Gaussian draw of
   tau_ij, held as nu**2 / 2 and u / (1 - u);
6. for hrs only, ``random(p)``: entry i is the uniform that the exact
   inverse CDF turns into column i's truncated-normal step.

Row i of every bank is in natural order.  Every column update is then a
pure transform of row i of the bank and the state, so a sweep consumes
exactly the bank.  Banks 3-5 meet row i of omega as it stands before
column i, not after it.  Some of their entries feed draws that are never
read, and they are drawn all the same: slot i, which the partition sets
to 1 because tau has no diagonal, and in a chain's first sweep the
entries that the first-sweep rule sets to 1.  The very first column of a
chain skips its beta draw but its bank row is drawn all the same.  A
change made only for speed keeps the bank and the arithmetic fixed, so it
leaves every seeded artifact byte-identical.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .distributions import sample_truncated_normal
from .matrixcore import PD_TOL, check_symmetric, cholesky_in_place, invert_from_factor, pd_check

SAMPLER_KINDS = ("bgs", "hrs")

# Draw clamps: Wang's disclosed code cut the ranges of the lambda and tau
# draws and the unconstrained sampler breaks down without some cut; the
# exact bounds were never published, so wide symmetric ones are used.
LAMBDA_BOUNDS = (1e-6, 1e6)
TAU_BOUNDS = (1e-10, 1e10)
EPS_OMEGA = 1e-10

# The same constants as 0-d arrays: numpy ufuncs take a 0-d array operand
# faster than a Python float.
_LAMBDA_CLAMP = tuple(np.array(b) for b in LAMBDA_BOUNDS)
_TAU_CLAMP = tuple(np.array(b) for b in TAU_BOUNDS)
_EPS_OMEGA = np.array(EPS_OMEGA)
_ONE, _TWO = np.array(1.0), np.array(2.0)


@dataclass
class ChainConfig:
    """Settings for one chain run; its defaults are the CLI's defaults too."""

    kind: str = "hrs"
    burn_in: int = 5000
    draws: int = 10000
    r: float = 1e-2
    s: float = 1e-6
    store_draws: bool = False

    def validate(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {self.kind!r}")
        if self.burn_in < 0 or self.draws < 1:
            raise ValueError("need burn_in >= 0, draws >= 1")
        # Written so that NaN, which fails every comparison, is rejected.
        if not (0.0 < self.r < math.inf and 0.0 < self.s < math.inf):
            raise ValueError("hyperparameters r and s must be finite and positive")


@dataclass
class GibbsState:
    """Mutable state of one chain.

    omega is the p x p symmetric precision matrix and scatter is S = Y'Y
    for the observed data.  The shrinkage rates lambda and latent scales
    tau are not stored: every draw of them has exactly one reader, and the
    omega entry it is drawn from does not change before that read, so each
    column draws its row of them just before its partition (see the module
    docstring).  Until a chain's first sweep has drawn them, they read 1.
    sigma is omega's inverse as :func:`sweep` carries it: recomputed from
    a Cholesky factor of omega when a sweep starts and kept current after
    every column; None before the first sweep.  Between sweeps it is the
    full, exactly symmetric Sigma.  In the middle of a sweep only its upper
    triangle (numpy indexing) is current, and during column i's update
    that triangle holds Omega11^{-1} (see the module docstring); after a
    sweep that raised, it means nothing.
    """

    omega: np.ndarray
    scatter: np.ndarray
    n: int
    r: float
    s: float
    sigma: np.ndarray | None = None


@dataclass(slots=True)
class ColumnPartition:
    """Blocks of the state for one column, masked in natural order.

    The vectors have length p and omega11_inv is p x p; slot i of column i
    is decoupled (see :func:`make_partition`).  omega11_inv is read from
    its upper triangle (numpy indexing) only: in a sweep it is the carried
    sigma itself, downdated in place, and its lower triangle is stale.
    In a sweep s12 is a row view of the sweep's zero-diagonal copy of S,
    so the draws only read it, and tau12 is the column's own row of latent
    scales.  work is a p x p scratch array that the beta draw overwrites
    with C^{-1} and its Cholesky factor.
    """

    omega11_inv: np.ndarray
    s12: np.ndarray
    s22: float
    tau12: np.ndarray
    lambda22: float
    beta: np.ndarray
    omega22: float
    work: np.ndarray


@dataclass
class ViolationAudit:
    """Positive-definiteness bookkeeping across column updates.

    A column update is a violation when the matrix holding its new
    off-diagonal column and its old diagonal entry is not positive
    definite.  That is the only stage counted: the diagonal write restores
    positive definiteness by construction (see the module docstring).

    sigma_drift_max is the largest relative gap max|Sigma_carried -
    Sigma_fresh| / max|Sigma_fresh| seen at a sweep start, between the
    inverse carried through the previous sweep and the one recomputed from
    the new Cholesky factor; 0 until a second sweep starts.
    """

    updates_total: int = 0
    violations: int = 0
    sigma_drift_max: float = 0.0

    def record(self, beta_failed):
        self.updates_total += 1
        self.violations += beta_failed

    @property
    def ratio_percent(self):
        if self.updates_total == 0:
            return 0.0
        return 100.0 * self.violations / self.updates_total


@dataclass
class ChainOutput:
    """Retained summary of one chain run."""

    omega_mean: np.ndarray
    audit: ViolationAudit
    sweeps_run: int
    elapsed_seconds: float
    draws: list | None = None


def initial_state(scatter, n, r=ChainConfig.r, s=ChainConfig.s):
    """Identity precision; the first sweep reads unit latent scales and
    unit shrinkage rates where it has not drawn them yet.

    r and s are taken as valid: :func:`run_chain` validates its ChainConfig
    before calling this.
    """
    scatter = check_symmetric(scatter, "scatter")
    p = scatter.shape[0]
    if p < 2:
        raise ValueError("need at least two variables")
    if n < 1:
        raise ValueError("sample size must be positive")
    return GibbsState(
        omega=np.eye(p),
        scatter=scatter,
        n=int(n),
        r=float(r),
        s=float(s),
    )


def _symv(a, x):
    # a @ x for a symmetric a, read from its upper triangle (numpy indexing).
    return blas.dsymv(1.0, a.T, x, lower=1)


def _syr(alpha, x, a):
    # a += alpha x x' in place, on a's upper triangle (numpy indexing) only.
    # a must be a C-ordered float64 array, so that a.T is one BLAS can write
    # in place; on any other, f2py updates and returns a copy.
    at = a.T
    if blas.dsyr(alpha, x, a=at, lower=1, overwrite_a=1) is not at:
        raise ValueError("the rank-1 update needs a C-ordered float64 array")


def _mirror(a):
    # Copy a's upper triangle (numpy indexing) onto its lower one.
    np.copyto(a, a.T, where=np.tri(a.shape[0], k=-1, dtype=bool))


def make_partition(state, i, sigma, work, scatter_off, tau12, lambda22):
    """Partition the state around column i (0-based), masked in natural order.

    Every block keeps length p and slot i is decoupled: it is zero in
    omega11_inv, s12 and beta and one in tau12.  sigma is Omega^{-1}, the
    one :func:`sweep` carries, read from its upper triangle (numpy
    indexing).  It is downdated in place, in O(p^2), to ``Omega11^{-1} =
    Sigma - sigma_i sigma_i' / sigma_ii`` with row and column i set to
    zero, and becomes the partition's omega11_inv.  sigma must be C-ordered,
    as :func:`invert_from_factor` returns it, or the downdate raises
    ValueError.  work is the p x p scratch array the beta draw factors
    C^{-1} in.

    s12 is a view, not a copy: row i of scatter_off, which is S with a zero
    diagonal.  tau12 and lambda22 are the column's latent scales and
    diagonal rate, which the sweep draws just before this call; tau12's
    slot i is set to 1 here.  beta is a copy of row i of omega with slot i
    set to zero, because omega keeps its diagonal.
    """
    omega = state.omega
    p = omega.shape[0]
    if not 0 <= i < p:
        raise IndexError(f"column {i} out of range for dimension {p}")
    # Complete row i of sigma from the current triangle (its part left of
    # the diagonal is column i above it), then scale it.
    sigma[i, :i] = sigma[:i, i]
    u = sigma[i] * (1.0 / math.sqrt(sigma[i, i]))
    _syr(-1.0, u, sigma)
    sigma[i] = 0.0
    sigma[:, i] = 0.0
    tau12[i] = 1.0
    beta = omega[i].copy()
    beta[i] = 0.0
    # Positional, in field order: keyword construction costs a microsecond
    # per column.
    return ColumnPartition(sigma, scatter_off[i], state.scatter.item(i, i), tau12,
                           lambda22, beta, omega.item(i, i), work)


def _factor_c_inverse(part):
    """Lower Cholesky factor of C^{-1} = (s22 + 2*lambda22) Omega11^{-1} +
    diag(1/tau12), formed and factored in place in part.work.

    C^{-1} is read from the upper triangle of omega11_inv (numpy indexing).
    The factor is the lower triangle of part.work.T; above its diagonal
    part.work.T keeps stale C^{-1} entries, which the triangular solves
    never read.
    """
    cinv = np.multiply(part.omega11_inv, part.s22 + 2.0 * part.lambda22, out=part.work)
    diag = cinv.reshape(-1)[:: cinv.shape[0] + 1]
    diag += np.reciprocal(part.tau12)
    L = cholesky_in_place(cinv.T)
    if L is None:
        raise ValueError("conditional covariance not positive definite")
    return L


def bgs_update_beta(part, z):
    """Unconstrained draw of the off-diagonal column: N(-C s12, C).

    z is a vector of standard normals, zero in a decoupled slot of the
    partition, where C^{-1} has a unit diagonal and zero off-diagonal
    entries; beta comes out exactly zero there.  One Cholesky factor
    L L' = C^{-1} gives both moments: ``L^{-T} (z - L^{-1} s12) =
    -C s12 + L^{-T} z`` has mean -C s12 and covariance L^{-T} L^{-1} = C,
    at the cost of two triangular solves.  Nothing keeps this draw inside
    the positive definite cone; that is the baseline behaviour the audit
    measures.
    """
    L = _factor_c_inverse(part)
    y, _ = lapack.dtrtrs(L, part.s12, lower=1)
    np.subtract(z, y, out=y)
    beta, _ = lapack.dtrtrs(L, y, lower=1, trans=1, overwrite_b=1)
    return beta


def hit_and_run_interval(a, b, gamma):
    """Feasible step-size interval (lo, hi) along a direction d.

    The column beta + kappa*d keeps the updated matrix positive definite
    iff a*kappa**2 + 2*b*kappa - gamma < 0, with a = d' Omega11^{-1} d,
    b = beta' Omega11^{-1} d and gamma the Schur complement.  a > 0 and
    gamma > 0 in a positive definite state, so the interval strictly
    brackets kappa = 0.  The root near 0 comes from the product of the
    roots, -gamma/a, so it does not cancel however large |b| is.
    """
    if gamma <= 0.0:
        raise ValueError("state not positive definite")
    disc = math.sqrt(b * b + a * gamma)
    if b >= 0.0:
        q = b + disc
        return -q / a, gamma / q
    q = disc - b
    return -gamma / q, q / a


def hrs_update_beta(part, z, u):
    """Hit-and-run draw of the off-diagonal column inside the PD region.

    z is a vector of standard normals, zero in a decoupled slot of the
    partition as for :func:`bgs_update_beta`, and u a uniform on [0, 1),
    which the exact inverse CDF turns into the step.  The move happens in
    the whitened coordinates x = L' beta, L L' = C^{-1}, where the column's
    conditional is N(-L^{-1} s12, I): x moves along e = z / |z|, uniform on
    the sphere.  In beta coordinates that is d = L^{-T} e, and d' C^{-1} d
    = 1, so the step size kappa is a unit-variance normal with mean

        mu = -(s12'd + (s22 + 2 lambda22) b + (beta/tau12)'d),
        b  = beta' Omega11^{-1} d,

    truncated to the feasibility interval, which needs b anyway.
    Whitening matters: the latent scales tau span many orders of
    magnitude, and an isotropic direction in beta would make every step
    as small as the most-shrunk coordinate allows.  The returned column
    always satisfies the Schur condition.  A zero z raises ValueError.
    """
    zz = blas.ddot(z, z)
    if not zz > 0.0:
        raise ValueError("hit-and-run direction has zero length")
    L = _factor_c_inverse(part)
    d, _ = lapack.dtrtrs(L, z, lower=1, trans=1)
    d *= 1.0 / math.sqrt(zz)
    beta = part.beta
    v = _symv(part.omega11_inv, d)
    b = blas.ddot(beta, v)
    mu = -(blas.ddot(part.s12, d) + (part.s22 + 2.0 * part.lambda22) * b
           + blas.ddot(beta / part.tau12, d))
    gamma = part.omega22 - blas.ddot(beta, _symv(part.omega11_inv, beta))
    lo, hi = hit_and_run_interval(blas.ddot(d, v), b, gamma)
    return beta + sample_truncated_normal(mu, lo, hi, u) * d


def update_gamma(part, g):
    """Schur complement draw Ga(n/2 + 1, s22/2 + lambda22), always positive.

    g is a Ga(n/2 + 1, 1) draw (or an array of them); dividing by the rate
    gives the conditional draw.
    """
    return g * (1.0 / (part.s22 / 2.0 + part.lambda22))


def update_lambda_column(abs_omega, s, g):
    """Shrinkage rates for one row of omega: Ga(r + 1, s + |omega_ij|), clamped.

    abs_omega is |omega_i.|, the whole row i, and g holds as many draws of
    Ga(r + 1, 1).  Entry i of the result is the diagonal rate, the others
    the off-diagonal rates of column i.
    """
    rates = np.add(abs_omega, s)
    np.divide(g, rates, out=rates)
    return _clamp(rates, _LAMBDA_CLAMP)


def update_tau_column(lam, abs_omega, half_nu2, odds):
    """Latent scales for one row: 1/tau ~ IG(lambda/a, lambda**2), clamped.

    a = max(|omega|, EPS_OMEGA), so exact zeros cannot produce infinite
    parameters.  The draw is the Michael-Schucany-Haas (1976) transform of
    a standard normal nu and a uniform u on [0, 1), in closed form: with
    k = nu**2 / (2 a lambda) and r = 1 + k + sqrt(k (k + 2)), the smaller
    root of the transform's quadratic is (lambda/a) / r, and

        tau = (a/lambda) * (r if u (r + 1) <= r else 1/r).

    This form has no cancellation, so it needs no floor.  half_nu2 holds
    nu**2 / 2 and odds holds u / (1 - u), one per entry: u (r + 1) <= r is
    odds <= r.  The draws are clamped to TAU_BOUNDS.  abs_omega is
    overwritten with a, and half_nu2 is used as scratch; lam and odds are
    only read.
    """
    a = np.maximum(abs_omega, _EPS_OMEGA, out=abs_omega)
    r = np.multiply(a, lam)
    k = np.divide(half_nu2, r, out=half_nu2)
    np.add(k, _TWO, out=r)
    r *= k
    np.sqrt(r, out=r)
    k += _ONE
    r += k
    small = np.greater(odds, r)
    np.reciprocal(r, out=k)
    np.copyto(r, k, where=small)
    r *= np.divide(a, lam, out=k)
    return _clamp(r, _TAU_CLAMP)


def _clamp(x, bounds):
    # np.clip(x, *bounds) in place, NaN included, without its dispatch overhead.
    np.maximum(x, bounds[0], out=x)
    return np.minimum(x, bounds[1], out=x)


def sweep(state, kind, audit, rng):
    """One full pass over all p columns, mutating state in place.

    The sweep starts with the one Cholesky factorisation of omega it
    needs.  A state that fails it is an error for both samplers: a chain
    only reaches a sweep start through column boundaries, where omega is
    positive definite by construction.  The factor gives Sigma =
    Omega^{-1}, which ``state.sigma`` carries through the columns with the
    O(p^2) updates of the module docstring, on its upper triangle only, and
    mirrors that triangle when the sweep ends; the gap between the Sigma
    carried through the previous sweep and the fresh one goes into
    ``audit.sigma_drift_max``.  Then the sweep draws its random bank (see
    the module docstring).

    Each column update advances the audit by one.  It counts a violation
    when the Schur test fails on the matrix holding the new off-diagonal
    column and the old diagonal entry; the hit-and-run path never fails
    it, the unconstrained path records the failure and keeps going.  A
    non-positive gamma draw would break the column-boundary invariant, so
    it is an error rather than a count.

    Each column first draws its row of shrinkage rates and latent scales
    from row i of omega as it stands then, and hands them to its partition.

    A chain's first sweep, the one that finds ``state.sigma`` still None,
    applies the guard of both samplers: column 1 has not been informed by
    any update yet, so it keeps its initial off-diagonals and only its
    diagonal moves.  In the same sweep, column i reads 1 for lambda_ii and
    for the latent scales of row i beyond slot i, which have not been drawn
    yet (see the module docstring).
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {kind!r}")
    L = pd_check(state.omega)
    if L is None:
        raise ValueError("omega is not positive definite at the start of the sweep")
    sigma = invert_from_factor(L)
    first_sweep = state.sigma is None
    if not first_sweep:
        # The carried Sigma is replaced, so its memory takes the difference.
        gap = np.subtract(state.sigma, sigma, out=state.sigma)
        drift = float(np.abs(gap, out=gap).max() / abs(sigma).max())
        audit.sigma_drift_max = max(audit.sigma_drift_max, drift)
    state.sigma = sigma
    hrs = kind == "hrs"
    p = state.omega.shape[0]
    omega = state.omega
    schur_floor = PD_TOL * PD_TOL
    scatter_off = state.scatter.copy()
    scatter_off.flat[:: p + 1] = 0.0
    work = np.empty((p, p))
    abs_omega = np.empty(p)
    s = np.array(state.s)  # a ufunc takes a 0-d array faster than a float

    gen = rng.gen
    z_bank = gen.standard_normal((p, p))
    z_bank.flat[:: p + 1] = 0.0
    gamma_bank = gen.standard_gamma(state.n / 2.0 + 1.0, p).tolist()
    lambda_bank = gen.standard_gamma(state.r + 1.0, (p, p))
    half_nu2_bank = gen.standard_normal((p, p))
    half_nu2_bank *= half_nu2_bank
    half_nu2_bank *= 0.5
    u_bank = gen.random((p, p))
    odds_bank = np.subtract(1.0, u_bank)
    np.divide(u_bank, odds_bank, out=odds_bank)
    if hrs:
        kappa_bank = gen.random(p).tolist()

    for i in range(p):
        stage = "lambda"
        try:
            np.abs(omega[i], out=abs_omega)
            lam_row = update_lambda_column(abs_omega, s, lambda_bank[i])

            stage = "tau"
            tau12 = update_tau_column(lam_row, abs_omega, half_nu2_bank[i], odds_bank[i])
            if first_sweep:
                # Not drawn yet in Wang's order, so still at their initial 1.
                tau12[i + 1:] = 1.0
                lam_row[i] = 1.0

            stage = "partition"
            part = make_partition(state, i, sigma, work, scatter_off, tau12, lam_row.item(i))

            beta = part.beta
            if not (first_sweep and i == 0):
                stage = "beta"
                if hrs:
                    beta = hrs_update_beta(part, z_bank[i], kappa_bank[i])
                else:
                    beta = bgs_update_beta(part, z_bank[i])
                omega[i] = beta
                omega[:, i] = beta
            v = _symv(sigma, beta)
            q = blas.ddot(beta, v)
            beta_failed = not part.omega22 - q > schur_floor

            stage = "gamma"
            gam = update_gamma(part, gamma_bank[i])
            if not gam > 0.0:
                raise RuntimeError(f"gamma draw {gam!r} is not positive")
            omega[i, i] = gam + q
            _syr(1.0, v * (1.0 / math.sqrt(gam)), sigma)
            v *= -1.0 / gam
            sigma[i] = v
            sigma[:, i] = v
            sigma[i, i] = 1.0 / gam
        except Exception as exc:
            raise RuntimeError(
                f"column {i} failed at stage {stage}: {exc}") from exc

        audit.record(beta_failed)

    _mirror(sigma)
    return state


def run_chain(data_scatter, n, config, rng):
    """Run one chain on scatter matrix S = Y'Y with sample size n.

    Burn-in sweeps are discarded; the retained sweeps feed a streaming
    elementwise mean (and, with store_draws, a list of every retained
    draw).  The audit covers every sweep the chain performs, burn-in
    included.
    """
    config.validate()
    state = initial_state(data_scatter, n, config.r, config.s)
    audit = ViolationAudit()
    p = state.omega.shape[0]
    mean_acc = np.zeros((p, p))
    draws = [] if config.store_draws else None
    total = config.burn_in + config.draws

    t0 = time.perf_counter()
    for k in range(total):
        sweep(state, config.kind, audit, rng)
        if k >= config.burn_in:
            mean_acc += state.omega
            if draws is not None:
                draws.append(state.omega.copy())
    elapsed = time.perf_counter() - t0

    return ChainOutput(
        omega_mean=mean_acc / config.draws,
        audit=audit,
        sweeps_run=total,
        elapsed_seconds=elapsed,
        draws=draws,
    )
