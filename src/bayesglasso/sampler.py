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

The shrinkage variables are not chain state: a sweep draws them in blocks
of ``SHRINKAGE_BLOCK`` consecutive columns, as each block begins.  Given
everything else, the rate lambda_ij and the latent scale tau_ij depend on
omega_ij alone, so drawing them from omega_ij as it stands is an exact
conditional update whenever it happens.  As block [t, e) begins, one call
draws the rates ``Ga(r + 1, s + |omega_ij|)`` of rows t..e-1 of omega and
one more the latent scales of those rows from them.  tau has no diagonal,
so the block's draw then sets each row's slot i to 1, which decouples it.
Column i reads entry i of its row of rates as lambda22 and its row of
scales as tau12.  No earlier column of the block writes omega_ii or
omega_ij for j outside the block, so those draws are read as if drawn as
column i begins.  A pair j < k inside the block gets one draw, the one
from row j, copied onto row k: column j reads it before it rewrites
omega_jk, and column k reads it after.  Column k's beta draw is still
exact, given the tau_jk that column j's was made with, so the scan is a
valid deterministic-scan Gibbs sampler for the same posterior.  From a
chain's second sweep on it is not the chain of a per-column draw, in which
column k would draw tau_jk afresh from the new omega_jk.  A chain's first
sweep has blocks of one column and follows Wang's order, which has not yet
drawn row i's entries j > i or lambda_ii when column i reads them, so the
block's draw sets them to their initial value 1.

A column copies only what it must, and :func:`sweep` hands each column
step exactly the arrays and scalars it reads.  S is fixed for the chain,
so each sweep makes one copy of it with a zero diagonal, and s12 is a row
view of that copy.  Only hrs reads the old column: it copies row i of
omega as beta, slot i set to zero, because omega keeps its diagonal; bgs
copies no row of omega.  The sweep reads omega22 before the column's
writes and computes ``c = s22 + 2 lambda22`` once, for the C^{-1} factor,
the hrs step and the gamma rate.  Besides the bank and each block's
shrinkage arrays, a sweep allocates one p x p workspace and its diagonal
view, in which every column forms and factors C^{-1}, once for either
sampler.

Code that runs once per column keeps its speed idioms: scalars read with
``.item()``, banks as lists, the workspace, and positional f2py calls and
``dscal``, measured below.  Code that runs once per sweep or once per
shrinkage block, the bank transforms and the lambda/tau draws, is written
as its formula, and its helpers only read their arguments.

The sweep carries ``Sigma = Omega^{-1}`` across columns (Wang's own
bookkeeping).  One Cholesky factorisation of omega per sweep gives Sigma
and asserts the column-boundary invariant; then, per column,

* :func:`make_partition` downdates Sigma in place to ``Omega11^{-1} =
  Sigma - sigma_i sigma_i' / sigma_ii``, row and column i set to zero;
* the audit is the Schur test ``w22 - beta' Omega11^{-1} beta > PD_TOL**2``
  on the matrix holding the new beta and the old w22;
* after the gamma draw, with ``v = Omega11^{-1} beta``, Sigma becomes
  ``Omega11^{-1} + v v' / gamma`` in place, with row and column i set to
  ``-v / gamma`` and ``sigma_ii = 1 / gamma``.

All three cost O(p^2), so the one O(p^3) step of a column is the Cholesky
factorisation of C^{-1} that the beta draw needs.  C^{-1} is formed in one
p x p workspace per sweep and factored there in place, before either
sampler's beta draw, which both read the factor.

Within a sweep Sigma is carried as one triangle: the lower triangle of
``sigma.T`` as BLAS sees it, which is the upper triangle of ``sigma`` in
numpy's indexing.  Each rank-1 update is one BLAS ``dsyr`` on that
triangle, with its formula's scalar, -1/sigma_ii or 1/gamma, as alpha;
every Omega11^{-1} product is ``dsymv`` reading it; and C^{-1} and its
factor are read from the same triangle.  The other triangle goes stale and
is mirrored from the current one once, when the sweep ends, so Sigma is
exactly symmetric between sweeps.  A full-matrix ``A - u u'`` (BLAS
``dger``) is not used: depending on the OpenBLAS kernel it rounds entry
(j, k) and entry (k, j) differently, which leaves Sigma slightly
asymmetric, while one stored triangle is symmetric by construction.
Products of two vectors are BLAS ``ddot``, several times cheaper per call
than numpy's ``@`` at these sizes; the bitwise reference test, which uses
``@``, checks that the two agree, and tier-1 runs it on the host's OpenBLAS
kernel and on forced Haswell and Sandybridge kernels.

Every BLAS and LAPACK routine of the column update (``dsyr``, ``dsymv``,
``ddot``, ``dscal``, ``dtrtrs`` and ``dpotrf``) is bound once, in
:mod:`bayesglasso.matrixcore` (see its module docstring), and this module
imports each as a global of its own, so a call is one global lookup.  Each
is called with positional arguments only: f2py parses keyword arguments
much more slowly.  At p = 30 on a 2-vCPU x86-64 guest, the best of 25
timings per call went from 1.3 to 0.6 us for ``dsyr``, 1.3 to 0.7 for
``dsymv`` and 1.6 to 1.4 for ``dtrtrs``, and a column makes six such
calls.  The comment above each binding quotes the f2py signature its
positional calls follow, and a test pins that line, so a scipy that
reordered the optional arguments fails the suite instead of binding a flag
to the wrong parameter.  The bitwise reference test keeps keyword calls,
so it checks the positional ones too.

hrs's truncated-normal step needs ``scipy.special``, which
:mod:`bayesglasso.distributions` imports on first need.  :func:`run_chain`
loads it for an hrs chain before it starts its timer, so the first hrs
chain's ``elapsed_seconds`` does not hold the import; a bgs chain never
loads it.

Every vector scaled by a scalar is scaled with BLAS ``dscal``: -v / gamma
in :func:`sweep`, and the direction and the step in
:func:`hrs_update_beta`.  On the same guest, numpy's array-times-float
costs 0.7-1.4 us per call and f2py's ``dscal`` 0.14-0.25 us, and both make
the same one IEEE multiply per entry, so the bits do not change.
``dscal`` scales in place only a contiguous float64 array and returns a
scaled copy of any other, so its return value is always the one used.

A NaN in C^{-1} is caught once per column, on the column's result, not in
the factor.  ``dpotrf`` returns success on input holding a NaN, but it
carries the NaN to the pivot of that row, the triangular solves carry it
into beta, and ``dsymv`` into q = beta' Omega11^{-1} beta; so the sweep
tests q for finiteness (0.04 us), and hit-and-run's interval already
rejects the NaN a = d' Omega11^{-1} d that such a factor gives.  Scanning
each factor's diagonal cost 2.7 us per column at p = 30.  Its PD_TOL floor
could only reject a C^{-1} that is positive definite: lambda_min(C^{-1})
>= min_j 1/tau_j > 0, and a pivot at or below PD_TOL needs lambda_min <=
PD_TOL**2 = 1e-24.  An indefinite C^{-1} still fails ``dpotrf``.
:func:`pd_check`, which factors omega at each sweep start, keeps the scan.

Randomness comes in one bank per sweep.  Right after the sweep-start
factorisation, :func:`sweep` makes five bulk calls on the generator, in
this order and with these shapes whatever the state and whichever the
sampler:

1. ``standard_normal((p, p))``, diagonal set to zero: row i is the bgs
   normal vector of column i, or hrs's direction z;
2. ``standard_gamma(n/2 + 1, p)``: entry i is the gamma draw of column i
   before its rate is applied;
3. ``standard_gamma(r + 1, (p, p))``: row i holds the shrinkage-rate draws
   of row i of omega as it stands when column i's block begins, entry i the
   diagonal one;
4. ``standard_normal((p, p))`` and
5. ``random((p, p))``: entry (i, j), j != i, feeds the inverse-Gaussian
   draw of tau_ij, held as nu**2 / 2 and u / (1 - u).  Entry (i, i) is the
   uniform that the exact inverse CDF turns into hrs's truncated-normal
   step in column i.

Entry (i, i) of bank 5 is free for the step because tau has no diagonal:
the block's draw makes a tau_ii from it all the same, but overwrites that
with 1 before column i reads its row, and no other column reads row i's
slot i.  So the step reads a fresh uniform that nothing else reads, and
bgs draws it and leaves it unread.

Row i of every bank is in natural order.  Every column update is then a
pure transform of row i of the bank and the state, and every block's
shrinkage draw one of rows t..e-1 of banks 3-5 and the state, so a sweep
consumes exactly the bank.  Banks 3-5 meet row i of omega as it stands
when column i's block begins.  Some of their entries feed draws that are
never read, and they are drawn all the same: slot i, the later row's
entry of each pair inside a block, and in a chain's first sweep the
entries that the first-sweep rule sets to 1.  A change made only for speed
keeps the bank and the arithmetic fixed, so it leaves every seeded
artifact byte-identical.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .distributions import normal_tail_ufuncs, sample_truncated_normal
from .matrixcore import (PD_TOL, _ddot, _dpotrf, _dscal, _dsymv, _dsyr, _dtrtrs, check_integer,
                         check_positive, check_symmetric, invert_from_factor, pd_check,
                         strict_lower)

SAMPLER_KINDS = ("bgs", "hrs")

# Floor on |omega_ij| in the latent-scale draw, the one bound on any draw.
# Exact zeros are reachable: in a chain's first sweep row i is drawn while
# its entries beyond slot i are still the identity's zeros, and those draws
# are then discarded for 1 (see the module docstring).  With a = 0 the
# closed form computes 0 * inf = NaN there.  At the default s = 1e-6 about
# 1e-5 of the posterior of a weakly correlated p = 2 model lies below the
# floor (the D2 model of tests/test_posterior.py puts 8.6e-6 there).
EPS_OMEGA = 1e-10

# Columns per shrinkage block: a sweep draws the lambda/tau rows of this
# many consecutive columns with one call each.  At 16 the calls' fixed
# overhead, about 20 numpy calls per block, is small per column.  A block
# spanning the whole sweep mixes worse: on 24 chains of a 50 x 100 ar2 fit
# (10 + 40 sweeps) ESS per sweep read 0.304 with one column per block, 0.303
# with 16 and 0.239 with 100.
SHRINKAGE_BLOCK = 16

# Smallest s a chain accepts.  A rate is at most g/s and the floored
# |omega_ij| at least EPS_OMEGA, so whatever the state every latent scale
# is at least about EPS_OMEGA * s / g.  Below s = 1e-298 or so that bound
# is subnormal, and the beta draw's 1/tau could overflow.  At s = 1e-250
# it is still a normal float: on star data at p = 60, n = 5 the smallest
# scale drawn read 1.24e-261 for both samplers.
S_FLOOR = 1e-250


@dataclass(frozen=True)
class ChainConfig:
    """Settings for one chain run; its defaults are the CLI's defaults too.

    kind defaults to ``"bgs"``, which targets the stated posterior; the
    CLI has no default and requires ``--sampler``.  A config checks its
    settings once, when it is made, and raises ValueError for an invalid
    one; it is frozen, so :func:`run_chain` and :func:`sweep` read settings
    that have been checked.  ``dataclasses.replace`` makes and checks a new
    one.
    """

    kind: str = "bgs"
    burn_in: int = 5000
    draws: int = 10000
    r: float = 1e-2
    s: float = 1e-6
    store_draws: bool = False

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {self.kind!r}")
        check_integer("burn_in", self.burn_in, 0)
        check_integer("draws", self.draws, 1)
        check_positive("r", self.r)
        check_positive("s", self.s)
        if self.s < S_FLOOR:
            raise ValueError(f"hyperparameter s must be at least {S_FLOOR:g}")


@dataclass
class GibbsState:
    """Mutable state of one chain.

    omega is the p x p symmetric precision matrix, and scatter is S = Y'Y
    and n the sample size of the observed data.  The shrinkage rates lambda
    and latent scales tau are not stored: :func:`sweep` draws the rows of
    each block of ``SHRINKAGE_BLOCK`` columns as the block begins, and
    every draw is read within its block (see the module docstring).  Where
    a chain's first sweep has not drawn them yet, and in each row's unused
    slot tau_ii, the block's draw sets them to 1.  Nor are the
    hyperparameters r and s: :func:`sweep` reads them from the chain's
    :class:`ChainConfig`.
    sigma is omega's inverse as :func:`sweep` carries it: recomputed from
    a Cholesky factor of omega when a sweep starts and kept current after
    every column; None before the first sweep.  Between sweeps it is the
    full, exactly symmetric Sigma.  In the middle of a sweep only its upper
    triangle (numpy indexing) is current, and during column i's update
    that triangle holds Omega11^{-1}, which the sweep hands the column
    steps as omega11_inv (see the module docstring); after a sweep that
    raised, it means nothing.
    """

    omega: np.ndarray
    scatter: np.ndarray
    n: int
    sigma: np.ndarray | None = None


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

    :meth:`merge` is the one rule that combines two audits, a sweep's into
    its chain's and a replication's into its campaign's.
    """

    updates_total: int = 0
    violations: int = 0
    sigma_drift_max: float = 0.0

    def merge(self, other):
        """Add other's counts to this audit's and keep the larger drift."""
        self.updates_total += other.updates_total
        self.violations += other.violations
        self.sigma_drift_max = max(self.sigma_drift_max, other.sigma_drift_max)


@dataclass
class ChainOutput:
    """Retained summary of one chain run."""

    omega_mean: np.ndarray
    audit: ViolationAudit
    sweeps_run: int
    elapsed_seconds: float
    draws: list | None = None


def initial_state(scatter, n):
    """Identity precision; the first sweep reads unit latent scales and
    unit shrinkage rates where it has not drawn them yet.

    Every S_jj must be positive: with S_jj = 0, as an all-zero data column
    gives, the marginal posterior of column j's Schur complement gamma
    behaves like gamma**(n/2) (gamma + s)**-(r + 1), which does not
    integrate.
    """
    scatter = check_symmetric(scatter, "scatter")
    p = scatter.shape[0]
    if p < 2:
        raise ValueError("need at least two variables")
    # Written so that NaN, which fails every comparison, is rejected.
    for j, s_jj in enumerate(scatter.diagonal().tolist()):
        if not s_jj > 0.0:
            raise ValueError(f"variable {j} (0-based) has S_jj = {s_jj!r}, not > 0, so the "
                             "posterior is improper (is its data column all zeros?)")
    check_integer("n", n, 1)
    return GibbsState(omega=np.eye(p), scatter=scatter, n=int(n))


def make_partition(sigma, i):
    """Partition Sigma around column i (0-based), masked in natural order:
    downdate it in place to Omega11^{-1}.

    sigma is Omega^{-1}, the one :func:`sweep` carries, read from its upper
    triangle (numpy indexing).  It is downdated in place, in O(p^2), to
    ``Omega11^{-1} = Sigma - sigma_i sigma_i' / sigma_ii`` with row and
    column i set to zero, so slot i is decoupled.  sigma must be
    C-ordered, as :func:`invert_from_factor` returns it, or the downdate
    raises ValueError.
    """
    p = sigma.shape[0]
    # Complete row i of sigma from the current triangle (its part left of
    # the diagonal is column i above it).
    sigma[i, :i] = sigma[:i, i]
    # sigma -= sigma_i sigma_i' / sigma_ii on the lower triangle of sigma.T,
    # BLAS's view of it, from a copy of row i, which the downdate rewrites.
    # dsyr updates its a in place only when a.T is a C-ordered float64
    # array; on any other, f2py updates and returns a copy.  This check
    # covers the column's second rank-1 update too, which :func:`sweep`
    # makes on the same sigma.
    sigma_t = sigma.T
    if _dsyr(-1.0 / sigma.item(i, i), sigma[i].copy(), 1, 1, 0, p, sigma_t, 1) is not sigma_t:
        raise ValueError("the rank-1 update needs a C-ordered float64 array")
    sigma[i] = 0.0
    sigma[:, i] = 0.0


def _factor_c_inverse(omega11_inv, c, tau12, work, diag):
    """Lower Cholesky factor of C^{-1} = c Omega11^{-1} + diag(1/tau12),
    with c = s22 + 2 lambda22, formed and factored in place in work.

    C^{-1} is read from the upper triangle of omega11_inv (numpy indexing).
    diag is the diagonal view of work.  The factor is the lower triangle of
    work.T; above its diagonal work.T keeps stale C^{-1} entries, which the
    triangular solves never read.
    """
    cinv = np.multiply(omega11_inv, c, out=work)
    diag += np.reciprocal(tau12)
    L, info = _dpotrf(cinv.T, 1, 0, 1)
    if info != 0:
        raise ValueError("conditional covariance not positive definite")
    return L


def bgs_update_beta(L, s12, z):
    """Unconstrained draw of the off-diagonal column: N(-C s12, C).

    L is the lower Cholesky factor of C^{-1} from :func:`_factor_c_inverse`.
    z is a vector of standard normals, zero in a decoupled slot, where
    C^{-1} has a unit diagonal and zero off-diagonal entries; beta comes out
    exactly zero there.  The one factor L L' = C^{-1} gives both moments:
    ``L^{-T} (z - L^{-1} s12) = -C s12 + L^{-T} z`` has mean -C s12 and
    covariance L^{-T} L^{-1} = C, at the cost of two triangular solves.
    Nothing keeps this draw inside the positive definite cone; that is the
    baseline behaviour the audit measures.
    """
    y = _dtrtrs(L, s12, 1)[0]
    np.subtract(z, y, out=y)
    return _dtrtrs(L, y, 1, 1, 0, None, 1)[0]


def hit_and_run_interval(a, b, gamma):
    """Feasible step-size interval (lo, hi) along a direction d.

    The column beta + kappa*d keeps the updated matrix positive definite
    iff a*kappa**2 + 2*b*kappa - gamma < 0, with a = d' Omega11^{-1} d,
    b = beta' Omega11^{-1} d and gamma the Schur complement.  a > 0 and
    gamma > 0 in a positive definite state, so the interval strictly
    brackets kappa = 0.  The root near 0 comes from the product of the
    roots, -gamma/a, so it does not cancel however large |b| is.  A
    non-finite a, b or gamma raises ValueError naming it: it would give a
    NaN root, or an interval that no longer brackets 0 strictly.
    Finiteness is tested before the signs, so a NaN that a C^{-1} factor
    carries is reported as a NaN, not as a state that is not positive
    definite.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(gamma)):
        raise ValueError(f"hit-and-run interval needs finite a, b and gamma, got "
                         f"{a!r}, {b!r}, {gamma!r}")
    if not (a > 0.0 and gamma > 0.0):
        raise ValueError("state not positive definite")
    disc = math.sqrt(b * b + a * gamma)
    if b >= 0.0:
        q = b + disc
        return -q / a, gamma / q
    q = disc - b
    return -gamma / q, q / a


def hrs_update_beta(L, omega11_inv, s12, c, tau12, beta, omega22, z, u):
    """Hit-and-run draw of the off-diagonal column inside the PD region.

    L is the lower Cholesky factor of C^{-1} from :func:`_factor_c_inverse`
    and c = s22 + 2 lambda22.  z is a vector of standard normals, zero in a
    decoupled slot as for :func:`bgs_update_beta`, and u a uniform on
    [0, 1), which the exact inverse CDF turns into the step; :func:`sweep`
    passes entry (i, i) of its bank 5, whose tau_ii draw nothing reads.
    The move happens in the whitened coordinates x = L' beta, where the
    column's conditional is N(-L^{-1} s12, I): x moves along e = z / |z|,
    uniform on the sphere.  In beta coordinates that is d = L^{-T} e, and
    d' C^{-1} d = 1, so the step size kappa is a unit-variance normal with
    mean

        mu = -(s12'd + c b + (beta/tau12)'d),
        b  = beta' Omega11^{-1} d,

    truncated to the feasibility interval, which needs b anyway.
    Whitening matters: the latent scales tau span many orders of
    magnitude, and an isotropic direction in beta would make every step
    as small as the most-shrunk coordinate allows.  The returned column
    always satisfies the Schur condition.  beta is only read; the column
    returned is a new array.

    The step holds omega22 fixed but moves along N(-C s12, C), which is
    beta's law given gamma = omega22 - beta' Omega11^{-1} beta, not given
    omega22.  So hrs does not target the stated posterior; that is why its
    p = 4 case in ``tests/test_posterior.py`` is a strict expected failure.
    """
    d = _dscal(1.0 / math.sqrt(_ddot(z, z)), _dtrtrs(L, z, 1, 1)[0])
    # Omega11^{-1} products read its upper triangle, the lower one of its
    # transpose as BLAS sees it.
    o11_t = omega11_inv.T
    v = _dsymv(1.0, o11_t, d, 0.0, None, 0, 1, 0, 1, 1)
    b = _ddot(beta, v)
    mu = -(_ddot(s12, d) + c * b + _ddot(beta / tau12, d))
    gamma = omega22 - _ddot(beta, _dsymv(1.0, o11_t, beta, 0.0, None, 0, 1, 0, 1, 1))
    lo, hi = hit_and_run_interval(_ddot(d, v), b, gamma)
    # beta + kappa d, with the step scaled into d's own memory.
    d = _dscal(sample_truncated_normal(mu, lo, hi, u), d)
    return np.add(beta, d, out=d)


def update_gamma(c, g):
    """Schur complement draw Ga(n/2 + 1, c/2), always positive.

    c = s22 + 2 lambda22, so the rate c/2 is s22/2 + lambda22.  g is a
    Ga(n/2 + 1, 1) draw (or an array of them); dividing by the rate gives
    the conditional draw.
    """
    return g * (2.0 / c)


def update_lambda_column(abs_omega, s, g):
    """Shrinkage rates for rows of omega: Ga(r + 1, s + |omega_ij|).

    abs_omega is |omega| for the rows t..e-1 of a block, an (e - t) x p
    array of whole rows (or one row), and g holds as many draws of
    Ga(r + 1, 1).  Entry (i - t, i) of the result is column i's diagonal
    rate, the others of row i - t its off-diagonal rates.
    """
    return g / (abs_omega + s)


def update_tau_column(lam, abs_omega, half_nu2, odds):
    """Latent scales for rows: 1/tau ~ IG(lambda/a, lambda**2).

    a = max(|omega|, EPS_OMEGA), so exact zeros cannot produce infinite
    parameters.  The draw is the Michael-Schucany-Haas (1976) transform of
    a standard normal nu and a uniform u on [0, 1), in closed form: with
    k = nu**2 / (2 a lambda) and r = 1 + k + sqrt(k (k + 2)), the smaller
    root of the transform's quadratic is (lambda/a) / r, and

        tau = (a/lambda) * (r if u (r + 1) <= r else 1/r).

    This form has no cancellation, so it needs no floor.  The arguments
    are arrays of one shape, the block's rows in :func:`sweep`.  half_nu2
    holds nu**2 / 2 and odds holds u / (1 - u), one per entry: u (r + 1) <=
    r is odds <= r.  The draw is pure: it reads its arguments, abs_omega
    included, and returns a new array.
    """
    a = np.maximum(abs_omega, EPS_OMEGA)
    k = half_nu2 / (a * lam)
    r = 1.0 + k + np.sqrt(k * (k + 2.0))
    return np.where(odds <= r, r, 1.0 / r) * (a / lam)


def sweep(state, config, audit, rng):
    """One full pass over all p columns, mutating state in place.

    config is the chain's :class:`ChainConfig`, checked when it was made;
    the sweep reads its kind, and its r and s as Python floats.

    The sweep starts with the one Cholesky factorisation of omega it
    needs.  A state that fails it is an error for both samplers: a chain
    only reaches a sweep start through column boundaries, where omega is
    positive definite by construction.  The factor gives Sigma =
    Omega^{-1}, which ``state.sigma`` carries through the columns with the
    O(p^2) updates of the module docstring, on its upper triangle only, and
    mirrors that triangle when the sweep ends; the gap between the Sigma
    carried through the previous sweep and the fresh one is merged into
    the audit's ``sigma_drift_max``.  Then the sweep draws its random
    bank, the same five calls for either kind (see the module docstring);
    the beta step is the only code that differs between them.

    A column update is a violation when the Schur test fails on the matrix
    holding the new off-diagonal column and the old diagonal entry; the
    hit-and-run path never fails it, the unconstrained path counts the
    failure and keeps going.  After its last column the sweep merges its p
    updates and its violations into the audit, so a sweep that raises adds
    no counts.  A non-finite beta' Omega11^{-1} beta, which a NaN reaching
    C^{-1} gives, is an error rather than a count.  The gamma draw needs no
    check: gamma = g * 2/c with g > 0 from numpy's Ga(n/2 + 1) sampler and
    c = s22 + 2 lambda22 finite and positive, because S is validated
    finite with S_jj > 0 and lambda22 = g'/(|omega_ii| + s) is finite.  A
    gamma of 0 would still raise, in 1/gamma at stage gamma.

    As each block of ``SHRINKAGE_BLOCK`` columns begins, the sweep draws
    the block's rows of shrinkage rates and latent scales from those rows
    of omega as they stand then, in one call each, gives each pair inside
    the block one draw and sets each row's slot i to 1; each column reads
    its rows from there.

    Every column of every sweep draws beta.  A chain's first sweep, the one
    that finds ``state.sigma`` still None, has blocks of one column, and
    its block draw sets lambda_ii and the latent scales of row i beyond
    slot i, which have not been drawn yet, to 1 (see the module docstring).
    """
    L = pd_check(state.omega)
    if L is None:
        raise ValueError("omega is not positive definite at the start of the sweep")
    sigma = invert_from_factor(L)
    sigma_t = sigma.T  # BLAS's view: its lower triangle is sigma's upper one
    first_sweep = state.sigma is None
    if not first_sweep:
        audit.merge(ViolationAudit(
            sigma_drift_max=float(np.abs(state.sigma - sigma).max() / np.abs(sigma).max())))
    state.sigma = sigma
    p = state.omega.shape[0]
    omega = state.omega
    schur_floor = PD_TOL * PD_TOL
    r, s = float(config.r), float(config.s)
    scatter_off = state.scatter.copy()
    scatter_off.flat[:: p + 1] = 0.0
    work = np.empty((p, p))
    diag = work.reshape(-1)[:: p + 1]
    # The first-sweep rule (blocks of one column in Wang's order, unit
    # lambda22 and unit tau beyond slot i) is kept for mixing, measured with
    # OPENBLAS_NUM_THREADS=1 as benchmarks/ess.py's diagonal_ess per sweep
    # run, over seeds 1-24 at the benchmark's shapes.  First-sweep blocks of
    # 16 columns, with unit tau from the block start, took bgs on a
    # standardized 50 x 100 ar2 fit (10 + 40 sweeps) from 0.294 (IQR
    # 0.267-0.311) to 0.265 (0.246-0.284); hrs read 0.549 against 0.543,
    # and on circle p = 30, n = 50 (50 + 200 sweeps) neither moved.  A ridge
    # start Omega0 = n (S + diag S)^{-1} with no first-sweep rule cut hrs by
    # 32% (circle) and 37% (ar2).
    block = 1 if first_sweep else SHRINKAGE_BLOCK
    # The strict lower triangle: sliced, the mask of a block's pairs; whole,
    # the one of the mirror that ends the sweep.
    lower = strict_lower(p)
    end = 0
    violations = 0

    z_bank = rng.standard_normal((p, p))
    z_bank.flat[:: p + 1] = 0.0
    gamma_bank = rng.standard_gamma(state.n / 2.0 + 1.0, p).tolist()
    lambda_bank = rng.standard_gamma(r + 1.0, (p, p))
    half_nu2_bank = rng.standard_normal((p, p)) ** 2 / 2.0
    u_bank = rng.random((p, p))
    odds_bank = u_bank / (1.0 - u_bank)

    for i in range(p):
        stage = "lambda"
        try:
            if i == end:
                start, end = i, min(i + block, p)
                abs_omega = np.abs(omega[start:end])
                lam = update_lambda_column(abs_omega, s, lambda_bank[start:end])

                stage = "tau"
                tau = update_tau_column(lam, abs_omega, half_nu2_bank[start:end],
                                        odds_bank[start:end])
                # One draw per pair inside the block: the one from the row
                # of its first column, which both columns read.
                pairs = tau[:, start:end]
                np.copyto(pairs, pairs.T, where=lower[:end - start, :end - start])
                # tau has no diagonal: each row's own slot is decoupled.
                np.fill_diagonal(pairs, 1.0)
                if first_sweep:
                    # Not drawn yet in Wang's order, so still at their
                    # initial 1.
                    tau[0, i:] = 1.0
                    lam[0, i] = 1.0
            tau12 = tau[i - start]

            stage = "partition"
            omega22 = omega.item(i, i)
            make_partition(sigma, i)
            s12 = scatter_off[i]
            c = state.scatter.item(i, i) + 2.0 * lam.item(i - start, i)

            stage = "beta"
            L = _factor_c_inverse(sigma, c, tau12, work, diag)
            if config.kind == "hrs":
                beta = omega[i].copy()
                beta[i] = 0.0
                beta = hrs_update_beta(L, sigma, s12, c, tau12, beta, omega22,
                                       z_bank[i], u_bank.item(i, i))
            else:
                beta = bgs_update_beta(L, s12, z_bank[i])
            omega[i] = beta
            omega[:, i] = beta
            v = _dsymv(1.0, sigma_t, beta, 0.0, None, 0, 1, 0, 1, 1)
            q = _ddot(beta, v)
            # The one NaN guard of the column: a NaN that reaches C^{-1}
            # reaches beta through the factor and the solves, and q
            # through dsymv (see the module docstring).
            if not math.isfinite(q):
                raise ValueError(f"beta' Omega11^{{-1}} beta is {q!r}")
            violations += not omega22 - q > schur_floor

            stage = "gamma"
            gam = update_gamma(c, gamma_bank[i])
            omega[i, i] = gam + q
            # In place: make_partition has checked it on this same sigma.
            _dsyr(1.0 / gam, v, 1, 1, 0, p, sigma_t, 1)
            v = _dscal(-1.0 / gam, v)
            sigma[i] = v
            sigma[:, i] = v
            sigma[i, i] = 1.0 / gam
        except Exception as exc:
            raise RuntimeError(
                f"column {i} (0-based) failed at stage {stage}: {exc}") from exc

    audit.merge(ViolationAudit(p, violations))

    # Copy the carried upper triangle (numpy indexing) onto the lower one.
    np.copyto(sigma, sigma_t, where=lower)
    return state


def run_chain(data_scatter, n, config, rng):
    """Run one chain on scatter matrix S = Y'Y with sample size n.

    Burn-in sweeps are discarded; the retained sweeps feed a streaming
    elementwise mean (and, with store_draws, a list of every retained
    draw).  The audit covers every sweep the chain performs, burn-in
    included.
    """
    state = initial_state(data_scatter, n)
    audit = ViolationAudit()
    p = state.omega.shape[0]
    mean_acc = np.zeros((p, p))
    draws = [] if config.store_draws else None
    total = config.burn_in + config.draws
    if config.kind == "hrs":
        # The step's tail ufuncs load here, outside the timed sweeps.
        normal_tail_ufuncs()

    t0 = time.perf_counter()
    for k in range(total):
        sweep(state, config, audit, rng)
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
