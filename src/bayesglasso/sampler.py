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
comes out exactly 0 in slot i.  Omega, Sigma and tau are then updated in
place with one row write and one column write each.

The sweep carries ``Sigma = Omega^{-1}`` across columns (Wang's own
bookkeeping).  One Cholesky factorisation of omega per sweep gives Sigma
and asserts the column-boundary invariant; then, per column,

* the partition reads ``Omega11^{-1} = Sigma - u u'`` with ``u = sigma_i /
  sqrt(sigma_ii)``, row and column i set to zero;
* the audit is the Schur test ``w22 - beta' Omega11^{-1} beta > PD_TOL**2``
  on the matrix holding the new beta and the old w22;
* after the gamma draw, with ``v = Omega11^{-1} beta``, Sigma becomes
  ``Omega11^{-1} + v v' / gamma`` with row and column i set to ``-v /
  gamma`` and ``sigma_ii = 1 / gamma``.

All three cost O(p^2), so the one O(p^3) step of a column is the Cholesky
factorisation of C^{-1} that the beta draw needs.  Outer products are
taken as exact elementwise products, so every carried matrix stays exactly
symmetric.

Randomness comes in one bank per sweep.  Right after the sweep-start
factorisation, :func:`sweep` makes five bulk calls on the generator (six
for hrs), in this order and with these shapes whatever the state:

1. ``standard_normal((p, p))``, diagonal set to zero: row i is the bgs
   normal vector of column i, or hrs's direction z;
2. ``standard_gamma(n/2 + 1, p)``: entry i is the gamma draw of column i
   before its rate is applied;
3. ``standard_gamma(r + 1, (p, p))``: row i holds the shrinkage-rate draws
   of row i of omega, entry i the diagonal one;
4. ``standard_normal((p, p))`` and
5. ``random((p, p))``: entry (i, j) feeds the inverse-Gaussian draw of
   tau_ij, held as nu**2 / 2 and u / (1 - u);
6. for hrs only, ``random(p)``: entry i is the uniform that the exact
   inverse CDF turns into column i's truncated-normal step.

Row i of every bank is in natural order.  Every column update is then a
pure transform of row i of the bank and the state, so a sweep consumes
exactly the bank.  tau has no diagonal, but the diagonals of banks 4 and 5
are drawn and transformed all the same and the result is set to 0.  The
very first column of a chain skips its beta draw but its bank row is drawn
all the same.  A change made only for speed keeps the bank and the arithmetic
fixed, so it leaves every seeded artifact byte-identical.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .distributions import sample_truncated_normal
from .matrixcore import PD_TOL, check_symmetric, invert_from_factor, pd_check

SAMPLER_KINDS = ("bgs", "hrs")

# Draw clamps: Wang's disclosed code cut the ranges of the lambda and tau
# draws and the unconstrained sampler breaks down without some cut; the
# exact bounds were never published, so wide symmetric ones are used.
LAMBDA_BOUNDS = (1e-6, 1e6)
TAU_BOUNDS = (1e-10, 1e10)
EPS_OMEGA = 1e-10


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
        if self.r <= 0.0 or self.s <= 0.0:
            raise ValueError("hyperparameters r and s must be positive")


@dataclass
class GibbsState:
    """Mutable state of one chain.

    omega and tau are p x p symmetric and tau has a structurally zero
    diagonal.  lam holds the p shrinkage rates of the diagonal entries of
    omega; the off-diagonal rates are drawn and used within one column
    update and never stored.  scatter is S = Y'Y for the observed data.
    sigma is omega's inverse as :func:`sweep` carries it: recomputed from
    a Cholesky factor of omega when a sweep starts and kept current after
    every column; None before the first sweep.
    """

    omega: np.ndarray
    tau: np.ndarray
    lam: np.ndarray
    scatter: np.ndarray
    n: int
    r: float
    s: float
    sigma: np.ndarray | None = None


@dataclass(slots=True)
class ColumnPartition:
    """Blocks of the state for one column, masked in natural order.

    The vectors have length p and omega11_inv is p x p; slot i of column i
    is decoupled (see :func:`make_partition`).
    """

    omega11_inv: np.ndarray
    s12: np.ndarray
    s22: float
    tau12: np.ndarray
    lambda22: float
    beta: np.ndarray
    omega22: float


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
    """Identity precision, unit latent scales, unit shrinkage rates.

    r and s are taken as valid: :func:`run_chain` validates its ChainConfig
    before calling this.
    """
    scatter = check_symmetric(scatter, "scatter")
    p = scatter.shape[0]
    if p < 2:
        raise ValueError("need at least two variables")
    if n < 1:
        raise ValueError("sample size must be positive")
    tau = np.ones((p, p))
    np.fill_diagonal(tau, 0.0)
    return GibbsState(
        omega=np.eye(p),
        tau=tau,
        lam=np.ones(p),
        scatter=scatter,
        n=int(n),
        r=float(r),
        s=float(s),
    )


def _outer(x):
    # x x' as exact elementwise products, bitwise equal to x[:, None] * x and
    # so exactly symmetric, at a fraction of the broadcast's cost.  A fused
    # A - x x' update would round differently and can break that symmetry.
    out = np.zeros((x.shape[0], x.shape[0]))
    blas.dger(1.0, x, x, a=out.T, overwrite_a=1)
    return out


def make_partition(state, i, sigma):
    """Partition the state around column i (0-based), masked in natural order.

    Every block keeps length p and slot i is decoupled: it is zero in
    omega11_inv, s12 and beta and one in tau12.  sigma is Omega^{-1}, the
    one :func:`sweep` carries; the partition reads ``Omega11^{-1} = Sigma -
    sigma_i sigma_i' / sigma_ii`` from it in O(p^2), with row and column i
    set to zero.
    """
    p = state.omega.shape[0]
    if not 0 <= i < p:
        raise IndexError(f"column {i} out of range for dimension {p}")
    # Scaling sigma12 by 1/sqrt(sigma22) keeps the outer product, and so the
    # block, exactly symmetric.  Row i of the exactly symmetric sigma is its
    # column i.
    u = sigma[i] * (1.0 / math.sqrt(sigma[i, i]))
    omega11_inv = _outer(u)
    np.subtract(sigma, omega11_inv, out=omega11_inv)
    omega11_inv[i] = 0.0
    omega11_inv[:, i] = 0.0
    s12 = state.scatter[i].copy()
    s12[i] = 0.0
    tau12 = state.tau[i].copy()
    tau12[i] = 1.0
    beta = state.omega[i].copy()
    beta[i] = 0.0
    return ColumnPartition(
        omega11_inv=omega11_inv,
        s12=s12,
        s22=float(state.scatter[i, i]),
        tau12=tau12,
        lambda22=float(state.lam[i]),
        beta=beta,
        omega22=float(state.omega[i, i]),
    )


def _factor_c_inverse(part):
    """Lower Cholesky factor of C^{-1} = (s22 + 2*lambda22) Omega11^{-1} +
    diag(1/tau12), formed in a fresh array; the partition is not mutated."""
    cinv = (part.s22 + 2.0 * part.lambda22) * part.omega11_inv
    diag = cinv.reshape(-1)[:: cinv.shape[0] + 1]
    diag += 1.0 / part.tau12
    L = pd_check(cinv)
    if L is None:
        raise ValueError("conditional covariance not positive definite")
    return L


def compute_c_matrix(part):
    """Conditional covariance C = ((s22 + 2*lam22) Omega11^{-1} + D_tau^{-1})^{-1}.

    A reference for checking the beta draws; the samplers themselves only
    ever factor C^{-1} and never form C.
    """
    if np.any(part.tau12 <= 0.0):
        raise ValueError("tau12 entries must be positive")
    return invert_from_factor(_factor_c_inverse(part))


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
    beta, _ = lapack.dtrtrs(L, y, lower=1, trans=1)
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
    zz = float(z @ z)
    if not zz > 0.0:
        raise ValueError("hit-and-run direction has zero length")
    L = _factor_c_inverse(part)
    d, _ = lapack.dtrtrs(L, z, lower=1, trans=1)
    d *= 1.0 / math.sqrt(zz)
    beta = part.beta
    v = part.omega11_inv @ d
    b = float(beta @ v)
    mu = -(float(part.s12 @ d) + (part.s22 + 2.0 * part.lambda22) * b
           + float((beta / part.tau12) @ d))
    gamma = part.omega22 - float(beta @ (part.omega11_inv @ beta))
    lo, hi = hit_and_run_interval(float(d @ v), b, gamma)
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
    return _clamp(rates, LAMBDA_BOUNDS)


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
    odds <= r.  The draws are clamped to TAU_BOUNDS.
    """
    a = np.maximum(abs_omega, EPS_OMEGA)
    scale = a / lam
    k = half_nu2 / (a * lam)
    r = k + 2.0
    r *= k
    np.sqrt(r, out=r)
    r += k + 1.0
    np.divide(1.0, r, out=r, where=odds > r)
    r *= scale
    return _clamp(r, TAU_BOUNDS)


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
    O(p^2) updates of the module docstring; the gap between the Sigma
    carried through the previous sweep and the fresh one goes into
    ``audit.sigma_drift_max``.  Then the sweep draws its random bank (see
    the module docstring).

    Each column update advances the audit by one.  It counts a violation
    when the Schur test fails on the matrix holding the new off-diagonal
    column and the old diagonal entry; the hit-and-run path never fails
    it, the unconstrained path records the failure and keeps going.  A
    non-positive gamma draw would break the column-boundary invariant, so
    it is an error rather than a count.

    A chain's first sweep, the one that finds ``state.sigma`` still None,
    applies the guard of both samplers: column 1 has not been informed by
    any update yet, so it keeps its initial off-diagonals and only its
    diagonal moves.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {kind!r}")
    L = pd_check(state.omega)
    if L is None:
        raise ValueError("omega is not positive definite at the start of the sweep")
    sigma = invert_from_factor(L)
    first_sweep = state.sigma is None
    if not first_sweep:
        drift = float(abs(state.sigma - sigma).max() / abs(sigma).max())
        audit.sigma_drift_max = max(audit.sigma_drift_max, drift)
    state.sigma = sigma
    hrs = kind == "hrs"
    p = state.omega.shape[0]
    omega, tau, lam = state.omega, state.tau, state.lam
    schur_floor = PD_TOL * PD_TOL

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
        stage = "partition"
        try:
            part = make_partition(state, i, sigma)

            beta = part.beta
            if not (first_sweep and i == 0):
                stage = "beta"
                if hrs:
                    beta = hrs_update_beta(part, z_bank[i], kappa_bank[i])
                else:
                    beta = bgs_update_beta(part, z_bank[i])
                omega[i] = beta
                omega[:, i] = beta
                omega[i, i] = part.omega22
            v = part.omega11_inv @ beta
            q = float(beta @ v)
            beta_failed = not part.omega22 - q > schur_floor

            stage = "gamma"
            gam = update_gamma(part, gamma_bank[i])
            if not gam > 0.0:
                raise RuntimeError(f"gamma draw {gam!r} is not positive")
            omega[i, i] = gam + q
            np.add(part.omega11_inv, _outer(v * (1.0 / math.sqrt(gam))), out=sigma)
            v *= -1.0 / gam
            sigma[i] = v
            sigma[:, i] = v
            sigma[i, i] = 1.0 / gam

            stage = "lambda"
            abs_omega = np.abs(omega[i])
            lam_row = update_lambda_column(abs_omega, state.s, lambda_bank[i])
            lam[i] = lam_row[i]

            stage = "tau"
            tau_row = update_tau_column(lam_row, abs_omega, half_nu2_bank[i], odds_bank[i])
            tau[i] = tau_row
            tau[:, i] = tau_row
            tau[i, i] = 0.0
        except Exception as exc:
            raise RuntimeError(
                f"column {i} failed at stage {stage}: {exc}") from exc

        audit.record(beta_failed)

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
