"""Block Gibbs machinery for the Bayesian adaptive graphical LASSO.

Two samplers share every update except the off-diagonal step:

* ``"bgs"`` draws each off-diagonal column from its unconstrained normal
  full conditional.  That draw can push the partially updated precision
  matrix out of the positive definite cone, which is exactly what the
  violation audit counts.
* ``"hrs"`` draws the same column by a hit-and-run move restricted to the
  set where the partially updated matrix stays positive definite, so a
  chain started at a positive definite matrix never leaves the cone.

A sweep visits every column once.  For column i the matrices are viewed
through the symmetric permutation that moves i last, giving the blocks

    omega = [[Omega11, beta], [beta', w22]]

and the Schur complement ``gamma = w22 - beta' Omega11^{-1} beta``.
gamma > 0 together with a positive definite Omega11 is equivalent to the
whole matrix being positive definite.  Following Wang (2012), a column
update draws beta, then gamma, and rebuilds ``w22 = gamma + beta'
Omega11^{-1} beta``; gamma > 0, so omega is positive definite again at
every column boundary whatever beta was drawn.  The only moment bgs can
leave the cone is between the off-diagonal write and the diagonal write,
and that is the moment the audit checks.

The sweep carries ``Sigma = Omega^{-1}`` across columns (Wang's own
bookkeeping).  One Cholesky factorisation of omega per sweep gives Sigma
and asserts the column-boundary invariant; then, per column,

* the partition reads ``Omega11^{-1} = Sigma11 - sigma12 sigma12' / sigma22``;
* the audit is the Schur test ``w22 - beta' Omega11^{-1} beta > PD_TOL**2``
  on the matrix holding the new beta and the old w22;
* after the gamma draw, with ``v = Omega11^{-1} beta``, Sigma becomes
  ``Sigma11 = Omega11^{-1} + v v' / gamma``, ``sigma12 = -v / gamma``,
  ``sigma22 = 1 / gamma``.

All three cost O(p^2), so the one O(p^3) step of a column is the Cholesky
factorisation of the inverse conditional covariance that the beta draw
needs.

Randomness comes in one bank per sweep.  Right after the sweep-start
factorisation, :func:`sweep` makes five bulk calls on the generator, in
this order and with these shapes whatever the state:

1. ``standard_normal((p, p - 1))``: row i is the bgs normal vector of
   column i, or the unnormalised hrs direction;
2. ``standard_gamma(n/2 + 1, p)``: entry i is the gamma draw of column i
   before its rate is applied;
3. ``standard_gamma(r + 1, (p, p))``: row i holds the p - 1 off-diagonal
   and then the diagonal shrinkage-rate draws of column i;
4. ``standard_normal((p, p - 1))`` and
5. ``random((p, p - 1))``: row i feeds the inverse-Gaussian transform of
   column i's latent scales.

Every column update is then a pure transform of row i of the bank and the
state.  The only draws made on the live stream are hrs's truncated-normal
steps, whose count varies (retries, the tail sampler); bgs consumes
exactly the bank.  The very first column of a chain skips its beta draw
but its bank row is drawn all the same.  A change made only for speed
keeps the bank and the arithmetic fixed, so it leaves every seeded
artifact byte-identical.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .distributions import michael_schucany_haas, sample_truncated_normal
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
    """Blocks of the state for one column, in move-to-last coordinates."""

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


# Column i is partitioned in move-to-last order: the other variables are
# rest = (0, ..., i-1, p-1, i+1, ..., p-2), the leading index range with p - 1
# in slot i.  The helpers below read and write M[rest, i] and
# M[np.ix_(rest, rest)] with slices and a patch of slot i, which costs a
# fraction of indexing with a rest array and moves exactly the same values.

def _column(M, i):
    # A copy of M[rest, i].
    col = M[:-1, i].copy()
    if i < M.shape[0] - 1:
        col[i] = M[-1, i]
    return col


def _put_column(M, i, col):
    # M[rest, i] = M[i, rest] = col; M[i, i] keeps its value.
    mii = M[i, i]
    M[:-1, i] = col
    M[i, :-1] = col
    if i < M.shape[0] - 1:
        M[-1, i] = M[i, -1] = col[i]
    M[i, i] = mii


def _take_block(M, i):
    # A copy of M[np.ix_(rest, rest)].
    block = M[:-1, :-1].copy()
    if i < M.shape[0] - 1:
        block[i] = M[-1, :-1]
        block[:, i] = M[:-1, -1]
        block[i, i] = M[-1, -1]
    return block


def _put_block(M, i, block):
    # M[np.ix_(rest, rest)] = block, except that row and column i of M are
    # left holding stale values for the caller to overwrite.
    M[:-1, :-1] = block
    if i < M.shape[0] - 1:
        M[-1, :-1] = block[i]
        M[:-1, -1] = block[:, i]
        M[-1, -1] = block[i, i]


def make_partition(state, i, sigma):
    """Partition the state around column i (0-based).

    sigma is Omega^{-1}, the one :func:`sweep` carries; the partition reads
    ``Omega11^{-1} = Sigma11 - sigma12 sigma12' / sigma22`` from it in
    O(p^2).
    """
    p = state.omega.shape[0]
    if not 0 <= i < p:
        raise IndexError(f"column {i} out of range for dimension {p}")
    # Scaling sigma12 by 1/sqrt(sigma22) keeps the outer product, and so the
    # block, exactly symmetric.
    u = _column(sigma, i) * (1.0 / math.sqrt(sigma[i, i]))
    omega11_inv = _take_block(sigma, i)
    omega11_inv -= u[:, None] * u
    return ColumnPartition(
        omega11_inv=omega11_inv,
        s12=_column(state.scatter, i),
        s22=float(state.scatter[i, i]),
        tau12=_column(state.tau, i),
        lambda22=float(state.lam[i]),
        beta=_column(state.omega, i),
        omega22=float(state.omega[i, i]),
    )


def _factor_c_inverse(part):
    """C^{-1} = (s22 + 2*lambda22) Omega11^{-1} + diag(1/tau12) and its lower
    Cholesky factor.  C^{-1} is a fresh array; the partition is not mutated."""
    cinv = (part.s22 + 2.0 * part.lambda22) * part.omega11_inv
    diag = cinv.reshape(-1)[:: cinv.shape[0] + 1]
    diag += 1.0 / part.tau12
    L = pd_check(cinv)
    if L is None:
        raise ValueError("conditional covariance not positive definite")
    return cinv, L


def compute_c_matrix(part):
    """Conditional covariance C = ((s22 + 2*lam22) Omega11^{-1} + D_tau^{-1})^{-1}.

    A reference for checking the beta draws; the samplers themselves only
    ever factor C^{-1} and never form C.
    """
    if np.any(part.tau12 <= 0.0):
        raise ValueError("tau12 entries must be positive")
    return invert_from_factor(_factor_c_inverse(part)[1])


def bgs_update_beta(part, z):
    """Unconstrained draw of the off-diagonal column: N(-C s12, C).

    z is a vector of p - 1 standard normals.  One Cholesky factor
    L L' = C^{-1} gives both moments: ``L^{-T} (z - L^{-1} s12) =
    -C s12 + L^{-T} z`` has mean -C s12 and covariance L^{-T} L^{-1} = C,
    at the cost of two triangular solves.  Nothing keeps this draw inside
    the positive definite cone; that is the baseline behaviour the audit
    measures.
    """
    _, L = _factor_c_inverse(part)
    y, _ = lapack.dtrtrs(L, part.s12, lower=1)
    np.subtract(z, y, out=y)
    beta, _ = lapack.dtrtrs(L, y, lower=1, trans=1)
    return beta


def hit_and_run_interval(alpha, beta, omega11_inv, gamma):
    """Feasible step-size interval along direction alpha.

    The column beta + kappa*alpha keeps the updated matrix positive
    definite iff a*kappa**2 + 2*b*kappa + c < 0 with

        a = alpha' Omega11^{-1} alpha,  b = beta' Omega11^{-1} alpha,
        c = -gamma.

    a > 0 and c < 0 whenever the current state is positive definite, so
    both roots are real and the interval strictly brackets kappa = 0.
    """
    if gamma <= 0.0:
        raise ValueError("state not positive definite")
    v = omega11_inv @ alpha
    a = float(alpha @ v)
    b = float(beta @ v)
    disc = math.sqrt(b * b + a * gamma)
    return (-b - disc) / a, (-b + disc) / a


def hrs_update_beta(part, z, rng):
    """Hit-and-run draw of the off-diagonal column inside the PD region.

    z is a vector of p - 1 standard normals; rng feeds the truncated-normal
    step.  The move happens in the whitened coordinates of the conditional
    covariance C: the direction of z there is uniform on the sphere and
    maps to d = L^{-T} z here, and the exact conditional of the step size
    kappa along d is a univariate normal with

        mu     = -(s12'd + beta' Cinv d) / (d' Cinv d)
        sigma2 = 1 / (d' Cinv d)

    truncated to the feasibility interval.  Whitening matters: the latent
    scales tau span many orders of magnitude, and an isotropic direction
    would make every step as small as the most-shrunk coordinate allows,
    stalling the whole chain.  Cinv is factored directly (it is the
    readily available inner matrix), so C itself is never formed.  The
    returned column always satisfies the Schur condition.  A zero z gives
    no direction and raises ValueError.
    """
    cinv, L = _factor_c_inverse(part)
    # L^{-T} z has covariance (L L')^{-1} = C; the length of z and of d
    # cancels in every formula below once the direction is normalized.
    d, _ = lapack.dtrtrs(L, z, lower=1, trans=1)
    dd = float(d @ d)
    if not dd > 0.0:
        raise ValueError("hit-and-run direction has zero length")
    d /= math.sqrt(dd)
    w = cinv @ d
    denom = float(d @ w)
    mu_k = -(float(part.s12 @ d) + float(part.beta @ w)) / denom
    sigma_k = math.sqrt(1.0 / denom)
    gamma = float(part.omega22 - part.beta @ (part.omega11_inv @ part.beta))
    lo, hi = hit_and_run_interval(d, part.beta, part.omega11_inv, gamma)
    kappa = sample_truncated_normal(mu_k, sigma_k, lo, hi, rng)
    return part.beta + kappa * d


def update_gamma(part, g):
    """Schur complement draw Ga(n/2 + 1, s22/2 + lambda22), always positive.

    g is a Ga(n/2 + 1, 1) draw (or an array of them); dividing by the rate
    gives the conditional draw.
    """
    return g * (1.0 / (part.s22 / 2.0 + part.lambda22))


def update_lambda_column(beta, omega22, s, g):
    """Shrinkage rates for one column: Ga(r + 1, s + |omega_ij|), clamped.

    g holds len(beta) + 1 draws of Ga(r + 1, 1).  The off-diagonal rates
    use |beta| and the last, diagonal one the new omega22.  Returns the
    off-diagonal rates and the diagonal rate.
    """
    draws = np.empty(beta.shape[0] + 1)
    np.abs(beta, out=draws[:-1])
    draws[:-1] += s
    draws[-1] = s + omega22
    np.divide(1.0, draws, out=draws)
    draws *= g
    _clamp(draws, LAMBDA_BOUNDS)
    return draws[:-1], float(draws[-1])


def update_tau_column(lambda12, beta, nu, u):
    """Latent scales for one column: 1/tau ~ IG(lambda/|omega|, lambda**2).

    nu (standard normals) and u (uniforms on [0, 1)) feed the
    Michael-Schucany-Haas transform, one of each per entry.  |omega| is
    floored at EPS_OMEGA so exact zeros cannot produce infinite
    parameters; the reciprocal draws are clamped to TAU_BOUNDS.
    """
    denom = np.maximum(np.abs(beta), EPS_OMEGA)
    upsilon = michael_schucany_haas(lambda12 / denom, lambda12 * lambda12, nu, u)
    return _clamp(1.0 / np.fmax(upsilon, 1e-300), TAU_BOUNDS)


def _clamp(x, bounds):
    # np.clip(x, *bounds) in place, NaN included, without its dispatch overhead.
    np.maximum(x, bounds[0], out=x)
    return np.minimum(x, bounds[1], out=x)


def sweep(state, kind, audit, rng, *, skip_first_beta=False):
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

    skip_first_beta reproduces the guard both samplers apply on the very
    first pass, before column 1 has been informed by any update: that one
    column keeps its initial off-diagonals and only the diagonal moves.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {kind!r}")
    L = pd_check(state.omega)
    if L is None:
        raise ValueError("omega is not positive definite at the start of the sweep")
    sigma = invert_from_factor(L)
    if state.sigma is not None:
        drift = float(abs(state.sigma - sigma).max() / abs(sigma).max())
        audit.sigma_drift_max = max(audit.sigma_drift_max, drift)
    state.sigma = sigma
    hrs = kind == "hrs"
    p = state.omega.shape[0]
    omega, tau, lam = state.omega, state.tau, state.lam
    schur_floor = PD_TOL * PD_TOL

    gen = rng.gen
    z_bank = gen.standard_normal((p, p - 1))
    gamma_bank = gen.standard_gamma(state.n / 2.0 + 1.0, p).tolist()
    lambda_bank = gen.standard_gamma(state.r + 1.0, (p, p))
    nu_bank = gen.standard_normal((p, p - 1))
    u_bank = gen.random((p, p - 1))

    for i in range(p):
        stage = "partition"
        try:
            part = make_partition(state, i, sigma)

            beta = part.beta
            if not (skip_first_beta and i == 0):
                stage = "beta"
                if hrs:
                    beta = hrs_update_beta(part, z_bank[i], rng)
                else:
                    beta = bgs_update_beta(part, z_bank[i])
                _put_column(omega, i, beta)
            v = part.omega11_inv @ beta
            q = float(beta @ v)
            beta_failed = not omega[i, i] - q > schur_floor

            stage = "gamma"
            gam = update_gamma(part, gamma_bank[i])
            if not gam > 0.0:
                raise RuntimeError(f"gamma draw {gam!r} is not positive")
            omega22 = gam + q
            omega[i, i] = omega22
            w = v * (1.0 / math.sqrt(gam))
            _put_block(sigma, i, part.omega11_inv + w[:, None] * w)
            _put_column(sigma, i, v * (-1.0 / gam))
            sigma[i, i] = 1.0 / gam

            stage = "lambda"
            lam12, lam[i] = update_lambda_column(beta, omega22, state.s, lambda_bank[i])

            stage = "tau"
            tau12 = update_tau_column(lam12, beta, nu_bank[i], u_bank[i])
            _put_column(tau, i, tau12)
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
        sweep(state, config.kind, audit, rng, skip_first_beta=(k == 0))
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
