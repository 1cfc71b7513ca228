"""Block Gibbs machinery for the Bayesian adaptive graphical LASSO.

Two samplers share every update except the off-diagonal step:

* ``"bgs"`` draws each off-diagonal column from its unconstrained normal
  full conditional, where n > p by an overrelaxed step, and there ends
  each sweep with a Metropolis move on omega's global scale (both below).
  The column draw can push the partially updated precision matrix out of the positive
  definite cone, which is exactly what the violation audit counts.
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
Omega11^{-1}, s12 and z, so the inverse conditional covariance
``C^{-1} = (s22 + 2 lambda22) Omega11^{-1} + diag(1/tau12)`` has a zero
row and column i but for its (i, i) entry 1/tau12[i], and bgs's two
solves and hrs's direction come out exactly 0 in slot i whatever tau12[i]
is (slot i, below).  Omega is then updated in place with one row write and
one column write, and Sigma with one rank-1 update (below).

The shrinkage variables are not chain state: a sweep draws them all once,
as it begins.  Given everything else, the rates lambda_jk and the latent
scales tau_jk are independent and depend on omega_jk alone, so drawing
them from omega as it stands is an exact conditional update, and a sweep is
a deterministic-scan Gibbs sampler for the posterior: one block of every
lambda and tau, then p column blocks.  This is Wang's (2012) scan, which
updates the latent scales once per pass, with the update moved from the
end of a pass to the start of the next.  As the sweep begins, one call
draws the rates ``Ga(r + 1, s + |omega_jk|)`` of the upper triangle of
omega, diagonal included, in ``upper_index(p)`` order, and one more the
latent scales from them; 1/tau is then expanded once to a symmetric p x p
array, so column j reads the same 1/tau_jk in slot k as column k reads in
slot j.  Column i reads its row of that array as 1/tau12, and c = s_ii +
2 lambda_ii and its gamma draw from vectors computed once per sweep.
A chain's first sweep follows Wang's order instead: column i draws the
rates and scales of its pairs j < i, from omega[i, :i] as columns 0..i-1
left it and from those pairs' bank entries, and reads unit tau beyond slot
i and a unit lambda_ii, which that order has not drawn yet when column i
reads them; bgs draws beta there without overrelaxation (below).

Slot i holds two values that reach no output.  tau has no diagonal, but
from a chain's second sweep on slot i of 1/tau12 holds the 1/tau_ii that
the sweep's draw makes from |omega_ii| all the same; and both steps read
the old column as row i of omega in place, omega_ii in slot i.  1/tau_ii
sits only on C^{-1}'s decoupled (i, i) pivot, so no other entry of the
factor, the solves or the step moves, and every product that reads
omega_ii multiplies it, or omega_ii / tau_ii, by a zero, a +0 of
Omega11^{-1}'s row and column i or hrs's d_i, so hrs's column holds
omega_ii until the diagonal write.  bgs's ``daxpy`` adds alpha omega_ii to
the solves' exact 0 in slot i, and the row and column writes carry it to
(i, i), where only Omega11^{-1}'s +0 row and column read it, and the
diagonal write overwrites it.
``test_slot_i_is_decoupled_whatever_tau_ii_is`` states the first as a
behaviour: forcing every such tau_ii to 1e-300 or to 1e307 leaves omega,
Sigma and the audit byte-identical.  The bitwise reference test, whose
reference reads slot i as a unit tau and a zero beta, states both.
1/tau_ii need only be finite and positive, so that the pivot is, and it is
drawn by the same formula as every tau_jk, so what ``S_FLOOR`` keeps for
every latent scale holds for it too: tau_ii is a normal float, so 1/tau_ii
is finite.

A column copies only what it must, and :func:`sweep` hands each column
step exactly the arrays and scalars it reads.  S is fixed for the chain,
so each sweep makes one copy of it with a zero diagonal, and s12 is a row
view of that copy.  Both steps read the old column in place, and hrs's
writes the new column there, as bgs's row write does; no step copies a
row of omega.  The sweep reads omega22 before the column's writes, and ``c =
s22 + 2 lambda22``, computed once per sweep for every column, serves the
C^{-1} factor, the hrs step and the gamma rate.
Besides the bank and the sweep's shrinkage arrays, a sweep allocates one
p x p workspace and its diagonal view, in which every column forms and
factors C^{-1}, once for either sampler.

Code that runs once per column keeps its speed idioms: scalars read with
``.item()``, banks as lists, the workspace, and positional f2py calls and
``dscal``, measured below.  Code that runs once per sweep, the bank
transforms and the lambda/tau draws, is written as its formula, and its
helpers only read their arguments.

The sweep carries ``Sigma = Omega^{-1}`` across columns (Wang's own
bookkeeping).  One Cholesky factorisation of omega per sweep gives Sigma
and asserts the column-boundary invariant; then, per column,

* :func:`make_partition` downdates Sigma in place to ``Omega11^{-1} =
  Sigma - sigma_i sigma_i' / sigma_ii``, row and column i set to zero;
* the audit is the Schur test ``w22 - beta' Omega11^{-1} beta > 0`` on
  the matrix holding the new beta and the old w22;
* after the gamma draw, with ``v = Omega11^{-1} beta``, Sigma becomes
  ``Omega11^{-1} + (v - e_i)(v - e_i)' / gamma`` in place, one ``dsyr`` on
  v with slot i set to -1.  Row and column i of Omega11^{-1} are +0, so
  it writes them as ``-v / gamma`` and ``sigma_ii = 1 / gamma`` exactly,
  and the other entries as ``Omega11^{-1} + v v' / gamma``.

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
``ddot``, ``dscal``, ``daxpy``, ``dtrtrs`` and ``dpotrf``) is bound once,
in :mod:`bayesglasso.matrixcore` (see its module docstring), and this
module imports each as a global of its own, so a call is one global
lookup.  Each is called with positional arguments only: f2py parses
keyword arguments much more slowly.  At p = 30 on a 2-vCPU x86-64 guest,
the best of 25 timings per call went from 1.3 to 0.6 us for ``dsyr``, 1.3
to 0.7 for ``dsymv`` and 1.6 to 1.4 for ``dtrtrs``, and a column makes 8
(bgs) or 16 (hrs) such calls.  The comment above each binding quotes the
f2py signature its positional calls follow, and a test pins that line, so
a scipy that reordered the optional arguments fails the suite instead of
binding a flag to the wrong parameter.  The bitwise reference test keeps
keyword calls, so it checks the positional ones too.

hrs's truncated-normal step needs ``scipy.special``, which
:mod:`bayesglasso.distributions` imports on first need.  :func:`run_chain`
loads it for an hrs chain before it starts its timer, so the first hrs
chain's ``elapsed_seconds`` does not hold the import; a bgs chain never
loads it.

hrs's direction is scaled to unit length with BLAS ``dscal``, and the two
vectors its step moves, the column and Omega11^{-1} times it, with
``daxpy``.  On the same guest, numpy's array-times-float costs 0.7-1.4 us
per call and f2py's ``dscal`` 0.14-0.25 us, and both make the same one
IEEE multiply per entry, so the bits do not change; ``daxpy`` rounds as
the core's kernel does, fused on some cores, so the bitwise reference test
calls it too.  Both update in place only a contiguous float64 array and
return an updated copy of any other, so the value used is always the one
returned, and the step raises unless the ``daxpy`` on omega's row returned
that row.

A sweep makes its draws with numpy's overflow raised, at the cost of one
``np.errstate`` per sweep (about 1 us).  On data in units of 1e100, c
Omega11^{-1} overflows, since both factors grow with S; ``dpotrf`` accepts
the infinite pivots, which give bgs's solves 0 in their slots, a silent
wrong answer, and hrs a = 0.  Raised, the overflow fails the column at
stage beta and names itself.  Testing C^{-1}'s diagonal in each column
instead, with one ``ddot``, cost 1-2% of a p = 30 sweep.

A NaN in C^{-1} is caught once per column, on the column's result, not in
the factor.  ``dpotrf`` returns success on input holding a NaN, but it
carries the NaN to the pivot of that row, the triangular solves carry it
into beta, and ``dsymv`` into q = beta' Omega11^{-1} beta; so the sweep
tests q for finiteness (0.04 us), and hit-and-run's interval already
rejects the NaN a = d' Omega11^{-1} d that such a factor gives.  Scanning
each factor's diagonal cost 2.7 us per column at p = 30.  An indefinite
C^{-1} still fails ``dpotrf``.  :func:`pd_check`, which factors omega at
each sweep start, keeps the scan.

Randomness comes in one bank per sweep.  Right after the sweep-start
factorisation, :func:`sweep` makes five bulk calls on the generator, in
this order and with these shapes whatever the state and whichever the
sampler:

1. ``standard_normal((p, p))``, diagonal set to zero: row i is the bgs
   normal vector of column i, or hrs's direction z; the (0, 0) entry, read
   before the zeroing, is the normal of bgs's scale move where n > p;
2. ``standard_gamma(n/2 + 1, p)``: entry i is the gamma draw of column i
   before its rate is applied;
3. ``standard_gamma(r + 1, d)``, d = p(p + 1)/2, one entry per unordered
   pair {j, k} and one per diagonal entry, in ``upper_index(p)`` order
   (``pair_index(p)[j, k]`` is the position of {j, k}): the shrinkage-rate
   draw of omega_jk;
4. ``standard_normal(d)`` and
5. ``random(d)``: the entry of pair {j, k} feeds the inverse-Gaussian
   draw of tau_jk, held as nu**2 / 2 and u / (1 - u).  Bank 5's entry at
   the diagonal position of i is the uniform that the exact inverse CDF
   turns into hrs's truncated-normal step in column i; bgs reads the
   entry of the pair {0, 0} as its scale move's uniform.

Those entries are free because tau has no diagonal: the tau_ii that the
sweep's draw makes from one moves no bit (slot i, above), and no other
column reads it.  So each step reads a fresh uniform on which nothing else
that reaches an output depends, and the uniforms of bgs's other diagonal
entries reach no output.

Every column update is then a pure transform of row i of bank 1, entry i
of bank 2, the sweep's shrinkage draw and the state, the shrinkage draw
one of banks 3-5 and omega as the sweep begins (in a chain's first sweep,
column i's draw one of its pairs' entries and omega[i, :i] as column i
begins), and bgs's scale move of its two bank entries and the swept
state, so a sweep consumes exactly the bank.  Some entries of
banks 3-5 feed draws that are never read or that move no bit, and they are
drawn all the same: the tau_ii draws, and in a chain's first sweep the
diagonal entries of banks 3 and 4.  A change made only for speed keeps the
bank and the arithmetic fixed, so it leaves every seeded artifact
byte-identical.

bgs takes two exact steps beyond Wang's kernel where n > p, which raise
its effective samples per sweep for a few percent of a sweep's time; hrs
takes neither.

* Its beta draw is Adler's (1981) overrelaxation, beta' = mu + alpha
  (beta - mu) + sqrt(1 - alpha**2) L^{-T} z, with mu = -C s12 and alpha =
  ``OVERRELAX``.  It leaves beta's conditional N(mu, C) invariant and is
  reversible with respect to it (Barone and Frigessi 1990; Neal 1998).
  Given the rest, beta is independent of gamma, and (beta, omega22) ->
  (beta, gamma) has unit Jacobian, so overrelaxing beta with gamma held and
  then drawing gamma afresh leaves the posterior invariant.  It is formed
  as L^{-T} (sqrt(1 - alpha**2) z - L^{-1} (1 - alpha) s12) + alpha beta:
  the sweep scales bank 1 and its copy of S once each, and the one
  per-column cost is a ``daxpy`` on the old column.  A chain's first sweep
  draws beta plainly, alpha = 0, as it starts from no draw of the chain's
  law.  On circle p = 30, n = 50 replications (``sweep``'s first-sweep
  comment), pooled diagonal / log det ESS per sweep read 0.105 / 0.192 at
  alpha = -0.5, 0.114 / 0.182 at -0.7 and 0.119 / 0.145 at -0.9, against
  0.071 / 0.062 with neither step; overrelaxing the first sweep too read
  0.109 / 0.184.
* Alone, that speeds the diagonal but slows omega's global scale, the one
  direction no column update moves as a whole, so each sweep ends with
  :func:`scale_move`: a random-walk Metropolis step on eta = log a that
  maps omega to a omega and the carried Sigma to Sigma / a.  It is Liu and
  Sabatti's (2000) group move on the multiplicative group {a > 0} acting
  on omega's d free entries: a Metropolis step with a proposal symmetric
  in eta that targets pi(a omega) a^d, the posterior density of a omega
  times the map's Jacobian, leaves the posterior invariant.  Its normal and
  its uniform are bank entries that nothing else reads (the bank, above).

Where n <= p, S is singular, and bgs's omega can grow along null(S)
without settling (ROADMAP item 16).  The move is exact, so it changes how
fast a chain gets there, not where the posterior is, but it gets there
faster: at circle p = 60, n = 10 (data ``RngStream(9)``, identity start,
:func:`sweep` alone, chains ``RngStream(1)`` and ``RngStream(2)``) log det
omega after 4000 sweeps read 121.6 and 101.0 without either step, 126.6
and 113.1 with overrelaxation alone and 236.3 and 401.4 with both.  And
overrelaxation alone costs log det ESS: on standardized 50 x 100 ar2 fits
(``sweep``'s first-sweep comment) it read 0.137 per sweep against 0.223
without.  So where n <= p, the paper's p > n regime among them, bgs keeps
Wang's kernel bit for bit until item 16 is resolved.

A bgs chain's burn-in begins with a scale warm-up.  Started at the
identity, bgs overshoots in its first sweep along the one direction that
no column update moves as a whole, omega's global scale, and falls back
only slowly: on the benchmark's standardized 50 x 100 ar2 fit (seed 1,
chain seed 100), log det omega read 88.6 after sweep 1, 83.6 after sweep
10 and 54.3 after sweep 50, around a stationary level near 50.  So
:func:`run_chain` calls :func:`settle_scale` after each of a bgs chain's
first min(burn_in, ``SCALE_WARMUP``) sweeps.  Where np > 2rd, with d =
p(p + 1)/2, it moves omega along its orbit {a omega : a > 0} to a =
(np - 2rd) / tr(S omega), the orbit's mode once every a |omega_ij| >> s,
in O(p^2), which takes log det to 46.5 after sweep 1 on that chain;
elsewhere it moves nothing (see :func:`settle_scale` for why).  The step
draws no random number and :func:`sweep` does not run it, so the bank and
the kernel are unchanged, and hrs never takes it, so the warm-up leaves
hrs untouched.  It runs only inside burn-in because it is a deterministic
map, not a Markov kernel: every retained draw comes from the sweep's
kernel alone.  It is capped because, run after every sweep, it holds the
scale where the closed form puts it, below the chain's own level: on the
ar2 chain log det read 37.8 after sweep 10 and 27.5 after sweep 50, and
44.4 five sweeps after the warm-up ended; at circle p = 60, n = 10 (data
``RngStream(9)``, chain ``RngStream(1)``) log det omega after 4000 sweeps
read -6.5 with every sweep settled against 121.6 for plain bgs.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .distributions import normal_tail_ufuncs, sample_truncated_normal
from .matrixcore import (_daxpy, _ddot, _dpotrf, _dscal, _dsymv, _dsyr, _dtrtrs, check_integer,
                         check_positive, check_symmetric, invert_from_factor, pair_index,
                         pd_check, strict_lower, upper_index)

SAMPLER_KINDS = ("bgs", "hrs")

# Smallest s a chain accepts.  A rate is g/(s + |omega_ij|), so whatever
# the state the latent scale t / lambda that update_tau_column draws with
# probability t / (t + |omega_ij|) is at least nu**2 (s + |omega_ij|)**2 /
# g**2 >= nu**2 s**2 / g**2; the other, |omega_ij|**2 / (t lambda), is
# drawn with a probability that vanishes with |omega_ij|.  Below s =
# 1e-154 s**2 is subnormal, and the beta draw's 1/tau could overflow; at
# s = 1e-145 it leaves nu**2 / g**2 18 decades.  At p >> n and small s
# some |omega_ij| fall toward s: on star data at p = 60, n = 5 (data and
# chain RngStream(50), 200 + 1800 sweeps at s = 1e-145) the smallest
# |omega_ij| read 4.59e-122 (bgs) and 1.05e-60 (hrs), and the smallest
# latent scale 6.69e-243 and 4.64e-121.
S_FLOOR = 1e-145

# :func:`run_chain` settles omega's global scale after each of a bgs
# chain's first min(burn_in, SCALE_WARMUP) sweeps (see the module docstring).
SCALE_WARMUP = 50

# alpha of bgs's overrelaxed beta draw, beta' = mu + alpha (beta - mu) +
# sqrt(1 - alpha**2) L^{-T} z (see the module docstring).
OVERRELAX = -0.5


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
    and latent scales tau are not stored: :func:`sweep` draws them all as
    it begins, one per pair and one per diagonal entry, and every draw is
    read within that sweep (see the module docstring).  A chain's first
    sweep draws each column's pairs j < i as the column begins and reads 1
    where Wang's order has not drawn them yet.  Nor are the
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


def _factor_c_inverse(omega11_inv, c, inv_tau12, work, diag):
    """Lower Cholesky factor of C^{-1} = c Omega11^{-1} + diag(inv_tau12),
    with c = s22 + 2 lambda22 and inv_tau12 = 1/tau12, formed and factored
    in place in work.

    C^{-1} is read from the upper triangle of omega11_inv (numpy indexing).
    diag is the diagonal view of work.  The factor is the lower triangle of
    work.T; above its diagonal work.T keeps stale C^{-1} entries, which the
    triangular solves never read.  :func:`sweep` calls it with numpy's
    overflow raised, so a c Omega11^{-1} that overflows raises
    FloatingPointError (see the module docstring).
    """
    cinv = np.multiply(omega11_inv, c, out=work)
    diag += inv_tau12
    L, info = _dpotrf(cinv.T, 1, 0, 1)
    if info != 0:
        raise ValueError("conditional covariance not positive definite")
    return L


def bgs_update_beta(L, s12, z, beta, alpha):
    """Overrelaxed draw of the off-diagonal column from its unconstrained
    normal full conditional N(mu, C), mu = -C s12:

        beta' = mu + alpha (beta - mu) + sqrt(1 - alpha**2) L^{-T} z,

    which for -1 < alpha < 0 (Adler 1981) leaves N(mu, C) invariant and is
    reversible with respect to it; :func:`sweep` passes ``OVERRELAX``, or
    0 in a chain's first sweep and wherever n <= p, which makes it the
    plain draw.

    L is the lower Cholesky factor of C^{-1} from :func:`_factor_c_inverse`,
    and beta the old column.  The scalings come folded into the arguments:
    s12 is (1 - alpha) times the column of S and z is sqrt(1 - alpha**2)
    times a vector of standard normals, each zero in a decoupled slot,
    where C^{-1} has zero off-diagonal entries and a finite positive
    diagonal one.  The one factor L L' = C^{-1} gives both moments, as
    ``L^{-T} (z - L^{-1} s12) + alpha beta``, at the cost of two triangular
    solves and one ``daxpy``, which returns the solve's array.  Slot i of
    the result is alpha times slot i of beta; :func:`sweep` passes row i of
    omega in place, omega_ii in slot i, which moves no bit (see the module
    docstring).  Nothing keeps this draw inside the positive definite cone;
    that is the behaviour the audit measures.
    """
    y = _dtrtrs(L, s12, 1)[0]
    np.subtract(z, y, out=y)
    y = _dtrtrs(L, y, 1, 1, 0, None, 1)[0]
    return _daxpy(beta, y, y.size, alpha)


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
    definite, whose error gives a and gamma.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(gamma)):
        raise ValueError(f"hit-and-run interval needs finite a, b and gamma, got "
                         f"{a!r}, {b!r}, {gamma!r}")
    if not (a > 0.0 and gamma > 0.0):
        raise ValueError(f"state not positive definite: a = {a!r}, gamma = {gamma!r}")
    disc = math.sqrt(b * b + a * gamma)
    if b >= 0.0:
        q = b + disc
        return -q / a, gamma / q
    q = disc - b
    return -gamma / q, q / a


def hrs_update_beta(L, omega11_inv, s12, c, inv_tau12, beta, omega22, z, u):
    """Hit-and-run draw of the off-diagonal column inside the PD region.

    L is the lower Cholesky factor of C^{-1} from :func:`_factor_c_inverse`,
    with c = s22 + 2 lambda22 and inv_tau12 = 1/tau12.  z is a vector of
    standard normals, zero in a decoupled slot as for
    :func:`bgs_update_beta`, and u a uniform on [0, 1), which the exact
    inverse CDF turns into the step; :func:`sweep` passes bank 5's entry at
    column i's diagonal position, whose tau_ii draw moves no bit.
    The move happens in the whitened coordinates x = L' beta, where the
    column's conditional is N(-L^{-1} s12, I): x moves along e = z / |z|,
    uniform on the sphere.  In beta coordinates that is d = L^{-T} e, and
    d' C^{-1} d = 1, so the step size kappa is a unit-variance normal with
    mean

        mu = -(s12'd + c b + (beta * inv_tau12)'d),
        b  = beta' Omega11^{-1} d,

    truncated to the feasibility interval, which needs b anyway.
    Whitening matters: the latent scales tau span many orders of
    magnitude, and an isotropic direction in beta would make every step
    as small as the most-shrunk coordinate allows.

    beta is the old column as :func:`sweep` hands it, row i of omega read
    in place with omega_ii in slot i, which moves no bit (see the module
    docstring).  The step writes the new column beta + kappa d into it,
    which leaves slot i as it was, and returns (beta, v), v = Omega11^{-1}
    times the new column; the column always satisfies the Schur condition.
    Omega11^{-1} is applied twice, to beta and to d: w = Omega11^{-1} beta
    gives both gamma = omega22 - beta'w and b = d'w, and v = w + kappa
    Omega11^{-1} d.  The column and v are each one ``daxpy``, and beta must
    be a contiguous float64 array, as a row of a C-ordered omega is, or
    ValueError is raised.

    The step holds omega22 fixed but moves along N(-C s12, C), which is
    beta's law given gamma = omega22 - beta' Omega11^{-1} beta, not given
    omega22.  So hrs does not target the stated posterior: ``KIND_CLAIMS``
    in ``tests/test_sampler.py`` states it inexact, which makes its P2, P4,
    P5n3 and G3 cases in ``tests/test_posterior.py`` the suite's four strict
    expected failures.
    """
    d = _dscal(1.0 / math.sqrt(_ddot(z, z)), _dtrtrs(L, z, 1, 1)[0])
    # Omega11^{-1} products read its upper triangle, the lower one of its
    # transpose as BLAS sees it.
    o11_t = omega11_inv.T
    w = _dsymv(1.0, o11_t, beta, 0.0, None, 0, 1, 0, 1, 1)
    v = _dsymv(1.0, o11_t, d, 0.0, None, 0, 1, 0, 1, 1)
    b = _ddot(d, w)
    mu = -(_ddot(s12, d) + c * b + _ddot(beta * inv_tau12, d))
    lo, hi = hit_and_run_interval(_ddot(d, v), b, omega22 - _ddot(beta, w))
    kappa = sample_truncated_normal(mu, lo, hi, u)
    if _daxpy(d, beta, d.size, kappa) is not beta:
        raise ValueError("the hit-and-run step needs a C-ordered float64 row of omega")
    return beta, _daxpy(v, w, d.size, kappa)


def update_gamma(c, g):
    """Schur complement draw Ga(n/2 + 1, c/2), always positive.

    c = s22 + 2 lambda22, so the rate c/2 is s22/2 + lambda22.  g is a
    Ga(n/2 + 1, 1) draw (or an array of them); dividing by the rate gives
    the conditional draw.
    """
    return g * (2.0 / c)


def update_lambda_column(abs_omega, s, g):
    """Shrinkage rates of entries of omega: Ga(r + 1, s + |omega_ij|).

    abs_omega holds |omega_ij| for the entries drawn, and g as many draws
    of Ga(r + 1, 1).  :func:`sweep` passes the upper triangle, diagonal
    included, in ``upper_index(p)`` order, or in a chain's first sweep
    column i's pairs j < i.
    """
    return g / (abs_omega + s)


def update_tau_column(lam, abs_omega, half_nu2, odds):
    """Latent scales for rows: 1/tau ~ IG(lambda/a, lambda**2), a = |omega|.

    The draw is the Michael-Schucany-Haas (1976) transform of a standard
    normal nu and a uniform u on [0, 1), in closed form: with h = nu**2 /
    (2 lambda) and t = a + h + sqrt(h (h + 2 a)), the smaller root of the
    transform's quadratic is lambda / t, and

        tau = (t if u (t + a) <= t else a**2 / t) / lambda.

    This form has no cancellation and holds at every a >= 0.  As a -> 0
    the law of 1/tau tends to the Levy law of scale lambda**2, and at a = 0
    the draw is exactly that law's: t = 2h and tau = nu**2 / lambda**2.
    The arguments are arrays of one shape, as
    :func:`update_lambda_column`'s.  half_nu2 holds nu**2 / 2 and odds
    holds u / (1 - u), one per entry: u (t + a) <= t is odds a <= t.  The
    draw is pure: it reads its arguments, abs_omega included, and returns a
    new array.
    """
    h = half_nu2 / lam
    t = abs_omega + h + np.sqrt(h * (h + 2.0 * abs_omega))
    return np.where(odds * abs_omega <= t, t, abs_omega * abs_omega / t) / lam


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
    carried through the previous sweep and the fresh one is the sweep's
    Sigma drift, 0 in a chain's first sweep.  Then the sweep draws its
    random bank, the same five calls for either kind (see the module
    docstring).  The kinds differ in the beta step and in what follows the
    last column: bgs's step draws a new column, which the sweep writes to
    omega's row and multiplies by Omega11^{-1}, from bank 1 and a copy of S
    that the sweep scales once for the overrelaxed draw, and where n > p
    bgs's sweep ends with :func:`scale_move`, after Sigma's triangle is
    mirrored; hrs's step writes the row itself and returns that product.

    A column update is a violation when the Schur test fails on the matrix
    holding the new off-diagonal column and the old diagonal entry; the
    hit-and-run path never fails it, the unconstrained path counts the
    failure and keeps going.  After its last column the sweep merges its p
    updates, its violations and its Sigma drift into the audit in one
    :meth:`ViolationAudit.merge`, so a sweep that raises adds nothing.  A
    non-finite beta' Omega11^{-1} beta, which a NaN reaching C^{-1} gives,
    is an error rather than a count.  The gamma draw needs no check: gamma
    = g * 2/c with g > 0 from numpy's Ga(n/2 + 1) sampler and c = s22 + 2
    lambda22 finite and positive, because S is validated finite with S_jj
    > 0 and lambda22 = g'/(|omega_ii| + s) is finite.  A gamma of 0 would
    still raise, in 1/gamma at stage gamma.

    As the sweep begins, after the bank, it draws every shrinkage rate and
    latent scale from omega as it stands then, one call each on the upper
    triangle, and expands 1/tau to a symmetric p x p array; column i reads
    its row there, slot i holding a 1/tau_ii that moves no bit (see slot
    i in the module docstring), and its c and gamma draw from vectors made
    once.  A failure there raises RuntimeError naming the sweep start and
    the stage, shrinkage, as a column's failure names the column and its
    stage.  An overflow in any numpy step of the sweep fails it at its
    stage: c Omega11^{-1} overflows at stage beta on data in units of 1e100
    (see the module docstring).

    Every column of every sweep draws beta.  A chain's first sweep, the one
    that finds ``state.sigma`` still None, draws column i's pairs j < i as
    the column begins and reads lambda_ii and the latent scales of row i
    from slot i on, which have not been drawn yet, as 1, and bgs's beta
    draw there is not overrelaxed (see the module docstring).
    """
    sigma = invert_from_factor(pd_check(state.omega, "omega at the start of the sweep"))
    sigma_t = sigma.T  # BLAS's view: its lower triangle is sigma's upper one
    first_sweep = state.sigma is None
    drift = 0.0 if first_sweep else float(np.abs(state.sigma - sigma).max() / np.abs(sigma).max())
    state.sigma = sigma
    p = state.omega.shape[0]
    omega = state.omega
    r, s = float(config.r), float(config.s)
    scatter_off = state.scatter.copy()
    scatter_off.flat[:: p + 1] = 0.0
    work = np.empty((p, p))
    diag = work.reshape(-1)[:: p + 1]
    pairs = pair_index(p)
    violations = 0

    z_bank = rng.standard_normal((p, p))
    z_move = z_bank.item(0, 0)
    z_bank.flat[:: p + 1] = 0.0
    gamma_bank = rng.standard_gamma(state.n / 2.0 + 1.0, p)
    lambda_bank = rng.standard_gamma(r + 1.0, p * (p + 1) // 2)
    half_nu2_bank = rng.standard_normal(lambda_bank.size) ** 2 / 2.0
    u_bank = rng.random(lambda_bank.size)
    odds_bank = u_bank / (1.0 - u_bank)
    u_step = u_bank.take(pairs.diagonal()).tolist()
    # bgs takes its two steps beyond Wang's kernel only where n > p (see the
    # module docstring), and draws a chain's first sweep without
    # overrelaxation: its start is no draw of the chain's law, so moving
    # away from it has no use.
    steps = config.kind == "bgs" and state.n > p
    alpha = OVERRELAX if steps and not first_sweep else 0.0
    if alpha:
        # bgs_update_beta reads its normals and s12 with the overrelaxed
        # draw's scalings folded in.
        z_bank *= math.sqrt(1.0 - alpha * alpha)
        scatter_off *= 1.0 - alpha

    i, stage = None, "shrinkage"
    try:
        # One errstate per sweep: an overflow in any of its numpy steps,
        # c Omega11^{-1} among them, fails the sweep at its stage (see the
        # module docstring).
        with np.errstate(over="raise"):
            # The first-sweep rule (Wang's order, unit lambda_ii and unit tau
            # beyond slot i) is kept for mixing, measured with
            # OPENBLAS_NUM_THREADS=1 as benchmarks/ess.py's diagonal_ess, pooled
            # over chains per sweep run.  Against unit tau for the whole first
            # sweep, bgs read 0.388 against 0.348 and hrs 0.546 against 0.485 on
            # standardized 50 x 100 ar2 fits (data seeds 1-6, chain seeds 100 *
            # seed + 0..3, 10 + 40 sweeps), and bgs 0.105 against 0.109 and hrs
            # 0.0233 against 0.0233 on circle p = 30, n = 50 replications (seeds
            # 1-40, 50 + 200 sweeps).  A ridge start Omega0 = n (S + diag S)^{-1}
            # with no first-sweep rule cut hrs by 30% (circle) and 37% (ar2).
            if first_sweep:
                inv_tau, lambda_diag = np.ones((p, p)), 1.0
            else:
                abs_omega = np.abs(omega.take(upper_index(p)))
                lam = update_lambda_column(abs_omega, s, lambda_bank)
                tau = update_tau_column(lam, abs_omega, half_nu2_bank, odds_bank)
                inv_tau, lambda_diag = np.reciprocal(tau).take(pairs), lam.take(pairs.diagonal())
            c_all = state.scatter.diagonal() + 2.0 * lambda_diag
            gammas, c_all = update_gamma(c_all, gamma_bank).tolist(), c_all.tolist()

            for i in range(p):
                stage = "shrinkage"
                if first_sweep:
                    # Row i's pairs j < i, from omega[i, :i] as columns 0..i-1
                    # left it.
                    row, abs_row = pairs[i, :i], np.abs(omega[i, :i])
                    lam = update_lambda_column(abs_row, s, lambda_bank.take(row))
                    inv_tau[i, :i] = np.reciprocal(update_tau_column(
                        lam, abs_row, half_nu2_bank.take(row), odds_bank.take(row)))

                stage = "partition"
                omega22 = omega.item(i, i)
                make_partition(sigma, i)
                s12 = scatter_off[i]
                c = c_all[i]

                stage = "beta"
                L = _factor_c_inverse(sigma, c, inv_tau[i], work, diag)
                if config.kind == "hrs":
                    beta, v = hrs_update_beta(L, sigma, s12, c, inv_tau[i], omega[i], omega22,
                                              z_bank[i], u_step[i])
                else:
                    beta = bgs_update_beta(L, s12, z_bank[i], omega[i], alpha)
                    omega[i] = beta
                    v = _dsymv(1.0, sigma_t, beta, 0.0, None, 0, 1, 0, 1, 1)
                omega[:, i] = beta
                q = _ddot(beta, v)
                # The one NaN guard of the column: a NaN that reaches C^{-1}
                # reaches beta through the factor and the solves, and q
                # through dsymv (see the module docstring).
                if not math.isfinite(q):
                    raise ValueError(f"beta' Omega11^{{-1}} beta is {q!r}")
                violations += not omega22 - q > 0.0

                stage = "gamma"
                gam = gammas[i]
                omega[i, i] = gam + q
                # Omega11^{-1} + (v - e_i)(v - e_i)' / gamma: row i of
                # Omega11^{-1} is +0, so this one dsyr also writes sigma_ij =
                # -v_j / gamma and sigma_ii = 1 / gamma exactly.  In place:
                # make_partition has checked it on this same sigma.
                v[i] = -1.0
                _dsyr(1.0 / gam, v, 1, 1, 0, p, sigma_t, 1)
    except Exception as exc:
        where = "the sweep start" if i is None else f"column {i} (0-based)"
        raise RuntimeError(f"{where} failed at stage {stage}: {exc}") from exc

    audit.merge(ViolationAudit(p, violations, drift))

    # Copy the carried upper triangle (numpy indexing) onto the lower one.
    np.copyto(sigma, sigma_t, where=strict_lower(p))
    if steps:
        # Bank 1's (0, 0) entry, zeroed unread above, and bank 5's entry of
        # the pair {0, 0}, first in upper_index order, whose tau_00 draw
        # moves no bit.
        scale_move(state, r, s, z_move, u_bank.item(0))
    return state


def scale_move(state, r, s, z, u):
    """Random-walk Metropolis step on omega's global scale.

    It proposes eta = w z, w = 2.4 / sqrt(max(np/2 - r d, 1)), d = p(p + 1)/2,
    for a standard normal z, and accepts iff log(1 - u) < g(eta) - g(0) for
    a uniform u on [0, 1), with

        g(eta) = (np/2 + d) eta - e^eta tr(S omega)/2
                 - (r + 1) sum_{i <= j} log(s + e^eta |omega_ij|),

    the posterior log density of e^eta omega times e^(d eta), the Jacobian
    of omega -> e^eta omega on the d free entries.  An accepted step scales
    omega in place by a = e^eta and the carried sigma by 1/a.  The step is
    Liu and Sabatti's (2000) group move on the multiplicative group a > 0,
    so it leaves the posterior invariant (see the module docstring); it
    costs O(d), draws no random number, and a omega is positive definite
    whenever omega is.
    """
    omega = state.omega
    p = omega.shape[0]
    d = p * (p + 1) // 2
    half_np = state.n * p / 2.0
    eta = z * 2.4 / math.sqrt(max(half_np - r * d, 1.0))
    a = math.exp(eta)
    abs_omega = np.abs(omega.take(upper_index(p)))
    log_ratio = ((half_np + d) * eta - math.expm1(eta) * float(np.vdot(state.scatter, omega)) / 2.0
                 - (r + 1.0) * float(np.log((abs_omega * a + s) / (abs_omega + s)).sum()))
    if math.log1p(-u) < log_ratio:
        omega *= a
        state.sigma *= 1.0 / a


def settle_scale(state, r):
    """Scale omega in place to a omega, and the carried sigma to sigma / a,
    with a = (np - 2rd) / tr(S omega), d = p(p + 1)/2; return a.

    With eta = log a, the orbit {a omega : a > 0} has posterior log density

        g(eta) = (np/2 + d) eta - e^eta tr(S omega)/2
                 - (r + 1) sum_{i <= j} log(s + e^eta |omega_ij|) + const,

    whose mode is a once every a |omega_ij| >> s.  Where np <= 2rd, a is not
    positive: there s rather than the data sets the orbit's mode, at
    a |omega_ij| ~ s, so the step moves nothing and returns 1.0.  It draws
    no random number, and a omega is positive definite whenever omega is.
    """
    p = state.omega.shape[0]
    excess = state.n * p - 2.0 * r * (p * (p + 1) // 2)
    if excess <= 0.0:
        return 1.0
    a = excess / float(np.vdot(state.scatter, state.omega))
    state.omega *= a
    state.sigma *= 1.0 / a
    return a


def run_chain(data_scatter, n, config, rng):
    """Run one chain on scatter matrix S = Y'Y with sample size n.

    Burn-in sweeps are discarded; the retained sweeps feed a streaming
    elementwise mean (and, with store_draws, a list of every retained
    draw).  The audit covers every sweep the chain performs, burn-in
    included.

    A bgs chain calls :func:`settle_scale` after each of its first
    min(burn_in, ``SCALE_WARMUP``) sweeps, and an hrs chain never does.
    The step is a deterministic map, not a Markov kernel, so it runs only
    inside burn-in, and every retained draw comes from the sweep's kernel
    alone; it is capped, because run every sweep it would hold omega's
    scale below the chain's own level (see the module docstring).  A sweep
    that fails raises RuntimeError naming the sweep (0-based) before the
    sweep's own message.
    """
    state = initial_state(data_scatter, n)
    audit = ViolationAudit()
    p = state.omega.shape[0]
    mean_acc = np.zeros((p, p))
    draws = [] if config.store_draws else None
    total = config.burn_in + config.draws
    warmup = min(config.burn_in, SCALE_WARMUP) if config.kind == "bgs" else 0
    if config.kind == "hrs":
        # The step's tail ufuncs load here, outside the timed sweeps.
        normal_tail_ufuncs()

    t0 = time.perf_counter()
    for k in range(total):
        try:
            sweep(state, config, audit, rng)
        except Exception as exc:
            raise RuntimeError(f"sweep {k} (0-based): {exc}") from exc
        if k < warmup:
            settle_scale(state, float(config.r))
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
