"""Closed-form generalization-gap certificates, broken into additive
components, for constant-step SGD under localized covering arguments.

Every calculator returns a BoundCertificate with the same component slots:

* ``sample_dependency_term`` — the cover points depend on at most T samples,
  contributing B*T/n (B*K*T/n for the hard clustering bound).
* ``concentration_term`` — a Hoeffding tail union-bounded over the cover.
* ``covering_slack_term`` — 2*L*eps for the cover radius eps (the classical
  "+1/n" packaging corresponds to eps = 1/(2*L*n)).
* ``approximation_term`` — 2*L*(gamma^T R + geometric * surrogate error) for
  the piecewise-surrogate bounds.

Each covering certificate is the master covering bound (THM_B_1) at its
theorem's horizon T, cover log-cardinality and slack: ``_covering`` is the
one place its dependency and concentration terms are computed.
``THEOREMS`` maps each certificate id to its calculator.  All logarithms
are natural.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral

from .core import ceil_int

EXPECTATION_VARIANTS = ("THM_D_1", "THM_D_2", "COR_D_3")


@dataclass(frozen=True)
class BoundCertificate:
    """A computed certificate: identifier, inputs, additive components, and
    their derived total, which must be finite and nonnegative."""

    theorem: str
    inputs: dict
    sample_dependency_term: float | None = None
    concentration_term: float | None = None
    covering_slack_term: float | None = None
    approximation_term: float | None = None
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        if not 0 <= self.total < math.inf:
            raise ValueError("certificate total must be finite and nonnegative")

    @property
    def total(self) -> float:
        """The sum of the components that are set, added in slot order from 0."""
        return sum(v for v in self.components.values() if v is not None)

    @property
    def components(self) -> dict:
        return {
            "sample_dependency_term": self.sample_dependency_term,
            "concentration_term": self.concentration_term,
            "covering_slack_term": self.covering_slack_term,
            "approximation_term": self.approximation_term,
        }

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": dict(self.inputs),
            "components": self.components,
            "total": self.total,
            "flags": list(self.flags),
        }


def _check_n(n):
    if not isinstance(n, Integral) or n < 1:
        raise ValueError("n must be an integer >= 1")


def _check_delta(delta):
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def _check_pos(**kwargs):
    for name, v in kwargs.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _check_nonneg(**kwargs):
    for name, v in kwargs.items():
        if not 0 <= v < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


def horizon(scale: float, gamma: float) -> int:
    """max(ceil(log(scale)/log(1/gamma)), 0) with gamma in (0, 1): 0 for any
    scale <= 1."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if scale <= 0:
        raise ValueError("horizon scale must be positive")
    return max(ceil_int(math.log(scale) / math.log(1.0 / gamma)), 0)


def _concentration(B: float, log_cardinality: float, delta: float, n: int) -> float:
    return B * math.sqrt((log_cardinality + math.log(2.0 / delta)) / (2.0 * n))


def _covering(theorem, inputs, B, T, log_card, slack=None, approx=None, flags=(),
              dep=None) -> BoundCertificate:
    """The master covering bound at horizon T: the dependency term B*T/n (or
    ``dep``), the concentration term over a cover of log-cardinality
    ``log_card``, and the theorem's slack or approximation term, with n and
    delta read from ``inputs``."""
    n = inputs["n"]
    return BoundCertificate(
        theorem=theorem, inputs=inputs,
        sample_dependency_term=B * T / n if dep is None else dep,
        concentration_term=_concentration(B, log_card, inputs["delta"], n),
        covering_slack_term=slack, approximation_term=approx, flags=tuple(flags),
    )


def bound_strongly_convex(n, delta, B, L, R, gamma) -> BoundCertificate:
    """(BT+1)/n + B*sqrt((T log n + log(2/delta)) / (2n)) with
    T = max(ceil(log(2LRn)/log(1/gamma)), 0)."""
    _check_n(n)
    _check_delta(delta)
    _check_pos(L=L, R=R)
    _check_nonneg(B=B)
    T = horizon(2.0 * L * R * n, gamma)
    inputs = {"n": n, "delta": delta, "B": B, "L": L, "R": R, "gamma": gamma, "T": T}
    return _covering("THM_2_3", inputs, B, T, T * math.log(n), slack=1.0 / n)


def bound_single_trajectory(n, delta, B, T) -> BoundCertificate:
    """(BT+1)/n + B*sqrt(log(2/delta) / (2n)) for one fixed realized run."""
    _check_n(n)
    _check_delta(delta)
    _check_nonneg(B=B, T=T)
    inputs = {"n": n, "delta": delta, "B": B, "T": T}
    return _covering("COR_2_4", inputs, B, T, 0.0, slack=1.0 / n)


def bound_early(n, delta, B, t) -> BoundCertificate:
    """Bt/n + B*sqrt(log(2/delta) / (2n)); grows linearly in t."""
    _check_n(n)
    _check_delta(delta)
    _check_nonneg(B=B, t=t)
    inputs = {"n": n, "delta": delta, "B": B, "t": t}
    return _covering("COR_2_5", inputs, B, t, 0.0, slack=0.0)


def bound_fractal(n, delta, B, L, R, gamma, d_H) -> BoundCertificate:
    """Theorem-2.3 shape with the cover exponent rewritten through the
    attractor dimension: ceil(d_H + log(2LR)/log(1/gamma)) * log n."""
    _check_n(n)
    _check_delta(delta)
    _check_pos(L=L, R=R)
    _check_nonneg(B=B, d_H=d_H)
    T = horizon(2.0 * L * R * n, gamma)
    exponent = max(ceil_int(d_H + math.log(2.0 * L * R) / math.log(1.0 / gamma)), 0)
    inputs = {"n": n, "delta": delta, "B": B, "L": L, "R": R, "gamma": gamma,
              "d_H": d_H, "T": T, "cover_exponent": exponent}
    return _covering("EQ_8_FRACTAL", inputs, B, T, exponent * math.log(n), slack=1.0 / n)


def _geometric_sum(gamma: float, T: int) -> tuple[float, bool]:
    """sum_{j<T} gamma^j, with the gamma -> 1 limit T flagged."""
    if gamma == 1.0:
        return float(T), True
    return (1.0 - gamma**T) / (1.0 - gamma), False


def _piecewise_T(T, L, R, n, gamma):
    if T is not None:
        if T < 0:
            raise ValueError("T must be nonnegative")
        return int(T)
    if gamma == 1.0:
        raise ValueError("the default horizon needs gamma < 1; supply T explicitly")
    return horizon(3.0 * L * R * n, gamma)


def _piecewise(theorem, n, delta, B, L, R, gamma, T, P, xi, step, echo) -> BoundCertificate:
    """The piecewise bound with map error ``step * xi``; ``echo`` holds the
    inputs beyond the shared ones that the certificate records."""
    _check_n(n)
    _check_delta(delta)
    _check_pos(L=L, R=R, P=P)
    _check_nonneg(B=B, xi=xi, **echo)
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    T = _piecewise_T(T, L, R, n, gamma)
    geo, degenerate = _geometric_sum(gamma, T)
    approx = 2.0 * L * (gamma**T * R + geo * step * xi)
    inputs = {"n": n, "delta": delta, "B": B, "L": L, "R": R, "gamma": gamma,
              "T": T, "P": P, "xi": xi, **echo}
    return _covering(theorem, inputs, B, T, T * math.log(n * P), approx=approx,
                     flags=("geometric_series_limit",) if degenerate else ())


def bound_piecewise_approx(n, delta, B, L, R, gamma, T=None, P=1, xi=0.0, eta=0.0) -> BoundCertificate:
    """BT/n + B*sqrt((T log(nP) + log(2/delta))/(2n))
    + 2L*(gamma^T R + ((1-gamma^T)/(1-gamma)) * eta * xi).

    T defaults to max(ceil(log(3LRn)/log(1/gamma)), 0).  gamma = 1 uses the
    geometric-series limit T and is flagged rather than rejected.
    """
    return _piecewise("THM_3_2", n, delta, B, L, R, gamma, T, P, xi, eta, {"eta": eta})


def bound_piecewise_contractive(n, delta, B, L, R, gamma, T=None, P=1, xi=0.0) -> BoundCertificate:
    """Same shape as the piecewise-surrogate bound, but for a generic
    piecewise contractive optimizer: the slack uses the map error xi with no
    step-size factor (multiplying by 1.0 is exact)."""
    return _piecewise("THM_5_3", n, delta, B, L, R, gamma, T, P, xi, 1.0, {})


def multi_index_piece_params(beta, eta, K, L, R, R_x, T, n) -> tuple[float, int]:
    """Discretization width kappa = 1/(12*beta*eta*K*L*R_x*T*n) and the
    per-block piece count P = ceil(2*R*R_x/kappa) of the multi-index
    surrogate construction."""
    _check_pos(beta=beta, eta=eta, K=K, L=L, R=R, R_x=R_x, T=T, n=n)
    kappa = 1.0 / (12.0 * beta * eta * K * L * R_x * T * n)
    P = max(ceil_int(2.0 * R * R_x / kappa), 1)
    return kappa, P


def bound_multi_index(n, delta, B, L, R, R_x, K, Q, beta, eta, lam) -> BoundCertificate:
    """(BT+1)/n + B*sqrt((T log(n P^K Q) + log(2/delta))/(2n)) with
    gamma = |1 - eta*lam|, T = max(ceil(log(3LRn)/log(1/gamma)), 0), and P
    from the per-block discretization of the surrogate construction."""
    _check_n(n)
    _check_delta(delta)
    _check_pos(L=L, R=R, R_x=R_x, K=K, Q=Q, beta=beta, lam=lam)
    _check_nonneg(B=B)
    if not 0 < eta < 2.0 / lam:
        raise ValueError("step size must satisfy 0 < eta < 2/lambda")
    gamma = abs(1.0 - eta * lam)
    flags = []
    if gamma == 0.0:
        T, kappa, P = 0, math.inf, 1
        flags.append("instant_contraction")
    else:
        T = horizon(3.0 * L * R * n, gamma)
        if T == 0:
            kappa, P = math.inf, 1
            flags.append("zero_horizon")
        else:
            kappa, P = multi_index_piece_params(beta, eta, K, L, R, R_x, T, n)
    log_card = T * (math.log(n) + K * math.log(P) + math.log(Q))
    inputs = {"n": n, "delta": delta, "B": B, "L": L, "R": R, "R_x": R_x,
              "K": K, "Q": Q, "beta": beta, "eta": eta, "lambda": lam,
              "gamma": gamma, "T": T, "kappa": kappa, "P": P}
    return _covering("THM_4_1", inputs, B, T, log_card, slack=1.0 / n, flags=flags)


def soft_kmeans_constants(K, R, zeta) -> tuple[float, float, float, float]:
    """The soft clustering constants (B, L, beta, beta'): B = 4(R+1)^2,
    L = (4R/sqrt(K)) e^{zeta B}, beta = (2/K) e^{zeta B} and
    beta' = 4 zeta B e^{zeta B} + 4 zeta B + 2."""
    B = 4.0 * (R + 1.0) ** 2
    return (B, 4.0 * R / math.sqrt(K) * math.exp(zeta * B), 2.0 / K * math.exp(zeta * B),
            4.0 * zeta * B * math.exp(zeta * B) + 4.0 * zeta * B + 2.0)


def soft_kmeans_params(K, R, zeta, eta, n) -> dict:
    """The derived constants of the soft clustering certificate."""
    _check_pos(K=K, R=R, zeta=zeta, n=n)
    B, L, beta, beta_prime = soft_kmeans_constants(K, R, zeta)
    if not 0 < eta < K * math.exp(-zeta * B):
        raise ValueError("step size must satisfy 0 < eta < K*exp(-zeta*B)")
    gamma = math.sqrt(1.0 - 4.0 * eta * math.exp(-zeta * B) / K + 4.0 * eta**2 / K**2)
    T = horizon(3.0 * L * R * n, gamma)
    if T == 0:
        kappa, P = math.inf, 1
    else:
        kappa = 1.0 / (12.0 * (beta + beta_prime) * eta * math.sqrt(K) * L * T * n)
        P = max(ceil_int(2.0 * R / kappa), 1)
    return {"B": B, "L": L, "gamma": gamma, "beta": beta, "beta_prime": beta_prime,
            "T": T, "kappa": kappa, "P": P}


def bound_soft_kmeans(n, delta, K, R, zeta, eta) -> BoundCertificate:
    """(BT+1)/n + B*sqrt((T log(n P^K) + log(2/delta))/(2n)) with the soft
    clustering constants B = 4(R+1)^2, L = (4R/sqrt(K)) e^{zeta B}, and
    gamma = sqrt(1 - 4 eta e^{-zeta B}/K + 4 eta^2/K^2)."""
    _check_n(n)
    _check_delta(delta)
    p = soft_kmeans_params(K, R, zeta, eta, n)
    B, T, P = p["B"], p["T"], p["P"]
    inputs = {"n": n, "delta": delta, "K": K, "R": R, "zeta": zeta, "eta": eta, **p}
    return _covering("THM_4_3", inputs, B, T, T * (math.log(n) + K * math.log(P)),
                     slack=1.0 / n, flags=("zero_horizon",) if T == 0 else ())


def bound_hard_kmeans(n, delta, K, R, eta) -> BoundCertificate:
    """(BKT+1)/n + B*sqrt((KT log(2n) + log(2/delta))/(2n)) with B = 4R^2,
    gamma = |1-2*eta|, T = max(ceil(log(16 sqrt(K) R^2 n)/log(1/gamma)), 0).

    eta = 1/2 gives gamma = 0: every per-cluster map lands on its target in
    one step, so T collapses to 0 (flagged)."""
    _check_n(n)
    _check_delta(delta)
    _check_pos(K=K, R=R)
    if not 0 < eta < 1:
        raise ValueError("step size must satisfy 0 < eta < 1")
    B = 4.0 * R**2
    gamma = abs(1.0 - 2.0 * eta)
    flags = []
    if gamma == 0.0:
        T = 0
        flags.append("instant_contraction")
    else:
        T = horizon(16.0 * math.sqrt(K) * R**2 * n, gamma)
    inputs = {"n": n, "delta": delta, "K": K, "R": R, "eta": eta,
              "B": B, "gamma": gamma, "T": T}
    # B * K * T / n, not B * (K * T) / n, which can round differently
    return _covering("THM_4_4", inputs, B, T, K * T * math.log(2.0 * n), slack=1.0 / n,
                     flags=flags, dep=B * K * T / n)


def bound_master_covering(n, delta, B, L, T, cover_cardinality, epsilon) -> BoundCertificate:
    """BT/n + B*sqrt(log(2*|cover|/delta)/(2n)) + 2*L*epsilon: the master
    bound every specialized certificate instantiates.

    ``cover_cardinality`` may be an exact Python integer (e.g. n**T), so huge
    covers lose no precision in the logarithm.
    """
    _check_n(n)
    _check_delta(delta)
    _check_nonneg(B=B, T=T, L=L, epsilon=epsilon)
    if not isinstance(cover_cardinality, Integral) or cover_cardinality < 1:
        raise ValueError("cover_cardinality must be an integer >= 1")
    inputs = {"n": n, "delta": delta, "B": B, "L": L, "T": T,
              "cover_cardinality": int(cover_cardinality), "epsilon": epsilon}
    return _covering("THM_B_1", inputs, B, T, math.log(cover_cardinality),
                     slack=2.0 * L * epsilon)


def bound_expectation(n, B, T, variant, C=1.0) -> BoundCertificate:
    """Expected-gap certificates:

    * THM_D_1: (BT+1)/n for the expected gap of a fixed iterate,
    * THM_D_2: (BT+1)/n + C*B*sqrt(T log n / n) for the expected supremum,
    * COR_D_3: (BT+1)/n + C*B*sqrt(1/n) for the expected absolute gap.

    C is the unspecified absolute constant from the sub-Gaussian maximal
    inequality; it is carried in the inputs and defaults to 1.
    """
    _check_n(n)
    _check_nonneg(B=B, T=T)
    _check_pos(C=C)
    if variant not in EXPECTATION_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {EXPECTATION_VARIANTS}")
    if variant == "THM_D_1":
        conc = None
    elif variant == "THM_D_2":
        conc = C * B * math.sqrt(T * math.log(n) / n)
    else:
        conc = C * B * math.sqrt(1.0 / n)
    return BoundCertificate(
        theorem=variant, inputs={"n": n, "B": B, "T": T, "variant": variant, "C": C},
        sample_dependency_term=B * T / n, concentration_term=conc,
        covering_slack_term=1.0 / n,
    )


# certificate id -> its calculator; the one list of theorem ids
THEOREMS = {
    "THM_2_3": bound_strongly_convex,
    "COR_2_4": bound_single_trajectory,
    "COR_2_5": bound_early,
    "EQ_8_FRACTAL": bound_fractal,
    "THM_3_2": bound_piecewise_approx,
    "THM_4_1": bound_multi_index,
    "THM_4_3": bound_soft_kmeans,
    "THM_4_4": bound_hard_kmeans,
    "THM_5_3": bound_piecewise_contractive,
    "THM_B_1": bound_master_covering,
    **{v: functools.partial(bound_expectation, variant=v) for v in EXPECTATION_VARIANTS},
}
