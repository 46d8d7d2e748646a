"""Log-domain special functions: log-gamma, log-beta, regularized incomplete beta.

Everything here exists so that order-statistic weight integrals with sample
sizes up to 1e7 can be evaluated without overflow: products such as
C(n,r) * y^(r-1) * (1-y)^(n-r) are assembled in log space and exponentiated
last.  A high-accuracy normal quantile is included for inverse-CDF sampling.
"""

from __future__ import annotations

import math

from .errors import DomainError, NoConvergence, real

__all__ = [
    "log_gamma",
    "log_beta",
    "regularized_incomplete_beta",
    "normal_quantile",
    "CF_TOL",
    "CF_MAX_ITER",
]

# Lanczos approximation, g = 7, 9 terms (Godfrey's published set).
# Empirically good to ~2.6e-15 relative over [0.5, 1e6].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# Continued-fraction controls for the incomplete beta.
CF_TOL = 1e-14
CF_MAX_ITER = 500
_FPMIN = 1e-30

# Below this log-prefactor the exponentiated result is indistinguishable
# from the saturated value (0 or 1) in double precision.
_LOG_UNDERFLOW = -740.0


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    value = real(x)
    if not 0.0 < value < math.inf:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    if value < 0.5:
        # Reflection: Gamma(x) * Gamma(1-x) = pi / sin(pi x), and sin > 0 on (0, 0.5).
        return _LN_PI - math.log(math.sin(math.pi * value)) - _lanczos(1.0 - value)
    return _lanczos(value)


def _lanczos(x: float) -> float:
    z = x - 1.0
    s = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        s += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(s)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for shapes a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the beta-distribution CDF.

    Evaluated by modified-Lentz continued fraction.  The fraction converges
    fast only for x below the crossover (a+1)/(a+b+2); beyond it the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) is applied first.  Raises NoConvergence if
    the fraction has not settled to CF_TOL within CF_MAX_ITER iterations.
    """
    for name, shape in (("a", a), ("b", b)):
        if not (math.isfinite(real(shape)) and shape > 0.0):
            raise DomainError(f"beta shape {name} must be finite and > 0, got {shape!r}")
    a, b = float(a), float(b)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"regularized_incomplete_beta requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0

    # log of x^a (1-x)^b / B(a, b), the prefactor common to both branches
    log_pre = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    direct = x < (a + 1.0) / (a + b + 2.0)
    if log_pre < _LOG_UNDERFLOW:
        return 0.0 if direct else 1.0
    if direct:
        return math.exp(log_pre) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_pre) * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < CF_TOL:
            return h
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge within "
        f"{CF_MAX_ITER} iterations (a={a}, b={b}, x={x})"
    )


# Wichura's PPND16 rational approximations for the standard normal quantile;
# absolute error is below 1e-13 across (0, 1).
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _poly(coeffs, r: float) -> float:
    s = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        s = s * r + c
    return s


def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_PPND_A, r) / _poly(_PPND_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_PPND_C, r) / _poly(_PPND_D, r)
    else:
        r -= 5.0
        val = _poly(_PPND_E, r) / _poly(_PPND_F, r)
    return -val if q < 0.0 else val
