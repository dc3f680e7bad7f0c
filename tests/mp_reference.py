"""Arbitrary-precision reference sums for the double-precision rules.

The package computes E_alpha(-x) and M_alpha(s) in doubles only. These
mpmath sums are the independent references the tests check those rules
against: the power and asymptotic series of E_alpha(-x), the power
series of M_alpha(s), the [0, 1] moments of the closed forms
M_{1/2} and M_{1/3}, and the closed form of the endpoint profile
int_eps^inf s^-1 M_alpha(s) ds. Each call sums afresh; nothing is cached.
"""

import math

import mpmath as mp

# term budget of every sum
MAX_TERMS = 200_000


def _series(terms, dps: int, patience: int, failure: str) -> float:
    """Sum of the mp terms at dps digits, stopped once more than `patience`
    consecutive terms past the fourth fall below 10^(-dps-8) of the largest."""
    total, largest, tiny_run = mp.mpf(0), mp.mpf("1e-300"), 0
    cutoff = mp.mpf(10) ** (-dps - 8)
    for k, term in enumerate(terms):
        total += term
        mag = abs(term)
        if mag > largest:
            largest = mag
        if k > 3 and mag < cutoff * largest:
            tiny_run += 1
            if tiny_run > patience:
                return float(total)
        else:
            tiny_run = 0
    raise ArithmeticError(f"endpoint profile did not converge within {MAX_TERMS} terms "
                          f"(alpha={alpha}, eps={eps})")


def ml_neg(alpha: float, x: float) -> float:
    """E_alpha(-x) for 0 < alpha < 1 and x > 0 from sums that carry 34
    digits to the rounded double.

    Below t = x^(1/alpha) = 80 it sums the power series, whose largest term
    is about e^t, at t/ln 10 + 42 digits rounded up to a multiple of 8.
    Beyond, it sums the asymptotic series E_alpha(-x) =
    sum_k (-1)^(k+1) x^-k / Gamma(1 - alpha k) at 42 digits up to the
    smallest smooth envelope term x^-k Gamma(alpha k)/pi
    (by reflection, |1/Gamma(1-w)| = Gamma(w)|sin(pi w)|/pi): the truncation
    error is then about e^-t.
    """
    failure = f"Mittag-Leffler sums did not converge within {MAX_TERMS} terms " \
              f"(alpha={alpha}, x={x})"
    lx = math.log(x)
    if lx / alpha < math.log(80.0):
        dps = 8 * math.ceil((x ** (1.0 / alpha) / math.log(10.0) + 42.0) / 8.0)
        with mp.workdps(dps):
            a, z = mp.mpf(alpha), mp.mpf(x)

            def terms():
                power = mp.mpf(1)  # (-z)^k, updated incrementally
                for k in range(MAX_TERMS):
                    yield power * mp.rgamma(a * k + 1)
                    power *= -z

            return _series(terms(), dps, 3, failure)
    with mp.workdps(42):
        a, z = mp.mpf(alpha), mp.mpf(x)
        total, power, prev = mp.mpf(0), mp.mpf(-1), math.inf  # power: -(-z)^-k
        # stop where the envelope turns, or e^-110 (2e-48) below its first
        # term, past every digit the double keeps
        floor = math.lgamma(alpha) - lx - 110.0
        for k in range(1, MAX_TERMS):
            lenv = math.lgamma(alpha * k) - k * lx
            if lenv >= prev or lenv < floor:
                return float(total)
            prev = lenv
            power /= -z
            total += power * mp.rgamma(1 - a * k)
    raise ArithmeticError(f"endpoint profile did not converge within {MAX_TERMS} terms "
                          f"(alpha={alpha}, eps={eps})")


def wright_series(alpha: float, s: float, dps: int) -> float:
    """M_alpha(s) = sum_n (-s)^n / (n! Gamma(1 - alpha (n+1))) at dps digits."""
    with mp.workdps(dps):
        a, z = mp.mpf(alpha), mp.mpf(s)

        def terms():
            coeff = mp.mpf(1)  # (-z)^n / n!, updated incrementally
            for n in range(MAX_TERMS):
                yield coeff * mp.rgamma(1 - a - a * n)
                coeff *= -z / (n + 1)

        return _series(terms(), dps, 4, "Wright series did not converge within "
                       f"{MAX_TERMS} terms (alpha={alpha}, s={s})")


def half_alpha_lower_moment(gamma: float, lo: float = 0.0, dps: int = 40) -> float:
    """int_lo^1 s^gamma M_{1/2}(s) ds = 2^gamma (Gamma((gamma+1)/2, lo^2/4)
    - Gamma((gamma+1)/2, 1/4)) / sqrt(pi), from M_{1/2}(s) = exp(-s^2/4) / sqrt(pi),
    as two upper incomplete gammas (the three-argument `gammainc` raises
    NotImplementedError at gamma = -1)."""
    with mp.workdps(dps):
        g, lo = mp.mpf(gamma), mp.mpf(lo)
        z = (g + 1) / 2
        return float(2 ** g * (mp.gammainc(z, lo * lo / 4) - mp.gammainc(z, mp.mpf(1) / 4))
                     / mp.sqrt(mp.pi))


def third_alpha_lower_moment(gamma: float, dps: int = 40) -> float:
    """int_0^1 s^gamma M_{1/3}(s) ds from M_{1/3}(s) = 3^(2/3) Ai(3^(-1/3) s)
    (Mainardi, Mura & Pagnini 2010), by quadrature in u = s^(gamma+1): the
    integral is int_0^1 M_{1/3}(u^(1/(gamma+1))) du / (gamma+1), with no
    singular weight left at u = 0."""
    with mp.workdps(dps):
        g1 = mp.mpf(gamma) + 1
        c = mp.cbrt(3)
        return float(mp.quad(lambda u: c * c * mp.airyai(u ** (1 / g1) / c), [0, 1]) / g1)


def endpoint_profile(alpha: float, eps: float, dps: int = 40) -> float:
    """I(eps) = int_eps^inf s^-1 M_alpha(s) ds for 0 < eps < 1, in closed form:
    (ln(1/eps) - gamma_E - alpha psi(1-alpha)) / Gamma(1-alpha) - sum_(k>=1) c_k eps^k / k
    with M_alpha(s) = sum_k c_k s^k, c_k = (-1)^k / (k! Gamma(1 - alpha (k+1)))
    (Mainardi, Mura & Pagnini 2010). The constant is the finite part at
    gamma = -1 of the moment Gamma(gamma+1)/Gamma(gamma alpha+1). c_k is 0
    wherever alpha (k+1) is an integer, so no term stops the sum: it stops
    once the envelope Gamma(alpha (k+1)) eps^k / (pi k! k) >= |c_k| eps^k / k,
    which falls from k = 1 on by Wendel's bound, is below 10^(-dps-8) of the
    sum (2,109 terms at eps 0.99 and alpha 0.995)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    with mp.workdps(dps):
        a, e = mp.mpf(alpha), mp.mpf(eps)
        total = (mp.log(1 / e) - mp.euler - a * mp.digamma(1 - a)) * mp.rgamma(1 - a)
        power = mp.mpf(1)  # (-eps)^k / k!, updated incrementally
        log_cut, le = -(dps + 8) * math.log(10.0), math.log(eps)
        for k in range(1, MAX_TERMS):
            power *= -e / k
            total -= power * mp.rgamma(1 - a * (k + 1)) / k
            log_env = math.lgamma(alpha * (k + 1)) - math.lgamma(k + 1.0) + k * le \
                - math.log(math.pi * k)
            if log_env < log_cut + math.log(abs(float(total))):
                return float(total)
    raise ArithmeticError(f"endpoint profile did not converge within {MAX_TERMS} terms "
                          f"(alpha={alpha}, eps={eps})")
