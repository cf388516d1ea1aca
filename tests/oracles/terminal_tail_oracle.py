"""F at the threshold of its large-x series, for the terminal fit's tail.

From eta = 0.1 on, spectral builds F's terminal interpolant from the gamma
ladder plus F's large-x series (Watson's lemma), read at
x' = x - 1/4 - eta/2 >= 6 max(1, eta).  This freezes F by its defining
integral at x' = 6 max(1, eta) exactly, eta the float nearest each listed
value, at 40 digits: the series' worst point for each eta, checked to
1e-14 (1 + |F|).

Each value is the rest integral int t^(-3/2) expm1(L(t)) dt,
L = -x t - log(q(t))/2 - log(q(eta t)), q(s) = (1 - e^(-s))/s, taken twice
with different splits at 50 digits; the two must agree to 1e-38.

Run: python3 tests/oracles/terminal_tail_oracle.py > tests/oracles/terminal_tail_oracle.out
"""

import mpmath
from mpmath import mp

ETAS = (0.1, 1.0, 10.0, 100.0)


def f_defining(x, eta, cuts):
    # F(x) by its defining integral: t = u^2 below t = 1/x, then t in
    # pieces at cuts/x
    def raw(t):
        qt = -mp.expm1(-t) / t
        qet = -mp.expm1(-eta * t) / (eta * t)
        return mp.expm1(-x * t - mp.log(qt) / 2 - mp.log(qet)) * t ** -1.5

    edge = 1 / x
    head = mp.quad(lambda u: 2 * u * raw(u * u),
                   [0, mp.sqrt(edge) / 10, mp.sqrt(edge)])
    return head + mp.quad(raw, [edge * c for c in cuts] + [mp.inf])


def main():
    mp.dps = 50
    print("# F(x' + 1/4 + eta/2, eta) at x' = 6 max(1, eta), 40 digits,")
    print("# mpmath %s; eta is the float nearest the listed value"
          % mpmath.__version__)
    for eta_float in ETAS:
        eta = mp.mpf(eta_float)
        xp = 6 * max(1, eta)
        x = xp + mp.mpf(1) / 4 + eta / 2
        a = f_defining(x, eta, [1, 10, 100, 1000])
        b = f_defining(x, eta, [1, 3, 30, 300, 3000])
        assert abs(a - b) < mp.mpf("1e-38") * (1 + abs(a)), (eta_float, a - b)
        print("F(xp=%g,eta=%g) = %s" % (xp, eta_float, mp.nstr(a, 40)))


if __name__ == "__main__":
    main()
