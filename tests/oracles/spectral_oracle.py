"""Reference values for the trap spectral function F(x, eta).

F is defined by the subtracted integral

    F(x, eta) = int_0^inf [ eta*exp(-x*t) / (sqrt(1-exp(-t))*(1-exp(-eta*t)))
                            - t^(-3/2) ] dt        (x > 0),

extended to x < 0 by the step relation
F(x, eta) = F(x + eta, eta) + eta*sqrt(pi)*Gamma(x)/Gamma(x + 1/2).

All values are brute-force mpmath (dps = 40) quadrature/series, frozen into
tests/test_spectral.py.  Run: python3 tests/oracles/spectral_oracle.py
"""

from mpmath import mp

mp.dps = 40


def f_integral_ref(x, eta):
    x = mp.mpf(x)
    eta = mp.mpf(eta)

    def raw(t):
        # cancellation-free form: with q(s) = (1-exp(-s))/s = -expm1(-s)/s,
        # the integrand equals t^(-3/2) * expm1(-x*t - log(q(t))/2 - log(q(eta*t))),
        # finite as t -> 0 where the two t^(-3/2) pieces cancel
        qt = -mp.expm1(-t) / t
        qet = -mp.expm1(-eta * t) / (eta * t)
        ell = -x * t - mp.log(qt) / 2 - mp.log(qet)
        return mp.expm1(ell) * t ** mp.mpf("-1.5")

    def head(u):
        # t = u^2 turns the t^(-1/2) endpoint behavior into a bounded one
        return 2 * u * raw(u * u)

    # generous split points cover both eta >> 1 and eta << 1 scales
    pts_head = [0, mp.mpf("0.01"), mp.mpf("0.1"), 1]
    v_head = mp.quad(head, pts_head)
    pts_tail = [1, 10, 100, mp.mpf(1000) / min(eta, 1), mp.inf]
    v_tail = mp.quad(raw, pts_tail)
    return v_head + v_tail


def f_spherical_ref(x):
    # rgamma absorbs the denominator poles (F vanishes there)
    x = mp.mpf(x)
    return -2 * mp.sqrt(mp.pi) * mp.gamma(x) * mp.rgamma(x - mp.mpf("0.5"))


def f_cigar_ref(x, n):
    x = mp.mpf(x)
    s = mp.mpf(0)
    for m in range(1, n):
        z = mp.expjpi(mp.mpf(2 * m) / n)
        s += mp.hyp2f1(1, x, x + mp.mpf("0.5"), z)
    assert abs(s.imag) < mp.mpf("1e-25"), s.imag
    val = (mp.sqrt(mp.pi) * mp.gamma(x) / mp.gamma(x + mp.mpf("0.5")) * s.real
           + f_spherical_ref(x))
    return val


def f_pancake_ref(x, n):
    x = mp.mpf(x)
    s = mp.mpf(0)
    for m in range(n):
        s += mp.gamma(x + mp.mpf(m) / n) / mp.gamma(x - mp.mpf("0.5") + mp.mpf(m) / n)
    return -2 * mp.sqrt(mp.pi) / n * s


def f_extended_ref(x, eta):
    """Step relation applied until the argument is safely positive."""
    x = mp.mpf(x)
    eta = mp.mpf(eta)
    shift = mp.mpf(0)
    while x < max(eta, 1) / 2:
        shift += eta * mp.sqrt(mp.pi) * mp.gamma(x) / mp.gamma(x + mp.mpf("0.5"))
        x += eta
    return shift + f_integral_ref(x, eta)


def show(name, value):
    print(f"{name} = {mp.nstr(value, 20)}")


def main():
    print("# integral vs spherical closed form sanity")
    for x in ("1", "0.5", "2", "0.1", "7.3"):
        a = f_integral_ref(x, 1)
        b = f_spherical_ref(x)
        print(f"F({x},1) integral={mp.nstr(a, 20)} closed={mp.nstr(b, 20)} "
              f"diff={mp.nstr(a - b, 3)}")

    print("# generic-anisotropy integral values")
    for x, eta in [("0.7", "2"), ("0.3", "3"), ("1.5", "4"), ("0.9", "0.5"),
                   ("0.9", "0.25"), ("1.3", "0.3333333333333333333333333333333333333333"),
                   ("0.5", "2.5"), ("1.0", "0.7"), ("2.0", "100"),
                   ("1.5", "0.01"), ("55.0", "100"), ("0.25", "1.7")]:
        show(f"F({x},{eta})", f_integral_ref(x, eta))

    print("# closed forms at the same points")
    show("Fcig(0.7,2)", f_cigar_ref("0.7", 2))
    show("Fcig(0.3,3)", f_cigar_ref("0.3", 3))
    show("Fcig(1.5,4)", f_cigar_ref("1.5", 4))
    show("Fcig(0.9,6)", f_cigar_ref("0.9", 6))
    show("Fpan(0.9,2)", f_pancake_ref("0.9", 2))
    show("Fpan(0.9,4)", f_pancake_ref("0.9", 4))
    show("Fpan(1.3,3)", f_pancake_ref("1.3", 3))

    print("# analytic continuation to x < 0")
    show("F(-0.4,1)", f_spherical_ref("-0.4"))
    show("F(-1.2,2)", f_extended_ref("-1.2", 2))
    show("F(-2.3,100)", f_extended_ref("-2.3", 100))
    show("F(-0.35,0.25)", f_pancake_ref("-0.35", 4))
    show("F(-0.35,0.25)_steps", f_extended_ref("-0.35", "0.25"))

    print("# small-x pole law: x*F(x,eta) -> eta")
    for x, eta in [("1e-4", "1.7"), ("1e-5", "1.7"), ("1e-4", "0.3")]:
        show(f"xF({x},{eta})", mp.mpf(x) * f_extended_ref(x, eta))

    print("# step-relation residual spot check (both sides independent)")
    x, eta = mp.mpf("0.3"), mp.mpf("1.7")
    lhs = f_integral_ref(x, eta) - f_integral_ref(x + eta, eta)
    rhs = eta * mp.sqrt(mp.pi) * mp.gamma(x) / mp.gamma(x + mp.mpf("0.5"))
    show("step_residual(0.3,1.7)", lhs - rhs)

    print("# large-x growth: F ~ -2*sqrt(pi*x)")
    for x in ("100", "10000"):
        show(f"F({x},1)/sqrt(x)", f_spherical_ref(x) / mp.sqrt(mp.mpf(x)))

    print("# phi series (direct head + Euler-Maclaurin tail; the bracket is")
    print("# series-expanded at large k to dodge catastrophic cancellation)")

    def phi_bracket(x, k):
        u = 1 / (x + k)
        if u > mp.mpf("0.04"):
            return 1 + (k + mp.mpf("0.5")) * mp.log((x + k) / (x + k + 1))
        s = mp.mpf("0.5") - x
        total = mp.mpf(0)
        t = mp.mpf(1)
        j = 1
        while True:
            t *= -u
            piece = t * (mp.mpf(1) / (j + 1) - s / j)
            total -= piece
            # stop on u^j, which bounds every later piece, not on the piece
            # itself: its factor 1/(j+1) - s/j vanishes at s = j/(j+1)
            # (x = 0 at j = 1, x = -0.3 at j = 4), which is not convergence
            if abs(t) * (1 + abs(s)) < mp.mpf("1e-45") * (abs(total) + 1):
                return total
            j += 1

    def phi_term(x, k):
        k = mp.mpf(k)
        lc = mp.loggamma(2 * k + 1) - 2 * (k * mp.log(2) + mp.loggamma(k + 1))
        return 2 * mp.e ** lc * phi_bracket(x, k)

    def phi_ref(x, K=3000):
        x = mp.mpf(x)
        s = mp.mpf(0)
        for k in range(1, K):
            s += phi_term(x, k)
        integ = mp.quad(lambda k: phi_term(x, k),
                        [K, 2 * K, 10 * K, 100 * K, mp.inf])
        h = mp.mpf("0.25")
        d1 = (phi_term(x, K + h) - phi_term(x, K - h)) / (2 * h)
        d3 = (phi_term(x, K + 2 * h) - 2 * phi_term(x, K + h)
              + 2 * phi_term(x, K - h) - phi_term(x, K - 2 * h)) / (2 * h ** 3)
        tail = integ + phi_term(x, K) / 2 - d1 / 12 + d3 / 720
        return 2 - mp.log(1 + x) + s + tail

    for x in ("0", "0.5", "2", "-0.3", "5", "0.17"):
        show(f"phi({x})", phi_ref(x))

    print("# phi cross-check against the eta->0 limit of F (residual is the")
    print("# O(eta) intrinsic error of the asymptote, eta=1e-6 here)")
    x = mp.mpf("0.5")
    eta = mp.mpf("1e-6")
    approx = -f_integral_ref(x, eta) - mp.log(eta) - mp.digamma(x / eta)
    show("phi(0.5)_via_limit", approx)

    print("# quasi-1d asymptote reference (formula is exact arithmetic)")
    for x, eta in [("1", "100"), ("50", "100"), ("-60.4", "100")]:
        xm, em = mp.mpf(x), mp.mpf(eta)
        v = mp.sqrt(mp.pi * em) * (mp.zeta(mp.mpf("0.5"), 1 + xm / em)
                                   + mp.sqrt(em) * mp.gamma(xm)
                                   / mp.gamma(xm + mp.mpf("0.5")))
        show(f"Fq1d({x},{eta})", v)
        show(f"Fexact({x},{eta})", f_extended_ref(x, eta))


if __name__ == "__main__":
    main()
