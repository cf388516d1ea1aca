"""Excited-state Psi above E0 at 40 digits, at points where the geometry's
double-precision mode series fails: on the rho = 0 and z = 0 lines, far
out in rho at small z, at an energy with two modes below a = 1/2, and
1e-9 off the z = 0 plane.

Psi = pref/(2 pi^{3/2}) e^{-(zeta + y)/2} sum_m Gamma(a_m) U(a_m, b, zeta)
L_m^(alpha)(y), a_m = a0 + m step, for the radial modes (eta >= 1 or
rho = 0: zeta = z^2, y = eta rho^2, a0 = x, step = eta, b = 1/2,
alpha = 0, pref = eta) or the axial ones (zeta = eta rho^2, y = z^2,
a0 = x/eta, step = 1/eta, b = 1, alpha = -1/2, pref = 1), x = (E0 - E)/2.
Off the z = 0 plane by 1e-9, where e^(-zeta t) would cut the radial sum's
integral off only near t = 1e18, the axial modes sum the same Psi.
The modes with a_m < 1/2 are summed term by term with mpmath's gamma and
hyperu (at zeta = 0, Gamma(a) sqrt(pi)/Gamma(a + 1/2)); the others under
DLMF 13.4.4, Gamma(a) U(a, b, zeta) = int e^(-zeta t) t^(a-1)
(1 + t)^(b-a-1) dt, with the Laguerre generating function (DLMF 18.12.13)
summing them inside the integral: the bracket sum_{m>=n0} s^(m-n0) L_m(y),
s = (t/(1+t))^step, is the Laguerre series itself below s = 1/2 and the
closed form less the head above.  The working precision is 50 digits.
A cross-check row sums the axial series term by term at the eta = 7.3
point, where it converges (the radial one does not in double precision).

Energies are E = E0 + dE taken in double precision, as the tests form
them: 0.5 + eta + dE.
"""
from mpmath import mp

mp.dps = 50

POINTS = [
    # (eta, dE, rho, z)
    (7.3, 0.6, 2.0, 0.2),
    (2.0, 0.6, 0.0, 0.3),
    (2.0, 0.6, 0.3, 0.0),
    (0.5, 0.6, 0.0, 0.3),
    (0.5, 0.6, 0.0, 0.5),
    (2.0, 5.2, 0.0, 0.3),
    (2.0, 0.6, 0.3, 1e-9),
]
AXIAL = {(2.0, 0.6, 0.3, 1e-9)}   # points summed over the axial modes


def modes(eta, dE, rho, z):
    radial = (eta >= 1 or rho == 0) and (eta, dE, rho, z) not in AXIAL
    e = mp.mpf(0.5 + eta + dE)
    eta = mp.mpf(eta)
    x = (mp.mpf("0.5") + eta - e) / 2
    if radial:
        return x, eta, mp.mpf("0.5"), mp.mpf(0), eta, True
    return x / eta, 1 / eta, mp.mpf(1), mp.mpf("-0.5"), mp.mpf(1), False


def psi(eta, dE, rho, z):
    a0, step, b, alpha, pref, radial = modes(eta, dE, rho, z)
    rho, z = mp.mpf(rho), mp.mpf(z)
    zeta, y = ((z * z, eta * rho * rho) if radial
               else (eta * rho * rho, z * z))
    n0 = 0
    while a0 + n0 * step < mp.mpf("0.5"):
        n0 += 1
    an = a0 + n0 * step
    head = mp.mpf(0)
    for m in range(n0):
        a = a0 + m * step
        gu = (mp.gamma(a) * mp.hyperu(a, b, zeta) if zeta > 0
              else mp.gamma(a) * mp.sqrt(mp.pi) / mp.gamma(a + mp.mpf("0.5")))
        head += gu * mp.laguerre(m, alpha, y)

    def bracket(s):
        if s < mp.mpf("0.5"):
            return mp.nsum(lambda k: s ** k
                           * mp.laguerre(n0 + int(k), alpha, y), [0, mp.inf])
        g = (1 - s) ** (-alpha - 1) * mp.exp(-y * s / (1 - s))
        return (g - mp.fsum(s ** m * mp.laguerre(m, alpha, y)
                            for m in range(n0))) / s ** n0

    def f(t):
        p = t / (1 + t)
        return (mp.exp(-zeta * t) / t * (1 + t) ** (b - 1) * p ** an
                * bracket(p ** step))

    pts = [0, mp.mpf("0.001"), mp.mpf("0.01"), mp.mpf("0.1"), 1, 10, 100,
           1000, 10000, mp.inf]
    tail = mp.quad(f, pts)
    return (pref / (2 * mp.pi ** mp.mpf("1.5")) * mp.exp(-(zeta + y) / 2)
            * (head + tail))


def axial_series(eta, dE, rho, z, kmax=2000):
    e = mp.mpf(0.5 + eta + dE)
    eta, rho, z = mp.mpf(eta), mp.mpf(rho), mp.mpf(z)
    x = (mp.mpf("0.5") + eta - e) / 2
    w = eta * rho * rho
    total = mp.mpf(0)
    small = 0
    for k in range(kmax):
        a = (k + x) / eta
        term = mp.gamma(a) * mp.hyperu(a, 1, w) * mp.laguerre(k, -0.5, z * z)
        total += term
        small = small + 1 if abs(term) < mp.mpf("1e-45") * abs(total) else 0
        if small >= 3:
            break
    else:
        raise RuntimeError("axial series did not converge")
    return mp.exp(-(w + z * z) / 2) / (2 * mp.pi ** mp.mpf("1.5")) * total


def show(key, value):
    print("%s = %s" % (key, mp.nstr(value, 40)))


print("== Psi above E0 by the peeled Laplace integral, 50-digit work ==")
for eta, dE, rho, z in POINTS:
    show("psi(eta=%r,dE=%r,rho=%r,z=%r)" % (eta, dE, rho, z),
         psi(eta, dE, rho, z))
print("== cross-check: the axial series summed term by term ==")
ref = psi(7.3, 0.6, 2.0, 0.2)
ax = axial_series(7.3, 0.6, 2.0, 0.2)
show("axial_series(eta=7.3,dE=0.6,rho=2.0,z=0.2)", ax)
show("axial_series_relerr(eta=7.3,dE=0.6,rho=2.0,z=0.2)", abs(ax / ref - 1))
print("done")
