"""30-digit references for the node-table sweeps of F and Psi.

F(x, eta) by its defining integral

    F = int_0^inf t^(-3/2) expm1(-x t - log q(t)/2 - log q(eta t)) dt,
    q(s) = (1 - e^(-s))/s,

and the pair wavefunction below E0 = 1/2 + eta by its proper-time integral

    Psi(rho, z) = eta/(2 pi)^(3/2) int_0^inf exp(E t - z^2 coth(t)/2
                  - eta rho^2 coth(eta t)/2) / (sqrt(sinh t) sinh(eta t)) dt.

A single tanh-sinh pass over [0, 1, inf] misses the e^(-x t) tail of F at
large x (4e-10 off at x = 1e6), so both integrals are split where their
integrands turn: at c/x (F) or c/(E0 - E) (Psi) for c in 0.1 ... 100, at
1/eta and 1, and for Psi at c rho^2 and c z^2 for c in 0.1 ... 10, where
the Gaussian exp(-r^2/(2t)) rises.  F's integrand has a t^(-1/2) endpoint
and a t^(-3/2) algebraic tail, which cost tanh-sinh ~17 digits; so F runs
in u = sqrt(t) up to the last split T, and beyond it the -t^(-3/2) part is
integrated in closed form.  Each value is computed twice, at 30 and
at 40 digits with every split doubled; 'check' is their relative
difference, 8e-22 at most over the table.

The points are those of tests/test_spectral.py::
test_node_table_matches_quadpack_sweep and tests/test_wavefn.py::
test_node_table_matches_quadpack_grids.  Their floats are built by the same
expressions as in the tests and keyed by repr.  The grid energies E are the
package's bound-state energies at 1/a = 0 and -1, stored by repr: the
references hold at that E whatever a later root search returns.

Run from the repository root (about eight minutes on one core):

    python3 tests/oracles/node_table_oracle.py \
        > tests/oracles/node_table_oracle.out
"""
import math

from mpmath import mp

SWEEP_ETAS = (0.003, 0.26, 2.37, 3.9, 300.0)
GRID_ETAS = (0.01, 0.5, 2.0, 100.0)
GRADE = (1e-3, 0.03, 0.1, 0.25, 0.5, 1.0, 1.7, 2.6)
# bound_state_exact(InteractionModel.from_inverse_a(inv_a),
#                   TrapGeometry(eta)).E
ENERGIES = {
    (0.01, 0.0): 0.255724525709346, (0.01, -1.0): 0.4775489530444435,
    (0.5, 0.0): 0.3454593078415662, (0.5, -1.0): 0.7086198628245528,
    (2.0, 0.0): 0.8552912390950551, (2.0, -1.0): 1.5534681066902098,
    (100.0, 0.0): 39.45721432014458, (100.0, -1.0): 45.957220866335646,
}


def sweep_xs(eta):
    return (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5 * max(eta, 1.0), 1.0, 7.3,
            100.0, 1e4, 1e6)


def grid_points(eta):
    rhos = [u / math.sqrt(eta) for u in GRADE]
    zs = (0.0,) + GRADE
    return ([(rho, z) for z in zs for rho in rhos]
            + [(0.0, z) for z in zs[1:]])


def f_integral(x, eta, widen=1):
    x, eta = mp.mpf(x), mp.mpf(eta)

    def log_l(t):
        # -x t - log q(t)/2 - log q(eta t), with 30 guard digits: it is
        # O(t) near t = 0, where the logs cancel
        with mp.extradps(30):
            return (-x * t - mp.log(-mp.expm1(-t) / t) / 2
                    - mp.log(-mp.expm1(-eta * t) / (eta * t)))

    pts = sorted({mp.mpf(1), 1 / eta}
                 | {widen * c / x for c in (0.1, 1, 10, 100)})
    # head in u = sqrt(t), where the t^(-1/2) endpoint becomes smooth;
    # tail with the algebraic -t^(-3/2) taken out as -2/sqrt(T)
    head = mp.quad(lambda u: 2 * mp.expm1(log_l(u * u)) / (u * u),
                   [mp.mpf(0)] + [mp.sqrt(p) for p in pts])
    tail = mp.quad(lambda t: t ** mp.mpf(-1.5) * mp.exp(log_l(t)),
                   [pts[-1], mp.inf])
    return head + tail - 2 / mp.sqrt(pts[-1])


def psi_integral(rho, z, E, eta, widen=1):
    rho, z, E, eta = (mp.mpf(v) for v in (rho, z, E, eta))
    gap = mp.mpf(0.5) + eta - E

    def f(t):
        return mp.exp(t * E - z * z / (2 * mp.tanh(t))
                      - eta * rho * rho / (2 * mp.tanh(eta * t))) / (
            mp.sqrt(mp.sinh(t)) * mp.sinh(eta * t))

    pts = {mp.mpf(0), mp.mpf(1), 1 / eta}
    pts |= {widen * c / gap for c in (0.1, 1, 10, 100)}
    pts |= {widen * c * s for s in (rho * rho, z * z) if s > 0
            for c in (0.1, 1, 10)}
    value = mp.quad(f, sorted(pts) + [mp.inf])
    return eta / (2 * mp.pi) ** mp.mpf(1.5) * value


def twice(fn, *args):
    mp.dps = 30
    v = fn(*args)
    mp.dps = 40
    w = fn(*args, widen=2)
    mp.dps = 30
    return v, w


def main():
    print("== F(x, eta) by the defining integral; "
          "check = |F30 - F40|/(1 + |F40|) ==")
    for eta in SWEEP_ETAS:
        for x in sweep_xs(eta):
            v, w = twice(f_integral, x, eta)
            print("F(x=%r,eta=%r) = %s  check=%s"
                  % (x, eta, mp.nstr(v, 30),
                     mp.nstr(abs(v - w) / (1 + abs(w)), 3)))
    print("== Psi below E0 by the proper-time integral; "
          "check = |P30/P40 - 1| ==")
    for eta in GRID_ETAS:
        for inv_a in (0.0, -1.0):
            E = ENERGIES[(eta, inv_a)]
            print("E(eta=%r,inv_a=%r) = %r" % (eta, inv_a, E))
            for rho, z in grid_points(eta):
                v, w = twice(psi_integral, rho, z, E, eta)
                print("psi(eta=%r,inv_a=%r,rho=%r,z=%r) = %s  check=%s"
                      % (eta, inv_a, rho, z, mp.nstr(v, 30),
                         mp.nstr(abs(v / w - 1), 3)))
    print("done")


if __name__ == "__main__":
    main()
