"""Settle the value of the phi series: robust Euler-Maclaurin summation.

The series bracket 1 + (k+1/2)*log((x+k)/(x+k+1)) suffers catastrophic
cancellation at large k when evaluated directly (it is O(1/k) from two O(1)
pieces), so for small u = 1/(x+k) it is expanded as
bracket = sum_{j>=1} (-1)^(j+1) u^j [1/(j+1) - s/j],  s = 1/2 - x.

Cross-checked against the eta->0 limit of the exact gamma-ratio closed form.
"""

from mpmath import mp

mp.dps = 40


def bracket(x, k):
    u = 1 / (x + k)
    if u > mp.mpf("0.04"):
        return 1 + (k + mp.mpf("0.5")) * mp.log((x + k) / (x + k + 1))
    s = mp.mpf("0.5") - x
    total = mp.mpf(0)
    term = mp.mpf(1)
    j = 1
    while True:
        term *= -u
        piece = term * (mp.mpf(1) / (j + 1) - s / j)
        total -= piece
        # stop on u^j, which bounds every later piece, not on the piece
        # itself: its factor 1/(j+1) - s/j vanishes at s = j/(j+1) (x = 0
        # at j = 1, x = -0.3 at j = 4), which is not convergence
        if abs(term) * (1 + abs(s)) < mp.mpf("1e-45") * (abs(total) + 1):
            break
        j += 1
    return total


def term(x, k):
    k = mp.mpf(k)
    lc = mp.loggamma(2 * k + 1) - 2 * (k * mp.log(2) + mp.loggamma(k + 1))
    return 2 * mp.e ** lc * bracket(x, k)


def phi_em(x, K=3000):
    x = mp.mpf(x)
    s = mp.mpf(0)
    for k in range(1, K):
        s += term(x, k)
    integ = mp.quad(lambda k: term(x, k), [K, 2 * K, 10 * K, 100 * K, mp.inf])
    h = mp.mpf("0.25")
    d1 = (term(x, K + h) - term(x, K - h)) / (2 * h)
    d3 = (term(x, K + 2 * h) - 2 * term(x, K + h) + 2 * term(x, K - h)
          - term(x, K - 2 * h)) / (2 * h ** 3)
    tail = integ + term(x, K) / 2 - d1 / 12 + d3 / 720
    return 2 - mp.log(1 + x) + s + tail


def f_pancake_ref(x, n):
    x = mp.mpf(x)
    s = mp.mpf(0)
    half = mp.mpf("0.5")
    for m in range(n):
        s += mp.gamma(x + mp.mpf(m) / n) * mp.rgamma(x - half + mp.mpf(m) / n)
    return -2 * mp.sqrt(mp.pi) / n * s


def main():
    for x in ["0", "0.05", "0.3", "0.5", "1.5", "2", "4.5",
              "-0.305", "-0.505", "-0.995", "0.005", "0.17"]:
        a = phi_em(mp.mpf(x))
        print(f"phi({x}) = {mp.nstr(a, 20)}")

    # K-stability check
    print(f"phi(0.5)@K=1500 = {mp.nstr(phi_em(mp.mpf('0.5'), K=1500), 20)}")

    # eta -> 0 limit probe at eta = 1e-5
    n = 100000
    eta = mp.mpf(1) / n
    for x in ["0.05", "0.5", "2"]:
        xm = mp.mpf(x)
        F = f_pancake_ref(xm, n)
        lim = -F - mp.log(eta) - mp.digamma(xm / eta)
        d = lim - phi_em(xm)
        print(f"x={x}: limit_phi = {mp.nstr(lim, 20)}  delta_vs_series = {mp.nstr(d, 6)}")


if __name__ == "__main__":
    main()
