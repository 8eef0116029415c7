"""A 60-digit reference for a report's facts and a chain's S and N, each with an a-priori bound,
and the exact law of the off-line readings.

``report_facts(S, N, d, target, R, mean, cov)`` evaluates, with the standard
library's ``decimal`` at 60 significant digits, what a report reads off its
channel: the deviation |S - target|_F, tr N, the smaller eigenvalue of N,
the output's moments (mean S m + d and covariance sym(S V S^T + N), where
sym(X) = (X + X^T) / 2) and the fidelity of that output with the ideal
output (R m, sym(R V R^T)) of the pure reference R. The arguments are the
report's own floats, taken as exact, so the reference is exact to far
below a double's rounding and |float - reference| is the error of the float
route alone.

Each fact carries a bound on that error, derived here from the operations
of the closed forms and not fitted to any observed error. u = 2^-53 is the
unit roundoff, gamma(n) = n u / (1 - n u) bounds n successive roundings
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma
3.1), and |X| is X with each entry replaced by its magnitude. The bounds
hold to first order in u; the neglected terms are smaller by a further
factor of (bound / value), so they matter only where a bound is already
as large as its value.

* deviation = sqrt(sum of the four (s - t)^2): each difference and each
  square is one rounding and the sum of four non-negative terms at most
  three in any order, so the root's argument carries gamma(5) relative;
  the root halves that and adds one rounding: gamma(4) relative.
* noise_trace = a + c of N = [[a, b], [b, c]]: one rounding, u |a + c|.
* lambda_min: 32 u |N|max absolute; ``lambda_min_bound`` derives it.
* x, p (the output mean): two products and two sums, gamma(3) times
  |S||m| + |d|. var_x, cov_xp, var_p: S V is one 2-term product per entry
  (gamma(2) of |S||V|), (S V) S^T another (gamma(4) of |S||V||S|^T), + N
  one rounding and the symmetrization one more: gamma(6) times
  sym(|S||V||S|^T + |N|).
* fidelity F = exp(-q/2) / (2 sqrt(D)), with T = [[A, B], [B, C]] the sum
  of the two covariances, D = AC - B^2 and q = delta^T adj(T) delta / D for
  the difference delta of the two means. T's entries carry the roundings
  of both images and of their sum, gamma(7) times M_T = sym(|R||V||R|^T) +
  sym(|S||V||S|^T + |N|); delta carries gamma(4) times m_delta = |R||m| +
  |S||m| + |d|. D from the rounded entries then errs by at most
  gamma(7) (M_A |C| + |A| M_C + 2 |B| M_B) + gamma(2) (|AC| + B^2) <=
  gamma(16) (M_A M_C + M_B^2): relative, gamma(16) k_D with k_D = (M_A M_C
  + M_B^2) / D, the cancellation scale of det T (for S close to R, about
  max(1, |R|max)^4 |V|max^2 / D). The numerator of q takes four roundings
  per term, T's error gamma(7) and delta's error twice gamma(4), so it errs
  by at most gamma(19) P with P = |delta|^T adj(M_T) m_delta, adj of the
  non-negative M_T being [[M_C, M_B], [M_B, M_A]]; q errs by at most
  gamma(19) P / D + q (gamma(16) k_D + u). F's relative error is half of
  q's absolute error, half of D's relative error, and gamma(4) for the
  exponential (within 2 u), the root and the division. Where D is not
  positive at 60 digits (|T|^2 / D beyond 10^60) there is no fidelity fact.

``chain_channel_reference(kappas, var)`` gives a cluster chain's S and N,
as ``engine.chain_channel`` reads them, by folding the per-step channels
forward: start from S = I and N = 0, and for each step, first to last, set
S <- A(kappa) S and N <- A N A^T + var e_p e_p^T, with A(kappa) = [[-kappa,
-1], [1, 0]]. It takes the code's own floats, the kappas and the squeezed
variance var (``engine.resource_variances(r)[1]``), as exact, and never reads
the frame rule, which the engine's route rests on. The same fold on |A(kappa)|
gives |S|_fold = |A_{k-1}| ... |A_0| and N_fold = sum_j (P_j e_p)(P_j e_p)^T
var, with P_j = |A_{k-1}| ... |A_{j+1}|. The bounds on the engine's floats
follow its operations:

* The probe call of ``update_frame`` gives b_j = e_x and A_j exactly (each
  entry is 1, -1, 0 or -kappa, formed without rounding). The backward pass
  forms the product G_j = A_{k-1} ... A_{j+1} one factor at a time: the
  first column of G A_j is -kappa g_0 + g_1, one product and one sum (2
  roundings), the second is -g_0, exact. So, as for any product formed one
  factor at a time (Higham, section 3.5), |G_j - exact| <= gamma(2 (k-1-j))
  P_j, and the frame weights T_j = G_j e_x carry gamma(2k) P_j e_x.
* S = G_0 A_0 (its x column is -(kappa_0 T_0 + T_1), one more such step,
  its p column -T_0): |S - exact| <= gamma(2k) |S|_fold.
* N = var W W^T, symmetrized, where W holds the squeezed weights -T_j for
  j = 1..k-1 and e_p, and |T_j| <= P_j e_x = P_{j-1} e_p, so var |W||W|^T
  <= N_fold. The k-term inner products of W W^T, in any order, carry
  gamma(k) var |W||W|^T; the weights' errors carry 2 gamma(2k) of it; the
  product with var and the symmetrization's sum one rounding each. In all,
  |N - exact| <= gamma(5k + 2) N_fold.

P_j grows like the Fibonacci numbers where |kappa| is near 1, faster than
the product itself, so these bounds are loosest on long chains of large
|kappa|. As Higham's model, they ignore underflow: a product that falls
below the normal range errs by up to 2^-1075 absolutely, which a bound
relative to the folds does not cover (a subnormal kappa does that).

The re-pinning rule: a change may alter the bytes of a golden file under
``tests/data/golden`` only if every float it changes is no farther from
this reference than the float it replaces.

``readings_law_reference(uv_rows, cov0)`` gives the law of an off-line
teleporter's readings (u, v), uv cov0 uv^T for the 2x6 reading rows and the
6x6 covariance of the product state, exactly in ``fractions.Fraction`` from
the code's own floats and rounded once per entry: the correctly rounded
floats, with no bound to carry.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

U = Decimal(2) ** -53  # unit roundoff of a double


def gamma(n: int) -> Decimal:
    return n * U / (1 - n * U)


class Fact(NamedTuple):
    value: Decimal  # the 60-digit reference
    bound: Decimal  # the a-priori bound on |float - value|

    def error(self, got: float) -> Decimal:
        return abs(Decimal(got) - self.value)

    def holds(self, got: float) -> bool:
        return math.isfinite(got) and self.error(got) <= self.bound

    def ulps(self, got: float) -> float:
        """The error of ``got`` in units in the last place of the reference."""
        return float(self.error(got)) / math.ulp(float(self.value))


def _decimals(rows) -> list[list[Decimal]]:
    return [[Decimal(float(v)) for v in row] for row in rows]


def _matmul(A, B):
    return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]


def _transpose(A):
    return [[A[0][0], A[1][0]], [A[0][1], A[1][1]]]


def _sym(A):
    return [[A[i][j] / 2 + A[j][i] / 2 for j in range(2)] for i in range(2)]


def _abs(A):
    return [[abs(v) for v in row] for row in A]


def _image(M, m, V, N, d):
    """Mean M m + d and covariance sym(M V M^T + N)."""
    MVMt = _matmul(_matmul(M, V), _transpose(M))
    mean = [M[i][0] * m[0] + M[i][1] * m[1] + d[i] for i in range(2)]
    return mean, _sym([[MVMt[i][j] + N[i][j] for j in range(2)] for i in range(2)])


def lambda_min_bound(a: Decimal, b: Decimal, c: Decimal) -> Decimal:
    """32 u M for M = max(|a|, |b|, |c|), on LAPACK dlae2's smaller eigenvalue.

    Both eigenvalues lie in [-2M, 2M]. Take sm = a + c > 0 (sm < 0 is the
    mirror image). sm and a - c carry 2 u M each; rt = sqrt((a - c)^2 +
    4 b^2) <= 2 sqrt(2) M is formed from |a - c| and |2b| by a ratio, a
    square, a sum, a root and a product, within 4 u relative, plus the
    2 u M of a - c: 14 u M. rt1 = (sm + rt) / 2 then carries (2 + 14) u M
    / 2 and its own rounding u |rt1| <= 2.5 u M: 11 u M. rt1 >= max(a, c) and
    rt1 >= |b|, so the two terms of rt2 = (acmx / rt1) acmn - (b / rt1) b
    are each at most M and each carry rt1's relative error times at most
    M (11 u M) and two roundings (2 u M); the difference adds u |rt2| <=
    2 u M: 28 u M for rt2 and 11 u M for rt1, so 28 u M for the smaller.
    With sm = 0 the value is -rt / 2: 7 u M. numpy's eigvalsh reaches dlae2
    through LAPACK's dsyevd, which scales N into its safe range and back
    when |N|max is outside about [1e-146, 1e146]: one rounding of each
    entry and one of the result, 2 u M more, rounded up to 32 u M.
    """
    return 32 * U * max(abs(a), abs(b), abs(c))


def report_facts(S, N, d, target, R, mean, cov) -> dict[str, Fact]:
    """The reference and bound of each fact of a report, from its floats:
    S, N, target, R and cov as 2x2 nested sequences, d and mean as pairs."""
    with localcontext() as ctx:
        ctx.prec = 60
        S, N, T, R, V = (_decimals(X) for X in (S, N, target, R, cov))
        d, m = _decimals([d, mean])
        facts = {}

        diffs = [S[i][j] - T[i][j] for i in range(2) for j in range(2)]
        deviation = sum(x * x for x in diffs).sqrt()
        facts["deviation"] = Fact(deviation, gamma(4) * deviation)

        (a, b), (_, c) = N
        facts["noise_trace"] = Fact(a + c, U * abs(a + c))
        lam = (a + c) / 2 - (((a - c) / 2) ** 2 + b * b).sqrt()
        facts["lambda_min"] = Fact(lam, lambda_min_bound(a, b, c))

        out_mean, out_cov = _image(S, m, V, N, d)
        mag_mean, mag_cov = _image(_abs(S), _abs([m])[0], _abs(V), _abs(N), _abs([d])[0])
        for name, i in (("x", 0), ("p", 1)):
            facts[name] = Fact(out_mean[i], gamma(3) * mag_mean[i])
        for name, i, j in (("var_x", 0, 0), ("cov_xp", 0, 1), ("var_p", 1, 1)):
            facts[name] = Fact(out_cov[i][j], gamma(6) * mag_cov[i][j])

        zero, origin = [[Decimal(0)] * 2] * 2, [Decimal(0)] * 2
        ideal_mean, ideal_cov = _image(R, m, V, zero, origin)
        mag_ideal_mean, mag_ideal_cov = _image(_abs(R), _abs([m])[0], _abs(V), zero, origin)
        (A, B), (_, C) = [[ideal_cov[i][j] + out_cov[i][j] for j in range(2)] for i in range(2)]
        (MA, MB), (_, MC) = [[mag_ideal_cov[i][j] + mag_cov[i][j] for j in range(2)] for i in range(2)]
        delta = [ideal_mean[i] - out_mean[i] for i in range(2)]
        mag_delta = [mag_ideal_mean[i] + mag_mean[i] for i in range(2)]
        D = A * C - B * B
        if D <= 0:  # T's determinant cancels past 60 digits: no fidelity fact
            return facts
        q = (C * delta[0] * delta[0] - 2 * B * delta[0] * delta[1] + A * delta[1] * delta[1]) / D
        fidelity = (-q / 2).exp() / (2 * D.sqrt())
        k_D = (MA * MC + MB * MB) / D
        dx, dp = abs(delta[0]), abs(delta[1])
        P = dx * (MC * mag_delta[0] + MB * mag_delta[1]) + dp * (MB * mag_delta[0] + MA * mag_delta[1])
        q_error = gamma(19) * P / D + q * (gamma(16) * k_D + U)
        relative = q_error / 2 + gamma(16) * k_D / 2 + gamma(4)
        facts["fidelity"] = Fact(fidelity, relative * fidelity)
        return facts


def chain_channel_reference(kappas, var) -> tuple[list[list[Fact]], list[list[Fact]]]:
    """S and N of the chain of steps ``kappas`` with squeezed resource variance
    ``var``, by the forward fold of the per-step channels, each entry a Fact
    with its bound on ``engine.chain_channel``'s float."""
    with localcontext() as ctx:
        ctx.prec = 60
        var = Decimal(float(var))
        one, zero = Decimal(1), Decimal(0)
        S = S_fold = [[one, zero], [zero, one]]
        N = N_fold = [[zero, zero], [zero, zero]]
        for kappa in kappas:
            A = [[-Decimal(float(kappa)), -one], [one, zero]]
            S, S_fold = _matmul(A, S), _matmul(_abs(A), S_fold)
            N = _matmul(_matmul(A, N), _transpose(A))
            N_fold = _matmul(_matmul(_abs(A), N_fold), _transpose(_abs(A)))
            N[1][1] += var
            N_fold[1][1] += var
        k = len(kappas)
        return (
            [[Fact(S[i][j], gamma(2 * k) * S_fold[i][j]) for j in range(2)] for i in range(2)],
            [[Fact(N[i][j], gamma(5 * k + 2) * N_fold[i][j]) for j in range(2)] for i in range(2)],
        )


def readings_law_reference(uv_rows, cov0) -> list[list[float]]:
    """uv_rows cov0 uv_rows^T of the floats given, exact, each entry rounded once."""
    U = [[Fraction(float(v)) for v in row] for row in uv_rows]
    C = [[Fraction(float(v)) for v in row] for row in cov0]
    n = len(C)
    return [
        [float(sum(U[i][j] * C[j][k] * U[m][k] for j in range(n) for k in range(n))) for m in range(2)]
        for i in range(2)
    ]
