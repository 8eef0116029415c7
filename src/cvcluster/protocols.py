"""Canned experiments, each returning a structured report.

Cluster protocols run the measurement engine on a linear chain; the off-line
protocols teleport through a (possibly gate-modified) two-mode squeezed
resource. Every corrected protocol is an affine map of its initial product
state, and every report takes one path. A builder states only its step program
(segment, repeats), in ``_CHAIN_PROGRAMS`` (``squeezer_steps`` is the four-step
pattern), or off-line ``r_gate`` (teleportation is the squeezer at r_gate 0),
its target, fidelity reference and own checks. Its family's helper,
``_chain_report`` or ``_offline_report``, refuses an input that is not one
physical mode and reads the channel and leak once (a chain's from
``engine.chain_channel``; the off-line map is stated in closed form in
``_offline_report`` alone and read through ``engine.affine_channel``), and
gives N by a second route: a chain's ``_program_noise``, or off-line the closed
form (e^{-2r}/2) diag(e^{-2 r_gate}, e^{2 r_gate}). ``_report`` then builds the
report, once. It reads the report's numbers off the channel in closed-form 2x2
arithmetic on Python floats (no ``np.linalg`` call and no ``GaussianState``):
the deviation from the target, the noise and the fidelity of the input's image
to its ideal output (one overlap, in a frame of exact powers of two). It makes
the four checks every report holds, once: the leak's, ``outcome_independent``
(or the negative control's ``outcome_dependence_detected``); the noise's
positivity, its smaller eigenvalue in LAPACK's closed form;
``matches_exact_matrix``, S against the builder's exact matrix; and
``noise_matches_oracle``, N against the helper's second route. Every noise
bound is relative to the noise it holds. The builder reads the report's fields
for its own checks and appends them with ``dataclasses.replace``; every check
holds a Python bool and a Python float or None, which ``cli`` writes into a run
document as they are. A channel whose S, N or deviation is not finite is
refused with ``ChannelOverflowError`` (naming ``kappa``, or ``r_gate``
off-line), and one that carries the input past double precision (an image mean
or the fidelity not finite, among others) with ``InputOverflowError``, raised
with numpy's overflow warnings off in builders and record draws. The channel
does not depend on the outcomes, so a report draws its records, one
``RecordColumns`` per trial from its integer seed, when they are first read
(``record_columns``): a sweep point's report draws none; an off-line report
forms its readings' correctly rounded law only then. A report's target and
parameters are read-only. A protocol id is its builder's name here, and
``PROTOCOLS`` maps it to the parameters it reads. One table, ``PARAMETERS``,
states each config-style parameter's default, cast, rule and largest value
once; ``checked_parameter``, ``checked_sweep`` and ``document_records`` check a
value, a sweep grid and a run's records (a chain's from its program). Every
config rule, overflows included, is written here once and refuses with a
``ConfigError`` whose text the CLI prints; builder preconditions stay
``ValueError``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import algebra, engine, phase_space
from .phase_space import VACUUM_VARIANCE, GaussianState, _generator, squeezer, vacuum_state
from .engine import (
    GaussianChannel,
    RecordColumns,
    affine_channel,
    chain_channel,
    chain_records,
    pair_sampler,
    resource_variances,
)

INDEPENDENCE_TOL = 1e-9
DEPENDENCE_MIN = 1e-3
ROUNDING_TOL = 64 * float(np.finfo(float).eps)
# the longest chain a parameter may ask for, and the most records a run document may
# hold: each keeps a document within a few hundred MB
MAX_CHAIN_STEPS = 10**5
MAX_RECORDS = 10**5


def _max_abs(rows: list) -> float:
    return max(abs(v) for row in rows for v in row)


class ConfigError(ValueError):
    """A config-style name or value that a rule of this module refuses."""


class ChannelOverflowError(ConfigError, OverflowError):
    """A channel beyond double precision, refused naming ``kappa`` or, off-line, ``r_gate``."""


class InputOverflowError(ConfigError, OverflowError):
    """The channel is finite, but the input state's image under it overflows
    double precision; the refusal names ``input``."""


def _require_finite(values: Iterable[float], what: str) -> None:
    """Refuse input-dependent report values that overflowed."""
    if not all(map(math.isfinite, values)):
        raise InputOverflowError(
            "field 'input': the input state overflows double precision through the channel: "
            f"{what} is not finite"
        )


def db_to_squeezing_r(db: float) -> float:
    """s dB of squeezing corresponds to e^{-2r} = 10^{-s/10}."""
    if not 0 <= db < math.inf:  # NaN fails both comparisons
        raise ValueError(f"squeezing_db must be finite and >= 0, got {db!r}")
    return db * math.log(10.0) / 20.0


def _finite_squeezing(r: float) -> bool:
    """True if e^{2r} and e^{-2r} are both finite floats."""
    try:
        return math.isfinite(math.exp(2 * abs(r)))
    except OverflowError:
        return False


# config-style name -> its default, cast, condition on the cast value, the message if
# that fails, and its largest value or None; the CLI and the library check through it
Parameter = namedtuple("Parameter", "default cast condition rule largest", defaults=[None])
PARAMETERS = {
    "squeezing_db": Parameter(
        100.0,
        float,
        lambda v: 0 <= v < math.inf and _finite_squeezing(db_to_squeezing_r(v)),
        "must be finite and >= 0, with e^{2r} finite",
    ),
    "kappa": Parameter(0.2, float, math.isfinite, "must be finite"),
    "n_nodes": Parameter(5, int, lambda v: v >= 2, "must be >= 2", MAX_CHAIN_STEPS + 1),
    "segments": Parameter(1, int, lambda v: v >= 1, "must be >= 1", MAX_CHAIN_STEPS // 4),
    "r_gate": Parameter(0.04, float, _finite_squeezing, "must be finite, with e^{2|r_gate|} finite"),
    "seed": Parameter(0, int, lambda v: v >= 0, "must be a non-negative integer"),
    "trials": Parameter(1, int, lambda v: v >= 1, "must be >= 1"),
}
# the protocol parameters: all but the run's seed and trials
PARAMETER_DEFAULTS = {n: p.default for n, p in PARAMETERS.items() if n not in ("seed", "trials")}


# a JSON value's type -> what a refusal says it got: "expected a string, got a list"
_JSON_KINDS = {bool: "a boolean", type(None): "null", int: "a number", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def json_kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def checked_parameter(name: str, raw, label: str | None = None):
    """``raw`` cast by ``PARAMETERS[name]``, its condition and bound checked; a
    refusal is a ``ConfigError`` naming ``label`` (default ``name``). Booleans and
    strings are refused, and an integer parameter refuses a float with a fractional part."""
    _, cast, condition, rule, largest = PARAMETERS[name]
    label = label or name
    if isinstance(raw, (bool, str)):
        raise ConfigError(f"field {label!r}: expected {cast.__name__}, got {json_kind(raw)}")
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {label!r}: expected {cast.__name__}")
    if cast is int and isinstance(raw, float) and value != raw:
        raise ConfigError(f"field {label!r}: expected an integer, got {raw!r}")
    if not condition(value):
        raise ConfigError(f"field {label!r}: {rule}")
    if largest is not None and value > largest:
        bound = f"must be <= {largest}, a chain of at most {MAX_CHAIN_STEPS} steps"
        raise ConfigError(f"field {label!r}: {bound}")
    return value


class ProtocolCheck(NamedTuple):
    name: str
    passed: bool
    value: float | None = None


RecordTable = tuple[RecordColumns, ...]  # one set of columns per trial


@dataclass(frozen=True)
class ProtocolReport:
    name: str
    parameters: Mapping[str, object]  # read-only; a dict passed in is copied
    channel: GaussianChannel
    target_S: np.ndarray
    deviation: float
    noise_trace: float
    fidelity: float | None
    checks: tuple[ProtocolCheck, ...]
    # a picklable zero-argument draw of the record columns, called at most once
    draw_records: Callable[[], RecordTable] = field(compare=False, repr=False)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def record_columns(self) -> RecordTable:
        """One set of record columns per trial, drawn when first read."""
        table = self.draw_records()
        outcomes = chain.from_iterable(
            column for trial in table for column in (trial.raw_outcome, trial.rescaled_outcome)
        )
        _require_finite(outcomes, "an outcome record")
        return table

    def __post_init__(self):
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))

    # a mapping proxy does not pickle: the state holds a plain copy of the parameters
    def __getstate__(self):
        return {**vars(self), "parameters": dict(self.parameters)}

    def __setstate__(self, state):
        vars(self).update(state, parameters=MappingProxyType(state["parameters"]))

    __eq__ = phase_space._value_eq  # target_S by its entries, draw_records not at all

    def check(self, name: str) -> ProtocolCheck:
        return {c.name: c for c in self.checks}[name]  # names are unique in a report

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


_Moments = namedtuple("_Moments", "x p var_x cov_xp var_p")  # one mode's, as floats


def _image(M: list, mean: list, cov: list, N=((0.0, 0.0), (0.0, 0.0))) -> _Moments:
    """M mean and M cov M^T + N for symmetric cov and N, in plain float products
    (not bitwise ``GaussianChannel.apply``'s BLAS ones); a variance is 0.5 (c + c), as
    ``apply`` symmetrizes, so that one past half the largest float overflows here too."""
    (m00, m01), (m10, m11) = M
    (v00, v01), (v10, v11) = cov
    t00, t01 = m00 * v00 + m01 * v10, m00 * v01 + m01 * v11
    t10, t11 = m10 * v00 + m11 * v10, m10 * v01 + m11 * v11
    c00, c11 = t00 * m00 + t01 * m01 + N[0][0], t10 * m10 + t11 * m11 + N[1][1]
    x, p = mean
    return _Moments(m00 * x + m01 * p, m10 * x + m11 * p, 0.5 * (c00 + c00),
                    t00 * m10 + t01 * m11 + N[0][1], 0.5 * (c11 + c11))


def _frobenius(A: list, B: list) -> float:
    """|A - B|_F of 2x2 nested lists from the plain sum of squares, which
    overflows to inf as numpy's norm does once the squares do."""
    d = [x - y for row_a, row_b in zip(A, B) for x, y in zip(row_a, row_b)]
    return math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])


def _smallest_eigenvalue(a: float, b: float, c: float) -> float:
    """The smaller eigenvalue of [[a, b], [b, c]] as LAPACK's dlae2 takes it for
    numpy's eigvalsh: the one of larger magnitude, rt1, first and the other as
    det / rt1, so that neither cancels when the matrix is nearly singular."""
    small, big = sorted((abs(a - c), abs(b + b)))
    rt, sm = (big * math.sqrt(1.0 + (small / big) * (small / big)) if big else 0.0), a + c
    if sm == 0.0:  # otherwise |sm| + rt >= 2 max(|a|, |c|) > 0, and rt1 is not zero
        return -0.5 * rt
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    rt1 = 0.5 * (sm - rt if sm < 0.0 else sm + rt)
    return min(rt1, (acmx / rt1) * acmn - (b / rt1) * b)


def _scaled(M: list, rows: list, cols=(0, 0)) -> list:
    """The 2-column nested list M with entry (i, j) scaled by 2^-(rows[i] + cols[j])."""
    return [[math.ldexp(v, -e - f) for v, f in zip(row, cols)] for row, e in zip(M, rows)]


def _overlap(ideal: _Moments, output: _Moments) -> float:
    """Tr[|ideal><ideal| output] = exp(-q/2) / (2 sqrt(det T)) for the sum T of the
    covariances and q = delta^T T^-1 delta >= 0, T^-1 from its adjugate; q is
    clamped at 0 against rounding, so that exp cannot raise OverflowError."""
    a, b, c = ideal.var_x + output.var_x, ideal.cov_xp + output.cov_xp, ideal.var_p + output.var_p
    dx, dp = ideal.x - output.x, ideal.p - output.p
    det_total = a * c - b * b
    q = (c * dx * dx - 2.0 * b * dx * dp + a * dp * dp) / det_total
    return 0.5 * math.exp(-0.5 * max(q, 0.0)) / math.sqrt(det_total)


def _report(name: str, parameters: dict, channel: GaussianChannel, leak: float,
            draw: Callable[[], RecordTable], target_S: np.ndarray, input_state: GaussianState,
            overflow_field: str, route: list, steps: int = 1, reference_S=None,
            control: bool = False) -> ProtocolReport:
    """The report of a channel, its leak, record draw and target, with the numbers
    read off them once, in closed-form 2x2 arithmetic on floats: the deviation
    |S - target|_F, tr N and the fidelity of the input's image to its ideal output.
    Its checks are the four every report holds: ``outcome_independent`` of the leak
    (with ``control``, the negative control's ``outcome_dependence_detected``),
    ``channel_noise_psd``, ``matches_exact_matrix`` (S against R, ``reference_S`` else
    ``target_S``) and ``noise_matches_oracle`` (N against ``route``, N by a second route),
    the last two within ``steps`` steps' rounding at R's or the route's size (each step's
    rounding is carried to the end). S's bound is at least an absolute 1e-6; the noise's
    has no absolute floor, which N (5e-11 at 100 dB) could sit under."""
    S, N = channel.S.tolist(), channel.N.tolist()
    deviation = _frobenius(S, target_S.tolist())
    if not all(map(math.isfinite, [*S[0], *S[1], *N[0], *N[1], deviation])):
        raise ChannelOverflowError(
            f"field {overflow_field!r}: the channel overflows double precision: "
            "S, N or deviation not finite"
        )
    mean, cov = input_state.mean.tolist(), input_state.cov.tolist()
    output = _image(S, mean, cov, N)
    # fidelity needs a pure reference, so it is taken against a symplectic
    # matrix even when the protocol's comparison target is an approximation
    R = (target_S if reference_S is None else reference_S).tolist()
    ideal = _image(R, mean, cov)
    # a reference too ill-conditioned for double precision leaves the ideal
    # covariance numerically singular, and its Tr rho^2 = 1 / (4 sqrt(det))
    # unresolved: no fidelity then (a det that overflows to inf or NaN fails)
    det = ideal.var_x * ideal.var_p - ideal.cov_xp * ideal.cov_xp
    fidelity = None
    if det > 0 and abs(VACUUM_VARIANCE / math.sqrt(det) - 1.0) <= 1e-9:
        # one frame: quadrature i of both images scaled by 2^-e[i], exact away from subnormals;
        # e[i] brings the larger of its ideal and noise variance near 1 outside 2^-500..2^500
        # (inside, where a product of two stays normal, e[i] is 0), but no image mean past 2^1020
        e = [max(k // 2 if abs(k) > 500 else 0, math.frexp(max(abs(a), abs(b)))[1] - 1020)
             for k, a, b in ((math.frexp(max(ideal.var_x, abs(N[0][0])))[1], ideal.x, output.x),
                             (math.frexp(max(ideal.var_p, abs(N[1][1])))[1], ideal.p, output.p))]
        try:  # the images in the frame e: the plain ones where e is 0
            framed = (ideal, output) if not any(e) else (
                _image(_scaled(R, e), mean, cov),
                _image(_scaled(S, e), mean, cov, _scaled(N, e, e)))
            fidelity = math.ldexp(_overlap(*framed), -sum(e))
        except OverflowError:  # a scaled entry or the fidelity past the largest float
            fidelity = math.inf
        _require_finite([*ideal[:2], *output[:2], fidelity], "the fidelity")
    if control:
        independence = ProtocolCheck("outcome_dependence_detected", leak > DEPENDENCE_MIN, leak)
    else:
        independence = ProtocolCheck("outcome_independent", leak <= INDEPENDENCE_TOL, leak)
    (a, b), (_, c) = N
    lam_min = _smallest_eigenvalue(a, b, c)
    psd_ok = lam_min >= -ROUNDING_TOL * max(abs(a), abs(b), abs(c))
    exact = deviation if reference_S is None else _frobenius(S, R)
    noise_err = _max_abs([[n - o for n, o in zip(*rows)] for rows in zip(N, route)])
    checks = (independence, ProtocolCheck("channel_noise_psd", psd_ok, lam_min),
              ProtocolCheck("matches_exact_matrix",
                            exact <= max(1e-6, ROUNDING_TOL * (steps * _max_abs(R))), exact),
              ProtocolCheck("noise_matches_oracle",
                            noise_err <= ROUNDING_TOL * steps * _max_abs(route), noise_err))
    return ProtocolReport(name, parameters, channel, phase_space._readonly(target_S), deviation,
                          N[0][0] + N[1][1], fidelity, checks, draw)


def _trial_seeds(input_state: GaussianState, seed: int, trials: int) -> range:
    """The outcome seeds of a report's trials, trial t drawing with seed + t.
    An input that is not one mode obeying cov + (i/4)J >= 0 is refused, before any channel."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if input_state.n_modes == 1:
        # cov + (i/4)J has eigenvalues mid -+ half; as in phase_space.uncertainty_defect,
        # the smaller may round below 0 by at most 1e-12 of the larger (NaN fails)
        (a, b), (_, c) = input_state.cov.tolist()
        mid, half = (a + c) / 2, math.hypot((a - c) / 2, b, 0.25)
    if input_state.n_modes != 1 or not mid - half >= -1e-12 * max(1.0, mid + half):
        raise ValueError("input must be a single-mode state that obeys the uncertainty relation")
    return range(seed, seed + trials)


def squeezer_steps(kappa: float) -> list[float]:
    """The four-step squeezer pattern: shears (kappa, kappa, -kappa, -kappa)."""
    kappa = engine._kappas([kappa]).item()  # refused by the kappa rule before any target is formed
    return [kappa, kappa, -kappa, -kappa]


# chain protocol id -> its step program (segment, repeats) from its PROTOCOLS parameters
_CHAIN_PROGRAMS = {
    "identity_chain": lambda n_nodes: ([0.0], n_nodes - 1),
    "squeezer_four_step": lambda kappa: (squeezer_steps(kappa), 1),
    "repeated_squeezer": lambda segments, kappa: (squeezer_steps(kappa), segments),
}
# an affine pair (S, G) is S row by row, then G's g00, g01, g11; this one is (I, 0)
_UNIT_PAIR = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def _then(first: tuple, second: tuple) -> tuple:
    """The affine pair of ``first`` and then ``second``: (S2 S1, S2 G1 S2^T + G2)."""
    a, b, c, d, p, q, s = first
    A, B, C, D, P, Q, S = second
    t00, t01, t10, t11 = A * p + B * q, A * q + B * s, C * p + D * q, C * q + D * s
    return (A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d,
            t00 * A + t01 * B + P, t00 * C + t01 * D + Q, t10 * C + t11 * D + S)


def _program_noise(segment: Sequence[float], repeats: int, r: float) -> list:
    """N of the chain of ``segment`` run ``repeats`` times, by a route that reads
    neither the frame rule, the engine's weights nor ``resource_variances``: step
    kappa is the affine pair (A(kappa), v e_p e_p^T), A(kappa) = [[-kappa, -1], [1, 0]]
    and v = e^{-2r}/4, composed in Python floats, and the repeats are taken by binary
    powering. v rides in every step's pair, so that G is finite wherever N is."""
    v = math.exp(-2 * r) / 4
    pair = power = _UNIT_PAIR
    for kappa in segment:
        pair = _then(pair, (-kappa, -1.0, 1.0, 0.0, 0.0, 0.0, v))
    while repeats:  # the last squaring is not read, so it may overflow
        if repeats & 1:
            power = _then(power, pair)
        pair, repeats = _then(pair, pair), repeats >> 1
    *_, g00, g01, g11 = power
    return [[g00, g01], [g01, g11]]


def _chain_report(name: str, parameters: dict, program: tuple[list[float], int], r: float,
                  input_state: GaussianState, seed: int, trials: int, target_S: np.ndarray,
                  reference_S=None) -> ProtocolReport:
    """The report of the chain of ``program``, (segment, repeats): S is held to the
    builder's exact matrix and N to ``_program_noise``'s, each within k steps' rounding."""
    steps = program[0] * program[1]  # the segment's kappas, repeats times over
    draw = partial(chain_records, input_state, steps, r, _trial_seeds(input_state, seed, trials))
    channel, leak = chain_channel(steps, r)
    return _report(name, parameters, channel, leak, draw, target_S, input_state, "kappa",
                   _program_noise(*program, r), len(steps), reference_S)


# F^n for n mod 4, the bytes np.linalg.matrix_power(fourier(), n) gives
_FOURIER_POWERS = [np.array(m) for m in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]],
                                         [[-1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [-1.0, 0.0]])]


@np.errstate(over="ignore", invalid="ignore")
def identity_chain(
    n_nodes: int, r: float, input_state: GaussianState, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Propagate the input through an n-mode chain with plain p detections.

    ``n_nodes`` counts the input mode plus the cluster nodes, so the run
    makes n_nodes - 1 steps and the target is the (n_nodes - 1)-fold Fourier.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    parameters = {"n_nodes": n_nodes, "squeezing_r": r, "seed": seed}
    return _chain_report("identity_chain", parameters, _CHAIN_PROGRAMS["identity_chain"](n_nodes),
                         r, input_state, seed, trials, _FOURIER_POWERS[(n_nodes - 1) % 4])


@np.errstate(over="ignore", invalid="ignore")
def squeezer_four_step(
    kappa: float, r: float, input_state: GaussianState, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Measurement-implemented squeezer on a five-mode chain.

    Four steps with shear parameters (kappa, kappa, -kappa, -kappa) realize
    diag(1 - kappa^2, 1 + kappa^2) up to O(kappa^3); the channel is also
    compared against the exact four-step product matrix.
    """
    program = _CHAIN_PROGRAMS["squeezer_four_step"](kappa)
    kappa2 = np.float64(kappa) ** 2  # the pow of kappa**2, but inf, not OverflowError
    target = np.diag([1.0 - kappa2, 1.0 + kappa2])
    parameters = {"kappa": kappa, "squeezing_r": r, "seed": seed}
    report = _chain_report("squeezer_four_step", parameters, program, r, input_state, seed, trials,
                           target, reference_S=algebra.squeezer_protocol_matrix(kappa))
    cubic = ProtocolCheck("within_cubic_error_of_target",
                          report.deviation <= 2.0 * abs(kappa) ** 3 + 1e-12, report.deviation)
    return replace(report, checks=(*report.checks, cubic))


@np.errstate(over="ignore", invalid="ignore")
def repeated_squeezer(
    segments: int,
    kappa: float,
    r: float,
    input_state: GaussianState,
    seed: int = 0,
    trials: int = 1,
) -> ProtocolReport:
    """Repeat the four-step squeezer pattern to accumulate squeezing."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    program = _CHAIN_PROGRAMS["repeated_squeezer"](segments, kappa)
    target = np.linalg.matrix_power(algebra.squeezer_protocol_matrix(kappa), segments)
    parameters = {"segments": segments, "kappa": kappa, "squeezing_r": r, "seed": seed}
    return _chain_report("repeated_squeezer", parameters, program, r, input_state, seed, trials,
                         target)


# ---------------------------------------------------------------------------
# off-line teleportation schemes: the input is teleported through a two-mode
# squeezed resource whose second half carries the off-line gate G, and the
# output is displaced by the gain K times the readings (u, v). The corrected
# output, as for chains, is an affine map of the factored initial moments,
# stated in closed form in ``_offline_report`` and read through ``affine_channel``.

_H = 1.0 / math.sqrt(2.0)  # beamsplitter_5050's float amplitude h; sqrt(2) h is 1.0
_H_SQUARED = Fraction(_H) ** 2
# the outcome-free record columns of an off-line trial: step index, mode,
# kappa and theta of the x-port reading u, then of the p-port reading v
_OFFLINE_COLUMNS = ((0, 1), (1, 0), (0.0, 0.0), (-math.pi / 2, 0.0))


def _offline_trials(input_state: GaussianState, r: float, seeds: range) -> RecordTable:
    """Each trial's record columns, u from the x port and v from the p port,
    drawn from the readings' law: the input's mean and covariance, plus
    e = h^2 (var_anti + var_squeezed) on the diagonal, each variance rounded
    once from the exact sum of these floats. One ``pair_sampler`` per call,
    and the trial with seed s draws with one generator of s."""
    e = _H_SQUARED * sum(map(Fraction, resource_variances(r)))
    (a, b), (b_, c) = input_state.cov.tolist()
    try:
        var_u, var_v = float(Fraction(a) + e), float(Fraction(c) + e)
    except OverflowError:  # past the largest float: the draws are not finite and refused
        var_u = var_v = math.inf
    draw = pair_sampler(input_state.mean.tolist(), [[var_u, b], [b_, var_v]])
    draws = (draw(*_generator(s).standard_normal(2).tolist()) for s in seeds)
    return tuple(RecordColumns(*_OFFLINE_COLUMNS, (u * _H, v * _H), (u, v)) for u, v in draws)


def _offline_report(name: str, parameters: dict, input_state: GaussianState, r: float,
                    r_gate: float, seed: int, trials: int, control: bool = False) -> ProtocolReport:
    """The report of teleportation through the resource modified by the gate
    G = ``squeezer(r_gate)``, corrected by the gain K times (u, v): K is G, or I for
    ``control``, the negative control, whose leak must show outcome dependence. G is
    the target, and N is held to (e^{-2r}/2) diag(e^{-2 r_gate}, e^{2 r_gate}).

    The map is over the product state's quadratures (x_0, p_0) of the input,
    then x_1, p_1, x_2, p_2 of the resource, of which x_1 and p_2 are
    anti-squeezed. The readings are u = x_0 - h (x_1 + x_2) and
    v = p_0 + h (p_1 + p_2), whatever the gate, and the uncorrected output is
    h G (x_1 - x_2, p_1 - p_2). The corrected output thus weighs the input by
    K, (x_1, p_2) by (h G[:, 0] - h K[:, 0], h K[:, 1] - h G[:, 1]) and
    (p_1, x_2) by (h G[:, 1] + h K[:, 1], -h G[:, 0] - h K[:, 0]): each h g
    rounded, then one add, the floats of the three-mode circuit's product.
    """
    seeds = _trial_seeds(input_state, seed, trials)
    # the gate maps the byproduct X(-u)Z(-v) to the displacement with
    # coefficients gate (u, v): the gate is also the gain and the target
    gate = squeezer(r_gate)
    gain = np.eye(2) if control else gate
    hG, hK = _H * gate, _H * gain
    anti = np.column_stack([hG[:, 0] - hK[:, 0], hK[:, 1] - hG[:, 1]])
    squeezed = np.column_stack([hG[:, 1] + hK[:, 1], -hG[:, 0] - hK[:, 0]])
    channel, leak = affine_channel(gain, anti, squeezed, r)
    draw = partial(_offline_trials, input_state, r, seeds)
    v = 0.5 * math.exp(-2 * r)
    noise = [[v * math.exp(-2 * r_gate), 0.0], [0.0, v * math.exp(2 * r_gate)]]
    return _report(name, parameters, channel, leak, draw, gate, input_state, "r_gate", noise,
                   control=control)


@np.errstate(over="ignore", invalid="ignore")
def offline_teleport(
    input_state: GaussianState, r: float, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Unity-gain teleportation through the two-mode squeezed resource: the
    off-line squeezer at r_gate 0, whose gate ``squeezer(0.0)`` is the identity.

    The corrected output reproduces the input with e^{-2r}/2 of added noise
    per quadrature; a pure vacuum input's fidelity is 1/(1 + e^{-2r}).
    """
    report = _offline_report("offline_teleport", {"squeezing_r": r, "seed": seed}, input_state, r,
                             0.0, seed, trials)
    # np.allclose's test of the vacuum's moments, |a - b| <= 1e-8 + 1e-5 |b|, on floats
    (x, p), ((a, b), (b_, c)) = input_state.mean.tolist(), input_state.cov.tolist()
    vacuum = zip((x, p, a, b, b_, c), (0.0, 0.0, VACUUM_VARIANCE, 0.0, 0.0, VACUUM_VARIANCE))
    # and pure to rounding: a mixed input's fidelity is off the closed form by
    # its 1 - Tr rho^2, which the bound below (1e-6 (1 - F), 1e-16 at 100 dB) would hold
    is_vacuum = report.fidelity is not None and all(
        abs(got - want) <= 1e-8 + 1e-5 * abs(want) for got, want in vacuum
    ) and abs(VACUUM_VARIANCE / math.sqrt(a * c - b * b_) - 1.0) <= ROUNDING_TOL / 2
    if is_vacuum:  # held relative to 1 - F, which is 1e-10 at 100 dB, with a rounding floor
        closed_form = 1.0 / (1.0 + math.exp(-2 * r))
        fid_err = abs(report.fidelity - closed_form)
        fid_ok = fid_err <= max(1e-6 * (1.0 - closed_form), ROUNDING_TOL)
        check = ProtocolCheck("vacuum_fidelity_matches_closed_form", fid_ok, fid_err)
        report = replace(report, checks=(*report.checks, check))
    return report


@np.errstate(over="ignore", invalid="ignore")
def offline_squeezer(
    input_state: GaussianState,
    r: float,
    r_gate: float,
    seed: int = 0,
    rescale_correction: bool = True,
    trials: int = 1,
) -> ProtocolReport:
    """Teleportation-based squeezer: the gate is applied to the resource
    off-line, and the feedforward displacements are rescaled by
    (e^{-r_gate}, e^{+r_gate}).

    With ``rescale_correction=False`` the plain teleportation displacements
    are applied instead; the run is then outcome dependent, which the
    report's checks flag as the expected behavior of this negative control.
    Its channel is then the outcome-averaged one.
    """
    parameters = {"r_resource": r, "r_gate": r_gate, "seed": seed,
                  "rescale_correction": rescale_correction}
    return _offline_report("offline_squeezer", parameters, input_state, r, r_gate, seed, trials,
                           control=not rescale_correction)


# ---------------------------------------------------------------------------
# protocol table and sweeps

# protocol id, which is its builder's name in this module -> the PARAMETERS
# names it reads besides the squeezing, which every protocol reads
PROTOCOLS = {
    "identity_chain": ("n_nodes",),
    "squeezer_four_step": ("kappa",),
    "repeated_squeezer": ("segments", "kappa"),
    "offline_teleport": (),
    "offline_squeezer": ("r_gate",),
}


def protocol_parameters(protocol_id: str) -> tuple[str, ...]:
    """The ``PARAMETER_DEFAULTS`` names a protocol reads: ``squeezing_db``,
    which every protocol reads, then its ``PROTOCOLS`` names."""
    if protocol_id not in PROTOCOLS:
        known = ", ".join(PROTOCOLS)
        raise ConfigError(f"field 'protocol': unknown protocol {protocol_id!r}; known: {known}")
    return ("squeezing_db", *PROTOCOLS[protocol_id])


def checked_sweep(protocol_id: str, param, values) -> None:
    """Refuse a sweep grid unless ``values`` is a nonempty list, each value passes
    ``checked_parameter`` as ``sweep.values[i]`` and the protocol reads ``param``,
    a ``PARAMETER_DEFAULTS`` name; otherwise every row would be the same point."""
    reads = protocol_parameters(protocol_id)
    if not isinstance(values, list) or len(values) == 0:
        raise ConfigError("field 'sweep.values': must be a nonempty list")
    if not isinstance(param, str):
        raise ConfigError(f"field 'sweep.param': expected a string, got {json_kind(param)}")
    if param not in PARAMETER_DEFAULTS:
        raise ConfigError(f"field 'sweep.param': cannot sweep {param!r}")
    for i, value in enumerate(values):
        checked_parameter(param, value, f"sweep.values[{i}]")
    if param not in reads:
        raise ConfigError(f"field 'sweep.param': protocol {protocol_id!r} does not read {param!r}")


def document_records(protocol_id: str, values: dict, trials: int) -> int:
    """The records a run document of ``trials`` trials holds, one per chain step
    and two per off-line trial; more than ``MAX_RECORDS`` is a ``ConfigError``."""
    program, records = _CHAIN_PROGRAMS.get(protocol_id), trials * 2
    if program is not None:
        segment, repeats = program(*(values[name] for name in PROTOCOLS[protocol_id]))
        records = trials * len(segment) * repeats
    if records > MAX_RECORDS:
        raise ConfigError(
            f"field 'trials': {trials} trials write {records} records, "
            f"more than the {MAX_RECORDS} a run document may hold"
        )
    return records


def run_named_protocol(
    protocol_id: str, params: dict, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Run a protocol by name with config-style parameters.

    ``params`` gives the resource squeezing as ``squeezing_db`` (converted
    here, once); missing parameters take their ``PARAMETER_DEFAULTS`` value,
    and ``input_state`` defaults to the vacuum. A key that is neither is
    refused; the others, ``seed`` and ``trials`` go through ``checked_parameter``,
    and the trials' records through ``document_records``. Trial t's records are
    drawn with ``seed + t`` when ``record_columns`` is first read.
    """
    _, *names = protocol_parameters(protocol_id)
    params = dict(params)
    input_state = params.pop("input_state", None) or vacuum_state(1)
    for key in params:
        if key not in PARAMETER_DEFAULTS:
            raise ConfigError(f"unknown config field {key!r}")
    values = {**PARAMETER_DEFAULTS, **{k: checked_parameter(k, v) for k, v in params.items()}}
    seed, trials = checked_parameter("seed", seed), checked_parameter("trials", trials)
    document_records(protocol_id, values, trials)
    r = db_to_squeezing_r(values["squeezing_db"])
    args = {name: values[name] for name in names}
    builder = globals()[protocol_id]  # the module's one binding of the builder
    return builder(r=r, input_state=input_state, seed=seed, trials=trials, **args)


def sweep(protocol_id: str, base_params: dict, param: str, values: list) -> list[dict]:
    """Run a protocol over a one-parameter grid: one summary row per point,
    whose keys are the sweep CSV's columns in order.

    A row holds only quantities of its point's channel, which does not
    depend on the outcomes, so no point draws records and a sweep takes no
    seed. ``checked_sweep`` refuses a bad grid before any point runs.
    """
    checked_sweep(protocol_id, param, values)
    rows = []
    for i, value in enumerate(values):
        report = run_named_protocol(protocol_id, {**base_params, param: value})
        rows.append(
            {
                "index": i,
                "param": param,
                "value": value,
                "deviation": report.deviation,
                "noise_trace": report.noise_trace,
                "fidelity": report.fidelity,
                "checks_passed": report.all_passed(),
            }
        )
    return rows
