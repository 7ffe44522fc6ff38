"""Explicit Runge-Kutta integration of order 8 with error estimators of
orders 5 and 3: DOP853 (E. Hairer, S. P. Norsett and G. Wanner, Solving
Ordinary Differential Equations I, 2nd ed., Springer 1993, Sec. II.10), the
integrator of the oracle.

solve_ivp takes the steps of scipy.integrate.solve_ivp(method="DOP853"),
on the same arithmetic: the same tableau, the same error norm
|h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) n) on the error estimates
scaled by atol + rtol max(|y|, |y_new|), the same step controller (safety
0.9, step factors within 0.2-10 from the exponent -1/8, no growth right
after a rejection), the last step clipped to the end time, the same
minimum step of ten units in the last place of t. Given the same problem,
the two return the same states and the same right-hand-side count, nfev.
Only what the oracle uses is kept: a forward span, a given first step, a
componentwise atol and the states at the accepted steps (no dense output).

The coefficients are those of scipy's dop853_coefficients.py, under this
license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math
from dataclasses import dataclass

import numpy as np

# the 12 stages of a step and the 13th (the derivative at its end, shared
# with the next step)
_N_STAGES = 12

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0])

# row s of the lower triangle: the weights of stages 0..s-1 in stage s
_A_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    # the weights of the order-8 solution
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
)
_A = np.zeros((_N_STAGES + 1, _N_STAGES))
for _s, _row in enumerate(_A_ROWS):
    _A[_s, :_s] = _row
_B = _A[_N_STAGES, :_N_STAGES]

# error estimators of orders 5 and 3, over the 13 stages
_E5 = np.zeros(_N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)

# (weights, node) of stages 1-11 of a step. The weights are cast to complex
# once: np.dot with a complex copy of a real vector gives the same bits, and
# spares a cast per call
_STEP_STAGES = [(_A[s, :s].astype(complex), _C[s]) for s in range(1, _N_STAGES)]
_B_C, _E5_C, _E3_C = (w.astype(complex) for w in (_B, _E5, _E3))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EXPONENT = -1 / 8  # -1/(order of the error estimate + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_REACHED_END = "The solver successfully reached the end of the integration interval."


@dataclass(frozen=True)
class IvpResult:
    """Times, complex states (one column per time), right-hand-side calls
    and the outcome of solve_ivp."""

    t: object
    y: object
    nfev: int
    success: bool
    message: str


def solve_ivp(fun, t_span, y0, rtol, atol, first_step):
    """Integrate y' = fun(t, y), y complex, from y(t_span[0]) = y0 to
    t_span[1] > t_span[0], starting with the step first_step, with local
    errors kept below atol + rtol |y| (atol a scalar or one value per
    component).

    The result holds the start and the state after every accepted step. A
    step that would have to be shorter than ten units in the last place of
    t ends the integration with success False and message TOO_SMALL_STEP.
    """
    t, t_end = map(float, t_span)
    y = np.asarray(y0, dtype=complex)
    if not t < t_end:
        raise ValueError(f"t_span must increase, got {t_span!r}")
    if not 0 < first_step <= t_end - t:
        raise ValueError(f"first_step {first_step!r} is not within (0, {t_end - t!r}]")
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("y0 must be a 1-d array of finite values")

    K = np.empty((_N_STAGES + 1, y.size), dtype=complex)
    # (stages so far, weights, node) of stages 1-11, then the stages of the
    # solution and of the error estimates, as views built once
    stages = [(K[:s].T, a, c) for s, (a, c) in enumerate(_STEP_STAGES, start=1)]
    solution, estimates = K[:_N_STAGES].T, K.T
    f = np.asarray(fun(t, y), dtype=complex)
    nfev = 1
    abs_y = np.abs(y)
    h_abs = first_step
    ts, ys = [t], [y]
    message = _REACHED_END
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h_abs = h = t_new - t
            K[0] = f
            for s, (k, a, c) in enumerate(stages, start=1):
                K[s] = fun(t + c * h, y + np.dot(k, a) * h)
            y_new = y + h * np.dot(solution, _B_C)
            K[_N_STAGES] = fun(t + h, y_new)
            nfev += _N_STAGES

            abs_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_new) * rtol
            # the squared 2-norms, as np.linalg.norm takes them
            z5 = np.dot(estimates, _E5_C) / scale
            z3 = np.dot(estimates, _E3_C) / scale
            e5 = math.sqrt(z5.real.dot(z5.real) + z5.imag.dot(z5.imag)) ** 2
            e3 = math.sqrt(z3.real.dot(z3.real) + z3.imag.dot(z3.imag)) ** 2
            error_norm = (0.0 if e5 == 0 and e3 == 0 else
                          h * e5 / math.sqrt((e5 + 0.01 * e3) * y.size))
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        else:
            message = TOO_SMALL_STEP
            break

        ts.append(t_new)
        ys.append(y_new)
        t, y, f, abs_y = t_new, y_new, K[_N_STAGES].copy(), abs_new

    return IvpResult(t=np.array(ts), y=np.vstack(ys).T, nfev=nfev,
                     success=message == _REACHED_END, message=message)
