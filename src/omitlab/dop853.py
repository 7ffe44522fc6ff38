"""Explicit Runge-Kutta integration of order 8 with error estimators of
orders 5 and 3 and a dense output of order 7: DOP853 (E. Hairer,
S. P. Norsett and G. Wanner, Solving Ordinary Differential Equations I,
2nd ed., Springer 1993, Sec. II.10), the integrator of the oracle.

solve_ivp takes the steps of scipy.integrate.solve_ivp(method="DOP853"),
on the same arithmetic: the same tableau, the same error norm
|h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) n) on the error estimates
scaled by atol + rtol max(|y|, |y_new|), the same step controller (safety
0.9, step factors within 0.2-10 from the exponent -1/8, no growth right
after a rejection), the last step clipped to the end time, the same
minimum step of ten units in the last place of t, and the same order-7
interpolant for t_eval. Given the same problem, the two return the same
states and the same right-hand-side count, nfev. Only what the oracle uses
is kept: a forward span, a given first step and a componentwise atol.

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

from dataclasses import dataclass

import numpy as np

# the 12 stages of a step, the 13th (the derivative at its end, shared with
# the next step) and the 3 more stages of the dense output
_N_STAGES = 12
_N_EXTENDED = 16

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
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778])

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
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_A = np.zeros((_N_EXTENDED, _N_EXTENDED))
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

# the four highest coefficients of the order-7 interpolant, over all 16
# stages (stages 1-4 do not enter)
_D = np.zeros((4, _N_EXTENDED))
_D[:, [0] + list(range(5, 16))] = (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)

# (weights, node) of stages 1-11 of a step and of stages 13-15 of the dense output
_STEP_STAGES = [(_A[s, :s], _C[s]) for s in range(1, _N_STAGES)]
_DENSE_STAGES = [(_A[s, :s], _C[s]) for s in range(_N_STAGES + 1, _N_EXTENDED)]

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


def _dense(fun, K, t_old, h, y_old, y, f, t):
    """The order-7 interpolant of the step from (t_old, y_old) to
    (t_old + h, y), with f the derivative at its end, at the times t, one
    column per time; K holds the step's 13 stages and receives the 3 more
    that the interpolant needs."""
    for s, (a, c) in enumerate(_DENSE_STAGES, start=_N_STAGES + 1):
        K[s] = fun(t_old + c * h, y_old + np.dot(K[:s].T, a) * h)
    delta_y = y - y_old
    F = np.empty((7, y.size), dtype=complex)
    F[0] = delta_y
    F[1] = h * K[0] - delta_y
    F[2] = 2 * delta_y - h * (f + K[0])
    F[3:] = h * np.dot(_D, K)
    x = ((t - t_old) / h)[:, None]
    out = np.zeros((len(x), y.size), dtype=complex)
    for i, row in enumerate(F[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1 - x
    out += y_old
    return out.T


def solve_ivp(fun, t_span, y0, rtol, atol, first_step, t_eval=None):
    """Integrate y' = fun(t, y), y complex, from y(t_span[0]) = y0 to
    t_span[1] > t_span[0], starting with the step first_step, with local
    errors kept below atol + rtol |y| (atol a scalar or one value per
    component).

    The result holds the states at every step, or with t_eval (increasing
    times within t_span) at those times from the dense output. A step that
    would have to be shorter than ten units in the last place of t ends the
    integration with success False and message TOO_SMALL_STEP.
    """
    t, t_end = map(float, t_span)
    y = np.asarray(y0, dtype=complex)
    if not t < t_end:
        raise ValueError(f"t_span must increase, got {t_span!r}")
    if not 0 < first_step <= t_end - t:
        raise ValueError(f"first_step {first_step!r} is not within (0, {t_end - t!r}]")
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("y0 must be a 1-d array of finite values")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.size and (t_eval[0] < t or t_eval[-1] > t_end
                            or np.any(np.diff(t_eval) <= 0)):
            raise ValueError("t_eval must increase within t_span")

    nfev = 0

    def f_of(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=complex)

    K = np.empty((_N_EXTENDED, y.size), dtype=complex)
    f = f_of(t, y)
    h_abs = first_step
    ts, ys = ([], []) if t_eval is not None else ([t], [y])
    i_eval = 0
    message = _REACHED_END
    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h_abs = h = t_new - t
            K[0] = f
            for s, (a, c) in enumerate(_STEP_STAGES, start=1):
                K[s] = f_of(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:_N_STAGES].T, _B)
            f_new = K[_N_STAGES] = f_of(t + h, y_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K[:_N_STAGES + 1].T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K[:_N_STAGES + 1].T, _E3) / scale) ** 2
            error_norm = (0.0 if e5 == 0 and e3 == 0 else
                          h * e5 / np.sqrt((e5 + 0.01 * e3) * y.size))
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

        if t_eval is None:
            ts.append(t_new)
            ys.append(y_new)
        else:
            i_new = np.searchsorted(t_eval, t_new, side="right")
            if i_new > i_eval:
                ts.append(t_eval[i_eval:i_new])
                ys.append(_dense(f_of, K, t, h, y, y_new, f_new, ts[-1]))
                i_eval = i_new
        t, y, f = t_new, y_new, f_new

    if t_eval is None:
        ts, ys = np.array(ts), np.vstack(ys).T
    else:
        ts = np.hstack(ts) if ts else np.empty(0)
        ys = np.hstack(ys) if ys else np.empty((y.size, 0), dtype=complex)
    return IvpResult(t=ts, y=ys, nfev=nfev, success=message == _REACHED_END,
                     message=message)
