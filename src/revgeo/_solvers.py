"""The library's own ODE integrator and root finder, on numpy alone.

dop853 is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince with its order-7 dense output (Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6). brentq is Brent's method for a bracketed root
(Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).

Both repeat scipy's arithmetic operation for operation, in the same order
and with the same numpy reductions: solve_ivp(method="DOP853") with its
OdeSolution, and scipy.optimize.brentq. dop853 also repeats solve_ivp's
rule for one terminal event of direction -1: the step on which the event
function goes from >= 0 to <= 0 is cut at the event's root, found by
brentq on that step's interpolant. Their steps, states, dense values and
roots are therefore bit-identical to scipy's, while importing neither
scipy.integrate nor scipy.optimize.

The right-hand side fun(t, y) may return any length-n sequence of floats
(a tuple, a list or an array): each stage writes it straight into its row
of the stage array. The dense output is optional, as in solve_ivp; without
it only a step cut by the event forms its interpolant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# -- the DOP853 tableau, as published ------------------------------------------

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
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

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

# the order-3 embedded weights: B with three corrections
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# dense-output weights of the stages; the first three rows of F are formed
# from the step's end points
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# row s of A up to its diagonal, and C as floats: what the stage loops read
_A_ROWS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]
_C = C.tolist()

# -- step-size control -----------------------------------------------------------

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8          # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps

SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
EVENT = "A termination event occurred."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step size from the derivative's scale (Hairer et al., II.4)."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(fun(t0 + h0 * direction, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(KT, h, scale):
    """The DOP853 error estimate: the order-5 error damped by the order-3 one.

    KT is the transposed stage array. The squared norms are
    np.linalg.norm(e) ** 2 as that computes them for a real 1-d e.
    """
    err5 = np.dot(KT, E5) / scale
    err3 = np.dot(KT, E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def _step(fun, t, y, f, h_abs, direction, t_bound, rtol, atol, K):
    """One accepted step from (t, y), f = fun(t, y), trying h_abs first.

    Returns (t_new, y_new, f_new, h, next h_abs), or None when the step
    size falls below ten spacings of t. K (13 rows) holds the stages of
    the accepted step on return.
    """
    min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
    KT = K.T
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            return None
        h = h_abs * direction
        t_new = t + h
        if direction * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)

        K[0] = f
        for s in range(1, N_STAGES):
            dy = np.dot(KT[:, :s], _A_ROWS[s]) * h
            K[s] = fun(t + _C[s] * h, y + dy)
        y_new = y + h * np.dot(KT[:, :-1], B)
        K[-1] = fun(t + h, y_new)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(KT, h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            # f_new outlives K, which the next step overwrites
            return t_new, y_new, K[-1].copy(), h, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        rejected = True


def _dense_coefficients(fun, t_old, y_old, y, f, h, K_ext):
    """The seven rows F of the accepted step's interpolant; evaluates the
    three extra stages into K_ext[13:]."""
    KT = K_ext.T
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        dy = np.dot(KT[:, :s], _A_ROWS[s]) * h
        K_ext[s] = fun(t_old + _C[s] * h, y_old + dy)
    F = np.empty((INTERPOLATOR_POWER, y.size))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K_ext)
    return F


@dataclass
class OdeRun:
    t: np.ndarray            # accepted step ends, t[0] = t0
    y: np.ndarray            # states, shape (n, len(t))
    dense: "DenseOutput | None"     # None when run without dense output
    success: bool
    message: str
    t_event: float | None = None    # the terminal event's root, where the run ended


def dop853(fun, t0, t_bound, y0, rtol, atol, event=None, dense_output=True) -> OdeRun:
    """Integrate y' = fun(t, y) from t0 to t_bound, forward or backward.

    fun returns any length-n sequence of floats. A zero span takes one step
    of length zero, as scipy does: t = [t0, t0], two equal state columns,
    and a constant dense output. If the step size falls below ten spacings
    of t, the run stops with success False and the steps accepted so far.
    With dense_output False, no step forms its interpolant (three
    right-hand-side calls each) except one cut by the event, and the run's
    dense is None.

    The run ends with message EVENT on the first step where event(t, y)
    goes from >= 0 to <= 0, at the root t_event of event on the step's
    interpolant (brentq to 4 eps): its last point is (t_event, interpolated
    state), and the step keeps its full interpolant. A root at the step's
    start repeats that time, as solve_ivp without dense output does.
    """
    t0, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0, dtype=float)
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=2)
        rtol = 100 * _EPS
    direction = np.sign(t_bound - t0) if t_bound != t0 else 1
    f = np.asarray(fun(t0, y), dtype=float)
    h_abs = _initial_step(fun, t0, y, t_bound, f, direction, rtol, atol)
    K_ext = np.empty((N_STAGES_EXTENDED, y.size))
    K = K_ext[:N_STAGES + 1]

    ts, ys, hs, Fs = [t0], [y0], [], []
    t, success, message, t_event = t0, True, SUCCESS, None
    g = None if event is None else event(t0, y)
    if t == t_bound:
        ts.append(t)
        ys.append(y)
        if g == 0:                      # the zero step's own root is t0
            t_event, message = t0, EVENT
    while t != t_bound and t_event is None:
        got = _step(fun, t, y, f, h_abs, direction, t_bound, rtol, atol, K)
        if got is None:
            success, message = False, TOO_SMALL_STEP
            break
        t_new, y_new, f, h, h_abs = got
        F = None
        if dense_output:
            F = _dense_coefficients(fun, t, y, y_new, f, h, K_ext)
            Fs.append(F)
            hs.append(h)
        if g is not None:
            g_new = event(t_new, y_new)
            if g >= 0 and g_new <= 0:
                if F is None:
                    F = _dense_coefficients(fun, t, y, y_new, f, h, K_ext)
                cut = DenseOutput(np.array([t, t_new]), np.array([y, y_new]).T,
                                  np.array([h]), F[None])
                t_event = brentq(lambda s: event(s, cut(s)), t, t_new,
                                 xtol=4 * _EPS, rtol=4 * _EPS)
                t_new, y_new, message = t_event, cut(t_event), EVENT
            g = g_new
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)

    ts = np.array(ts)
    ys = np.vstack(ys).T
    dense = None
    if dense_output:
        F = np.array(Fs).reshape(len(Fs), INTERPOLATOR_POWER, y.size)
        constant = y if t0 == t_bound else None
        dense = DenseOutput(ts, ys, np.array(hs), F, constant)
    return OdeRun(ts, ys, dense, success, message, t_event)


# -- dense output -----------------------------------------------------------------

def _dense_rows(coef, t_old, h, y_old, t):
    """States at t (one row of points per step) from stacked dense coefficients.

    The DOP853 interpolant of a step is Horner's scheme in x and 1 - x,
    x = (t - t_old) / h, over its seven coefficient rows, plus y_old.
    coef (steps, 7, n), t_old and h (steps,), y_old (steps, n) and t
    (steps, points); returns shape (steps, n, points). Every element takes
    the same operations as scipy's Dop853DenseOutput, so it equals that
    interpolant bit for bit.
    """
    x = ((t - t_old[:, None]) / h[:, None])[:, :, None]
    y = np.zeros(x.shape[:2] + y_old.shape[1:])
    for i in range(coef.shape[1]):
        y += coef[:, None, -1 - i]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y = y.transpose(0, 2, 1)
    y += y_old[:, :, None]
    return y


class DenseOutput:
    """States at any t of a dop853 run, from its stacked step coefficients.

    Step k runs from ts[k] to ts[k + 1], and F[k] holds its seven
    interpolation rows over its full length h[k]: a last step cut at an
    event ends short of it. A time is assigned to a step by OdeSolution's rule:
    searchsorted on the ascending times, side "left" for a forward run and
    "right" for a backward one, clipped to the first and last steps. So a
    step's first point, shared with the step before, is evaluated on that
    earlier step. A zero-span run's output is its constant state.
    """

    def __init__(self, ts, ys, h, F, constant=None):
        self.F = F
        self.t_old = ts[:-1]
        self.h = h
        self.y_old = ys[:, :-1].T
        self.constant = constant
        self._ascending = ts[-1] >= ts[0]
        self._sorted = ts if self._ascending else ts[::-1]
        self._side = "left" if self._ascending else "right"

    def __call__(self, t):
        """State (n,) at a scalar t, or states (n, len(t)) at a 1-d array."""
        t = np.asarray(t)
        if self.constant is not None:
            if t.ndim == 0:
                return self.constant.copy()
            return np.repeat(self.constant[:, None], t.shape[0], axis=1)
        n = len(self.F)
        steps = np.searchsorted(self._sorted, t, side=self._side) - 1
        steps = np.minimum(np.maximum(steps, 0), n - 1)
        if not self._ascending:
            steps = n - 1 - steps
        if t.ndim == 0:
            k = slice(int(steps), int(steps) + 1)
            return _dense_rows(self.F[k], self.t_old[k], self.h[k], self.y_old[k],
                               t.reshape(1, 1))[0, :, 0]
        y = _dense_rows(self.F[steps], self.t_old[steps], self.h[steps],
                        self.y_old[steps], t[:, None])
        return np.ascontiguousarray(y[:, :, 0].T)


# -- Brent's method ---------------------------------------------------------------

_XTOL = 2e-12
_RTOL = 4 * _EPS


def brentq(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Inverse quadratic interpolation with bisection safeguards, to within
    xtol + rtol |x|. Raises ValueError when the signs agree, when f returns
    NaN or a tolerance is too small, and RuntimeError after maxiter
    iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # f is neither 0 nor NaN wherever signs are compared, so a sign bit
    # test is v < 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf         # IEEE gives inf or NaN: bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
