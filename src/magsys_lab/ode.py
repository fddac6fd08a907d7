"""The DOP853 Runge-Kutta pair (Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, sec. II.10): order 8, error estimators of orders 5 and 3, and a dense output
of order 7 from three more stages; the first step and the step control of sec. II.4."""

import math
from collections import namedtuple

import numpy as np

# the nodes C (16), the stage weights A (lower triangle, row by row: 120), the 5th-order
# error weights E5 (13) and the dense-output weights D (4 x 16); row 12 of A is the
# 8th-order solution B, rows 13-15 are the dense-output stages
_TABLEAU = np.array("""
    0 0.05260015195876773 0.0789002279381516 0.1183503419072274 0.2816496580927726
    0.3333333333333333 0.25 0.3076923076923077 0.6512820512820513 0.6 0.8571428571428571 1.0 1.0
    0.1 0.2 0.7777777777777778 0.05260015195876773 0.0197250569845379 0.0591751709536137
    0.02958758547680685 0 0.08876275643042054 0.2413651341592667 0 -0.8845494793282861
    0.924834003261792 0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242 0.037109375
    0 0 0.17025221101954405 0.06021653898045596 -0.017578125 0.03709200011850479 0 0
    0.17038392571223998 0.10726203044637328 -0.015319437748624402 0.008273789163814023
    0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726 27.59209969944671
    20.154067550477894 -43.48988418106996 0.47766253643826434 0 0 -2.4881146199716677
    -0.590290826836843 21.230051448181193 15.279233632882423 -33.28821096898486
    -0.020331201708508627 -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
    -8.149787010746927 -18.52006565999696 22.739487099350505 2.4936055526796523 -3.0467644718982196
    2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
    27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303 0.6433927460157636
    0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
    0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259
    0.056167502283047954 0 0 0 0 0 0.25350021021662483 -0.2462390374708025 -0.12419142326381637
    0.15329179827876568 0.00820105229563469 0.007567897660545699 -0.008298 0.03183464816350214 0 0
    0 0 0.028300909672366776 0.053541988307438566 -0.05492374857139099 0 0 -0.00010834732869724932
    0.0003825710908356584 -0.00034046500868740456 0.1413124436746325 -0.42889630158379194 0 0 0 0
    -4.697621415361164 7.683421196062599 4.06898981839711 0.3567271874552811 0 0 0
    -0.0013990241651590145 2.9475147891527724 -9.15095847217987 0.01312004499419488 0 0 0 0
    -1.2251564463762044 -0.4957589496572502 1.6643771824549864 -0.35032884874997366
    0.3341791187130175 0.08192320648511571 -0.022355307863886294 0 -8.428938276109013 0 0 0 0
    0.5667149535193777 -3.0689499459498917 2.38466765651207 2.117034582445028 -0.871391583777973
    2.2404374302607883 0.6315787787694688 -0.08899033645133331 18.148505520854727
    -9.194632392478356 -4.436036387594894 10.427508642579134 0 0 0 0 242.28349177525817
    165.20045171727028 -374.5467547226902 -22.113666853125306 7.733432668472264 -30.674084731089398
    -9.332130526430229 15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408
    19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758 527.8081592054236
    -11.57390253995963 6.8812326946963 -1.0006050966910838 0.7777137798053443 -2.778205752353508
    -60.19669523126412 84.32040550667716 11.99229113618279 -25.69393346270375 0 0 0 0
    -154.18974869023643 -231.5293791760455 357.6391179106141 93.40532418362432 -37.45832313645163
    104.0996495089623 29.8402934266605 -43.53345659001114 96.32455395918828 -39.17726167561544
    -149.72683625798564""".split(), float)
C, E5, D = _TABLEAU[:16], _TABLEAU[136:149], _TABLEAU[149:].reshape(4, 16)
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = _TABLEAU[16:136]
B = A[12, :12]
E3 = np.append(B, 0.0)                  # the 3rd-order error weights
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
ROWS = [A[s, :s] for s in range(16)]
NODES = C.tolist()
EPS = np.finfo(float).eps

OdeResult = namedtuple("OdeResult", "t y nfev success message sol t_event y_event",
                       defaults=(None, None, None))
OdeResult.__doc__ = "Last t and y, RHS calls nfev, dense output sol, event root t_event, y_event."


class OdeStack(list):
    """The OdeResult of each member of a stacked solve, in order; nfev is their sum."""
    nfev = property(lambda self: sum(r.nfev for r in self))


def solve_ivp(fun, t_span, y0, rtol, atol, max_step=math.inf, dense_output=False,
              event=None):
    """Integrate y' = fun(t, y) over t_span = (t0, t1), no step longer than max_step;
    fun is given y as a list of floats and may return any sequence of floats.
    With event, a function g(t, y), stop at the first root of g on a step where g goes
    from <= 0 to >= 0.  A step shorter than the float spacing of t fails the solve.
    dense_output True gives sol, the dense output, and a predicate keep(t, y) gives it
    where keep holds at the end: only then are the steps' dense-output stages computed.

    A y0 of shape (M, n), with event None or M functions and dense_output one value or
    M, is a stack: an OdeStack whose member i is the solve from y0[i] bit for bit, the
    members stepped together."""
    args = (fun, *map(float, t_span), rtol, atol, max_step)
    y = np.asarray(y0, dtype=float)
    if y.ndim == 2:
        dense = dense_output if isinstance(dense_output, list) else [dense_output] * len(y)
        solves = [_solve(*args, *m) for m in zip(dense, y, event or [None] * len(y))]
        return OdeStack(_step_stack(fun, solves, rtol, atol))
    return _step_one(fun, _solve(*args, dense_output, y, event), rtol, atol)


def _solve(fun, t, t_bound, rtol, atol, max_step, dense_output, y, event):
    """One solve, a generator whose stages a stepper computes: it yields each try (t, h, y,
    f = fun(t, y)) and is sent (y_new, f_new, err5, err3, K), its end, f there, the scaled
    error estimates and the (16, n) stages, rows 0-12 set.  Rows 13-15 (``_late_stages``)
    it computes for the crossing step at once, and for the rest where it keeps sol."""
    if t == t_bound:                          # no step: the state is y0 throughout
        return OdeResult(t, y, 0, True, "empty interval", lambda s: np.outer(y, np.ones_like(s)))
    n, f, direction = y.size, np.asarray(fun(t, y.tolist())), math.copysign(1.0, t_bound - t)
    # the first step (Hairer et al., sec. II.4)
    interval, scale = abs(t_bound - t), atol + np.abs(y) * rtol
    d0, d1 = (np.linalg.norm(v / scale) / n ** 0.5 for v in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t + h0 * direction, (y + h0 * direction * f).tolist())
    d2 = np.linalg.norm((f1 - f) / scale) / n ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs, nfev = float(min(100 * h0, h1, interval, max_step)), 2   # no np.float64 in the stages
    steps, crossed, t_event, y_event = [], False, None, None
    g, keep = event and event(t, y), bool(dense_output)
    while direction * (t - t_bound) < 0 and not crossed:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, rejected = max_step if h_abs > max_step else max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:         # a nan step size fails too
                return OdeResult(t, y, nfev, False, "the step size fell below the spacing of t")
            t_new = t + h_abs * direction
            t_new = t_bound if direction * (t_new - t_bound) > 0 else t_new
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err5, err3, K = yield t, h, y, f
            nfev += 12
            # the squared norms, rounded as np.linalg.norm(x) ** 2 rounds them
            e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 or e3 else 0.0
            if err < 1:
                factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * err ** -0.125), True
        t_old, y_old, t, y, f, g_old = t, y, t_new, y_new, f_new, g
        g = event and event(t, y)
        crossed = event and g_old <= 0 <= g
        if keep or crossed:                   # the stepper reuses its K when alone
            steps.append((t_old, t, y_old, y, (K := K.copy() if keep else K)))
        if crossed:                           # K[None], a view, takes the stages
            nfev += _late_stages(fun, *(np.array([x]) for x in (t_old, t, y_old)), K[None])
            at = _interpolant(*map(np.array, zip(*steps[-1:])))
            t = t_event = _illinois(lambda s: event(s, at(s, 0)), t_old, t)
            y = y_event = at(t, 0)
    sol = None
    if dense_output(t, y) if callable(dense_output) else dense_output:
        t0, t1, y0, y1, K = map(np.array, zip(*steps))
        nfev += _late_stages(fun, *(a[:len(steps) - bool(crossed)] for a in (t0, t1, y0, K)))
        sol = _interpolant(t0, t1, y0, y1, K)
    return OdeResult(t, y, nfev, True, "event" if crossed else "end", sol, t_event, y_event)


def _step_one(fun, solve, rtol, atol, request=None):
    """The OdeResult of the generator solve run alone, from its pending try request if
    it has one, each stage sum by np.dot and y + sum * h in Python floats, as numpy's
    elementwise * and + round it."""
    try:
        request = request or next(solve)
        K = np.empty((16, request[2].size))
        KT = [K[:s].T for s in range(14)]
        while True:
            t, h, y, K[0] = request
            ys = y.tolist()
            for s in range(1, 12):
                K[s] = fun(t + NODES[s] * h,
                           [a + b * h for a, b in zip(ys, np.dot(KT[s], ROWS[s]).tolist())])
            ys = [a + h * b for a, b in zip(ys, np.dot(KT[12], B).tolist())]
            K[12] = f_new = fun(t + h, ys)
            y_new = np.array(ys)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            request = solve.send((y_new, f_new, np.dot(KT[13], E5) / scale,
                                  np.dot(KT[13], E3) / scale, K))
    except StopIteration as done:
        return done.value


def _step_stack(fun, solves, rtol, atol):
    """The OdeResults of the generators solves, run together in rounds: all tries, each
    stage sum in one np.matmul (which rounds every member as np.dot rounds it alone) and
    one call of fun per member."""
    out = [None] * len(solves)

    def send(i, value):
        try:
            return solves[i].send(value)
        except StopIteration as done:
            out[i] = done.value

    requests = [send(i, None) for i in range(len(solves))]
    while live := [i for i, r in enumerate(out) if r is None]:
        if len(live) == 1:                    # alone, a member runs faster by np.dot
            out[live[0]] = _step_one(fun, solves[live[0]], rtol, atol, requests[live[0]])
            break
        ts, hs, ys, fs = zip(*(requests[i] for i in live))
        Y, H = np.array(ys), np.array(hs)[:, None]
        K = np.empty((len(live), 16, Y.shape[1]))
        KT, K[:, 0] = [K[:, :s].transpose(0, 2, 1) for s in range(14)], fs
        for s in range(1, 12):
            Ys = Y + np.matmul(KT[s], ROWS[s]) * H
            K[:, s] = [fun(t + NODES[s] * h, y) for t, h, y in zip(ts, hs, Ys.tolist())]
        Y_new = Y + H * np.matmul(KT[12], B)
        K[:, 12] = F_new = [fun(t + h, y) for t, h, y in zip(ts, hs, Y_new.tolist())]
        scale = atol + np.maximum(np.abs(Y), np.abs(Y_new)) * rtol
        err5, err3 = np.matmul(KT[13], E5) / scale, np.matmul(KT[13], E3) / scale
        for j, i in enumerate(live):
            requests[i] = send(i, (Y_new[j], F_new[j], err5[j], err3[j], K[j]))
    return out


def _late_stages(fun, t0, t1, y0, K):
    """Rows 13-15 of the stages K (S, 16, n) of S steps from (t0, y0) to t1, in place, each
    stage's sums in one np.matmul (rounding each as np.dot does); returns the calls of fun."""
    h = t1 - t0
    for s in (13, 14, 15):
        Ys = y0 + np.matmul(K[:, :s].transpose(0, 2, 1), ROWS[s]) * h[:, None]
        K[:, s] = [fun(t + NODES[s] * dt, y) for t, dt, y in zip(t0.tolist(), h.tolist(),
                                                                 Ys.tolist())]
    return 3 * len(K)


def _interpolant(t0, t1, y0, y1, K):
    """sol(times) from the arrays of the steps' (t_old, t, y_old, y, K): the (n, len(times))
    states, or (n,) at one time, each by Horner's rule on the step whose closed interval
    holds its time (the earlier one at a step end), or on the step k of sol(times, k)."""
    ts, h, dy = np.append(t0, t1[-1]), (t1 - t0)[:, None], y1 - y0
    F = np.concatenate([np.stack([dy, h * K[:, 0] - dy, 2 * dy - h * (K[:, 12] + K[:, 0])], 1),
                        h[:, None] * np.matmul(D, K)], 1).transpose(1, 2, 0)
    sign = 1.0 if ts[-1] >= ts[0] else -1.0

    def sol(times, k=None):
        if k is None:
            k = np.clip(np.searchsorted(sign * ts, sign * times) - 1, 0, len(ts) - 2)
        x, Fk, y = (times - ts[k]) / (ts[k + 1] - ts[k]), F[..., k], 0.0
        for i in range(7):
            y = (y + Fk[6 - i]) * (x if i % 2 == 0 else 1 - x)
        return y + y0[k].T
    return sol


def _illinois(f, a, b, tol=4 * EPS):
    """A root of f between a and b, where f(a) <= 0 <= f(b), by regula falsi with
    the Illinois modification, to the absolute and relative tolerance tol."""
    fa, fb, side = f(a), f(b), 0
    while fa < 0 < fb and abs(b - a) > tol + tol * abs(b):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if fc <= 0:
            a, fa, fb, side = c, fc, fb / 2 if side < 0 else fb, -1
        else:
            b, fb, fa, side = c, fc, fa / 2 if side > 0 else fa, 1
    return a if -fa < fb else b
