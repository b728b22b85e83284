"""Jacobi initial value problems f'' + K(t) f = 0, f(0) = 0, f'(0) = 1.

A piece where K is a constant kappa (a zero or constant tail, a segment
whose numerator and denominator are constants, the zero pieces of the
negative part) is solved in closed form from its entry state (t0, f0,
f0'): with omega = sqrt|kappa| and tau = t - t0,

    f = f0 C + f0' S,    f' = f0' C - kappa f0 S,

where C is cosh(omega tau), cos(omega tau) or 1 and S is tau sinh(x)/x,
tau sin(x)/x or tau with x = omega tau, so nothing cancels as kappa -> 0.
A zero piece is one step.  Elsewhere the nodes lie on a uniform grid of
spacing at most u/omega, all evaluated from the entry state in one array
pass.  u follows from tol alone (``_grid_u``): the quintic Hermite
remainder, with |f^(6)| = omega^6 |f| and |f^(7)| = omega^6 |f'| on the
piece and the growth e^u within a step counted, holds the dense output's
error below tol a at f and below tol omega a at f', where
a = |f| + |f'|/omega at the step's left node.  The first zero comes from
the phase (kappa > 0), from the sign change of the exponential pair
(kappa < 0) or from -f0/f0' (kappa = 0).

Every other piece, a polynomial or rational segment or a power tail
a/(1 + t)^p with a != 0, is taken by Taylor transfer matrices from its
entry state (the Taylor method of Corliss and Chang, ACM TOMS 8, 1982;
Jorba and Zou, Exp. Math. 14, 2005).  f is analytic there, and its
Taylor coefficients at a node follow the recurrence
b_(k+2) = -sum_j K_j b_(k-j)/((k+2)(k+1)) with K's own Taylor
coefficients K_j at the node: a polynomial's by a Taylor shift, a
rational segment's by dividing the shifted numerator by the shifted
denominator as a series, a power tail's from K_0 = a x^-p and
K_(j+1) = -K_j (p + j)/((j + 1) x) with x = 1 + t.  The equation is
linear, so a step's 2 x 2 transfer matrix depends on K alone, and one
array pass builds the matrices of any set of nodes (``_taylor_steps``).
The state is carried node to node in Python floats.

Each sign piece gets its own grid: cells with a local scale omega such
that |K_j| <= omega^(j+2) for every j on the cell, each with a uniform
grid of omega h <= x.

* Polynomial: omega is the largest (max |K_j|)^(1/(j+2)), bounded with
  Bernstein coefficients on the cell (``_local_scales``).
* Rational: Cauchy's estimate |K_j| <= M rho^-j, with rho below the
  cell's distance to the discs that hold the denominator's roots
  (``Segment._poles``, widened by Smith's radii) and M a bound on
  |num/den| within rho of the cell, for a few rho at once; omega is the
  sup over j of the (j + 2)th root of the least of them
  (``_rational_scales``).
* Power tail: |K_j| <= |a| C(p + j - 1, j) x^(-p-j) falls with x, so its
  value at the cell's left end holds on the cell; omega is its sup over
  every j, whose limit is 1/x (``_tail_scales``).

A rational or tail cell's scale depends on the cell alone, never on tol.

x follows from tol and a polynomial's degree, or any degree for the other
pieces (``_taylor_rule``): the quintic Hermite remainder of ``_grid_u``,
with f^(6) and f^(7) bounded by the majorant series that
|K_j| <= omega^(j+2) gives, holds the dense output's error below tol a at
f and tol omega a at f', with a = |f| + |f'|/omega at the step's left
node.  So the nodes depend on the sign piece, the entry time and tol,
never on the state: where f and m enter a nonpositive sign piece they get
the same nodes and the same matrices, and m - f is carried by the same
linear maps.  Since x < pi and omega >= sqrt(max K), no step holds two
zeros of f (Sturm), without a test.  The walk stops at the first node
where f <= 0, whose zero is located by bisection on the dense output to
float resolution, and at the first node past the growth guard.

Since nothing of the grid or the matrices depends on the state, they
form a plan per profile, t_end and tol (``_Plan``), held in a memo of
recent plans that ``solve`` and ``solve_m`` share (``_Memo``): the newest
always, and older ones, most recently used first, while their nodes sum
to at most _MEMO_NODES.  A plan also keeps the walks that finished over
it, f and m, and its nodes count both its built grid nodes and the nodes
of those walks: a solve that repeats a finished one returns that
solution, walks nothing, and where K <= 0 m is f's own object; a plan
whose grid and walks pass the budget on their own keeps its grid alone
once it is no longer the newest.  Every profile goes through the memo,
one with only constant pieces too, whose plan holds its walks alone.  A
walk that raises keeps nothing, so its error is raised again by every
solve that meets it.  The plan finds the grids of the profile's sign
pieces together, in batched array passes, and builds their matrices as
the walks reach them: every nonpositive piece of a kind in one pass,
which f and m both walk, and a positive polynomial piece in chunks that
double in size, so a solve that stops at its first zero does not pay for
the rest of the piece.  The chain over them keeps the bits of a grid
built span by span, and an underflowing grid or an exhausted step budget
is raised where the walk meets it.

Dense output stores f, f' and f'' = -K f at the nodes and evaluates a
quintic Hermite interpolant per step, with the error bounds above; a
cubic on (f, f') alone would need far more nodes.  An array of times is
read in blocks of at most _DENSE_POINTS points, so memory stays flat in
their number: a block locates its steps, gathers their data once and
scales them once (``WarpingSolution._gather``: y, d h and ((a h) h) 0.5 at
both ends), and one stacked kernel (``_quintic``) builds the six basis
rows from one coefficient table (``_BASIS``) and adds the terms in the
order of the scalar expression, so an array read has the bits of a read
point by point in Python floats (``_hermite``).  Ball volumes read the
quintic through the same kernel.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .curvature_profile import (
    CurvatureProfile,
    PowerDecayTail,
    Segment,
    _bisect,
    _shifted_to_bernstein,
    _taylor_shift,
    negative_part,
)
from .errors import IntegrationError

__all__ = ["WarpingSolution", "solve", "solve_m", "GROWTH_GUARD"]

# Reaching this magnitude in f or f' means the model is violently
# divergent; the window is truncated at the first node past it instead of
# overflowing: a node of a Taylor piece, whose one step from below the
# guard stays in float range, or a grid node of a constant piece, whose
# pass is bounded beforehand so that no node overflows (a zero piece ends
# where f reaches twice the guard).  Ball volumes are integrated in logs,
# so f**(n-1) never leaves float range; the growth coefficient and the
# ends cap are taken in logs too, through model_space.saturating_exp,
# which saturates to inf.
GROWTH_GUARD = 1e60

# nodes after which a solve gives up
_MAX_STEPS = 10_000_000

_MIN_TOL, _MAX_TOL = 1e-14, 1e-3

# Taylor pieces: a span allows at most _SPAN_NODES nodes at its own scale
# and is split into cells of about _CELL_NODES nodes; omega never falls
# below _OMEGA_FLOOR, so no step is longer than 1e180 and one step from
# below the growth guard stays in float range
_SPAN_NODES = 4096
_CELL_NODES = 16
_OMEGA_FLOOR = 2.0 ** -600
# a plan's round builds at most _ROUND_NODES nodes, far more than a span
# holds (about _SPAN_NODES + _SPAN_NODES/_CELL_NODES); a positive sign
# piece's first chunk of transfer matrices has _CHUNK_NODES nodes, and each
# next one twice as many
_ROUND_NODES = 16384
_CHUNK_NODES = 256
# rational pieces: the radii rho of Cauchy's estimate tried on a cell, as
# fractions of its distance to the nearest pole disc, and one more as a
# fraction of its width; the terms j < _SCALE_TERMS of a cell's sup over j
# taken one by one
_POLE_FRACTIONS = np.array([0.3, 0.65, 0.92]).reshape(-1, 1)
_WIDTH_FRACTION = 0.25
_SCALE_TERMS = 8
# the most spans a rational sign piece or a tail starts with
_SPAN_CUTS = 256
# power tails: the terms j < _TAIL_TERMS of the sup over j taken one by
# one, the rest by a bound on all of them
_TAIL_TERMS = 8
# a computed scale is raised by this factor, for its own rounding
_SCALE_MARGIN = 1.0 + 2.0 ** -40


@dataclass(frozen=True)
class WarpingSolution:
    """Dense-output solution of a Jacobi initial value problem.

    ``ts, fs, fps`` are the nodes (f(0) = 0 and f'(0) = 1 hold exactly at
    the first node).  ``d2_left[i]`` and ``d2_right[i]`` are
    f'' at the two ends of step i, both evaluated with the profile piece
    that governed that step, which keeps the interpolant correct across
    discontinuous breakpoints.  ``t_end`` is the reached end: the
    requested end, the first zero, or the growth-guard truncation point.
    ``n_steps`` counts the steps; ``n_rejected`` is always 0, since no
    step is ever rejected, and stays for the readers of solver statistics.

    A solution is shared: the memo of ``solve`` returns the same object to
    every solve of its profile, window and tol.  So it is frozen, and
    ``solve`` makes its five arrays read-only.
    """

    profile: CurvatureProfile
    tol: float
    ts: np.ndarray
    fs: np.ndarray
    fps: np.ndarray
    d2_left: np.ndarray
    d2_right: np.ndarray
    first_zero: float | None = None
    truncated: bool = False
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def t_end(self) -> float:
        return self.ts.item(-1)

    def _check_window(self, tmin: float, tmax: float) -> None:
        """ValueError unless [tmin, tmax] lies in the solution window (a
        nan fails too)."""
        end = self.t_end
        if not (tmin >= 0.0 and tmax <= end * (1 + 1e-15) + 1e-300):
            raise ValueError(f"evaluation time outside solution window [0, {end:.6g}]")

    def _locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Step indices j and local coordinates s in [0, 1] of times t;
        ValueError where a time is nan or lies outside the solution
        window.  j counts the inner nodes at or before t, which is the
        last step that starts there, and s = (t - t_j)/h_j, capped at 1
        past the window's end: the steps of the scalar read."""
        ts = self.ts
        t = np.asarray(t, dtype=float)
        if t.size:
            self._check_window(float(t.min()), float(t.max()))
        j = ts[1:-1].searchsorted(t, side="right")
        s = t - ts[j]
        s /= ts[j + 1] - ts[j]
        return j, np.minimum(s, 1.0, out=s)

    def _gather(self, j) -> np.ndarray:
        """The data of the steps j (an array of step indices), gathered
        once and scaled once, as the rows of an (8, m) array: the left end
        t0 and the length h, then the coefficients of the quintic's basis
        rows (``_quintic``): y at both ends, d h at both ends, and
        ((a h) h) 0.5 at both ends."""
        steps = np.empty((8, len(j)))
        ends = j + _ENDS
        self.ts.take(ends, out=steps[:2])
        self.fs.take(ends, out=steps[2:4])
        self.fps.take(ends, out=steps[4:6])
        self.d2_left.take(j, out=steps[6])
        self.d2_right.take(j, out=steps[7])
        h = np.subtract(steps[1], steps[0], out=steps[1])
        # d and a times h, then a times h again and by 0.5, in place
        d_and_a, a = steps[4:], steps[6:]
        d_and_a *= h
        a *= h
        a *= 0.5
        return steps

    def _interp(self, t, derivative: bool):
        # np.ndim builds an array from a float: a quarter of a scalar read
        if not isinstance(t, float) and np.ndim(t) > 0:
            t = np.asarray(t, dtype=float)
            if t.size:
                self._check_window(float(t.min()), float(t.max()))
            out = np.empty(t.shape)
            flat, flat_out = t.reshape(-1), out.reshape(-1)
            inner = self.ts[1:-1]
            for k in range(0, flat.size, _DENSE_POINTS):
                block = flat[k:k + _DENSE_POINTS]
                # the steps of _locate, with t0 and h from the gathered steps
                steps = self._gather(inner.searchsorted(block, side="right"))
                s = block - steps[0]
                s /= steps[1]
                np.minimum(s, 1.0, out=s)
                _quintic(steps, s, derivative, out=flat_out[k:k + _DENSE_POINTS])
            return out
        # one time: the steps of _locate in Python floats, which round as
        # numpy's do, so the result has the bits of the array path
        t = float(t)
        self._check_window(t, t)
        ts = self.ts
        j = min(max(int(ts.searchsorted(t, side="right")) - 1, 0), len(ts) - 2)
        t0 = ts.item(j)
        h = ts.item(j + 1) - t0
        s = (t - t0) / h
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        fs, fps = self.fs, self.fps
        return _hermite(h, fs.item(j), fps.item(j) * h, self.d2_left.item(j) * h * h * 0.5,
                        fs.item(j + 1), fps.item(j + 1) * h, self.d2_right.item(j) * h * h * 0.5,
                        s, derivative)

    def f(self, t):
        """f at time t, from the dense output: a float for a scalar t, an
        ndarray for an array, list or tuple of times.  A scalar t is
        evaluated in Python floats, with the bits of the array path."""
        return self._interp(t, derivative=False)

    def fp(self, t):
        """f' at time t, from the dense output: a float for a scalar t, an
        ndarray for an array, list or tuple of times.  A scalar t is
        evaluated in Python floats, with the bits of the array path."""
        return self._interp(t, derivative=True)


# the left and the right end of a step, added to its index
_ENDS = np.array([[0], [1]])
# the quintic Hermite basis of a step in powers s^0, ..., s^5 of the local
# coordinate: row r multiplies the rth coefficient of a gathered step
# (``WarpingSolution._gather``), y0, y1, d0 h, d1 h, ((a0 h) h) 0.5 and
# ((a1 h) h) 0.5, in the value, and in h times the derivative; the scalar
# expression adds those terms in the order _SUM_ORDER
_BASIS = {
    False: ((1.0, 0.0, 0.0, -10.0, 15.0, -6.0),
            (0.0, 0.0, 0.0, 10.0, -15.0, 6.0),
            (0.0, 1.0, 0.0, -6.0, 8.0, -3.0),
            (0.0, 0.0, 0.0, -4.0, 7.0, -3.0),
            (0.0, 0.0, 1.0, -3.0, 3.0, -1.0),
            (0.0, 0.0, 0.0, 1.0, -2.0, 1.0)),
    True: ((0.0, 0.0, -30.0, 60.0, -30.0, 0.0),
           (0.0, 0.0, 30.0, -60.0, 30.0, 0.0),
           (1.0, 0.0, -18.0, 32.0, -15.0, 0.0),
           (0.0, 0.0, -12.0, 28.0, -15.0, 0.0),
           (0.0, 2.0, -9.0, 12.0, -5.0, 0.0),
           (0.0, 0.0, 3.0, -8.0, 5.0, 0.0)),
}
_SUM_ORDER = (0, 2, 4, 1, 3, 5)


def _basis_terms(table) -> list[tuple[int, slice | np.ndarray, bool, np.ndarray]]:
    """The terms of the basis rows of ``table``, power by power, as
    (power k, the rows, whether the term is each row's first, their
    coefficients), the rows a slice where they are evenly spaced.  Each
    row's terms come in its own order, from its first term on, so its sum
    rounds as the scalar expression's."""
    terms = []
    for k in range(6):
        for first in (True, False):
            rows = [r for r, row in enumerate(table) if row[k] and first == (not any(row[:k]))]
            if rows:
                step = rows[1] - rows[0] if len(rows) > 1 else 1
                spaced = rows == list(range(rows[0], rows[-1] + 1, step))
                terms.append((k, slice(rows[0], rows[-1] + 1, step) if spaced else np.array(rows),
                              first, np.array([table[r][k] for r in rows]).reshape(-1, 1)))
    return terms


_TERMS = {derivative: _basis_terms(table) for derivative, table in _BASIS.items()}
# points that the array read evaluates at once: its memory stays flat in
# the number of points
_DENSE_POINTS = 1 << 12


def _quintic(steps: np.ndarray, s, derivative: bool, out=None) -> np.ndarray:
    """The quintic Hermite interpolant of steps, or its derivative, at the
    local coordinates s in [0, 1], with the bits of ``_hermite``.

    ``steps`` is an (8, m) array of ``WarpingSolution._gather``, and s is
    an array of the shape (..., m) or one that broadcasts to it.  The six
    basis rows are built from ``_BASIS``, each from its own first term on
    and in the scalar expression's order (a term c s^k with c < 0 is added
    as (-c) s^k, which rounds as its subtraction), then scaled by their
    coefficients and added in the scalar expression's order
    (_SUM_ORDER), the first term first, so that signed zeros match too:
    t = -0.0 is a valid time, with s = -0.0.
    """
    shape = s.shape or (1,)
    s = s.reshape(-1)
    terms = _TERMS[derivative]
    powers = [None, s]
    for _ in range(terms[-1][0] - 1):
        powers.append(powers[-1] * s)
    basis = np.empty((6, len(s)))
    for k, rows, first, c in terms:
        if first:
            basis[rows] = c * powers[k] if k else c
        else:
            basis[rows] += c * powers[k]
    basis = basis.reshape(6, *shape)
    coef = steps[2:].reshape(6, *(1,) * (len(shape) - 1), -1)
    # in place, unless s is one column for many steps
    prod = np.multiply(basis, coef, out=basis if shape[-1] == coef.shape[-1] else None)
    first, second, *rest = _SUM_ORDER
    total = np.add(prod[first], prod[second], out=out)
    for r in rest:
        total += prod[r]
    if derivative:
        total /= steps[1]
    return total


def _hermite(h: float, y0: float, d0: float, a0: float, y1: float, d1: float, a1: float,
             s: float, derivative: bool) -> float:
    """Quintic Hermite interpolant of one step, or its derivative, at the
    local coordinate s in [0, 1], in Python floats: the scalar read and
    ``_locate_zero``.  The step has length h, and y0 ... a1 are the
    coefficients of its basis rows, scaled as ``WarpingSolution._gather``
    scales them: y, d h and ((a h) h) 0.5 at the left end and at the right
    end, for value y, slope d and second derivative a.  Arrays of points
    go through ``_quintic``, whose bits these are.
    """
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    if not derivative:
        return (y0 * (1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5)
                + d0 * (s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5)
                + a0 * (s2 - 3.0 * s3 + 3.0 * s4 - s5)
                + y1 * (10.0 * s3 - 15.0 * s4 + 6.0 * s5)
                + d1 * (-4.0 * s3 + 7.0 * s4 - 3.0 * s5)
                + a1 * (s3 - 2.0 * s4 + s5))
    return (y0 * (-30.0 * s2 + 60.0 * s3 - 30.0 * s4)
            + d0 * (1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4)
            + a0 * (2.0 * s - 9.0 * s2 + 12.0 * s3 - 5.0 * s4)
            + y1 * (30.0 * s2 - 60.0 * s3 + 30.0 * s4)
            + d1 * (-12.0 * s2 + 28.0 * s3 - 15.0 * s4)
            + a1 * (3.0 * s2 - 8.0 * s3 + 5.0 * s4)) / h


def _locate_zero(t0, h, y0, d0, a0, y1, d1, a1):
    """The zero of the dense quintic on a step from f > 0 to f <= 0, as
    (t, f, f'), found in the local coordinate by
    ``curvature_profile._bisect`` to float resolution.  A zero left node,
    f(0) = 0, counts as the positive side: f is positive just right of
    it.  The step's coefficients are scaled once, before the bisection."""
    c = (y0, d0 * h, a0 * h * h * 0.5, y1, d1 * h, a1 * h * h * 0.5)
    s = _bisect(lambda s: _hermite(h, *c, s, False), 0.0, 1.0)
    return t0 + s * h, _hermite(h, *c, s, False), _hermite(h, *c, s, True)


def _grid_u(tol: float) -> float:
    """omega h of a constant piece's grid: u with
    e^u (u^5/13416 + u^6/322560) <= tol, to within rounding.

    On a step of length h the quintic Hermite interpolant errs at x by
    f[0,0,0,h,h,h,x] w(x), with w = x^3 (x - h)^3, and its derivative by
    f[0,0,0,h,h,h,x,x] w(x) + f[0,0,0,h,h,h,x] w'(x).  With
    max|w| = h^6/64 and max|w'| < h^5 720/13416 that is
    |e| <= max|f^(6)| h^6/46080 and
    |e'| <= max|f^(7)| h^6/322560 + max|f^(6)| h^5/13416.  On the piece
    |f^(6)| = omega^6 |f| and |f^(7)| = omega^6 |f'|, and over the step
    |f| <= a e^u and |f'| <= omega a e^u, with a = |f| + |f'|/omega at its
    left node.  So |e'| <= tol omega a and |e| < tol a u/3.  Three
    steps of the fixed point u = (tol/(e^u (1/13416 + u/322560)))^(1/5)
    from (13416 tol)^(1/5) end below the root: the map decreases, so its
    odd iterates from above stay below it.
    """
    u = (13416.0 * tol) ** 0.2
    for _ in range(3):
        u = (tol / (math.exp(u) * (1.0 / 13416.0 + u / 322560.0))) ** 0.2
    return u


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a b as p + e with p = fl(a b) and e its rounding error, exact for
    |a|, |b| below 1e290 with no underflow (Dekker's product)."""
    p = a * b
    a_hi = a * 134217729.0  # 2^27 + 1: Veltkamp's split
    a_hi -= a_hi - a
    b_hi = b * 134217729.0
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _hyperbolic_zero(f: float, fp: float, kappa: float, omega: float) -> float:
    """Time from entry to the first zero of f on a piece with kappa < 0,
    or inf when f has none there; f >= 0 at entry, and f' > 0 where f = 0.

    f = A e^x + B e^-x with x = omega tau, 2A = f + f'/omega and
    2B = f - f'/omega, changes sign exactly when A < 0, that is when
    d = -f' - f omega > 0, at tau = log1p(2 f omega/d)/(2 omega).  d
    cancels where the zero lies far out, so the rounding of omega and of
    f omega is recovered and taken out of it.
    """
    if fp >= 0.0:
        return math.inf
    p, p_err = _two_product(f, omega)
    w2, w2_err = _two_product(omega, omega)
    omega_lo = ((-kappa - w2) - w2_err) / (2.0 * omega)
    d = ((-fp - p) - p_err) - f * omega_lo
    return math.log1p(2.0 * p / d) / (2.0 * omega) if d > 0.0 else math.inf


def _constant_piece(t: float, f: float, fp: float, kappa: float, bound: float,
                    tol: float) -> tuple:
    """One pass of the closed form on a piece with constant K = kappa,
    from the entry state (t, f, f') toward ``bound``: the node times, f,
    f' and f'' = -kappa f after the entry, as arrays (a zero piece's one
    step as lists), and whether the last node is the first zero.  Every
    node, the zero's included, holds the closed form at its stored time:
    at the zero's time, rounded to a float, f is within rounding of 0, and
    storing 0 there instead would move the dense f' of a short last step
    by up to 30/16 of that rounding over h.

    A zero piece is one step, in Python floats: to the bound, to the zero,
    or to where f reaches twice the growth guard.  Otherwise the pass
    stops at the first zero, at the first node where |f| or |f'| reaches
    the guard, or, for kappa < 0, where the bound a e^x on |f| and |f'|
    (see ``_grid_u``) passes e^8 times the guard or x passes 700; the
    caller enters the piece again from there.  So no node overflows.  A
    grid of more than one step whose spacing is at or below the underflow
    floor 1e-14 max(t, 1) raises IntegrationError.
    """
    width = bound - t
    if kappa == 0.0:
        t_new, zero = bound, fp < 0.0 and -f / fp <= width
        if zero:
            t_new = min(t - f / fp, bound)
        elif fp * width > 2.0 * GROWTH_GUARD:
            t_new = t + 2.0 * GROWTH_GUARD / fp
        f_new = f + fp * (t_new - t)
        return [t_new], [f_new], [fp], [-kappa * f_new], zero
    omega = math.sqrt(abs(kappa))
    if kappa > 0.0:
        # f = R sin(omega tau + phi) with phi in (0, pi]: the first zero
        # is at omega tau = pi - phi
        tau_z = math.atan2(f, -fp / omega) / omega
        x_max = math.inf
    else:
        tau_z = _hyperbolic_zero(f, fp, kappa, omega)
        a = max(f + abs(fp) / omega, omega * f + abs(fp))
        x_max = min(max(math.log(GROWTH_GUARD / a), 0.0) + 8.0, 700.0)
    zero = tau_z <= width and tau_z * omega <= x_max
    end = tau_z if zero else min(width, x_max / omega)
    n = max(math.ceil(omega * end / _grid_u(tol)), 1)
    spacing = end / n
    t_last = bound if end == width else min(t + end, bound)
    if n > 1 and spacing <= 1e-14 * max(t_last, 1.0):
        raise IntegrationError("step size underflow", t)
    ts = t + spacing * np.arange(1.0, n + 1.0)
    ts[-1] = t_last
    # every node from the entry state, at the offset of its stored time
    tau = ts - t
    x = omega * tau
    if kappa > 0.0:
        c, s = np.cos(x), np.sin(x)
    else:
        c, s = np.cosh(x), np.sinh(x)
    # s/x is 1 where x underflows to 0
    s = tau * np.divide(s, x, out=np.ones_like(x), where=x > 0.0)
    fs = f * c + fp * s
    fps = fp * c - kappa * f * s
    past = np.flatnonzero(np.maximum(np.abs(fs), np.abs(fps)) >= GROWTH_GUARD)
    # a zero node past the guard ends the solve as a zero, as a step would
    if past.size and not (zero and past[0] == n - 1):
        n, zero = past[0] + 1, False
    return ts[:n], fs[:n], fps[:n], -kappa * fs[:n], zero


def _majorant(x: float, degree: int | None, first: float) -> list[float]:
    """Scaled Taylor coefficients B_k of a majorant of f on a step of
    x = omega h on a piece whose K is a polynomial of the given degree, or
    of any degree (None): B_0 = 1, B_1 = ``first`` and
    B_(k+2) = sum_(j <= min(k, degree)) x^(j+2) B_(k-j)/((k+2)(k+1)), up to
    the first term below 1e-25 past k = 8, far below the tail that
    ``_taylor_rule`` asks for at tol 1e-14.  Any degree needs x < 1.

    Where |K_j| <= omega^(j+2) on the step, the scaled coefficients
    b_(k+2) = -sum_j K_j h^(j+2) b_(k-j)/((k+2)(k+1)) of f(t + s h) are at
    most B_k times |f| + |f'|/omega (B_1 = x) or, for both basis solutions
    of a transfer matrix, times 1 (B_1 = 1).
    """
    powers, b = [], [1.0, first]
    while len(b) < 10 or b[-1] > 1e-25:
        k = len(b) - 2
        if degree is None or k <= degree:
            powers.append(x ** (k + 2))
        b.append(sum(p * c for p, c in zip(powers, b[k::-1])) / ((k + 2) * (k + 1)))
    return b


@functools.lru_cache(maxsize=64)
def _taylor_rule(tol: float, degree: int | None) -> tuple[float, int]:
    """(x, P) for a Taylor piece whose K is a polynomial of the given
    degree, or of any degree (None), at tol: steps of omega h <= x, and P
    Taylor terms per step.

    x is the root of (D7/322560 + D6/13416)/x = tol, found by bisection to
    2^-32 u from below, where D6 = sum_k k!/(k-6)! B_k and D7 = sum_k k!/(k-7)! B_k
    bound max|f^(6)| h^6 and max|f^(7)| h^7 over the step in units of
    a = |f| + |f'|/omega (``_majorant`` with B_1 = x).  By the quintic
    Hermite remainder of ``_grid_u`` the dense output then errs by at most
    tol omega a at f' and by less than tol a at f.  At degree 0 the
    majorant is the exponential pair and this is ``_grid_u``'s equation;
    lines get about 0.6 u and degree 4 and above about 0.4 u, from the
    sixth coefficient's worst case, where every K_j is at its bound at
    once.  Any degree has the geometric majorant omega^2/(1 - omega tau) of
    K, and its bisection starts below 1, where that converges.

    P is the first order whose tail sum_(k >= P) k B_k (B_1 = 1) is at most
    tol 2^-16: the error of f(t + h) and of h f'(t + h) relative to the
    step amplitude, so that thousands of steps still sum to a small part
    of tol.
    """
    def excess(x):
        b = _majorant(x, degree, x)
        d6 = sum(math.perm(k, 6) * c for k, c in enumerate(b))
        d7 = sum(math.perm(k, 7) * c for k, c in enumerate(b))
        return (d7 / 322560.0 + d6 / 13416.0) / x > tol
    lo, hi = 0.0, _grid_u(tol)
    if degree is None:
        hi = min(hi, 1.0)
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid) else (mid, hi)
    b = _majorant(lo, degree, 1.0)
    tail, order = 0.0, len(b)
    while order > 2 and tail + (order - 1) * b[order - 1] <= 2.0 ** -16 * tol:
        order -= 1
        tail += order * b[order]
    return lo, order


def _local_scales(num, a, w) -> np.ndarray:
    """omega on each cell [a, a + w] of a polynomial piece: the largest of
    (max |K^(j)/j!|)^(1/(j + 2)) over j, floored at _OMEGA_FLOOR.  ``num``
    holds K's coefficients, as floats or as arrays with one entry per cell.

    Each max is bounded by the largest Bernstein coefficient on the cell,
    with the steps of ``curvature_profile._bernstein`` on arrays: the
    Taylor shift to a gives every K^(j)(a)/j! at once, and K^(j)/j! has
    the coefficients C(i + j, j) K^(i+j)(a)/(i + j)! in powers of t - a.
    Subdivision only shrinks Bernstein bounds, so a cell's omega is at
    most its span's.
    """
    d = len(num) - 1
    taylor = _taylor_shift(num, a)
    omega = np.full(np.shape(a), _OMEGA_FLOOR)
    for j in range(d + 1):
        # C(i + j, j) is 1 at i = 0 and at j = 0
        bern = _shifted_to_bernstein([math.comb(i + j, j) * taylor[i + j] if i and j
                                      else taylor[i + j] for i in range(d - j + 1)], w)
        bound = np.abs(bern[0])
        for x in bern[1:]:
            bound = np.maximum(bound, np.abs(x))
        omega = np.maximum(omega, bound ** (1.0 / (j + 2)))
    return omega


def _rational_scales(kind: _Rational, a, w) -> np.ndarray:
    """omega on each cell [a, a + w] of a rational piece K = num/den, so
    that |K_j| <= omega^(j+2) at every point of the cell and for every j,
    floored at _OMEGA_FLOOR.

    K is analytic within rho of the cell when rho lies below the cell's
    distance to each disc that holds roots of den (``Segment._poles``).
    With M a bound on |K| there, Cauchy's estimate gives |K_j| <= M rho^-j
    for every such rho, so omega is the sup over j of the (j + 2)th root of
    the least of them: for j < _SCALE_TERMS one by one, and past them by
    the least over rho of each rho's own sup, whose terms
    exp((log M + 2 log rho)/(j + 2) - log rho) fall with j toward 1/rho
    where M rho^2 > 1 and rise toward it otherwise.  |num| is bounded on the disc of radius
    R = w/2 + rho about the cell's middle c by sum_j |num_j| R^j over its
    coefficients in powers of t - c, and |den| from below by |a_n| times
    each disc's distance less rho, to the power of its root count, or else
    by |den_0| - sum_(j >= 1) |den_j| R^j, whichever is larger.  The
    rounding of the shifted coefficients is at
    most (d + 1) 2^-50 sum_i |a_i| (c + R)^i, as in
    ``curvature_profile._bernstein``.  The rho tried are the fractions
    _POLE_FRACTIONS of the cell's distance to the nearest disc and
    _WIDTH_FRACTION of its width; a cell where no rho is certified gets
    inf.
    """
    dx = np.maximum(np.maximum(a - kind.pole_re, kind.pole_re - (a + w)), 0.0)
    dist = np.maximum(np.hypot(dx, kind.pole_im) - kind.pole_r, 0.0)
    rho = np.concatenate((_POLE_FRACTIONS * dist.min(axis=0), [_WIDTH_FRACTION * w]))
    radius = 0.5 * w + rho
    c = a + 0.5 * w
    shifted = np.abs(kind.shifted(c))
    # sum_j |p_j| R^j of num and of den, and their rounding bounds
    sums = np.einsum("pjn,jkn->pkn", shifted, _powers(radius.ravel(), kind.terms)
                     .reshape(-1, *radius.shape))
    err = kind.terms * 2.0 ** -50 * (kind.mags @ _powers(c + radius.max(axis=0), kind.terms))
    upper, low = sums[0] + err[0], 2.0 * shifted[1, 0] - sums[1] - err[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # in logs, where every factor stays in range; a rho of 0 gives inf
        smith = kind.log_lead + (kind.counts * np.log(np.maximum(dist[:, None] - rho, 0.0))).sum(0)
        log_m = np.log(upper) - np.maximum(smith, np.log(np.maximum(low, 0.0)))
        log_rho = np.log(rho)
        j = np.arange(1.0, _SCALE_TERMS).reshape(-1, 1, 1)
        head = np.maximum(log_m.min(axis=0) / 2.0,
                          ((log_m - j * log_rho).min(axis=1) / (j[:, 0] + 2.0)).max(axis=0))
        tail = (np.fmax(log_m + 2.0 * log_rho, 0.0) / (_SCALE_TERMS + 2.0) - log_rho).min(axis=0)
        omega = np.exp(np.maximum(head, tail))
    return np.maximum(omega, _OMEGA_FLOOR) * _SCALE_MARGIN


def _tail_scales(kind: _Tail, a, w) -> np.ndarray:
    """omega on each cell [a, a + w] of a power tail coef/(1 + t)^p,
    so that |K_j| <= omega^(j+2) on the cell for every j, floored at
    _OMEGA_FLOOR.

    With x = 1 + t, |K_j| <= |coef| C(p + j - 1, j) x^(-p-j), which falls
    with x, so its value at x = 1 + a holds on the cell.  omega is the sup
    over j of its (j + 2)th root r_j.  r_j = exp(-log x + D_j/(j + 2)) with
    D_j = log|coef| + (2 - p) log x + log C(p + j - 1, j), whose limit is
    1/x.  The terms j < _TAIL_TERMS are taken one by one.  Past them,
    log C(p + j - 1, j) <= (p - 1) log(j + p) - log Gamma(p) for p > 1 (the
    mean value theorem on log Gamma, with digamma(v) < log v), and <= 0
    for p <= 1.  So for p > 1, with v = j + p and j + 2 >= kappa v,
    D_j/(j + 2) is at most the positive part of
    sup_(v >= v0) (c + (p - 1) log v)/v over kappa, a sup found in closed
    form; for p <= 1 it is at most the positive part of D/(_TAIL_TERMS + 2).
    """
    coef, p = kind.a, kind.p
    log_x = np.log1p(a)
    j = np.arange(float(_TAIL_TERMS)).reshape(-1, 1)
    log_a = math.log(abs(coef))
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p((p - 1.0) / j[1:, 0]))))
    head = ((log_a + log_c.reshape(-1, 1) - (p + j) * log_x) / (j + 2.0)).max(axis=0)
    if p > 1.0:
        b = p - 1.0
        c = log_a + (2.0 - p) * log_x - math.lgamma(p)
        v0 = _TAIL_TERMS + p
        v = np.exp(np.minimum(1.0 - c / b, 700.0))  # where (c + b log v)/v peaks
        # b / v only where v >= v0: a v that underflows would overflow it
        sup = np.where(v >= v0, b / np.maximum(v, v0), (c + b * math.log(v0)) / v0)
        tail = np.maximum(sup, 0.0) / min(1.0, 1.0 + (2.0 - p) / v0)
    else:
        tail = np.maximum(log_a + (2.0 - p) * log_x, 0.0) / (_TAIL_TERMS + 2.0)
    omega = np.exp(np.maximum(head, tail - log_x))
    return np.maximum(omega, _OMEGA_FLOOR) * _SCALE_MARGIN


def _taylor_steps(kappa: list | np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """The transfer matrices of steps of length h, as the rows m00, m01,
    m10, m11 of a (4, n) array: (f, f') at the right end is
    (m00 f + m01 f', m10 f + m11 f') of the state at the left end.

    ``kappa`` holds K's Taylor coefficients at each left node, scaled to
    kappa_j = K_j h^(j+2): a polynomial's d + 1 of them as a list, or the
    ``order - 2`` that the terms read as an (order - 2, n) array.  They
    drive the recurrence
    b_(k+2) = -sum_j kappa_j b_(k-j)/((k+2)(k+1)) for the scaled Taylor
    coefficients of both basis solutions at once (f = 1, h f' = 0 and
    f = 0, h f' = 1, as the rows of a (2, n) array), over ``order`` terms.
    Each term is written in place into a stack of them, and one sum over
    the stack, term after term, gives the value sum_k b_k and the slope
    sum_k k b_k at the right end.
    """
    d = len(kappa) - 1
    # terms[k, 0] is b_k; terms[k, 1] becomes k b_k
    terms = np.empty((order, 2, 2, len(h)))
    b = terms[:, 0]
    b[:2] = 0.0
    b[0, 0] = 1.0
    b[1, 1] = 1.0
    for k in range(order - 2):
        new = b[k + 2]
        if isinstance(kappa, list):
            # a polynomial's d + 1 terms, summed in order
            np.multiply(kappa[0], b[k], out=new)
            for j in range(1, min(d, k) + 1):
                new += kappa[j] * b[k - j]
        else:
            # all k + 1 terms of a series, in one contraction
            np.einsum("jn,jrn->rn", kappa[:k + 1], b[k::-1], out=new)
        new *= -1.0 / ((k + 2) * (k + 1))
    np.multiply(b, np.arange(float(order)).reshape(-1, 1, 1), out=terms[:, 1])
    value, slope = np.add.reduce(terms, axis=0)
    return np.stack((value[0], h * value[1], slope[0] / h, slope[1]))


class _Polynomial:
    """The kind of a polynomial piece of one degree: its params are K's
    coefficients, and the pieces of a degree share a round."""

    def __init__(self, degree: int):
        self.key = self.degree = degree

    @staticmethod
    def spans(lo: float, hi: float) -> tuple:
        return ((lo, hi),)

    @staticmethod
    def scales(params, a, w) -> np.ndarray:
        return _local_scales(params, a, w)

    @staticmethod
    def kappa(params, left, h, terms: int) -> list:
        """kappa_j of the shifted coefficients: all d + 1 of them."""
        kappa, power = [], h * h
        for c in _taylor_shift(params, left):
            kappa.append(c * power)
            power = power * h
        return kappa


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^(n-1) as the rows of an (n, len(x)) array, each row the
    last times x, as ``np.vander`` builds them."""
    out = np.ones((n, len(x)))
    for i in range(1, n):
        np.multiply(out[i - 1], x, out=out[i])
    return out


def _spans(lo: float, hi: float, near, fraction: float) -> list:
    """[lo, hi) cut into spans each ``fraction`` of its left end's distance
    ``near(t)`` to K's nearest singularity wide, and at least 2^-20 of
    [lo, hi), the last of at most _SPAN_CUTS taking the rest."""
    out, t, least = [], lo, (hi - lo) * 2.0 ** -20
    while t < hi:
        end = t + max(fraction * near(t), least)
        if not t < end < hi or len(out) == _SPAN_CUTS - 1:
            end = hi
        out.append((t, end))
        t = end
    return out


class _Series:
    """A kind whose K has Taylor coefficients of every order: the sign
    pieces of a rational segment, or a power tail.  Its pieces share a
    round."""

    degree = None

    def __init__(self):
        self.key = self

    def scales(self, params, a, w) -> np.ndarray:
        return self._scales(a, w)


class _Rational(_Series):
    """The kind of the sign pieces of a rational segment, whose
    denominator is not a constant."""

    _scales = _rational_scales

    def __init__(self, seg: Segment):
        super().__init__()
        # without their trailing zeros, the first coefficient kept
        num, den = (c[:max((i for i, x in enumerate(c) if x), default=0) + 1]
                    for c in (seg.num, seg.den))
        d = max(len(num), len(den)) - 1
        rows = [[*c, *[0.0] * (d + 1 - len(c))] for c in (num, den)]
        # row j of a polynomial's block takes the powers c^m to its jth
        # coefficient in powers of t - c
        self.shift = np.array([[row[j + m] * math.comb(j + m, j) if j + m <= d else 0.0
                                for m in range(d + 1)] for row in rows for j in range(d + 1)])
        self.columns = [np.array(col).reshape(2, 1) for col in zip(*rows)]
        self.mags = np.abs(np.array(rows))
        self.terms = d + 1
        # where c^d could leave float range, Horner's shift instead
        self.wide = d * math.log2(max(seg.t_end, 1.0)) > 900.0
        self.sizes = (len(num), len(den))
        self.log_lead = math.log(abs(den[-1]))
        self.poles = seg._poles
        discs = np.array([[z.real, abs(z.imag), r] for z, r, _ in self.poles])
        self.pole_re, self.pole_im, self.pole_r = discs.T.reshape(3, -1, 1)
        self.counts = np.array([count for *_, count in self.poles], dtype=float).reshape(-1, 1, 1)

    def spans(self, lo: float, hi: float) -> tuple:
        """Spans a quarter as wide as their distance to the nearest pole
        disc."""
        return tuple(_spans(lo, hi, lambda t: min(math.hypot(t - z.real, z.imag) - r
                                                  for z, r, _ in self.poles), 0.25))

    def shifted(self, c) -> np.ndarray:
        """num's and den's coefficients in powers of t - c, for an array of
        c, as a (2, d + 1, n) array."""
        if self.wide:
            return np.array(np.broadcast_arrays(*_taylor_shift(self.columns, c))).swapaxes(0, 1)
        return (self.shift @ _powers(c, self.terms)).reshape(2, -1, len(c))

    def kappa(self, params, left, h, terms: int) -> np.ndarray:
        """kappa_j for j < terms: the series num/den in s of h^2 K(t + s h),
        from the shifted coefficients scaled by h^i, both divided by den's
        first."""
        num, den = self.shifted(left) * _powers(h, self.terms)
        n = min(self.sizes[0], terms)
        q = np.zeros((terms, len(h)))
        np.multiply(num[:n], h * h / den[0], out=q[:n])
        den = den[1:self.sizes[1]] / den[0]
        for j in range(1, terms):
            m = min(j, len(den))
            q[j] -= np.einsum("in,in->n", den[:m], q[j - 1::-1][:m])
        return q


class _Tail(_Series):
    """The kind of a power tail a/(1 + t)^p with a != 0."""

    _scales = _tail_scales

    def __init__(self, tail: PowerDecayTail):
        super().__init__()
        self.a, self.p = tail.a, tail.p

    @staticmethod
    def spans(lo: float, hi: float) -> tuple:
        """Spans each a quarter of 1 + t at their left end wide."""
        return tuple(_spans(lo, hi, lambda t: 1.0 + t, 0.25))

    def kappa(self, params, left, h, terms: int) -> np.ndarray:
        """kappa_j for j < terms, from kappa_0 = a x^-p h^2 and
        kappa_(j+1) = -kappa_j (p + j) (h/x)/(j + 1)."""
        x = 1.0 + left
        ratio = h / x
        kappa = np.empty((terms, len(h)))
        kappa[0] = self.a / x ** self.p * (h * h)
        for j in range(terms - 1):
            kappa[j + 1] = kappa[j] * ratio * (-(self.p + j) / (j + 1))
        return kappa


def _kind(seg: Segment | PowerDecayTail) -> tuple:
    """The kind of a non-constant segment's pieces or of a power tail, and
    their params: a polynomial's coefficients, divided by a constant
    denominator (a zero numerator over any denominator is the zero
    polynomial)."""
    if isinstance(seg, PowerDecayTail):
        return _Tail(seg), ()
    if any(seg.den[1:]) and any(seg.num):
        return _Rational(seg), ()
    num = seg.num if seg.is_polynomial else tuple(c / seg.den[0] for c in seg.num)
    return _Polynomial(len(num) - 1), num


# the nodes of a piece whose grid no round has built yet
_NO_NODES = np.empty(0)
_NO_NODES.flags.writeable = False


def _cells(nodes: float) -> int:
    """The number of cells of a span whose scale allows ``nodes`` nodes."""
    # a span too narrow to halve gets at most _SPAN_NODES/_CELL_NODES cells
    return math.ceil(min(max(nodes, 1.0), _SPAN_NODES) / _CELL_NODES)


class _Piece:
    """One sign piece [lo, hi) of a segment, or a power tail, in a plan, hi
    cut at the plan's t_end: its grid, resolved in rounds, and its transfer
    matrices, built in chunks.

    ``kind`` (``_Polynomial``, ``_Rational`` or ``_Tail``) gives its first
    spans, its scales and K's Taylor coefficients, with ``params``; the
    pieces of one ``key`` share rounds and passes.  ``todo`` holds the
    spans a round has yet to resolve, in order.  The built leaves (spans
    of at most _SPAN_NODES nodes at their own scale) are ``leaves``, as
    (left end, first node, end node) over the node times ``t`` and -K at
    them, ``negk``.  Past them comes the first leaf whose grid underflows
    (``underflow``, the left end of its first underflowing cell), or a
    leaf that a round resolved but did not build (``next_leaf``, its left
    end and node count), or the spans of ``todo``, or nothing.  ``chunks``
    are read-only (4, n) arrays of transfer matrices from node
    ``chunk_starts[i]`` on, over the first ``built`` nodes.
    """

    def __init__(self, kind, params: tuple, evaluate, lo: float, hi: float, positive: bool):
        self.lo, self.hi, self.positive = lo, hi, positive
        self.kind, self.key, self.params, self.evaluate = kind, kind.key, params, evaluate
        self.todo = list(kind.spans(lo, hi))
        self.t = self.negk = _NO_NODES
        self.leaves: list[tuple[float, int, int]] = []
        self.underflow: float | None = None
        self.next_leaf: tuple[float, int] | None = None
        self.chunk_starts: list[int] = []
        self.chunks: list[np.ndarray] = []
        self.built = 0


class _Plan:
    """The state-independent part of the non-constant pieces of a profile
    on [0, t_end) at tol: every sign piece's grid and transfer matrices,
    filled as far as the walks over them go, and the walks that finished
    (``f`` and ``m``).  A profile with only constant pieces has a plan with
    no pieces, which holds its walks alone.

    ``resolve`` finds the grids in rounds, each over the pieces of one key
    (a polynomial degree, a rational segment or the tail), by batched
    array passes: one scale pass per halving step of all the pieces at
    once, and one for all the cells of polynomial leaves; a rational or
    tail leaf is one cell, since its spans already follow K's
    singularities.  A round stops at the leaf where its nodes
    would pass its limit, so no round builds more nodes than the remaining
    budget of the walk that asks for it.  ``chunk`` builds the transfer
    matrices: all the pieces of a key in one ``_taylor_steps`` pass, which
    f and m share where they are nonpositive, except that a positive
    polynomial piece comes in chunks of _CHUNK_NODES nodes, doubling, as f
    reaches them.
    """

    def __init__(self, profile: CurvatureProfile, t_end: float, tol: float):
        self.profile, self.t_end, self.tol = profile, t_end, tol
        # the negative part of the profile, whose non-constant sign pieces
        # are the profile's nonpositive ones
        self.negative: CurvatureProfile | None = None
        # the finished walks over the plan: f, the solve of the profile,
        # and m, the solve of its negative part where that is another
        # profile (where it is the profile itself, m is f)
        self.f: WarpingSolution | None = None
        self.m: WarpingSolution | None = None
        self.pieces = []
        for seg in profile.segments:
            if seg.t_start < t_end and not seg._constant:
                kind, params = _kind(seg)
                self.pieces += [_Piece(kind, params, seg.evaluate, lo, min(hi, t_end), positive)
                                for lo, hi, positive in seg.sign_pieces if lo < t_end]
        tail = profile.tail
        if profile.t_tail < t_end and not tail._constant:
            self.pieces.append(_Piece(_kind(tail)[0], (), tail.evaluate, profile.t_tail, t_end,
                                      tail.a > 0.0))
        # each piece by its start, which the negative part's cut shares
        self.at = {piece.lo: piece for piece in self.pieces}

    def nodes(self) -> int:
        """The nodes the plan holds: the grid nodes built so far and the
        nodes of its kept walks."""
        return (sum(len(p.t) for p in self.pieces)
                + sum(len(w.ts) for w in (self.f, self.m) if w is not None))

    def resolve(self, piece: _Piece, budget: int) -> None:
        """Resolve the spans left from ``piece`` on, a round per key, each
        of at most _ROUND_NODES and ``budget`` nodes; a first leaf of at
        most ``budget`` nodes is always built."""
        later = [p for p in self.pieces[self.pieces.index(piece):] if p.todo]
        for key in dict.fromkeys(p.key for p in later):
            self._round([p for p in later if p.key == key], budget)

    def _round(self, pieces: list[_Piece], budget: int) -> None:
        """Resolve the spans left in ``pieces``, of one key and in order,
        then build the leaves (``_build_leaves``).  Each piece is halved
        depth first, leftmost span first, as far as a walk can reach within
        the limit: a span whose scale allows more than _SPAN_NODES nodes is
        halved, else it is a leaf.  A pass takes, in one scale call, the
        leftmost span of every polynomial piece, or every span of a rational
        or tail piece, whose spans come cut to its singularities; such a
        piece keeps its leaves up to its first span to halve, whose halves
        and later spans wait for the next pass."""
        kind = pieces[0].kind
        xu = _taylor_rule(self.tol, kind.degree)[0]
        limit = min(_ROUND_NODES, budget)
        # each piece's spans as a stack, leftmost on top, its leaves in
        # order as [piece, a, b, w omega/x], and their least node count,
        # one per cell
        stacks = [p.todo[::-1] for p in pieces]
        leaves: list[list] = [[] for _ in pieces]
        least = [0] * len(pieces)
        for p in pieces:
            p.todo, p.next_leaf = [], None
        while True:
            # the pieces that a walk reaches within the limit; the first
            # leaf of the first piece is always found
            tops, low = [], 0
            for k, stack in enumerate(stacks):
                low += least[k]
                if low > limit:
                    break
                if stack:
                    tops.append(k)
            if not tops:
                break
            take = [1 if kind.degree is not None else len(stacks[k]) for k in tops]
            # the spans' ends and their pieces' params, from one array
            a, b, *params = np.array([(*span, *pieces[k].params) for k, n in zip(tops, take)
                                      for span in stacks[k][:-n - 1:-1]]).T
            w = b - a
            # a count past float range reads inf, and its span is halved
            with np.errstate(all="ignore"):
                nodes = (w * kind.scales(tuple(params), a, w) / xu).tolist()
            start = 0
            for k, n in zip(tops, take):
                stack = stacks[k]
                for count in nodes[start:start + n]:
                    lo, hi = stack.pop()
                    mid = 0.5 * (lo + hi)
                    if count > _SPAN_NODES and lo < mid < hi:
                        stack += [(mid, hi), (lo, mid)]
                        break
                    leaves[k].append([pieces[k], lo, hi, count])
                    least[k] += _cells(count) if kind.degree is not None else 1
                start += n
        closed = self._build_leaves([leaf for group in leaves for leaf in group],
                                    xu, limit, budget)
        for p, stack in zip(pieces, stacks):
            if p not in closed:
                p.todo += stack[::-1]

    def _build_leaves(self, leaves: list, xu: float, limit: int, budget: int) -> set:
        """The cells, node counts and underflow test of resolved leaves, in
        one pass, and the grids of those a walk reaches within the limit,
        each as ``np.linspace`` and ``np.repeat`` would build it alone; the
        leaves past the limit go back to their pieces' spans.  Returns the
        pieces that end at a leaf whose grid underflows."""
        kind = leaves[0][0].kind
        # a rational or tail leaf is one cell
        n = [1 if kind.degree is None else _cells(count) for *_, count in leaves]
        first = [0]
        for k in n[:-1]:
            first.append(first[-1] + k)
        # every cell as a row of its leaf's ends, cell width, first cell,
        # count from its span's scale and params, from one array
        a, b, step, start, nodes, *params = np.repeat(np.array(
            [(lo, hi, (hi - lo) / k, i, count, *p.params)
             for (p, lo, hi, count), k, i in zip(leaves, n, first)]), n, axis=0).T
        # a one-cell leaf takes its count from its span's scale
        counts = np.maximum(np.ceil(nodes), 1.0)
        if kind.degree is None:
            left, right = a, b
        else:
            # cell i of a leaf spans edges i and i + 1 of linspace(a, b, cells + 1),
            # i (b - a)/cells + a, the last one b
            index = np.arange(float(len(a))) - start
            left = index * step + a
            right = (index + 1.0) * step + a
            last = [i + k - 1 for i, k in zip(first, n)]
            right[last] = b[last]
            multi = [k > 1 for k in n]
            if any(multi):
                multi = slice(None) if all(multi) else np.repeat(multi, n)
                width = right[multi] - left[multi]
                counts[multi] = np.maximum(np.ceil(width * kind.scales(
                    tuple(c[multi] for c in params), left[multi], width) / xu), 1.0)
        spacing = (right - left) / counts
        under = (counts > 1.0) & (spacing <= 1e-14 * np.maximum(right, 1.0))
        cell_counts, cell_under = counts.tolist(), under.tolist()
        # the leaves to build, in order, until one passes the limit: it and
        # every later leaf go back to the spans
        leaf_counts, keep, done, cut, closed = [], [], 0, False, set()
        for (p, a_k, b_k, _), i, k in zip(leaves, first, n):
            count = sum(cell_counts[i:i + k])
            leaf_counts.append(count)
            kept = False
            if p in closed:
                pass
            elif cut:
                p.todo.append((a_k, b_k))
            elif any(cell_under[i:i + k]):
                p.underflow = left.item(cell_under.index(True, i))
                p.todo = []
                closed.add(p)
            elif done + count <= limit or (done == 0 and count <= budget):
                done += count
                kept = True
            else:
                cut = True
                p.next_leaf = (a_k, int(count))
                p.todo.append((a_k, b_k))
            keep.append(kept)
        if not done:
            return closed
        keep_cells = slice(None) if all(keep) else np.repeat(keep, n)
        counts = counts[keep_cells].astype(np.int64)
        ends = np.cumsum(counts)
        cell_left, cell_step, cell_start = np.repeat(
            [left[keep_cells], spacing[keep_cells], ends - counts], counts, axis=1)
        grid = cell_left + cell_step * (np.arange(1.0, ends.item(-1) + 1.0) - cell_start)
        grid[ends - 1] = right[keep_cells]
        grid.flags.writeable = False
        # each piece's kept leaves are one run of the grid: K in one call,
        # one for the whole grid where the pieces share K (a series kind)
        runs: dict[_Piece, list] = {}
        start = 0
        for (p, a_k, _, _), count, kept in zip(leaves, leaf_counts, keep):
            if kept:
                count = int(count)
                run = runs.setdefault(p, [start, start])
                i = len(p.t) + run[1] - run[0]
                p.leaves.append((a_k, i, i + count))
                start = run[1] = start + count
        negk_all = -leaves[0][0].evaluate(grid) if kind.degree is None else None
        for p, (lo, hi) in runs.items():
            nodes = grid[lo:hi]
            negk = -p.evaluate(nodes) if negk_all is None else negk_all[lo:hi]
            if len(p.t):
                nodes, negk = np.concatenate((p.t, nodes)), np.concatenate((p.negk, negk))
            p.t, p.negk = nodes, negk
            p.t.flags.writeable = p.negk.flags.writeable = False
        return closed

    def chunk(self, piece: _Piece, i: int) -> tuple[int, np.ndarray]:
        """The first node and the (4, n) transfer matrices of the chunk
        that holds node i of ``piece``, built first if it is not yet."""
        if i >= piece.built:
            # with the pieces of its key not built yet, but a positive
            # polynomial piece only as far as f walks, in chunks
            ranges = [(p, len(p.t)) for p in self.pieces if p.key == piece.key
                      and p.built < len(p.t) and not (p.positive and p.kind.degree is not None)]
            if piece.positive and piece.kind.degree is not None:
                size = _CHUNK_NODES << len(piece.chunks)
                ranges.append((piece, min(piece.built + size, len(piece.t))))
            self._build_matrices(ranges)
        k = bisect.bisect_right(piece.chunk_starts, i) - 1
        return piece.chunk_starts[k], piece.chunks[k]

    def _build_matrices(self, ranges: list[tuple[_Piece, int]]) -> None:
        """The transfer matrices of each piece's nodes from ``built`` up to
        the given end, in one ``_taylor_steps`` pass."""
        lefts, rights = [], []
        for p, end in ranges:
            i = p.built
            rights.append(p.t[i:end])
            lefts.append(p.t[i - 1:end - 1] if i else np.concatenate(([p.lo], p.t[:end - 1])))
        sizes = [len(r) for r in rights]
        left = np.concatenate(lefts)
        first = ranges[0][0]
        if len(ranges) == 1:
            params = first.params
        else:
            params = tuple(np.repeat([p.params[i] for p, _ in ranges], sizes)
                           for i in range(len(first.params)))
        order = _taylor_rule(self.tol, first.kind.degree)[1]
        h = np.concatenate(rights) - left
        mats = _taylor_steps(first.kind.kappa(params, left, h, order - 2), h, order)
        mats.flags.writeable = False
        start = 0
        for (p, end), size in zip(ranges, sizes):
            p.chunk_starts.append(p.built)
            p.chunks.append(mats[:, start:start + size])
            p.built = end
            start += size


# the nodes that the plans of ``_Memo`` other than the newest hold at
# most, built grid nodes and kept walk nodes together: about 0.2 MB, at 48
# bytes a grid node (t, -K and a transfer matrix) and 40 a walk node (t, f,
# f' and f'' at both ends of a step).  The gallery's seven plans count
# 1307 grid nodes and 2491 walk nodes; kept plans slow a sweep of
# profiles each solved once, the more the larger the budget (CHANGES.md)
_MEMO_NODES = 1 << 12


class _Memo:
    """The plans of recent solves (``_plan``), with their finished walks:
    the newest, and older ones in ``older``, least recently used first,
    with the nodes each held (``_Plan.nodes``) when it stopped being the
    newest, at least _CHUNK_NODES, so that plans with few nodes cannot
    pile up.  A plan whose grid and walks pass _MEMO_NODES on their own
    drops its walks then, and is kept as long as its grid fits.  The older
    plans hold at most _MEMO_NODES nodes in all (``nodes``), so at most
    _MEMO_NODES // _CHUNK_NODES of them; past that the least recently used
    go.  Only the newest plan grows, keeps a walk or takes a negative part,
    so an older plan's count stays exact.
    """

    def __init__(self):
        self.newest: _Plan | None = None
        self.older: OrderedDict[_Plan, int] = OrderedDict()
        self.nodes = 0

    def plan(self, profile: CurvatureProfile, t_end: float, tol: float) -> _Plan:
        def serves(p):
            return (p.t_end == t_end and p.tol == tol
                    and (p.profile is profile or p.negative is profile))

        newest = self.newest
        if newest is not None and serves(newest):
            return newest
        plan = next((p for p in reversed(self.older) if serves(p)), None)
        if plan is None:
            plan = _Plan(profile, t_end, tol)
        else:
            self.nodes -= self.older.pop(plan)
        if newest is not None:
            size = newest.nodes()
            if size > _MEMO_NODES:
                # the walks alone go, so that the plan stays as long as
                # its grid fits
                newest.f = newest.m = None
                size = newest.nodes()
            size = max(size, _CHUNK_NODES)
            self.older[newest] = size
            self.nodes += size
            while self.nodes > _MEMO_NODES:
                self.nodes -= self.older.popitem(last=False)[1]
        self.newest = plan
        return plan


_memo = _Memo()


def _plan(profile: CurvatureProfile, t_end: float, tol: float) -> _Plan:
    """The plan of ``profile`` on [0, t_end) at tol, with its finished
    walks, from the memo of recent plans (``_Memo``), keyed on the profile
    object's identity, t_end and tol; a plan not held there is built, and
    either becomes the newest.  The plan of a profile also serves its
    negative part, once ``solve_m`` has named it (``_Plan.negative``)."""
    return _memo.plan(profile, t_end, tol)


def _subnormal_end(end: float) -> ValueError:
    """The refusal of a segment or sign piece that ends at a subnormal
    time: its nodes would carry the absolute quantum of subnormal floats,
    which the dense output's error bound does not count."""
    return ValueError(f"breakpoint {end!r} lies below the least normal float")


def _taylor_piece(source, t: float, f: float, fp: float, bound: float,
                  steps: int, plan: _Plan) -> tuple:
    """The nodes of a non-constant segment or power tail ``source`` from
    the entry state (t, f, f') toward ``bound``: the node times, f, f' and
    f'' = -K f after the entry, as arrays, and whether the last node is the
    first zero.  ``steps`` is the solve's count of steps so far, and
    ``plan`` holds the grid and matrices of its sign pieces (``_Plan``).

    Each sign piece is walked on its own grid, so the nodes depend on the
    sign piece, the entry time and tol alone, never on the state.  A span
    whose scale allows more than _SPAN_NODES nodes is halved; a span is
    split into uniform cells of about _CELL_NODES nodes at its own scale,
    and each cell gets a uniform grid of spacing at most x/omega, with x
    from ``_taylor_rule`` and the cell's omega from its kind's scales.
    The state is carried node to node in Python floats over the plan's
    matrices.  The walk stops at the first node where f <= 0, whose zero
    ``_locate_zero`` finds on the dense quintic, and at the first node
    where |f| or |f'| reaches the growth guard.  A step grows |f| and |f'|
    by at most e^x (1 + max(h, omega)), which the omega floor keeps below
    1e180, so no node overflows.  Where the walk reaches a span whose grid
    has more than one step at or below the underflow floor
    1e-14 max(t, 1), or whose nodes would take the solve past _MAX_STEPS
    steps, it raises IntegrationError; the plan records both and builds
    neither, so only a walk that reaches them raises.
    """
    ev = source.evaluate
    guard, max_steps = GROWTH_GUARD, _MAX_STEPS
    walked = steps
    # the nodes walked: f and f' in Python floats, their times and -K as
    # slices of the plan's arrays, one per chunk; ``last`` is the node
    # before the next chunk, the entry at first, which brackets a zero at
    # the chunk's first node
    fs, fps, times, negks = [], [], [], []
    push_f, push_fp = fs.append, fps.append
    last = (t, f, fp, -ev(t) * f)

    def nodes(zero: bool) -> tuple:
        node_f = np.fromiter(fs, float, len(fs))
        # Python floats past the guard may overflow K f
        with np.errstate(over="ignore"):
            return (np.concatenate(times), node_f, np.fromiter(fps, float, len(fps)),
                    np.concatenate(negks) * node_f, zero)

    lo = t
    while lo < bound:
        piece = plan.at[lo]
        lo = piece.hi
        k = 0
        while True:
            if k == len(piece.leaves):
                if piece.underflow is not None:
                    raise IntegrationError("step size underflow", piece.underflow)
                if not piece.todo:
                    break
                if piece.next_leaf and walked + piece.next_leaf[1] > max_steps:
                    raise IntegrationError("step budget exhausted", piece.next_leaf[0])
                plan.resolve(piece, max_steps - walked)
                continue
            a, i, end = piece.leaves[k]
            if walked + (end - i) > max_steps:
                raise IntegrationError("step budget exhausted", a)
            # and the built leaves after it, as far as the budget allows
            k += 1
            while k < len(piece.leaves) and walked + (piece.leaves[k][2] - i) <= max_steps:
                end = piece.leaves[k][2]
                k += 1
            while i < end:
                first, mats = plan.chunk(piece, i)
                j = min(end, first + mats.shape[1])
                n = len(fs)
                # the rows of the matrices as Python floats, read one by one
                for c00, c01, c10, c11 in zip(*map(memoryview, mats[:, i - first:j - first])):
                    f, fp = c00 * f + c01 * fp, c10 * f + c11 * fp
                    push_f(f)
                    push_fp(fp)
                    if not (0.0 < f < guard and -guard < fp < guard):
                        break
                n = len(fs) - n
                walked += n
                times.append(piece.t[i:i + n])
                negks.append(piece.negk[i:i + n])
                i += n - 1
                if f <= 0.0:
                    if n > 1:
                        last = (piece.t.item(i - 1), fs[-2], fps[-2],
                                piece.negk.item(i - 1) * fs[-2])
                    t0, f0, fp0, d0 = last
                    tz, fz, fpz = _locate_zero(t0, piece.t.item(i) - t0, f0, fp0, d0,
                                               f, fp, piece.negk.item(i) * f)
                    fs[-1], fps[-1] = fz, fpz
                    out = nodes(True)
                    out[0][-1], out[3][-1] = tz, -ev(tz) * fz
                    return out
                if not (f < guard and -guard < fp < guard):
                    return nodes(False)
                last = (piece.t.item(i), f, fp, piece.negk.item(i) * f)
                i = j
    return nodes(False)


def solve(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Integrate f'' + K f = 0 with f(0) = 0, f'(0) = 1 on [0, t_end].

    ``t_end`` must be finite and at least the least normal float,
    ``sys.float_info.min``: below it the nodes would be subnormal, whose
    absolute quantum the dense output's error bound does not count.  For
    the same reason a segment or sign piece that ends below it raises
    ValueError, naming that end, where the walk reaches it.
    ``tol`` is the requested relative error of
    the dense output, which sets the grids (see the module docstring); it
    must lie in [1e-14, 1e-3].  Constant pieces are taken in closed form,
    every other piece, a polynomial or rational segment or a power tail,
    by Taylor transfer matrices on a grid per sign piece.  Integration
    stops early at the first zero of f (recorded in ``first_zero``) or when
    |f| or |f'| passes the growth guard (recorded in ``truncated``).

    Every piece ends on a node, so pieces far narrower than the underflow
    floor of 1e-14 max(t, 1) are each one step; only a grid of more than
    one step finer than that floor raises IntegrationError.  A Taylor
    piece checks the step budget before it walks the nodes of a span.

    The solve goes through the plan of ``profile`` on [0, t_end) at tol
    (``_Plan``), from the memo of recent plans, which keeps the walks that
    finished over it: a solve of the same profile object, t_end and tol
    while the memo holds the plan returns the very solution of the first
    one, and walks nothing.  Otherwise the Taylor pieces are walked over
    the plan, which finds grids and builds transfer matrices only as far
    as the walks over it go.  A span whose grid underflows or would pass
    the step budget raises only when a walk reaches it, as the walk over
    a fresh grid would; an error keeps no walk, so it is raised again by
    every solve that meets it.
    """
    _check_args(t_end, tol)
    plan = _plan(profile, t_end, tol)
    if plan.profile is profile:
        if plan.f is None:
            plan.f = _walk(profile, t_end, tol, plan)
        return plan.f
    # the negative part that the plan serves (``solve_m``)
    if plan.m is None:
        plan.m = _walk(profile, t_end, tol, plan)
    return plan.m


def _check_args(t_end: float, tol: float) -> None:
    """ValueError unless t_end and tol are a window and tol that ``solve``
    takes."""
    if not (0.0 < t_end < math.inf):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if t_end < sys.float_info.min:
        raise ValueError(f"t_end must be at least the least normal float, got {t_end}")
    if not (_MIN_TOL <= tol <= _MAX_TOL):
        raise ValueError(f"tol must lie in [{_MIN_TOL}, {_MAX_TOL}], got {tol}")


def _walk(profile: CurvatureProfile, t_end: float, tol: float, plan: _Plan) -> WarpingSolution:
    """The solution of ``solve``, walked piece by piece: constant pieces
    in closed form, the others over ``plan``.  Its arrays are read-only.

    Sign pieces run in order from 0, and each segment end is a sign-piece
    end, so only the first sign piece can end below the least normal
    float, where the walk meets it first: it raises ValueError
    (``_subnormal_end``)."""
    first = next(profile.sign_pieces(), None)
    if first is not None and first[2] < sys.float_info.min:
        raise _subnormal_end(first[2])
    t, f, fp = 0.0, 0.0, 1.0
    # the nodes of zero pieces, in Python floats, since the last piece
    # whose nodes come as arrays: both go to ``blocks`` in order
    ts, fs, fps = [0.0], [0.0], [1.0]
    d2_left: list[float] = []
    d2_right: list[float] = []
    blocks: list[tuple] = []
    first_zero: float | None = None
    truncated = False
    n_steps = 0

    while t < t_end:
        if n_steps > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t)
        piece, piece_end = profile.piece_at(t)
        bound = min(piece_end, t_end)
        k_t = piece.evaluate(t)
        if piece._constant:
            # a constant pass may stop short of its bound: the next pass
            # enters the piece again there
            new_ts, new_fs, new_fps, new_d2, zero = _constant_piece(t, f, fp, k_t, bound, tol)
        else:
            new_ts, new_fs, new_fps, new_d2, zero = _taylor_piece(
                piece, t, f, fp, bound, n_steps, plan)
        n_steps += len(new_ts)
        d2_left.append(-k_t * f)
        if isinstance(new_ts, list):
            # a zero piece's one step, in Python floats
            d2_left += new_d2[:-1]
            d2_right += new_d2
            ts += new_ts
            fs += new_fs
            fps += new_fps
        else:
            blocks += [(ts, fs, fps, d2_left, d2_right),
                       (new_ts, new_fs, new_fps, new_d2[:-1], new_d2)]
            ts, fs, fps, d2_left, d2_right = [], [], [], [], []
        t, f, fp = float(new_ts[-1]), float(new_fs[-1]), float(new_fps[-1])
        if zero:
            first_zero = t
            break
        if max(abs(f), abs(fp)) >= GROWTH_GUARD:
            truncated = True
            break

    blocks.append((ts, fs, fps, d2_left, d2_right))
    # the five arrays as read-only views of one buffer, filled in one call
    flat = np.concatenate([part for field in zip(*blocks) for part in field])
    flat.flags.writeable = False
    n = n_steps + 1
    ts, fs, fps = flat[:n], flat[n:2 * n], flat[2 * n:3 * n]
    d2_left, d2_right = flat[3 * n:4 * n - 1], flat[4 * n - 1:]
    return WarpingSolution(
        profile=profile,
        tol=tol,
        ts=ts,
        fs=fs,
        fps=fps,
        d2_left=d2_left,
        d2_right=d2_right,
        first_zero=first_zero,
        truncated=truncated,
        n_steps=n_steps,
    )


def solve_m(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Solve m'' + min(K, 0) m = 0, m(0) = 0, m'(0) = 1.

    m is convex while positive and starts with slope 1, so it can never
    return to zero; a detected zero would mean the integrator broke and
    is reported as such, by every call.

    ``solve`` walks ``negative_part(profile)``, which the solution
    carries, over the plan of ``profile`` itself: its nonpositive
    non-constant sign pieces, and a negative power tail, are the negative
    part's, with the same nodes and matrices.  The plan names the negative
    part once and keeps m's walk, so a solve_m of the same profile object,
    t_end and tol while the memo holds the plan builds no negative part
    and returns the very solution of the first one.  Where K <= 0 the
    negative part is the profile itself, and m is f's own object.  While
    the memo holds the plan of ``solve(profile, t_end, tol)``, m builds no
    matrix that f built; either way the nodes are the same bits.  Errors
    are raised where m's walk meets them.
    """
    _check_args(t_end, tol)
    plan = _plan(profile, t_end, tol)
    # a plan that serves ``profile`` as a negative part names it already
    if plan.negative is None:
        plan.negative = negative_part(profile)
    sol = solve(plan.negative, t_end, tol)
    if sol.first_zero is not None:
        raise IntegrationError(
            "convex comparison function crossed zero; integrator inconsistency",
            sol.first_zero,
        )
    return sol
