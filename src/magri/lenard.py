"""Lenard-Magri recursion for the built-in compatible pair.

Starting from a Casimir gradient of H_eps, each step solves

    H_eps xi_{n+1} = H_{1-eps} xi_n

for the next gradient, normalized against the two-dimensional kernel of
H_eps by zeroing the coefficients of the kernel marker monomials.  Two
interchangeable solvers are provided: a back-substitution through the
triangular component identities of the built-in operators (default),
and a linear solve over a weight-homogeneous candidate space whose
bounds are read off those same identities.
Conserved densities are reconstructed by exact integration, and every
step re-verifies the defining relation before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diffalg as da
from . import diffop as dop
from . import linsolve
from . import varcalc as vc
from .diffalg import DiffFunction, LocalFunctional, QQ, ZERO, ONE, LOG_VAR
from .errors import MagriError, NoSolution, NotClosed

H0, H1 = dop.builtin_pair()
_Q = dop.builtin_q()

scaled_v_plus = da.scaled_v_plus

# The subspaces the two components of every gradient of the eps chains lie
# in: the ansatz stepper searches them and run_hierarchy checks them.
_GRADIENT_TAGS = {
    0: (da.scaled_v_minus(1), da.affine_scaled(1)),
    1: (da.V_PLUS, scaled_v_plus(2)),
}


@dataclass(frozen=True)
class HierarchySeed:
    """A Casimir of one structure, as a gradient/density pair."""

    eps: int
    alpha: int
    gradient: tuple
    density: LocalFunctional


def _seed_data():
    u = da.u_jet(0)
    v = da.v_jet(0)
    vp = da.v_jet(1)
    xi00 = (ZERO, ONE)
    h00 = v
    xi01 = (
        da.v_pow(-1),
        -u * da.v_pow(-2)
        - QQ(3, 2) * vp * vp * da.v_pow(-4)
        + da.v_jet(2) * da.v_pow(-3),
    )
    h01 = u * da.v_pow(-1) - vp * vp * da.v_pow(-3) / 2
    xi10 = (ONE, ZERO)
    h10 = u
    xi11 = (da.u_jet(2) + 4 * u * u, v * v / 2)
    h11 = u * da.u_jet(2) / 2 + QQ(4, 3) * u ** 3 + v ** 3 / 6
    return {
        (0, 0): (xi00, h00),
        (0, 1): (xi01, h01),
        (1, 0): (xi10, h10),
        (1, 1): (xi11, h11),
    }


_SEEDS = _seed_data()


def seed(eps, alpha):
    """The (eps, alpha) starting Casimir, verified on construction; raises
    MagriError unless eps and alpha are each the int 0 or 1 (not a bool)."""
    if type(eps) is not int or type(alpha) is not int or (eps, alpha) not in _SEEDS:
        raise MagriError("eps and alpha must each be 0 or 1")
    grad, dens = _SEEDS[(eps, alpha)]
    if not dop.kernel_verify(structure(eps), grad):
        raise MagriError("seed gradient is not a Casimir of its structure")
    if vc.variational_derivative(dens) != grad:
        raise MagriError("seed density does not produce the seed gradient")
    return HierarchySeed(eps, alpha, grad, LocalFunctional._of_gradient(dens, grad))


def structure(eps):
    """H_eps of the built-in pair; raises MagriError unless eps is the int
    0 or 1 (not a bool)."""
    if type(eps) is not int or eps not in (0, 1):
        raise MagriError(f"eps must be 0 or 1, got {eps!r}")
    return H1 if eps else H0


# -- candidate spaces --------------------------------------------------------


def _candidates(weight, order_bound, tag, v_floor):
    """The packed monomials of one weight in a tagged subspace, with jet
    order at most ``order_bound`` and v power at least ``v_floor`` (or the
    tag's own floor, when that is higher), in the order of
    :func:`diffalg.monomials`.  A negative order bound leaves no room."""
    if order_bound < 0:
        return ()
    lo, hi, affine = tag.bounds
    if lo is not None:
        v_floor = max(lo, v_floor)
    return da.monomials(weight, order_bound, v_floor, hi, affine)


# -- the recursion step ------------------------------------------------------


_KERNELS = {
    0: (_SEEDS[(0, 0)][0], _SEEDS[(0, 1)][0]),
    1: (_SEEDS[(1, 0)][0], _SEEDS[(1, 1)][0]),
}


def _marker(vec):
    """The first component of a kernel gradient that is nonzero, with its
    first term in the packed order: (index, packed monomial, coefficient)."""
    for i, comp in enumerate(vec):
        if comp:
            return (i, *da.packed_terms(comp)[0])


def _normalize_kernel(eps, vec):
    """Zero the kernel marker coefficients by subtracting kernel gradients."""
    out = list(vec)
    for ker in _KERNELS[eps]:
        i, m, kc = _marker(ker)
        c = dict(da.packed_terms(out[i])).get(m)
        if c:
            s = da.coeff_div(c, kc)
            out = [a - s * b for a, b in zip(out, ker)]
    return tuple(out)


def _vec_weight(vec):
    w = None
    for comp in vec:
        if not comp:
            continue
        cw = da.weight(comp)
        if cw is da.INHOMOGENEOUS or (w is not None and cw != w):
            return da.INHOMOGENEOUS
        w = cw
    return w


def _step_recursion(eps, b):
    if eps == 0:
        a = da.antiderivative(b[1])
        if a is None:
            raise NoSolution("second component of the step is not a total derivative")
        f = a * da.v_pow(-1)
        # the first row of H0 is (d^3 + d.u + u d, v d)
        rhs = (b[0] - dop.apply_scalar(H0.entries[0][0], f)) * da.v_pow(-1)
        g = da.antiderivative(rhs)
        if g is None:
            raise NoSolution("first component of the step is not a total derivative")
        return (f, g)
    a = da.antiderivative(b[0])
    if a is None:
        raise NoSolution("first component of the step is not a total derivative")
    g = a * da.v_pow(2)
    rhs = b[1] * da.v_pow(2) + dop.apply_scalar(_Q, a)
    f = da.antiderivative(rhs)
    if f is None:
        raise NoSolution("second component of the step is not a total derivative")
    return (f, g)


def _ord(f):
    """The jet order of one component: -1 for 0 or a constant."""
    o = da.differential_order(f)
    return -1 if o is None else o


def _space_bounds(eps, b):
    """The (order bound, v floor) of each component's candidate space for
    H_eps xi = b, read off the triangular rows of H_eps.

    Write ord for the jet order (-1 for 0 or a constant) and min_v for
    :func:`diffalg.min_v_exponent`.  D raises the order of a nonconstant
    function by exactly one and lowers the power of v by at most one,
    and by exactly one at a negative power k: the terms v^(k-1)*v'*m of
    D(v^k*log(v)^j*m) come from the v^k terms alone, and the top power
    of log v keeps its factor k (at k = 0 a log v term gives v^-1 too).
    So an antiderivative a of b != 0 with no constant term has
    ord a = ord b - 1 and min_v a >= min(0, min_v b + 1).  Let xi be the
    solution built from such antiderivatives:

    - eps = 0: D(v*xi0) = b1 and v*D(xi1) = b0 - (d^3 + 2u d + u')xi0,
      so ord xi0 <= ord b1 - 1, min_v xi0 >= min(0, min_v b1 + 1) - 1,
      ord xi1 <= max(ord b0, ord xi0 + 3) - 1 and
      min_v xi1 >= min(0, min_v b0, min_v xi0 - 3);
    - eps = 1: D(v^-2*xi1) = b0 and D(xi0) = v^2*b1 + Q(v^-2*xi1), so
      ord xi1 <= ord b0 - 1 and ord xi0 <= max(ord b1, ord xi1 + 5) - 1;
      the floors are the tags' own.

    A right side that is not exact at some row has no solution at all,
    and where a bound is negative that component of xi is 0.  Any other
    solution is xi plus a kernel gradient, which is nonzero only at the
    kernel weights and lies in the tags; so xi is in the candidate
    spaces whenever the answer is, and :func:`_normalize_kernel` maps
    every solution found there to that one answer.
    """
    ob0, ob1 = map(_ord, b)
    if eps == 0:
        o0 = ob1 - 1
        f0 = min(0, da.min_v_exponent(b[1]) + 1) - 1
        o1 = max(ob0, o0 + 3) - 1
        return (o0, f0), (o1, min(0, da.min_v_exponent(b[0]), f0 - 3))
    o1 = ob0 - 1
    lo0, lo1 = (tag.bounds[0] for tag in _GRADIENT_TAGS[1])
    return (max(ob1, o1 + 5) - 1, lo0), (o1, lo1)


def _step_ansatz(eps, b):
    h = structure(eps)
    wb = _vec_weight(b)
    if wb is da.INHOMOGENEOUS:
        raise NoSolution("ansatz stepping needs a weight-homogeneous right side")
    wt = wb - 3 if eps == 0 else wb + 3
    cols = []
    labels = []
    spaces = zip(_GRADIENT_TAGS[eps], _space_bounds(eps, b))
    for comp, (tag, (bound, floor)) in enumerate(spaces):
        for m in _candidates(wt, bound, tag, floor):
            vec = [ZERO, ZERO]
            vec[comp] = DiffFunction.from_packed(((1, m),))
            col = dop.apply(h, vec)
            if any(col):
                cols.append(col)
                labels.append((comp, m))
    xs = linsolve.solve(cols, b)
    if xs is None:
        raise NoSolution("no gradient found in the candidate spaces")
    comps = [[], []]
    for (comp, m), x in zip(labels, xs):
        comps[comp].append((x, m))
    return tuple(map(DiffFunction.from_packed, comps))


def _check_method(method):
    if method not in ("recursion", "ansatz"):
        raise MagriError(f"unknown stepping method {method!r}")


def lm_step(eps, grad, method="recursion"):
    """One recursion step: the next gradient xi' with H_eps xi' = H_{1-eps} xi.

    The input must be a variational gradient (closed); the output is
    normalized against the kernel of H_eps and verified exactly before
    being returned.  The "ansatz" method solves once over the candidate
    spaces of the two components, whose bounds :func:`_space_bounds`
    reads off the right side.  An eps other than 0 or 1, or an unknown
    ``method``, raises MagriError.
    """
    return _lm_step(eps, grad, method)[0]


def _lm_step(eps, grad, method, closed=False):
    """:func:`lm_step`'s next gradient xi', with the flow b = H_{1-eps} xi it
    solved for; ``closed`` says that the caller has already proved xi closed,
    and skips that test."""
    h = structure(eps)
    _check_method(method)
    grad = tuple(grad)
    if len(grad) != 2:
        raise MagriError("gradients here have two components")
    if not closed:
        rep = vc.is_closed(grad)
        if not rep:
            raise NotClosed(f"gradient input is not closed; entry {rep.witness}")
    b = dop.apply(structure(1 - eps), grad)
    if not any(b):
        return (ZERO, ZERO), b
    nxt = (_step_recursion if method == "recursion" else _step_ansatz)(eps, b)
    nxt = _normalize_kernel(eps, nxt)
    if dop.apply(h, nxt) != b:
        raise NoSolution("candidate gradient fails the defining relation")
    return nxt, b


# -- whole hierarchies -------------------------------------------------------


@dataclass
class HierarchyRun:
    """The computed data of one chain: gradients, densities, flows, orders."""

    eps: int
    alpha: int
    steps: int
    method: str
    gradients: list
    densities: list
    flows: list
    orders: list
    flow_orders: list
    checks: dict


def run_hierarchy(eps, alpha, steps, method="recursion", with_densities=True):
    """Iterate the recursion from a seed and package the verified chain.

    Returns gradients xi_0 .. xi_N, densities integral(h_n) with
    variational gradient xi_n, and flows P_n = H_{1-eps} xi_n (each also
    equal to H_eps xi_{n+1}, which lm_step verifies).  ``checks`` holds
    three verdicts: "memberships", that each gradient lies in the
    subspaces of its chain; "densities", that on the eps = 0 chains no
    density holds log v (a density whose gradient is not xi_n never gets
    this far, as :func:`varcalc.integrate_exact` raises); and
    "casimir_pairing", that on the alpha = 1 chains each flow conserves
    the alpha = 0 Casimir, whose gradient :func:`seed` checks to lie in
    the kernel of H_eps.  With densities, each
    gradient is proved closed once, before it is stepped from: xi_0 by
    :func:`seed`, and every later xi_n by the closing check
    variational_derivative(h) == xi_n of :func:`varcalc.integrate_exact`;
    so the steps skip the closedness test of :func:`lm_step`, which every
    step keeps without densities.  Each density, and each "ansatz" step,
    comes from one solve over one candidate space, with no search over
    larger ones.  Raises MagriError for a ``steps``
    that is not a nonnegative int (a bool included), an unknown
    ``method``, or an eps or alpha :func:`seed` refuses.
    """
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise MagriError(f"steps must be an int, got {steps!r}")
    if steps < 0:
        raise MagriError(f"steps must be nonnegative, got {steps}")
    _check_method(method)
    s = seed(eps, alpha)
    gradients = [s.gradient]
    densities = [s.density] if with_densities else []
    flows = []
    checks = {"memberships": True, "densities": True, "casimir_pairing": True}
    for n in range(1, steps + 1):
        nxt, flow = _lm_step(eps, gradients[-1], method, closed=with_densities)
        flows.append(flow)
        gradients.append(nxt)
        ok = all(map(da.subalgebra_member, nxt, _GRADIENT_TAGS[eps]))
        checks["memberships"] = checks["memberships"] and ok
        if with_densities:
            # integrate_exact raises unless dens has the gradient nxt
            dens = vc.integrate_exact(nxt)
            densities.append(dens)
            if eps == 0:  # free of log v
                okd = not da.partial_derivative(dens.rep, (LOG_VAR, 0))
                checks["densities"] = checks["densities"] and okd
    flows.append(dop.apply(structure(1 - eps), gradients[-1]))
    if alpha == 1:
        other = seed(eps, 0).gradient
        checks["casimir_pairing"] = all(da.is_total_derivative(da.dot(other, p)) for p in flows)
    orders = [
        (da.differential_order(g[0]), da.differential_order(g[1])) for g in gradients
    ]
    flow_orders = [da.differential_order(p) for p in flows]
    return HierarchyRun(
        eps,
        alpha,
        steps,
        method,
        gradients,
        densities,
        flows,
        orders,
        flow_orders,
        checks,
    )


@dataclass
class InvolutivityReport:
    """Pairwise bracket and commutator verification across chains."""

    labels: list
    bracket_h0: list
    bracket_h1: list
    flows_commute: list
    all_ok: bool


def involutivity_report(runs, include_flows=True):
    """Check that all densities of the given runs are in involution.

    Every pair of distinct densities is bracketed under both built-in
    structures and every pair of distinct flows is commutated; the report
    carries the full boolean matrices and the conjunction.  A run without
    densities (``with_densities=False``) would give no label, and nothing
    of it would be checked: it raises MagriError, naming the run; so does
    an empty list of runs.

    Antisymmetry decides the rest without computation.  The diagonal is
    True for any input: the bracket of h with itself is the integral of
    xi . H xi with xi = grad h, and for skew H this equals the integral
    of (H* xi) . xi = -(integral of xi . H xi), so it is zero; and
    D_P(P) - D_P(P) = 0.  The entry (j, i) equals (i, j): swapping the
    arguments of the bracket or of the commutator changes only its sign.

    Work shared between pairs is done once per report: the gradient
    grad h of each density, H grad h for each structure H, and the
    adjoint D_P* of the Frechet derivative of each flow P, which goes
    with the flow after its last pair.  A commutator is then one Horner
    chain per component through the higher Euler operators
    (:func:`varcalc.commutator_from_adjoints`): D_Q(P) - D_P(Q) =
    sum_k d^k(E^(k)(Q) P - E^(k)(P) Q), E^(k) read off the adjoints.
    The flows are never differentiated, and since the flows of the
    chains commute, the two halves cancel as the chain runs and its
    partial sums stay small.
    The bracket of h_i and h_j is the integral of grad h_j . H grad h_i.
    Every zero test runs on integral multiples of the gradients and
    flows: the bracket and the commutator are bilinear, so scaling an
    argument by a nonzero rational scales the result and keeps it zero
    or nonzero, and every value then has denominator 1.
    """
    labels = []
    densities = []
    flows = []
    for run in runs:
        if not run.densities:
            raise MagriError(
                f"the ({run.eps}, {run.alpha}) run to depth {run.steps} has no densities to check"
            )
        for n, dens in enumerate(run.densities):
            labels.append((run.eps, run.alpha, n))
            densities.append(dens)
            flows.append(run.flows[n])
    if not densities:
        raise MagriError("an involutivity report needs at least one run")
    m = len(densities)
    grads = [vc.variational_derivative(d) for d in densities]
    grads = [tuple(f * da.denominator(x) for f in x) for x in grads]
    hgrads = [[dop.apply(h, x) for x in grads] for h in (H0, H1)]
    flows = [tuple(f * da.denominator(p) for f in p) if include_flows else None for p in flows]
    stars = [None if p is None else dop.adjoint(vc.frechet(p)) for p in flows]
    # the diagonal stays True, as the docstring shows
    b0 = [[True] * m for _ in range(m)]
    b1 = [[True] * m for _ in range(m)]
    fc = [[True] * m for _ in range(m)]
    ok = True
    for i in range(m):
        for j in range(i + 1, m):
            for mat, hg in zip((b0, b1), hgrads):
                val = da.is_total_derivative(da.dot(grads[j], hg[i]))
                mat[i][j] = mat[j][i] = val
                ok = ok and val
            if flows[i] is not None and flows[j] is not None:
                comm = vc.commutator_from_adjoints(flows[i], stars[i], flows[j], stars[j])
                val = not any(comm)
                fc[i][j] = fc[j][i] = val
                ok = ok and val
        flows[i] = stars[i] = None  # pairs (i, j) with j > i were its last
    return InvolutivityReport(labels, b0, b1, fc, ok)
