"""Lenard-Magri recursion for the built-in compatible pair.

Starting from a Casimir gradient of H_eps, each step solves

    H_eps xi_{n+1} = H_{1-eps} xi_n

for the next gradient, normalized against the two-dimensional kernel of
H_eps by zeroing the coefficients of the kernel marker monomials.  Two
interchangeable solvers are provided: a back-substitution through the
triangular component identities of the built-in operators (default),
and a linear solve over an explicit weight-homogeneous candidate space.
Conserved densities are reconstructed by exact integration, and every
step re-verifies the defining relation before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import diffalg as da
from . import diffop as dop
from . import linsolve
from . import varcalc as vc
from .diffalg import DiffFunction, LocalFunctional, QQ, ZERO, ONE, LOG_VAR
from .errors import EmptyAnsatz, MagriError, NoSolution, NotClosed

H0, H1 = dop.builtin_pair()

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
    """The (eps, alpha) starting Casimir, verified on construction."""
    if (eps, alpha) not in _SEEDS:
        raise MagriError("eps and alpha must each be 0 or 1")
    grad, dens = _SEEDS[(eps, alpha)]
    if not dop.kernel_verify(structure(eps), grad):
        raise MagriError("seed gradient is not a Casimir of its structure")
    if vc.variational_derivative(dens) != grad:
        raise MagriError("seed density does not produce the seed gradient")
    return HierarchySeed(eps, alpha, grad, LocalFunctional(dens))


def structure(eps):
    """H_eps of the built-in pair; raises MagriError unless eps is 0 or 1."""
    if eps not in (0, 1):
        raise MagriError(f"eps must be 0 or 1, got {eps!r}")
    return H1 if eps else H0


# -- candidate spaces --------------------------------------------------------


@dataclass(frozen=True)
class AnsatzSpace:
    """A finite, deterministic list of candidate monomials."""

    weight: int
    order_bound: int
    membership: da.SubalgebraTag
    include_log: bool = False
    v_floor: int | None = None
    monomials: tuple = field(default=(), compare=False)


def ansatz_space(weight, order_bound, membership, include_log=False, v_floor=None):
    """Enumerate the monomials of one weight inside a tagged subspace.

    Order runs over all jets up to order_bound; the zeroth v power is
    constrained by the tag, bounded below by the tag's own lower bound
    when it has one and by ``v_floor`` otherwise (default: weight//2 -
    order_bound - 2, deep enough for the gradients this package
    produces).  The space records the floor it used.  With
    ``include_log``, log(v) * m joins every m in the space with no power
    of v.  Raises EmptyAnsatz when nothing qualifies.
    """
    v_floor, monos = _candidates(weight, order_bound, membership, include_log, v_floor)
    monos = tuple(map(da.unpack_mono, monos))
    return AnsatzSpace(weight, order_bound, membership, include_log, v_floor, monos)


def _candidates(weight, order_bound, tag, include_log=False, v_floor=None):
    """The floor and the packed monomials of :func:`ansatz_space`."""
    lo, hi, affine = tag.bounds
    if lo is not None:
        v_floor = lo
    elif v_floor is None:
        v_floor = weight // 2 - order_bound - 2
    out = da.monomials(weight, order_bound, v_floor, hi, affine, include_log=include_log)
    if not out:
        raise EmptyAnsatz(
            f"no monomials of weight {weight} under {tag.kind} with order <= {order_bound}"
        )
    return v_floor, out


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
    return None


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


def _h0_row1(f):
    # (d^3 + d.u + u d) f
    return dop.apply_scalar(H0.entries[0][0], f)


def _step_recursion(eps, b):
    u = da.u_jet(0)
    if eps == 0:
        a = da.antiderivative(b[1])
        if a is None:
            raise NoSolution("second component of the step is not a total derivative")
        f = a * da.v_pow(-1)
        rhs = (b[0] - _h0_row1(f)) * da.v_pow(-1)
        g = da.antiderivative(rhs)
        if g is None:
            raise NoSolution("first component of the step is not a total derivative")
        return (f, g)
    a = da.antiderivative(b[0])
    if a is None:
        raise NoSolution("first component of the step is not a total derivative")
    g = a * da.v_pow(2)
    q = dop.builtin_q()
    rhs = b[1] * da.v_pow(2) + dop.apply_scalar(q, a)
    f = da.antiderivative(rhs)
    if f is None:
        raise NoSolution("second component of the step is not a total derivative")
    return (f, g)


def _step_ansatz(eps, b, order_bounds, v_floor, widen_cap):
    h = structure(eps)
    wb = _vec_weight(b)
    if wb is da.INHOMOGENEOUS:
        raise NoSolution("ansatz stepping needs a weight-homogeneous right side")
    wt = wb - 3 if eps == 0 else wb + 3
    b_ord = da.differential_order(b) or 0
    if order_bounds is None:
        order_bounds = (b_ord + 3, b_ord + 3)
    if v_floor is None:
        v_floor = min(da.min_v_exponent(b[0]), da.min_v_exponent(b[1]), 0) - 2
    tags = _GRADIENT_TAGS[eps]
    for _ in range(widen_cap + 1):
        cols = []
        labels = []
        for comp, (tag, bound) in enumerate(zip(tags, order_bounds)):
            try:
                _floor, monos = _candidates(wt, bound, tag, v_floor=v_floor)
            except EmptyAnsatz:
                continue
            for m in monos:
                vec = [ZERO, ZERO]
                vec[comp] = DiffFunction.from_packed(((1, m),))
                col = dop.apply(h, vec)
                if any(col):
                    cols.append(col)
                    labels.append((comp, m))
        xs = linsolve.solve(cols, b)
        if xs is not None:
            comps = [[], []]
            for (comp, m), x in zip(labels, xs):
                comps[comp].append((x, m))
            return tuple(map(DiffFunction.from_packed, comps))
        order_bounds = tuple(x + 2 for x in order_bounds)
        v_floor -= 2
    raise NoSolution("no gradient found in the candidate spaces within the widening cap")


def lm_step(eps, grad, method="recursion", order_bounds=None, v_floor=None, widen_cap=None):
    """One recursion step: the next gradient xi' with H_eps xi' = H_{1-eps} xi.

    The input must be a variational gradient (closed); the output is
    normalized against the kernel of H_eps and verified exactly before
    being returned.  An eps other than 0 or 1, or a negative
    ``widen_cap``, raises MagriError.
    """
    return _lm_step(eps, grad, method, order_bounds, v_floor, widen_cap)[0]


def _lm_step(eps, grad, method, order_bounds, v_floor, widen_cap):
    """:func:`lm_step`'s next gradient xi', with the flow b = H_{1-eps} xi it solved for."""
    h = structure(eps)
    grad = tuple(grad)
    if len(grad) != 2:
        raise MagriError("gradients here have two components")
    widen_cap = vc.resolve_widen_cap(widen_cap)
    rep = vc.is_closed(grad)
    if not rep:
        raise NotClosed(f"gradient input is not closed; entry {rep.witness}")
    b = dop.apply(structure(1 - eps), grad)
    if not any(b):
        return (ZERO, ZERO), b
    if method == "recursion":
        nxt = _step_recursion(eps, b)
    elif method == "ansatz":
        nxt = _step_ansatz(eps, b, order_bounds, v_floor, widen_cap)
    else:
        raise MagriError(f"unknown stepping method {method!r}")
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


def run_hierarchy(eps, alpha, steps, method="recursion", with_densities=True, widen_cap=None):
    """Iterate the recursion from a seed and package the verified chain.

    Returns gradients xi_0 .. xi_N, densities integral(h_n) with
    variational gradient xi_n, and flows P_n = H_{1-eps} xi_n (each also
    equal to H_eps xi_{n+1}, which lm_step verifies).  Runtime checks
    record closedness, subspace memberships, density consistency and
    Casimir conservation for the alpha = 1 chains.  Raises MagriError
    for a negative ``steps`` or ``widen_cap``.
    """
    if steps < 0:
        raise MagriError(f"steps must be nonnegative, got {steps}")
    widen_cap = vc.resolve_widen_cap(widen_cap)
    s = seed(eps, alpha)
    gradients = [s.gradient]
    densities = [s.density] if with_densities else []
    flows = []
    checks = {"memberships": True, "densities": True, "casimir_pairing": True}
    for n in range(1, steps + 1):
        nxt, flow = _lm_step(eps, gradients[-1], method, None, None, widen_cap)
        flows.append(flow)
        gradients.append(nxt)
        ok = all(map(da.subalgebra_member, nxt, _GRADIENT_TAGS[eps]))
        checks["memberships"] = checks["memberships"] and ok
        if with_densities:
            dens = vc.integrate_exact(nxt, widen_cap=widen_cap)
            densities.append(dens)
            # integrate_exact checked this gradient and kept it in dens
            okd = dens.variational_gradient() == nxt
            if eps == 0:  # free of log v
                okd = okd and not da.partial_derivative(dens.rep, (LOG_VAR, 0))
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
    carries the full boolean matrices and the conjunction.

    Antisymmetry decides the rest without computation.  The diagonal is
    True for any input: the bracket of h with itself is the integral of
    xi . H xi with xi = grad h, and for skew H this equals the integral
    of (H* xi) . xi = -(integral of xi . H xi), so it is zero; and
    D_P(P) - D_P(P) = 0.  The entry (j, i) equals (i, j): swapping the
    arguments of the bracket or of the commutator changes only its sign.

    Work shared between pairs is done once per report: the gradient
    grad h of each density and H grad h for each structure H.  The
    derivatives that commutators read are kept on the flow components
    themselves (see :func:`diffalg.total_derivative`), so each is
    computed once across the flow's pairs.
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
        for n, dens in enumerate(run.densities):
            labels.append((run.eps, run.alpha, n))
            densities.append(dens)
            flows.append(run.flows[n] if n < len(run.flows) else None)
    m = len(densities)
    grads = [vc.variational_derivative(d) for d in densities]
    grads = [tuple(f * da.denominator(x) for f in x) for x in grads]
    hgrads = [[dop.apply(h, x) for x in grads] for h in (H0, H1)]
    flows = [
        tuple(f * da.denominator(p) for f in p) if include_flows and p is not None else None
        for p in flows
    ]
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
                comm = vc.evolutionary_commutator(flows[i], flows[j])
                val = not any(comm)
                fc[i][j] = fc[j][i] = val
                ok = ok and val
        flows[i] = None  # pairs (i, j) with j > i were its last
    return InvolutivityReport(labels, b0, b1, fc, ok)
