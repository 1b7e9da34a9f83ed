"""Seeded one-shot queries for the ``calculus`` workload.

Every random function is kept twice: as text in the magri grammar (what
the program receives) and as a list of terms ``(num, den, factors)``
with ``factors`` a list of ``(name, order, exp)``, from which the checks
build an independent sympy expression.  Functions cover the Laurent and
log parts of the ring: a term gets a negative power of v with
probability 0.4 and a power of log v with probability 0.25.
"""

from __future__ import annotations

import random

# Inputs to the single-pass kinds (varder, reduce, frechet, fmt).
MEDIUM = dict(terms=3, max_order=3, max_exp=3, factors=3)
# Exact gradients for the integrate_exact round trips.
INTEGRATE = dict(terms=2, max_order=2, max_exp=2, factors=3)

# (kind, share of the queries); each kind gets its share exactly, so two
# seeds differ in the functions drawn and in the order, not in the mix.
KINDS = (
    ("varder", 2),
    ("varder_json", 2),
    ("varder_latex", 1),
    ("frechet", 1),
    ("frechet_json", 1),
    ("reduce", 1),
    ("reduce_exact", 1),
    ("fmt_json", 1),
    ("fmt_latex", 1),
    ("bracket_h0", 1),
    ("bracket_h1", 1),
    ("flow_h0", 1),
    ("flow_h1", 1),
    ("integrate", 2),
)
WEIGHT = sum(w for _, w in KINDS)


def rand_terms(rng, terms, max_order, max_exp, factors):
    out = []
    for _ in range(rng.randint(1, terms)):
        num = rng.randint(-9, 9) or 1
        den = rng.randint(1, 4)
        mono = []
        for _ in range(rng.randint(0, factors)):
            mono.append(
                (rng.choice("uv"), rng.randint(0, max_order), rng.randint(1, max_exp))
            )
        if rng.random() < 0.4:
            mono.append(("v", 0, -rng.randint(1, 4)))
        if rng.random() < 0.25:
            mono.append(("log", 0, rng.randint(1, 2)))
        if not mono:
            mono.append(("u", 0, 1))
        out.append((num, den, mono))
    return out


class Deck:
    """Shapes of one-term bracket and flow densities, dealt from a shuffled deck.

    A shape is a jet factor (or none), whether a negative power of v
    joins it (2 in 5) and whether a power of log v does (1 in 4).  Dealing
    from a full deck gives every seed nearly the same mix of shapes, so
    that the slow tail of the bracket queries, and with it the latency
    p99, does not swing from seed to seed; the seed orders the deck and
    draws the coefficients and the powers.  Jet order and exponent stay
    <= 2: at order 3 and exponent 3 a single bracket under h1 took up to
    40 s, and with two jet factors single brackets took up to 2.5 s.
    """

    JETS = [None] * 12 + [(x, n, e) for x in "uv" for n in range(3) for e in (1, 2)]
    VNEG = (False, False, False, True, True)
    LOGS = (False, False, False, True)

    def __init__(self, rng):
        self.rng = rng
        self.cards = []

    def deal(self):
        rng = self.rng
        if not self.cards:
            self.cards = [(j, k, g) for j in self.JETS for k in self.VNEG for g in self.LOGS]
            rng.shuffle(self.cards)
        jet, vneg, log = self.cards.pop()
        mono = [jet] if jet else []
        if vneg:
            mono.append(("v", 0, -rng.randint(1, 4)))
        if log:
            mono.append(("log", 0, rng.randint(1, 2)))
        if not mono:
            mono.append(("u", 0, 1))
        return [(rng.randint(-9, 9) or 1, rng.randint(1, 4), mono)]


def _factor_text(name, order, exp):
    if name == "log":
        base = "log(v)"
    elif order == 0:
        base = name
    elif order <= 2:
        base = "(" + name + "'" * order + ")"
    else:
        base = f"({name}^({order}))"
    return base if exp == 1 else f"{base}^{exp}"


def terms_text(terms):
    parts = []
    for num, den, factors in terms:
        sign = "-" if num < 0 else "+"
        coeff = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = "*".join(_factor_text(*f) for f in factors)
        parts.append((sign, f"{coeff}*{body}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, frag in parts[1:]:
        text += f" {sign} {frag}"
    return text


def _pos(flag, text):
    # Text may start with '-', which argparse would read as an option.
    return [flag, "--", text] if flag else ["--", text]


def make_queries(seed, count):
    """``count`` queries as dicts with keys kind, argv (or None) and data."""
    rng = random.Random(seed)
    kinds = []
    for kind, w in KINDS:
        kinds += [kind] * (count * w // WEIGHT)
    while len(kinds) < count:
        kinds.append(KINDS[len(kinds) % len(KINDS)][0])
    rng.shuffle(kinds)
    decks = {kind: Deck(rng) for kind, _w in KINDS if kind.startswith(("bracket", "flow"))}
    out = []
    for kind in kinds:
        if kind in decks:
            f = decks[kind].deal()
        else:
            f = rand_terms(rng, **(INTEGRATE if kind == "integrate" else MEDIUM))
        text = terms_text(f)
        q = {"kind": kind, "f": f, "text": text}
        if kind.startswith("varder"):
            flag = {"varder": None, "varder_json": "--json", "varder_latex": "--latex"}[kind]
            q["argv"] = ["varder"] + _pos(flag, text)
        elif kind.startswith("frechet"):
            g = rand_terms(rng, **MEDIUM)
            q["g"] = g
            q["argv"] = ["frechet", f"--vec={text}; {terms_text(g)}"]
            if kind == "frechet_json":
                q["argv"].append("--json")
        elif kind == "reduce":
            q["argv"] = ["reduce"] + _pos("--json", text)
        elif kind == "reduce_exact":
            q["argv"] = ["reduce"] + _pos("--json", f"D({text})")
        elif kind.startswith("fmt"):
            q["argv"] = ["fmt"] + _pos("--json" if kind == "fmt_json" else "--latex", text)
        elif kind.startswith("bracket"):
            g = decks[kind].deal()
            q["g"] = g
            q["argv"] = ["bracket", f"--f={text}", f"--g={terms_text(g)}", "--builtin", kind[-2:], "--json"]
        elif kind.startswith("flow"):
            q["argv"] = ["flow", f"--density={text}", "--builtin", kind[-2:], "--json"]
        else:  # integrate: an API round trip, no command line
            q["argv"] = None
        out.append(q)
    return out
