"""Program accuracy: are two programs mathematically equivalent?

Each step of both programs is interned, once, into one table of normalized
forms that the pair shares (hash-consing), its arguments read as symbols the
pair also shares (equal numbers, constants of equal value, and identical
names collapse to one symbol). Sums and products are flattened and like
parts collected, and a form is its operation over its parts' ids, so the
programs match canonically when their final forms share an id.

Pairs whose ids differ get a randomized fallback, so identities that
normalization does not rewrite (for example distributivity) are still
recognized. The table's forms reachable from both sides are evaluated once,
children first, at independent random integer points, modulo M = p * q with
plain integers: p = 2**61 - 1, and q a 62-bit prime that the seed picks
(``_second_prime``). A pair with a reachable divisor that is the zero form
(the empty sum, as ``subtract(x, x)`` interns) has no point at which both
sides are defined, so it is degenerate without sampling.

A comparison ``greater(L, R)`` is interned as a ``">"`` form over the
difference L - R, so two comparisons are equivalent exactly when their
differences are the same rational function: equal difference forms are a
canonical match, and otherwise the two differences are sampled as a pair
that ends in a number is. No sign is ever computed, so comparisons whose
signs agree on some region but whose differences differ are not equivalent.

Both sides are rational functions of the symbols, and modulo M a point can
only wrongly say "agree", never "differ". Agreement mod M implies agreement
mod p, and by the Schwartz-Zippel / DeMillo-Lipton lemma a point agrees mod
p by chance with probability at most D * mu, where D bounds the degree of
the difference's numerator and mu the chance that a sample value takes any
one residue. A sample value is a hash spread evenly over the 2**63 integers
from -2**62 to 2**62 - 1, with 0 moved to 1, reduced mod M. At most 6 of
those integers share a residue mod p, so mu = 6 / 2**63, under 1.5 / p; at
most 5 share one mod q > 2**61, so nu = 5 / 2**63.

Each planned form gets a (numerator, denominator) degree bound: a leaf is
(1, 0), a sum cross-multiplies, and a product scales by the absolute weight
and swaps the pair on a negative one. An uninterpreted ``^`` is a fresh
leaf, unless the operands of two of them agree by accident. For ``^`` forms
i and j that has probability at most mu * (s_i + s_j), s the larger of a
form's two operand degrees (numerator plus denominator); A sums this over
all pairs. A trial is dead when a divisor's numerator vanishes mod p or mod
q, with probability at most (mu + nu) * (Q + A), Q the sum of those
numerators' degrees; a live trial keeps every denominator, and so every
``^`` operand, invertible mod M. Treating the hash as a random function, a
wrong pair then agrees at each live point with probability at most

    bound = mu * (D + A) / (1 - (mu + nu) * (Q + A)).

The fallback takes the fewest points k with bound**k below 2**-64
(``TARGET_ERROR_BITS``), and at most ``samples``. When the bound says
nothing (it reaches 1, as when D nears p) it takes ``samples`` points.

The bound also says nothing about a difference that vanishes mod p as a
function: a program can build a coefficient that is a multiple of p, or an
exponent that is a multiple of p - 1. Such a pair agrees mod M only where
its difference also vanishes mod q, which the same bound with nu for mu
limits, unless the difference vanishes mod q as a function too (a
coefficient that is a multiple of p * q, say). Nothing bounds that case:
q depends only on the seed, so a pair built for a known seed's q can agree
at every point.

The evaluator keeps each value as a numerator and a denominator residue.
It walks the subforms once per batch of points, holding one list of
values per subform. The first batch holds every point the bound asks for,
so an agreement usually costs one pass. Points lost to a zero divisor are
replaced in further passes.

Exponentiation is treated as an uninterpreted operation on its operand values:
``exp`` chains are compared by where their bases and exponents agree, not by
power-law rewriting, which is unsound over the reals.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass

from .context import normalize_row_name
from .dsl import (
    Constant,
    NumberLiteral,
    Program,
    StepRef,
    TABLE_OPS,
    constant_value,
)

DEFAULT_SAMPLE_POINTS = 32

# A wrong pair agrees modulo p * q at every point the fallback takes with
# probability below 2**-TARGET_ERROR_BITS, unless ``samples`` caps the points
# or the module's bound says nothing.
TARGET_ERROR_BITS = 64

# Longest canonical text ``canonical_texts`` writes out; a longer one is elided.
MAX_CANONICAL_CHARS = 10_000


def _symbol_key(arg) -> tuple:
    """The identity under which arguments share a symbol.

    Numbers by their exact value's (numerator, denominator) in lowest
    terms; constants by their value's, so const_5 and the literal 5
    coincide; names by their normalized text.
    """
    if isinstance(arg, NumberLiteral):
        return ("num", arg.value.as_integer_ratio())
    if isinstance(arg, Constant):
        return ("num", constant_value(arg.name).as_integer_ratio())
    return ("name", normalize_row_name(arg.name))


_CHAIN_STEPS = {"add": ("+", 1), "subtract": ("+", -1), "multiply": ("*", 1), "divide": ("*", -1)}
_LEAVES = ("sym", *TABLE_OPS)


def _intern(node: tuple, table: dict, nodes: list) -> int:
    """The id of ``node`` in one comparison's table of forms; new nodes are appended.

    A leaf (a symbol or a row's table aggregation) is ``(op, symbol_id)``; any
    other node is ``(op, parts)`` of ``(weight, id)`` parts interned before it:
    a sum's coefficients or a product's exponents by id, the operands of
    ``"^"``, or the one difference of ``">"``.
    """
    form = table.setdefault(node, len(nodes))
    if form == len(nodes):
        nodes.append(node)
    return form


def _chain(op: str, terms, table: dict, nodes: list) -> int:
    """The id of the normalized sum (``"+"``) or product (``"*"``) of ``(weight, id)`` terms.

    Children of the same kind are flattened with their weights multiplied,
    and like forms collect their weights. Zero weights drop out, so a/a is
    one as a rational function, and a lone part of weight 1 stands for itself.
    """
    collected: dict[int, int] = {}
    for weight, form in terms:
        kind, parts = nodes[form]
        for inner, part in parts if kind == op else ((1, form),):
            collected[part] = collected.get(part, 0) + weight * inner
    parts = tuple([(weight, part) for part, weight in sorted(collected.items()) if weight])
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return _intern((op, parts), table, nodes)


def _build(program: Program, symbols: dict, table: dict, nodes: list) -> int:
    """Intern each step's form, made once from the steps it references; returns the last one's id.

    A step reference is the earlier step's id. Any other argument is a leaf
    over its symbol's id in ``symbols``, which maps each ``_symbol_key`` to
    an id given in order of first use, so both programs of a pair share it.
    """
    ids: list[int] = []
    for step in program.steps:
        leaf = step.op if step.op in TABLE_OPS else "sym"
        operands = [
            ids[arg.index]
            if isinstance(arg, StepRef)
            else _intern((leaf, symbols.setdefault(_symbol_key(arg), len(symbols))), table, nodes)
            for arg in step.args
        ]
        if step.op in _CHAIN_STEPS:
            op, sign = _CHAIN_STEPS[step.op]
            ids.append(_chain(op, ((1, operands[0]), (sign, operands[1])), table, nodes))
        elif step.op in TABLE_OPS:
            ids.append(operands[0])  # the aggregation leaf of its row name
        elif step.op == "exp":
            ids.append(_intern(("^", ((1, operands[0]), (1, operands[1]))), table, nodes))
        else:  # greater: the sign of its operands' difference
            difference = _chain("+", ((1, operands[0]), (-1, operands[1])), table, nodes)
            ids.append(_intern((">", ((1, difference),)), table, nodes))
    return ids[-1]


def _intern_pair(p1: Program, p2: Program) -> tuple[dict, list, tuple[int, int]]:
    """Both programs interned into one table over one symbol dict: the symbols, the forms and both roots."""
    symbols: dict = {}
    table: dict = {}
    nodes: list = []
    return symbols, nodes, (_build(p1, symbols, table, nodes), _build(p2, symbols, table, nodes))


def _reachable(nodes: list, roots) -> list[int]:
    """The ids reachable from ``roots``, in increasing order, found in one pass from the top down."""
    marked = set(roots)
    for form in range(max(roots, default=-1), -1, -1):
        if form in marked and nodes[form][0] not in _LEAVES:
            marked.update([part for _, part in nodes[form][1]])
    return sorted(marked)


def canonical_texts(p1: Program, p2: Program) -> tuple[str, str]:
    """The canonical text of each program's final form, over the pair's shared symbols.

    Equal texts that are not elided mean equal forms. Both programs are
    interned into one table, and each form either reaches is rendered once,
    in id order, from its parts' text; chain parts are written in order of
    their text. A text longer than ``MAX_CANONICAL_CHARS`` is never built:
    reused steps can make it exponentially long, so it reads ``(elided: N
    characters)``, its length counted from its parts' lengths.
    """
    _, nodes, roots = _intern_pair(p1, p2)
    size: dict[int, int] = {}
    text: dict[int, str] = {}
    for form in _reachable(nodes, roots):
        op, arg = nodes[form]
        if op in _LEAVES:
            text[form] = f"s{arg}" if op == "sym" else f"{op}[s{arg}]"
            size[form] = len(text[form])
        elif op in ("+", "*"):
            # "(+ " and ")", a space between terms, and "w*t" or "t^w" per term
            size[form] = 4 + max(len(arg) - 1, 0) + sum([len(str(w)) + 1 + size[part] for w, part in arg])
        else:
            # "(", the op, a space before each part, and ")"
            size[form] = 3 + len(arg) + sum([size[part] for _, part in arg])
    kept = [root for root in roots if size[root] <= MAX_CANONICAL_CHARS]
    for form in _reachable(nodes, kept):
        op, arg = nodes[form]
        if op in ("+", "*"):
            terms = sorted([(text[part], weight) for weight, part in arg])
            inner = " ".join([f"{w}*{t}" if op == "+" else f"{t}^{w}" for t, w in terms])
            text[form] = f"({op} {inner})"
        elif op not in _LEAVES:
            text[form] = f"({op} {' '.join([text[part] for _, part in arg])})"
    left, right = [text[root] if root in kept else f"(elided: {size[root]} characters)" for root in roots]
    return left, right


def _hashed_int(seed: int, parts: tuple) -> int:
    """A reproducible pseudo-random nonzero integer in [-2**62, 2**62]."""
    digest = hashlib.blake2b(repr((seed, parts)).encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big") % (2**63) - 2**62
    return value if value != 0 else 1


def _plan(nodes: list, roots: tuple[int, ...], symbols: tuple) -> tuple[list, list[int]]:
    """Instructions for ``_evaluate`` of every form reachable from ``roots``, and the roots' positions.

    Divisors and what they need come first, so a pass stops at a divisor
    that kills every trial before the rest is evaluated. Unreachable forms,
    such as a divisor in a dead step, are left out and kill no trial.
    """
    order = _reachable(nodes, roots)
    divisors = {part for form in order if nodes[form][0] == "*" for weight, part in nodes[form][1] if weight < 0}
    if divisors:
        first = _reachable(nodes, divisors)
        order = first + sorted(set(order).difference(first))
    position = {form: i for i, form in enumerate(order)}
    plan = []
    for form in order:
        op, arg = nodes[form]
        if op in _LEAVES:
            # Symbol values are keyed by symbol identity rather than id, so
            # points do not depend on the order the pair was symbolized in.
            symbol = symbols[arg]
            key = (symbol,) if op == "sym" else ("agg", op, symbol)
            # The leaf's value at ``trial`` is ``_hashed_int(seed, (trial, *key))``,
            # the hash of ``repr((seed, (trial, *key)))``. Only the head of that
            # text depends on the point, so the tail is encoded here, once.
            op, arg = "leaf", f", {', '.join(map(repr, key))}))".encode()
        else:
            arg = tuple([(weight, position[part]) for weight, part in arg])
        plan.append((op, arg, form in divisors))
    return plan, [position[root] for root in roots]


def _degrees(plan: list) -> list[tuple[int, int]]:
    """A bound on the (numerator, denominator) degree of each planned value, as ``_evaluate`` builds it.

    A leaf is (1, 0). A sum cross-multiplies, a product scales each part's
    pair by its weight's absolute value and swaps it on a negative weight.
    ``"^"`` is a fresh leaf.
    """
    degrees: list[tuple[int, int]] = []
    for op, arg, _ in plan:
        n, d = 1, 0
        if op == "+":
            n, d = degrees[arg[0][1]] if arg else (0, 0)
            for _, i in arg[1:]:
                m, e = degrees[i]
                n, d = max(n + e, m + d), d + e
        elif op == "*":
            n = d = 0
            for weight, i in arg:
                m, e = degrees[i]
                if weight < 0:
                    m, e, weight = e, m, -weight
                n, d = n + weight * m, d + weight * e
        degrees.append((n, d))
    return degrees


def _points_needed(plan: list, roots: list[int], cap: int) -> int:
    """The fewest points, at most ``cap``, at which a wrong pair agrees with probability below the target.

    Each point's bound is the module's ``mu * (D + A) / (1 - (mu + nu) * (Q + A))``,
    mu = 6 / 2**63 and nu = 5 / 2**63, and the target 2**-TARGET_ERROR_BITS.
    A bound of 1 or more says nothing, and ``cap`` points are taken.
    """
    degrees = _degrees(plan)
    (left_num, left_den), (right_num, right_den) = [degrees[root] for root in roots]
    dead = sum([degrees[i][0] for i, (_, _, divisor) in enumerate(plan) if divisor])  # Q
    # A: for each "^", its larger operand degree, counted once per other "^"
    powers = [max([sum(degrees[i]) for _, i in arg]) for op, arg, _ in plan if op == "^"]
    accidents = (len(powers) - 1) * sum(powers)
    agree = 6 * (max(left_num + right_den, right_num + left_den) + accidents)
    live = 2**63 - (6 + 5) * (dead + accidents)  # a divisor vanishes mod p or mod q
    if not agree:
        return 1  # the difference is a constant: one point shows whether it vanishes mod M
    if agree >= live:
        return cap
    bits = math.log2(live) - math.log2(agree)
    return min(cap, math.floor(TARGET_ERROR_BITS / bits) + 1)


_P = 2**61 - 1  # a Mersenne prime; the modulus is _P * _second_prime(seed)

# Miller-Rabin with these bases decides every n below 2**64 exactly
# (Jaeschke, Math. Comp. 1993).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Whether ``n``, below 2**64, is prime: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for witness in _WITNESSES:
        x = pow(witness, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _second_prime(seed: int) -> int:
    """The seed's 62-bit prime q: the first prime from a hash of the seed in [2**61, 2**61 + 2**60).

    Searched once per seed, when a comparison first needs it; q > 2**61 > p.
    """
    candidate = (2**61 + _hashed_int(seed, ("second prime",)) % 2**60) | 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


def _times(xs: list[int], ys: list[int], modulus: int) -> list[int]:
    """Entrywise products of two value lists, reduced mod ``modulus``."""
    return [x * y % modulus for x, y in zip(xs, ys)]


def _evaluate(plan: list, seed: int, batch: range, modulus: int) -> tuple[list, list, list[bool]]:
    """Every planned value at every trial of ``batch``, in one pass over ``plan``, as residues mod ``modulus``.

    Each node keeps one list of numerators and one of denominators, an entry
    per trial; a denominator list of None means all ones. No inverse is
    taken: sums cross-multiply, and a product raises each part to its
    weight with ``pow``, the pair swapped for a negative weight. Leaves take
    their sample values (``_hashed_int``) reduced mod ``modulus``. ``exp``
    stays uninterpreted, hashed on its operands' residues (the only inverse,
    taken for live trials alone).

    Returns the numerators, denominators and the live flag of each trial. A
    trial dies when a divisor's numerator is not invertible: it shares a
    factor with ``modulus``. Once every trial is dead the pass stops, and
    the value lists stop short.
    """
    start = hashlib.blake2b(f"({seed!r}, (".encode(), digest_size=8)
    heads = []
    for trial in batch:
        heads.append(start.copy())
        heads[-1].update(b"%d" % trial)
    count = len(heads)
    digest_ints = f">{count}Q"
    live = [True] * count
    nums: list[list[int]] = []
    dens: list[list[int] | None] = []

    def operand(i: int, t: int) -> int:
        """Node ``i``'s residue at trial ``t``."""
        num, den = nums[i][t], dens[i][t] if dens[i] else 1
        return num if den == 1 else num * pow(den, -1, modulus) % modulus

    for op, arg, divisor in plan:
        den = None
        if op == "leaf":
            digests = []
            for head in heads:
                digest = head.copy()  # the head is hashed once per batch
                digest.update(arg)
                digests.append(digest.digest())
            # As in _hashed_int, each 8-byte digest is a big-endian integer.
            values = struct.unpack(digest_ints, b"".join(digests))
            num = [(value % 2**63 - 2**62 or 1) % modulus for value in values]
        elif op == "+":
            num = None
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if weight != 1:
                    n = [weight * x for x in n]
                if num is None:
                    num, den = n, d
                    continue
                if d:
                    num = _times(num, d, modulus)
                if den:
                    n = _times(n, den, modulus)
                num = [a + x for a, x in zip(num, n)]
                if d:
                    den = d if den is None else _times(den, d, modulus)
            num = [0] * count if num is None else [value % modulus for value in num]
        elif op == "*":
            num = None
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if weight < 0:
                    n, d, weight = d, n, -weight
                if weight != 1:
                    n = n and [pow(x, weight, modulus) for x in n]
                    d = d and [pow(y, weight, modulus) for y in d]
                if n:
                    num = n if num is None else _times(num, n, modulus)
                if d:
                    den = d if den is None else _times(den, d, modulus)
            if num is None:
                num = [1] * count
        else:  # "^", uninterpreted: keyed by operand values, shared across the pair
            (_, base), (_, exponent) = arg
            num = [
                _hashed_int(seed, (trial, "pow", operand(base, t), operand(exponent, t))) % modulus if alive else 0
                for t, (trial, alive) in enumerate(zip(batch, live))
            ]
        if divisor:
            live = [alive and math.gcd(x, modulus) == 1 for alive, x in zip(live, num)]
            if not any(live):
                return nums, dens, live
        nums.append(num)
        dens.append(den)
    return nums, dens, live


def _sample(plan: list, roots: list[int], seed: int, points: int, trials: int, modulus: int) -> tuple[str, int]:
    """The reason decided by the first ``points`` live trials of ``range(trials)``, and how many it compared.

    Each batch holds one trial per point still to agree, so an agreement
    with no dead trial is one pass. Results are read in trial order: dead
    trials are skipped, the first disagreement is a counterexample, and
    after ``trials`` trials without ``points`` agreeing ones the comparison
    is degenerate. Two values agree when ``nL * dR == nR * dL`` modulo
    ``modulus``. The count is of live trials, the disagreeing one included.
    """
    left, right = roots
    agreed, start = 0, 0
    while agreed < points and start < trials:
        batch = range(start, min(start + points - agreed, trials))
        nums, dens, live = _evaluate(plan, seed, batch, modulus)
        for t, alive in enumerate(live):
            if not alive:
                continue
            left_den = dens[left][t] if dens[left] else 1
            right_den = dens[right][t] if dens[right] else 1
            if (nums[left][t] * right_den - nums[right][t] * left_den) % modulus:
                return "counterexample", agreed + 1
            agreed += 1
        start = batch.stop
    return ("randomized-agreement" if agreed >= points else "degenerate"), agreed


@dataclass(frozen=True)
class EquivalenceReport:
    """The decision, its reason, and how many sample points it compared.

    ``points`` counts the live points read modulo p * q, the disagreeing
    one included. It is 0 when the forms alone decided.
    """

    equivalent: bool
    reason: str
    points: int


def compare_programs(
    p1: Program,
    p2: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> EquivalenceReport:
    """Full equivalence decision with the reason it was based on.

    Reasons: canonical-match, randomized-agreement, counterexample,
    incomparable-types (one program ends in a boolean, the other a number),
    degenerate (no evaluable sample points exist outside the canonical match).

    A pair whose forms differ is degenerate at once when a divisor it
    reaches is the zero form. Otherwise it is compared at random points,
    drawn from at most ``20 * samples`` trials; ``samples`` below 1 raises
    ValueError, since no point would then be checked. Points are evaluated
    modulo p * q, q the seed's second prime, as many as bring the module's
    per-point bound below 2**-64 (``TARGET_ERROR_BITS``) but at most
    ``samples``. Two comparisons are compared by their operands'
    differences, at the same points and with the same bound.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    symbols, nodes, (left, right) = _intern_pair(p1, p2)
    if (nodes[left][0] == ">") != (nodes[right][0] == ">"):
        return EquivalenceReport(False, "incomparable-types", 0)
    if left == right:
        return EquivalenceReport(True, "canonical-match", 0)
    if nodes[left][0] == ">":
        (_, left), (_, right) = nodes[left][1][0], nodes[right][1][0]

    plan, roots = _plan(nodes, (left, right), tuple(symbols))
    if ("+", (), True) in plan:  # a divisor that is the empty sum kills every trial
        return EquivalenceReport(False, "degenerate", 0)
    # q catches a difference that vanishes mod p, which p alone would call agreement.
    modulus = _P * _second_prime(seed)
    reason, points = _sample(plan, roots, seed, _points_needed(plan, roots, samples), samples * 20, modulus)
    return EquivalenceReport(reason == "randomized-agreement", reason, points)

