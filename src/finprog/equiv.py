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
(``TARGET_ERROR_BITS``), and at most ``MAX_SAMPLE_POINTS``. When the bound
says nothing (it reaches 1, as when D nears p) it takes
``MAX_SAMPLE_POINTS`` points. A pair whose first j trials all die, j the
fewest with ((mu + nu) * (Q + A))**j below 2**-64, is degenerate;
otherwise it has ``20 * MAX_SAMPLE_POINTS`` trials to find its points.

The bound also says nothing about a difference that vanishes mod p as a
function: a program can build a coefficient that is a multiple of p, or an
exponent that is a multiple of p - 1. Such a pair agrees mod M only where
its difference also vanishes mod q, which the same bound with nu for mu
limits, unless the difference vanishes mod q as a function too (a
coefficient that is a multiple of p * q, say). Nothing bounds that case:
q depends only on the seed, so a pair built for a known seed's q can agree
at every point.

Each pair is planned in one pass over its reachable forms, which also
bounds their degrees. The evaluator then takes one trial at a time, in
order, and walks the plan once for it, keeping each value as a numerator
and a denominator residue; a trial stops at its first dead divisor.

Exponentiation is treated as an uninterpreted operation on its operand values:
``exp`` chains are compared by where their bases and exponents agree, not by
power-law rewriting, which is unsound over the reals.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import NamedTuple

from .context import normalize_row_name
from .dsl import (
    Constant,
    NumberLiteral,
    Program,
    StepRef,
    TABLE_OPS,
    constant_value,
)
from .numeric import exact_ratio

# Most points the fallback compares: a bound on its cost, like
# MAX_PROGRAM_STEPS. The degree bound usually asks for fewer.
MAX_SAMPLE_POINTS = 32

# A wrong pair agrees modulo p * q at every point the fallback takes with
# probability below 2**-TARGET_ERROR_BITS, unless ``MAX_SAMPLE_POINTS`` caps
# the points or the module's bound says nothing.
TARGET_ERROR_BITS = 64

# Longest canonical text ``canonical_texts`` writes out; a longer one is elided.
MAX_CANONICAL_CHARS = 10_000


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
        if kind != op:
            collected[form] = collected.get(form, 0) + weight
            continue
        for inner, part in parts:
            collected[part] = collected.get(part, 0) + weight * inner
    parts = tuple([(weight, part) for part, weight in sorted(collected.items()) if weight])
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return _intern((op, parts), table, nodes)


def _build(program: Program, symbols: dict, table: dict, nodes: list) -> int:
    """Intern each step's form, made once from the steps it references; returns the last one's id.

    A step reference is the earlier step's id. Any other argument is a leaf
    over its symbol's id in ``symbols``, which maps each symbol key to an id
    given in order of first use, so both programs of a pair share it. A
    number's key is its exact value's (numerator, denominator) in lowest
    terms and a constant's is its value's, so const_5 and the literal 5
    coincide; a name's is its normalized text.
    """
    ids: list[int] = []
    for step in program.steps:
        leaf = step.op if step.op in TABLE_OPS else "sym"
        operands = []
        for arg in step.args:
            if isinstance(arg, StepRef):
                operands.append(ids[arg.index])
                continue
            if isinstance(arg, NumberLiteral):
                key = ("num", exact_ratio(arg.value))
            elif isinstance(arg, Constant):
                key = ("num", constant_value(arg.name).as_integer_ratio())
            else:
                key = ("name", normalize_row_name(arg.name))
            node = (leaf, symbols.setdefault(key, len(symbols)))
            form = table.setdefault(node, len(nodes))
            if form == len(nodes):
                nodes.append(node)
            operands.append(form)
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


def canonical_texts(p1: Program, p2: Program) -> tuple[str, str]:
    """The canonical text of each program's final form, over the pair's shared symbols.

    Equal texts that are not elided mean equal forms. Both programs are
    interned into one table, and its forms are sized in one pass in id
    order; each form within ``MAX_CANONICAL_CHARS`` is rendered from its
    parts' text, which a form is never shorter than. Chain parts are written
    in order of their text. A longer text is never built: reused steps can
    make it exponentially long, so it reads ``(elided: N characters)``, its
    length counted from its parts' lengths.
    """
    _, nodes, roots = _intern_pair(p1, p2)
    size: list[int] = []
    text: list[str | None] = []
    for op, arg in nodes[: max(roots) + 1]:
        rendered = None
        if op in _LEAVES:
            rendered = f"s{arg}" if op == "sym" else f"{op}[s{arg}]"
            size.append(len(rendered))
        elif op in ("+", "*"):
            # "(+ " and ")", a space between terms, and "w*t" or "t^w" per term
            size.append(4 + max(len(arg) - 1, 0) + sum([len(str(w)) + 1 + size[part] for w, part in arg]))
            if size[-1] <= MAX_CANONICAL_CHARS:
                terms = sorted([(text[part], weight) for weight, part in arg])
                inner = " ".join([f"{w}*{t}" if op == "+" else f"{t}^{w}" for t, w in terms])
                rendered = f"({op} {inner})"
        else:
            # "(", the op, a space before each part, and ")"
            size.append(3 + len(arg) + sum([size[part] for _, part in arg]))
            if size[-1] <= MAX_CANONICAL_CHARS:
                rendered = f"({op} {' '.join([text[part] for _, part in arg])})"
        text.append(rendered if size[-1] <= MAX_CANONICAL_CHARS else None)
    left, right = [text[root] or f"(elided: {size[root]} characters)" for root in roots]
    return left, right


def _hashed_int(seed: int, parts: tuple) -> int:
    """A reproducible pseudo-random nonzero integer in [-2**62, 2**62]."""
    digest = hashlib.blake2b(repr((seed, parts)).encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big") % (2**63) - 2**62
    return value if value != 0 else 1


def _plan(nodes: list, roots: tuple[int, ...], symbols: tuple) -> tuple[list, list[int], list[tuple[int, int]]]:
    """Instructions for ``_evaluate`` of every form reachable from ``roots``, the roots' positions, and degree bounds.

    One pass from the top root down marks the reachable forms, and as
    divisors the parts a reachable product takes with a negative weight.
    Unreachable forms, such as a divisor in a dead step, are left out and
    kill no trial. One pass in id order, so parts come before what uses
    them, then plans each marked form: its parts by position (the position
    is the id when every form up to the top root is reachable), a leaf's
    hash tail, its divisor flag, and a bound on the (numerator, denominator)
    degree of its value as ``_evaluate`` builds it. A leaf is (1, 0). A sum
    cross-multiplies, a product scales each part's pair by its weight's
    absolute value and swaps it on a negative weight. ``"^"`` is a fresh leaf.
    """
    top = max(roots)
    marks = [0] * (top + 1)  # 1 for a reachable form, 3 for a reachable divisor
    for root in roots:
        marks[root] = 1
    for form in range(top, -1, -1):
        if marks[form] and nodes[form][0] not in _LEAVES:
            op, parts = nodes[form]
            for weight, part in parts:
                marks[part] |= 3 if weight < 0 and op == "*" else 1
    position: dict[int, int] | None = None if all(marks) else {}
    plan: list = []
    degrees: list[tuple[int, int]] = []
    for form, mark in enumerate(marks):
        if not mark:
            continue
        if position is not None:
            position[form] = len(plan)
        op, arg = nodes[form]
        n, d = 1, 0
        if op in _LEAVES:
            # Symbol values are keyed by symbol identity rather than id, so
            # points do not depend on the order the pair was symbolized in.
            symbol = symbols[arg]
            # The leaf's value at ``trial`` is ``_hashed_int(seed, (trial, symbol))``,
            # or ``(trial, "agg", op, symbol)`` for an aggregation: the hash of
            # ``repr((seed, (trial, ...)))``. Only the head of that text depends
            # on the point, so the tail is encoded here, once.
            tail = repr(symbol) if op == "sym" else f"'agg', {op!r}, {symbol!r}"
            op, arg = "leaf", f", {tail}))".encode()
        else:
            if position is not None:
                arg = tuple([(weight, position[part]) for weight, part in arg])
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
        plan.append((op, arg, mark == 3))
        degrees.append((n, d))
    return plan, [root if position is None else position[root] for root in roots], degrees


def _points_needed(plan: list, degrees: list, roots: list[int], cap: int) -> tuple[int, int | None]:
    """The points to compare, and how many trials may all die before the pair is degenerate.

    The points are the fewest, at most ``cap``, at which a wrong pair agrees
    with probability below the target: each point's bound is the module's
    ``mu * (D + A) / (1 - (mu + nu) * (Q + A))``, mu = 6 / 2**63 and
    nu = 5 / 2**63, and the target 2**-TARGET_ERROR_BITS. A bound of 1 or
    more says nothing, and ``cap`` points are taken. A divisor that is not
    zero as a function kills a trial with probability at most
    ``(mu + nu) * (Q + A)``, so the trials are the fewest that all die with
    probability below the target, or None when that bound says nothing or
    the count passes the ``20 * cap`` trial budget.
    """
    (left_num, left_den), (right_num, right_den) = [degrees[root] for root in roots]
    dead = sum([degrees[i][0] for i, (_, _, divisor) in enumerate(plan) if divisor])  # Q
    # A: for each "^", its larger operand degree, counted once per other "^"
    powers = [max([sum(degrees[i]) for _, i in arg]) for op, arg, _ in plan if op == "^"]
    accidents = (len(powers) - 1) * sum(powers)
    agree = 6 * (max(left_num + right_den, right_num + left_den) + accidents)
    doomed = (6 + 5) * (dead + accidents)  # a divisor vanishes mod p or mod q
    points = _fewest(agree, 2**63 - doomed, cap)  # agree is 0 for a constant difference: one point decides
    return (cap if points is None else points), _fewest(doomed, 2**63, 20 * cap)


def _fewest(chance: int, whole: int, limit: int) -> int | None:
    """The fewest k, at most ``limit``, with (chance / whole)**k below 2**-TARGET_ERROR_BITS, or None.

    So k events of that chance each all happen with probability below the
    target; a zero chance takes one. The float estimate of k is corrected by
    exact comparisons of ``chance**k * 2**TARGET_ERROR_BITS`` with
    ``whole**k``, and no power past ``limit`` is built.
    """
    if not chance:
        return 1
    if chance >= whole:
        return None
    bits = math.log2(whole) - math.log2(chance)
    k = limit + 1 if bits * (limit + 1) <= TARGET_ERROR_BITS else math.floor(TARGET_ERROR_BITS / bits) + 1
    while k > 1 and chance ** (k - 1) << TARGET_ERROR_BITS < whole ** (k - 1):
        k -= 1
    while k <= limit and chance**k << TARGET_ERROR_BITS >= whole**k:
        k += 1
    return k if k <= limit else None


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


def _evaluate(plan: list, head, modulus: int) -> tuple[list[int], list[int]] | None:
    """Every planned value at one trial as numerator and denominator residues mod ``modulus``, or None.

    ``head`` is the trial's hash state, the blake2b of ``(seed, (trial``,
    which a leaf's tail completes to its ``_hashed_int`` text. No inverse is
    taken for a value: sums cross-multiply, and a product raises each part
    to its weight with ``pow``, the pair swapped for a negative weight.
    ``exp`` stays uninterpreted, hashed as ``_hashed_int(seed, (trial,
    "pow", base, exponent))`` on its operands' residues.

    The trial is dead, and None is returned at once, at the first divisor
    whose numerator is not invertible: it shares a factor with ``modulus``.
    Every divisor a value depends on comes before it in the plan, so a value
    reached in a live trial has an invertible denominator.
    """
    nums: list[int] = []
    dens: list[int] = []
    for op, arg, divisor in plan:
        den = 1
        if op == "+":
            num = 0
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if d == 1:
                    num += weight * n * den
                else:
                    num, den = (num * d + weight * n * den) % modulus, den * d % modulus
            num %= modulus
        elif op == "*":
            num = 1
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if weight < 0:
                    n, d, weight = d, n, -weight
                if weight != 1:
                    n, d = pow(n, weight, modulus), pow(d, weight, modulus)
                num = num * n % modulus
                if d != 1:
                    den = den * d % modulus
        else:  # a leaf, or "^": uninterpreted, keyed by operand values shared across the pair
            if op == "^":
                operands = [nums[i] * pow(dens[i], -1, modulus) % modulus for _, i in arg]
                arg = b", 'pow', %d, %d))" % tuple(operands)
            digest = head.copy()
            digest.update(arg)
            # As in _hashed_int, the 8-byte digest is a big-endian integer.
            num = (int.from_bytes(digest.digest(), "big") % 2**63 - 2**62 or 1) % modulus
        if divisor and math.gcd(num, modulus) != 1:
            return None
        nums.append(num)
        dens.append(den)
    return nums, dens


def _sample(
    plan: list, roots: list[int], seed: int, points: int, deaths: int | None, trials: int, modulus: int
) -> tuple[str, int]:
    """The reason decided by trials 0, 1, 2, ... of ``range(trials)``, and how many points it compared.

    Trials are evaluated one at a time, in order: a dead trial is skipped,
    the first disagreement is a counterexample, and ``points`` agreements
    are an agreement. The pair is degenerate when its first ``deaths``
    trials all die (never when ``deaths`` is None), or when ``trials`` pass
    without ``points`` agreements. Two values agree when ``nL * dR == nR *
    dL`` modulo ``modulus``. The count is of live trials, the disagreeing
    one included.
    """
    left, right = roots
    start = hashlib.blake2b(f"({seed!r}, (".encode(), digest_size=8)
    agreed = 0
    for trial in range(trials):
        if agreed >= points or (trial == deaths and not agreed):
            break
        head = start.copy()
        head.update(b"%d" % trial)
        values = _evaluate(plan, head, modulus)
        if values is None:
            continue
        nums, dens = values
        if (nums[left] * dens[right] - nums[right] * dens[left]) % modulus:
            return "counterexample", agreed + 1
        agreed += 1
    return ("randomized-agreement" if agreed >= points else "degenerate"), agreed


class EquivalenceReport(NamedTuple):
    """The decision, its reason, and how many sample points it compared.

    ``points`` counts the live points read modulo p * q, the disagreeing
    one included. It is 0 when the forms alone decided.
    """

    equivalent: bool
    reason: str
    points: int


def compare_programs(p1: Program, p2: Program, *, seed: int = 0) -> EquivalenceReport:
    """Full equivalence decision with the reason it was based on.

    Reasons: canonical-match, randomized-agreement, counterexample,
    incomparable-types (one program ends in a boolean, the other a number),
    degenerate (no evaluable sample points exist outside the canonical match).

    A pair whose forms differ is degenerate at once when a divisor it
    reaches is the zero form. Otherwise it is compared at random points,
    drawn from at most ``20 * MAX_SAMPLE_POINTS`` trials, and is degenerate
    when its first trials all die, as many as make that chance for a divisor
    that is not zero as a function below 2**-64. Points are evaluated modulo
    p * q, q the seed's second prime, as many as bring the module's
    per-point bound below 2**-64 (``TARGET_ERROR_BITS``) but at most
    ``MAX_SAMPLE_POINTS``. Two comparisons are compared by their operands'
    differences, at the same points and with the same bound.
    """
    symbols, nodes, (left, right) = _intern_pair(p1, p2)
    if (nodes[left][0] == ">") != (nodes[right][0] == ">"):
        return EquivalenceReport(False, "incomparable-types", 0)
    if left == right:
        return EquivalenceReport(True, "canonical-match", 0)
    if nodes[left][0] == ">":
        (_, left), (_, right) = nodes[left][1][0], nodes[right][1][0]

    plan, roots, degrees = _plan(nodes, (left, right), tuple(symbols))
    if ("+", (), True) in plan:  # a divisor that is the empty sum kills every trial
        return EquivalenceReport(False, "degenerate", 0)
    # q catches a difference that vanishes mod p, which p alone would call agreement.
    modulus = _P * _second_prime(seed)
    points, deaths = _points_needed(plan, degrees, roots, MAX_SAMPLE_POINTS)
    reason, points = _sample(plan, roots, seed, points, deaths, 20 * MAX_SAMPLE_POINTS, modulus)
    return EquivalenceReport(reason == "randomized-agreement", reason, points)

