"""Reference values computed without the package under test.

Groups are handled as plain permutation tuples, circuits and data
gates are evaluated directly from their gate lists.  The checks that
compare job outputs against these values run after the timed pass.
"""

import itertools
from math import factorial


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(gens, degree):
    """All elements of the permutation group generated by gens."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


class PermGroup:
    def __init__(self, gens):
        self.degree = len(gens[0])
        self.identity = tuple(range(self.degree))
        self.elements = sorted(closure(gens, self.degree))
        self.order = len(self.elements)

    def word_value(self, letters, images):
        acc = self.identity
        for t in letters:
            x = images[abs(t) - 1]
            acc = compose(acc, x if t > 0 else inverse(x))
        return acc

    def homs_and_surjections(self, relators):
        """(#Hom, #Epi) from a two-generator presentation into the group."""
        homs = surj = 0
        for x in self.elements:
            for y in self.elements:
                if all(self.word_value(r, (x, y)) == self.identity
                       for r in relators):
                    homs += 1
                    if len(closure([x, y], self.degree)) == self.order:
                        surj += 1
        return homs, surj

    def roots_of_unity(self, k):
        """#{x : x^k = e}, the hom count of the lens space L(k, 1)."""
        count = 0
        for x in self.elements:
            acc = self.identity
            for _ in range(k):
                acc = compose(acc, x)
            count += acc == self.identity
        return count


def boolean_count(n_inputs, gates, output):
    """Satisfying assignments of an AND/OR/NOT/COPY circuit."""
    total = 0
    for bits in itertools.product((0, 1), repeat=n_inputs):
        val = list(bits)
        for op, ins, outs in gates:
            if op == "AND":
                val.append(val[ins[0]] & val[ins[1]])
            elif op == "OR":
                val.append(val[ins[0]] | val[ins[1]])
            elif op == "NOT":
                val.append(1 - val[ins[0]])
            else:
                val.extend((val[ins[0]], val[ins[0]]))
        total += val[output]
    return total


def data_rsat_count(nd, width, gates, init, final):
    """Words over init that adjacent binary gates carry into final^width."""
    fin = set(final)
    total = 0
    for word in itertools.product(init, repeat=width):
        w = list(word)
        for pos, perm in gates:
            img = perm[w[pos] * nd + w[pos + 1]]
            w[pos], w[pos + 1] = divmod(img, nd)
        total += all(x in fin for x in w)
    return total


def rubik_order(n_orbits, gamma_order, gamma_ab_order):
    """|Rub(n, G)| = |G|^n / |G_ab| * n!/2."""
    return gamma_order ** n_orbits // gamma_ab_order * (factorial(n_orbits) // 2)
