#!/usr/bin/env python3
"""Generate the bundled data files under src/homcount/data/.

The SL(2,5) cover is built as a permutation group on the 24 nonzero vectors
of F_5^2; the projection to A5 is found by composing the central quotient
with a computed isomorphism onto the package's canonical A5.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homcount import perms
from homcount.groups import (FiniteGroup, load_group, load_stem_extension,
                             quotient_by_normal, find_isomorphism,
                             write_group_file)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "homcount", "data")


def nonzero_vectors():
    vecs = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    return vecs, {v: i for i, v in enumerate(vecs)}


def matrix_perm(m):
    vecs, idx = nonzero_vectors()
    (a, b), (c, d) = m
    out = [0] * len(vecs)
    for i, (x, y) in enumerate(vecs):
        out[i] = idx[((a * x + b * y) % 5, (c * x + d * y) % 5)]
    return tuple(out)


def main():
    os.makedirs(DATA, exist_ok=True)

    a5_gens = [perms.parse_cycles("(0 1 2)", 5),
               perms.parse_cycles("(0 1 2 3 4)", 5)]
    a5 = FiniteGroup.from_perm_gens("A5", a5_gens, degree=5)
    write_group_file(os.path.join(DATA, "a5.grp"), a5, perm_gens=a5_gens)

    s3_gens = [perms.parse_cycles("(0 1)", 3), perms.parse_cycles("(0 1 2)", 3)]
    s3 = FiniteGroup.from_perm_gens("S3", s3_gens, degree=3)
    write_group_file(os.path.join(DATA, "s3.grp"), s3, perm_gens=s3_gens)

    write_group_file(os.path.join(DATA, "z2.grp"), FiniteGroup.cyclic(2))
    write_group_file(os.path.join(DATA, "z3.grp"), FiniteGroup.cyclic(3))

    sl_gens = [matrix_perm(((1, 1), (0, 1))), matrix_perm(((0, 4), (1, 0)))]
    sl25 = FiniteGroup.from_perm_gens("SL25", sl_gens, degree=24)
    assert sl25.order == 120, sl25.order
    write_group_file(os.path.join(DATA, "sl25.grp"), sl25, perm_gens=sl_gens)

    minus_id = matrix_perm(((4, 0), (0, 4)))
    neg = sl25._perm_elems.index(minus_id)
    center = [0, neg]
    psl, proj_psl = quotient_by_normal(sl25, center, name="PSL25")
    assert psl.order == 60
    iso = find_isomorphism(psl, a5)
    assert iso is not None
    projection = [iso[proj_psl[c]] for c in range(sl25.order)]

    with open(os.path.join(DATA, "sl25-ext.ext"), "w") as fh:
        fh.write("cover sl25.grp\n")
        fh.write("project\n")
        for i in range(0, len(projection), 20):
            fh.write(" ".join(str(x) for x in projection[i:i + 20]) + "\n")
        fh.write("center %s\n" % " ".join(str(x) for x in center))

    # complexes
    with open(os.path.join(DATA, "s2.cx"), "w") as fh:
        fh.write("vertices 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    with open(os.path.join(DATA, "rp2.cx"), "w") as fh:
        fh.write("vertices 6\n")
        for t in [(0, 1, 2), (0, 2, 3), (0, 1, 4), (0, 3, 5), (0, 4, 5),
                  (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)]:
            fh.write("%d %d %d\n" % t)
    with open(os.path.join(DATA, "torus7.cx"), "w") as fh:
        fh.write("vertices 7\n")
        for i in range(7):
            fh.write("%d %d %d\n" % tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        for i in range(7):
            fh.write("%d %d %d\n" % tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))

    with open(os.path.join(DATA, "poincare.pres"), "w") as fh:
        fh.write("gens 2\nx1 x1 x1 X2 X2 X2 X2 X2\nx1 x1 x1 X2 X1 X2 X1\n")

    # the example inputs of the README's command block
    with open(os.path.join(DATA, "and2.bool"), "w") as fh:
        fh.write("in 2\nAND 0 1 -> 2\nout 2\n")
    # over the Z2 data quotient (init symbols 0 1, final 2 3): one gate
    # carries init word 0 0 onto final word 2 2, another 0 1 onto 2 3
    with open(os.path.join(DATA, "data.rev"), "w") as fh:
        fh.write("alphabet 4\nwidth 2\n")
        for a, b in ((0, 10), (1, 11)):
            table = list(range(16))
            table[a], table[b] = b, a
            fh.write("gate 0 2 %s\n" % " ".join(map(str, table)))
    with open(os.path.join(DATA, "lens5.glu"), "w") as fh:
        fh.write("genus 1\nword tb1 tb1 tb1 tb1 tb1\n")
    with open(os.path.join(DATA, "pairs.txt"), "w") as fh:
        fh.write("".join("%d %d\n" % (x, x) for x in range(s3.order)))

    # validate the stem extension end to end through the file loaders
    a5_loaded = load_group(os.path.join(DATA, "a5.grp"))
    ext = load_stem_extension(os.path.join(DATA, "sl25-ext.ext"), a5_loaded)
    print("stem extension validated: cover order %d, center %s"
          % (ext.cover.order, ext.center_ids))
    print("data files written to", os.path.abspath(DATA))


if __name__ == "__main__":
    main()
