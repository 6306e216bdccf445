import random

import pytest

from homcount.complexes import (ComplexError, Presentation, PrefixBoundary,
                                SimplicialComplex, band_ordering,
                                csaszar_torus, faces, genus2_ordering,
                                genus2_surface, greedy_ordering, grid_torus,
                                homology, load_complex, ordering_width,
                                parse_complex_text, parse_presentation_text,
                                presentation_from_complex, smith_normal_form,
                                validate_ordering)
from homcount.counting import count_homs, dp_count_homs, narrow_ordering
from conftest import data_path


def sphere():
    return SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


# -- oracles: prefix boundaries recomputed from scratch ------------------------


def prefix_boundary(X, prefix):
    """bd of a subcomplex: closure minus interior, as a simplex set.

    A simplex of the prefix lies in the boundary iff some proper coface in X
    is missing from the prefix; the boundary is closed under faces.
    """
    prefix = set(prefix)
    bd = set()
    for s in prefix:
        if any(t not in prefix for t in X.cofaces(s)):
            stack = [s]
            while stack:
                t = stack.pop()
                if t in bd:
                    continue
                bd.add(t)
                stack.extend(faces(t))
    return bd


def prefix_boundary_direct(X, prefix):
    """Independent boundary computation: faces of missing simplices that lie
    in the prefix."""
    prefix = set(prefix)
    bd = set()
    for t in X.simplices():
        if t in prefix:
            continue
        stack = faces(t)
        while stack:
            f = stack.pop()
            if f in prefix and f not in bd:
                bd.add(f)
                stack.extend(faces(f))
    return bd


def oracle_greedy_ordering(X):
    """The greedy ordering with every candidate's boundary recomputed,
    after a deferral rank: vertices 1, edges in no triangle 2, else 0."""
    triangles = [set(t) for t in X.simplices() if len(t) == 3]

    def defer(s):
        if len(s) == 1:
            return 1
        if len(s) == 2 and not any(set(s) < t for t in triangles):
            return 2
        return 0

    placed = set()
    ordering = []
    remaining = set(X.simplices())
    while remaining:
        candidates = [s for s in remaining
                      if all(f in placed for f in faces(s))]
        best = None
        for s in sorted(candidates, key=lambda t: (len(t), t)):
            bd = prefix_boundary(X, placed | {s})
            key = (defer(s), len(bd), sum(1 for t in bd if len(t) == 2),
                   len(s), s)
            if best is None or key < best[0]:
                best = (key, s)
        s = best[1]
        placed.add(s)
        remaining.discard(s)
        ordering.append(s)
    return ordering


def random_complex(rng):
    """A seeded random complex of dimension at most 3, maybe disconnected."""
    nv = rng.randint(3, 8)
    simplices = [tuple(rng.sample(range(nv), min(rng.choice((2, 3, 3, 4)),
                                                 nv)))
                 for _ in range(rng.randint(1, 9))]
    return SimplicialComplex(nv, simplices)


def boundary_test_complexes():
    rng = random.Random(41)
    return ([csaszar_torus(), genus2_surface(), grid_torus(4, 4)]
            + [random_complex(rng) for _ in range(120)])


def test_closure_and_size():
    X = SimplicialComplex(3, [(0, 1, 2)])
    assert len(X.by_dim[0]) == 3 and len(X.by_dim[1]) == 3
    assert X.size == 7
    with pytest.raises(ComplexError):
        SimplicialComplex(5, [(0, 1, 2, 3, 4)])


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_unimodular_invariance():
    # rank and divisor product are invariant under random unimodular
    # row/column operations
    rng = random.Random(12)

    def rand_matrix(rows, cols):
        return [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]

    def unimodular_ops(M, n_ops):
        M = [row[:] for row in M]
        for _ in range(n_ops):
            kind = rng.randrange(4)
            if kind == 0 and len(M) > 1:
                i, j = rng.sample(range(len(M)), 2)
                c = rng.randint(-2, 2)
                M[i] = [a + c * b for a, b in zip(M[i], M[j])]
            elif kind == 1 and len(M[0]) > 1:
                i, j = rng.sample(range(len(M[0])), 2)
                c = rng.randint(-2, 2)
                for row in M:
                    row[i] += c * row[j]
            elif kind == 2 and len(M) > 1:
                i, j = rng.sample(range(len(M)), 2)
                M[i], M[j] = M[j], M[i]
            elif len(M[0]) > 1:
                i, j = rng.sample(range(len(M[0])), 2)
                for row in M:
                    row[i], row[j] = row[j], row[i]
        return M

    for _ in range(120):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = rand_matrix(rows, cols)
        d1 = smith_normal_form(M)
        d2 = smith_normal_form(unimodular_ops(M, 12))
        assert d1 == d2
        for a, b in zip(d1, d1[1:]):
            if b:
                assert a and b % a == 0


def test_homology_values(tmp_path):
    assert homology(sphere())[:3] == [(1, []), (0, []), (1, [])]
    X, _ = load_complex(data_path("rp2.cx"))
    assert homology(X)[1] == (0, [2])
    tor, _ = load_complex(data_path("torus7.cx"))
    assert homology(tor)[1] == (2, [])
    ball = SimplicialComplex(4, [(0, 1, 2, 3)])
    assert homology(ball) == [(1, []), (0, []), (0, []), (0, [])]


def test_homology_components_and_euler():
    two = SimplicialComplex(6, [(0, 1, 2), (3, 4, 5)])
    assert homology(two)[0][0] == 2
    assert not two.is_connected()
    assert not SimplicialComplex(0, []).is_connected()
    for X in (sphere(), grid_torus(3, 3), genus2_surface()):
        hom = homology(X)
        euler = sum((-1) ** k * hom[k][0] for k in range(4))
        assert euler == X.euler_characteristic()


def test_presentation_parsing():
    P = parse_presentation_text("gens 2\nx1 x2 X1 X2\n")
    assert P.ngens == 2 and P.relators == [(1, 2, -1, -2)]
    with pytest.raises(ComplexError):
        parse_presentation_text("gens 1\nx2\n")
    with pytest.raises(ComplexError):
        parse_presentation_text("x1\n")
    # header counts are bounded before one slot or simplex is laid out
    assert parse_presentation_text("gens 65536\n").ngens == 65536
    with pytest.raises(ComplexError, match="gens 200000000 exceeds bound"):
        parse_presentation_text("gens 200000000\n")
    with pytest.raises(ComplexError, match="vertices 200000000 exceeds bound"):
        parse_complex_text("vertices 200000000\n")
    assert "x1" in Presentation(1, [(1,)]).format()


def test_presentation_from_complex_shapes():
    disk = SimplicialComplex(3, [(0, 1, 2)])
    P, _ = presentation_from_complex(disk)
    assert P.ngens == 1 and P.relators == [(1,)]
    P, _ = presentation_from_complex(sphere())
    assert len(P.relators) == 4
    two = SimplicialComplex(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ComplexError):
        presentation_from_complex(two)


def oracle_non_forest_edges(X):
    """The edges, in order, whose ends the edges before them already join,
    by a search over those earlier edges."""
    out = []
    for k, (u, v) in enumerate(X.by_dim[1]):
        reach, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for a, b in X.by_dim[1][:k]:
                for y, z in ((a, b), (b, a)):
                    if y == x and z not in reach:
                        reach.add(z)
                        stack.append(z)
        if v in reach:
            out.append((u, v))
    return out


def test_presentation_generators_are_the_non_forest_edges():
    # a breadth-first tree from vertex 0 takes (1, 3) and (2, 3), where
    # the forest over the edge order takes (1, 2) and (1, 3)
    X = SimplicialComplex(4, [(0, 3), (1, 2, 3)])
    P, gen_of = presentation_from_complex(X)
    assert gen_of == {(2, 3): 1} and P.relators == [(1,)]
    checked = 0
    for X in boundary_test_complexes():
        if not X.is_connected():
            continue
        P, gen_of = presentation_from_complex(X)
        assert list(gen_of) == oracle_non_forest_edges(X)
        assert list(gen_of.values()) == list(range(1, P.ngens + 1))
        checked += 1
    assert checked >= 40


def test_presentation_counts_match_the_dp(s3):
    rng = random.Random(27)
    complexes = [csaszar_torus(), genus2_surface()]
    while len(complexes) < 30:
        X = random_complex(rng)
        if X.is_connected():
            complexes.append(X)
    for X in complexes:
        P, _ = presentation_from_complex(X)
        assert count_homs(P, s3) == dp_count_homs(X, narrow_ordering(X), s3)


def test_boundary_definitions_agree():
    rng = random.Random(3)
    for X in (sphere(), csaszar_torus(),
              SimplicialComplex(4, [(0, 1, 2, 3)])):
        ordering = greedy_ordering(X)
        prefix = set()
        for s in ordering:
            prefix.add(s)
            assert prefix_boundary(X, prefix) == prefix_boundary_direct(X, prefix)


def test_width_properties():
    disk = SimplicialComplex(3, [(0, 1, 2)])
    ordering = greedy_ordering(disk)
    w, we = ordering_width(disk, ordering)
    assert w >= we >= 0
    # full prefix has empty boundary
    assert prefix_boundary(disk, set(disk.simplices())) == set()
    # cycle graph sweep stays narrow
    cyc = SimplicialComplex(6, [(i, (i + 1) % 6) for i in range(6)])
    w, we = ordering_width(cyc, greedy_ordering(cyc))
    assert we <= 3
    # banded torus sweeps have width independent of the sweep length
    widths = set()
    for cols in (3, 4, 5, 6):
        X = grid_torus(3, cols)
        w, we = ordering_width(X, band_ordering(3, cols))
        widths.add(we)
    assert len(widths) == 1


def test_validate_ordering_rejects_bad():
    disk = SimplicialComplex(3, [(0, 1, 2)])
    ordering = greedy_ordering(disk)
    bad = [ordering[-1]] + ordering[:-1]
    with pytest.raises(ComplexError):
        validate_ordering(disk, bad)
    with pytest.raises(ComplexError):
        validate_ordering(disk, ordering[:-1])


def test_surface_builders():
    assert grid_torus(3, 3).euler_characteristic() == 0
    assert genus2_surface().euler_characteristic() == -2
    assert homology(genus2_surface())[1] == (4, [])
    validate_ordering(grid_torus(3, 5), band_ordering(3, 5))
    validate_ordering(genus2_surface(), genus2_ordering())
    with pytest.raises(ComplexError):
        grid_torus(2, 5)


def test_complex_file_with_ordering(tmp_path):
    path = tmp_path / "t.cx"
    X = SimplicialComplex(3, [(0, 1, 2)])
    lines = ["vertices 3", "0 1 2", "order"]
    lines += [" ".join(map(str, s)) for s in greedy_ordering(X)]
    path.write_text("\n".join(lines) + "\n")
    Y, ordering = load_complex(str(path))
    assert ordering is not None
    validate_ordering(Y, ordering)


def test_greedy_ordering_matches_oracle():
    for X in boundary_test_complexes():
        assert greedy_ordering(X) == oracle_greedy_ordering(X)


def test_prefix_boundary_counts_match_oracle():
    orderings = [(X, greedy_ordering(X)) for X in boundary_test_complexes()]
    orderings += [(grid_torus(4, 4), band_ordering(4, 4)),
                  (genus2_surface(), genus2_ordering())]
    for X, ordering in orderings:
        bd = PrefixBoundary(X)
        width = edge_width = 0
        for i, s in enumerate(ordering):
            bd.add(s)
            direct = prefix_boundary_direct(X, ordering[:i + 1])
            edges = sum(1 for t in direct if len(t) == 2)
            assert (bd.size, bd.edges) == (len(direct), edges)
            width = max(width, len(direct))
            edge_width = max(edge_width, edges)
        assert ordering_width(X, ordering) == (width, edge_width)
