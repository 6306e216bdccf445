import random

import pytest

from homcount.complexes import (Presentation, SimplicialComplex, band_ordering,
                                csaszar_torus, faces, genus2_ordering,
                                genus2_surface, greedy_ordering, grid_torus,
                                load_complex, presentation_from_complex)
from homcount.counting import (CountingLimits, DpStats, WorkBoundExceeded,
                               count_homs, count_quotients,
                               count_quotients_canonical, count_surjections,
                               dp_cocycle_count, dp_count_homs,
                               dp_count_homs_ungauged, narrow_ordering,
                               quotient_count, quotient_counts_via_inversion)
from homcount.groups import GroupError
from conftest import data_path

TORUS_P = Presentation(2, [(1, 2, -1, -2)])
POINCARE = Presentation(2, [(1, 1, 1, -2, -2, -2, -2, -2),
                            (1, 1, 1, -2, -1, -2, -1)])


def centralizer_sum(G):
    """Commuting-pair count: the independent oracle for torus hom counts."""
    return sum(1 for a in G.elements() for b in G.elements()
               if G.mul(a, b) == G.mul(b, a))


def test_count_homs_trivial_presentations(s3, a5):
    trivial = Presentation(1, [(1,)])
    assert count_homs(trivial, s3) == 1
    assert count_homs(trivial, a5) == 1
    free1 = Presentation(1, [])
    assert count_homs(free1, s3) == 6


def test_torus_counts(z2, z3, s3, a4, a5):
    for G in (z2, z3, s3, a4, a5):
        assert count_homs(TORUS_P, G) == centralizer_sum(G)
    assert count_surjections(TORUS_P, s3) == 0
    assert count_quotients(TORUS_P, s3) == 0


def test_poincare_counts(a5):
    assert count_homs(POINCARE, a5) == 121
    assert count_surjections(POINCARE, a5) == 120
    assert count_quotients(POINCARE, a5) == 1
    assert count_quotients_canonical(POINCARE, a5) == 1


def test_free_group_counts(z3, s3):
    free1 = Presentation(1, [])
    assert count_homs(free1, z3) == 3
    assert count_surjections(free1, z3) == 2
    assert count_quotients(free1, z3) == 1
    assert count_quotients_canonical(free1, z3) == 1
    assert quotient_count(12, s3) == 2
    with pytest.raises(GroupError):
        quotient_count(7, s3)


def test_enumeration_budget(a5):
    with pytest.raises(WorkBoundExceeded):
        count_homs(Presentation(4, [(1, 2, 3, 4)]), a5,
                   limits=CountingLimits(max_enumeration=100))


def test_dp_matches_presentation_small(z2, z3, s3, a4):
    complexes = [
        ("disk", SimplicialComplex(3, [(0, 1, 2)]), None),
        ("sphere", SimplicialComplex(4, [(0, 1, 2), (0, 1, 3),
                                         (0, 2, 3), (1, 2, 3)]), None),
        ("torus7", csaszar_torus(), None),
        ("grid", grid_torus(3, 3), band_ordering(3, 3)),
    ]
    for name, X, ordering in complexes:
        P, _ = presentation_from_complex(X)
        for G in (z2, z3, s3, a4):
            expect = count_homs(P, G)
            got = dp_count_homs(X, ordering, G)
            assert got == expect, (name, G.name)


def test_dp_ordering_invariance(s3):
    from homcount.counting import _vertex_sweep_ordering
    X = csaszar_torus()
    a = dp_count_homs(X, greedy_ordering(X), s3)
    b = dp_count_homs(X, narrow_ordering(X), s3)
    c = dp_count_homs(X, _vertex_sweep_ordering(X, 3), s3)
    d = dp_count_homs(X, _vertex_sweep_ordering(X, 6), s3)
    assert a == b == c == d == 18


def test_dp_ungauged_divisibility(z2, z3, s3):
    # ungauged states are |G|^(v-1)-fold larger, so stick to small cases
    disk = SimplicialComplex(3, [(0, 1, 2)])
    for G in (z2, z3, s3):
        assert dp_count_homs_ungauged(disk, None, G) == 1
    for G in (z2, z3):
        assert dp_count_homs_ungauged(csaszar_torus(), None, G) == \
            dp_count_homs(csaszar_torus(), None, G)
    sphere = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert dp_count_homs_ungauged(sphere, None, s3) == 1


def test_dp_tetrahedra(z3, s3):
    ball = SimplicialComplex(4, [(0, 1, 2, 3)])
    assert dp_count_homs(ball, None, s3) == 1
    assert dp_count_homs_ungauged(ball, None, z3) == 1


def test_dp_disconnected_rejected(s3):
    two = SimplicialComplex(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(Exception):
        dp_count_homs(two, None, s3)


def test_dp_state_budget(a4):
    X = genus2_surface()
    with pytest.raises(WorkBoundExceeded):
        dp_count_homs(X, genus2_ordering(), a4,
                      limits=CountingLimits(max_states=10))


def edge_sweep(X, edges):
    """The vertices, then each edge followed by the triangles it completes."""
    ordering = list(X.by_dim[0])
    placed = set()
    for e in edges:
        ordering.append(e)
        placed.add(e)
        ordering.extend(t for t in X.by_dim[2] if e in faces(t)
                        and all(f in placed for f in faces(t)))
    return ordering


# an edge order whose fused triangles solve for each of the three edges
# while the other two labels stay on the boundary
CSASZAR_EDGES = [(0, 2), (3, 6), (1, 5), (1, 2), (1, 4), (0, 6), (1, 6),
                 (0, 1), (2, 5), (4, 5), (0, 5), (2, 6), (2, 4), (0, 3),
                 (0, 4), (4, 6), (3, 4), (1, 3), (3, 5), (5, 6), (2, 3)]


@pytest.mark.parametrize("build, group, expected", [
    (lambda: (csaszar_torus(), None), "a4", (48, 20736, 9)),
    (lambda: (grid_torus(3, 3), band_ordering(3, 3)), "a5", (300, 3600, 5)),
    (lambda: (load_complex(data_path("rp2.cx"))[0], None), "a4", (4, 1728, 7)),
    (lambda: (csaszar_torus(), edge_sweep(csaszar_torus(), CSASZAR_EDGES)),
     "s3", (18, 1296, 7)),
], ids=["csaszar-A4", "grid3x3-A5", "rp2-A4", "csaszar-edge-sweep-S3"])
def test_dp_counts_and_state_peaks(request, build, group, expected):
    # pinned from the sweep that expanded every edge into |G| labels
    X, ordering = build()
    stats = DpStats()
    homs = dp_count_homs(X, ordering, request.getfixturevalue(group),
                         stats=stats)
    assert (homs, stats.max_states, stats.max_tracked_edges) == expected


def test_dp_dangling_edges(s3):
    # a whisker edge is contractible; a bare cycle contributes a free loop
    whisker = SimplicialComplex(4, [(0, 1, 2), (2, 3)])
    P, _ = presentation_from_complex(whisker)
    assert count_homs(P, s3) == dp_count_homs(whisker, None, s3) == 1
    loop = SimplicialComplex(5, [(0, 1, 2), (2, 3), (3, 4), (2, 4)])
    P, _ = presentation_from_complex(loop)
    assert count_homs(P, s3) == dp_count_homs(loop, None, s3) == 6


def test_inversion_f1_z4(z4):
    free1 = Presentation(1, [])
    table = quotient_counts_via_inversion(lambda J: count_homs(free1, J), z4)
    assert [row.quotients for row in table.rows] == [1, 1, 1]
    assert table.total_homs == 4


def test_inversion_trivial_source(s3):
    trivial = Presentation(1, [(1,)])
    table = quotient_counts_via_inversion(lambda J: count_homs(trivial, J), s3)
    assert table.rows[0].quotients == 1
    assert all(row.quotients == 0 for row in table.rows[1:])


def test_inversion_poincare(a5):
    table = quotient_counts_via_inversion(lambda J: count_homs(POINCARE, J), a5)
    assert table.total_homs == 121
    assert table.rows[-1].quotients == 1
    assert all(row.quotients == 0 for row in table.rows
               if 1 < row.order < 60)
    # e:hq consistency: no proper nontrivial quotients and perfect source
    naut = 120
    assert table.total_homs == naut * table.rows[-1].quotients + 1


def test_genus2_three_routes(z3, s3):
    X = genus2_surface()
    ordering = genus2_ordering()
    P, _ = presentation_from_complex(X)

    def conv_oracle(G):
        N = [0] * G.order
        for a in G.elements():
            for b in G.elements():
                N[G.comm(a, b)] += 1
        return sum(N[c] * N[G.inv(c)] for c in G.elements())

    for G in (z3, s3):
        expect = conv_oracle(G)
        assert dp_count_homs(X, ordering, G) == expect
        assert count_homs(P, G) == expect
