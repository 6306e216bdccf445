"""Simplicial complexes, integral homology via Smith normal form, and
spanning-tree fundamental-group presentations.

Simplices are sorted vertex tuples, dimension at most 3.  Edges are oriented
from lower to higher vertex id; the 1-cocycle condition on a triangle
u < v < w reads g(u,v) * g(v,w) = g(u,w).
"""

from dataclasses import dataclass
from itertools import combinations
from .textformat import content_lines, int_fields, keyword_int


class ComplexError(ValueError):
    pass


def faces(simplex):
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


class SimplicialComplex:
    def __init__(self, nvertices, maximal_simplices):
        self.nvertices = nvertices
        closed = set()
        for s in maximal_simplices:
            s = tuple(sorted(set(s)))
            if len(s) > 4:
                raise ComplexError("simplex %r has dimension > 3" % (s,))
            if s and (s[0] < 0 or s[-1] >= nvertices):
                raise ComplexError("vertex id out of range in %r" % (s,))
            stack = [s]
            while stack:
                t = stack.pop()
                if t in closed or not t:
                    continue
                closed.add(t)
                stack.extend(faces(t))
        for v in range(nvertices):
            closed.add((v,))
        self.by_dim = [sorted(t for t in closed if len(t) == k + 1)
                       for k in range(4)]
        self._index = {t: i for k in range(4) for i, t in enumerate(self.by_dim[k])}
        self._cofaces = {t: [] for k in range(4) for t in self.by_dim[k]}
        for k in range(1, 4):
            for t in self.by_dim[k]:
                for f in faces(t):
                    self._cofaces[f].append(t)

    def simplices(self):
        for k in range(4):
            for t in self.by_dim[k]:
                yield t

    @property
    def size(self):
        return sum(len(lst) for lst in self.by_dim)

    def cofaces(self, s):
        """Simplices strictly containing s (proper cofaces of any dimension)."""
        out = []
        frontier = self._cofaces[s]
        seen = set()
        stack = list(frontier)
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            out.append(t)
            stack.extend(self._cofaces[t])
        return out

    def contains(self, s):
        return tuple(sorted(s)) in self._index

    def is_connected(self):
        if self.nvertices == 0:
            return True
        parent = list(range(self.nvertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v) in self.by_dim[1]:
            parent[find(u)] = find(v)
        return len({find(v) for v in range(self.nvertices)}) == 1

    def euler_characteristic(self):
        return sum((-1) ** k * len(self.by_dim[k]) for k in range(4))

    def boundary_matrix(self, k):
        """The boundary map from k-chains to (k-1)-chains, as rows x cols =
        (k-1)-simplices x k-simplices with alternating signs."""
        if k == 0:
            return [[0] * len(self.by_dim[0]) for _ in range(0)]
        rows = {t: i for i, t in enumerate(self.by_dim[k - 1])}
        M = [[0] * len(self.by_dim[k]) for _ in range(len(self.by_dim[k - 1]))]
        for j, t in enumerate(self.by_dim[k]):
            for i, f in enumerate(faces(t)):
                M[rows[f]][j] = (-1) ** i
        return M


def parse_complex_text(text):
    lines = content_lines(text) or [""]
    n = keyword_int(lines[0], "vertices", ComplexError)
    maximal = []
    ordering_lines = None
    for ln in lines[1:]:
        if ln == "order":
            ordering_lines = []
            continue
        ids = int_fields(ln.split(), ln, ComplexError)
        if ordering_lines is None:
            maximal.append(ids)
        else:
            ordering_lines.append(tuple(sorted(ids)))
    return SimplicialComplex(n, maximal), ordering_lines


def load_complex(path):
    with open(path) as fh:
        return parse_complex_text(fh.read())


# -- Smith normal form -----------------------------------------------------------


def smith_normal_form(M):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the full list of nonnegative diagonal entries d1 | d2 | ... of
    length min(rows, cols).  Pure big-integer arithmetic with pivoting on the
    minimal nonzero absolute value to limit coefficient blowup.
    """
    A = [list(row) for row in M]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    diag = []
    top = 0
    while top < min(nr, nc):
        # locate a minimal-magnitude nonzero pivot
        pivot = None
        for i in range(top, nr):
            for j in range(top, nc):
                if A[i][j] != 0 and (pivot is None
                                     or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[top], A[pi] = A[pi], A[top]
        for row in A:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear column
            again = False
            for i in range(top + 1, nr):
                if A[i][top]:
                    q = A[i][top] // A[top][top]
                    for j in range(top, nc):
                        A[i][j] -= q * A[top][j]
                    if A[i][top]:
                        A[top], A[i] = A[i], A[top]
                        again = True
            if again:
                continue
            # clear row
            for j in range(top + 1, nc):
                if A[top][j]:
                    q = A[top][j] // A[top][top]
                    for i in range(top, nr):
                        A[i][j] -= q * A[i][top]
                    if A[top][j]:
                        for row in A:
                            row[top], row[j] = row[j], row[top]
                        again = True
            if not again:
                break
        # divisibility: pivot must divide the remaining block
        d = A[top][top]
        fixed = True
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if A[i][j] % d != 0:
                    for jj in range(top, nc):
                        A[top][jj] += A[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(d))
        top += 1
    diag += [0] * (min(nr, nc) - len(diag))
    for a, b in zip(diag, diag[1:]):
        if b and a and b % a != 0:
            raise ComplexError("SNF divisibility chain broken")
        if a == 0 and b != 0:
            raise ComplexError("SNF zero ordering broken")
    return diag


def homology(X):
    """Integral homology in degrees 0..3 as (betti rank, torsion divisors)."""
    out = []
    ranks = {}
    snfs = {}
    for k in range(1, 4):
        M = X.boundary_matrix(k)
        if not M or not M[0]:
            snfs[k] = []
        else:
            snfs[k] = smith_normal_form(M)
        ranks[k] = sum(1 for d in snfs[k] if d != 0)
    ranks[4] = 0
    snfs[4] = []
    for k in range(4):
        nk = len(X.by_dim[k])
        rank_in = ranks.get(k, 0) if k >= 1 else 0
        rank_out = ranks[k + 1]
        betti = nk - rank_in - rank_out
        torsion = [d for d in snfs[k + 1] if d not in (0, 1)]
        out.append((betti, torsion))
    return out


# -- presentations ----------------------------------------------------------------


@dataclass
class Presentation:
    ngens: int
    relators: list   # tuples of signed 1-based generator indices

    def __post_init__(self):
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ComplexError("relator letter %d out of range" % letter)

    def format(self):
        lines = ["gens %d" % self.ngens]
        for rel in self.relators:
            lines.append(" ".join(
                ("x%d" % letter) if letter > 0 else ("X%d" % -letter)
                for letter in rel) or "e")
        return "\n".join(lines) + "\n"


def parse_presentation_text(text):
    import re
    lines = content_lines(text) or [""]
    ngens = keyword_int(lines[0], "gens", ComplexError)
    rels = []
    for ln in lines[1:]:
        if ln == "e":
            rels.append(())
            continue
        letters = re.findall(r"[xX]\d+", ln)
        if "".join(letters) != ln.replace(" ", ""):
            raise ComplexError("bad relator line %r" % ln)
        rels.append(tuple(int(t[1:]) if t[0] == "x" else -int(t[1:])
                          for t in letters))
    return Presentation(ngens, rels)


def load_presentation(path):
    with open(path) as fh:
        return parse_presentation_text(fh.read())


def presentation_from_complex(X, basepoint=0):
    """Spanning-tree presentation of the fundamental group of a connected
    complex: one generator per non-tree edge, one relator per triangle."""
    if not X.is_connected():
        raise ComplexError("complex is not connected")
    adj = {v: [] for v in range(X.nvertices)}
    for (u, v) in X.by_dim[1]:
        adj[u].append(v)
        adj[v].append(u)
    tree = set()
    seen = {basepoint}
    queue = [basepoint]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                tree.add(tuple(sorted((u, v))))
                queue.append(v)
    gen_of = {}
    idx = 0
    for e in X.by_dim[1]:
        if e not in tree:
            idx += 1
            gen_of[e] = idx

    def letter(u, v):
        """The generator letter of the oriented edge u -> v, or None."""
        e = tuple(sorted((u, v)))
        g = gen_of.get(e)
        if g is None:
            return None
        return g if u < v else -g

    relators = []
    for (u, v, w) in X.by_dim[2]:
        word = []
        for a, b in ((u, v), (v, w), (w, u)):
            lt = letter(a, b)
            if lt is not None:
                word.append(lt)
        relators.append(tuple(word))
    return Presentation(idx, relators), gen_of


# -- orderings and width -----------------------------------------------------------


def validate_ordering(X, ordering):
    ordering = [tuple(sorted(s)) for s in ordering]
    if sorted(ordering) != sorted(X.simplices()):
        raise ComplexError("ordering is not a permutation of the simplices")
    pos = {s: i for i, s in enumerate(ordering)}
    for s in ordering:
        for f in faces(s):
            if pos[f] > pos[s]:
                raise ComplexError(
                    "ordering puts %r after %r, breaking the face order" % (f, s))
    return ordering


class PrefixBoundary:
    """Boundary sizes of a growing face-closed prefix of X.

    A prefix simplex lies on the boundary iff one of its proper cofaces is
    still missing, and that set is already closed under faces; so the
    number of missing cofaces per simplex is all the bookkeeping needed.
    """

    def __init__(self, X):
        self.below = {s: [f for k in range(1, len(s))
                          for f in combinations(s, k)]
                      for s in X.simplices()}
        self.missing = dict.fromkeys(self.below, 0)
        for fs in self.below.values():
            for f in fs:
                self.missing[f] += 1
        self.size = 0       # boundary simplices of every dimension
        self.edges = 0      # boundary edges

    def delta(self, s):
        """(size change, edge change) that adding s would make."""
        missing = self.missing
        d = 1 if missing[s] else 0
        de = d if len(s) == 2 else 0
        for f in self.below[s]:
            if missing[f] == 1:
                d -= 1
                if len(f) == 2:
                    de -= 1
        return d, de

    def add(self, s):
        d, de = self.delta(s)
        self.size += d
        self.edges += de
        for f in self.below[s]:
            self.missing[f] -= 1


def ordering_width(X, ordering):
    """Maximum boundary size over prefixes, counting simplices of every
    dimension; the edge-only maximum is returned alongside."""
    ordering = validate_ordering(X, ordering)
    width = 0
    edge_width = 0
    bd = PrefixBoundary(X)
    for s in ordering:
        bd.add(s)
        width = max(width, bd.size)
        edge_width = max(edge_width, bd.edges)
    return width, edge_width


def grid_torus(rows, cols):
    """Torus triangulation on a rows x cols vertex grid (both >= 3).

    Square (i,j) splits into two triangles; wrapping both directions.
    """
    if rows < 3 or cols < 3:
        raise ComplexError("grid torus needs at least 3x3 vertices")

    def vid(i, j):
        return (i % rows) * cols + (j % cols)

    tris = []
    for i in range(rows):
        for j in range(cols):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, c, d))
    return SimplicialComplex(rows * cols, tris)


def band_ordering(rows, cols):
    """Column-sweep ordering for grid_torus(rows, cols): each step adds one
    column's vertices and edges, then the triangles of the completed band, so
    prefix boundaries stay two short cycles."""
    def vid(i, j):
        return (i % rows) * cols + (j % cols)

    def e(a, b):
        return tuple(sorted((a, b)))

    def tri1(i, j):
        return tuple(sorted((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1))))

    def tri2(i, j):
        return tuple(sorted((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1))))

    def band(j):
        """Band between columns j and j+1, each triangle right after the
        edge that completes it so the sweep state never balloons."""
        items = []
        for i in range(rows):
            items.append(e(vid(i, j), vid(i, j + 1)))            # horizontal
            if i >= 1:
                items.append(tri2(i - 1, j))
            items.append(e(vid(i, j), vid(i + 1, j + 1)))        # diagonal
            items.append(tri1(i, j))
        items.append(tri2(rows - 1, j))
        return items

    out = []
    for i in range(rows):
        out.append((vid(i, 0),))
    for i in range(rows):
        out.append(e(vid(i, 0), vid(i + 1, 0)))
    for j in range(1, cols):
        for i in range(rows):
            out.append((vid(i, j),))
        for i in range(rows):
            out.append(e(vid(i, j), vid(i + 1, j)))
        out.extend(band(j - 1))
    out.extend(band(cols - 1))
    return out


def csaszar_torus():
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return SimplicialComplex(7, tris)


def _genus2_parts(rows, cols):
    """Two grid tori sharing the vertices of one removed triangle."""
    def vid(i, j):
        return (i % rows) * cols + (j % cols)

    # a triangle of the first band, so both sweeps close its edges early
    hole = tuple(sorted((vid(rows - 1, 0), vid(0, 0), vid(0, 1))))
    T = grid_torus(rows, cols)
    if hole not in T._index:
        raise ComplexError("expected hole triangle missing")
    n = rows * cols
    relabel = {}
    nxt = n
    for v in range(n):
        if v in hole:
            relabel[v] = v
        else:
            relabel[v] = nxt
            nxt += 1
    return T, hole, relabel, nxt


def genus2_surface(rows=3, cols=3):
    """A genus-2 surface: two grid tori glued along a removed triangle."""
    T, hole, relabel, total = _genus2_parts(rows, cols)
    tris_a = [t for t in T.by_dim[2] if t != hole]
    tris_b = [tuple(sorted(relabel[v] for v in t)) for t in tris_a]
    return SimplicialComplex(total, tris_a + tris_b)


def genus2_ordering(rows=3, cols=3):
    """Sweep ordering for genus2_surface: band-sweep the first torus, then
    the second; the shared hole edges are closed early in the second sweep."""
    T, hole, relabel, _ = _genus2_parts(rows, cols)
    base = band_ordering(rows, cols)
    phase_a = [s for s in base if s != hole]
    placed = set(phase_a)
    phase_b = []
    for s in base:
        if s == hole:
            continue
        t = tuple(sorted(relabel[v] for v in s))
        if t not in placed:
            placed.add(t)
            phase_b.append(t)
    return phase_a + phase_b


def greedy_ordering(X):
    """A valid ordering chosen greedily to keep prefix boundaries small.

    At each step pick, among simplices whose faces are all placed, one that
    minimizes (boundary size, edge boundary size), breaking ties by dimension
    then vertex tuple.  Candidates are scored by the change they would make
    to an incremental PrefixBoundary, so a step costs time linear in the
    number of candidates.
    """
    bd = PrefixBoundary(X)
    unplaced = {s: len(faces(s)) for s in X.simplices()}
    candidates = {s for s, k in unplaced.items() if k == 0}
    ordering = []

    def score(s):
        return bd.delta(s) + (len(s), s)

    while candidates:
        s = min(candidates, key=score)
        candidates.remove(s)
        bd.add(s)
        ordering.append(s)
        for t in X._cofaces[s]:
            unplaced[t] -= 1
            if not unplaced[t]:
                candidates.add(t)
    return ordering
