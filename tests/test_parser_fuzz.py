"""Fuzz every file-format reader: a text built from a format's keywords,
small integers, `#` and newlines either parses or raises the reader's own
typed error, never a bare ValueError, IndexError or the like."""

from hypothesis import given, settings, strategies as st

from homcount.circuits import (CircuitError, parse_boolean_text,
                               parse_reversible_text)
from homcount.complexes import (ComplexError, parse_complex_text,
                                parse_presentation_text)
from homcount.groups import (FiniteGroup, GroupError, load_stem_extension,
                             parse_group_text, write_group_file)
from homcount.gsets import ActionError, parse_action_text
from homcount.surfaces import SurfaceError, parse_gluing_text

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)

# keywords and other tokens of each format; integers stay below 200, so no
# text declares an instance too big to build
WORDS = {
    "complex": ["vertices", "order"],
    "presentation": ["gens", "e", "x1", "X2", "x1X1"],
    "boolean": ["in", "out", "AND", "OR", "NOT", "COPY", "->"],
    "reversible": ["alphabet", "width", "init", "final", "gate"],
    "group": ["group", "G", "table", "perm-gens"],
    "extension": ["cover", "project", "center", "z2.grp"],
    "gluing": ["genus", "word", "ta1", "tb1'", "chain1", "foo"],
    "action": ["gamma", "points", "row", "(", ")", "z3.grp"],
}


# cycle lines for group texts; points stay below 24, where the stabilizer
# chain checks a declared order in milliseconds (even for S24) and this
# test stays near 2 s
CYCLES = st.lists(st.lists(st.integers(0, 23), max_size=6).map(
    lambda points: "(%s)" % " ".join(map(str, points))),
    min_size=1, max_size=3).map("".join)


def texts(fmt):
    """Lines of tokens, about half of them led by a keyword; group texts
    also get cycle lines and, half the time, a well-formed header."""
    words = WORDS[fmt]
    token = st.one_of(st.sampled_from(words + ["#"]),
                      st.integers(-3, 200).map(str))
    free = st.lists(token, max_size=6)
    led = st.tuples(st.sampled_from(words), free).map(
        lambda kv: [kv[0]] + kv[1])
    line = st.one_of(led, free).map(" ".join)
    if fmt != "group":
        return st.lists(line, max_size=8).map("\n".join)
    lines = st.lists(st.one_of(line, CYCLES), max_size=8)
    header = st.tuples(st.integers(-3, 200),
                       st.sampled_from(["table", "perm-gens"])).map(
        lambda om: "group G %d %s" % om)
    return st.one_of(lines, st.tuples(header, lines).map(
        lambda hl: [hl[0]] + hl[1])).map("\n".join)


def test_readers_raise_only_typed_errors(tmp_path):
    write_group_file(str(tmp_path / "z2.grp"), Z2)
    ext_path = tmp_path / "t.ext"

    def load_extension(text):
        ext_path.write_text(text)
        try:
            return load_stem_extension(str(ext_path), Z2)
        except FileNotFoundError:
            # a cover name that is an integer or a keyword names no file
            return None

    readers = [
        (parse_complex_text, ComplexError),
        (parse_presentation_text, ComplexError),
        (parse_boolean_text, CircuitError),
        (parse_reversible_text, CircuitError),
        (parse_group_text, GroupError),
        (load_extension, GroupError),
        (parse_gluing_text, SurfaceError),
        (lambda text: parse_action_text(text, lambda rel: Z3), ActionError),
    ]

    # each text, whichever format's words built it, goes to every reader
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(st.sampled_from(sorted(WORDS)).flatmap(texts))
    def check(text):
        for read, error in readers:
            try:
                read(text)
            except error:
                pass

    check()
