"""Line rules shared by every text file format of the package.

A line's content ends at its first `#`; blank and comment-only lines carry
nothing.  A keyword is the whole first token of a line, and integer fields
are whitespace-separated decimal integers.  Each reader passes its own
error class, so a malformed file raises that reader's typed error.
"""


def content_lines(text):
    """The stripped, non-empty lines of text, `#` comments removed."""
    lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
    return [ln for ln in lines if ln]


def int_fields(tokens, line, error):
    """The tokens as a tuple of integers; raises error naming the line."""
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise error("expected integers in line %r" % line) from None


def keyword_int(line, keyword, error):
    """The integer n of a line that reads exactly `<keyword> <n>`."""
    toks = line.split()
    if len(toks) != 2 or toks[0] != keyword:
        raise error("expected '%s <integer>', got %r" % (keyword, line))
    return int_fields(toks[1:], line, error)[0]
